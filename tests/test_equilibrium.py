"""Infinite-horizon equilibria: symmetric, multi-prize, asymmetric."""
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from searchcontest import (
    ContestParams,
    InvalidParameterError,
    NoAsymmetricEquilibriumError,
    NoSearchIncentiveError,
    NotViableError,
    NumericFailureError,
    PrizeSchedule,
    SearchContestError,
    make_exponential,
    make_pareto,
    make_uniform,
    solve_asymmetric,
    solve_multiprize,
    solve_symmetric,
)
from searchcontest.equilibrium import _brentq

# two-player-types equilibrium quantiles, solved independently to high
# precision from the zero-profit and indifference conditions
ASYM_N3_C01 = (29.0 / 45.0, 11.0 / 15.0, 1.0 / 16.0)
ASYM_N4_C005 = (0.7303038081089, 0.855031634169, 0.09891578817859)


def test_symmetric_acceptance_probability_grid(trio):
    for d in trio:
        for n in range(2, 7):
            for c in (0.01, 0.05, 0.1):
                eq = solve_symmetric(ContestParams(n, c, 1.0), d)
                assert abs(eq.acceptance_prob - n * c) < 1e-12
                assert abs(float(d.cdf(eq.threshold)) - (1.0 - n * c)) < 1e-9
                assert eq.expected_draws == pytest.approx(1.0 / (n * c), rel=1e-12)
                assert eq.dissipation_ratio == pytest.approx(1.0, abs=1e-12)
                assert eq.player_value == pytest.approx(0.0, abs=1e-12)


def test_symmetric_uniform_threshold_value(uniform):
    eq = solve_symmetric(ContestParams(3, 0.1, 1.0), uniform)
    assert eq.threshold == pytest.approx(0.7, abs=1e-12)


def test_symmetric_total_cost_equals_prize(trio):
    for d in trio:
        eq = solve_symmetric(ContestParams(4, 0.05, 2.0), d)
        assert 4 * eq.expected_cost_per_player == pytest.approx(2.0, rel=1e-12)


def test_symmetric_boundary_accepts_everything(uniform):
    eq = solve_symmetric(ContestParams(2, 0.5, 1.0), uniform)
    assert eq.acceptance_prob == 1.0
    assert eq.threshold == uniform.support_lower
    assert eq.expected_draws == 1.0


def test_symmetric_not_viable(uniform):
    with pytest.raises(NotViableError):
        solve_symmetric(ContestParams(3, 0.5, 1.0), uniform)


def test_contest_params_validation():
    with pytest.raises(InvalidParameterError):
        ContestParams(1, 0.1, 1.0)
    with pytest.raises(InvalidParameterError):
        ContestParams(3, -0.1, 1.0)
    with pytest.raises(InvalidParameterError):
        ContestParams(3, 0.1, 0.0)


def test_more_rivals_lower_threshold(exponential):
    # discouragement: acceptance loosens as the field grows
    thresholds = [
        solve_symmetric(ContestParams(n, 0.02, 1.0), exponential).threshold
        for n in range(2, 12)
    ]
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))


@given(
    n=st.integers(2, 9),
    c=st.floats(1e-4, 0.1),
    w=st.floats(0.5, 5.0),
    pick=st.integers(0, 2),
)
def test_symmetric_invariants_random(n, c, w, pick):
    d = [make_uniform(0.0, 1.0), make_exponential(1.0), make_pareto(2.0, 1.0)][pick]
    params = ContestParams(n, c, w)
    if n * c > w:
        with pytest.raises(NotViableError):
            solve_symmetric(params, d)
        return
    eq = solve_symmetric(params, d)
    assert eq.acceptance_prob == pytest.approx(n * c / w, abs=1e-14)
    assert eq.dissipation_ratio == pytest.approx(1.0, abs=1e-12)
    assert eq.player_value == pytest.approx(0.0, abs=1e-12)
    assert eq.threshold >= d.support_lower


# ------------------------------------------------------------- multi-prize


def test_prize_schedule_validation():
    with pytest.raises(InvalidParameterError):
        PrizeSchedule(())
    with pytest.raises(InvalidParameterError):
        PrizeSchedule((1.0, 2.0))
    with pytest.raises(InvalidParameterError):
        PrizeSchedule((2.0, -1.0))
    s = PrizeSchedule((3.0, 2.0, 1.0))
    assert s.mean == pytest.approx(2.0) and s.last == 1.0


def test_multiprize_linear_schedule_closed_form(trio):
    # prizes a*(N+1-k): rents equal the slope, dissipation (N-1)/(N+1)
    a = 1.0
    for d in trio:
        for n in range(2, 7):
            sched = PrizeSchedule(tuple(a * (n + 1 - k) for k in range(1, n + 1)))
            eq = solve_multiprize(n, 0.05, sched, d)
            assert eq.player_value == pytest.approx(a, abs=1e-12)
            assert eq.dissipation_ratio == pytest.approx((n - 1) / (n + 1), abs=1e-12)
            assert eq.acceptance_prob == pytest.approx(
                0.05 / (sched.mean - sched.last), rel=1e-12
            )


def test_multiprize_reduces_to_single_prize(uniform):
    eq_multi = solve_multiprize(3, 0.1, PrizeSchedule((1.0, 0.0, 0.0)), uniform)
    eq_single = solve_symmetric(ContestParams(3, 0.1, 1.0), uniform)
    assert eq_multi.threshold == pytest.approx(eq_single.threshold, abs=1e-14)
    assert eq_multi.player_value == pytest.approx(0.0, abs=1e-14)
    assert eq_multi.dissipation_ratio == pytest.approx(1.0, abs=1e-14)


def test_multiprize_equal_prizes_kill_search(uniform):
    with pytest.raises(NoSearchIncentiveError):
        solve_multiprize(3, 0.05, PrizeSchedule((1.0, 1.0, 1.0)), uniform)


def test_multiprize_schedule_length_checked(uniform):
    with pytest.raises(InvalidParameterError):
        solve_multiprize(3, 0.05, PrizeSchedule((2.0, 1.0)), uniform)


def test_multiprize_spread_too_small_not_viable(uniform):
    with pytest.raises(NotViableError):
        solve_multiprize(2, 0.6, PrizeSchedule((2.0, 1.0)), uniform)


# ------------------------------------------------------------- asymmetric


def _low_zero_profit(l: float, h: float, n: int, c: float, w: float) -> float:
    # independent residual: a low player's value from one more draw
    val, _ = quad(
        lambda u: ((u - l) / (1.0 - l)) ** (n - 2) * (u - h) / (1.0 - h),
        h, 1.0, epsabs=1e-13, epsrel=0.0,
    )
    return -c + w * val


def _high_indifference(l: float, h: float, n: int, c: float, w: float) -> float:
    v_h = w * ((h - l) / (1.0 - l)) ** (n - 1)
    val, _ = quad(
        lambda u: ((u - l) / (1.0 - l)) ** (n - 1),
        h, 1.0, epsabs=1e-13, epsrel=0.0,
    )
    return v_h * (1.0 - h) + c - w * val


def test_asymmetric_three_players(uniform):
    eq = solve_asymmetric(ContestParams(3, 0.1, 1.0), uniform)
    l, h, v = ASYM_N3_C01
    assert eq.low_threshold == pytest.approx(l, abs=1e-10)
    assert eq.high_threshold == pytest.approx(h, abs=1e-10)
    assert eq.high_player_value == pytest.approx(v, abs=1e-10)


def test_asymmetric_quantiles_distribution_free(exponential, uniform):
    eu = solve_asymmetric(ContestParams(3, 0.1, 1.0), uniform)
    ee = solve_asymmetric(ContestParams(3, 0.1, 1.0), exponential)
    assert float(exponential.cdf(ee.low_threshold)) == pytest.approx(
        float(uniform.cdf(eu.low_threshold)), abs=1e-9
    )
    assert ee.high_player_value == pytest.approx(eu.high_player_value, abs=1e-9)


def test_asymmetric_four_players(uniform):
    eq = solve_asymmetric(ContestParams(4, 0.05, 1.0), uniform)
    l, h, v = ASYM_N4_C005
    assert eq.low_threshold == pytest.approx(l, abs=1e-8)
    assert eq.high_threshold == pytest.approx(h, abs=1e-8)
    assert eq.high_player_value == pytest.approx(v, abs=1e-8)


def test_asymmetric_players_past_the_table_budget_refused_first(monkeypatch, uniform):
    # N-entry binomial tables from lgam: refused before the first lgam call
    class TableStarted(Exception):
        pass

    def no_tables(x):
        raise TableStarted

    monkeypatch.setattr("searchcontest._numerics.lgam", no_tables)
    monkeypatch.setattr("searchcontest.equilibrium.lgam", no_tables)
    for n, c in ((2**20 + 1, 1e-7), (10**300, 1e-301)):
        with pytest.raises(InvalidParameterError, match="at most 1048576 players"):
            solve_asymmetric(ContestParams(n, c, 1.0), uniform)
    with pytest.raises(TableStarted):  # the budget admits 2**20 players
        solve_asymmetric(ContestParams(2**20, 1e-7, 1.0), uniform)


@pytest.mark.parametrize("n,c", [(3, 0.1), (3, 0.05), (4, 0.05), (5, 0.03)])
def test_asymmetric_solves_equilibrium_conditions(uniform, n, c):
    eq = solve_asymmetric(ContestParams(n, c, 1.0), uniform)
    l, h = eq.low_threshold, eq.high_threshold
    assert 0.0 < l < h < 1.0
    assert abs(_low_zero_profit(l, h, n, c, 1.0)) < 1e-9
    assert abs(_high_indifference(l, h, n, c, 1.0)) < 1e-9
    v_h = ((h - l) / (1.0 - l)) ** (n - 1)
    assert eq.high_player_value == pytest.approx(v_h, rel=1e-9)
    # the high player is strictly pickier than the whole symmetric field
    q_sym = 1.0 - n * c
    assert h > q_sym > 0.0


def test_asymmetric_two_players_impossible(uniform):
    with pytest.raises(NoAsymmetricEquilibriumError):
        solve_asymmetric(ContestParams(2, 0.1, 1.0), uniform)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(3, 300), log_accept=st.floats(math.log(1e-6), 0.0, exclude_max=True))
def test_asymmetric_total_on_box(uniform, n, log_accept):
    # every cell with N*c/W in [1e-6, 1) either solves or ends in the
    # package's own error, with no float warning on the way
    accept = math.exp(log_accept)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            eq = solve_asymmetric(ContestParams(n, accept / n, 1.0), uniform)
        except SearchContestError:
            return
    # the low players are less picky than the symmetric field, the high one more
    assert 0.0 <= eq.low_threshold <= 1.0 - accept <= eq.high_threshold < 1.0
    assert 0.0 < eq.high_player_value < 1.0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(3, 300), log_accept=st.floats(math.log(1e-300), math.log(1e-6)))
def test_asymmetric_total_at_tiny_costs(uniform, n, log_accept):
    # below that box, down to N*c/W = 1e-300: a result or the package's own
    # error, never a raw root-search exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            solve_asymmetric(ContestParams(n, math.exp(log_accept) / n, 1.0), uniform)
        except SearchContestError:
            pass


def test_asymmetric_root_search_failure_is_numeric_failure():
    # a step function brentq cannot close within its iteration budget
    with pytest.raises(NumericFailureError) as exc:
        _brentq(lambda x: 1.0 if x > 1e-300 else -1.0, 0.0, 1.0, xtol=1e-310)
    assert exc.value.diagnostics["iterations"] == 100
