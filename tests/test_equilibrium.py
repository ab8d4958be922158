"""Infinite-horizon equilibria: symmetric, multi-prize, asymmetric."""
import math
import random
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import xlogy

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
from searchcontest._numerics import lgam
from searchcontest.equilibrium import _brentq, _mean_inv1, _mean_inv2

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


def _assert_solves_conditions(eq, n: int, c: float, value_rel: float) -> None:
    l, h = eq.low_threshold, eq.high_threshold
    assert 0.0 < l < h < 1.0
    assert abs(_low_zero_profit(l, h, n, c, 1.0)) < 1e-9
    assert abs(_high_indifference(l, h, n, c, 1.0)) < 1e-9
    v_h = ((h - l) / (1.0 - l)) ** (n - 1)
    assert eq.high_player_value == pytest.approx(v_h, rel=value_rel)
    # the high player is strictly pickier than the whole symmetric field
    q_sym = 1.0 - n * c
    assert h > q_sym > 0.0


@pytest.mark.parametrize("n,c", [(3, 0.1), (3, 0.05), (4, 0.05), (5, 0.03)])
def test_asymmetric_solves_equilibrium_conditions(uniform, n, c):
    eq = solve_asymmetric(ContestParams(n, c, 1.0), uniform)
    _assert_solves_conditions(eq, n, c, 1e-9)


@pytest.mark.parametrize("n,c", [(2**21, 1e-7), (10**9, 1e-10), (10**300, 1e-301)],
                         ids=["2**21", "10**9", "10**300"])
def test_asymmetric_large_counts_solve_or_refuse(uniform, n, c):
    # no table bounds N: a cell past 2**20 either solves the equilibrium
    # conditions or is refused, with no float warning on the way. The thresholds
    # are floats near 1, which carry the high player's acceptance only to about
    # 2^-53 / (1 - h) relative, so the value read back from them holds to
    # 3 (N - 1) 2^-53 / (h - l) on top of the 1e-9 asked at small N
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            eq = solve_asymmetric(ContestParams(n, c, 1.0), uniform)
        except InvalidParameterError as ex:
            assert n == 10**300 and "below float resolution" in str(ex)
            return
    assert n < 10**300
    resolution = 3.0 * (n - 1) * 2.0**-53 / (eq.high_threshold - eq.low_threshold)
    _assert_solves_conditions(eq, n, c, 1e-9 + resolution)
    # an oracle that needs no threshold: as N grows with delta = x/N, the two
    # conditions' difference tends to (1 - e^-x)/x - e^-x - (x - 1 + e^-x)/x^2,
    # and the value to e^-x at its root, with a gap of about 1.1/N
    x = brentq(lambda x: (-math.expm1(-x) / x - math.exp(-x)
                          - (x - 1.0 + math.exp(-x)) / x**2), 1.0, 2.5, xtol=1e-15)
    assert eq.high_player_value == pytest.approx(math.exp(-x), rel=2.0 / n)


def _exact_mean(m: int, delta: float, j: int) -> Fraction:
    """E[1/(X+j)], X ~ Binom(m, delta), exactly for the float delta = p/q: one
    integer sum over the common denominator lcm(j..m+j) q^m."""
    p, q = delta.as_integer_ratio()
    lcm = math.lcm(*range(j, m + j + 1))
    return Fraction(sum(math.comb(m, i) * p**i * (q - p) ** (m - i) * (lcm // (i + j))
                        for i in range(m + 1)), lcm * q**m)


def test_binomial_means_equal_exact_sums():
    # delta is log-uniform on [1e-12, 0.99] for E[1/(X+1)], and for E[1/(X+2)]
    # on the range the solver reads, (m + 2) delta >= 1, where its closed form's
    # numerator cancels least; a third of the draws fall near (m + 2) delta = 1
    rng = random.Random(20261022)
    eps, cells = 2.0**-52, [(m, 0.5) for m in (1, 2, 63, 64)]
    for _ in range(700):
        m = rng.randint(1, 64)
        delta = math.exp(rng.uniform(math.log(1e-12), math.log(0.99)))
        if rng.random() < 1 / 3:
            delta = rng.uniform(0.5, 2.0) / (m + 2)
        cells.append((m, delta))
    for m, delta in cells:
        for j, mean in ((1, _mean_inv1), (2, _mean_inv2)):
            if j == 1 or (m + 2) * delta >= 1.0:
                want = _exact_mean(m, delta, j)
                assert abs(Fraction(mean(m, delta)) - want) <= 4 * eps * want, (j, m, delta)


# The former solver's sums in log space, word for word, as the oracle at large m.
# scipy's xlogy has the bits of the port they called
@lru_cache(maxsize=8)
def _log_binom_coefficients(m: int) -> tuple[np.ndarray, np.ndarray]:
    """i = 0..m and log C(m, i), from cephes' lgam (math.lgamma's bits differ)."""
    log_fact = np.array([lgam(k + 1) for k in range(m + 1)])
    return np.arange(m + 1), lgam(m + 1) - log_fact - log_fact[::-1]


def _binom_pmf(m: int, s_h: float, s_l: float) -> tuple[np.ndarray, np.ndarray]:
    """i and Binom(i; m, delta) with delta = s_h/s_l, summed in log space so
    no power of a tail underflows on its own; beta = 1 - delta is formed from
    the tails, not by subtraction from 1."""
    i, log_comb = _log_binom_coefficients(m)
    log_pmf = log_comb + xlogy(i, s_h / s_l) + xlogy(m - i, (s_l - s_h) / s_l)
    return i, np.exp(log_pmf)


@pytest.mark.parametrize("m", [1, 2, 7, 64, 65, 1000, 2**16 + 1, 2**20])
def test_binomial_means_equal_the_log_space_sums(m):
    # within the log-space sums' own error, about 1e-8 relative at the largest m,
    # with s_l = 1 so that both read the same delta, log-uniform from 1/(m + 2)
    rng = random.Random(m)
    for _ in range(12):
        delta = math.exp(rng.uniform(-math.log(m + 2), math.log(0.99)))
        i, pmf = _binom_pmf(m, delta, 1.0)
        for j, mean in ((1, _mean_inv1), (2, _mean_inv2)):
            want = float(np.multiply(pmf, 1.0 / (i + j)).sum())
            assert mean(m, delta) == pytest.approx(want, rel=1e-8, abs=0.0), (j, delta)


# solve_asymmetric's bits: closed forms and one root search on Python floats
# through libm, with no numpy loop, so they hold at every numpy SIMD level and
# BLAS kernel
_ASYM_HEX = {
    (3, 0.1): ("0x1.49f49f49f49f4p-1", "0x1.7777777777778p-1", "0x1.0000000000000p-4"),
    (4, 0.05): ("0x1.75ea6177f1b80p-1", "0x1.b5c6b4d39a45dp-1", "0x1.9528b8b48fb93p-4"),
    (30, 0.01): ("0x1.d792761926290p-2", "0x1.ef14111261c74p-1", "0x1.476c0eb1a45dfp-3"),
    (200, 0.001): ("0x1.41bcae7b6742ap-1", "0x1.fe49a9fd2aef5p-1", "0x1.52e03bfc493f4p-3"),
    (2**20, 1e-7): ("0x1.9bae3f40fde79p-1", "0x1.fffff4c1956d1p-1", "0x1.54d049c42489dp-3"),
}


@pytest.mark.parametrize("n,c", list(_ASYM_HEX), ids=["3-0.1", "4-0.05", "30-0.01",
                                                     "200-0.001", "2**20-1e-7"])
def test_asymmetric_frozen_hex(uniform, n, c):
    # (low threshold, high threshold, high player's value)
    eq = solve_asymmetric(ContestParams(n, c, 1.0), uniform)
    got = (eq.low_threshold.hex(), eq.high_threshold.hex(), eq.high_player_value.hex())
    assert got == _ASYM_HEX[n, c]


def test_asymmetric_two_players_impossible(uniform):
    with pytest.raises(NoAsymmetricEquilibriumError):
        solve_asymmetric(ContestParams(2, 0.1, 1.0), uniform)


@pytest.mark.parametrize("n", [3, 30, 10**9])
def test_asymmetric_low_players_who_cannot_break_even_refused(uniform, n):
    # at N c / W = 0.9 the low players' zero profit needs an acceptance above 1
    with pytest.raises(NoAsymmetricEquilibriumError, match="cannot break even"):
        solve_asymmetric(ContestParams(n, 0.9 / n, 1.0), uniform)


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
