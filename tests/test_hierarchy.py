"""Designer-level competition: closed forms, FOC quadrature, market limits."""
import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from searchcontest import (
    ContestParams,
    DesignerParams,
    InvalidParameterError,
    NotViableError,
    make_exponential,
    make_pareto,
    make_uniform,
    solve_designer,
    solve_symmetric,
    verify_designer_foc,
)


def test_closed_form_small_case(uniform):
    # M=2, N=2, c=0.05: acceptance 0.05*2*3/1 = 0.3
    params = DesignerParams(n_designers=2, team_size=2, cost=0.05, meta_prize=1.0)
    eq = solve_designer(params, uniform)
    assert eq.threshold_quantile == pytest.approx(0.7, abs=1e-15)
    assert eq.threshold == pytest.approx(0.7, abs=1e-12)
    assert eq.internal_prize == pytest.approx(2 * 0.05 / 0.3, abs=1e-15)
    assert eq.designer_value == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert eq.dissipation_ratio == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_single_worker_reduces_to_individual_contest(uniform):
    params = DesignerParams(n_designers=2, team_size=1, cost=0.1, meta_prize=1.0)
    eq = solve_designer(params, uniform)
    ind = solve_symmetric(ContestParams(n_players=2, cost=0.1, prize=1.0), uniform)
    assert eq.threshold_quantile == pytest.approx(0.8, abs=1e-15)
    assert eq.threshold_quantile == pytest.approx(1.0 - ind.acceptance_prob, abs=1e-12)
    # teams of one dissipate everything
    assert eq.designer_value == 0.0
    assert eq.dissipation_ratio == 1.0


def test_designer_value_positive_for_real_teams(uniform):
    for n in (2, 3, 5):
        params = DesignerParams(n_designers=3, team_size=n, cost=0.01, meta_prize=1.0)
        assert solve_designer(params, uniform).designer_value > 0.0


def test_quantile_is_distribution_free(trio):
    params = DesignerParams(n_designers=3, team_size=2, cost=0.05, meta_prize=1.0)
    quantiles = [solve_designer(params, d).threshold_quantile for d in trio]
    for q in quantiles[1:]:
        assert abs(q - quantiles[0]) < 1e-12


def test_designer_threshold_below_individual_threshold(uniform):
    # same prize, same worker pool: internal competition softens search
    for cost in (0.02, 0.05, 0.1):
        params = DesignerParams(n_designers=2, team_size=2, cost=cost, meta_prize=1.0)
        eq = solve_designer(params, uniform)
        ind = solve_symmetric(
            ContestParams(n_players=4, cost=cost, prize=1.0), uniform
        )
        assert eq.threshold_quantile < 1.0 - ind.acceptance_prob


def test_not_viable_raises(uniform):
    params = DesignerParams(n_designers=2, team_size=2, cost=0.4, meta_prize=1.0)
    assert not params.viable
    with pytest.raises(NotViableError):
        solve_designer(params, uniform)


def test_boundary_cost_lands_on_support_lower(uniform):
    # acceptance exactly 1: c*M(NM-1)/(M-1) = 1 at c = 1/6
    params = DesignerParams(n_designers=2, team_size=2, cost=1.0 / 6.0, meta_prize=1.0)
    eq = solve_designer(params, uniform)
    assert eq.threshold == uniform.support_lower
    assert eq.threshold_quantile == pytest.approx(0.0, abs=1e-15)


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        DesignerParams(n_designers=1, team_size=2, cost=0.05, meta_prize=1.0)
    with pytest.raises(InvalidParameterError):
        DesignerParams(n_designers=2, team_size=0, cost=0.05, meta_prize=1.0)
    with pytest.raises(InvalidParameterError):
        DesignerParams(n_designers=2, team_size=2, cost=-0.1, meta_prize=1.0)
    with pytest.raises(InvalidParameterError):
        DesignerParams(n_designers=2, team_size=2, cost=0.05, meta_prize=0.0)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("dist_name", ["uniform", "exponential"])
def test_foc_verification_grid(m, n, dist_name, request):
    params = DesignerParams(n_designers=m, team_size=n, cost=0.05, meta_prize=1.0)
    report = verify_designer_foc(params, request.getfixturevalue(dist_name))
    assert report.passed
    assert report.relative_error < 1e-4
    assert abs(report.prob_at_equilibrium - 1.0 / m) < 1e-9
    assert report.deviation_gap <= 1e-9
    assert report.foc_gap_relative < 1e-3


# full-bit FOC reports: every float by hex, so a change of quadrature route
# that moves any bit of any integral shows; (2, 1, ...) reports passed=False
_FOC_DISTS = {
    "uniform": lambda: make_uniform(0.0, 1.0),
    "exponential": lambda: make_exponential(1.0),
    "pareto1.5": lambda: make_pareto(1.5, 1.0),
}
_FOC_CELLS = [(name, m, n, cost, step) for name in _FOC_DISTS
              for m, n, cost in ((2, 1, 0.005), (3, 4, 0.01), (5, 11, 0.0005), (8, 2, 0.002),
                                 (10, 20, 0.0001))
              for step in (1e-5, 1e-4)]
_FOC_FROZEN = json.loads(Path(__file__).with_name("designer_frozen_reports.json").read_text())


def _foc_report(name, m, n, cost, step):
    report = verify_designer_foc(DesignerParams(m, n, cost, 1.0), _FOC_DISTS[name](), step)
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in dataclasses.asdict(report).items()}


@pytest.mark.parametrize("name, m, n, cost, step", _FOC_CELLS)
def test_foc_reports_frozen(name, m, n, cost, step):
    key = f"{name} M={m} N={n} c={cost} step={step}"
    assert _foc_report(name, m, n, cost, step) == _FOC_FROZEN[key]


def test_foc_marginal_benefit_matches_marginal_cost(exponential):
    params = DesignerParams(n_designers=2, team_size=2, cost=0.05, meta_prize=1.0)
    report = verify_designer_foc(params, exponential)
    assert report.marginal_benefit == pytest.approx(report.marginal_cost, rel=1e-3)


def test_foc_step_validation(uniform):
    params = DesignerParams(n_designers=2, team_size=2, cost=0.05, meta_prize=1.0)
    with pytest.raises(InvalidParameterError):
        verify_designer_foc(params, uniform, step=0.5)
    with pytest.raises(InvalidParameterError):
        verify_designer_foc(params, uniform, step=1e-12)


def test_foc_step_up_to_a_tenth_of_the_tail():
    # the Richardson error grows as (step / tail)^4: 2.2e-5 at a tenth of the
    # tail passes the 1e-4 tolerance, a fifth would read 3.6e-4 and is refused
    params = DesignerParams(24, 6, 9.734177760728507e-06, 1.0)
    d = make_pareto(1.1, 1.0)
    tail = 1.0 - solve_designer(params, d).threshold_quantile
    assert verify_designer_foc(params, d, step=tail / 10).passed
    with pytest.raises(InvalidParameterError, match="over a tenth of"):
        verify_designer_foc(params, d, step=tail / 5)


def test_foc_requires_viable_params(uniform):
    params = DesignerParams(n_designers=2, team_size=2, cost=0.4, meta_prize=1.0)
    with pytest.raises(NotViableError):
        verify_designer_foc(params, uniform)


def test_large_market_limit_converges():
    # per-designer prize 1 held fixed: acceptance tends to N c / 1 = 0.1 as M grows
    ms = [2, 10, 100, 1000]
    accept = {m: DesignerParams(m, 2, 0.05, m * 1.0).acceptance_prob for m in ms}
    gaps = [abs(accept[m] - 0.1) for m in ms]
    assert accept[2] == pytest.approx(0.15, abs=1e-15)
    assert gaps[-1] < 1e-3
    assert abs(accept[1000] - 0.1) < 1e-3
    assert gaps == sorted(gaps, reverse=True)


def test_dissipation_in_large_teams_approaches_lottery_share(uniform):
    # N(M-1)/(NM-1) -> (M-1)/M as teams grow
    m = 3
    prev_gap = math.inf
    for n in (10, 100, 1000):
        params = DesignerParams(n_designers=m, team_size=n, cost=1e-5, meta_prize=1.0)
        gap = abs(solve_designer(params, uniform).dissipation_ratio - (m - 1) / m)
        assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-3


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=8),
    n=st.integers(min_value=1, max_value=8),
    cost=st.floats(min_value=1e-4, max_value=0.05),
    omega=st.floats(min_value=0.5, max_value=4.0),
)
def test_equilibrium_identities_hold(m, n, cost, omega, uniform):
    params = DesignerParams(n_designers=m, team_size=n, cost=cost, meta_prize=omega)
    if not params.viable:
        return
    eq = solve_designer(params, uniform)
    accept = 1.0 - eq.threshold_quantile
    assert 0.0 < accept <= 1.0
    assert eq.internal_prize == pytest.approx(n * cost / accept, rel=1e-12)
    assert eq.designer_value == pytest.approx(
        omega * (n - 1) / (m * (n * m - 1)), rel=1e-12
    )
    assert eq.dissipation_ratio == pytest.approx(
        n * (m - 1) / (n * m - 1), rel=1e-12
    )
    # accounting: M times value plus dissipated share exhausts the meta prize
    spent = eq.dissipation_ratio * omega
    assert m * eq.designer_value + spent == pytest.approx(omega, rel=1e-9)
