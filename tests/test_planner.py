"""Welfare optimum, efficient prize, prize classification, hazard ordering."""
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import betaln

from searchcontest import (
    ContestParams,
    DivergentObjectiveError,
    EFFICIENT,
    InvalidParameterError,
    NumericFailureError,
    OVERSEARCH,
    SearchContestError,
    UNDERSEARCH,
    classify_prize,
    efficient_prize_integral,
    from_quantile_grid,
    hazard_order_check,
    make_exponential,
    make_pareto,
    make_uniform,
    planner_welfare,
    solve_planner,
    solve_symmetric,
)
from searchcontest import planner
from searchcontest._numerics import lgam
from searchcontest.equilibrium import _brentq

# interior of 0..1: integral of (1-t^2)^(n-1) dt drives the pareto(2,1) optimum
_PARETO_FACTOR = {2: 2.0 / 3.0, 3: 8.0 / 15.0, 5: 128.0 / 315.0}


def _uniform_oracle(n, c):
    s = c * n * (n + 1)
    return (1.0 - math.sqrt(s), math.sqrt(n * c / (n + 1))) if s < 1.0 else None


# kinked piecewise-linear quantile function
_GRID3 = [[0.0, 0.0], [0.5, 1.0], [1.0, 3.0]]


def test_welfare_uniform_values(uniform):
    # nearly free draws: welfare approaches the plain mean
    assert planner_welfare(0.0, 1, 1e-9, uniform) == pytest.approx(0.5, abs=1e-6)
    assert planner_welfare(0.0, 2, 0.1, uniform) == pytest.approx(2.0 / 3.0 - 0.2, abs=1e-9)
    expected = (0.5 + 0.5 * 2.0 / 3.0) - 2 * 0.1 / 0.5
    assert planner_welfare(0.5, 2, 0.1, uniform) == pytest.approx(expected, abs=1e-9)


def test_welfare_rejects_degenerate_threshold(uniform):
    with pytest.raises(InvalidParameterError):
        planner_welfare(1.0, 2, 0.1, uniform)


def test_args_validation(uniform):
    with pytest.raises(InvalidParameterError):
        solve_planner(0, 0.1, uniform)
    with pytest.raises(InvalidParameterError):
        solve_planner(2, -0.1, uniform)
    # N cost = inf would give every candidate, the corner too, welfare -inf
    with pytest.raises(InvalidParameterError, match="2 players at cost 1e.308 .* overflow"):
        solve_planner(2, 1e308, uniform)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("cost", [0.01, 0.05, 0.1])
def test_uniform_closed_form_grid(n, cost, uniform):
    sol = solve_planner(n, cost, uniform)
    oracle = _uniform_oracle(n, cost)
    if oracle is None:
        assert not sol.interior
        assert sol.threshold == uniform.support_lower
        assert sol.acceptance_prob == 1.0
        assert sol.efficient_prize == pytest.approx(n * cost, rel=1e-12)
        return
    b_star, w_star = oracle
    assert sol.interior
    assert sol.threshold == pytest.approx(b_star, rel=1e-8, abs=1e-10)
    assert sol.efficient_prize == pytest.approx(w_star, rel=1e-8)
    assert abs(sol.foc_residual) < 1e-9


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("cost", [0.01, 0.05, 0.1])
def test_exponential_closed_form_grid(n, cost, exponential):
    sol = solve_planner(n, cost, exponential)
    assert sol.interior
    assert sol.threshold == pytest.approx(math.log(1.0 / (n * cost)), rel=1e-8)
    # memoryless draws make every prize level self-financing at the optimum
    assert sol.efficient_prize == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("cost", [0.01, 0.05, 0.1])
def test_pareto_closed_form_grid(n, cost, pareto):
    sol = solve_planner(n, cost, pareto)
    factor = _PARETO_FACTOR[n]
    assert sol.interior
    assert sol.threshold == pytest.approx(factor / cost, rel=1e-8)
    assert sol.efficient_prize == pytest.approx(n * factor**2 / cost, rel=1e-8)


def test_reference_triple(uniform, pareto):
    sol = solve_planner(2, 0.1, uniform)
    assert sol.threshold == pytest.approx(1.0 - math.sqrt(0.6), rel=1e-8)
    assert sol.efficient_prize == pytest.approx(math.sqrt(0.2 / 3.0), rel=1e-8)
    assert sol.efficient_prize == pytest.approx(0.2582, abs=5e-5)
    psol = solve_planner(2, 0.1, pareto)
    assert psol.threshold == pytest.approx(2.0 / 0.3, rel=1e-8)
    assert psol.efficient_prize == pytest.approx(8.0 / 0.9, rel=1e-8)


def test_welfare_is_stationary_at_optimum(uniform, exponential):
    for n, cost, d in ((2, 0.1, uniform), (3, 0.05, exponential)):
        sol = solve_planner(n, cost, d)
        h = 1e-5
        up = planner_welfare(sol.threshold + h, n, cost, d)
        dn = planner_welfare(sol.threshold - h, n, cost, d)
        assert abs(up - dn) / (2 * h) < 1e-6
        assert planner_welfare(sol.threshold, n, cost, d) == pytest.approx(
            sol.welfare, rel=1e-9
        )


def test_optimum_beats_nearby_thresholds(uniform):
    sol = solve_planner(2, 0.1, uniform)
    for b in (sol.threshold - 0.1, sol.threshold + 0.1, 0.01, 0.6):
        assert planner_welfare(b, 2, 0.1, uniform) <= sol.welfare + 1e-12


def test_fat_tail_rejected():
    heavy = make_pareto(1.0, 1.0)
    with pytest.raises(DivergentObjectiveError):
        solve_planner(2, 0.1, heavy)
    with pytest.raises(DivergentObjectiveError):
        planner_welfare(2.0, 2, 0.1, heavy)


@pytest.mark.parametrize("shape, n, cost", [(1.1, 2, 0.1), (1.05, 10, 0.3), (1.3, 1, 0.01)])
def test_optimum_past_float_resolution_refused(shape, n, cost):
    # welfare still rises at acceptance 1e-9, so the q = 0 corner is no answer
    with pytest.raises(NumericFailureError) as info:
        solve_planner(n, cost, make_pareto(shape, 1.0))
    assert info.value.diagnostics["top_residual"] > 0.0


def test_refusal_evaluates_only_the_top_point(monkeypatch):
    # a refusal reads one closed-form residual, at the top point, and integrates nothing
    evaluated = []

    def spy(name):
        original = getattr(planner, name)

        def call(q, *args):
            evaluated.append((name, q))
            return original(q, *args)

        monkeypatch.setattr(planner, name, call)

    spy("_closed_residual")
    spy("_foc_residual")
    with pytest.raises(NumericFailureError):
        solve_planner(20, 1.0, make_pareto(1.05, 1.0))
    assert evaluated == [("_closed_residual", 1.0 - 1e-9)]


# grids on which a 64/128-node sign certificate was wrong next to a kink: it
# handed brentq the grid interval (qs[i], qs[i + 1]), whose adaptive residuals
# share a sign. The closed-form signs bracket the root next to it.
_UNSOUND_BRACKET_CELLS = [
    (5, 0.1, [[0, 0], [0.2, 0.5], [0.5, 1], [0.9, 2], [1, 5]]),
    (1, 0.1, [[0, 0], [0.85, 0.1], [1, 0.81]]),
    (5, 0.1, [[0, 0], [0.25, 1.49], [0.79, 2.75], [0.8, 4.57], [1, 6.87]]),
]
_UNSOUND_BRACKETS = [(128, 0.498927), (23, 0.095981), (140, 0.548788)]  # (i, root quantile)
_GRIDS = {"grid": _GRID3, "grid5": _UNSOUND_BRACKET_CELLS[0][2]}


@pytest.mark.parametrize("n, cost, grid", _UNSOUND_BRACKET_CELLS)
def test_bracket_with_one_sign_is_a_numeric_failure(n, cost, grid):
    i, root = _UNSOUND_BRACKETS[_UNSOUND_BRACKET_CELLS.index((n, cost, grid))]
    d = from_quantile_grid(grid)
    lo, hi = np.linspace(0.0, 1.0 - 1e-9, planner._GRID)[i:i + 2]
    with pytest.raises(NumericFailureError, match="refused its bracket") as info:
        _brentq(planner._foc_residual, lo, hi, 1e-13, (n, cost, d))
    ends = info.value.diagnostics["end_residuals"]
    assert np.sign(ends[0]) == np.sign(ends[1]) != 0
    closed = [planner._closed_residual(q, n, cost, d) for q in (lo, hi)]
    assert list(np.sign(closed)) == list(np.sign(ends))
    sol = solve_planner(n, cost, d)
    q = 1.0 - sol.acceptance_prob
    assert sol.interior and q == pytest.approx(root, abs=1e-6)
    assert abs(planner._closed_residual(q, n, cost, d)) <= planner._ROOT_TOL * cost
    assert abs(sol.foc_residual) < 1e-12


def test_true_corner_still_returned():
    # crowded and costly: accepting every draw is optimal, and the top residual is negative
    sol = solve_planner(10, 0.3, make_pareto(2.0, 1.0))
    assert not sol.interior and sol.threshold == 1.0


def test_efficiency_bridge(trio):
    # competitive contest at the efficient prize reproduces the planner threshold
    for d in trio:
        sol = solve_planner(2, 0.1, d)
        eq = solve_symmetric(
            ContestParams(n_players=2, cost=0.1, prize=sol.efficient_prize), d
        )
        assert abs(eq.threshold - sol.threshold) < 1e-9 * max(1.0, abs(sol.threshold))


def test_classify_three_ways(uniform, pareto):
    sol_u = solve_planner(2, 0.1, uniform)
    assert classify_prize(1.0, sol_u, 2, 0.1, uniform).kind == OVERSEARCH
    eff = classify_prize(sol_u.efficient_prize, sol_u, 2, 0.1, uniform)
    assert eff.kind == EFFICIENT
    assert abs(eff.threshold_gap) < 1e-9
    under = classify_prize(1.0, solve_planner(2, 0.1, pareto), 2, 0.1, pareto)
    assert under.kind == UNDERSEARCH
    assert under.threshold_gap < 0


def test_classification_gap_sign_matches_kind(uniform):
    over = classify_prize(1.0, solve_planner(2, 0.1, uniform), 2, 0.1, uniform)
    assert over.threshold_gap > 0
    assert over.competitive_threshold > over.planner_threshold


def test_integral_route_matches_direct_prize(trio):
    for d in trio:
        sol = solve_planner(2, 0.1, d)
        w_int = efficient_prize_integral(sol, 2, d)
        assert w_int == pytest.approx(sol.efficient_prize, rel=1e-6)


def test_integral_route_constant_hazard_is_exact(exponential):
    sol = solve_planner(2, 0.1, exponential)
    assert efficient_prize_integral(sol, 2, exponential) == pytest.approx(1.0, rel=1e-9)


def test_hazard_dominance_uniform_vs_exponential(uniform, exponential):
    report = hazard_order_check(uniform, exponential, 2, 0.1)
    assert report.dominance_holds
    assert report.ordering_consistent
    assert report.w_star_first == pytest.approx(math.sqrt(0.2 / 3.0), rel=1e-6)
    assert report.w_star_second == pytest.approx(1.0, rel=1e-6)


def test_hazard_report_when_dominance_fails(exponential, pareto):
    # near its lower support the heavy tail is locally steep: 2/x > 1 for x < 2
    report = hazard_order_check(exponential, pareto, 2, 0.1)
    assert not report.dominance_holds
    assert report.first_violation_x is not None
    assert report.first_violation_x < 2.0
    assert report.ordering_consistent is None
    # the prize ordering still holds numerically even without the guarantee
    assert report.w_star_first < report.w_star_second


def test_hazard_check_reflexive(exponential):
    report = hazard_order_check(exponential, exponential, 2, 0.1)
    assert report.dominance_holds
    assert report.ordering_consistent
    assert report.w_star_first == report.w_star_second


def test_hazard_check_disjoint_supports(uniform):
    shifted = make_pareto(2.0, 5.0)
    with pytest.raises(InvalidParameterError):
        hazard_order_check(uniform, shifted, 2, 0.1)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    cost=st.floats(min_value=0.005, max_value=0.2),
)
def test_solution_identities_uniform(n, cost, uniform):
    sol = solve_planner(n, cost, uniform)
    assert sol.efficient_prize == pytest.approx(
        n * cost / sol.acceptance_prob, rel=1e-12
    )
    assert 0.0 < sol.acceptance_prob <= 1.0
    assert sol.interior == (sol.acceptance_prob < 1.0)
    if sol.interior:
        assert abs(sol.foc_residual) < 1e-9
    oracle = _uniform_oracle(n, cost)
    if oracle is not None:
        assert sol.threshold == pytest.approx(oracle[0], rel=1e-7, abs=1e-9)


def _oracle_residual(t, n, cost, d):
    """The first-order residual at acceptance probability t = 1 - q, from the
    closed forms of the integral of u^(N-1) (1 - u) Q'(1 - t + u t)."""
    if d.name == "uniform":
        return t * t / (n * (n + 1)) - cost
    if d.name == "exponential":
        return t / n - cost
    if d.name == "pareto":
        shape = d.params[0]
        a = 1.0 - 1.0 / shape
        return t**a * math.exp(math.lgamma(n) + math.lgamma(a) - math.lgamma(n + a)) / shape - cost
    us, xs = d.params[::2], d.params[1::2]
    ends = [min(max((u - 1.0 + t) / t, 0.0), 1.0) for u in us]
    return t * t * sum((xs[j + 1] - xs[j]) / (us[j + 1] - us[j])
                       * (ends[j + 1]**n / n - ends[j + 1]**(n + 1) / (n + 1)
                          - ends[j]**n / n + ends[j]**(n + 1) / (n + 1))
                       for j in range(len(us) - 1)) - cost


def _oracle_roots(n, cost, d):
    """Acceptance probabilities in (0, 1) where the closed-form residual changes sign."""
    if d.name == "uniform":
        roots = [math.sqrt(cost * n * (n + 1))]
    elif d.name == "exponential":
        roots = [cost * n]
    elif d.name == "pareto":
        a = 1.0 - 1.0 / d.params[0]
        roots = [(cost * d.params[0] / math.exp(math.lgamma(n) + math.lgamma(a)
                                                - math.lgamma(n + a))) ** (1.0 / a)]
    else:
        ts = np.linspace(1e-9, 1.0, 4097)
        rs = [_oracle_residual(t, n, cost, d) for t in ts]
        roots = [brentq(_oracle_residual, ts[i], ts[i + 1], args=(n, cost, d), xtol=1e-15)
                 for i in range(len(ts) - 1) if (rs[i] < 0.0) != (rs[i + 1] < 0.0)]
    return [t for t in roots if t < 1.0]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(family=st.sampled_from(["uniform", "exponential", "pareto", "grid", "grid5"]),
       shape=st.floats(1.05, 4.0), n=st.integers(1, 500),
       cost=st.floats(math.log(1e-3), 0.0).map(math.exp))
@example(family="pareto", shape=1.1, n=500, cost=1.0)
@example(family="pareto", shape=1.1, n=507, cost=1.0)
@example(family="pareto", shape=1.2, n=100, cost=0.1)
@example(family="pareto", shape=1.5, n=100, cost=0.001)
def test_answer_is_the_closed_form_root(family, shape, n, cost):
    # an answer lies at a root of the closed-form residual, to 3e-5 in
    # acceptance probability: the certificate |residual| <= 1e-6 c allows
    # 1e-6 / (1 - 1/shape) <= 2.1e-5 on a Pareto tail, 1e-6 on the others
    d = (make_uniform(0.0, 1.0) if family == "uniform" else make_exponential(1.0)
         if family == "exponential" else make_pareto(shape, 1.0) if family == "pareto"
         else from_quantile_grid(_GRIDS[family]))
    roots = _oracle_roots(n, cost, d)
    try:
        sol = solve_planner(n, cost, d)
    except NumericFailureError:
        # refused only on a heavy tail whose optimum accepts less than 1e-4,
        # where the adaptive integrand's tail cut moves the root
        assert family == "pareto" and roots and max(roots) < 1e-4, roots
        return
    if not sol.interior:
        # the corner: no root, or none of them with more welfare
        assert all(planner_welfare(float(d.quantile(1.0 - t)), n, cost, d) <= sol.welfare + 1e-12
                   for t in roots)
        assert family in _GRIDS or not roots
        return
    t = sol.acceptance_prob
    assert abs(_oracle_residual(t, n, cost, d)) <= 1e-6 * cost
    assert min(abs(t - r) / r for r in roots) <= 3e-5


@pytest.mark.parametrize("family,n,cost", [
    ("uniform", 3, 0.1), ("exponential", 3, 0.1), ("pareto", 3, 0.1), ("grid", 2, 0.3),
    ("grid5", 5, 0.1),
])
def test_bracket_pass_signs_match_adaptive(family, n, cost, request):
    d = from_quantile_grid(_GRIDS[family]) if family in _GRIDS else request.getfixturevalue(family)
    qs = np.linspace(0.0, 1.0 - 1e-9, planner._GRID).tolist()
    closed = np.array([planner._closed_residual(q, n, cost, d) for q in qs])
    adaptive = np.array([planner._foc_residual(q, n, cost, d) for q in qs])
    assert (np.sign(closed) == np.sign(adaptive)).all()
    # 1.5e-7 on the 3-point grid, where the adaptive rule meets a kink
    assert np.abs(closed - adaptive).max() < 1e-6


def test_quantile_grid_planner():
    # reference values from bracketing with adaptive quadrature at every grid point
    d = from_quantile_grid(_GRID3)
    sol = solve_planner(2, 0.1, d)
    assert sol.interior
    assert sol.threshold == pytest.approx(1.4508066615170332, rel=1e-10)
    assert sol.welfare == pytest.approx(1.9672044410113552, rel=1e-10)
    assert sol.efficient_prize == pytest.approx(0.5163977794943223, rel=1e-10)
    assert sol.acceptance_prob == pytest.approx(0.3872983346207417, rel=1e-10)
    assert abs(sol.foc_residual) < 1e-12


# solve_planner outcomes pinned with every float as its hex: the solution, the
# hazard-route prize, the prize classification at W* and 2 W*, and each
# refusal's message and diagnostics
_FROZEN_DISTS = {
    "uniform": lambda: make_uniform(0.0, 1.0),
    "exponential": lambda: make_exponential(1.0),
    "pareto2": lambda: make_pareto(2.0, 1.0),
    "pareto1.5": lambda: make_pareto(1.5, 1.0),
    "pareto1.2": lambda: make_pareto(1.2, 1.0),
    "grid3": lambda: from_quantile_grid(_GRID3),
}
_FROZEN_CELLS = [(name, n, cost) for name in _FROZEN_DISTS for n in (1, 2, 3, 5, 20)
                 for cost in (0.001, 0.01, 0.1, 0.3)]
_PLANNER_FROZEN = json.loads(Path(__file__).with_name("planner_frozen_outcomes.json").read_text())


def _hexed(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _hexed(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _hexed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hexed(v) for v in obj]
    if isinstance(obj, float):
        return float(obj).hex()
    return obj


def _error(exc):
    return {"error": type(exc).__name__, "message": str(exc),
            "diagnostics": _hexed(getattr(exc, "diagnostics", None))}


def _attempt(call):
    try:
        return _hexed(call())
    except SearchContestError as exc:
        return _error(exc)


def _planner_outcome(name, n, cost):
    d = _FROZEN_DISTS[name]()
    try:
        sol = solve_planner(n, cost, d)
    except SearchContestError as exc:
        return _error(exc)
    return {
        "solution": _hexed(sol),
        "prize_integral": _attempt(lambda: efficient_prize_integral(sol, n, d)),
        # N = 1 has no contest to classify
        "classified": [_attempt(lambda: classify_prize(k * sol.efficient_prize, sol, n, cost, d))
                       for k in (1.0, 2.0)],
    }


@pytest.mark.parametrize("name, n, cost", _FROZEN_CELLS)
def test_planner_outcomes_frozen(name, n, cost):
    key = f"{name} n={n} c={cost}"
    assert json.dumps(_planner_outcome(name, n, cost), sort_keys=True, indent=1) == json.dumps(
        _PLANNER_FROZEN[key], sort_keys=True, indent=1)


# ------------------------------------------------- the integrand's float read

# the float-read probes' distributions of tests/test_distributions.py
_SCALAR_READS = {
    **{f"pareto{a}-{b}": make_pareto(a, b) for a in (0.3, 1.1, 1.5, 2.0, 3.7) for b in (1.0, 7.3)},
    "grid3": from_quantile_grid([[0, 0], [0.5, 1], [1, 3]]),
    "grid5": from_quantile_grid([[0, 0], [0.25, 1.49], [0.79, 2.75], [0.8, 4.57], [1, 6.87]]),
}


def _reads(fn, points):
    """fn at each point, in float hex, with the warnings it raised."""
    out = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for v in points:
            before = len(caught)
            y = fn(v)
            assert type(y) is float
            out.append((y.hex(), [str(w.message) for w in caught[before:]]))
    return out


def _strict_read(fn, v):
    """fn(v) in float hex, or the RuntimeWarning it raises as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return fn(v).hex()
        except RuntimeWarning as w:
            return f"RuntimeWarning: {w}"


@pytest.mark.parametrize("name", list(_SCALAR_READS))
def test_scalar_integrand_read_equals_inverse_density(name):
    # 20,000 seeded v, half of them within 1e-16..1 of 1, the grid nodes and
    # the ends of [0, 1] with their float neighbours, and v past [0, 1]
    d = _SCALAR_READS[name]
    rng = np.random.default_rng(28)
    vs = [*rng.uniform(0.0, 1.0, 10_000), *(1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 10_000))]
    nodes = d.params[::2] if d.name == "custom" else (0.0, 1.0)
    vs += [math.nextafter(u, t) for u in nodes for t in (-math.inf, math.inf)] + list(nodes)
    vs = [float(v) for v in (*vs, -1.0, 2.0, math.inf, -math.inf, math.nan)]
    got = _reads(planner._integrand_read(d), vs)
    want = _reads(lambda v: planner._inverse_density(v, d), vs)
    bad = [(v, g, w) for v, g, w in zip(vs, got, want) if g != w]
    assert not bad, (len(bad), bad[:3])


@pytest.mark.parametrize("d, v, warns", [
    (make_pareto(2.0, 1.0), 1.0, False),  # v >= 1: the float quantile is 0.0 ** -0.5
    (make_pareto(2.0, 1.0), math.nextafter(1.0, 2.0), False),  # a negative base
    (make_pareto(2.0, 1.0), -1.0, False),  # below the support: a zero density
    (make_pareto(0.01, 1.0), 1.0 - 2.0**-53, True),  # the quantile's power overflows
    (make_pareto(1.0, 1e300), 1.0 - 1e-15, True),  # the quantile's product overflows to inf
    (make_pareto(2.0, 1e-200), 0.5, True),  # the density's power overflows
], ids=["one", "past-one", "negative", "quantile-power", "quantile-product", "density-power"])
def test_scalar_integrand_read_falls_back_to_inverse_density(d, v, warns):
    # where the float reads raise or leave no finite positive float, the read
    # is _inverse_density's, numpy's warning included, raised as an error or not
    read = planner._integrand_read(d)
    got, want = _reads(read, [v]), _reads(lambda v: planner._inverse_density(v, d), [v])
    assert got == want and bool(want[0][1]) == warns, (got, want)
    strict = _strict_read(read, v)
    assert strict == _strict_read(lambda v: planner._inverse_density(v, d), v)
    assert strict.startswith("RuntimeWarning") == warns


@pytest.mark.parametrize("d, n", [
    (make_pareto(2.0, 1.0), 2), (make_pareto(1.5, 1.0), 3), (from_quantile_grid(_GRID3), 2),
    (make_uniform(0.0, 1.0), 2),
], ids=["pareto2", "pareto1.5", "grid3", "uniform"])
def test_scalar_integrand_read_serves_the_solve(monkeypatch, d, n):
    # Pareto and grid integrands read 1/f(Q(v)) on floats: _inverse_density
    # only sees v that round to 1; uniform keeps the numpy path
    seen = []
    inverse_density = planner._inverse_density

    def spy(v, d):
        seen.append(v)
        return inverse_density(v, d)

    monkeypatch.setattr(planner, "_inverse_density", spy)
    planner.solve_planner(n, 0.1, d)
    inside = [v for v in seen if v < 1.0]
    assert bool(inside) == (d.name == "uniform")


@pytest.mark.parametrize("name", [name for name in _FROZEN_DISTS if name.startswith("pareto")])
def test_scalar_beta_factor_keeps_closed_residual_bits(monkeypatch, name):
    # every closed-form residual a frozen Pareto cell's solve reads (the 256
    # grid points and the root's certificate) against the factor computed per
    # point, as it was before it was hoisted
    d = _FROZEN_DISTS[name]()
    shape, scale = d.params
    a = 1.0 - 1.0 / shape
    closed_residual, reads = planner._closed_residual, []

    def spy(q, n, cost, d):
        reads.append((q, n, cost, closed_residual(q, n, cost, d)))
        return reads[-1][-1]

    def counted_lgam(x):
        lgam_calls.append(x)
        return lgam(x)

    lgam_calls = []
    monkeypatch.setattr(planner, "_closed_residual", spy)
    monkeypatch.setattr(planner, "lgam", counted_lgam)
    planner._beta.cache_clear()
    for n in (1, 2, 3, 5, 20):
        for cost in (0.001, 0.01, 0.1, 0.3):
            try:
                solve_planner(n, cost, d)
            except SearchContestError:
                pass
    assert len(reads) > 1000
    assert len(lgam_calls) == 3 * 5  # the factor once for each N, not once a point
    for q, n, cost, got in reads:
        t = 1.0 - q
        want = scale / shape * t**a * math.exp(lgam(n) + lgam(a) - lgam(n + a)) - cost
        assert got.hex() == want.hex(), (q, n, cost)


def test_closed_residual_denominators_admit_every_count():
    # N (N + 1) as a float: no count a float holds raises, and below 2**53 the
    # bits are those of the exact int product
    uniform, grid = make_uniform(0.0, 1.0), from_quantile_grid(_GRID3)
    for n in (1, 2, 3, 20, 10**6, 2**26 + 1, 2**53 - 1):
        for q in (0.0, 0.3, 0.9):
            t = 1.0 - q
            want = t * t * 1.0 / (n * (n + 1)) - 0.1
            assert planner._closed_residual(q, n, 0.1, uniform).hex() == want.hex()
            p = [u**n * (1.0 + n * (1.0 - u)) / (n * (n + 1))
                 for u in (max(v - q, 0.0) / t for v in (0.0, 0.5, 1.0))]
            want = t * t * (0.0 + 1.0 / 0.5 * (p[1] - p[0]) + 2.0 / 0.5 * (p[2] - p[1])) - 0.1
            assert planner._closed_residual(q, n, 0.1, grid).hex() == want.hex()
    for d in (uniform, grid):
        assert planner._closed_residual(0.5, 10**300, 1e-302, d) == -1e-302
        assert planner._closed_residual(0.5, int(sys.float_info.max), 0.1, d) == -0.1


# the golden shapes' a = 1 - 1/shape; past 1e6 betaln sums the same series
_BETA_COUNTS = [10**6 + 1, 2**20, 10**9, 10**12, 10**15, 10**18, 10**50, 10**100, 10**200,
                10**300, int(sys.float_info.max)]


@pytest.mark.parametrize("shape", [2.0, 1.5, 1.2])
def test_beta_factor_keeps_its_digits_at_large_counts(shape):
    # log B(N, a) from lgam(N) - lgam(N + a) cancelled: 1e-9 relative at N = 1e6,
    # 1e-3 at 1e12, and B read 1.0 for 1.8e-9 at 1e18. From its series, log B
    # lies within 1e-14 (relative) of scipy's
    a = 1.0 - 1.0 / shape
    for n in _BETA_COUNTS:
        assert math.log(planner._beta(n, a)) == pytest.approx(betaln(n, a), rel=1e-14), n
    # below the switch, the log-gamma sum with its bits; at it, the series within
    # the sum's rounding
    n = planner._BETA_SERIES_N
    want = math.exp(lgam(n - 1) + lgam(a) - lgam(n - 1 + a))
    assert planner._beta(n - 1, a).hex() == want.hex()
    assert planner._beta(n, a) == pytest.approx(math.exp(lgam(n) + lgam(a) - lgam(n + a)),
                                                rel=1e-11)
