"""Welfare-optimal search thresholds and the prize that implements them.

A planner instructing all N players to stop at threshold b trades off the
expected best accepted value against total expected sampling cost
N c / (1 - F(b)). Interior optima satisfy a first-order condition in
quantile space; the prize W* = N c / (1 - F(b*)) makes the competitive
threshold coincide with the planner's. Competitive contests with any other
prize oversearch or undersearch relative to b*.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._numerics import lgam, linspace, qagse
from .distributions import Distribution
from .equilibrium import solve_symmetric, ContestParams, _brentq, _opposite, _sum_left
from .errors import (DivergentObjectiveError, InvalidParameterError, NumericFailureError,
                     require_count, require_positive)

_QUAD_TOL = 1e-11
_GRID = 256
_ROOT_TOL = 1e-6  # largest |closed-form residual| / cost an interior answer may carry
_EFFICIENT_TOL = 1e-9  # relative threshold gap classify_prize calls efficient
_HAZARD_GRID = 1000  # points on which hazard_order_check compares hazards
_BETA_SERIES_N = 4096  # the series' first term left out is below 5e-18 from here on


@lru_cache(maxsize=16)  # once per solve, not once a grid point
def _beta(n: int, a: float) -> float:
    """B(n, a) for 0 < a < 1, the Pareto closed form's factor. From _BETA_SERIES_N
    on, where lgam(n) - lgam(n + a) cancels (1e-3 relative error at n = 1e12), its
    log is -a log(n) plus three terms of its series in 1/n (DLMF 5.11.8), the sum
    scipy's betaln takes past n = 1e6; below, the log-gamma sum keeps its bits."""
    if n < _BETA_SERIES_N:
        return math.exp(lgam(n) + lgam(a) - lgam(n + a))
    x, b = 1.0 / n, a * (1.0 - a)
    return math.exp(lgam(a) - a * math.log(n) + b * x / 2.0
                    + b * (1.0 - 2.0 * a) * x * x / 12.0 - b * b * x * x * x / 12.0)

OVERSEARCH = "oversearch"
EFFICIENT = "efficient"
UNDERSEARCH = "undersearch"


@dataclass(frozen=True)
class PlannerSolution:
    """Welfare-maximizing threshold, its welfare and efficient prize, and the FOC residual."""
    threshold: float
    welfare: float
    efficient_prize: float
    acceptance_prob: float
    interior: bool
    foc_residual: float


@dataclass(frozen=True)
class PrizeClassification:
    """Whether a prize makes players oversearch, search efficiently or undersearch."""
    kind: str  # one of OVERSEARCH / EFFICIENT / UNDERSEARCH
    competitive_threshold: float
    planner_threshold: float
    threshold_gap: float  # competitive minus planner


@dataclass(frozen=True)
class HazardOrderReport:
    """Hazard-rate dominance of two distributions and whether efficient prizes follow it."""
    dominance_holds: bool
    first_violation_x: float | None
    w_star_first: float
    w_star_second: float
    ordering_consistent: bool | None  # None when dominance fails


def _quad(fn, lo: float, hi: float) -> float:
    # QUADPACK's qagse, as scipy's quad runs it; its roundoff flags (ier) are
    # expected next to integrable tail singularities and are not reported
    return qagse(fn, lo, hi, _QUAD_TOL, _QUAD_TOL, 200)[0]


def _inverse_density(v: float, d: Distribution) -> float:
    """1/f(quantile(v)), hard zero once v is inside float resolution of 1 and
    where the density is no positive float (past a quantile that overflows).

    Quantile-space integrands lose the tail when q + u*(1-q) rounds to 1.
    For a Pareto shape near 1 and 1 - q below about 1e-7 the cut tail holds
    mass of order one; solve_planner's closed-form check refuses such roots."""
    f = d.density(d.quantile(v)) if v < 1.0 else 0.0
    return 1.0 / f if 0.0 < f < math.inf else 0.0


def _grid_roots(f, xs: list[float], fs: list[float], xtol: float) -> list[float]:
    """The roots of f that the grid xs, with fs = f(xs), brackets, ascending: every
    point where fs is exactly 0, and a _brentq polish of every sign change."""
    return [xs[i] if fs[i] == 0.0 else _brentq(f, xs[i], xs[i + 1], xtol)
            for i in range(len(xs))
            if fs[i] == 0.0 or i + 1 < len(xs) and _opposite(fs[i], fs[i + 1])]


def _check_args(n_players: int, cost: float) -> None:
    require_count("n_players", n_players, 1)
    require_positive("cost", cost)


def _check_tail(d: Distribution) -> None:
    # fat tails make E[max of accepted values] infinite
    if d.name == "pareto" and d.params[0] <= 1.0:
        raise DivergentObjectiveError(
            f"expected value diverges for pareto with shape {d.params[0]} <= 1"
        )


def _expected_max(q: float, n_players: int, d: Distribution) -> float:
    """E[max of n values drawn above quantile q], written against the quantile
    function so unbounded supports need no truncation."""
    b, t = d.quantile(q), 1.0 - q

    def integrand(u: float) -> float:
        return (1.0 - u**n_players) * t * _inverse_density(q + u * t, d)

    val = _quad(integrand, 0.0, 1.0)
    if not math.isfinite(val):
        raise DivergentObjectiveError("expected best value did not converge")
    return b + val


def planner_welfare(threshold: float, n_players: int, cost: float, d: Distribution) -> float:
    """Expected best accepted value minus total expected sampling cost when all
    n_players stop at threshold."""
    _check_args(n_players, cost)
    _check_tail(d)
    q = d.cdf(threshold)
    if q >= 1.0 - 1e-12:
        raise InvalidParameterError("threshold leaves no acceptance mass")
    return _expected_max(q, n_players, d) - n_players * cost / (1.0 - q)


def _foc_residual(q: float, n_players: int, cost: float, d: Distribution) -> float:
    """Zero at interior welfare optima: marginal value of raising the threshold
    minus marginal sampling cost, scaled by (1-q)^2 to stay bounded."""
    p, t = n_players - 1, 1.0 - q

    def integrand(u: float) -> float:
        return u**p * (1.0 - u) * _inverse_density(q + u * t, d)

    return t**2 * _quad(integrand, 0.0, 1.0) - cost


def _closed_residual(q: float, n_players: int, cost: float, d: Distribution) -> float:
    """_foc_residual in closed form, (1-q)^2 times the integral over [0, 1] of
    u^(N-1) (1-u) Q'(q + u(1-q)), minus cost, for Q the quantile function; no
    tail is cut where q + u(1-q) rounds to 1. The Pareto integral is the Beta
    function B(N, 1 - 1/shape) (Abramowitz & Stegun 6.2.1); a quantile grid's
    Q' is constant on each segment. Other families get _foc_residual."""
    n, t = n_players, 1.0 - q
    if d.name == "uniform":
        return t * t * (d.params[1] - d.params[0]) / (n * (n + 1.0)) - cost
    if d.name == "exponential":
        return t / (d.params[0] * n) - cost
    if d.name == "pareto":
        shape, scale = d.params
        a = 1.0 - 1.0 / shape
        return scale / shape * t**a * _beta(n, a) - cost
    if d.name == "custom":
        # P(u) = u^N/N - u^(N+1)/(N+1) at each node mapped to u = (v - q)/(1 - q),
        # clamped at 0, written so that it keeps its digits as u -> 1
        us, xs = d.params[::2], d.params[1::2]
        p = [u**n * (1.0 + n * (1.0 - u)) / (n * (n + 1.0))
             for u in (max(v - q, 0.0) / t for v in us)]
        return t * t * _sum_left((xs[j + 1] - xs[j]) / (us[j + 1] - us[j]) * (p[j + 1] - p[j])
                                 for j in range(len(p) - 1)) - cost
    return _foc_residual(q, n_players, cost, d)


def solve_planner(n_players: int, cost: float, d: Distribution) -> PlannerSolution:
    """Globally optimal common threshold: all first-order roots on a quantile
    grid are compared by welfare, along with the no-selectivity corner q=0.

    The grid's residual signs come from the closed form (_closed_residual).
    Each sign change is polished by brentq on the adaptive _foc_residual, and
    candidates are compared by adaptively integrated welfare, so the answer's
    digits, its foc_residual among them, come from adaptive quadrature alone.
    The top grid point is evaluated first: a positive residual there, where
    quantiles run out of float resolution, is refused rather than answered
    with the corner. So is an interior answer whose closed-form residual
    exceeds _ROOT_TOL * cost: the adaptive integrand is cut to 0 where
    q + u(1-q) rounds to 1, and for Pareto shapes near 1 that moves the root."""
    _check_args(n_players, cost)
    _check_tail(d)
    n = n_players
    if math.isinf(n * cost):  # every candidate's welfare would be -inf
        raise InvalidParameterError(f"{n} players at cost {cost:g} a draw overflow a float")
    qs = linspace(0.0, 1.0 - 1e-9, _GRID)
    top = _closed_residual(qs[-1], n, cost, d)  # first: a refusal needs no other point
    if top > 0.0:  # heavy tails: the q = 0 corner would win by default
        raise NumericFailureError(
            "welfare still rises at the top of the quantile grid: the optimal "
            "threshold lies past float resolution",
            {"top_quantile": qs[-1], "top_residual": top})
    vals = [_closed_residual(q, n, cost, d) for q in qs[:-1]] + [top]
    # brentq has evaluated the root it returns: its residual is not integrated again
    foc = lru_cache(maxsize=None)(lambda q: _foc_residual(q, n, cost, d))
    roots = [0.0] + _grid_roots(foc, qs, vals, 1e-13)  # 0: the corner
    best_q, best_w = None, -math.inf
    for q in roots:
        w = _expected_max(q, n, d) - n * cost / (1.0 - q)
        if w > best_w:
            best_q, best_w = q, w
    interior = best_q > 0.0
    closed = _closed_residual(best_q, n, cost, d) if interior else 0.0
    if not abs(closed) <= _ROOT_TOL * cost:
        raise NumericFailureError(
            "the adaptive root fails the closed-form first-order condition: its "
            "integrand lost the tail past float resolution",
            {"root_quantile": best_q, "closed_residual": closed, "foc_residual": foc(best_q)})
    return PlannerSolution(
        threshold=d.quantile(best_q),
        welfare=best_w,
        efficient_prize=n * cost / (1.0 - best_q),
        acceptance_prob=1.0 - best_q,
        interior=interior,
        foc_residual=foc(best_q),
    )


def classify_prize(
    prize: float, sol: PlannerSolution, n_players: int, cost: float, d: Distribution,
) -> PrizeClassification:
    """Compare the competitive threshold induced by a prize with the planner's,
    sol = solve_planner(n_players, cost, d)."""
    params = ContestParams(n_players=n_players, cost=cost, prize=prize)
    competitive = solve_symmetric(params, d).threshold
    gap = competitive - sol.threshold
    scale = max(1.0, abs(sol.threshold))
    if abs(gap) <= _EFFICIENT_TOL * scale:
        kind = EFFICIENT
    elif gap > 0:
        kind = OVERSEARCH
    else:
        kind = UNDERSEARCH
    return PrizeClassification(
        kind=kind,
        competitive_threshold=competitive,
        planner_threshold=sol.threshold,
        threshold_gap=gap,
    )


def efficient_prize_integral(sol: PlannerSolution, n_players: int, d: Distribution) -> float:
    """Efficient prize via the hazard-rate representation
    N * integral of u^{N-1} / hazard(x(u)) du above the optimal quantile of
    sol = solve_planner(n_players, cost, d). Independent of the
    acceptance-probability formula, so the two routes cross-check each other.

    Known limit: like the planner's adaptive residual, the integrand is cut to
    0 once v = q + u(1 - q) rounds to 1. For a Pareto shape near 1 with 1 - q
    below about 1e-7 the cut tail holds mass of order one, so both routes could
    agree on a wrong value; solve_planner's closed-form check now refuses such
    roots before this integral is taken."""
    q = 1.0 - sol.acceptance_prob
    n = n_players

    def integrand(u: float) -> float:
        v = q + u * (1.0 - q)
        if v >= 1.0:
            return 0.0
        x = d.quantile(v)
        h = d.hazard(x) if math.isfinite(x) else math.inf
        if not math.isfinite(h) or h <= 0.0:
            return 0.0
        return n * u ** (n - 1) / h

    val = _quad(integrand, 0.0, 1.0)
    if not math.isfinite(val):
        raise DivergentObjectiveError("hazard-form prize integral did not converge")
    return val


def hazard_order_check(
    first: Distribution, second: Distribution, n_players: int, cost: float
) -> HazardOrderReport:
    """If the first distribution hazard-rate dominates the second everywhere on
    the shared support, its efficient prize should be no larger."""
    lo = max(first.support_lower, second.support_lower)
    his = []
    for d in (first, second):
        his.append(d.support_upper if math.isfinite(d.support_upper) else d.quantile(0.995))
    hi = min(his)
    if hi <= lo:
        raise InvalidParameterError("supports do not overlap")
    xs = linspace(lo, hi, _HAZARD_GRID, endpoint=False)
    first_violation = next((x for x in xs if first.hazard(x) < second.hazard(x) - 1e-12), None)
    dominance = first_violation is None
    w1 = solve_planner(n_players, cost, first).efficient_prize
    w2 = solve_planner(n_players, cost, second).efficient_prize
    consistent = (w1 <= w2 + 1e-9 * max(1.0, abs(w2))) if dominance else None
    return HazardOrderReport(
        dominance_holds=dominance,
        first_violation_x=first_violation,
        w_star_first=w1,
        w_star_second=w2,
        ordering_consistent=consistent,
    )
