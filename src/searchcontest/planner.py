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
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import Distribution
from .equilibrium import solve_symmetric, ContestParams, _grid_roots
from .errors import (DivergentObjectiveError, InvalidParameterError, NumericFailureError,
                     require_int, require_positive)

_QUAD_TOL = 1e-11
_GRID = 256
_BLOCK_ROWS = 32  # grid points per vectorized block; bounds temporary memory
_CERTIFY_FACTOR = 10.0
_CERTIFY_FLOOR = 1e-12
_EFFICIENT_TOL = 1e-9  # relative threshold gap classify_prize calls efficient
_HAZARD_GRID = 1000  # points on which hazard_order_check compares hazards

OVERSEARCH = "oversearch"
EFFICIENT = "efficient"
UNDERSEARCH = "undersearch"


@dataclass(frozen=True)
class PlannerSolution:
    threshold: float
    welfare: float
    efficient_prize: float
    acceptance_prob: float
    interior: bool
    foc_residual: float


@dataclass(frozen=True)
class PrizeClassification:
    kind: str  # one of OVERSEARCH / EFFICIENT / UNDERSEARCH
    competitive_threshold: float
    planner_threshold: float
    threshold_gap: float  # competitive minus planner


@dataclass(frozen=True)
class HazardOrderReport:
    dominance_holds: bool
    first_violation_x: float | None
    w_star_first: float
    w_star_second: float
    ordering_consistent: bool | None  # None when dominance fails


def _quad(fn, lo: float, hi: float) -> float:
    from scipy.integrate import IntegrationWarning, quad
    # roundoff warnings are expected next to integrable tail singularities
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(fn, lo, hi, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
    return val


def _inverse_density(v: float, d: Distribution) -> float:
    """1/f(quantile(v)), hard zero once v is inside float resolution of 1.

    Quantile-space integrands lose the tail when q + u*(1-q) rounds to 1;
    truncating there discards mass far below the quadrature tolerance for
    any distribution with a finite mean."""
    if v >= 1.0:
        return 0.0
    x = float(d.quantile(v))
    if not math.isfinite(x):
        return 0.0
    f = float(d.density(x))
    if not math.isfinite(f) or f <= 0.0:
        return 0.0
    return 1.0 / f


def _check_args(n_players: int, cost: float) -> None:
    require_int("n_players", n_players, 1)
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
    b = float(d.quantile(q))

    def integrand(u: float) -> float:
        return (1.0 - u**n_players) * (1.0 - q) * _inverse_density(q + u * (1.0 - q), d)

    val = _quad(integrand, 0.0, 1.0)
    if not math.isfinite(val):
        raise DivergentObjectiveError("expected best value did not converge")
    return b + val


def planner_welfare(threshold: float, n_players: int, cost: float, d: Distribution) -> float:
    """Expected best accepted value minus total expected sampling cost when all
    n_players stop at threshold."""
    _check_args(n_players, cost)
    _check_tail(d)
    q = float(d.cdf(threshold))
    if q >= 1.0 - 1e-12:
        raise InvalidParameterError("threshold leaves no acceptance mass")
    return _expected_max(q, n_players, d) - n_players * cost / (1.0 - q)


def _foc_residual(q: float, n_players: int, cost: float, d: Distribution) -> float:
    """Zero at interior welfare optima: marginal value of raising the threshold
    minus marginal sampling cost, scaled by (1-q)^2 to stay bounded."""

    def integrand(u: float) -> float:
        return u ** (n_players - 1) * (1.0 - u) * _inverse_density(q + u * (1.0 - q), d)

    return (1.0 - q) ** 2 * _quad(integrand, 0.0, 1.0) - cost


def _legendre(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_m(x) and its derivative by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, m + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, m * (x * p1 - p0) / (x * x - 1.0)


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre rule on [0, 1]. Newton's method from the
    asymptotic roots converges in a few steps and, unlike
    np.polynomial.legendre.leggauss, needs no LAPACK eigenvalue workspace,
    which would add about 1 MB to peak memory."""
    x = np.cos(np.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(8):
        p, dp = _legendre(m, x)
        x = x - p / dp
    _, dp = _legendre(m, x)
    return 0.5 * (1.0 - x), 1.0 / ((1.0 - x * x) * dp * dp)


@lru_cache(maxsize=1)
def _bracket_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes in s on [0, 1] (u = 1 - s^2) of the 64- and 128-point rules side
    by side, and each rule's weights zero-padded to that joint node set.
    Built on first use, not at import."""
    s64, w64 = _gauss_legendre(64)
    s128, w128 = _gauss_legendre(128)
    return (np.concatenate((s64, s128)), np.concatenate((w64, np.zeros(128))),
            np.concatenate((np.zeros(64), w128)))


def _bracket_residuals(qs: np.ndarray, n_players: int, cost: float, d: Distribution) -> np.ndarray:
    """_foc_residual on a grid of quantiles, signs certified, in one vectorized pass.

    Substituting u = 1 - s^2 cancels the tail singularity of 1/f(quantile(v))
    at v -> 1 for uniform, exponential and Pareto shape >= 2 and weakens it
    for Pareto shapes below 2, so fixed Gauss-Legendre rules integrate it.
    Each grid point is evaluated at 64 and 128 nodes; where the two rules
    disagree by more than a tenth of the 128-node value (kinks, fat tails,
    near-roots) its sign is not certain and the point is recomputed with the
    adaptive _foc_residual. Only signs matter here: brentq polishes
    every bracket with the adaptive residual."""
    s, w64, w128 = _bracket_nodes()
    u = 1.0 - s * s
    # integrand of _foc_residual times the Jacobian 2s of u = 1 - s^2
    kernel = 2.0 * s**3 * u ** (n_players - 1)
    out = np.empty(len(qs))
    for start in range(0, len(qs), _BLOCK_ROWS):
        q = qs[start:start + _BLOCK_ROWS, None]
        v = (q + u * (1.0 - q)).ravel()
        # the hard-zero rules of _inverse_density, applied elementwise
        inv_f = np.zeros_like(v)
        with np.errstate(all="ignore"):
            idx = np.flatnonzero(v < 1.0)
            x = np.asarray(d.quantile(v[idx]), dtype=float)
            idx, x = idx[np.isfinite(x)], x[np.isfinite(x)]
            f = np.asarray(d.density(x), dtype=float)
            keep = np.isfinite(f) & (f > 0.0)
            inv_f[idx[keep]] = 1.0 / f[keep]
        vals = inv_f.reshape(q.shape[0], -1) * kernel
        scale = (1.0 - q[:, 0]) ** 2
        r64 = scale * (vals @ w64) - cost
        r128 = scale * (vals @ w128) - cost
        out[start:start + len(r128)] = r128
        # written so that a NaN from either rule also falls back
        unsure = ~(np.abs(r128) > _CERTIFY_FACTOR * np.abs(r64 - r128) + _CERTIFY_FLOOR)
        for i in np.nonzero(unsure)[0]:
            out[start + i] = _foc_residual(float(q[i, 0]), n_players, cost, d)
    return out


def solve_planner(n_players: int, cost: float, d: Distribution) -> PlannerSolution:
    """Globally optimal common threshold: all first-order roots on a quantile
    grid are compared by welfare, along with the no-selectivity corner q=0.

    The grid's residual signs come from one vectorized fixed-node pass
    (_bracket_residuals), with adaptive quadrature only where that pass cannot
    certify a sign. Each sign change is then polished by brentq on the adaptive
    _foc_residual, candidates are compared by adaptively integrated welfare,
    and the reported foc_residual is adaptive too, so the answer's digits come
    from adaptive quadrature alone. A positive residual at the top grid point
    means welfare still rises where the quantiles run out of float resolution;
    that is refused rather than answered with the corner."""
    _check_args(n_players, cost)
    _check_tail(d)
    n = n_players
    qs = np.linspace(0.0, 1.0 - 1e-9, _GRID)
    vals = _bracket_residuals(qs, n, cost, d)
    if vals[-1] > 0.0:  # heavy tails: the q = 0 corner would win by default
        raise NumericFailureError(
            "welfare still rises at the top of the quantile grid: the optimal "
            "threshold lies past float resolution",
            {"top_quantile": float(qs[-1]), "top_residual": float(vals[-1])})
    roots = [0.0] + _grid_roots(_foc_residual, qs, vals, 1e-13, (n, cost, d))  # 0: the corner
    best_q, best_w = None, -math.inf
    for q in roots:
        w = _expected_max(q, n, d) - n * cost / (1.0 - q)
        if w > best_w:
            best_q, best_w = q, w
    interior = best_q > 0.0
    return PlannerSolution(
        threshold=float(d.quantile(best_q)),
        welfare=best_w,
        efficient_prize=n * cost / (1.0 - best_q),
        acceptance_prob=1.0 - best_q,
        interior=interior,
        foc_residual=_foc_residual(best_q, n, cost, d),
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
    acceptance-probability formula, so the two routes cross-check each other."""
    q = 1.0 - sol.acceptance_prob
    n = n_players

    def integrand(u: float) -> float:
        v = q + u * (1.0 - q)
        if v >= 1.0:
            return 0.0
        x = float(d.quantile(v))
        h = float(d.hazard(x)) if math.isfinite(x) else math.inf
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
        his.append(d.support_upper if math.isfinite(d.support_upper) else float(d.quantile(0.995)))
    hi = min(his)
    if hi <= lo:
        raise InvalidParameterError("supports do not overlap")
    xs = np.linspace(lo, hi, _HAZARD_GRID, endpoint=False)
    h1 = np.asarray(first.hazard(xs), dtype=float)
    h2 = np.asarray(second.hazard(xs), dtype=float)
    bad = np.nonzero(h1 < h2 - 1e-12)[0]
    dominance = bad.size == 0
    first_violation = None if dominance else float(xs[bad[0]])
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
