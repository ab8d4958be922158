"""Infinite-horizon contest equilibria.

Players draw i.i.d. values from a distribution at a per-draw cost and the
highest accepted value wins the prize. Stationary strategies are acceptance
thresholds; in quantile space every solver below is distribution-free, so all
arithmetic happens on u = F(x) and values appear only through quantile().

The asymmetric equilibrium's two conditions are binomial means, E[1/(X+1)]
and E[1/(X+2)], which have closed forms (Chao & Strawderman, JASA 1972), and
their difference depends only on the ratio of the two acceptance
probabilities: one root search on Python floats solves it at any N, with no
table and no numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

from ._numerics import brentq
from .distributions import Distribution
from .errors import (
    InvalidParameterError,
    NoAsymmetricEquilibriumError,
    NoSearchIncentiveError,
    NotViableError,
    NumericFailureError,
    SearchContestError,
    _as_tuple,
    require_count,
    require_positive,
)


def _sum_left(values) -> float:
    """Added left to right: from Python 3.12 on, builtin sum() of floats is
    compensated, so its bits would depend on the Python version."""
    return reduce(add, values, 0.0)


@dataclass(frozen=True)
class ContestParams:
    """Player count, per-draw cost, and winner prize."""

    n_players: int
    cost: float
    prize: float

    def __post_init__(self):
        object.__setattr__(self, "n_players", require_count("n_players", self.n_players, 2))
        require_positive("cost", self.cost)
        require_positive("prize", self.prize)

    @property
    def viable(self) -> bool:
        return self.n_players * self.cost < self.prize


@dataclass(frozen=True)
class SymmetricEquilibrium:
    """Symmetric threshold, acceptance probability, and per-player draws, cost and value."""
    threshold: float
    acceptance_prob: float
    expected_draws: float
    expected_cost_per_player: float
    dissipation_ratio: float
    player_value: float


@dataclass(frozen=True)
class PrizeSchedule:
    """Rank-order prizes, highest first."""

    prizes: tuple[float, ...]

    def __post_init__(self):
        p = _as_tuple("prizes", self.prizes)
        for v in p:  # before float(), which reads "1" and refuses "x" with a raw ValueError
            require_positive("prize", v, zero_ok=True)
        p = tuple(float(v) for v in p)
        object.__setattr__(self, "prizes", p)
        if not p:
            raise InvalidParameterError("prize schedule cannot be empty")
        if any(a < b for a, b in zip(p, p[1:])):
            raise InvalidParameterError("prizes must be sorted non-increasing")

    @property
    def mean(self) -> float:
        return _sum_left(self.prizes) / len(self.prizes)

    @property
    def last(self) -> float:
        return self.prizes[-1]


@dataclass(frozen=True)
class MultiPrizeEquilibrium:
    """Symmetric threshold under rank-order prizes, with value, total cost and dissipation."""
    threshold: float
    acceptance_prob: float
    player_value: float
    total_expected_cost: float
    dissipation_ratio: float


@dataclass(frozen=True)
class AsymmetricEquilibrium:
    """One player's low threshold, the others' high one, and a high player's value."""
    low_threshold: float
    high_threshold: float
    high_player_value: float


def solve_symmetric(params: ContestParams, d: Distribution) -> SymmetricEquilibrium:
    """Unique symmetric equilibrium: a draw is accepted with probability Nc/W.

    The boundary Nc = W is a valid degenerate equilibrium (threshold at the
    lower end of the support, everyone accepts the first draw).
    """
    n, c, w = params.n_players, params.cost, params.prize
    if n * c > w:
        raise NotViableError(f"total per-round cost {n * c} exceeds prize {w}")
    accept = n * c / w
    threshold = d.threshold(accept)  # refuses an acceptance below float resolution, even 0
    draws = 1.0 / accept
    return SymmetricEquilibrium(
        threshold=threshold,
        acceptance_prob=accept,
        expected_draws=draws,
        expected_cost_per_player=c * draws,
        dissipation_ratio=1.0,
        player_value=0.0,
    )


def solve_multiprize(
    n_players: int, cost: float, prizes: PrizeSchedule, d: Distribution
) -> MultiPrizeEquilibrium:
    """Rank-order prizes: acceptance probability c/(mean - last), rents = last prize."""
    if len(prizes.prizes) != n_players:
        raise InvalidParameterError(
            f"schedule has {len(prizes.prizes)} prizes for {n_players} players"
        )
    require_positive("cost", cost)
    spread = prizes.mean - prizes.last
    if spread <= 0:
        raise NoSearchIncentiveError("all prizes equal: searching is pure waste")
    accept = cost / spread
    if accept > 1.0:
        raise NotViableError(f"cost {cost} exceeds prize spread {spread}")
    threshold = d.threshold(accept)  # refuses an acceptance below float resolution, even 0
    return MultiPrizeEquilibrium(
        threshold=threshold,
        acceptance_prob=accept,
        player_value=prizes.last,
        total_expected_cost=n_players * cost / accept,
        dissipation_ratio=1.0 - prizes.last / prizes.mean,
    )


def _mean_inv1(m: int, delta: float) -> float:
    """E[1/(X+1)] for X ~ Binom(m, delta), in closed form (Chao & Strawderman,
    1972): (1 - beta^(m+1)) / ((m+1) delta) with beta = 1 - delta, the
    numerator -expm1((m+1) log1p(-delta))."""
    k = float(m + 1)
    return -math.expm1(k * math.log1p(-delta)) / (k * delta)


def _mean_inv2(m: int, delta: float) -> float:
    """E[1/(X+2)] for X ~ Binom(m, delta), in closed form: ((m+2) delta -
    (1 - beta^(m+2))) / ((m+1)(m+2) delta^2), divided in two steps so that no
    product of counts overflows. The numerator cancels as (m+2) delta falls;
    the solver reads it at (m+2) delta >= 1, where x / (x - (1 - e^-x)) is at
    most e, so under 2 bits are lost."""
    k = float(m + 2)
    x = k * delta
    return (x + math.expm1(k * math.log1p(-delta))) / x / ((k - 1.0) * delta)


def _asym_gap(x: float, n: int) -> float:
    """The high player's indifference less the low players' zero profit, both
    per w s_h, at delta = x/n, the chance that a low player's accepted draw
    beats the high threshold: E[1/(X+1)] - beta^(n-1) - E[1/(Y+2)] with X ~
    Binom(n-1, delta) and Y ~ Binom(n-2, delta). It depends on delta alone;
    its zeros are the asymmetric equilibrium and the symmetric delta = 1."""
    delta = x / n
    stay = math.exp((n - 1) * math.log1p(-delta))  # beta^(n-1)
    return _mean_inv1(n - 1, delta) - stay - _mean_inv2(n - 2, delta)


def _brentq(f, lo: float, hi: float, xtol: float, args: tuple = ()) -> float:
    """Brent's method (scipy's brentq, ported), with a search that does not converge,
    or a bracket it refuses (ends of one sign, a NaN), raised as NumericFailureError
    instead of ValueError; only on that path are the ends evaluated again, for
    diagnostics."""
    try:
        root, iterations, _, converged = brentq(f, lo, hi, xtol, args=args)
    except SearchContestError:
        raise
    except ValueError as ex:
        raise NumericFailureError(f"root search refused its bracket: {ex}", diagnostics={
            "bracket": [float(lo), float(hi)],
            "end_residuals": [float(f(x, *args)) for x in (lo, hi)]}) from None
    if not converged:
        raise NumericFailureError(
            "root search did not converge: convergence error",
            diagnostics={"bracket": [lo, hi], "iterations": iterations, "last": root})
    return root


def _opposite(a: float, b: float) -> bool:
    """Nonzero with opposite signs; a product can overflow or underflow to 0."""
    return (a < 0.0 < b) or (a > 0.0 > b)


def solve_asymmetric(params: ContestParams, d: Distribution) -> AsymmetricEquilibrium:
    """Two-threshold equilibrium: N-1 players share a low threshold and earn
    nothing; one player uses a higher threshold and keeps positive rents.

    In acceptance probabilities (one minus the quantile, so tiny ones keep
    their digits), s_l for the low players and s_h for the high one, the low
    players' zero profit is c = w s_h E[1/(Y+2)] and the high player's
    indifference c = w s_h (E[1/(X+1)] - beta^(N-1)), with X ~ Binom(N-1,
    delta), Y ~ Binom(N-2, delta), delta = s_h/s_l and beta = 1 - delta. Their
    difference, _asym_gap, is a function of delta alone, and on every N >= 3
    it is negative at delta = 1/N and positive at 2.5/N; its root between
    (near 1.8/N at large N) gives s_h = c / (w E[1/(Y+2)]) and s_l = s_h /
    delta. Exists only for N >= 3, and only where s_l <= 1.
    """
    n, c, w = params.n_players, params.cost, params.prize
    if n == 2:
        raise NoAsymmetricEquilibriumError(
            "two-player contests admit only the symmetric equilibrium"
        )
    if not params.viable:
        raise NotViableError(f"total per-round cost {n * c} exceeds prize {w}")
    d.threshold(n * c / w)  # refuses an acceptance below float resolution, before any search

    x = _brentq(_asym_gap, 1.0, 2.5, xtol=1e-16, args=(n,))
    # brentq stops within 4 eps x of the root: of the floats there, take the
    # one where the gap is least, so that delta has the sums' last bit
    near = [x]
    for end in (-math.inf, math.inf):
        y = x
        for _ in range(8):
            y = math.nextafter(y, end)
            near.append(y)
    x = min(near, key=lambda y: abs(_asym_gap(y, n)))
    delta = x / n
    s_h = c / w / _mean_inv2(n - 2, delta)
    s_l = s_h / delta
    if s_l > 1.0:
        raise NoAsymmetricEquilibriumError(
            f"low players accepting every draw cannot break even: they would need "
            f"acceptance probability {s_l:.6g}")
    return AsymmetricEquilibrium(
        low_threshold=d.threshold(s_l),
        high_threshold=d.threshold(s_h),
        high_player_value=w * math.exp((n - 1) * math.log1p(-delta)),
    )
