"""Infinite-horizon contest equilibria.

Players draw i.i.d. values from a distribution at a per-draw cost and the
highest accepted value wins the prize. Stationary strategies are acceptance
thresholds; in quantile space every solver below is distribution-free, so all
arithmetic happens on u = F(x) and values appear only through quantile().
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add

import numpy as np

from ._numerics import brentq, lgam, xlogy
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


# most players solve_asymmetric takes: its binomial sums of n - 1 and n - 2 terms
# build n-entry tables, whose lists and arrays peak at about 72 MB for 2**20
_ASYM_MAX_PLAYERS = 2**20


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


def _asym_low_profit(s_l: float, s_h: float, n: int, c: float, w: float) -> float:
    """Zero-profit residual of a low-threshold player with acceptance
    probability s_l against a high player accepting with s_h:
    -c + w s_h sum_i Binom(i; n-2, s_h/s_l) / (i+2)."""
    i, pmf = _binom_pmf(n - 2, s_h, s_l)
    return -c + w * s_h * float(np.multiply(pmf, 1.0 / (i + 2)).sum())


def _asym_high_indiff(s_l: float, s_h: float, n: int, c: float, w: float) -> float:
    """High player indifferent between stopping at the threshold and continuing:
    w beta^(n-1) s_h + c - w s_h sum_i Binom(i; n-1, s_h/s_l) / (i+1)."""
    i, pmf = _binom_pmf(n - 1, s_h, s_l)
    beta = (s_l - s_h) / s_l
    return w * beta ** (n - 1) * s_h + c - w * s_h * float(np.multiply(pmf, 1.0 / (i + 1)).sum())


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

    Solved by nested root finding on acceptance probabilities (one minus the
    quantile, so tiny ones keep their digits): the inner bracket pins the low
    players' acceptance from the zero-profit condition for each candidate high
    acceptance, the outer bracket closes the high player's indifference.
    Exists only for N >= 3.
    """
    n, c, w = params.n_players, params.cost, params.prize
    if n == 2:
        raise NoAsymmetricEquilibriumError(
            "two-player contests admit only the symmetric equilibrium"
        )
    if n > _ASYM_MAX_PLAYERS:  # before any table is built
        raise InvalidParameterError(
            f"asymmetric equilibria are solved for at most {_ASYM_MAX_PLAYERS} players, got {n}")
    if not params.viable:
        raise NotViableError(f"total per-round cost {n * c} exceeds prize {w}")

    accept = n * c / w
    d.threshold(accept)  # refuses an acceptance below float resolution, before any search

    def low_tail(s_h: float) -> float | None:
        # zero-profit residual increases in s_l; need a sign change on [s_h, 1]
        if (_asym_low_profit(s_h, s_h, n, c, w) >= 0
                or _asym_low_profit(1.0, s_h, n, c, w) <= 0):
            return None
        return _brentq(_asym_low_profit, s_h, 1.0, args=(s_h, n, c, w), xtol=1e-12 * accept)

    def outer(s_h: float) -> float | None:
        s_l = low_tail(s_h)
        return None if s_l is None else _asym_high_indiff(s_l, s_h, n, c, w)

    # low players accepting every draw break even at s_min; the asymmetric
    # root lies strictly between s_min and the trivial symmetric zero s_h =
    # accept, and scales with accept, so scan that range geometrically
    if _asym_low_profit(1.0, accept, n, c, w) <= 0:
        raise NumericFailureError("no asymmetric bracket found: low players cannot break even",
                                  diagnostics={"n_players": n, "acceptance": accept})
    s_min = _brentq(lambda t: _asym_low_profit(1.0, t, n, c, w), 0.0, accept,
                    xtol=1e-12 * accept)
    tails = np.geomspace(accept, s_min, 259)[1:-1]
    bracket, prev = None, (None, None)
    for s_h in tails:
        v = outer(s_h)
        if v is not None and prev[1] is not None and _opposite(v, prev[1]):
            bracket = (s_h, prev[0])
            break
        prev = (s_h, v)
    if bracket is None:
        raise NumericFailureError(
            "no asymmetric bracket found",
            diagnostics={"n_players": n, "acceptance": accept, "s_min": s_min},
        )

    s_h = _brentq(outer, *bracket, xtol=1e-11 * accept)
    s_l = low_tail(s_h)
    if s_l is None:
        raise NumericFailureError("inner bracket vanished at the outer root")
    v_high = w * ((s_l - s_h) / s_l) ** (n - 1)
    return AsymmetricEquilibrium(
        low_threshold=d.threshold(s_l),
        high_threshold=d.threshold(s_h),
        high_player_value=float(v_high),
    )
