"""Infinite-horizon contest equilibria.

Players draw i.i.d. values from a distribution at a per-draw cost and the
highest accepted value wins the prize. Stationary strategies are acceptance
thresholds; in quantile space every solver below is distribution-free, so all
arithmetic happens on u = F(x) and values appear only through quantile().
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import Distribution
from .errors import (
    InvalidParameterError,
    NoAsymmetricEquilibriumError,
    NoSearchIncentiveError,
    NotViableError,
    NumericFailureError,
    require_int,
    require_positive,
)


@dataclass(frozen=True)
class ContestParams:
    """Player count, per-draw cost, and winner prize."""

    n_players: int
    cost: float
    prize: float

    def __post_init__(self):
        require_int("n_players", self.n_players, 2)
        require_positive("cost", self.cost)
        require_positive("prize", self.prize)

    @property
    def viable(self) -> bool:
        return self.n_players * self.cost < self.prize


@dataclass(frozen=True)
class SymmetricEquilibrium:
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
        p = tuple(float(v) for v in self.prizes)
        object.__setattr__(self, "prizes", p)
        if not p:
            raise InvalidParameterError("prize schedule cannot be empty")
        for v in p:
            require_positive("prize", v, zero_ok=True)
        if any(a < b for a, b in zip(p, p[1:])):
            raise InvalidParameterError("prizes must be sorted non-increasing")

    @property
    def mean(self) -> float:
        return sum(self.prizes) / len(self.prizes)

    @property
    def last(self) -> float:
        return self.prizes[-1]


@dataclass(frozen=True)
class MultiPrizeEquilibrium:
    threshold: float
    acceptance_prob: float
    player_value: float
    total_expected_cost: float
    dissipation_ratio: float


@dataclass(frozen=True)
class AsymmetricEquilibrium:
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
    total_cost = n_players * cost / accept
    return MultiPrizeEquilibrium(
        threshold=d.threshold(accept),
        acceptance_prob=accept,
        player_value=prizes.last,
        total_expected_cost=total_cost,
        dissipation_ratio=1.0 - prizes.last / prizes.mean,
    )


@lru_cache(maxsize=8)
def _log_binom_coefficients(m: int) -> tuple[np.ndarray, np.ndarray]:
    """i = 0..m and log C(m, i), from lgamma."""
    from scipy.special import gammaln
    i = np.arange(m + 1)
    return i, gammaln(m + 1) - gammaln(i + 1) - gammaln(m - i + 1)


def _binom_pmf(m: int, s_h: float, s_l: float) -> tuple[np.ndarray, np.ndarray]:
    """i and Binom(i; m, delta) with delta = s_h/s_l, summed in log space so
    no power of a tail underflows on its own; beta = 1 - delta is formed from
    the tails, not by subtraction from 1."""
    from scipy.special import xlogy
    i, log_comb = _log_binom_coefficients(m)
    log_pmf = log_comb + xlogy(i, s_h / s_l) + xlogy(m - i, (s_l - s_h) / s_l)
    return i, np.exp(log_pmf)


def _asym_low_profit(s_l: float, s_h: float, n: int, c: float, w: float) -> float:
    """Zero-profit residual of a low-threshold player with acceptance
    probability s_l against a high player accepting with s_h:
    -c + w s_h sum_i Binom(i; n-2, s_h/s_l) / (i+2)."""
    i, pmf = _binom_pmf(n - 2, s_h, s_l)
    return -c + w * s_h * float(pmf @ (1.0 / (i + 2)))


def _asym_high_indiff(s_l: float, s_h: float, n: int, c: float, w: float) -> float:
    """High player indifferent between stopping at the threshold and continuing:
    w beta^(n-1) s_h + c - w s_h sum_i Binom(i; n-1, s_h/s_l) / (i+1)."""
    i, pmf = _binom_pmf(n - 1, s_h, s_l)
    beta = (s_l - s_h) / s_l
    return w * beta ** (n - 1) * s_h + c - w * s_h * float(pmf @ (1.0 / (i + 1)))


def _brentq(f, lo: float, hi: float, xtol: float, args: tuple = ()) -> float:
    """scipy's brentq, with a search that does not converge raised as
    NumericFailureError instead of RuntimeError."""
    from scipy.optimize import brentq
    root, info = brentq(f, lo, hi, args=args, xtol=xtol, full_output=True, disp=False)
    if not info.converged:
        raise NumericFailureError(
            f"root search did not converge: {info.flag}",
            diagnostics={"bracket": [lo, hi], "iterations": info.iterations, "last": root})
    return root


def _opposite(a, b):
    """Nonzero with opposite signs, elementwise; a product can overflow or underflow to 0."""
    return ((a < 0.0) & (b > 0.0)) | ((a > 0.0) & (b < 0.0))


def _grid_roots(f, xs: np.ndarray, fs: np.ndarray, xtol: float, args: tuple = ()) -> list:
    """The roots of f that the grid xs, with fs = f(xs), brackets, ascending: every
    point where fs is exactly 0, and a _brentq polish of every sign change."""
    return [float(xs[i]) if fs[i] == 0.0 else float(_brentq(f, xs[i], xs[i + 1], xtol, args))
            for i in np.flatnonzero((fs == 0.0) | np.append(_opposite(fs[:-1], fs[1:]), False))]


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
