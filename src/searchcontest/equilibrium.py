"""Infinite-horizon contest equilibria.

Players draw i.i.d. values from a distribution at a per-draw cost and the
highest accepted value wins the prize. Stationary strategies are acceptance
thresholds; in quantile space every solver below is distribution-free, so all
arithmetic happens on u = F(x) and values appear only through quantile().
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

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
class ComparativeRow:
    params: ContestParams
    viable: bool
    equilibrium: SymmetricEquilibrium | None
    note: str = ""


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
    threshold = d.support_lower if accept == 1.0 else d.quantile(1.0 - accept)
    draws = 1.0 / accept
    return SymmetricEquilibrium(
        threshold=float(threshold),
        acceptance_prob=accept,
        expected_draws=draws,
        expected_cost_per_player=c * draws,
        dissipation_ratio=1.0,
        player_value=0.0,
    )


def comparative_statics(
    params_grid: Sequence[ContestParams], d: Distribution
) -> list[ComparativeRow]:
    """Solve each grid point; non-viable points are flagged, not fatal."""
    rows = []
    for p in params_grid:
        if p.n_players * p.cost > p.prize:
            rows.append(ComparativeRow(p, False, None, "not viable: Nc > W"))
        else:
            rows.append(ComparativeRow(p, True, solve_symmetric(p, d), ""))
    return rows


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
    threshold = d.support_lower if accept == 1.0 else d.quantile(1.0 - accept)
    total_cost = n_players * cost / accept
    return MultiPrizeEquilibrium(
        threshold=float(threshold),
        acceptance_prob=accept,
        player_value=prizes.last,
        total_expected_cost=total_cost,
        dissipation_ratio=1.0 - prizes.last / prizes.mean,
    )


def _shifted_power_integral(b: float, d: float, m: int, j: int) -> float:
    """Integral of (b + s)^m s^j over s in [0, d], by binomial expansion.

    For b, d >= 0 every term is nonnegative, so nothing cancels as d -> 0."""
    return sum(
        math.comb(m, i) * b ** (m - i) * d ** (i + j + 1) / (i + j + 1) for i in range(m + 1)
    )


def _asym_low_profit(l: float, h: float, n: int, c: float, w: float) -> float:
    """Zero-profit residual of a low-threshold player, quantile space:
    -c + w * integral_h^1 (u-l)^(n-2) (u-h) du / ((1-l)^(n-2) (1-h))."""
    a, b, d = 1.0 - l, h - l, 1.0 - h
    val = _shifted_power_integral(b, d, n - 2, 1)
    return -c + w * val / (a ** (n - 2) * d)


def _asym_high_indiff(l: float, h: float, n: int, c: float, w: float) -> float:
    """High player indifferent between stopping at the threshold and continuing."""
    a, b, d = 1.0 - l, h - l, 1.0 - h
    v_high = w * (b / a) ** (n - 1)
    val = _shifted_power_integral(b, d, n - 1, 0) / a ** (n - 1)
    return v_high * d + c - w * val


def solve_asymmetric(params: ContestParams, d: Distribution) -> AsymmetricEquilibrium:
    """Two-threshold equilibrium: N-1 players share a low threshold and earn
    nothing; one player uses a higher threshold and keeps positive rents.

    Solved by nested root finding in quantile space: the inner bracket pins
    the low quantile from the zero-profit condition for each candidate high
    quantile, the outer bracket closes the high player's indifference.
    Exists only for N >= 3.
    """
    n, c, w = params.n_players, params.cost, params.prize
    if n == 2:
        raise NoAsymmetricEquilibriumError(
            "two-player contests admit only the symmetric equilibrium"
        )
    if not params.viable:
        raise NotViableError(f"total per-round cost {n * c} exceeds prize {w}")

    q_sym = 1.0 - n * c / w

    def low_quantile(h: float) -> float | None:
        lo, hi = 1e-12, h - 1e-12
        # zero-profit residual decreases in l; need a sign change on (0, h)
        if _asym_low_profit(lo, h, n, c, w) <= 0 or _asym_low_profit(hi, h, n, c, w) >= 0:
            return None
        return brentq(_asym_low_profit, lo, hi, args=(h, n, c, w), xtol=1e-12)

    def outer(h: float) -> float | None:
        l = low_quantile(h)
        if l is None:
            return None
        return _asym_high_indiff(l, h, n, c, w)

    # the symmetric point h = q_sym is a trivial zero; scan strictly above it
    grid = np.linspace(q_sym + 1e-6, 1.0 - 1e-9, 257)
    vals = [outer(h) for h in grid]
    bracket = None
    for (h0, v0), (h1, v1) in zip(zip(grid, vals), zip(grid[1:], vals[1:])):
        if v0 is not None and v1 is not None and v0 * v1 < 0:
            bracket = (h0, h1)
            break
    if bracket is None:
        raise NumericFailureError(
            "no asymmetric bracket found",
            diagnostics={"n_players": n, "grid_lo": float(grid[0]), "grid_hi": float(grid[-1])},
        )

    h_star = brentq(lambda h: outer(h), *bracket, xtol=1e-11)
    l_star = low_quantile(h_star)
    if l_star is None:
        raise NumericFailureError("inner bracket vanished at the outer root")
    v_high = w * ((h_star - l_star) / (1.0 - l_star)) ** (n - 1)
    return AsymmetricEquilibrium(
        low_threshold=float(d.quantile(l_star)),
        high_threshold=float(d.quantile(h_star)),
        high_player_value=float(v_high),
    )
