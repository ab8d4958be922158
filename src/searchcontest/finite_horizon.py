"""Finite-horizon contests: each player gets at most k draws and must accept
the last one. Equilibria are vectors of per-round acceptance quantiles; they
depend only on (N, c/W, k), never on the distribution itself.

Numerical core: the opponent's final-value CDF is piecewise linear in quantile
space, so every integral has an exact segment closed form. Round values follow
by backward induction. High (c/W)*N cells are near a participation frontier
where the raw indifference residuals fall below float64 cancellation noise;
the Newton fallback therefore solves an algebraically equivalent system in
which the cost term cancels exactly (adjacent-round ratio equations), keeping
every equation O(1)-scaled.
"""
from __future__ import annotations

import bisect
import math
import struct
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._numerics import interp
from .equilibrium import _grid_roots
from .errors import (InvalidParameterError, NumericFailureError, _as_tuple, require_int,
                     require_positive)

_BR_TOL = 1e-12
_BR_MAX_ITER = 10_000
_DAMPING = 0.5
_TOP = 1.0 - 1e-12  # a best-response quantile's upper clamp
_LOG_MAX = math.log(sys.float_info.max)  # largest exponent math.exp can return


@dataclass(frozen=True)
class FiniteHorizonParams:
    n_players: int
    cost_ratio: float  # c/W
    n_draws: int  # k

    def __post_init__(self):
        object.__setattr__(self, "n_players", require_int("n_players", self.n_players, 2))
        require_positive("cost_ratio", self.cost_ratio, zero_ok=True)
        object.__setattr__(self, "n_draws", require_int("n_draws", self.n_draws, 2))


@dataclass(frozen=True)
class FiniteHorizonEquilibrium:
    round_quantiles: tuple[float, ...]
    exists: bool
    diagnostics: dict = field(default_factory=dict, compare=False, repr=False)


class OpponentFinalCdf:
    """Quantile-space CDF of one opponent's final accepted value.

    For acceptance quantiles (a_1, ..., a_{k-1}) and forced acceptance at
    draw k, the final value lands at or below quantile u with probability

        h(u) = sum_j (prod_{i<j} a_i) * max(u - a_j, 0) + (prod_i a_i) * u.

    h is piecewise linear, convex, nondecreasing, h(0)=0 and h(1)=1, so
    integrals of h^p have exact per-segment closed forms. The class checks its
    quantiles and then holds the solver's own node lists (_cdf_nodes): a float
    is read through interp, and only arrays go through np.interp.
    """

    def __init__(self, round_quantiles: Sequence[float]):
        try:
            items = tuple(round_quantiles)  # read once: an iterator is spent after one pass
            a = tuple(map(float, items))
            # NaN fails both comparisons; math.isfinite refuses a string float() read
            ok = all(0 <= v < 1 for v in a) and all(map(math.isfinite, items))
        except (TypeError, ValueError):  # a bare number, or an item float() cannot read
            ok = False
        if not ok:
            raise InvalidParameterError(f"round quantiles must lie in [0, 1): {round_quantiles!r}")
        self.round_quantiles = a
        self._xs, self._ys = _cdf_nodes(a)

    def __call__(self, u):
        if type(u) is float:
            return interp(u, self._xs, self._ys)
        return np.interp(u, self._xs, self._ys)

    def inverse(self, y):
        """The quantile u with h(u) = y, clamped to [0, 1]. It is np.interp's
        inverse except where the reach of the last round is subnormal: there the
        first segments' inverse slope Δu/Δh overflows, interpolation gives inf,
        and u is taken as u_j + (y - h_j) / Δh * Δu instead."""
        ys, xs = self._ys, self._xs
        if type(y) is float:
            return _inverse(y, xs, ys)
        u = np.interp(y, ys, xs)
        steep = u == math.inf
        if steep.any():
            u, y, ys, xs = np.array(u), np.asarray(y)[steep], np.array(ys), np.array(xs)
            j = np.searchsorted(ys, y, side="right") - 1
            u[steep] = _rise_first(y, ys[j], ys[j + 1], xs[j], xs[j + 1])
        return np.clip(u, 0.0, 1.0)

    def _value(self, u: float) -> float:
        """h(u) as a float."""
        return interp(float(u), self._xs, self._ys)

    def integral_power(
        self, p: float, lo: float = 0.0, hi: float = 1.0, ref: float = 1.0
    ) -> float:
        """Exact integral of (h(u)/ref)^p over [lo, hi]; a ref near h keeps
        the powers in range when h is tiny."""
        if hi <= lo or ref <= 0.0:
            return 0.0
        lo, hi = float(lo), float(hi)
        xs = self._xs
        i, j = bisect.bisect_left(xs, lo), bisect.bisect_left(xs, hi)
        if j < len(xs) and xs[i] == lo and xs[j] == hi:  # the solver's case: nodes are the cuts
            cuts, ys = xs[i:j + 1], self._ys[i:j + 1]
        else:
            cuts = sorted({min(max(x, lo), hi) for x in xs} | {lo, hi})
            ys = [self._value(x) for x in cuts]
        return _sum(_segment_integrals(cuts, ys, p, ref))


def _cdf_nodes(a: Sequence[float]) -> tuple[list[float], list[float]]:
    """The nodes xs of h and its values ys there, for quantiles a that are
    floats; a quantile outside [0, 1) is refused, as OpponentFinalCdf does."""
    pairs = []  # (a_j, prob of surviving to round j)
    last = 1.0  # prob of reaching the forced draw
    for v in a:
        if not 0.0 <= v < 1.0:  # NaN fails too
            raise InvalidParameterError(f"round quantiles must lie in [0, 1): {a!r}")
        pairs.append((v, last))
        last *= v
    xs = sorted({0.0, 1.0, *a})
    ys, y = [0.0], 0.0
    for x0, x1 in zip(xs, xs[1:-1]):  # h at the inner nodes, a running sum
        slope = 0.0  # summed in j order, left to right
        for aj, rj in pairs:
            if aj <= x0:
                slope += rj
        y += (last + slope) * (x1 - x0)
        ys.append(y)
    ys.append(1.0)  # exact by construction; pinned against rounding
    return xs, ys


def _segment_integrals(xs: list[float], ys: list[float], p: float, ref: float) -> list[float]:
    """The integral of (h/ref)^p over each segment [xs[i], xs[i+1]], with h
    linear from ys[i] to ys[i+1]. A node's power (y/ref)^(p+1) is computed
    once and reused by the next segment; a flat segment takes y^p instead and
    computes no such power, which could overflow where y^p does not."""
    q = p + 1
    y0, w0 = ys[0] / ref, None
    terms = []
    for x0, x1, y in zip(xs[:-1], xs[1:], ys[1:]):
        y1 = y / ref
        if y1 == y0:
            terms.append(y0**p * (x1 - x0))
        else:
            w0 = y0**q if w0 is None else w0
            w1 = y1**q
            terms.append((w1 - w0) / (y1 - y0) * (x1 - x0) / q)
            w0 = w1
        y0 = y1
    return terms


def _sum(terms: Sequence[float]) -> float:
    """terms summed left to right from 0.0: builtin sum() of floats is
    compensated on Python >= 3.12 and would change the bits."""
    total = 0.0
    for t in terms:
        total += t
    return total


def _inverse(y: float, xs: list[float], ys: list[float]) -> float:
    """OpponentFinalCdf.inverse for one float y, from h's node lists."""
    u = interp(y, ys, xs)
    if u > 1.0 and u == math.inf:  # y is inside a segment whose inverse slope overflows
        j = bisect.bisect_right(ys, y) - 1
        u = _rise_first(y, ys[j], ys[j + 1], xs[j], xs[j + 1])
    return 1.0 if u > 1.0 else 0.0 if u < 0.0 else u  # NaN and -0.0 pass as they are


def _rise_first(y, y0: float, y1: float, x0: float, x1: float):
    """Inverse interpolation on the segment from (x0, y0) to (x1, y1) that
    divides by its rise y1 - y0 first, for a segment whose slope
    (x1 - x0) / (y1 - y0) overflows."""
    return (y - y0) / (y1 - y0) * (x1 - x0) + x0


# ---------------------------------------------------------------------------
# two-draw closed form


def _two_draw_residual(a: float, n: int, cost_ratio: float) -> float:
    """Round-1 indifference in closed form; zero at a symmetric equilibrium."""
    return (1.0 + a ** (2 * n - 1)) / (n * (1.0 + a)) - a ** (2 * n - 2) - cost_ratio


def _two_draw_stable(a: float, n: int, cost_ratio: float) -> tuple[bool, float]:
    """Damped best-response stability at a root: factor |(1+T')/2| < 1, with
    T the round-1 best response to opponents using quantile a."""
    hi, lo = a + 1e-7, max(a - 1e-7, 0.0)
    if not hi < 1.0:  # the probe would read h past its last node
        raise NumericFailureError(
            f"no two-draw stability verdict for N={n}, c/W={cost_ratio}: the root {a!r} "
            "lies within the probe step 1e-7 of 1", diagnostics={"root": a})
    tp = (_best_response((hi,), 1, n, cost_ratio)
          - _best_response((lo,), 1, n, cost_ratio)) / (hi - lo)
    factor = abs(0.5 * (1.0 + tp))
    return factor < 1.0, factor


def _frontier(n: int, r: float, k: int, diagnostics: dict) -> FiniteHorizonEquilibrium | None:
    """The outcome for N*c/W >= 1, else None. h(u) <= u pointwise (convex,
    pinned at 0 and 1), so the forced-draw value is at most 1/N - c/W: past
    N*c/W = 1 nothing exists, and on it every player accepts the first draw."""
    if n * r < 1.0:
        return None
    if n * r > 1.0:
        return FiniteHorizonEquilibrium((), False,
                                        {**diagnostics, "reason": "participation frontier"})
    return FiniteHorizonEquilibrium((0.0,) * (k - 1), True,
                                    {**diagnostics, "reason": "degenerate frontier equilibrium"})


def solve_two_draw(n_players: int, cost_ratio: float) -> FiniteHorizonEquilibrium:
    """Symmetric two-draw equilibrium by 1-D root finding on the closed form.

    All interior roots are located on a dense grid; a root only counts as an
    equilibrium when it is stable under damped best-response dynamics. (Near
    the participation frontier the indifference condition keeps an interior
    root that no adjustment process can hold; those cells report exists=False.)
    """
    params = FiniteHorizonParams(n_players, cost_ratio, 2)
    n, r = params.n_players, params.cost_ratio

    grid = np.linspace(1e-9, 1.0 - 1e-9, 4001)
    roots = _grid_roots(_two_draw_residual, grid, _two_draw_residual(grid, n, r), 1e-15, (n, r))
    checks = [_two_draw_stable(a, n, r) for a in roots]
    stable = [(a, f) for a, (ok, f) in zip(roots, checks) if ok]
    diagnostics = {"roots": roots, "stability_factors": [f for _, f in checks]}
    frontier = _frontier(n, r, 2, diagnostics)
    if frontier is not None:
        return frontier
    if not stable:
        return FiniteHorizonEquilibrium((), False, diagnostics)
    a_star, factor = stable[0]
    diagnostics["stability_factor"] = factor
    return FiniteHorizonEquilibrium((a_star,), True, diagnostics)


# ---------------------------------------------------------------------------
# general k: backward induction + damped best response, Newton fallback


def _best_response(a: Sequence[float], j: int, n: int, r: float) -> float:
    """Undamped best round-j quantile against opponents using the float
    quantiles a: the quantile whose win probability h^(N-1) equals the value
    of going on. h's nodes and segment integrals are built once; the value of
    entering round i, by backward induction from the forced draw k down to
    round j+1, is

        V_k = -r + int_0^1 h^p,   V_i = -r + a_i V_{i+1} + int_{a_i}^1 h^p,

    each integral the sum of the segment terms right of its lower node."""
    p = n - 1
    xs, ys = _cdf_nodes(a)
    terms = _segment_integrals(xs, ys, p, 1.0)
    total = 0.0  # each sum left to right from 0.0, as _sum adds
    for t in terms:
        total += t
    v = -r + total
    for i in range(len(a) - 1, j - 1, -1):
        total = 0.0
        for t in terms[bisect.bisect_left(xs, a[i]):]:
            total += t
        v = -r + a[i] * v + total
    # max(v, 0.0) as builtin max reads it: NaN and -0.0 stay
    return _inverse((0.0 if 0.0 > v else v) ** (1.0 / p), xs, ys)


def _best_response_sweep(a: list[float], n: int, r: float) -> tuple[list[float], float]:
    """One damped Gauss-Seidel sweep over rounds k-1..1; returns sup residual."""
    a = a.copy()
    resid = 0.0
    for j in range(len(a), 0, -1):
        b, aj = _best_response(a, j, n, r), a[j - 1]
        # builtin max and min written out, with their results on ties, -0.0 and NaN
        d = abs(b - aj)
        resid = d if d > resid else resid
        x = aj + _DAMPING * (b - aj)
        a[j - 1] = 0.0 if 0.0 > x else _TOP if _TOP < x else x
    return a, resid


def _run_best_response(
    a0: Sequence[float], n: int, r: float
) -> tuple[list[float] | None, int, float]:
    """Damped best-response sweeps from a0 until the sup residual is below
    _BR_TOL: (solution, sweeps, residual), or (None, sweeps, residual) once
    more than 200 sweeps in a row fail to cut the best residual by 0.1% (an
    unstable cell) or after _BR_MAX_ITER sweeps.

    A sweep is a pure function of its float state, so each state's result is
    kept, keyed by the state's bytes (-0.0 and 0.0 apart, a NaN only equal to
    its own bits), and a state met again is replayed from the map: an attempt
    caught in an exact cycle runs its stall count to the same stop, with the
    same sweeps, residual and state, without computing them again. The map
    is cleared whenever the best residual falls, so it holds at most 201
    states. A kept result never lowers the best residual, so once a state
    repeats every later sweep is a replay."""
    a = [float(x) for x in a0]
    key = struct.Struct(f"{len(a)}d").pack
    seen: dict[bytes, tuple[list[float], float]] = {}
    resid = math.inf
    best = math.inf
    stall = 0
    for it in range(_BR_MAX_ITER):
        state = key(*a)
        step = seen.get(state)
        if step is None:
            step = seen[state] = _best_response_sweep(a, n, r)
        a, resid = step
        if resid < _BR_TOL:
            return a, it + 1, resid
        # bail out early when the iteration stops contracting (unstable cell)
        if resid < 0.999 * best:
            best, stall = resid, 0
            seen.clear()
        else:
            stall += 1
            if stall > 200:
                return None, it + 1, resid
    return None, _BR_MAX_ITER, resid


def _scaled_residuals(a: np.ndarray, n: int, r: float) -> np.ndarray:
    """Cancellation-free equilibrium system, every component O(1)-scaled.

    Substituting the level equation into the indifference cascade removes the
    per-draw cost from every remaining equation:
        (h(a_j)/h(a_{j+1}))^p - a_{j+1} - (h(a_{k-1})/h(a_{j+1}))^p
            + int_0^{a_{j+1}} (h/h(a_{j+1}))^p du = 0,   j = 1..k-2,
    plus one level equation pinning the forced-acceptance value:
        h(a_{k-1})^p + r - int_0^1 h^p du = 0.
    For j = k-2 the h(a_{k-1}) ratio collapses to 1.
    """
    k = len(a) + 1
    p = n - 1
    a = [float(v) for v in a]  # an array from Newton, or best response's list
    xs, ys = _cdf_nodes(a)
    out = np.zeros(k - 1)
    h_last = interp(a[k - 2], xs, ys)
    for j in range(k - 2):
        hj = interp(a[j], xs, ys)
        hj1 = interp(a[j + 1], xs, ys)
        if hj <= 0.0 or hj1 <= 0.0 or h_last <= 0.0:
            out[j] = 1e3  # outside the solvable region; push back
            continue
        # math.exp raises past the float edge; clamping there leaves every
        # value it can return unchanged
        ratio = math.exp(min(p * (math.log(hj) - math.log(hj1)), _LOG_MAX))
        tail = math.exp(min(p * (math.log(h_last) - math.log(hj1)), _LOG_MAX))
        i = bisect.bisect_left(xs, a[j + 1])
        out[j] = ratio - a[j + 1] - tail + _sum(_segment_integrals(xs[:i + 1], ys[:i + 1], p, hj1))
    out[k - 2] = h_last ** p + r - _sum(_segment_integrals(xs, ys, p, 1.0))
    return out


def _newton_polish(
    a0: np.ndarray, n: int, r: float
) -> tuple[np.ndarray | None, int, float]:
    """Damped Newton with backtracking on the scaled system."""
    a = np.clip(a0, 1e-9, 1.0 - 1e-9)
    f = _scaled_residuals(a, n, r)
    norm = float(np.max(np.abs(f)))
    m = len(a)
    for it in range(200):
        if norm < 1e-12:
            return a, it, norm
        jac = np.zeros((m, m))
        for i in range(m):
            eps = 1e-7 * max(abs(a[i]), 1e-3)
            ap, am = a.copy(), a.copy()
            ap[i] = min(a[i] + eps, 1.0 - 1e-12)
            am[i] = max(a[i] - eps, 1e-12)
            # a residual saturated at the float edge gives an infinite column
            with np.errstate(over="ignore", invalid="ignore"):
                jac[:, i] = (_scaled_residuals(ap, n, r) - _scaled_residuals(am, n, r)) / (
                    ap[i] - am[i]
                )
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None, it, norm
        improved = False
        for halving in range(40):
            cand = np.clip(a + step * 0.5**halving, 1e-9, 1.0 - 1e-9)
            if np.isnan(cand).any():  # a NaN step, from an overflowed Jacobian, improves nothing
                break
            fc = _scaled_residuals(cand, n, r)
            nc = float(np.max(np.abs(fc)))
            if nc < norm:
                a, f, norm = cand, fc, nc
                improved = True
                break
        if not improved:
            return (a, it, norm) if norm < 1e-9 else (None, it, norm)
    return (a, 200, norm) if norm < 1e-9 else (None, 200, norm)


def solve_k_draw(
    params: FiniteHorizonParams, init: Sequence[float] | None = None
) -> FiniteHorizonEquilibrium:
    """Symmetric k-draw equilibrium by backward induction.

    One ordered list of (method, start) attempts, first success wins: damped
    sequential best response from `init`, if given, then from the two-draw
    root; then damped Newton on the cancellation-free system from those starts
    and a fixed list of others (needed near the participation frontier, where
    best response is unstable and the raw residuals are below float noise). A
    final Newton polish tightens the root found. For k=2 solve_two_draw's
    closed-form scan and stability rule decide existence, so a cell it finds
    no equilibrium in returns its result before any attempt. For k>=3 any
    interior root found is reported as an equilibrium, and the two-draw root
    is computed only when an attempt needs its seed: a start from `init` that
    converges runs no two-draw scan.
    """
    n, r, k = params.n_players, params.cost_ratio, params.n_draws
    if init is not None:
        try:
            raw, init = init, np.asarray(init, dtype=float)
            ok = (init.shape == (k - 1,) and bool(np.all((init >= 0) & (init < 1)))
                  and all(map(math.isfinite, raw)))  # refuses a string, as ContestParams does
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise InvalidParameterError(f"init must hold k-1 = {k - 1} quantiles in [0, 1)")

    frontier = _frontier(n, r, k, {})
    if frontier is not None:
        return frontier

    two = solve_two_draw(n, r) if k == 2 else None
    if k == 2 and not two.exists:
        return two
    starts = [] if init is None else [np.clip(init, 1e-9, 1 - 1e-9)]

    def plan(two):  # for k>=3 the two-draw scan runs once the starts from init are spent
        yield from ((_run_best_response, "best_response", a0) for a0 in starts)
        if two is None:
            two = solve_two_draw(n, r)
        seed = two.round_quantiles[0] if two.exists else (
            two.diagnostics["roots"][0] if two.diagnostics.get("roots") else 0.5
        )
        seeded = [*starts, np.full(k - 1, seed)]
        yield _run_best_response, "best_response", seeded[-1]
        others = [0.9 * seed, min(0.95, 1.2 * seed)]
        if r > 0:
            edge = max(1e-6, min(1.0 / (n * r) - 1.0, 1 - 1e-6))
            others += [edge, 0.5 * (edge + seed)]
        others += [0.1, 0.3, 0.5, 0.7, 0.9]
        for a0 in seeded + [np.full(k - 1, x) for x in others]:
            yield _newton_polish, "newton", a0

    attempts = []
    for method, name, a0 in plan(two):
        solution, iters, resid = method(a0, n, r)
        attempts.append({"method": name, "iterations": iters, "residual": resid})
        if solution is not None:
            break
    else:
        raise NumericFailureError(
            f"no k={k} equilibrium found for N={n}, c/W={r}",
            diagnostics={"attempts": attempts},
        )

    # polish whichever method found the root so every route agrees tightly
    polished, _, _ = _newton_polish(solution, n, r)
    if polished is not None:
        solution = polished
    diagnostics = {"attempts": attempts, "scaled_residual": float(
        np.max(np.abs(_scaled_residuals(solution, n, r)))
    )}
    return FiniteHorizonEquilibrium(tuple(float(v) for v in solution), True, diagnostics)


@dataclass(frozen=True)
class ProfileRow:
    n_players: int
    round_quantiles: tuple[float, ...]
    exists: bool


@dataclass(frozen=True)
class ThresholdProfile:
    n_draws: int
    cost_ratio: float
    rows: tuple[ProfileRow, ...]
    peak_n: int | None  # argmax of the round-1 quantile among existing rows
    frontier_n: int | None  # first N at which no equilibrium exists

    def row(self, n_players: int) -> ProfileRow:
        for r in self.rows:
            if r.n_players == n_players:
                return r
        raise KeyError(n_players)


def threshold_profile(
    k: int, cost_ratio: float, n_range: Sequence[int]
) -> ThresholdProfile:
    """Sweep N, reusing each solution as the next N's starting point."""
    k = require_int("n_draws", k, 2)
    require_positive("cost_ratio", cost_ratio, zero_ok=True)  # checked even with no rows
    rows = []
    prev: tuple[float, ...] | None = None
    for n in _as_tuple("n_range", n_range):
        params = FiniteHorizonParams(n, cost_ratio, k)
        eq = solve_k_draw(params, init=prev)
        rows.append(ProfileRow(params.n_players, eq.round_quantiles, eq.exists))
        prev = eq.round_quantiles if eq.exists else prev
    existing = [r for r in rows if r.exists]
    peak_n = max(existing, key=lambda r: r.round_quantiles[0]).n_players if existing else None
    frontier_n = next((r.n_players for r in rows if not r.exists), None)
    return ThresholdProfile(k, cost_ratio, tuple(rows), peak_n, frontier_n)
