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

The module runs on Python floats alone. Newton's linear step is Gaussian
elimination with partial pivoting (_solve), not LAPACK: OpenBLAS picks its
kernels by CPU, so a LAPACK step gave roots and residuals whose last bits
depend on the host. A float passed to OpponentFinalCdf or its inverse gives a
float; anything else is read elementwise (_numerics.elementwise).
"""
from __future__ import annotations

import bisect
import math
import struct
import sys
from dataclasses import dataclass, field
from typing import Sequence

from ._numerics import elementwise, interp, linspace
from .equilibrium import _brentq, _sum_left
from .errors import (InvalidParameterError, NumericFailureError, _as_tuple, require_count,
                     require_positive)

_BR_TOL = 1e-12
_BR_MAX_ITER = 10_000
_DAMPING = 0.5
_TOP = 1.0 - 1e-12  # a best-response quantile's upper clamp
_LOG_MAX = math.log(sys.float_info.max)  # largest exponent math.exp can return
_TWO_DRAW_GRID = tuple(linspace(1e-9, 1.0 - 1e-9, 4001))
# a solve can hold eleven start lists of k - 1 quantiles at once, 8 bytes a
# reference: k - 1 <= 2**20 keeps them within 88 MiB
_MAX_ROUNDS = 2**20


@dataclass(frozen=True)
class FiniteHorizonParams:
    """Player count, cost-to-prize ratio c/W, and draws k of a finite-horizon contest."""
    n_players: int
    cost_ratio: float  # c/W
    n_draws: int  # k

    def __post_init__(self):
        object.__setattr__(self, "n_players", require_count("n_players", self.n_players, 2))
        require_positive("cost_ratio", self.cost_ratio, zero_ok=True)
        object.__setattr__(self, "n_draws", require_count("n_draws", self.n_draws, 2))
        if self.n_draws - 1 > _MAX_ROUNDS:  # checked before any list of k - 1 is built
            raise InvalidParameterError(
                f"n_draws must be at most {_MAX_ROUNDS + 1}, got {self.n_draws}")


@dataclass(frozen=True)
class FiniteHorizonEquilibrium:
    """Round acceptance quantiles of a k-draw equilibrium, whether it exists, and how found."""
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
    quantiles and then holds the solver's own node lists (_cdf_nodes). h and
    its inverse take a float and give a float; anything else is read
    elementwise (_numerics.elementwise): a scalar or 0-d array gives a float,
    an array an array of its shape.
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
        xs, ys = self._xs, self._ys = _cdf_nodes(a)
        self._h = elementwise(lambda u: interp(u, xs, ys))
        self._h_inverse = elementwise(lambda y: _inverse(y, xs, ys))

    def __call__(self, u):
        return self._h(u)

    def inverse(self, y):
        """The quantile u with h(u) = y, clamped to [0, 1] (_inverse)."""
        return self._h_inverse(y)

    def integral_power(
        self, p: float, lo: float = 0.0, hi: float = 1.0, ref: float = 1.0
    ) -> float:
        """Exact integral of (h(u)/ref)^p over [lo, hi]; a ref near h keeps
        the powers in range when h is tiny."""
        if hi <= lo or ref <= 0.0:
            return 0.0
        lo, hi = float(lo), float(hi)
        xs, ys = self._xs, self._ys
        cuts = sorted({min(max(x, lo), hi) for x in xs} | {lo, hi})
        return _sum_left(_segment_integrals(cuts, [interp(x, xs, ys) for x in cuts], p, ref))


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


def _segment_integrals(
    xs: list[float], ys: list[float], p: float, ref: float, m: int | None = None
) -> list[float]:
    """The integral of (h/ref)^p over each segment [xs[i-1], xs[i]] for
    0 < i < m (every segment by default), with h linear from ys[i-1] to
    ys[i]. A node's power (y/ref)^(p+1) is computed once and reused by the
    next segment; a flat segment takes y^p instead and computes no such
    power, which could overflow where y^p does not."""
    q = p + 1
    y0, w0 = ys[0] / ref, None
    terms = []
    for i in range(1, len(xs) if m is None else m):
        y1 = ys[i] / ref
        if y1 == y0:
            terms.append(y0**p * (xs[i] - xs[i - 1]))
        else:
            w0 = y0**q if w0 is None else w0
            w1 = y1**q
            terms.append((w1 - w0) / (y1 - y0) * (xs[i] - xs[i - 1]) / q)
            w0 = w1
        y0 = y1
    return terms


def _inverse(y: float, xs: list[float], ys: list[float]) -> float:
    """OpponentFinalCdf.inverse for one float y, from h's node lists. Where the
    reach of the last round is subnormal, a first segment's inverse slope
    (x1 - x0) / (y1 - y0) overflows and interpolation gives inf; there u is
    taken as (y - y0) / (y1 - y0) * (x1 - x0) + x0, dividing by the rise first."""
    u = interp(y, ys, xs)
    if u > 1.0 and u == math.inf:  # y is inside a segment whose inverse slope overflows
        j = bisect.bisect_right(ys, y) - 1
        u = (y - ys[j]) / (ys[j + 1] - ys[j]) * (xs[j + 1] - xs[j]) + xs[j]
    return 1.0 if u > 1.0 else 0.0 if u < 0.0 else u  # NaN and -0.0 pass as they are


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

    With r = c/W, the residual times N(1 + a) is the polynomial
    (1 - Nr) - Nr a - N a^(2N-2) + (1 - N) a^(2N-1), whose coefficients change
    sign once when Nr < 1 and never otherwise: by Descartes' rule it has one
    root in (0, 1) or none. Bisection over the indices of a 4,001-point grid
    finds its bracket, reading the residual at about 14 points; a grid point
    where it is exactly 0 is the root, and a sign change is polished by Brent's
    method. The root only counts as an equilibrium when it is stable under
    damped best-response dynamics. (Near the participation frontier the
    indifference condition keeps an interior root that no adjustment process
    can hold; those cells report exists=False.)
    """
    params = FiniteHorizonParams(n_players, cost_ratio, 2)
    n, r = params.n_players, params.cost_ratio
    g, lo, hi = _TWO_DRAW_GRID, 0, len(_TWO_DRAW_GRID) - 1
    f_lo, f_hi = (_two_draw_residual(g[i], n, r) for i in (lo, hi))
    if f_lo > 0.0 >= f_hi:  # a sign change: keep the residual > 0 at lo and <= 0 at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            f_mid = _two_draw_residual(g[mid], n, r)
            if f_mid > 0.0:
                lo = mid
            else:
                hi, f_hi = mid, f_mid
        roots = [g[hi] if f_hi == 0.0
                 else _brentq(_two_draw_residual, g[lo], g[hi], 1e-15, (n, r))]
    else:  # a root at the first grid point, or none on the grid
        roots = [g[lo]] if f_lo == 0.0 else []
    checks = [_two_draw_stable(a, n, r) for a in roots]  # (stable, factor)
    diagnostics = {"roots": roots, "stability_factors": [f for _, f in checks]}
    frontier = _frontier(n, r, 2, diagnostics)
    if frontier is not None:
        return frontier
    if not checks or not checks[0][0]:
        return FiniteHorizonEquilibrium((), False, diagnostics)
    diagnostics["stability_factor"] = checks[0][1]
    return FiniteHorizonEquilibrium((roots[0],), True, diagnostics)


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
    total = 0.0  # each sum left to right from 0.0, as _sum_left adds
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


def _scaled_residuals(a: list[float], n: int, r: float) -> list[float]:
    """Cancellation-free equilibrium system, every component O(1)-scaled.

    Substituting the level equation into the indifference cascade removes the
    per-draw cost from every remaining equation:
        (h(a_j)/h(a_{j+1}))^p - a_{j+1} - (h(a_{k-1})/h(a_{j+1}))^p
            + int_0^{a_{j+1}} (h/h(a_{j+1}))^p du = 0,   j = 1..k-2,
    plus one level equation pinning the forced-acceptance value:
        h(a_{k-1})^p + r - int_0^1 h^p du = 0.
    For j = k-2 the h(a_{k-1}) ratio collapses to 1. a holds floats.
    """
    k = len(a) + 1
    p = n - 1
    xs, ys = _cdf_nodes(a)
    out = []
    h_last = interp(a[k - 2], xs, ys)
    for j in range(k - 2):
        hj = interp(a[j], xs, ys)
        hj1 = interp(a[j + 1], xs, ys)
        if hj <= 0.0 or hj1 <= 0.0 or h_last <= 0.0:
            out.append(1e3)  # outside the solvable region; push back
            continue
        # math.exp raises past the float edge; clamping there leaves every
        # value it can return unchanged
        ratio = math.exp(min(p * (math.log(hj) - math.log(hj1)), _LOG_MAX))
        tail = math.exp(min(p * (math.log(h_last) - math.log(hj1)), _LOG_MAX))
        i = bisect.bisect_left(xs, a[j + 1])
        out.append(ratio - a[j + 1] - tail
                   + _sum_left(_segment_integrals(xs, ys, p, hj1, i + 1)))
    out.append(h_last ** p + r - _sum_left(_segment_integrals(xs, ys, p, 1.0)))
    return out


def _clip(a) -> list[float]:
    """np.clip(a, 1e-9, 1 - 1e-9) on floats: a NaN passes as it is."""
    return [1e-9 if x < 1e-9 else 1.0 - 1e-9 if x > 1.0 - 1e-9 else x for x in a]


def _sup_norm(f: list[float]) -> float:
    """float(np.max(np.abs(f))) on floats: the first NaN met, else the largest |f_i|."""
    ds = [abs(v) for v in f]
    return next((d for d in ds if d != d), max(ds))


def _solve(a, b: list[float]) -> list[float] | None:
    """x with a x = b for the rows a, by Gaussian elimination with partial
    pivoting on floats (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, Algorithm 9.1): the pivot is the first largest
    |entry| of its column, and None is returned on an exactly zero pivot,
    where LAPACK's getrf reports a singular matrix."""
    m = len(b)
    rows = [[*row, v] for row, v in zip(a, b)]  # augmented, copied
    for j in range(m):
        p = max(range(j, m), key=lambda i: abs(rows[i][j]))
        if rows[p][j] == 0.0:
            return None
        rows[j], rows[p] = rows[p], rows[j]
        pivot = rows[j]
        for row in rows[j + 1:]:
            f = row[j] / pivot[j]
            for c in range(j + 1, m + 1):
                row[c] -= f * pivot[c]
    x = [0.0] * m
    for i in range(m - 1, -1, -1):  # back substitution
        s = rows[i][m]
        for c in range(i + 1, m):
            s -= rows[i][c] * x[c]
        x[i] = s / rows[i][i]
    return x


def _newton_polish(
    a0: Sequence[float], n: int, r: float
) -> tuple[list[float] | None, int, float]:
    """Damped Newton with backtracking on the scaled system, on floats:
    (solution, iterations, sup norm), or (None, iterations, sup norm) where
    it stops above 1e-9. The Jacobian is by central differences, column by
    column; the step is _solve's, and a singular Jacobian ends the search."""
    a = _clip(map(float, a0))
    f = _scaled_residuals(a, n, r)
    norm = _sup_norm(f)
    m = len(a)
    for it in range(200):
        if norm < 1e-12:
            return a, it, norm
        cols = []
        for i in range(m):
            eps = 1e-7 * max(abs(a[i]), 1e-3)
            ap, am = a.copy(), a.copy()
            ap[i] = min(a[i] + eps, 1.0 - 1e-12)
            am[i] = max(a[i] - eps, 1e-12)
            # a residual saturated at the float edge gives an infinite column
            cols.append([(x - y) / (ap[i] - am[i]) for x, y in
                         zip(_scaled_residuals(ap, n, r), _scaled_residuals(am, n, r))])
        step = _solve(zip(*cols), [-v for v in f])
        if step is None:
            return None, it, norm
        improved = False
        for halving in range(40):
            cand = _clip([x + s * 0.5**halving for x, s in zip(a, step)])
            if any(x != x for x in cand):  # a NaN step (an overflowed Jacobian) improves nothing
                break
            fc = _scaled_residuals(cand, n, r)
            nc = _sup_norm(fc)
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
    closed-form root and stability rule decide existence, so a cell it finds
    no equilibrium in returns its result before any attempt. For k>=3 any
    interior root found is reported as an equilibrium, and the two-draw root
    is computed only when an attempt needs its seed: a start from `init` that
    converges runs no two-draw solve.
    """
    n, r, k = params.n_players, params.cost_ratio, params.n_draws
    if init is not None:
        try:
            items = tuple(init)  # read once: an iterator is spent after one pass
            init = [float(v) for v in items]
            ok = (len(init) == k - 1 and all(0.0 <= v < 1.0 for v in init)
                  and all(map(math.isfinite, items)))  # refuses a string, as ContestParams does
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
    starts = [] if init is None else [_clip(init)]

    def plan(two):  # for k>=3 the two-draw solve runs once the starts from init are spent
        yield from ((_run_best_response, "best_response", a0) for a0 in starts)
        if two is None:
            two = solve_two_draw(n, r)
        seed = two.round_quantiles[0] if two.exists else (
            two.diagnostics["roots"][0] if two.diagnostics.get("roots") else 0.5
        )
        seeded = [*starts, [seed] * (k - 1)]
        yield _run_best_response, "best_response", seeded[-1]
        others = [0.9 * seed, min(0.95, 1.2 * seed)]
        if r > 0:
            edge = max(1e-6, min(1.0 / (n * r) - 1.0, 1 - 1e-6))
            others += [edge, 0.5 * (edge + seed)]
        others += [0.1, 0.3, 0.5, 0.7, 0.9]
        for a0 in seeded + [[x] * (k - 1) for x in others]:
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

    # polish whichever method found the root so every route agrees tightly; the
    # polish's final norm is the scaled residual (where it fails, the root is the attempt's)
    polished, _, norm = _newton_polish(solution, n, r)
    if polished is not None:
        solution = polished
    diagnostics = {"attempts": attempts, "scaled_residual": norm}
    return FiniteHorizonEquilibrium(tuple(float(v) for v in solution), True, diagnostics)


@dataclass(frozen=True)
class ProfileRow:
    """One player count's k-draw round quantiles and whether its equilibrium exists."""
    n_players: int
    round_quantiles: tuple[float, ...]
    exists: bool


@dataclass(frozen=True)
class ThresholdProfile:
    """k-draw equilibria across player counts at one c/W, with the peak and frontier counts."""
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
    k = require_count("n_draws", k, 2)
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
