"""Finite-horizon equilibria: closed form, backward induction, sweeps."""
import bisect
import hashlib
import json
import math
import time
import types
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from searchcontest import (
    FiniteHorizonParams,
    InvalidParameterError,
    NumericFailureError,
    OpponentFinalCdf,
    SearchContestError,
    solve_k_draw,
    solve_two_draw,
    threshold_profile,
)
from searchcontest import finite_horizon as fh
from searchcontest.cli import main
from searchcontest.finite_horizon import (_BR_MAX_ITER, _BR_TOL, _best_response,
                                          _best_response_sweep, _two_draw_residual)
from searchcontest.serialize import canonical, to_json

# Reference first-round quantiles (printed at 3 decimals) for N = 2..9.
# None marks parameter cells where no symmetric equilibrium exists.
TWO_DRAW_TABLE = {
    0.0: [0.618, 0.691, 0.738, 0.770, 0.795, 0.814, 0.829, 0.842],
    0.05: [0.572, 0.647, 0.691, 0.720, 0.740, 0.754, 0.762, 0.765],
    0.10: [0.525, 0.594, 0.625, 0.629, 0.590, None, None, None],
}
THREE_DRAW_TABLE = {
    0.0: [0.743, 0.797, 0.829, 0.851, 0.868, 0.881, 0.891, 0.899],
    0.05: [0.688, 0.745, 0.774, 0.790, 0.798, 0.796, 0.777, 0.715],
    0.10: [0.631, 0.677, 0.677, 0.609, 0.460, 0.324, 0.207, 0.107],
}

# high-precision roots for the cells where float64 residuals degenerate,
# re-derived at 60-digit arithmetic from a cancellation-free system
HARD_CELLS = {
    (0.05, 9): (0.71498480153, 0.697189142987),
    (0.10, 6): (0.459576806710294, 0.450373089072933),
    (0.10, 7): (0.324390001815132, 0.321160969923351),
    (0.10, 8): (0.207230936177687, 0.206383586404255),
    (0.10, 9): (0.100933580108, 0.100833944382),
}
# the one printed cell whose 3-decimal value is a float64 artifact; the
# verified root rounds to 0.101 instead
ARTIFACT_CELL = (0.10, 9)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ------------------------------------------------------- opponent final CDF


def test_final_cdf_endpoints_and_bounds():
    h = OpponentFinalCdf([0.7, 0.6])
    us = np.linspace(0.0, 1.0, 201)
    ys = h(us)
    assert h(0.0) == 0.0
    assert h(1.0) == pytest.approx(1.0, abs=1e-15)
    assert np.all(ys <= us + 1e-15)  # stochastically above a single draw
    assert np.all(np.diff(ys) >= -1e-15)


def test_final_cdf_convex_kinks_at_thresholds():
    h = OpponentFinalCdf([0.5, 0.25])
    us = np.linspace(0.0, 1.0, 401)
    slopes = np.diff(h(us)) / np.diff(us)
    assert np.all(np.diff(slopes) >= -1e-9)  # piecewise-linear and convex


def test_final_cdf_two_draw_form():
    # one threshold a: reach probability a, final CDF u*a below a, else
    # a*a + (u - a)(1 + a)
    a = 0.6
    h = OpponentFinalCdf([a])
    assert h(0.3) == pytest.approx(0.3 * a, abs=1e-14)
    assert h(a) == pytest.approx(a * a, abs=1e-14)
    assert h(0.8) == pytest.approx(a * a + (0.8 - a) * (1 + a), abs=1e-14)


def test_final_cdf_integral_power_matches_quadrature():
    h = OpponentFinalCdf([0.65, 0.4])
    for p in (1, 2, 3, 5):
        exact = h.integral_power(p)
        num, _ = quad(lambda u: h(u) ** p, 0.0, 1.0, epsabs=1e-13, epsrel=0.0)
        assert exact == pytest.approx(num, abs=1e-11)
    part = h.integral_power(3, 0.2, 0.9)
    num, _ = quad(lambda u: h(u) ** 3, 0.2, 0.9, epsabs=1e-13, epsrel=0.0)
    assert part == pytest.approx(num, abs=1e-11)


def test_final_cdf_inverse_roundtrip():
    h = OpponentFinalCdf([0.55, 0.3])
    for y in (0.05, 0.2, 0.5, 0.9):
        assert h(h.inverse(y)) == pytest.approx(y, abs=1e-12)


def test_final_cdf_rejects_bad_quantiles():
    with pytest.raises(InvalidParameterError):
        OpponentFinalCdf([1.0])
    with pytest.raises(InvalidParameterError):
        OpponentFinalCdf([-0.1])


def _numpy_cdf_nodes(a):
    """Reference nodes and values of h, built with numpy cumprod and unique."""
    reach = np.cumprod(np.concatenate(([1.0], a)))
    nodes = np.unique(np.concatenate(([0.0, 1.0], a)))
    ys = [0.0]
    for x0, x1 in zip(nodes[:-1], nodes[1:]):
        slope = reach[-1] + sum(reach[j] for j, aj in enumerate(a) if aj <= x0)
        ys.append(ys[-1] + slope * (x1 - x0))
    ys[-1] = 1.0
    return nodes, np.array(ys)


def _numpy_integral_power(xs, ys, p, lo=0.0, hi=1.0, ref=1.0):
    """Reference integral of (h/ref)^p: np.unique cuts, np.interp values."""
    if hi <= lo or ref <= 0.0:
        return 0.0
    cuts = np.unique(np.clip(np.concatenate((xs, [lo, hi])), lo, hi))
    total = 0.0
    for x0, x1 in zip(cuts[:-1], cuts[1:]):
        y0 = float(np.interp(x0, xs, ys)) / ref
        y1 = float(np.interp(x1, xs, ys)) / ref
        if y1 == y0:
            total += y0**p * (x1 - x0)
        else:
            total += (y1 ** (p + 1) - y0 ** (p + 1)) / (y1 - y0) * (x1 - x0) / (p + 1)
    return total


def test_final_cdf_bitwise_equal_to_numpy_reference():
    rng = np.random.default_rng(20260)
    for case in range(600):
        a = [float(x) for x in rng.random(int(rng.integers(1, 6)))]  # k up to 6
        if case % 3 == 0:
            a[int(rng.integers(len(a)))] = 0.0
        if case % 4 == 0 and len(a) > 1:
            a[-1] = a[0]  # a repeated quantile
        h = OpponentFinalCdf(a)
        xs, ys = _numpy_cdf_nodes(a)
        assert np.array_equal(h._xs, xs) and np.array_equal(h._ys, ys)
        nodes = [0.0, 1.0] + a
        p = int(rng.integers(1, 15))
        lo, hi = sorted(float(rng.choice(nodes)) if rng.random() < 0.5 else float(rng.random())
                        for _ in range(2))
        ref = float(rng.uniform(0.05, 2.0))
        for args in ((p,), (p, lo, hi), (p, lo, hi, ref), (p, 0.0, a[-1], ref)):
            got = h.integral_power(*args)
            assert type(got) is float
            assert got == _numpy_integral_power(xs, ys, *args), (a, args)


def _scalar_path_cases(rng):
    """Quantile lists with the edge cases the float path must keep: a zero
    quantile, a repeated one, subnormal gaps between nodes, one next to 1,
    and infinite slopes."""
    for case in range(400):
        a = [float(x) for x in rng.random(int(rng.integers(1, 6)))]
        kind = case % 5
        if kind == 1:
            a[int(rng.integers(len(a)))] = 0.0
        elif kind == 2 and len(a) > 1:
            a[-1] = a[0]
        elif kind == 3:  # nodes 0, 5e-324, 1e-310, ...: subnormal gaps and slopes
            a[0] = float(rng.choice([5e-324, 1e-320, 1e-310, 2.2e-308]))
            if len(a) > 1:
                a[1] = a[0] * 2.0
        elif kind == 4:
            a[0] = 1.0 - 2.0**-53
        yield a
    # 155 draws at 0.01 leave a subnormal reach: inverse slopes overflow to inf
    yield [0.01] * 155
    yield [0.3] + [0.01] * 155


def _probe_points(nodes, rng):
    """Every node and its float neighbours, 0 and 1, points inside and
    outside [0, 1], the infinities and NaN."""
    points = [0.0, -0.0, 1.0, -0.5, 1.5, -math.inf, math.inf, math.nan, 5e-324]
    for x in nodes:
        points += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
    return points + [float(x) for x in rng.random(8)]


def _steep_inverse(y, ys, xs):
    """Where y lies inside a segment whose inverse slope overflows, the mended
    inverse (y - y_j) / Δy * Δx + x_j; elsewhere None."""
    j = bisect.bisect_right(ys, y) - 1
    if 0 <= j < len(ys) - 1 and ys[j] < y < ys[j + 1] \
            and math.isinf((xs[j + 1] - xs[j]) / (ys[j + 1] - ys[j])):
        return (y - ys[j]) / (ys[j + 1] - ys[j]) * (xs[j + 1] - xs[j]) + xs[j]
    return None


def test_final_cdf_scalar_path_bitwise_equal_to_np_interp():
    rng = np.random.default_rng(20261019)
    steep = 0
    for a in _scalar_path_cases(rng):
        h = OpponentFinalCdf(a)
        xs, ys = np.array(h._xs), np.array(h._ys)
        for x in _probe_points(h._xs, rng):
            want = float(np.interp(x, xs, ys))
            got = h(x)
            assert type(got) is float and got.hex() == want.hex(), (a, x, got, want)
        # the inverse is clamped to [0, 1]; it is np.interp's except inside a
        # segment whose inverse slope overflows
        ps = _probe_points(h._ys, rng)
        wants = []
        for y in ps:
            mended = _steep_inverse(y, h._ys, h._xs)
            steep += mended is not None
            want = float(np.clip(np.interp(y, ys, xs) if mended is None else mended, 0.0, 1.0))
            got = h.inverse(y)
            assert type(got) is float and got.hex() == want.hex(), (a, y, got, want)
            wants.append(want)
        # h(u) arrays go through np.interp; inverse arrays through the float
        # path, element by element, in the input's shape: a numpy scalar or a
        # 0-d array gives a np.float64
        us = np.array(_probe_points(h._xs, rng))
        assert np.array_equal(h(us), np.interp(us, xs, ys), equal_nan=True)
        assert np.array_equal(h.inverse(np.array(ps)), wants, equal_nan=True)
        got = h.inverse(np.array(ps[:8]).reshape(2, 4))
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == (2, 4)
        assert [u.hex() for u in got.ravel().tolist()] == [u.hex() for u in wants[:8]]
        for y, want in zip(ps[:3], wants):
            for arg in (np.float64(y), np.array(y)):
                got = h.inverse(arg)
                assert type(got) is np.float64 and float(got).hex() == want.hex(), (a, y)
    assert steep > 0


def test_final_cdf_inverse_stays_in_unit_interval():
    # 155 rounds at 0.01 leave a subnormal reach; np.interp's inverse gives inf
    # here, and the mended one the true value 5e-313 / 0.01^155 = 0.005
    h = OpponentFinalCdf([0.01] * 155)
    assert math.isinf(float(np.interp(5e-313, h._ys, h._xs)))
    assert h.inverse(5e-313) == pytest.approx(0.005, rel=1e-9)
    assert h.inverse(np.array([5e-313, 0.5]))[0] == h.inverse(5e-313)
    # an in-range value keeps every bit, on the float path and the array path
    rng = np.random.default_rng(7)
    for a in ([0.3, 0.6], [0.01] * 155, list(rng.random(5))):
        h = OpponentFinalCdf(a)
        ys = [float(y) for y in rng.random(2000)] + h._ys + [-0.0, 0.0, 1.0]
        want = np.interp(ys, h._ys, h._xs)
        keep = (want >= 0.0) & (want <= 1.0)
        got = np.array([h.inverse(y) for y in ys])
        assert np.array_equal(np.signbit(got[keep]), np.signbit(want[keep]))
        assert np.array_equal(got[keep], want[keep])
        assert np.array_equal(h.inverse(np.array(ys))[keep], want[keep])
        assert ((got >= 0.0) & (got <= 1.0)).all()


def _reference_values(a, n, r):
    """V[j], the value of entering round j = 1..k (V[k] the forced draw), by
    backward induction with the public OpponentFinalCdf:
    V[k] = -r + int_0^1 h^p and V[j] = -r + a_j V[j+1] + int_{a_j}^1 h^p."""
    k, p = len(a) + 1, n - 1
    h = OpponentFinalCdf(a)
    v = [0.0] * (k + 1)
    v[k] = -r + h.integral_power(p)
    for j in range(k - 1, 0, -1):
        v[j] = -r + a[j - 1] * v[j + 1] + h.integral_power(p, a[j - 1], 1.0)
    return v, h


def test_best_response_bitwise_equal_to_public_cdf_reference():
    # the solver's kernel reads node lists; the reference builds the public
    # class and calls integral_power and inverse, one round at a time
    rng = np.random.default_rng(4127)
    cases = [[float(x) for x in rng.random(int(rng.integers(1, 6)))] for _ in range(2000)]
    cases += _scalar_path_cases(rng)
    for a in cases:
        j = int(rng.integers(1, len(a) + 1))
        n = int(rng.integers(2, 42))  # p = n - 1 from 1 to 40
        r = float(rng.uniform(0.0, 1.0 / n))
        v, h = _reference_values(a, n, r)
        want = h.inverse(max(v[j + 1], 0.0) ** (1.0 / (n - 1)))
        got = _best_response(a, j, n, r)
        assert type(got) is float and got.hex() == want.hex(), (a, j, n, r)


# ------------------------------------------------------------ two draws


def test_two_draw_zero_cost_two_players_golden_ratio():
    sol = solve_two_draw(2, 0.0)
    assert sol.exists
    assert sol.round_quantiles[0] == pytest.approx(GOLDEN, abs=1e-12)


def test_two_draw_reference_grid():
    for r, row in TWO_DRAW_TABLE.items():
        for n, expect in zip(range(2, 10), row):
            sol = solve_two_draw(n, r)
            if expect is None:
                assert not sol.exists, (r, n)
            else:
                assert sol.exists, (r, n)
                assert sol.round_quantiles[0] == pytest.approx(expect, abs=5e-4)


def test_two_draw_nonexistence_reports_unstable_root():
    sol = solve_two_draw(7, 0.10)
    assert not sol.exists
    assert sol.diagnostics.get("roots"), "interior roots should still be recorded"


def _two_draw_scan_outcome(n, r):
    """solve_two_draw's outcome as the array scan before the bisection gave
    it, as float hex, or the error raised: the residual on every grid point
    in one array, a root at every exact zero and a brentq polish of every
    sign change, the stability rule on each root, and the first stable root
    as the equilibrium."""
    grid = np.linspace(1e-9, 1.0 - 1e-9, 4001)
    vals = _two_draw_residual(grid, n, r)
    roots = []
    for i, v0 in enumerate(vals):
        if v0 == 0.0:
            roots.append(float(grid[i]))
        elif i + 1 < len(vals) and (v0 < 0.0 < vals[i + 1] or vals[i + 1] < 0.0 < v0):
            roots.append(float(brentq(_two_draw_residual, grid[i], grid[i + 1], args=(n, r),
                                      xtol=1e-15)))
    try:
        checks = [fh._two_draw_stable(a, n, r) for a in roots]
    except NumericFailureError as exc:
        return type(exc).__name__, str(exc)
    stable = [a for a, (ok, _) in zip(roots, checks) if ok]
    exists = n * r == 1.0 or (n * r < 1.0 and bool(stable))
    quantiles = () if not exists else (0.0,) if n * r == 1.0 else (stable[0],)
    return (exists, [a.hex() for a in quantiles], [a.hex() for a in roots],
            [f.hex() for _, f in checks])


def _two_draw_outcome(n, r):
    try:
        sol = solve_two_draw(n, r)
    except NumericFailureError as exc:
        return type(exc).__name__, str(exc)
    return (sol.exists, [a.hex() for a in sol.round_quantiles],
            [a.hex() for a in sol.diagnostics["roots"]],
            [f.hex() for f in sol.diagnostics["stability_factors"]])


def test_two_draw_roots_equal_scalar_scan():
    # reference: the grid scanned in one array, then one interval at a time
    rng = np.random.default_rng(31)
    cells = [(n, float(r)) for n in range(2, 16) for r in np.linspace(0.0, 1.0 / n, 30)]
    for _ in range(300):  # seeded cells up to N = 2,000, a fifth of them past N c/W = 1
        n = int(np.exp(rng.uniform(math.log(2), math.log(2000))))
        cells.append((n, float(rng.uniform(0.0, 1.25 / n))))
    cells += [(n, 0.0) for n in (2, 3, 17, 100, 999, 2000)]
    for n in (10**4, 10**6, 10**9):  # c/W = 0 at 10^9 is the probe refusal
        cells += [(n, r / n) for r in (0.0, 1e-6, 0.3, 0.9, 0.999999, 1.0, 1.5)]
    cells += [(n, 1.0 / n) for n in (7, 49, 1999)] + [(5, 1e100), (2000, 0.5)]
    # the c/W whose residual is exactly 0 at a grid point, the first and, at
    # N = 10^11, the last one too (its root's probe is refused)
    grid = np.linspace(1e-9, 1.0 - 1e-9, 4001)
    zeros = [(n, _two_draw_residual(float(grid[i]), n, 0.0))
             for n in (2, 7, 300, 10**6, 10**11) for i in (0, 1, 1000, 3000, 3999, 4000)]
    cells += [(n, r) for n, r in zeros if r >= 0.0]
    for n, r in cells:
        assert _two_draw_outcome(n, r) == _two_draw_scan_outcome(n, r), (n, r)
    assert any(n * r >= 1.0 for n, r in cells) and any(r == 0.0 for _, r in cells)


def test_two_draw_stability_near_zero_root():
    # the root lies closer to 0 than the finite-difference step, so the
    # stability check steps from 0, not below it; both routes agree
    n, r = 6, 1.0 / 6 - 1e-8
    sol = solve_two_draw(n, r)
    assert sol.diagnostics["roots"][0] < 1e-7 and not sol.exists
    assert not solve_k_draw(FiniteHorizonParams(n, r, 2)).exists


def test_two_draw_nonexistence_runs_no_attempt():
    # the closed-form scan decides k=2 existence, so a cell without an
    # equilibrium returns its verdict before any best-response or Newton start
    start = solve_k_draw(FiniteHorizonParams(6, 0.10, 2))
    assert start.exists
    sol = solve_k_draw(FiniteHorizonParams(8, 0.10, 2), init=start.round_quantiles)
    assert not sol.exists and sol.round_quantiles == ()
    assert "attempts" not in sol.diagnostics
    assert sol.diagnostics == solve_two_draw(8, 0.10).diagnostics


def test_two_draw_probe_past_one_is_refused(capsys):
    # the stability probe a + 1e-7 of a root within 1e-7 of 1 is no quantile:
    # the solver names N, c/W and the root rather than a quantile never given
    root = 0.9999999044308643
    message = (f"no two-draw stability verdict for N=100000000, c/W=0.0: the root {root!r} "
               "lies within the probe step 1e-7 of 1")
    with pytest.raises(NumericFailureError) as info:
        solve_two_draw(10**8, 0.0)
    assert str(info.value) == message and info.value.diagnostics == {"root": root}
    code = main("solve finite --n 100000000 --k 2 --cost-ratio 0".split())
    out, err = capsys.readouterr()
    # the message, then its diagnostics line, as every numeric failure prints
    assert (code, out, err) == (2, "", f"searchcontest: error: {message}\n"
                                       '{"root": 0.999999904430864}\n')


def test_draw_count_past_the_start_list_bound_is_refused():
    # k - 1 start values a list: 2**20 of them are admitted, one more is refused
    # when the parameters are made, before any list is built
    assert fh._MAX_ROUNDS == 2**20
    assert FiniteHorizonParams(3, 0.05, 2**20 + 1).n_draws == 2**20 + 1
    for k in (2**20 + 2, 10**20):
        with pytest.raises(InvalidParameterError, match="n_draws must be at most 1048577"):
            FiniteHorizonParams(3, 0.05, k)
        with pytest.raises(InvalidParameterError, match="n_draws must be at most 1048577"):
            threshold_profile(k, 0.05, [3])


def test_two_draw_shares_the_frontier_rule():
    # on N*c/W = 1 both solvers report first-draw acceptance; past it, nothing
    for n in range(2, 16):
        for r in (1.0 / n, 1.1 / n):
            closed = solve_two_draw(n, r)
            bi = solve_k_draw(FiniteHorizonParams(n, r, 2))
            assert (closed.round_quantiles, closed.exists) == (bi.round_quantiles, bi.exists)
            assert closed.round_quantiles == ((0.0,) if n * r == 1.0 else ()), (n, r)


def test_two_draw_matches_backward_induction():
    worst = 0.0
    for r in (0.0, 0.02, 0.05, 0.08, 0.10):
        for n in range(2, 10):
            closed = solve_two_draw(n, r)
            bi = solve_k_draw(FiniteHorizonParams(n, r, 2))
            assert closed.exists == bi.exists, (r, n)
            if closed.exists:
                worst = max(worst, abs(closed.round_quantiles[0] - bi.round_quantiles[0]))
    assert worst < 1e-9


def test_two_draw_zero_cost_thresholds_increase_in_n():
    vals = [solve_two_draw(n, 0.0).round_quantiles[0] for n in range(2, 21)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(GOLDEN, abs=1e-12)
    assert 0.90 < vals[-1] < 0.92


# ------------------------------------------------------------ k draws


def test_three_draw_reference_grid():
    for r, row in THREE_DRAW_TABLE.items():
        profile = threshold_profile(3, r, range(2, 10))
        for n, expect in zip(range(2, 10), row):
            got = profile.row(n)
            assert got.exists, (r, n)
            if (r, n) == ARTIFACT_CELL:
                assert got.round_quantiles[0] == pytest.approx(
                    HARD_CELLS[ARTIFACT_CELL][0], abs=1e-6
                )
            else:
                assert got.round_quantiles[0] == pytest.approx(expect, abs=5e-4)


@pytest.mark.xfail(
    strict=True,
    reason="the printed 3-decimal value at cost_ratio=0.10, N=9 cannot be "
    "reproduced: float64 cancellation noise creates a spurious root band "
    "there, and the verified root rounds to 0.101",
)
def test_three_draw_printed_artifact_cell():
    sol = solve_k_draw(FiniteHorizonParams(9, 0.10, 3))
    assert sol.exists
    assert sol.round_quantiles[0] == pytest.approx(0.107, abs=5e-4)


def test_k_draw_attempt_methods_pinned():
    # perfbench counts best-response sweeps and Newton iterations by these names
    sol = solve_k_draw(FiniteHorizonParams(9, 0.10, 3))
    assert [a["method"] for a in sol.diagnostics["attempts"]] == ["best_response", "newton"]


@pytest.mark.parametrize("cell,expect", sorted(HARD_CELLS.items()))
def test_three_draw_hard_cells_high_precision(cell, expect):
    r, n = cell
    sol = solve_k_draw(FiniteHorizonParams(n, r, 3))
    assert sol.exists
    assert sol.round_quantiles[0] == pytest.approx(expect[0], abs=1e-9)
    assert sol.round_quantiles[1] == pytest.approx(expect[1], abs=1e-9)


def test_k_draw_equilibrium_conditions_hold():
    # indifference at each interior round: stopping and continuing tie
    for n, r, k in ((3, 0.05, 3), (5, 0.02, 4), (2, 0.08, 5)):
        sol = solve_k_draw(FiniteHorizonParams(n, r, k))
        assert sol.exists
        a = sol.round_quantiles
        v, h = _reference_values(a, n, r)
        for j in range(1, k):
            assert h(a[j - 1]) ** (n - 1) == pytest.approx(max(v[j + 1], 0.0), abs=1e-9)
        assert v[1] >= -1e-12  # entering the game is worthwhile


def test_k_draw_cost_frontier():
    sol = solve_k_draw(FiniteHorizonParams(4, 0.3, 3))
    assert not sol.exists
    assert "frontier" in sol.diagnostics.get("reason", "")
    boundary = solve_k_draw(FiniteHorizonParams(4, 0.25, 3))
    assert boundary.exists
    assert all(q == 0.0 for q in boundary.round_quantiles)


def test_k_draw_respects_init_hint():
    hard = FiniteHorizonParams(8, 0.10, 3)
    sol = solve_k_draw(hard, init=HARD_CELLS[(0.10, 8)])
    assert sol.exists
    assert sol.round_quantiles[0] == pytest.approx(HARD_CELLS[(0.10, 8)][0], abs=1e-9)


@pytest.mark.parametrize("init", [
    [0.5],  # one quantile for a k=3 cell
    [0.7, 0.6, 0.5],  # three
    [0.7, float("nan")],
    [0.7, 1.0],
    [-0.1, 0.5],
])
def test_k_draw_rejects_init_of_wrong_shape(init):
    with pytest.raises(InvalidParameterError):
        solve_k_draw(FiniteHorizonParams(3, 0.05, 3), init=init)


def test_profile_peaks_and_frontier():
    p2 = threshold_profile(2, 0.10, range(2, 10))
    assert p2.peak_n == 5
    assert p2.frontier_n == 7
    assert not p2.row(8).exists
    p2b = threshold_profile(2, 0.05, range(2, 10))
    assert p2b.peak_n == 9 and p2b.frontier_n is None
    p3 = threshold_profile(3, 0.05, range(2, 10))
    assert p3.peak_n == 6
    p3b = threshold_profile(3, 0.10, range(2, 10))
    assert p3b.peak_n in (3, 4)
    tie_gap = abs(p3b.row(3).round_quantiles[0] - p3b.row(4).round_quantiles[0])
    assert tie_gap < 1e-3


def test_profiles_complete_quickly():
    t0 = time.time()
    threshold_profile(2, 0.10, range(2, 10))
    threshold_profile(3, 0.10, range(2, 10))
    assert time.time() - t0 < 30.0


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        FiniteHorizonParams(1, 0.1, 2)
    with pytest.raises(InvalidParameterError):
        FiniteHorizonParams(2, -0.1, 2)
    with pytest.raises(InvalidParameterError):
        FiniteHorizonParams(2, 0.1, 1)


def test_k_draw_overflow_cell_fails_cleanly():
    # the scaled ratios of this cell exceed the float range on the way;
    # the solver must end in its own error, with no float warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SearchContestError):
            solve_k_draw(FiniteHorizonParams(15, 0.06539, 4))


@settings(max_examples=25)
@given(
    n=st.integers(2, 6),
    r=st.floats(0.0, 0.12),
    k=st.integers(2, 4),
)
def test_k_draw_invariants_random(n, r, k):
    sol = solve_k_draw(FiniteHorizonParams(n, r, k))
    if n * r > 1.0:
        assert not sol.exists
        return
    if sol.exists:
        qs = sol.round_quantiles
        assert len(qs) == k - 1
        assert all(0.0 <= q < 1.0 for q in qs)
        if r == 0.0:
            assert all(q > 0.0 for q in qs)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 15),
    frac=st.floats(0.0, 1.0, exclude_max=True),
    k=st.integers(3, 6),
)
def test_k_draw_total_on_box(n, frac, k):
    # every cell with 0 <= c/W < 1/N either solves or ends in the package's
    # own error, with no float warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sol = solve_k_draw(FiniteHorizonParams(n, frac / n, k))
        except SearchContestError:
            return
    assert len(sol.round_quantiles) == (k - 1 if sol.exists else 0)


# solve_k_draw outcomes pinned as canonical JSON, diagnostics and attempts
# included; JSON rather than repr, so a residual's float type may change
KDRAW_FROZEN_CALLS = {
    "interior_k3": lambda: solve_k_draw(FiniteHorizonParams(3, 0.05, 3)),
    "interior_k4": lambda: solve_k_draw(FiniteHorizonParams(5, 0.02, 4)),
    "interior_k5": lambda: solve_k_draw(FiniteHorizonParams(2, 0.08, 5)),
    "interior_k6": lambda: solve_k_draw(FiniteHorizonParams(4, 0.03, 6)),
    "best_response_from_init_k3": lambda: solve_k_draw(FiniteHorizonParams(3, 0.05, 3),
                                                       init=(0.7, 0.65)),
    "best_response_from_init_k2": lambda: solve_k_draw(FiniteHorizonParams(5, 0.05, 2),
                                                       init=(0.6,)),
    "two_draw_interior": lambda: solve_k_draw(FiniteHorizonParams(5, 0.05, 2)),
    "two_draw_unstable_root": lambda: solve_k_draw(FiniteHorizonParams(8, 0.10, 2)),
    # a box cell that Newton solves from its 7th start
    "newton_late_start": lambda: solve_k_draw(FiniteHorizonParams(4, 0.2136122336848066, 6)),
    "frontier": lambda: solve_k_draw(FiniteHorizonParams(4, 0.3, 3)),
    "degenerate_frontier": lambda: solve_k_draw(FiniteHorizonParams(4, 0.25, 3)),
    # explore's overflow cell, which ends in NumericFailureError
    "overflow_cell": lambda: solve_k_draw(FiniteHorizonParams(15, 0.06539, 4)),
    "profile_k3": lambda: threshold_profile(3, 0.1, range(2, 10)),
}
_KDRAW_FROZEN = json.loads(Path(__file__).with_name("finite_frozen_outcomes.json").read_text())


def _kdraw_outcome(call):
    try:
        return canonical(call())  # a result's diagnostics are one of its fields
    except NumericFailureError as exc:
        return {"error": type(exc).__name__, "message": str(exc),
                "diagnostics": canonical(exc.diagnostics)}


@pytest.mark.parametrize("name", list(KDRAW_FROZEN_CALLS))
def test_k_draw_outcomes_frozen(name):
    assert to_json(_kdraw_outcome(KDRAW_FROZEN_CALLS[name])) == json.dumps(
        _KDRAW_FROZEN[name], sort_keys=True, indent=2)


def _box_cells():
    """A seeded box of (N, c/W, k) cells with 0 <= c/W < 1/N."""
    rng = np.random.default_rng(4099)
    for _ in range(140):
        k, n = int(rng.integers(2, 7)), int(rng.integers(2, 41))
        yield n, float(rng.uniform(0.0, 1.0 / n)), k


def test_k_draw_box_outcomes_digest():
    # every outcome of the box as canonical JSON, diagnostics, attempts and the
    # NumericFailureError payloads included, hashed in cell order
    digest = hashlib.sha256()
    failures = 0
    for n, r, k in _box_cells():
        outcome = _kdraw_outcome(lambda: solve_k_draw(FiniteHorizonParams(n, r, k)))
        failures += "error" in outcome
        digest.update(to_json(outcome).encode())
    assert failures == 12
    assert digest.hexdigest() == "7d8df96d469a0822650bbb962ca813f01d8d163fee6e0dd4649240d98f75d884"


# ------------------------------------------------- best-response replay


def _parent_run_best_response(
    a0: Sequence[float], n: int, r: float
) -> tuple[list[float] | None, int, float]:
    a = [float(x) for x in a0]
    resid = math.inf
    best = math.inf
    stall = 0
    for it in range(_BR_MAX_ITER):
        a, resid = _best_response_sweep(a, n, r)
        if resid < _BR_TOL:
            return a, it + 1, resid
        # bail out early when the iteration stops contracting (unstable cell)
        if resid < 0.999 * best:
            best, stall = resid, 0
        else:
            stall += 1
            if stall > 200:
                return None, it + 1, resid
    return None, _BR_MAX_ITER, resid


# the loop without replay, word for word, as the replay's oracle; run in
# finite_horizon's namespace, so it calls the same (perhaps monkeypatched) sweep
_oracle = types.FunctionType(_parent_run_best_response.__code__, vars(fh))

# perfbench explore's k-draw cells, (k, N, c/W); the last ends in NumericFailureError
EXPLORE_KDRAW_CELLS = [
    (4, 3, 0.03), (4, 5, 0.06), (5, 5, 0.03), (5, 12, 0.0), (6, 2, 0.06), (6, 8, 0.0),
    (4, 8, 0.06), (4, 14, 0.06), (4, 15, 0.06539),
]
# the finite_k3 cells whose two best-response attempts both end in an exact cycle
FRONTIER_K3_CELLS = [(9, 0.05), (6, 0.1), (7, 0.1), (8, 0.1), (9, 0.1)]


def _bits(result):
    solution, iterations, resid = result
    return (None if solution is None else [x.hex() for x in solution], iterations, resid.hex())


def _best_response_attempts(monkeypatch, solve):
    """(start, N, c/W, result, sweeps computed) of each best-response attempt
    solve() makes; the monkeypatches are undone before it returns."""
    attempts, sweeps = [], [0]
    real_sweep, real_run = fh._best_response_sweep, fh._run_best_response

    def sweep(a, n, r):
        sweeps[0] += 1
        return real_sweep(a, n, r)

    def run(a0, n, r):
        before = sweeps[0]
        result = real_run(a0, n, r)
        attempts.append(([float(x) for x in a0], n, r, result, sweeps[0] - before))
        return result

    monkeypatch.setattr(fh, "_best_response_sweep", sweep)
    monkeypatch.setattr(fh, "_run_best_response", run)
    try:
        solve()
    except SearchContestError:
        pass
    monkeypatch.undo()
    return attempts


@pytest.mark.parametrize("k", [2, 3])
def test_best_response_replay_equals_parent_loop_on_tables(monkeypatch, k):
    # threshold_profile's starts on every cell of the golden finite_k{2,3} tables
    frontier = []
    for r in (0.0, 0.05, 0.10):
        attempts = _best_response_attempts(
            monkeypatch, lambda: threshold_profile(k, r, range(2, 10)))
        assert {n for _, n, _, _, _ in attempts} >= set(range(2, 7 if k == 2 else 10))
        for a0, n, _, result, computed in attempts:
            assert _bits(result) == _bits(_oracle(a0, n, r)), (n, r, a0)
            if k == 3 and (n, r) in FRONTIER_K3_CELLS:
                frontier.append((n, r, result, computed))
    # both attempts of a frontier cell cycle: a replayed sweep is counted, not computed
    assert len(frontier) == (10 if k == 3 else 0)
    for n, r, result, computed in frontier:
        assert result[0] is None and computed < result[1], (n, r, computed, result[1])


@pytest.mark.parametrize("cell", EXPLORE_KDRAW_CELLS, ids=str)
def test_best_response_replay_equals_parent_loop_on_explore_cells(monkeypatch, cell):
    k, n, r = cell
    attempts = _best_response_attempts(
        monkeypatch, lambda: solve_k_draw(FiniteHorizonParams(n, r, k)))
    assert attempts
    for a0, _, _, result, _ in attempts:
        assert _bits(result) == _bits(_oracle(a0, n, r))


def test_best_response_replay_equals_parent_loop_on_box_starts():
    rng = np.random.default_rng(29)
    for n, r, k in _box_cells():
        a0 = rng.uniform(0.01, 0.99, k - 1)
        assert _bits(fh._run_best_response(a0, n, r)) == _bits(_oracle(a0, n, r)), (n, r, k)


def _synthetic_sweep(monkeypatch, table):
    """Patch the sweep to step by table(state) -> (state, resid); returns the
    list of states it was asked to compute."""
    computed = []

    def sweep(a, n, r):
        computed.append(a)
        nxt, resid = table(a)
        return list(nxt), resid

    monkeypatch.setattr(fh, "_best_response_sweep", sweep)
    return computed


def _replay_and_oracle(monkeypatch, table, a0):
    """Both loops' results on the synthetic sweep, and the states the replay computed."""
    computed = _synthetic_sweep(monkeypatch, table)
    got = fh._run_best_response(a0, 3, 0.05)
    by_replay = len(computed)
    assert _bits(got) == _bits(_oracle(a0, 3, 0.05))
    return got, computed[:by_replay]


def test_best_response_replay_of_a_clamped_fixed_point(monkeypatch):
    # a period-1 cycle held at the clamp 1 - 1e-12, whose residual stays 0.25
    top = 1.0 - 1e-12
    got, computed = _replay_and_oracle(
        monkeypatch, lambda a: ([min(a[0] + 0.5, top)], 0.25), [0.6])
    assert got == (None, 202, 0.25)
    assert computed == [[0.6], [top]]


def test_best_response_replay_stops_at_the_iteration_limit(monkeypatch):
    # the best residual falls 0.2% a sweep for 9,951 sweeps, then a 3-cycle
    # begins: its stall run would end past _BR_MAX_ITER, which stops it first
    def table(a):
        i = int(a[0])
        nxt = i + 1 if i < 9950 else 9950 + (i - 9950 + 1) % 3
        return [float(nxt)], 0.998 ** min(i, 9950)

    got, computed = _replay_and_oracle(monkeypatch, table, [0.0])
    assert got == (None, fh._BR_MAX_ITER, 0.998 ** 9950)
    # states 0..9952, then 9950 once more: the map was cleared after its first sweep
    assert len(computed) == 9954 and computed[-1] == [9950.0]


def test_best_response_replay_forgets_states_while_best_falls(monkeypatch):
    # s1 -> s2 -> s1 lowers the best residual on its first pass, which clears
    # the map: s1 and s2 are computed a second time, then replayed
    steps = {0.0: (1.0, 1.0), 1.0: (2.0, 0.5), 2.0: (1.0, 0.25)}
    got, computed = _replay_and_oracle(
        monkeypatch, lambda a: ([steps[a[0]][0]], steps[a[0]][1]), [0.0])
    assert got == (None, 204, 0.5)
    assert computed == [[0.0], [1.0], [2.0], [1.0], [2.0]]


def test_best_response_replay_keeps_the_sign_of_zero(monkeypatch):
    # -0.0 and 0.0 compare equal but are different states: were they one key,
    # 0.0 would replay -0.0's step and stall rather than converge
    steps = {(-0.0).hex(): ([0.0], 1.0), (0.0).hex(): ([0.25], 0.0), (0.5).hex(): ([-0.0], 1.0)}
    got, computed = _replay_and_oracle(monkeypatch, lambda a: steps[a[0].hex()], [0.5])
    assert _bits(got) == ([(0.25).hex()], 3, (0.0).hex())
    assert [x[0].hex() for x in computed] == [(0.5).hex(), (-0.0).hex(), (0.0).hex()]


def test_best_response_replay_of_a_nan_state(monkeypatch):
    # a NaN state matches its own bytes, not by ==, which no NaN passes, nor
    # by identity: each step makes a new NaN. It is computed once, then replayed
    got, computed = _replay_and_oracle(
        monkeypatch, lambda a: ([float("nan")], 1.0 if a[0] == 0.5 else math.nan), [0.5])
    assert got[0] is None and got[1] == 202 and math.isnan(got[2])
    assert len(computed) == 2


# ------------------------------------------------- parent kernel oracle


def _parent_cdf_nodes(a: Sequence[float]) -> tuple[list[float], list[float]]:
    """The nodes xs of h and its values ys there, for quantiles a that are
    floats; a quantile outside [0, 1) is refused, as OpponentFinalCdf does."""
    reach = [1.0]  # prob of surviving to round j
    for v in a:
        if not 0.0 <= v < 1.0:  # NaN fails too
            raise InvalidParameterError(f"round quantiles must lie in [0, 1): {a!r}")
        reach.append(reach[-1] * v)
    xs = sorted({0.0, 1.0, *a})
    ys = [0.0]
    for x0, x1 in zip(xs[:-1], xs[1:]):
        slope = 0.0  # summed in j order, left to right
        for aj, rj in zip(a, reach):
            if aj <= x0:
                slope += rj
        ys.append(ys[-1] + (reach[-1] + slope) * (x1 - x0))
    ys[-1] = 1.0  # exact by construction; pin against rounding
    return xs, ys


def _parent_best_response(a: Sequence[float], j: int, n: int, r: float) -> float:
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
    v = -r + _sum(terms)
    for i in range(len(a) - 1, j - 1, -1):
        v = -r + a[i] * v + _sum(terms[bisect.bisect_left(xs, a[i]):])
    return _inverse(max(v, 0.0) ** (1.0 / p), xs, ys)


def _parent_best_response_sweep(a: list[float], n: int, r: float) -> tuple[list[float], float]:
    """One damped Gauss-Seidel sweep over rounds k-1..1; returns sup residual."""
    a = a.copy()
    resid = 0.0
    for j in range(len(a), 0, -1):
        b = _best_response(a, j, n, r)
        resid = max(resid, abs(b - a[j - 1]))
        a[j - 1] = min(max(a[j - 1] + _DAMPING * (b - a[j - 1]), 0.0), 1.0 - 1e-12)
    return a, resid


# the three kernel functions before the leaner loop, word for word, as its
# oracle: run in a copy of finite_horizon's namespace in which they call each
# other, the module's own _segment_integrals and _inverse, and as _sum the
# same left-to-right sum, _sum_left
_PARENT = dict(vars(fh), _sum=fh._sum_left)
for _f in (_parent_cdf_nodes, _parent_best_response, _parent_best_response_sweep):
    _PARENT[_f.__name__[len("_parent"):]] = types.FunctionType(_f.__code__, _PARENT)


def _kernel_bits(kernel, a, n, r):
    """Nodes, values, every round's best response and the sweep of one state,
    as float.hex, or the error raised, from kernel (a namespace's functions)."""
    def run(f, *args):
        try:
            out = f(*args)
        except InvalidParameterError as exc:
            return "refused", str(exc)
        return [x.hex() if type(x) is float else [y.hex() for y in x]
                for x in (out if type(out) is tuple else (out,))]
    return (run(kernel["_cdf_nodes"], a),
            [run(kernel["_best_response"], a, j, n, r) for j in range(1, len(a) + 1)],
            run(kernel["_best_response_sweep"], list(a), n, r))


def _seeded_kernel_states():
    """(a, N, c/W) with k - 1 from 1 to 6: uniform quantiles mixed with 0.0,
    -0.0, repeated quantiles, subnormals and 1 - 1e-12; c/W in [0, 1/N) and
    a few off the solver's domain (NaN, the infinities, -0.0)."""
    rng = np.random.default_rng(30)
    edges = [0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1.0 - 1e-12, 0.5]
    for case in range(3000):
        m = case % 6 + 1
        a = [float(x) for x in rng.random(m)]
        for i in range(m):
            if rng.random() < 0.25:
                a[i] = edges[int(rng.integers(len(edges)))]
        if m > 1 and rng.random() < 0.3:
            a[int(rng.integers(1, m))] = a[0]
        n = int(rng.integers(2, 61))
        r = float(rng.uniform(0.0, 1.0 / n)) if case % 10 else \
            [0.0, -0.0, math.nan, math.inf, -math.inf][case // 10 % 5]
        yield a, n, r


def test_kernel_equals_parent_on_seeded_states():
    kernel = vars(fh)
    refused = 0
    for a, n, r in _seeded_kernel_states():
        got = _kernel_bits(kernel, a, n, r)
        assert got == _kernel_bits(_PARENT, a, n, r), (a, n, r)
        refused += got[2][0] == "refused"  # a NaN quantile met in the sweep's next round
    assert refused > 0


def _computed_sweeps(monkeypatch, solve):
    """(state, N, c/W) of every sweep solve() computes."""
    sweeps = []
    real = fh._best_response_sweep

    def sweep(a, n, r):
        sweeps.append((list(a), n, r))
        return real(a, n, r)

    monkeypatch.setattr(fh, "_best_response_sweep", sweep)
    try:
        solve()
    except SearchContestError:
        pass
    monkeypatch.undo()
    return sweeps


@pytest.mark.parametrize("k", [2, 3])
def test_kernel_equals_parent_on_table_sweeps(monkeypatch, k):
    # every sweep computed for the golden finite_k{2,3} tables
    sweeps = []
    for r in (0.0, 0.05, 0.10):
        sweeps += _computed_sweeps(monkeypatch, lambda: threshold_profile(k, r, range(2, 10)))
    assert len(sweeps) > 500
    for a, n, r in sweeps:
        assert _kernel_bits(vars(fh), a, n, r) == _kernel_bits(_PARENT, a, n, r), (a, n, r)


@pytest.mark.parametrize("cell", EXPLORE_KDRAW_CELLS, ids=str)
def test_kernel_equals_parent_on_explore_sweeps(monkeypatch, cell):
    k, n, r = cell
    sweeps = _computed_sweeps(monkeypatch, lambda: solve_k_draw(FiniteHorizonParams(n, r, k)))
    assert sweeps
    for a, _, _ in sweeps:
        assert _kernel_bits(vars(fh), a, n, r) == _kernel_bits(_PARENT, a, n, r), (a, n, r)


# ------------------------------------------------------ lazy two-draw seed


def _events(monkeypatch):
    """A log of the best-response attempts and two-draw scans made, in order."""
    log = []
    real_run, real_two = fh._run_best_response, fh.solve_two_draw

    def run(a0, n, r):
        log.append("best_response")
        return real_run(a0, n, r)

    def two(n, r):
        log.append("two_draw")
        return real_two(n, r)

    monkeypatch.setattr(fh, "_run_best_response", run)
    monkeypatch.setattr(fh, "solve_two_draw", two)
    return log


def test_converged_start_runs_no_two_draw_scan(monkeypatch):
    log = _events(monkeypatch)
    sol = solve_k_draw(FiniteHorizonParams(3, 0.05, 3), init=(0.7, 0.65))
    assert sol.exists and log == ["best_response"]
    # with k=2 the scan still decides existence before any attempt
    log.clear()
    assert solve_k_draw(FiniteHorizonParams(5, 0.05, 2), init=(0.6,)).exists
    assert log == ["two_draw", "best_response"]


def test_failed_start_keeps_the_parent_attempts(monkeypatch):
    # finite_k3's N=9, c/W=0.05 cell from the N=8 root, threshold_profile's
    # start: best response cycles from both starts, Newton from the first
    init = (float.fromhex("0x1.8dc518e9c5517p-1"), float.fromhex("0x1.815d7cf24a6d7p-1"))
    log = _events(monkeypatch)
    sol = solve_k_draw(FiniteHorizonParams(9, 0.05, 3), init=init)
    assert log == ["best_response", "two_draw", "best_response"]
    assert [(a["method"], a["iterations"], a["residual"].hex())
            for a in sol.diagnostics["attempts"]] == [
        ("best_response", 211, "0x1.7f09ec0b1fb88p-1"),
        ("best_response", 211, "0x1.7f09ec0b1fb88p-1"),
        ("newton", 4, "0x1.f800000000000p-50"),
    ]
    assert [x.hex() for x in sol.round_quantiles] == ["0x1.6e127ce769d22p-1",
                                                      "0x1.64f5f9b0824e7p-1"]


def test_profile_outcomes_and_attempts_digest(monkeypatch):
    # threshold_profile for k = 3..6 and c/W in {0, 0.03, 0.06, 0.1} at N = 2..30:
    # every cell's outcome with its attempts, or its NumericFailureError payload,
    # and the profile, hashed in order; the digest was taken before the two-draw
    # scan became lazy
    real = fh.solve_k_draw
    digest, cells = hashlib.sha256(), []

    def solve(params, init=None):
        try:
            eq = real(params, init)
        except NumericFailureError as exc:
            cells.append({"error": str(exc), "diagnostics": canonical(exc.diagnostics)})
            raise
        cells.append(canonical(eq))
        return eq

    monkeypatch.setattr(fh, "solve_k_draw", solve)
    for k in range(3, 7):
        for r in (0.0, 0.03, 0.06, 0.1):
            try:
                profile = canonical(threshold_profile(k, r, range(2, 31)))
            except NumericFailureError as exc:
                profile = {"error": str(exc)}
            digest.update(to_json({"k": k, "r": r, "cells": cells, "profile": profile}).encode())
            cells.clear()
    assert digest.hexdigest() == "b8cc6712e54db1b8247f12e633584dabdd83df9e5633b6b7371da93406c45002"


# ------------------------------------------------------- Newton on floats


def _parent_segment_integrals(
    xs: list[float], ys: list[float], p: float, ref: float
) -> list[float]:
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


def _parent_scaled_residuals(a: np.ndarray, n: int, r: float) -> np.ndarray:
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
        out[j] = ratio - a[j + 1] - tail + _sum_left(
            _segment_integrals(xs[:i + 1], ys[:i + 1], p, hj1))
    out[k - 2] = h_last ** p + r - _sum_left(_segment_integrals(xs, ys, p, 1.0))
    return out


def _parent_newton_polish(
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


def _parent_newton(**names):
    """The Newton stage before it moved onto floats, word for word: the three
    functions above run in a copy of finite_horizon's namespace in which they
    call each other, with names (a synthetic _scaled_residuals, say) replaced."""
    ns = dict(vars(fh), **names)
    for f in (_parent_segment_integrals, _parent_scaled_residuals, _parent_newton_polish):
        name = f.__name__[len("_parent"):]
        if name not in names:
            ns[name] = types.FunctionType(f.__code__, ns)
    return ns


_PARENT_NEWTON = _parent_newton()


def _hexes(values):
    return None if values is None else [float(v).hex() for v in values]


def _result_bits(out):
    return (*_bits(out), type(out[2]).__name__)  # the norm must be a builtin float


def _polish_bits(polish, a0, n, r):
    """(solution, iterations, norm) of polish(a0, n, r) as float.hex, or the
    package error it raised."""
    try:
        return _result_bits(polish(a0, n, r))
    except SearchContestError as exc:
        return type(exc).__name__, str(exc)


def _residual_bits(residuals, a, n, r):
    try:
        return _hexes(residuals(a, n, r))
    except SearchContestError as exc:
        return type(exc).__name__, str(exc)


def _polish_calls(monkeypatch, solve):
    """(start, N, c/W, result bits) of every _newton_polish call solve()
    makes, and (point, N, c/W) of every read of the scaled system."""
    calls, points = [], []
    real_polish, real_residuals = fh._newton_polish, fh._scaled_residuals

    def polish(a0, n, r):
        out = real_polish(a0, n, r)
        calls.append(([float(x) for x in a0], n, r, _result_bits(out)))
        return out

    def residuals(a, n, r):
        points.append((list(a), n, r))
        return real_residuals(a, n, r)

    monkeypatch.setattr(fh, "_newton_polish", polish)
    monkeypatch.setattr(fh, "_scaled_residuals", residuals)
    try:
        solve()
    except SearchContestError:
        pass
    monkeypatch.undo()
    return calls, points


def _assert_newton_equals_parent(calls, points):
    parent = _PARENT_NEWTON
    for a0, n, r, bits in calls:
        assert bits == _polish_bits(parent["_newton_polish"], a0, n, r), (a0, n, r)
    for a, n, r in points:
        assert (_residual_bits(fh._scaled_residuals, a, n, r)
                == _residual_bits(parent["_scaled_residuals"], a, n, r)), (a, n, r)


@pytest.mark.parametrize("k", [2, 3])
def test_newton_equals_parent_on_table_cells(monkeypatch, k):
    # every polish and every read of the scaled system for the golden
    # finite_k{2,3} tables' 24 cells each
    calls, points = [], []
    for r in (0.0, 0.05, 0.10):
        c, p = _polish_calls(monkeypatch, lambda: threshold_profile(k, r, range(2, 10)))
        calls += c
        points += p
    assert len(calls) > 20 and points
    _assert_newton_equals_parent(calls, points)


def test_newton_equals_parent_on_box(monkeypatch):
    # every polish of the box's cells, failing Newton attempts included
    calls = []
    for n, r, k in _box_cells():
        calls += _polish_calls(monkeypatch, lambda: solve_k_draw(FiniteHorizonParams(n, r, k)))[0]
    assert len(calls) > 140
    _assert_newton_equals_parent(calls, [])


# starts and states off the solver's path: both clip edges and the floats
# just inside and outside them, 0.0 and -0.0 (where h is 0, so the scaled
# system saturates at 1e3), subnormals, 1 - 1e-12 and NaN
_NEWTON_EDGES = [0.0, -0.0, 5e-324, 1e-10, 1e-9, math.nextafter(1e-9, 0.0),
                 1.0 - 1e-9, math.nextafter(1.0 - 1e-9, 1.0), 1.0 - 1e-12, math.nan]


def _seeded_newton_states(cases, seed):
    """(a, N, c/W) with k - 1 from 1 to 5: uniform quantiles, a quarter of
    them replaced by an edge, N from 2 to 40 and c/W in [0, 1/N)."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        m = case % 5 + 1
        a = [float(x) for x in rng.random(m)]
        for i in range(m):
            if rng.random() < 0.25:
                a[i] = _NEWTON_EDGES[int(rng.integers(len(_NEWTON_EDGES)))]
        n = int(rng.integers(2, 41))
        yield a, n, float(rng.uniform(0.0, 1.0 / n))


def test_newton_equals_parent_from_random_starts():
    outcomes = set()
    for a0, n, r in _seeded_newton_states(150, 32):
        bits = _polish_bits(fh._newton_polish, a0, n, r)
        assert bits == _polish_bits(_PARENT_NEWTON["_newton_polish"], a0, n, r), (a0, n, r)
        outcomes.add("refused" if len(bits) == 2 else "failed" if bits[0] is None else "solved")
    assert outcomes == {"refused", "failed", "solved"}


def test_newton_scaled_residuals_equal_parent_on_random_states():
    saturated = 0
    for a, n, r in _seeded_newton_states(3000, 33):
        bits = _residual_bits(fh._scaled_residuals, a, n, r)
        assert bits == _residual_bits(_PARENT_NEWTON["_scaled_residuals"], a, n, r), (a, n, r)
        saturated += (1e3).hex() in bits
    assert saturated > 0


def test_newton_sup_norm_and_clip_equal_numpy():
    rng = np.random.default_rng(34)
    edges = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-9, 1.0 - 1e-9, 5e-324, -1.0]
    for case in range(2000):
        v = [float(x) for x in rng.normal(size=case % 6 + 1)]
        for i in range(len(v)):
            if rng.random() < 0.3:
                v[i] = edges[int(rng.integers(len(edges)))]
        assert fh._sup_norm(v).hex() == float(np.max(np.abs(v))).hex(), v
        assert _hexes(fh._clip(v)) == _hexes(np.clip(v, 1e-9, 1.0 - 1e-9)), v


def _nan_step(a, n, r):
    # a jump of 1e308 at the start (0.3, 0.4) gives the Jacobian two infinite
    # entries in one row, and elimination makes the step NaN
    return [(1e308 if a[0] > 0.3 else 0.0) + (1e308 if a[1] > 0.4 else 0.0), a[0] + a[1] - 1.0]


# synthetic scaled systems, (system, start), each run through both stages
_SYNTHETIC_SYSTEMS = {
    # no column moves: np.linalg.solve raises LinAlgError
    "singular": (lambda a, n, r: [0.5] * len(a), [0.3, 0.6]),
    "nan_step": (_nan_step, [0.3, 0.4]),
    # a NaN after a finite component: the norm is NaN, not the finite one
    "nan_component": (lambda a, n, r: [a[0] - 0.3, math.nan], [0.5, 0.5]),
    # saturated at 1e3 left of 0.2, as the scaled system is where h is 0; it
    # runs into the 200-iteration limit
    "saturated": (lambda a, n, r: [1e3 if a[0] < 0.2 else a[0] - 0.3, a[1] - a[0]],
                  [math.nextafter(0.2, 1.0), 0.7]),
    # |x - 0.45| with a small slope: no halving of the step lowers the norm
    "backtracking_exhausted": (
        lambda a, n, r: [1.0 + 1e3 * abs(a[0] - 0.45) + 1e-3 * (a[0] - 0.45)], [0.45]),
    "backtracking_exhausted_near_root": (
        lambda a, n, r: [1e-10 + 1e3 * abs(a[0] - 0.45) + 1e-3 * (a[0] - 0.45)], [0.45]),
    # a root past the upper clip edge: the steps stop at 1 - 1e-9
    "root_past_the_edge": (lambda a, n, r: [a[0] ** 3 - 1.5, a[1] - a[0] * a[0]], [0.5, 0.2]),
    "converging": (lambda a, n, r: [a[0] ** 3 - 0.1, a[1] - a[0] * a[0], a[2] + a[1] - 0.9],
                   [0.9, 0.1, 0.5]),
}


@pytest.mark.parametrize("name", list(_SYNTHETIC_SYSTEMS))
def test_newton_equals_parent_on_synthetic_systems(monkeypatch, name):
    system, a0 = _SYNTHETIC_SYSTEMS[name]
    parent = _parent_newton(_scaled_residuals=lambda a, n, r: np.array(system(list(a), n, r)))
    monkeypatch.setattr(fh, "_scaled_residuals", system)
    assert (_polish_bits(fh._newton_polish, a0, 3, 0.0)
            == _polish_bits(parent["_newton_polish"], a0, 3, 0.0))
