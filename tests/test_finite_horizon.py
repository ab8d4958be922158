"""Finite-horizon equilibria: closed form, backward induction, sweeps."""
import bisect
import hashlib
import json
import math
import time
import warnings
from pathlib import Path

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
from searchcontest.cli import main
from searchcontest.finite_horizon import _best_response, _two_draw_residual
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
            for got in (h(x), h._value(x)):
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
        # arrays still go through np.interp, element by element
        us = np.array(_probe_points(h._xs, rng))
        assert np.array_equal(h(us), np.interp(us, xs, ys), equal_nan=True)
        assert np.array_equal(h.inverse(np.array(ps)), wants, equal_nan=True)
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


def test_two_draw_roots_equal_scalar_scan():
    # reference: the grid scanned one interval at a time
    grid = np.linspace(1e-9, 1.0 - 1e-9, 4001)
    for n in range(2, 16):
        for r in np.linspace(0.0, 1.0 / n, 30):
            r = float(r)
            vals = _two_draw_residual(grid, n, r)
            roots = []
            for x0, x1, v0, v1 in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
                if v0 == 0.0:
                    roots.append(float(x0))
                elif v0 * v1 < 0:
                    roots.append(float(brentq(_two_draw_residual, x0, x1, args=(n, r),
                                              xtol=1e-15)))
            assert solve_two_draw(n, r).diagnostics["roots"] == roots, (n, r)


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
    # the solver refuses it rather than read h past its last node
    message = "round quantiles must lie in [0, 1): (1.0000000044308643,)"
    with pytest.raises(InvalidParameterError) as info:
        solve_two_draw(10**8, 0.0)
    assert str(info.value) == message
    code = main("solve finite --n 100000000 --k 2 --cost-ratio 0".split())
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"searchcontest: error: {message}\n")


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
