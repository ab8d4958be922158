"""The ports of scipy's brentq, QUADPACK qagse and gammaln return
scipy's bits: root, value and error estimates by float hex, and every count
and flag. The designer integral, run by qagse from its kink, returns the bits
of scipy's break-point route (dqagpe) over [0, 1]. scipy is the oracle here;
the package does not import it."""
import math

import numpy as np
import pytest
from scipy.integrate import _quadpack
from scipy.optimize import brentq as scipy_brentq
from scipy.special import gammaln

from searchcontest import (
    ContestParams,
    DesignerParams,
    NumericFailureError,
    from_quantile_grid,
    make_exponential,
    make_pareto,
    make_uniform,
    solve_asymmetric,
    solve_planner,
    solve_two_draw,
    verify_designer_foc,
)
from searchcontest import _numerics, equilibrium, hierarchy, planner
from searchcontest.planner import efficient_prize_integral


def _scipy_brentq(f, a, b, xtol, maxiter=100, args=()):
    try:
        root, info = scipy_brentq(f, a, b, args=args, xtol=xtol, maxiter=maxiter,
                                  full_output=True, disp=False)
    except ValueError as ex:
        return str(ex)
    # a root at an end returns before the first iteration, and scipy leaves
    # the iteration count unset there; the port reports 0
    at_end = root in (a, b) and info.function_calls == 2 and f(root, *args) == 0
    return root.hex(), 0 if at_end else info.iterations, info.function_calls, info.converged


def _port_brentq(f, a, b, xtol, maxiter=100, args=()):
    try:
        root, iterations, calls, converged = _numerics.brentq(f, a, b, xtol, maxiter=maxiter,
                                                              args=args)
    except ValueError as ex:
        return str(ex)
    return root.hex(), iterations, calls, converged


def _scipy_quad(f, a, b, epsabs, epsrel, limit, points=None):
    if points is None:
        val, err, info, ier = _quadpack._qagse(f, a, b, (), 1, epsabs, epsrel, limit)
    else:  # as scipy's quad passes break points: inside (a, b), two zeros appended
        pts = np.unique(points)
        pts = np.concatenate((pts[(a < pts) & (pts < b)], (0.0, 0.0)))
        val, err, info, ier = _quadpack._qagpe(f, a, b, pts, (), 1, epsabs, epsrel, limit)
    return val.hex(), err.hex(), info["neval"], info["last"], ier


def _port_quad(f, a, b, epsabs, epsrel, limit):
    val, err, neval, ier, last = _numerics.qagse(f, a, b, epsabs, epsrel, limit)
    return val.hex(), err.hex(), neval, last, ier


def _kink_route_equals_scipy(f, kink, epsabs, epsrel, limit):
    """Port qagse on [kink, 1] against scipy's qagpe on [0, 1] with the kink
    as its break point, for an integrand that is 0 below the kink: value
    and error by hex, and ier. The counts differ, since scipy also
    integrates [0, kink]."""
    val, err, _, ier, _ = _numerics.qagse(f, kink, 1.0, epsabs, epsrel, limit)
    want_val, want_err, _, _, want_ier = _scipy_quad(f, 0.0, 1.0, epsabs, epsrel, limit, [kink])
    return (val.hex(), err.hex(), ier) == (want_val, want_err, want_ier)


# ------------------------------------------------------------ the package's own calls


def test_package_calls_equal_scipy(monkeypatch):
    """Every brentq and quad call of planner, two-draw, asymmetric and
    designer-FOC solves, run beside scipy on the same arguments; a designer
    integral from its kink also runs beside scipy's break-point route."""
    seen = {"brentq": 0, "qagse": 0, "kink": 0}

    def brentq(f, a, b, xtol, args=()):
        want = _scipy_brentq(f, a, b, xtol, args=args)
        assert _port_brentq(f, a, b, xtol, args=args) == want, (a, b, xtol, args)
        seen["brentq"] += 1
        return _numerics.brentq(f, a, b, xtol, args=args)

    def qagse(f, a, b, epsabs, epsrel, limit):
        assert _port_quad(f, a, b, epsabs, epsrel, limit) == _scipy_quad(
            f, a, b, epsabs, epsrel, limit)
        seen["qagse"] += 1
        return _numerics.qagse(f, a, b, epsabs, epsrel, limit)

    def designer_qagse(f, a, b, epsabs, epsrel, limit):
        if a > 0.0:
            assert b == 1.0 and _kink_route_equals_scipy(f, a, epsabs, epsrel, limit)
            seen["kink"] += 1
        return qagse(f, a, b, epsabs, epsrel, limit)

    monkeypatch.setattr(equilibrium, "brentq", brentq)
    monkeypatch.setattr(planner, "qagse", qagse)
    monkeypatch.setattr(hierarchy, "qagse", designer_qagse)

    grid = from_quantile_grid([[0.0, 0.0], [0.5, 1.0], [1.0, 3.0]])
    for d in (make_uniform(0, 1), make_exponential(1.0), make_pareto(2.0, 1.0),
              make_pareto(1.2, 1.0), grid):
        for n, c in ((1, 0.01), (3, 0.1), (20, 0.001)):
            try:
                sol = solve_planner(n, c, d)
            except NumericFailureError:
                continue
            efficient_prize_integral(sol, n, d)
    for n in (2, 3, 5, 9):
        for r in (0.0, 0.03, 0.1):
            solve_two_draw(n, r)
    for n, c in ((3, 0.1), (4, 0.05), (8, 0.01), (30, 0.001)):
        solve_asymmetric(ContestParams(n, c, 1.0), make_uniform(0, 1))
    for m, n in ((2, 2), (3, 2), (2, 5)):
        verify_designer_foc(DesignerParams(m, n, 0.05, 1.0), make_uniform(0, 1))
    assert min(seen.values()) > 10, seen


# ------------------------------------------------------------ brentq probes

_STEPS = [lambda x: math.floor(16.0 * (x - 0.4)), lambda x: -1.0 if x < 0.37 else 0.5,
          lambda x: math.floor(5.0 * (x - 0.61)) ** 3]
_SMOOTH = [lambda x: x**3 - 0.2, lambda x: math.sin(x) - 0.3, lambda x: math.expm1(x) - 1.0,
           lambda x: (x - 0.3) ** 5, lambda x: math.atan(1e3 * (x - 0.77)), lambda x: x - 1e-12,
           lambda x: math.exp(-1.0 / max(x, 1e-3)) - 1e-100]
# tiny values: the extrapolation's denominator underflows to 0, where C divides
# and gets inf or NaN, and bisects
_TINY = [lambda x: 1e-300 * (x**3 - 0.2), lambda x: 1e-200 * math.sin(x - 0.3)]


@pytest.mark.parametrize("f", _SMOOTH + _STEPS + _TINY)
def test_brentq_equals_scipy(f):
    rng = np.random.default_rng(11)
    for _ in range(150):
        a, b = float(rng.uniform(-1.0, 0.2)), float(rng.uniform(0.8, 3.0))
        xtol = float(10.0 ** rng.uniform(-15, -1))
        assert _port_brentq(f, a, b, xtol) == _scipy_brentq(f, a, b, xtol), (a, b, xtol)
        # a search cut short
        assert _port_brentq(f, a, b, xtol, 3) == _scipy_brentq(f, a, b, xtol, 3)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x, 0.0, 1.0),  # a root at an end
    (lambda x: x - 1.0, 0.0, 1.0),
    (lambda x: x * x + 1.0, -1.0, 2.0),  # ends of one sign
    (lambda x: -x * x - 1.0, -1.0, 2.0),
    (lambda x: math.nan, 0.0, 1.0),  # NaN ends
    (lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0),
    (lambda x: np.float64(x) - 0.25, 0.0, 1.0),  # numpy scalars in, floats out
    (lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.0),  # NaN inside
])
def test_brentq_edge_cases_equal_scipy(f, a, b):
    assert _port_brentq(f, a, b, 1e-12) == _scipy_brentq(f, a, b, 1e-12)


def test_brentq_argument_checks_match_scipy():
    for xtol in (0.0, -1.0):
        assert _port_brentq(math.sin, -1.0, 1.0, xtol) == _scipy_brentq(math.sin, -1.0, 1.0, xtol)
    with pytest.raises(ValueError, match="rtol too small"):
        _numerics.brentq(math.sin, -1.0, 1.0, 1e-12, rtol=1e-16)


def test_brentq_wrapper_keeps_its_failure_kinds():
    with pytest.raises(NumericFailureError, match="refused its bracket: f\\(a\\) and f\\(b\\)"):
        equilibrium._brentq(lambda x: 1.0 + x * x, -1.0, 1.0, 1e-12)
    with pytest.raises(NumericFailureError, match="is NaN; solver cannot continue"):
        equilibrium._brentq(lambda x: math.nan, -1.0, 1.0, 1e-12)


# ------------------------------------------------------------ QUADPACK probes

_INTEGRANDS = [
    lambda x: math.sqrt(x), lambda x: x**-0.5 if x > 0 else 0.0,
    lambda x: math.log(x) if x > 0 else 0.0, lambda x: 1.0 / (1.0 + 100.0 * x * x),
    lambda x: math.sin(50.0 * x), lambda x: abs(x - 0.3) ** 0.2, lambda x: x**7 * (1.0 - x),
    lambda x: 0.0, lambda x: 1.0 if x < 0.37 else 0.0, lambda x: x**-0.9 if x > 0 else 0.0,
    lambda x: 1.0 / x if x > 0 else 0.0,  # divergent
    lambda x: 1.0 / x**2 if x > 0 else 0.0,
    lambda x: 1.0 / abs(x - 1.0 / 3.0) if x != 1.0 / 3.0 else 0.0,  # bisected to roundoff
    lambda x: 1.0 / (x - 1.0 / 3.0) ** 2 if x != 1.0 / 3.0 else 0.0,
    lambda x: math.sin(1.0 / x) / x if x > 0 else 0.0,
    lambda x: math.cos(200.0 * x) * x**-0.3 if x > 0 else 0.0,
    lambda x: np.float64(x) ** 2,
    lambda x: x**-0.5 - 2.0 if x > 0 else 0.0,  # of both signs, and integral 0
]


@pytest.mark.parametrize("f", _INTEGRANDS)
def test_qagse_equals_scipy(f):
    for tol in (1e-6, 1e-10, 1e-14):
        for limit in (1, 2, 3, 7, 50, 200):
            for epsrel in (tol, 0.0):
                assert _port_quad(f, 0.0, 1.0, tol, epsrel, limit) == _scipy_quad(
                    f, 0.0, 1.0, tol, epsrel, limit), (tol, limit, epsrel)


def test_designer_integral_from_its_kink_equals_scipy_qagpe(monkeypatch):
    """A team that stops below the others' quantile q_eq can only win once its
    own value passes q_eq: _win_probability's integrand is 0 below the kink
    (q_eq - q_dev) / (1 - q_dev), and qagse starts there. On random such
    deviations, near q_eq and far below it, that gives the value, error and
    ier of scipy's dqagpe over [0, 1] with the kink as its break point."""
    calls = []

    def qagse(f, a, b, epsabs, epsrel, limit):
        calls.append((f, a, b, epsabs, epsrel, limit))
        return _numerics.qagse(f, a, b, epsabs, epsrel, limit)

    monkeypatch.setattr(hierarchy, "qagse", qagse)
    rng = np.random.default_rng(26)
    for _ in range(5000):
        m, n = int(rng.integers(2, 31)), int(rng.integers(1, 21))
        q_eq = 1.0 - 10.0 ** rng.uniform(-4.0, 0.0)
        q_dev = q_eq * (1.0 - 10.0 ** rng.uniform(-8.0, 0.0))
        hierarchy._win_probability(q_dev, q_eq, m, n)
        f, kink, b, epsabs, epsrel, limit = calls.pop()
        assert 0.0 < kink < b == 1.0
        assert _kink_route_equals_scipy(f, kink, epsabs, epsrel, limit), (m, n, q_eq, q_dev)


def test_quad_flags_cover_every_ier():
    iers = set()
    for f in _INTEGRANDS:
        for tol in (1e-6, 1e-14):
            for limit in (1, 3, 50):
                iers.add(_port_quad(f, 0.0, 1.0, tol, 0.0, limit)[-1])
    # invalid input: epsabs <= 0 with epsrel below its floor
    got = _port_quad(math.sin, 0.0, 1.0, 0.0, 1e-20, 50)
    assert got == _scipy_quad(math.sin, 0.0, 1.0, 0.0, 1e-20, 50)
    iers.add(got[-1])
    assert iers == {0, 1, 2, 3, 4, 5, 6}, iers


def test_quad_reversed_and_shifted_bounds_equal_scipy():
    f = _INTEGRANDS[5]
    for a, b in ((1.0, 0.0), (-2.0, 3.5), (0.25, 0.2500001)):
        assert _port_quad(f, a, b, 1e-10, 1e-10, 50) == _scipy_quad(f, a, b, 1e-10, 1e-10, 50)


# ------------------------------------------------------------ lgam


def test_lgam_equals_gammaln():
    rng = np.random.default_rng(20261019)
    ints = np.concatenate((np.arange(1, 2001), rng.integers(1, 200_001, 20_000)))
    reals = rng.uniform(0.01, 3000.0, 20_000)
    edges = [0.0, -0.0, 1.0, 2.0, 3.0, 12.999999, 13.0, 999.99, 1000.0, 1e8, 1.5e8, 1e300,
             3e305, -0.5, -1.0, -33.5, -34.5, -40.0, -1e10 - 0.5, math.inf, -math.inf,
             math.nan, 5e-324, 1e-300]
    xs = np.concatenate((ints.astype(float), reals, edges))
    want = gammaln(xs)
    got = np.array([_numerics.lgam(float(x)) for x in xs])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ------------------------------------------------------------ linspace


@pytest.mark.parametrize("endpoint", [True, False])
def test_linspace_equals_numpy(endpoint):
    # by hex, at the CLI's best-response grid (0.02 to 0.98, --grid from 1), a
    # span whose step underflows to 0, and no points at all
    spans = [(0.02, 0.98), (1e-9, 1.0 - 1e-9), (-3.5, 7.25), (0.0, 5e-324), (1.0, -1.0)]
    for start, stop in spans:
        for num in (0, 1, 2, 3, 25, 257):
            want = [x.hex() for x in np.linspace(start, stop, num, endpoint=endpoint).tolist()]
            got = [x.hex() for x in _numerics.linspace(start, stop, num, endpoint)]
            assert got == want, (start, stop, num)
