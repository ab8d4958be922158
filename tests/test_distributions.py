"""Distribution layer: closed-form families, quantile grids, JSON specs."""
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import searchcontest.distributions as dist_module
from searchcontest import (
    InvalidParameterError,
    distribution_from_spec,
    from_quantile_grid,
    make_exponential,
    make_pareto,
    make_uniform,
)


def test_uniform_basic():
    d = make_uniform(2.0, 4.0)
    assert d.cdf(2.0) == 0.0 and d.cdf(4.0) == 1.0
    assert d.cdf(3.0) == pytest.approx(0.5)
    assert d.quantile(0.25) == pytest.approx(2.5)
    assert d.density(3.0) == pytest.approx(0.5)
    assert d.hazard(3.0) == pytest.approx(0.5 / 0.5)


def test_exponential_basic():
    d = make_exponential(2.0)
    assert d.cdf(0.0) == 0.0
    assert d.cdf(1.0) == pytest.approx(1.0 - math.exp(-2.0))
    assert d.quantile(0.5) == pytest.approx(math.log(2.0) / 2.0)
    # constant hazard equals the rate
    for x in (0.1, 1.0, 5.0):
        assert d.hazard(x) == pytest.approx(2.0, rel=1e-12)


def test_pareto_basic():
    d = make_pareto(2.0, 1.0)
    assert d.support_lower == 1.0
    assert d.cdf(2.0) == pytest.approx(1.0 - 0.25)
    assert d.quantile(0.75) == pytest.approx(2.0)
    # hazard shape/x is decreasing
    assert d.hazard(1.0) > d.hazard(2.0) > d.hazard(4.0)
    assert d.hazard(2.0) == pytest.approx(1.0, rel=1e-12)


_LOWER_ENDS = {
    "uniform": make_uniform(-1.0, 2.0),
    "uniform-at-zero": make_uniform(0.0, 1.0),
    "exponential": make_exponential(3.0),
    "pareto": make_pareto(2.5, 1.5),
    "grid": from_quantile_grid([[0, 0.5], [0.5, 1], [1, 3]]),
}


@pytest.mark.parametrize("d", list(_LOWER_ENDS.values()), ids=list(_LOWER_ENDS))
def test_quantile_at_zero_is_support_lower(d):
    # acceptance 1 maps to the lower end of the support without a special case
    assert d.quantile(0.0) == d.support_lower
    assert d.threshold(1.0) == d.support_lower
    assert d.threshold(0.25) == d.quantile(0.75)
    # 1 - 1e-17 rounds to 1: no float quantile is left to accept from
    with pytest.raises(InvalidParameterError, match="below float resolution"):
        d.threshold(1e-17)


@pytest.mark.parametrize("bad", [
    lambda: make_uniform(1.0, 1.0),
    lambda: make_exponential(0.0),
    lambda: make_exponential(-1.0),
    lambda: make_pareto(0.0, 1.0),
    lambda: make_pareto(2.0, 0.0),
])
def test_invalid_family_params(bad):
    with pytest.raises(InvalidParameterError):
        bad()


@pytest.mark.parametrize("shape, scale", [(3, 1e200), (3.0, 1e200), (400, 10), (2.0, 1e155)])
def test_pareto_refuses_a_scale_power_past_the_float_range(shape, scale):
    # the density's factor scale**shape: an OverflowError as a float, a
    # number no float holds as an int
    with pytest.raises(InvalidParameterError, match=re.escape(f"scale {scale}, shape {shape}")):
        make_pareto(shape, scale)


@given(st.floats(0.0, 1.0))
def test_quantile_cdf_roundtrip_uniform(u):
    d = make_uniform(-1.0, 3.0)
    assert d.cdf(d.quantile(u)) == pytest.approx(u, abs=1e-12)


@given(st.floats(1e-6, 1.0 - 1e-6))
def test_quantile_cdf_roundtrip_exponential(u):
    d = make_exponential(1.5)
    assert d.cdf(d.quantile(u)) == pytest.approx(u, abs=1e-12)


@given(st.floats(1e-6, 1.0 - 1e-6))
def test_quantile_cdf_roundtrip_pareto(u):
    d = make_pareto(2.5, 2.0)
    assert d.cdf(d.quantile(u)) == pytest.approx(u, abs=1e-12)


@pytest.mark.parametrize("maker", [
    lambda: make_uniform(0.0, 1.0),
    lambda: make_exponential(1.0),
    lambda: make_pareto(2.0, 1.0),
])
def test_density_is_cdf_slope(maker):
    d = maker()
    for u in (0.1, 0.35, 0.6, 0.85):
        x = float(d.quantile(u))
        h = 1e-6 * max(1.0, abs(x))
        slope = (d.cdf(x + h) - d.cdf(x - h)) / (2 * h)
        assert slope == pytest.approx(float(d.density(x)), rel=1e-5)


@pytest.mark.parametrize("maker", [
    lambda: make_uniform(0.0, 1.0),
    lambda: make_exponential(1.0),
    lambda: make_pareto(2.0, 1.0),
])
def test_hazard_matches_density_over_tail(maker):
    d = maker()
    for u in (0.05, 0.4, 0.9):
        x = float(d.quantile(u))
        expected = float(d.density(x)) / (1.0 - float(d.cdf(x)))
        assert float(d.hazard(x)) == pytest.approx(expected, rel=1e-10)


def test_vectorized_calls():
    d = make_uniform(0.0, 1.0)
    us = np.linspace(0.0, 1.0, 11)
    xs = d.quantile(us)
    assert isinstance(xs, np.ndarray) and xs.shape == us.shape
    assert isinstance(d.quantile(0.5), float)


_SCALAR_PATH = {
    "uniform": make_uniform(-1.0, 2.0),
    "exponential": make_exponential(3.0),
    **{f"pareto{a}": make_pareto(a, 1.5) for a in (0.3, 0.5, 1.0, 1.5, 2.0)},
    "grid3": from_quantile_grid([[0, 0], [0.5, 1], [1, 3]]),
    "grid5": from_quantile_grid([[0, 0], [0.25, 1.49], [0.79, 2.75], [0.8, 4.57], [1, 6.87]]),
}


def _probes(d):
    """Quantiles on two grids and up to 1, values across and past the support,
    their float neighbours, and the special floats."""
    us = [*np.linspace(0.0, 1.0, 129), *np.linspace(0.9, 1.0, 65),
          *(1.0 - 2.0**-k for k in range(1, 60))]
    lo, hi = d.support_lower, d.support_upper
    top = hi if math.isfinite(hi) else lo + 1e3
    xs = [*np.linspace(lo - 1.0, top + 1.0, 129), *(2.0**k for k in range(-1074, 1024, 16))]
    xs += list(d.quantile(np.linspace(0.0, 1.0, 32, endpoint=False)))
    specials = [0.0, -0.0, 1.0, -1.0, 1.5, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 1e-300, 1.7976931348623157e308]
    points = [float(p) for p in (*us, *xs, *specials, lo, hi)]
    return points + [math.nextafter(p, t) for p in points for t in (-math.inf, math.inf)]


def _with_warnings(fn, x):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(x)
    return out, [w.category for w in caught]


@pytest.mark.parametrize("name", list(_SCALAR_PATH))
def test_scalar_calls_bitwise_equal_to_zero_d_arrays(name):
    # a float skips the 0-d array but must keep its bits and its warnings
    d = _SCALAR_PATH[name]
    for field in ("cdf", "density", "quantile", "hazard"):
        fn = getattr(d, field)
        for x in _probes(d):
            got, got_warnings = _with_warnings(fn, x)
            want, want_warnings = _with_warnings(fn, np.array(x))
            assert type(got) is float and got.hex() == want.hex(), (field, x, got, want)
            assert got_warnings == want_warnings, (field, x, got_warnings, want_warnings)


_FLOAT_READS = {
    **{f"pareto{a}-{b}": make_pareto(a, b) for a in (0.3, 1.1, 1.5, 2.0, 3.7) for b in (1.0, 7.3)},
    "grid3": _SCALAR_PATH["grid3"],
    "grid5": _SCALAR_PATH["grid5"],
}


def _reads(fn, points):
    """fn at each point: its result in hex, or its repr if not a float, and the
    categories of the warnings it raised."""
    out = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for x in points:
            before = len(caught)
            y = fn(x)
            out.append((y.hex() if type(y) is float else repr(y),
                        [w.category for w in caught[before:]]))
    return out


def _next_to(points):
    return [p for x in points for p in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


@pytest.mark.parametrize("name", list(_FLOAT_READS))
def test_scalar_float_reads_equal_zero_d_arrays_on_probes(name):
    # the two reads with a float path (quantile, density) on 20,000 seeded
    # quantiles, half of them within 1e-16..1 of 1, on the values they map to,
    # and next to each node of the grid and each end of the support
    d = _FLOAT_READS[name]
    rng = np.random.default_rng(28)
    us = [*rng.uniform(0.0, 1.0, 10_000), *(1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 10_000))]
    u_nodes, x_nodes = [0.0, 1.0], [d.support_lower, d.support_upper]
    if d.name == "custom":
        u_nodes, x_nodes = d.params[::2], d.params[1::2]
    specials = [math.nan, math.inf, -math.inf, 0.5]
    quantiles = [float(u) for u in (*us, *_next_to(u_nodes), *specials)]
    values = [*map(float, d.quantile(np.array(us))), *_next_to(x_nodes), *specials]
    for field, points in (("quantile", quantiles), ("density", values)):
        fn = getattr(d, field)
        got, want = _reads(fn, points), _reads(fn, [np.array(x) for x in points])
        bad = [(x, g, w) for x, g, w in zip(points, got, want) if g != w]
        assert not bad, (field, len(bad), bad[:3])


@pytest.mark.parametrize("scalar_out", [
    ZeroDivisionError, OverflowError, complex(0.0, 1.0), math.inf, -math.inf, math.nan])
def test_scalar_float_path_falls_back_to_the_array_function(scalar_out):
    # the array function is not called when the float path returns a finite
    # float, and called once, on a np.float64, when it raises or returns
    # anything else
    calls = []

    def array_fn(x):
        calls.append(x)
        return x * 2.0

    def scalar_fn(x):
        if x == 0.25:
            return x * 3.0
        if isinstance(scalar_out, type):
            raise scalar_out("probe")
        return scalar_out

    read = dist_module._vectorized(array_fn, scalar_fn)
    assert read(0.25) == 0.75 and calls == []
    got = read(0.5)
    assert type(got) is float and got == 1.0
    assert len(calls) == 1 and type(calls[0]) is np.float64 and calls[0] == 0.5
    # arrays and 0-d arrays never reach the float path
    assert read(np.array(0.25)) == 0.5 and len(calls) == 2


def test_from_quantile_grid_interpolates():
    d = from_quantile_grid([[0.0, 0.0], [0.5, 1.0], [1.0, 4.0]])
    assert d.quantile(0.25) == pytest.approx(0.5)
    assert d.quantile(0.75) == pytest.approx(2.5)
    assert d.cdf(1.0) == pytest.approx(0.5, abs=1e-10)
    assert d.density(0.5) == pytest.approx(0.5)  # du/dx on the first segment
    assert d.density(3.0) == pytest.approx(1.0 / 6.0)


def test_from_quantile_grid_cdf_is_exact_inverse():
    d = from_quantile_grid([[0.0, 0.0], [0.2, 0.5], [0.5, 1.0], [0.8, 2.5], [1.0, 3.0]])
    us = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(d.cdf(d.quantile(us)) - us)) <= 1e-15
    assert d.cdf(-1.0) == 0.0 and d.cdf(4.0) == 1.0
    # hazard on the last segment: f = 0.2 / 0.5, tail = 1 - F(2.75) = 0.1
    assert d.hazard(2.75) == pytest.approx(4.0, rel=1e-14)


def test_from_quantile_grid_validation():
    with pytest.raises(InvalidParameterError):
        from_quantile_grid([[0.1, 0.0], [1.0, 1.0]])
    with pytest.raises(InvalidParameterError):
        from_quantile_grid([[0.0, 0.0], [0.5, 2.0], [1.0, 1.0]])


def test_spec_roundtrip():
    for spec in (
        {"family": "uniform", "params": [0.0, 2.0]},
        {"family": "uniform", "params": {"lo": 0.0, "hi": 2.0}},
        {"family": "exponential", "params": [1.5]},
        {"family": "pareto", "params": {"shape": 3.0, "scale": 1.0}},
        {"family": "custom", "quantile_grid": [[0.0, 0.0], [0.5, 1.0], [1.0, 3.0]]},
    ):
        d = distribution_from_spec(spec)
        again = distribution_from_spec(d.spec())
        assert again.name == d.name and again.spec() == d.spec()
        assert float(again.quantile(0.3)) == pytest.approx(float(d.quantile(0.3)))


def test_spec_json_serializable():
    d = make_pareto(2.0, 1.0)
    assert json.loads(json.dumps(d.spec()))["family"] == "pareto"


def test_spec_custom_grid():
    d = distribution_from_spec(
        {"family": "custom", "quantile_grid": [[0.0, 0.0], [1.0, 2.0]]}
    )
    assert d.quantile(0.5) == pytest.approx(1.0)


@pytest.mark.parametrize("spec", [
    [1, 2],
    {"family": "uniform", "params": ["a", "b"]},
    {"family": "uniform", "params": {"lo": "x", "hi": 1}},
    {"family": "exponential", "params": [None]},
    {"family": "custom", "quantile_grid": [[0], [1, 2]]},
    {"family": "custom", "quantile_grid": "abc"},
])
def test_malformed_spec_is_parameter_error(spec):
    with pytest.raises(InvalidParameterError):
        distribution_from_spec(spec)


def test_spec_errors():
    with pytest.raises(InvalidParameterError):
        distribution_from_spec({"family": "cauchy", "params": []})
    with pytest.raises(InvalidParameterError):
        distribution_from_spec({"family": "uniform", "params": {"lo": 0.0}})
    with pytest.raises(InvalidParameterError):
        distribution_from_spec({"family": "custom"})
