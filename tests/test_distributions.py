"""Distribution layer: closed-form families, quantile grids, JSON specs."""
import json
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("shape, scale", [(3, 1e200), (3.0, 1e200), (400, 10), (2.0, 1e155),
                                          (2.0, 1e-200), (400, 0.1)])
def test_pareto_refuses_a_scale_power_past_the_float_range(shape, scale):
    # the density's factor scale**shape, taken on floats: past the top it
    # overflows, and below the bottom it is 0.0, which leaves a density of 0.0
    # (and NaN where x**(-shape - 1) overflows) on all the support
    with pytest.raises(InvalidParameterError, match=re.escape(f"scale {scale}, shape {shape}")):
        make_pareto(shape, scale)


def test_pareto_density_where_its_power_overflows():
    # x**(-shape - 1) overflows a float at x = 1e-150, but the density there is
    # shape / x * (scale / x)**shape = 2e150; past the float range it reads inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert make_pareto(2.0, 1e-150).density(1e-150) == 2e150
        assert make_pareto(1.0, 1e-309).density(1e-309) == math.inf


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


def _array_reads(d):
    """The four reads of d as the numpy array expressions each family was
    written in before its float functions: the reference they are held to."""
    if d.name == "uniform":
        lo, hi = d.params
        width = hi - lo
        return {
            "cdf": lambda x: np.clip((x - lo) / width, 0.0, 1.0),
            "density": lambda x: np.where((x >= lo) & (x <= hi), 1.0 / width, 0.0),
            "quantile": lambda u: lo + u * width,
            "hazard": lambda x: np.where((x >= lo) & (x < hi), 1.0 / (hi - x), 0.0),
        }
    if d.name == "exponential":
        (rate,) = d.params
        return {
            "cdf": lambda x: np.where(x > 0, -np.expm1(-rate * np.maximum(x, 0.0)), 0.0),
            "density": lambda x: np.where(x >= 0, rate * np.exp(-rate * np.maximum(x, 0.0)), 0.0),
            "quantile": lambda u: -np.log1p(-u) / rate,
            "hazard": lambda x: np.where(x >= 0, rate, 0.0),
        }
    if d.name == "pareto":
        shape, scale = d.params
        scale_pow = scale**shape
        return {
            "cdf": lambda x: np.where(x > scale, 1.0 - (scale / np.maximum(x, scale)) ** shape, 0.0),
            "density": lambda x: np.where(
                x >= scale, shape * scale_pow * np.maximum(x, scale) ** (-shape - 1.0), 0.0),
            "quantile": lambda u: scale * (1.0 - u) ** (-1.0 / shape),
            "hazard": lambda x: np.where(x >= scale, shape / np.maximum(x, scale), 0.0),
        }
    us, xs = np.array(d.params[::2]), np.array(d.params[1::2])
    slopes = np.diff(us) / np.diff(xs)

    def density(x):
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(slopes) - 1)
        return np.where((x >= xs[0]) & (x <= xs[-1]), slopes[idx], 0.0)

    def hazard(x):
        tail = 1.0 - np.interp(x, xs, us)
        return np.where(tail > 0, density(x) / np.where(tail > 0, tail, 1.0), 0.0)

    return {"cdf": lambda x: np.interp(x, xs, us), "density": density,
            "quantile": lambda u: np.interp(u, us, xs), "hazard": hazard}


def _kind(y):
    return "nan" if y != y else "zero" if y == 0.0 else repr(y) if math.isinf(y) else "finite"


def _ulps(a, b):
    """Floats between two finite floats of one sign."""
    return abs(struct.unpack("<q", struct.pack("<d", a))[0]
               - struct.unpack("<q", struct.pack("<d", b))[0])


# numpy's AVX-512 exp, expm1 and log1p against the C library's: 2 ulps at most
# on the probes (0 with AVX-512 disabled), a 1-ulp miss being rounded again by
# the product or quotient with the rate
_EXPONENTIAL_ULPS = 4


# tail_pow = -21, odd: past u = 1 the quantile's power overflows to -inf
_REFERENCE_CASES = {**_SCALAR_PATH, "pareto1/21": make_pareto(1 / 21, 1.0)}


@pytest.mark.parametrize("name", list(_REFERENCE_CASES))
def test_float_reads_match_the_array_expressions(name):
    # every read on each probe: a float, no warning, the array expression's
    # value class (0.0, +-inf, NaN or finite), and its bits, which numpy's
    # scalar `**` keeps (the C library's pow); exponential reads are math's
    # exp, expm1 and log1p, which numpy's SIMD loops miss in the last bits
    d = _REFERENCE_CASES[name]
    worst = 0
    for field, want_fn in _array_reads(d).items():
        fn = getattr(d, field)
        for x in _probes(d):
            got, got_warnings = _with_warnings(fn, x)
            with np.errstate(all="ignore"):
                want = float(want_fn(np.float64(x)))
            assert type(got) is float and not got_warnings, (field, x, got, got_warnings)
            assert _kind(got) == _kind(want), (field, x, got, want)
            if d.name == "exponential" and _kind(got) == "finite":
                worst = max(worst, _ulps(got, want))
            elif _kind(got) != "nan":
                assert got.hex() == want.hex(), (field, x, got, want)
    print(f"{name}: largest gap {worst} ulp")
    assert worst <= _EXPONENTIAL_ULPS, worst


@pytest.mark.parametrize("name", list(_SCALAR_PATH))
def test_scalar_calls_bitwise_equal_to_zero_d_arrays(name):
    # the array policy: a 0-d array and a np.float64 are read as the float
    # they hold, and a one-entry array maps to it, with its bits and no warning
    d = _SCALAR_PATH[name]
    for field in ("cdf", "density", "quantile", "hazard"):
        fn = getattr(d, field)
        for x in _probes(d):
            want = fn(x).hex()
            for arg in (np.array(x), np.float64(x)):
                got, got_warnings = _with_warnings(fn, arg)
                assert type(got) is float and got.hex() == want and not got_warnings, (field, x)
            got, got_warnings = _with_warnings(fn, np.array([x]))
            assert got.shape == (1,) and float(got[0]).hex() == want and not got_warnings


_FLOAT_READS = {
    **{f"pareto{a}-{b}": make_pareto(a, b) for a in (0.3, 1.1, 1.5, 2.0, 3.7) for b in (1.0, 7.3)},
    "grid3": _SCALAR_PATH["grid3"],
    "grid5": _SCALAR_PATH["grid5"],
}


def _next_to(points):
    return [p for x in points for p in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


@pytest.mark.parametrize("name", list(_FLOAT_READS))
def test_scalar_float_reads_equal_zero_d_arrays_on_probes(name):
    # the planner integrand's two reads (quantile, density) against their
    # array expressions on 0-d arrays, by float hex, on 20,000 seeded
    # quantiles, half of them within 1e-16..1 of 1, on the values they map
    # to, and next to each node of the grid and each end of the support
    d = _FLOAT_READS[name]
    rng = np.random.default_rng(28)
    us = [*rng.uniform(0.0, 1.0, 10_000), *(1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 10_000))]
    u_nodes, x_nodes = [0.0, 1.0], [d.support_lower, d.support_upper]
    if d.name == "custom":
        u_nodes, x_nodes = d.params[::2], d.params[1::2]
    specials = [math.nan, math.inf, -math.inf, 0.5]
    quantiles = [float(u) for u in (*us, *_next_to(u_nodes), *specials)]
    values = [*map(d.quantile, us), *_next_to(x_nodes), *specials]
    reference = _array_reads(d)
    for field, points in (("quantile", quantiles), ("density", values)):
        fn, want_fn = getattr(d, field), reference[field]
        with np.errstate(all="ignore"):
            want = [float(want_fn(np.float64(x))).hex() for x in points]
        bad = [(x, g, w) for x, g, w in zip(points, (fn(x).hex() for x in points), want) if g != w]
        assert not bad, (field, len(bad), bad[:3])


def test_vectorized_calls():
    # an array maps elementwise to an array of its shape; any scalar gives a float
    d = make_uniform(0.0, 1.0)
    us = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    xs = d.quantile(us)
    assert isinstance(xs, np.ndarray) and xs.shape == us.shape
    assert xs.tolist() == [[d.quantile(u) for u in row] for row in us.tolist()]
    for u in (0.5, 1, np.float64(0.5), np.array(0.5)):
        assert type(d.quantile(u)) is float


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


@pytest.mark.parametrize("grid", [
    [[0, 0], [0.5, 5e-324], [1, 1]],  # du/dx, the CDF's and density's slope
    [[0, 0], [5e-324, 1], [1, 2]],  # dx/du, the quantile's slope
    [[0, -1e308], [1, 1e308]],  # the x step itself
], ids=["du-dx", "dx-du", "x-step"])
def test_quantile_grid_refuses_slopes_past_the_float_range(grid):
    with pytest.raises(InvalidParameterError, match="slopes overflow a float"):
        from_quantile_grid(grid)


_ANY_FLOAT = st.floats()  # NaN and the infinities included
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _grids(draw):
    xs = sorted(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=2, max_size=6, unique=True)))
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          min_size=len(xs) - 2, max_size=len(xs) - 2, unique=True))
    return [[u, x] for u, x in zip([0.0, *sorted(inner), 1.0], xs)]


_MADE = st.one_of(
    st.tuples(st.just(make_uniform), _ANY_FLOAT, _ANY_FLOAT),
    st.tuples(st.just(make_exponential), _POSITIVE),
    st.tuples(st.just(make_pareto), _POSITIVE, _POSITIVE),
    st.tuples(st.just(from_quantile_grid), _grids()),
)


@settings(max_examples=400)
@given(_MADE, st.lists(_ANY_FLOAT, max_size=6), st.lists(st.floats(0.0, 1.0), max_size=4))
@example((make_exponential, 1e-310), [], [0.5])  # the quantile's divide overflows
@example((make_exponential, 1e308), [10.0], [])  # the CDF's product overflows
@example((make_exponential, 1.0), [], [1.0])  # log1p(-1)
@example((make_pareto, 0.01, 1.0), [], [1.0 - 2.0**-53])  # the quantile's power overflows
@example((make_pareto, 1.0, 1e300), [], [1.0 - 1e-15])  # the quantile's product overflows
@example((make_pareto, 2.0, 1e-150), [1e-150], [])  # the density's power overflows
@example((make_pareto, 1.0, 1e-309), [1e-309], [])  # and the density itself
def test_distribution_reads_are_total(made, xs, us):
    # for any parameters a constructor accepts and any float, each read
    # returns a float, raises nothing and warns nothing; the points include
    # the quantiles of us, the ends of the support and their neighbours
    maker, *args = made
    try:
        d = maker(*args)
    except InvalidParameterError:
        reject()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = [*xs, *us, d.support_lower, d.support_upper, *map(d.quantile, us)]
        points += [math.nextafter(p, t) for p in points for t in (-math.inf, math.inf)]
        for fn in (d.cdf, d.density, d.quantile, d.hazard):
            for x in points:
                assert type(fn(x)) is float, (fn, x)


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
