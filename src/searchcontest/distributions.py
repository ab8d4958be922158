"""Continuous value distributions: CDF, density, quantile and hazard.

Every solver in the package works in quantile space u = F(x); distributions
enter only at the boundary of an operation (mapping quantiles back to values,
evaluating densities and hazards along a quantile path). All callables are
vectorized over numpy arrays and scalars. Objects are immutable and safe to
share across threads.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._numerics import interp
from .errors import InvalidParameterError, require_positive


def _vectorized(fn: Callable[[np.ndarray], np.ndarray],
                scalar: Callable[[float], float] | None = None) -> Callable:
    """Wrap an array function so scalars come back as Python floats.

    A float is read by scalar, when the family gives one, and otherwise goes
    through fn as a np.float64 scalar: every ufunc on a 0-d array already
    returns such a scalar, so the bits and warnings are those of the 0-d array
    call, without building the array (adaptive quadrature makes one call per
    node). scalar must do fn's operations in fn's order on Python floats, so
    that a finite result has fn's bits; where it raises an ArithmeticError
    (0.0 ** -0.5) or returns anything but a finite float (a complex from a
    negative base, inf, NaN) the float goes through fn instead, which gives
    numpy's result and its RuntimeWarning. A float read by scalar does not
    consult np.seterr."""

    def wrapped(x):
        if isinstance(x, float):
            if scalar is not None:
                try:
                    y = scalar(float(x))
                except ArithmeticError:
                    y = None
                if type(y) is float and math.isfinite(y):
                    return y
            return float(fn(np.float64(x)))
        arr = np.asarray(x, dtype=float)
        out = fn(arr)
        if np.ndim(x) == 0:
            return float(out)
        return out

    return wrapped


@dataclass(frozen=True)
class Distribution:
    """A continuous distribution with strictly positive density on its support."""

    name: str
    params: tuple[float, ...]
    support_lower: float
    support_upper: float  # math.inf when unbounded above
    cdf: Callable
    density: Callable
    quantile: Callable
    hazard: Callable
    # (quantile, density) of one Python float, for families with float reads
    float_reads: tuple[Callable, Callable] | None = None

    def threshold(self, accept: float) -> float:
        """The value a draw reaches with probability accept, quantile(1 - accept).
        Refused when 1 - accept rounds to 1: the float quantiles stop short of
        so small an acceptance probability."""
        q = 1.0 - accept
        if q == 1.0:
            raise InvalidParameterError(
                f"acceptance probability {accept:.3g} is below float resolution")
        return float(self.quantile(q))

    def spec(self) -> dict:
        """JSON-serializable description that distribution_from_spec rebuilds;
        a quantile grid's params are its [u, x] pairs laid end to end."""
        if self.name == "custom":
            pairs = zip(self.params[::2], self.params[1::2])
            return {"family": "custom", "quantile_grid": [list(p) for p in pairs]}
        return {"family": self.name, "params": list(self.params)}


def _distribution(name: str, params: Sequence[float], lower: float, upper: float,
                  cdf: Callable, density: Callable, quantile: Callable,
                  hazard: Callable, scalar_density: Callable | None = None,
                  scalar_quantile: Callable | None = None) -> Distribution:
    """Build a Distribution from four functions of a float array; a density or
    quantile may come with a function of one float beside it (_vectorized)."""
    reads = (scalar_quantile, scalar_density) if scalar_quantile and scalar_density else None
    return Distribution(name, tuple(map(float, params)), float(lower), float(upper),
                        _vectorized(cdf), _vectorized(density, scalar_density),
                        _vectorized(quantile, scalar_quantile), _vectorized(hazard), reads)


def make_uniform(lo: float, hi: float) -> Distribution:
    if not (lo < hi and math.isfinite(hi - lo)):
        raise InvalidParameterError(f"uniform needs finite lo < hi, got [{lo}, {hi}]")
    width = hi - lo

    def hazard(x):
        with np.errstate(divide="ignore"):
            return np.where((x >= lo) & (x < hi), 1.0 / (hi - x), 0.0)

    return _distribution(
        "uniform", (lo, hi), lo, hi,
        cdf=lambda x: np.clip((x - lo) / width, 0.0, 1.0),
        density=lambda x: np.where((x >= lo) & (x <= hi), 1.0 / width, 0.0),
        quantile=lambda u: lo + u * width,
        hazard=hazard,
    )


def make_exponential(rate: float) -> Distribution:
    require_positive("exponential rate", rate)
    return _distribution(
        "exponential", (rate,), 0.0, math.inf,
        cdf=lambda x: np.where(x > 0, -np.expm1(-rate * np.maximum(x, 0.0)), 0.0),
        density=lambda x: np.where(x >= 0, rate * np.exp(-rate * np.maximum(x, 0.0)), 0.0),
        quantile=lambda u: -np.log1p(-u) / rate,
        hazard=lambda x: np.where(x >= 0, rate, 0.0),
    )


def make_pareto(shape: float, scale: float) -> Distribution:
    require_positive("pareto shape", shape)
    require_positive("pareto scale", scale)
    try:
        scale_pow = scale**shape  # the density's factor, once; a float power raises on overflow
        float(scale_pow)  # an int power of an int is exact, and may not fit a float
    except OverflowError:
        raise InvalidParameterError(
            f"pareto scale**shape overflows a float: scale {scale}, shape {shape}") from None

    # The float reads are the array expressions on Python floats, whose ** is
    # libm's pow, as numpy's scalar ** is. The quantile's expression serves both.
    def quantile(u):
        return scale * (1.0 - u) ** (-1.0 / shape)

    def scalar_density(x):
        # both branches are computed, as np.where does, so that an overflow in
        # the unused one still goes to numpy for its warning
        f = shape * scale_pow * max(x, scale) ** (-shape - 1.0)
        return f if x >= scale else 0.0

    return _distribution(
        "pareto", (shape, scale), scale, math.inf,
        cdf=lambda x: np.where(x > scale, 1.0 - (scale / np.maximum(x, scale)) ** shape, 0.0),
        density=lambda x: np.where(
            x >= scale, shape * scale_pow * np.maximum(x, scale) ** (-shape - 1.0), 0.0),
        quantile=quantile,
        hazard=lambda x: np.where(x >= scale, shape / np.maximum(x, scale), 0.0),
        scalar_density=scalar_density, scalar_quantile=quantile,
    )


def from_quantile_grid(grid: Sequence[Sequence[float]]) -> Distribution:
    """Piecewise-linear quantile function from [[u, x], ...] pairs; its CDF is
    the exact inverse interpolation and its hazard density / (1 - CDF)."""
    try:
        pts = sorted((float(u), float(x)) for u, x in grid)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"quantile grid needs [u, x] number pairs, got {grid!r}"
        ) from None
    us = np.array([p[0] for p in pts])
    xs = np.array([p[1] for p in pts])
    if len(pts) < 2 or us[0] != 0.0 or us[-1] != 1.0:
        raise InvalidParameterError("quantile grid must span u=0..1 with >= 2 points")
    # written so that NaN fails: NaN compares false
    if not (np.all(np.diff(us) > 0) and np.all(np.diff(xs) > 0) and np.isfinite(xs).all()):
        raise InvalidParameterError("quantile grid must be finite, strictly increasing in u and x")

    slopes = np.diff(us) / np.diff(xs)  # du/dx per segment
    u_list, x_list, slope_list = us.tolist(), xs.tolist(), slopes.tolist()

    def cdf(x):
        return np.interp(x, xs, us)

    def density(x):
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(slopes) - 1)
        return np.where((x >= xs[0]) & (x <= xs[-1]), slopes[idx], 0.0)

    def scalar_density(x):
        if not x_list[0] <= x <= x_list[-1]:  # NaN included
            return 0.0
        return slope_list[min(bisect.bisect_right(x_list, x) - 1, len(slope_list) - 1)]

    def hazard(x):
        tail = 1.0 - cdf(x)
        return np.where(tail > 0, density(x) / np.where(tail > 0, tail, 1.0), 0.0)

    return _distribution(
        "custom", [v for p in pts for v in p], xs[0], xs[-1],  # spec() reads the params
        cdf=cdf, density=density, quantile=lambda u: np.interp(u, us, xs), hazard=hazard,
        scalar_density=scalar_density, scalar_quantile=lambda u: interp(u, u_list, x_list),
    )


_FAMILIES = {
    "uniform": (make_uniform, ("lo", "hi")),
    "exponential": (make_exponential, ("rate",)),
    "pareto": (make_pareto, ("shape", "scale")),
}


def distribution_from_spec(spec: dict) -> Distribution:
    """Parse `{"family": ..., "params": {...}}` or a custom quantile grid."""
    if not isinstance(spec, dict):
        raise InvalidParameterError(f"distribution spec must be an object, got {spec!r}")
    family = spec.get("family")
    if family == "custom":
        grid = spec.get("quantile_grid")
        if not grid:
            raise InvalidParameterError("custom spec needs a quantile_grid")
        return from_quantile_grid(grid)
    if not isinstance(family, str) or family not in _FAMILIES:
        raise InvalidParameterError(f"unknown distribution family: {family!r}")
    maker, keys = _FAMILIES[family]
    params = spec.get("params", {})
    try:
        values = [params[k] for k in keys] if isinstance(params, dict) else list(params)
        args = [float(v) for v in values]
    except KeyError as missing:
        raise InvalidParameterError(
            f"{family} spec needs params {keys}, missing {missing}"
        ) from None
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{family} params must be numbers, got {params!r}") from None
    if len(args) != len(keys):
        raise InvalidParameterError(f"{family} takes {len(keys)} params, got {len(args)}")
    return maker(*args)
