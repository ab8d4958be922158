"""Continuous value distributions: CDF, density, quantile and hazard.

Every solver in the package works in quantile space u = F(x); distributions
enter only at the boundary of an operation (mapping quantiles back to values,
evaluating densities and hazards along a quantile path). Objects are
immutable and safe to share across threads.

Each family is one set of four functions of a Python float, on `math` (a
quantile grid's on `_numerics.interp`, np.interp's operations in its order).
Each is total: every float gives a float, with no exception and no warning.
Off the support a density, hazard or CDF reads 0.0 (the CDF 1.0 above it), a
quantile or product past the float range reads inf, and a read with no value
reads NaN (a NaN input, most quantiles past u = 1). Parameters that leave no
float read on the support are refused when the distribution is made.

Array policy: the public callables map an array elementwise through the float
function and return an array of its shape; any other non-float argument (an
int, a np.float64, a 0-d array) is read as one float and gives a float.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from ._numerics import elementwise, interp
from .errors import InvalidParameterError, require_positive


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

    def threshold(self, accept: float) -> float:
        """The value a draw reaches with probability accept, quantile(1 - accept).
        Refused when 1 - accept rounds to 1: the float quantiles stop short of
        so small an acceptance probability."""
        q = 1.0 - accept
        if q == 1.0:
            raise InvalidParameterError(
                f"acceptance probability {accept:.3g} is below float resolution")
        return self.quantile(q)

    def spec(self) -> dict:
        """JSON-serializable description that distribution_from_spec rebuilds;
        a quantile grid's params are its [u, x] pairs laid end to end."""
        if self.name == "custom":
            pairs = zip(self.params[::2], self.params[1::2])
            return {"family": "custom", "quantile_grid": [list(p) for p in pairs]}
        return {"family": self.name, "params": list(self.params)}


def _distribution(name: str, params: Sequence[float], lower: float, upper: float,
                  cdf: Callable, density: Callable, quantile: Callable,
                  hazard: Callable) -> Distribution:
    """Build a Distribution from four functions of one float (elementwise)."""
    return Distribution(name, tuple(map(float, params)), float(lower), float(upper),
                        elementwise(cdf), elementwise(density),
                        elementwise(quantile), elementwise(hazard))


def make_uniform(lo: float, hi: float) -> Distribution:
    if not (lo < hi and math.isfinite(hi - lo)):
        raise InvalidParameterError(f"uniform needs finite lo < hi, got [{lo}, {hi}]")
    width = hi - lo
    inv_width = 1.0 / width

    def cdf(x):
        return min(max((x - lo) / width, 0.0), 1.0)  # NaN stays NaN

    def density(x):
        return inv_width if lo <= x <= hi else 0.0

    def quantile(u):
        return lo + u * width

    def hazard(x):
        return 1.0 / (hi - x) if lo <= x < hi else 0.0

    return _distribution("uniform", (lo, hi), lo, hi, cdf, density, quantile, hazard)


def make_exponential(rate: float) -> Distribution:
    require_positive("exponential rate", rate)

    def cdf(x):
        return -math.expm1(-rate * x) if x > 0.0 else 0.0

    def density(x):
        return rate * math.exp(-rate * x) if x >= 0.0 else 0.0

    def quantile(u):
        if u >= 1.0:  # log1p raises at -1 and past it
            return math.inf if u == 1.0 else math.nan
        return -math.log1p(-u) / rate

    def hazard(x):
        return rate if x >= 0.0 else 0.0

    return _distribution("exponential", (rate,), 0.0, math.inf, cdf, density, quantile, hazard)


def make_pareto(shape: float, scale: float) -> Distribution:
    require_positive("pareto shape", shape)
    require_positive("pareto scale", scale)
    try:
        scale_pow = float(scale) ** float(shape)  # the density's factor, once
    except OverflowError:
        scale_pow = math.inf
    if not 0.0 < scale_pow < math.inf:  # the density would read inf, NaN or 0.0 on all its support
        raise InvalidParameterError(
            f"pareto scale**shape leaves the float range: scale {scale}, shape {shape}")
    shape, scale = float(shape), float(scale)
    tail_pow, density_pow = -1.0 / shape, -shape - 1.0

    def cdf(x):
        return 1.0 - (scale / x) ** shape if x > scale else 0.0

    def density(x):
        if not x >= scale:
            return 0.0
        try:
            return shape * scale_pow * x**density_pow
        except OverflowError:  # x < 1 here, so (scale / x)**shape >= scale_pow > 0: a float or inf
            return shape / x * (scale / x) ** shape

    def quantile(u):
        # Python's ** raises where C's pow gives inf (at u = 1 and on overflow),
        # and gives a complex where it gives NaN (past u = 1, a power that is
        # not an integer); an odd integer power keeps the sign of 1 - u
        t = 1.0 - u
        try:
            y = t**tail_pow
        except ArithmeticError:
            y = math.copysign(math.inf, t) if tail_pow % 2.0 == 1.0 else math.inf
        return scale * y if type(y) is float else math.nan

    def hazard(x):
        return shape / x if x >= scale else 0.0

    return _distribution("pareto", (shape, scale), scale, math.inf, cdf, density, quantile, hazard)


def from_quantile_grid(grid: Sequence[Sequence[float]]) -> Distribution:
    """Piecewise-linear quantile function from [[u, x], ...] pairs; its CDF is
    the exact inverse interpolation and its hazard density / (1 - CDF)."""
    try:
        pts = sorted((float(u), float(x)) for u, x in grid)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"quantile grid needs [u, x] number pairs, got {grid!r}"
        ) from None
    us, xs = [p[0] for p in pts], [p[1] for p in pts]
    if len(pts) < 2 or us[0] != 0.0 or us[-1] != 1.0:
        raise InvalidParameterError("quantile grid must span u=0..1 with >= 2 points")
    steps = list(zip(us, us[1:], xs, xs[1:]))
    # written so that NaN fails: NaN compares false
    if not (all(u0 < u1 and x0 < x1 for u0, u1, x0, x1 in steps) and all(map(math.isfinite, xs))):
        raise InvalidParameterError("quantile grid must be finite, strictly increasing in u and x")
    slopes = [(u1 - u0) / (x1 - x0) for u0, u1, x0, x1 in steps]  # du/dx per segment
    # the CDF and density read du/dx, the quantile dx/du: each must be a float
    if not all(math.isfinite(s) and math.isfinite((x1 - x0) / (u1 - u0))
               for s, (u0, u1, x0, x1) in zip(slopes, steps)):
        raise InvalidParameterError("quantile grid slopes overflow a float: du/dx and dx/du "
                                    "must be finite on each segment")

    def cdf(x):
        return interp(x, xs, us)

    def density(x):
        if not xs[0] <= x <= xs[-1]:  # NaN included
            return 0.0
        return slopes[min(bisect.bisect_right(xs, x) - 1, len(slopes) - 1)]

    def quantile(u):
        return interp(u, us, xs)

    def hazard(x):
        tail = 1.0 - cdf(x)
        return density(x) / tail if tail > 0.0 else 0.0

    return _distribution(
        "custom", [v for p in pts for v in p], xs[0], xs[-1],  # spec() reads the params
        cdf, density, quantile, hazard)


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
