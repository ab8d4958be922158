"""Spans around the library's layer boundaries, and the per-layer metrics.

`installed(tracer)` replaces the module attributes that one layer calls
another through (for example `searchcontest.cli.threshold_profile` and
`searchcontest.finite_horizon.solve_k_draw`) with shims that record a span:
name, start, end, parent span and job id. Spans stay in memory until the run
ends. A Distribution's cdf, quantile, density and hazard are called up to
10^5 times per planner solve, so those calls are counted and timed into the
span that makes them rather than recorded one by one. A span's self time is
its duration minus its child spans and its distribution calls. `calibrate`
turns all of these times into reference seconds (see clock.py).
"""
from __future__ import annotations

import bisect
import contextlib
import dataclasses
import inspect
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import searchcontest.cli as sc_cli
import searchcontest.distributions as sc_dist
import searchcontest.equilibrium as sc_eq
import searchcontest.finite_horizon as sc_fh
import searchcontest.planner as sc_planner
import searchcontest.simulation as sc_sim
from searchcontest.errors import SearchContestError

from jobs import KDRAW_CELLS, KNOWN_DEFECT_CELL, cell_key, kdraw_job_name

LEAF_KINDS = ("cdf", "quantile", "density", "hazard")


@dataclass
class Span:
    id: int
    parent: int | None
    job: str
    name: str
    start: float
    end: float = 0.0
    paused: float = 0.0  # clock loops run inside the span, left out of its seconds
    scale: float = 1.0  # reference seconds per second around the span; see calibrate
    attrs: dict = field(default_factory=dict)
    error: str | None = None
    # distribution calls made directly in this span: count and seconds per kind
    leaf_n: dict = field(default_factory=lambda: defaultdict(int))
    leaf_s: dict = field(default_factory=lambda: defaultdict(float))

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]

    @property
    def raw_seconds(self) -> float:
        return self.end - self.start - self.paused

    @property
    def seconds(self) -> float:
        """Reference seconds, once calibrate has run."""
        return self.raw_seconds * self.scale


class Tracer:
    """Records spans of the calling thread; the library's worker threads make no shimmed calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.job = ""
        self.paused = 0.0  # seconds of clock loops so far; see clock.Clock

    def pause(self, seconds: float) -> None:
        self.paused += seconds

    def open(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, self.job, name, time.perf_counter(),
                    paused=self.paused)
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.paused = self.paused - span.paused
        self._open.pop()

    def leaf(self, kind: str, seconds: float) -> None:
        span = self._open[-1]
        span.leaf_n[kind] += 1
        span.leaf_s[kind] += seconds

    @contextlib.contextmanager
    def job_span(self, job_id: str):
        self.job = job_id
        span = self.open("bench.job")
        try:
            yield
        finally:
            self.close(span)


# ------------------------------------------------------------------ shims


def _acc(params) -> float:
    return round(params.n_players * params.cost / params.prize, 6)


def _kdraw_attrs(call: dict, out) -> dict:
    params = call["params"]
    attrs = {"cell": cell_key((params.n_draws, params.n_players, params.cost_ratio))}
    if out is not None:
        attempts = out.diagnostics.get("attempts", [])
        attrs["br_sweeps"] = sum(a.get("iterations", 0) for a in attempts
                                 if a.get("method") in ("best_response", "multistart"))
        attrs["newton_iterations"] = sum(a.get("iterations", 0) for a in attempts
                                         if a.get("method") == "newton")
    return attrs


def _planner_attrs(call: dict, out) -> dict:
    n, d = call["n_players"], call["d"]
    if d.name == "custom":
        return {"label": "grid"}
    return {"label": d.name if n == 2 else f"{d.name}_n{n}"}


def _sim_attrs(call: dict, out) -> dict:
    params, config = call["params"], call["config"]
    attrs = {"acc": _acc(params), "players": params.n_players, "reps": config.replications,
             "threads": config.n_threads}
    if out is not None:
        attrs["capped"] = out.capped_replications
    return attrs


def _deviation_attrs(call: dict, out) -> dict:
    return {"candidates": len(call["candidates"])}


def _recall_attrs(call: dict, out) -> dict:
    return {"acc": _acc(call["params"])}


ATTRS = {
    "solve_k_draw": _kdraw_attrs,
    "solve_planner": _planner_attrs,
    "simulate_contest": _sim_attrs,
    "deviation_scan": _deviation_attrs,
    "recall_irrelevance_check": _recall_attrs,
}
# (module, attribute) pairs that one layer calls another through
PATCHES = [
    (sc_cli, "main"),
    (sc_cli, "threshold_profile"),
    (sc_cli, "solve_planner"),
    (sc_cli, "solve_symmetric"),
    (sc_cli, "solve_asymmetric"),
    (sc_cli, "simulate_contest"),
    (sc_cli, "deviation_scan"),
    (sc_cli, "distribution_free_check"),
    (sc_cli, "recall_irrelevance_check"),
    (sc_cli, "verify_designer_foc"),
    (sc_fh, "solve_k_draw"),
    (sc_planner, "solve_planner"),
    (sc_planner, "solve_symmetric"),
    (sc_eq, "solve_symmetric"),
    (sc_sim, "solve_symmetric"),
    (sc_sim, "simulate_contest"),
    (sc_sim, "recall_irrelevance_check"),
]
# where Distributions are made; the shim returns one with counted callables
DIST_FACTORIES = [(sc_cli, "distribution_from_spec"), (sc_dist, "distribution_from_spec")]


def _span_shim(tracer: Tracer, fn: Callable) -> Callable:
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    describe = ATTRS.get(fn.__name__)
    signature = inspect.signature(fn)

    def shim(*args, **kwargs):
        span = tracer.open(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        except BaseException as ex:
            span.error = type(ex).__name__
            span.attrs["escaped"] = not isinstance(ex, SearchContestError)
            raise
        finally:
            tracer.close(span)
            if describe is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span.attrs.update(describe(bound, out))

    return shim


def _leaf_shim(tracer: Tracer, kind: str, fn: Callable) -> Callable:
    clock = time.perf_counter

    def shim(x):
        paused, t0 = tracer.paused, clock()
        out = fn(x)
        tracer.leaf(kind, clock() - t0 - (tracer.paused - paused))
        return out

    return shim


def _factory_shim(tracer: Tracer, fn: Callable) -> Callable:
    def shim(spec):
        d = fn(spec)
        return dataclasses.replace(
            d, **{k: _leaf_shim(tracer, k, getattr(d, k)) for k in LEAF_KINDS})

    return shim


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Put the shims on the library's module attributes; restore them on exit."""
    saved = []
    try:
        for mod, attr in PATCHES + DIST_FACTORIES:
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            wrap = _factory_shim if (mod, attr) in DIST_FACTORIES else _span_shim
            setattr(mod, attr, wrap(tracer, fn))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# ------------------------------------------------------------------ metrics


def calibrate(spans: list[Span], samples: list[tuple[float, float]], ref_s: float) -> None:
    """Express span and distribution-call times in reference seconds (see clock.py).

    A span's scale is ref_s over the mean time of the clock loops run during it
    and of the one just before and just after it.
    """
    ends = [t for t, _ in samples]
    for s in spans:
        window = samples[max(bisect.bisect_left(ends, s.start) - 1, 0):
                         bisect.bisect_right(ends, s.end) + 1]
        s.scale = ref_s / statistics.fmean(x for _, x in window)


def _percentile(values: list[float], p: float) -> float | None:
    """Nearest-rank percentile; None without samples."""
    if not values:
        return None
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def _self_seconds(spans: list[Span]) -> dict[int, float]:
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.raw_seconds
    return {s.id: s.scale * (s.raw_seconds - child[s.id] - sum(s.leaf_s.values()))
            for s in spans}


class _View:
    """The spans of one phase of the traced run, with lookups the metrics share."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.self_s = _self_seconds(spans)

    def named(self, name: str, **attrs) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.error is None
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def layer(self, layer: str) -> list[Span]:
        return [s for s in self.spans if s.layer == layer]

    def layer_self_s(self, layer: str) -> float | None:
        spans = self.layer(layer)
        return sum(self.self_s[s.id] for s in spans) if spans else None

    def leaf(self, kinds=LEAF_KINDS) -> tuple[int, float]:
        n = sum(s.leaf_n.get(k, 0) for s in self.spans for k in kinds)
        t = sum(s.scale * s.leaf_s.get(k, 0.0) for s in self.spans for k in kinds)
        return n, t

    def ms(self, spans: list[Span], p: float = 0.5) -> float | None:
        return _percentile([1e3 * s.seconds for s in spans], p)


def _count(spans: list) -> int | None:
    return len(spans) or None


def _sum_attr(spans: list[Span], key: str) -> int | None:
    return sum(s.attrs.get(key, 0) for s in spans) if spans else None


def _player_rate(spans: list[Span]) -> float | None:
    secs = sum(s.seconds for s in spans)
    return sum(s.attrs["reps"] * s.attrs["players"] for s in spans) / secs if spans else None


def _cells(v: _View, frontier: bool, frontier_cells: set[str]) -> list[Span]:
    return [s for s in v.named("finite_horizon.solve_k_draw")
            if (s.attrs["cell"] in frontier_cells) == frontier]


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload it should move
    value: Callable | None = None  # (_View, frontier cells) -> float, or None without a sample
    probes: tuple[str, ...] = ()  # jobs that give it a sample when the workload has none


_NON_DEFECT_CELLS = tuple(kdraw_job_name(c) for c in KDRAW_CELLS if c != KNOWN_DEFECT_CELL)
_WELFARE = ("tables.welfare_examples",)

LAYER_METRICS = [
    LayerMetric("distributions.calls", "count", "lower", "wall_s on explore, and tables via planner",
                lambda v, f: v.leaf()[0] or None),
    LayerMetric("distributions.self_s", "s", "lower", "wall_s on explore, and tables via planner",
                lambda v, f: v.leaf()[1] if v.leaf()[0] else None),
    LayerMetric("distributions.cdf_s", "s", "lower", "wall_s on explore",
                lambda v, f: v.leaf(("cdf",))[1] if v.leaf(("cdf",))[0] else None),
    LayerMetric("equilibrium.solve_asymmetric_ms", "ms", "lower", "wall_s on verify",
                lambda v, f: v.ms(v.named("equilibrium.solve_asymmetric")),
                ("verify.best_response",)),
    LayerMetric("equilibrium.calls", "count", "lower", "wall_s on verify",
                lambda v, f: _count(v.layer("equilibrium"))),
    LayerMetric("finite_horizon.interior_cell_ms.p50", "ms", "lower", "wall_s on tables",
                lambda v, f: v.ms(_cells(v, False, f)), _NON_DEFECT_CELLS),
    LayerMetric("finite_horizon.interior_cell_ms.p90", "ms", "lower", "wall_s on tables",
                lambda v, f: v.ms(_cells(v, False, f), 0.9), _NON_DEFECT_CELLS),
    LayerMetric("finite_horizon.frontier_cell_ms.p50", "ms", "lower",
                "wall_s on tables and explore",
                lambda v, f: v.ms(_cells(v, True, f)), _NON_DEFECT_CELLS),
    LayerMetric("finite_horizon.self_s", "s", "lower", "wall_s on tables and explore",
                lambda v, f: v.layer_self_s("finite_horizon"), _NON_DEFECT_CELLS),
    LayerMetric("finite_horizon.cells", "count", "lower", "wall_s on tables and explore",
                lambda v, f: _count([s for s in v.spans if s.name == "finite_horizon.solve_k_draw"]),
                _NON_DEFECT_CELLS),
    LayerMetric("finite_horizon.br_sweeps", "count", "lower", "wall_s on tables and explore",
                lambda v, f: _sum_attr(v.named("finite_horizon.solve_k_draw"), "br_sweeps"),
                _NON_DEFECT_CELLS),
    # Newton restarts recorded in diagnostics["attempts"]; solve_k_draw does not
    # report the iterations of its final polish, so those are not counted
    LayerMetric("finite_horizon.newton_iterations", "count", "lower",
                "wall_s on tables and explore",
                lambda v, f: _sum_attr(v.named("finite_horizon.solve_k_draw"), "newton_iterations"),
                _NON_DEFECT_CELLS),
    LayerMetric("finite_horizon.escaped_errors", "count", "lower", "ok_frac on explore",
                lambda v, f: _sum_attr([s for s in v.spans if s.name == "finite_horizon.solve_k_draw"],
                                       "escaped"),
                _NON_DEFECT_CELLS),
    LayerMetric("hierarchy.verify_designer_foc_ms", "ms", "lower", "nothing end to end",
                lambda v, f: v.ms(v.named("hierarchy.verify_designer_foc")),
                ("verify.designer_foc",)),
    *[LayerMetric(f"planner.solve_planner_ms.{label}", "ms", "lower", moves,
                  lambda v, f, label=label: v.ms(v.named("planner.solve_planner", label=label)),
                  probes)
      for label, moves, probes in (
          ("uniform", "wall_s on tables", _WELFARE),
          ("exponential", "wall_s on tables", _WELFARE),
          ("pareto", "wall_s on tables", _WELFARE),
          ("pareto_n3", "wall_s on explore", ("explore.planner.pareto_n3",)),
          ("grid", "wall_s on explore", ("explore.planner.grid",)))],
    LayerMetric("planner.calls", "count", "lower", "wall_s on tables and explore",
                lambda v, f: _count(v.layer("planner")), _WELFARE),
    LayerMetric("planner.self_s", "s", "lower", "wall_s on tables and explore",
                lambda v, f: v.layer_self_s("planner"), _WELFARE),
    LayerMetric("simulation.player_reps_per_s.acc0.3", "1/s", "higher", "wall_s on verify",
                lambda v, f: _player_rate(v.named("simulation.simulate_contest", acc=0.3, threads=1))),
    LayerMetric("simulation.player_reps_per_s.acc0.03", "1/s", "higher", "wall_s on explore",
                lambda v, f: _player_rate(v.named("simulation.simulate_contest", acc=0.03, threads=1)),
                ("explore.simulate.acc0.03",)),
    LayerMetric("simulation.deviation_ms_per_candidate", "ms", "lower", "wall_s on verify",
                lambda v, f: (1e3 * sum(s.seconds for s in v.named("simulation.deviation_scan"))
                              / _sum_attr(v.named("simulation.deviation_scan"), "candidates"))
                if v.named("simulation.deviation_scan") else None,
                ("verify.best_response",)),
    LayerMetric("simulation.recall_s.acc0.3", "s", "lower", "wall_s on verify",
                lambda v, f: _percentile([s.seconds for s in v.named(
                    "simulation.recall_irrelevance_check", acc=0.3)], 0.5),
                ("verify.recall",)),
    LayerMetric("simulation.recall_s.acc0.03", "s", "lower", "wall_s on explore",
                lambda v, f: _percentile([s.seconds for s in v.named(
                    "simulation.recall_irrelevance_check", acc=0.03)], 0.5),
                ("explore.recall.acc0.03",)),
    LayerMetric("simulation.capped_frac", "fraction", "lower", "nothing end to end",
                lambda v, f: (_sum_attr(v.named("simulation.simulate_contest"), "capped")
                              / _sum_attr(v.named("simulation.simulate_contest"), "reps"))
                if v.named("simulation.simulate_contest") else None),
    LayerMetric("simulation.self_s", "s", "lower", "wall_s on verify and explore",
                lambda v, f: v.layer_self_s("simulation")),
    LayerMetric("cli.self_s", "s", "lower", "wall_s on tables and verify",
                lambda v, f: v.layer_self_s("cli"), _WELFARE),
    LayerMetric("cli.calls", "count", "lower", "wall_s on tables and verify",
                lambda v, f: _count(v.layer("cli")), _WELFARE),
]
# measured by the traced run itself rather than from spans
RUN_METRICS = [
    LayerMetric("simulation.thread_speedup.2", "x", "higher", "nothing end to end: scaling"),
    LayerMetric("bench.trace_overhead_s", "s", "lower", "nothing: traced minus untraced wall_s"),
]


def missing(spans: list[Span], frontier_cells: set[str]) -> list[LayerMetric]:
    view = _View(spans)
    return [m for m in LAYER_METRICS if m.value(view, frontier_cells) is None]


def layer_metrics(own: list[Span], probe: list[Span],
                  frontier_cells: set[str]) -> tuple[dict[str, float], list[str]]:
    """Each metric from the workload's own spans, or from the probes' when it has none.

    Returns the values and the names of the metrics the probes supplied.
    """
    views = (_View(own), _View(probe))
    values, from_probe = {}, []
    for m in LAYER_METRICS:
        value = m.value(views[0], frontier_cells)
        if value is None:
            value = m.value(views[1], frontier_cells)
            from_probe.append(m.name)
        if value is None:
            raise RuntimeError(f"no sample for per-layer metric {m.name}")
        values[m.name] = float(value)
    return values, from_probe
