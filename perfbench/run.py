#!/usr/bin/env python3
"""Benchmark of the searchcontest package: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {tables,verify,explore} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/`. One process drives the jobs as a single closed-loop caller: each job
starts when the previous one ends, and simulations run on one thread.

`--trace 0` repeats the workload's job list until S seconds have passed and
reports the end-to-end metrics. Times are in reference seconds (see
clock.py): wall time corrected for the drift in the speed of a shared core.
- wall_s: median over passes of the job list's reference seconds.
- jobs_per_s: correct jobs per pass over wall_s.
- setup_s: median over SETUP_SAMPLES fresh interpreters of the reference
  seconds to import the package and build the workload's inputs.
- peak_rss_mb: peak resident memory of the process.
- ok_frac: jobs that passed their check over jobs attempted.

`--trace 1` runs the job list once untraced and once with spans on the
library's layer boundaries, then a thread-invariance probe, then the jobs of
other workloads that reach the layers this one does not, and reports the
per-layer metrics of `spans.LAYER_METRICS`, times in reference seconds too;
the tracing overhead is the traced pass minus the untraced one.
The spans are written to `.perfbench/trace-<workload>-<seed>.json`.

The line before the last gives the machine facts, the seeds and the raw pass
times; the last line of standard output is the JSON result.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS, here and in child processes

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
DEFAULT_SEED = 12345  # the package's SEARCHCONTEST_SEED default


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("tables", "verify", "explore"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_package():
    if not (SRC / "searchcontest" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no searchcontest package under {SRC}")
    sys.path.insert(0, str(SRC))
    import searchcontest

    if Path(searchcontest.__file__).resolve().parent != SRC / "searchcontest":
        raise SystemExit(f"perfbench: imported searchcontest from {searchcontest.__file__}")


def machine_facts() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _inputs(workload: str, seed: int, tmp: Path):
    """Import the package and build the workload's jobs: what set-up covers."""
    _import_package()
    from jobs import build_jobs, load_reference, simulation_seed

    reference = load_reference()
    sim_seed = simulation_seed(seed, reference)
    return build_jobs(workload, sim_seed, tmp, reference), sim_seed, reference


def measure_setup(args) -> float:
    """Median reference seconds of fresh interpreters running the set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True)
        samples.append(json.loads(out.stdout)["ref_seconds"])
    return statistics.median(samples)


def run_pass(jobs, timing, tracer=None, tag=""):
    from jobs import run_job

    if tracer is None:
        return [run_job(j, timing) for j in jobs]
    outcomes = []
    for j in jobs:
        with tracer.job_span(f"{tag}:{j.name}"):
            outcomes.append(run_job(j, timing))
    return outcomes


def _wall(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def _ref_wall(outcomes) -> float:
    return sum(o.ref_seconds for o in outcomes)


def end_to_end(args, jobs):
    setup_s = measure_setup(args)
    clock = Clock()
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(run_pass(jobs, clock.timing))
    wall_ref = [_ref_wall(p) for p in passes]
    wall_s = statistics.median(wall_ref)
    outcomes = [o for p in passes for o in p]
    n_ok = sum(o.ok for o in outcomes)
    metrics = {
        "wall_s": (wall_s, "s"),
        "jobs_per_s": (n_ok / len(passes) / wall_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (n_ok / len(outcomes), "fraction"),
    }
    return metrics, outcomes, {"passes": len(passes), "pass_s": [_wall(p) for p in passes],
                               "pass_ref_s": wall_ref}


def traced(args, jobs, sim_seed, reference, tmp):
    import spans
    from jobs import Job, WORKLOADS, build_jobs, thread_probe

    frontier = set(reference["frontier_cells"])
    by_name = {j.name: j for w in WORKLOADS for j in build_jobs(w, sim_seed, tmp, reference)}
    threads = min(2, len(os.sched_getaffinity(0)))
    probe_threads = Job("probe.threads", lambda: thread_probe(sim_seed, threads),
                        lambda res: isinstance(res, tuple) and res[0])

    tracer = spans.Tracer()
    clock = Clock(on_loop=tracer.pause)
    untraced = run_pass(jobs, clock.timing)
    with spans.installed(tracer):
        own_outcomes = run_pass(jobs, clock.timing, tracer, "pass")
        n_own = len(tracer.spans)
        needed = sorted({p for m in spans.missing(tracer.spans, frontier) for p in m.probes})
        probe_outcomes = run_pass([probe_threads] + [by_name[n] for n in needed],
                                  clock.timing, tracer, "probe")
    if not probe_outcomes[0].ok:
        raise SystemExit(f"perfbench: thread probe failed: {probe_outcomes[0].error}")
    spans.calibrate(tracer.spans, clock.samples, clock.REF_S)
    own, probe = tracer.spans[:n_own], tracer.spans[n_own:]
    values, from_probe = spans.layer_metrics(own, probe, frontier)
    values["simulation.thread_speedup.2"] = probe_outcomes[0].result[1]
    values["bench.trace_overhead_s"] = _ref_wall(own_outcomes) - _ref_wall(untraced)

    units = {m.name: m.unit for m in spans.LAYER_METRICS + spans.RUN_METRICS}
    metrics = {name: (v, units[name]) for name, v in values.items()}
    info = {"probe_jobs": needed, "metrics_from_probes": from_probe, "threads": threads,
            "untraced_wall_s": _wall(untraced), "traced_wall_s": _wall(own_outcomes)}
    t_base = tracer.spans[0].start
    trace_file = WORK_DIR / f"trace-{args.workload}-{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "machine": machine_facts(), **info,
        "metrics": values,
        "moves": {m.name: m.moves for m in spans.LAYER_METRICS + spans.RUN_METRICS},
        "span_fields": ["id", "parent", "job", "name", "start", "end", "paused", "scale",
                        "attrs", "error", "leaf_n", "leaf_s"],
        "spans": [[s.id, s.parent, s.job, s.name, s.start - t_base, s.end - t_base, s.paused,
                   s.scale, s.attrs, s.error, s.leaf_n, s.leaf_s] for s in tracer.spans],
    }))
    info["trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics, untraced + own_outcomes + probe_outcomes, info


def main(argv=None) -> int:
    args = _parse(argv)
    tmp = WORK_DIR / f"tmp-{os.getpid()}"
    if args.setup_only:
        with Clock().timing() as t:
            _inputs(args.workload, args.seed, tmp)
        print(json.dumps({"seconds": t.seconds, "ref_seconds": t.ref_seconds}))
        return 0

    jobs, sim_seed, reference = _inputs(args.workload, args.seed, tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, outcomes, info = traced(args, jobs, sim_seed, reference, tmp)
        else:
            metrics, outcomes, info = end_to_end(args, jobs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = sorted({(o.job.name, o.error) for o in outcomes if not o.ok})
    for name, error in failures:
        print(f"perfbench: job {name} failed: {error}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "simulation_seed": sim_seed, "machine": machine_facts(), **info,
                      "failed_jobs": [name for name, _ in failures]}))
    print(json.dumps({
        "correct": all(o.ok or o.job.known_defect for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
