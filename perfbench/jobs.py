"""The job lists of the three workloads, and the check of every job's output.

Every job calls the library through module attributes (`sc_fh.solve_k_draw`,
`sc_cli.main`, ...), so the shims that `spans.installed` puts on those
attributes see the calls. Nothing here writes into the repository's `out/`.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import searchcontest.cli as sc_cli
import searchcontest.distributions as sc_dist
import searchcontest.equilibrium as sc_eq
import searchcontest.finite_horizon as sc_fh
import searchcontest.planner as sc_planner
import searchcontest.simulation as sc_sim
from searchcontest.errors import SearchContestError

HERE = Path(__file__).resolve().parent
WORKLOADS = ("tables", "verify", "explore")

# scripts/reproduce_tables.py, minus the --out argument
TABLES = {
    "finite_k2": ["table", "finite_k2"],
    "finite_k3": ["table", "finite_k3"],
    "welfare_examples": ["table", "welfare_examples", "--n", "2", "--cost", "0.1"],
}
# scripts/run_verifications.py at its replication counts, minus --seed
VERIFY = {
    "dissipation": ["verify", "dissipation", "--n", "3", "--cost", "0.1", "--reps", "200000"],
    "distribution_free": ["verify", "distribution_free", "--n", "2", "--cost", "0.05",
                          "--reps", "150000"],
    "best_response": ["verify", "best_response", "--profile", "asymmetric", "--n", "3",
                      "--cost", "0.1", "--reps", "200000"],
    "designer_foc": ["verify", "designer_foc", "--designers", "2", "--team-size", "2",
                     "--cost", "0.05"],
    "recall": ["verify", "recall", "--n", "3", "--cost", "0.1"],
}
# explore: k=4..6 cells off the golden tables, interior ones first, then two
# that need restarts (multistart, Newton). The known-defect cell raises a raw
# OverflowError at the seed commit; it stays in the list so a fix shows.
KNOWN_DEFECT_CELL = (4, 15, 0.06539)
KDRAW_CELLS = [
    (4, 3, 0.03), (4, 5, 0.06), (5, 5, 0.03), (5, 12, 0.0), (6, 2, 0.06), (6, 8, 0.0),
    (4, 8, 0.06), (4, 14, 0.06),
    KNOWN_DEFECT_CELL,
]
PLANNER_CASES = {  # label: (n_players, cost, distribution spec)
    "pareto_n3": (3, 0.1, {"family": "pareto", "params": [2.0, 1.0]}),
    "grid": (2, 0.1, {"family": "custom", "quantile_grid": [[0.0, 0.0], [0.5, 1.0], [1.0, 3.0]]}),
}
EXPLORE_SIM = (3, 0.01, {"family": "exponential", "params": [1.0]})  # acceptance 0.03
EXPLORE_REPS = 200_000
PROBE_SIM = (3, 0.1, {"family": "uniform", "params": [0.0, 1.0]})  # acceptance 0.3
PROBE_REPS = 200_000
KDRAW_TOL = 1e-9
PLANNER_RTOL = 1e-8
PLANNER_FIELDS = ("threshold", "welfare", "efficient_prize", "acceptance_prob")


@dataclass(frozen=True)
class Job:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]  # receives the result, or the SearchContestError raised
    known_defect: bool = False  # its failure is a documented defect, not a wrong answer


@dataclass(frozen=True)
class Outcome:
    job: Job
    seconds: float
    ref_seconds: float
    ok: bool
    error: str | None
    result: Any = None


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def simulation_seed(seed: int, reference: dict) -> int:
    """The seed every SimulationConfig gets.

    The statistical gates are 1-percent-level tests, so about one seed in
    twenty fails one of them by chance. Seeds on which the seed commit passes
    every gate are used as they are; any other seed is folded onto that list,
    so a failed gate points at a change in the code, not at the seed.
    """
    vetted = reference["simulation_seeds"]
    return seed if seed in vetted else vetted[seed % len(vetted)]


def run_job(job: Job, timing: Callable) -> Outcome:
    """Run and check one job, timed by `timing` (a Clock's timing)."""
    error = None
    with timing() as t:
        try:
            out = job.call()
        except SearchContestError as ex:
            out = ex
        except Exception as ex:  # an escaped crash fails the job, not the benchmark
            out, error = None, f"{type(ex).__name__}: {ex}"
    ok = error is None and job.check(out)
    if not ok and error is None:
        error = "output check failed"
    return Outcome(job, t.seconds, t.ref_seconds, ok, error, out)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = sc_cli.main(argv)
    return rc, out.getvalue()


def _table_job(name: str, tmp: Path, golden: Path) -> Job:
    expected = {p.name: p.read_bytes() for p in sorted(golden.glob(f"{name}.csv*"))}
    argv = TABLES[name] + ["--out", str(tmp / f"{name}.csv")]

    def call():
        for fname in expected:
            (tmp / fname).unlink(missing_ok=True)
        return _cli(argv)

    def check(res) -> bool:
        return (isinstance(res, tuple) and res[0] == 0
                and all((tmp / f).is_file() and (tmp / f).read_bytes() == b
                        for f, b in expected.items()))

    return Job(f"tables.{name}", call, check)


def _verify_job(name: str, sim_seed: int) -> Job:
    argv = VERIFY[name] + ["--seed", str(sim_seed)]

    def check(res) -> bool:
        return isinstance(res, tuple) and res[0] == 0 and "# verify: PASS" in res[1]

    return Job(f"verify.{name}", lambda: _cli(argv), check)


def _is_equilibrium(eq, n: int, r: float, k: int) -> bool:
    """Best-response fixed point, checked with the public OpponentFinalCdf."""
    a = eq.round_quantiles
    if len(a) != k - 1 or any(not 0.0 <= q < 1.0 for q in a):
        return False
    p = n - 1
    h = sc_fh.OpponentFinalCdf(a)
    v_next = -r + h.integral_power(p)  # value of the forced last draw
    for j in range(k - 2, -1, -1):
        target = max(v_next, 0.0) ** (1.0 / p)
        if abs(float(h.inverse(target)) - a[j]) > 1e-6:
            return False
        v_next = -r + a[j] * v_next + h.integral_power(p, a[j], 1.0)
    return True


def _kdraw_job(cell: tuple[int, int, float], reference: dict) -> Job:
    k, n, r = cell
    known_defect = cell == KNOWN_DEFECT_CELL
    expected = None if known_defect else reference["kdraw"][cell_key(cell)]

    def call():
        return sc_fh.solve_k_draw(sc_fh.FiniteHorizonParams(n, r, k))

    def check(res) -> bool:
        if known_defect:  # no seed-commit answer: a clean error or a true fixed point
            return (isinstance(res, SearchContestError) or not res.exists
                    or _is_equilibrium(res, n, r, k))
        return (not isinstance(res, SearchContestError) and res.exists
                and len(res.round_quantiles) == len(expected)
                and all(abs(q - e) <= KDRAW_TOL for q, e in zip(res.round_quantiles, expected)))

    return Job(kdraw_job_name(cell), call, check, known_defect)


def _planner_job(label: str, expected: dict) -> Job:
    n, cost, spec = PLANNER_CASES[label]

    def call():
        return sc_planner.solve_planner(n, cost, sc_dist.distribution_from_spec(spec))

    def check(res) -> bool:
        return (not isinstance(res, SearchContestError)
                and res.interior == expected["interior"]
                and all(abs(getattr(res, f) - expected[f]) <= PLANNER_RTOL * abs(expected[f])
                        for f in PLANNER_FIELDS))

    return Job(f"explore.planner.{label}", call, check)


def symmetric_setup(case: tuple) -> tuple:
    """Contest parameters, distribution and symmetric equilibrium profile."""
    n, cost, spec = case
    params = sc_eq.ContestParams(n, cost, 1.0)
    d = sc_dist.distribution_from_spec(spec)
    eq = sc_eq.solve_symmetric(params, d)
    profile = sc_sim.StrategyProfile((sc_sim.InfiniteThresholdStrategy(eq.threshold),) * n)
    return params, d, profile


def _simulate_job(sim_seed: int) -> Job:
    def call():
        params, d, profile = symmetric_setup(EXPLORE_SIM)
        return sc_sim.simulate_contest(profile, params, d,
                                       sc_sim.SimulationConfig(EXPLORE_REPS, sim_seed))

    def check(rep) -> bool:  # the repo's gate: dissipation within 3 SE of 1
        return (not isinstance(rep, SearchContestError)
                and abs(rep.dissipation_ratio - 1.0) <= 3.0 * rep.se_dissipation)

    return Job("explore.simulate.acc0.03", call, check)


def _recall_job(sim_seed: int) -> Job:
    def call():
        params, d, _ = symmetric_setup(EXPLORE_SIM)
        return sc_sim.recall_irrelevance_check(params, d,
                                               sc_sim.SimulationConfig(EXPLORE_REPS, sim_seed))

    def check(rep) -> bool:  # the repo's gate: KS statistic below its critical value
        return not isinstance(rep, SearchContestError) and rep.passed

    return Job("explore.recall.acc0.03", call, check)


def build_jobs(workload: str, sim_seed: int, tmp: Path, reference: dict) -> list[Job]:
    """The workload's job list, in the order one pass runs it."""
    if workload == "tables":
        golden = HERE / "golden"
        return [_table_job(name, tmp, golden) for name in TABLES]
    if workload == "verify":
        return [_verify_job(name, sim_seed) for name in VERIFY]
    if workload == "explore":
        return ([_kdraw_job(c, reference) for c in KDRAW_CELLS]
                + [_planner_job(label, reference["planner"][label]) for label in PLANNER_CASES]
                + [_simulate_job(sim_seed), _recall_job(sim_seed)])
    raise ValueError(f"unknown workload {workload!r}")


def cell_key(cell: tuple[int, int, float]) -> str:
    k, n, r = cell
    return f"{k},{n},{r!r}"


def kdraw_job_name(cell: tuple[int, int, float]) -> str:
    k, n, r = cell
    return f"explore.kdraw.k{k}.n{n}.r{r:g}"


def thread_probe(sim_seed: int, threads: int, repeats: int = 3) -> tuple[bool, float]:
    """simulate_contest at acceptance 0.3 on 1 and on `threads` threads.

    Returns whether every report is byte-identical to the one-thread report,
    and the median one-thread time over the median `threads`-thread time.
    """
    params, d, profile = symmetric_setup(PROBE_SIM)
    reports, times = {1: [], threads: []}, {1: [], threads: []}
    for _ in range(repeats):
        for t in (1, threads):
            cfg = sc_sim.SimulationConfig(PROBE_REPS, sim_seed, n_threads=t)
            t0 = time.perf_counter()
            rep = sc_sim.simulate_contest(profile, params, d, cfg)
            times[t].append(time.perf_counter() - t0)
            reports[t].append(repr(rep))
    first = reports[1][0]
    identical = all(r == first for rs in reports.values() for r in rs)
    med = {t: sorted(v)[len(v) // 2] for t, v in times.items()}
    return identical, med[1] / med[threads]
