"""Command-line interface.

Three families of subcommands: `solve` prints one equilibrium or optimum as
JSON (with a `# key: value` human summary above it), `table` writes CSV
sweeps, and `verify` runs simulation-based consistency checks. Every JSON
payload carries a manifest (command, parameters, distribution, seed,
version, timestamp) next to, never inside, the result block, so result
bytes stay comparable across runs.

Exit codes: 0 success, 1 usage or invalid parameters, 2 no equilibrium or
numeric failure, 3 verification failed.
"""
from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .distributions import Distribution, distribution_from_spec
from .equilibrium import (
    ContestParams,
    PrizeSchedule,
    solve_asymmetric,
    solve_multiprize,
    solve_symmetric,
)
from .errors import InvalidParameterError, NumericFailureError, SearchContestError
from .finite_horizon import FiniteHorizonParams, solve_k_draw, solve_two_draw, threshold_profile
from .hierarchy import DesignerParams, solve_designer, verify_designer_foc
from .planner import classify_prize, efficient_prize_integral, solve_planner
from .serialize import canonical, csv_text, format_full, to_json, write_json
from .simulation import (
    InfiniteThresholdStrategy,
    SimulationConfig,
    StrategyProfile,
    deviation_scan,
    distribution_free_check,
    recall_irrelevance_check,
    simulate_contest,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_seed() -> int:
    raw = os.environ.get("SEARCHCONTEST_SEED", "12345")
    try:
        return int(raw)
    except ValueError:
        return 12345


def _floats(text: str) -> list[float]:
    """argparse type of the comma lists: a malformed number is a usage error."""
    try:
        return [float(x) for x in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated numbers: {text!r}") from None


def _dist_spec(text: str) -> dict:
    """argparse type of --dist, family:params."""
    family, _, rest = text.partition(":")
    return {"family": family.strip(), "params": _floats(rest)}


def _parse_dist(args: argparse.Namespace) -> Distribution:
    if args.dist_file:
        try:
            spec = json.loads(Path(args.dist_file).read_text())
        except (OSError, ValueError) as ex:  # JSON and decoding errors are ValueErrors
            raise InvalidParameterError(f"cannot read --dist-file: {ex}") from None
        return distribution_from_spec(spec)
    return distribution_from_spec(args.dist or {"family": "uniform", "params": [0.0, 1.0]})


def _manifest(args: argparse.Namespace, command: str, parameters: dict,
              dist: Distribution | None) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "distribution": dist.spec() if dist is not None else None,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(),
    }


def _check_writable(path: str, flag: str) -> None:
    """Refuse an --output/--out path that cannot be written before any solver
    runs; nothing is created."""
    p = Path(path)
    if p.exists():
        ok = p.is_file() and os.access(p, os.W_OK)
    else:
        ok = p.parent.is_dir() and os.access(p.parent, os.W_OK)
    if not ok:
        raise InvalidParameterError(f"cannot write {flag}: {path}")


def _emit(args: argparse.Namespace, command: str, parameters: dict,
          dist: Distribution | None, result, summary: Sequence[str]) -> int:
    payload = {"manifest": _manifest(args, command, parameters, dist),
               "result": canonical(result)}
    text = to_json(payload)
    if args.output:  # written first, so a path that cannot be written leaves stdout empty
        try:
            Path(args.output).write_text(text + "\n")
        except OSError as ex:
            raise InvalidParameterError(f"cannot write --output: {ex}") from None
    for line in summary:
        print(f"# {line}")
    print(text)
    return 0


def _write_table(args: argparse.Namespace, command: str, parameters: dict,
                 header: Sequence[str], rows, diagnostics=None) -> int:
    text = csv_text(header, rows)
    if args.out:
        out = Path(args.out)
        try:
            out.write_text(text)
            write_json(out.with_suffix(out.suffix + ".manifest.json"),
                       _manifest(args, command, parameters, None))
            if diagnostics is not None:
                write_json(out.with_suffix(out.suffix + ".diagnostics.json"), diagnostics)
        except OSError as ex:
            raise InvalidParameterError(f"cannot write --out: {ex}") from None
        print(f"# wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def _fmt3(x: float | None) -> str:
    return "" if x is None else f"{x:.3f}"


def _contest(args) -> tuple[ContestParams, dict]:
    """The contest of --n/--cost/--prize and its manifest parameters."""
    return (ContestParams(args.n, args.cost, args.prize),
            {"n_players": args.n, "cost": args.cost, "prize": args.prize})


def _designer(args) -> tuple[DesignerParams, dict]:
    return (DesignerParams(args.designers, args.team_size, args.cost, args.meta_prize),
            {"n_designers": args.designers, "team_size": args.team_size,
             "cost": args.cost, "meta_prize": args.meta_prize})


def _sim_config(args) -> SimulationConfig:
    return SimulationConfig(args.reps, args.seed, n_threads=args.threads)


# ---------------------------------------------------------------- solve


def _cmd_solve_symmetric(args) -> int:
    d = _parse_dist(args)
    params, fields = _contest(args)
    eq = solve_symmetric(params, d)
    return _emit(
        args, "solve symmetric", fields, d, eq,
        [f"threshold: {eq.threshold:.6g}",
         f"acceptance_prob: {eq.acceptance_prob:.6g}",
         f"dissipation_ratio: {eq.dissipation_ratio:.6g}"],
    )


def _cmd_solve_multiprize(args) -> int:
    d = _parse_dist(args)
    prizes = PrizeSchedule(tuple(args.prizes))
    eq = solve_multiprize(args.n, args.cost, prizes, d)
    return _emit(
        args, "solve multiprize",
        {"n_players": args.n, "cost": args.cost, "prizes": list(prizes.prizes)}, d, eq,
        [f"threshold: {eq.threshold:.6g}",
         f"player_value: {eq.player_value:.6g}",
         f"dissipation_ratio: {eq.dissipation_ratio:.6g}"],
    )


def _cmd_solve_asymmetric(args) -> int:
    d = _parse_dist(args)
    params, fields = _contest(args)
    eq = solve_asymmetric(params, d)
    return _emit(
        args, "solve asymmetric", fields, d, eq,
        [f"low_threshold: {eq.low_threshold:.6g}",
         f"high_threshold: {eq.high_threshold:.6g}",
         f"high_player_value: {eq.high_player_value:.6g}"],
    )


def _cmd_solve_finite(args) -> int:
    params = FiniteHorizonParams(args.n, args.cost_ratio, args.k)
    if args.k == 2 and args.init:
        raise InvalidParameterError("--init needs k >= 3; k=2 has a closed form")
    sol = (solve_two_draw(args.n, args.cost_ratio) if args.k == 2
           else solve_k_draw(params, args.init or None))
    d = _parse_dist(args) if (args.dist or args.dist_file) else None
    result = {"round_quantiles": list(sol.round_quantiles), "exists": sol.exists}
    if d is not None and sol.exists:
        result["round_thresholds"] = [float(d.quantile(q)) for q in sol.round_quantiles]
    if not sol.exists:
        print("# no symmetric equilibrium at these parameters", file=sys.stderr)
    summary = (["round_quantiles: " + ",".join(f"{q:.6g}" for q in sol.round_quantiles)]
               if sol.exists else ["exists: false"])
    _emit(args, "solve finite",
          {"n_players": args.n, "cost_ratio": args.cost_ratio, "n_draws": args.k},
          d, result, summary)
    return 0 if sol.exists else 2


def _cmd_solve_designer(args) -> int:
    d = _parse_dist(args)
    params, fields = _designer(args)
    eq = solve_designer(params, d)
    return _emit(
        args, "solve designer", fields, d, eq,
        [f"threshold: {eq.threshold:.6g}",
         f"internal_prize: {eq.internal_prize:.6g}",
         f"dissipation_ratio: {eq.dissipation_ratio:.6g}"],
    )


def _cmd_solve_planner(args) -> int:
    d = _parse_dist(args)
    sol = solve_planner(args.n, args.cost, d)
    result = canonical(sol)
    result["efficient_prize_hazard_form"] = efficient_prize_integral(sol, args.n, d)
    if args.classify is not None:
        result["classification"] = canonical(
            classify_prize(args.classify, sol, args.n, args.cost, d))
    return _emit(
        args, "solve planner",
        {"n_players": args.n, "cost": args.cost, "classify": args.classify}, d, result,
        [f"threshold: {sol.threshold:.6g}",
         f"efficient_prize: {sol.efficient_prize:.6g}",
         f"interior: {sol.interior}"],
    )


# ---------------------------------------------------------------- table


def _finite_table(args, k: int) -> int:
    ratios = args.cost_ratios
    n_range = range(args.n_min, args.n_max + 1)
    header = (["cost_ratio", "n_players", "exists"]
              + [f"a{j}" for j in range(1, k)]
              + [f"a{j}_full" for j in range(1, k)])
    rows = []
    diagnostics = []
    for r in ratios:
        profile = threshold_profile(k, r, n_range)
        for row in profile.rows:
            qs = row.round_quantiles if row.exists else (None,) * (k - 1)
            rows.append([r, row.n_players, int(row.exists)]
                        + [_fmt3(q) for q in qs]
                        + [format_full(q) if q is not None else "" for q in qs])
        diagnostics.append({"cost_ratio": r, "peak_n": profile.peak_n,
                            "frontier_n": profile.frontier_n})
    return _write_table(
        args, f"table finite_k{k}",
        {"cost_ratios": ratios, "n_min": args.n_min, "n_max": args.n_max},
        header, rows, {"profiles": diagnostics},
    )


def _cmd_table(args) -> int:
    if args.kind in ("finite_k2", "finite_k3"):
        return _finite_table(args, 2 if args.kind == "finite_k2" else 3)
    if args.kind == "profile":
        profile = threshold_profile(args.k, args.cost_ratio, range(args.n_min, args.n_max + 1))
        header = ["N"] + [f"a{j}" for j in range(1, args.k)] + ["exists"]
        rows = []
        for row in profile.rows:
            qs = row.round_quantiles if row.exists else (None,) * (args.k - 1)
            rows.append([row.n_players]
                        + [format_full(q) if q is not None else "" for q in qs]
                        + [int(row.exists)])
        diag = {"cost_ratio": args.cost_ratio, "n_draws": args.k,
                "peak_n": profile.peak_n, "frontier_n": profile.frontier_n}
        return _write_table(args, "table profile",
                            {"k": args.k, "cost_ratio": args.cost_ratio,
                             "n_min": args.n_min, "n_max": args.n_max},
                            header, rows, diag)
    # welfare_examples: efficient thresholds and prizes for the stock families
    specs = [
        {"family": "uniform", "params": [0.0, 1.0]},
        {"family": "exponential", "params": [1.0]},
        {"family": "pareto", "params": [2.0, 1.0]},
    ]
    rows = []
    for spec in specs:
        d = distribution_from_spec(spec)
        sol = solve_planner(args.n, args.cost, d)
        rows.append([spec["family"], f"{sol.threshold:.3f}", f"{sol.efficient_prize:.3f}",
                     format_full(sol.threshold), format_full(sol.efficient_prize)])
    return _write_table(args, "table welfare_examples",
                        {"n_players": args.n, "cost": args.cost},
                        ["family", "b_star", "w_star", "b_star_full", "w_star_full"], rows)


# ---------------------------------------------------------------- verify


def _verdict(args, command: str, parameters: dict, dist, result, passed: bool,
             summary: Sequence[str]) -> int:
    _emit(args, command, parameters, dist, result,
          list(summary) + [f"verify: {'PASS' if passed else 'FAIL'}"])
    return 0 if passed else 3


def _cmd_verify_dissipation(args) -> int:
    d = _parse_dist(args)
    params, fields = _contest(args)
    eq = solve_symmetric(params, d)
    profile = StrategyProfile((InfiniteThresholdStrategy(eq.threshold),) * args.n)
    rep = simulate_contest(profile, params, d, _sim_config(args))
    gap = abs(rep.dissipation_ratio - 1.0)
    payoff_ok = all(abs(m) <= 3.0 * s for m, s in zip(rep.mean_payoff, rep.se_payoff))
    passed = gap <= 3.0 * rep.se_dissipation and payoff_ok
    return _verdict(
        args, "verify dissipation", {**fields, "replications": args.reps}, d, rep, passed,
        [f"dissipation: {rep.dissipation_ratio:.6f} (se {rep.se_dissipation:.2g})",
         f"payoffs_within_3se: {payoff_ok}"],
    )


def _cmd_verify_distribution_free(args) -> int:
    dists = [distribution_from_spec({"family": f, "params": p}) for f, p in
             (("uniform", [0.0, 1.0]), ("exponential", [1.0]), ("pareto", [2.0, 1.0]))]
    extra = _parse_dist(args) if (args.dist or args.dist_file) else None
    if extra is not None:
        dists.append(extra)
    params, fields = _contest(args)
    rep = distribution_free_check(params, dists, _sim_config(args))
    return _verdict(
        args, "verify distribution_free", {**fields, "replications": args.reps}, extra, rep,
        rep.passed, [f"max_pairwise_sigma: {rep.max_pairwise_sigma:.3f}"],
    )


def _cmd_verify_best_response(args) -> int:
    d = _parse_dist(args)
    params, fields = _contest(args)
    qs = np.linspace(0.02, 0.98, args.grid)
    candidates = [InfiniteThresholdStrategy(float(d.quantile(q))) for q in qs]
    if args.profile == "asymmetric":
        eq = solve_asymmetric(params, d)
        strategies = ((InfiniteThresholdStrategy(eq.low_threshold),) * (args.n - 1)
                      + (InfiniteThresholdStrategy(eq.high_threshold),))
        players = [0, args.n - 1]
    else:
        eq = solve_symmetric(params, d)
        strategies = (InfiniteThresholdStrategy(eq.threshold),) * args.n
        players = [0]
    profile = StrategyProfile(strategies)
    cfg = _sim_config(args)
    scans = [deviation_scan(profile, i, candidates, params, d, cfg) for i in players]
    passed = not any(s.any_flagged for s in scans)
    return _verdict(
        args, "verify best_response",
        {**fields, "profile": args.profile, "grid": args.grid, "replications": args.reps},
        d, {"scans": [canonical(s) for s in scans]}, passed,
        [f"profitable_deviation_found: {not passed}"],
    )


def _cmd_verify_designer_foc(args) -> int:
    d = _parse_dist(args)
    params, fields = _designer(args)
    rep = verify_designer_foc(params, d, step=args.step)
    return _verdict(
        args, "verify designer_foc", {**fields, "step": args.step}, d, rep, rep.passed,
        [f"fd_vs_closed_rel_error: {rep.relative_error:.3g}",
         f"win_prob_at_equilibrium: {rep.prob_at_equilibrium:.9f}"],
    )


def _cmd_verify_recall(args) -> int:
    d = _parse_dist(args)
    params, fields = _contest(args)
    rep = recall_irrelevance_check(params, d, _sim_config(args))
    return _verdict(
        args, "verify recall", {**fields, "replications": args.reps}, d, rep, rep.passed,
        [f"ks_statistic: {rep.ks_statistic:.5f} (critical {rep.critical_value:.5f})"],
    )


# ---------------------------------------------------------------- wiring

_REQUIRED = ...  # default of a flag that must be given
_PRIZE = ("--prize", float, 1.0)
_DIST_FLAGS = [
    ("--dist", _dist_spec, None, "family:params, e.g. uniform:0,1 exponential:1 pareto:2,1"),
    ("--dist-file", None, None, "path to a JSON distribution spec"),
]


def _n_cost(n=_REQUIRED, cost=_REQUIRED) -> list:
    return [("--n", int, n), ("--cost", float, cost)]


def _designer_flags(designers=_REQUIRED, team_size=_REQUIRED, cost=_REQUIRED) -> list:
    return [("--designers", int, designers), ("--team-size", int, team_size),
            ("--cost", float, cost), ("--meta-prize", float, 1.0)]


def _add_flags(p: argparse.ArgumentParser, rows) -> None:
    """Add (flag, type or tuple of choices, default[, help]) rows in order."""
    for flag, kind, default, *help_ in rows:
        typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        required = default is _REQUIRED
        p.add_argument(flag, required=required, default=None if required else default,
                       help=help_[0] if help_ else None, **typed)


def _leaf(sub, name: str, func, rows: list, sim: Sequence = ()) -> None:
    """A solve or verify subcommand: its rows, the distribution flags, the
    simulation rows if any, then --output."""
    p = sub.add_parser(name)
    _add_flags(p, rows + _DIST_FLAGS + list(sim) + [("--output", None, None)])
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="searchcontest",
                     description="Equilibria, optima and simulations of search contests.")
    parser.add_argument("--version", action="version", version=f"searchcontest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    seed = ("--seed", int, _default_seed())
    sim = [("--reps", int, 200_000), seed, ("--threads", int, 1)]

    solve = sub.add_parser("solve", help="compute one equilibrium or optimum")
    ssub = solve.add_subparsers(dest="what", required=True, parser_class=_Parser)
    _leaf(ssub, "symmetric", _cmd_solve_symmetric, _n_cost() + [_PRIZE])
    _leaf(ssub, "multiprize", _cmd_solve_multiprize, _n_cost() + [
        ("--prizes", _floats, _REQUIRED, "comma-separated, non-increasing")])
    _leaf(ssub, "asymmetric", _cmd_solve_asymmetric, _n_cost() + [_PRIZE])
    _leaf(ssub, "finite", _cmd_solve_finite, [
        ("--n", int, _REQUIRED), ("--k", int, _REQUIRED), ("--cost-ratio", float, _REQUIRED),
        ("--init", _floats, None, "comma-separated starting quantiles")])
    _leaf(ssub, "designer", _cmd_solve_designer, _designer_flags())
    _leaf(ssub, "planner", _cmd_solve_planner, _n_cost() + [
        ("--classify", float, None, "also classify this prize")])

    table = sub.add_parser("table", help="write CSV sweeps")
    table.add_argument("kind", choices=["finite_k2", "finite_k3", "profile", "welfare_examples"])
    _add_flags(table, [
        ("--cost-ratios", _floats, "0.0,0.05,0.10"), ("--cost-ratio", float, 0.1),
        ("--k", int, 3), ("--n-min", int, 2), ("--n-max", int, 9), ("--n", int, 2),
        ("--cost", float, 0.1), ("--out", None, None, "CSV path; stdout when omitted")])
    table.set_defaults(func=_cmd_table)

    verify = sub.add_parser("verify", help="simulation-based consistency checks")
    vsub = verify.add_subparsers(dest="what", required=True, parser_class=_Parser)
    _leaf(vsub, "dissipation", _cmd_verify_dissipation, _n_cost(3, 0.1) + [_PRIZE], sim)
    _leaf(vsub, "distribution_free", _cmd_verify_distribution_free,
          _n_cost(2, 0.05) + [_PRIZE], sim)
    _leaf(vsub, "best_response", _cmd_verify_best_response, _n_cost(3, 0.1) + [
        _PRIZE, ("--profile", ("symmetric", "asymmetric"), "symmetric"), ("--grid", int, 25)],
        sim)
    _leaf(vsub, "designer_foc", _cmd_verify_designer_foc,
          _designer_flags(2, 2, 0.05) + [("--step", float, 1e-5), seed])
    _leaf(vsub, "recall", _cmd_verify_recall, _n_cost(3, 0.1) + [_PRIZE], sim)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("output", "out"):
            if getattr(args, flag, None):
                _check_writable(getattr(args, flag), f"--{flag}")
        return args.func(args)
    except SearchContestError as ex:
        print(f"searchcontest: error: {ex}", file=sys.stderr)
        if isinstance(ex, NumericFailureError):
            print(to_json(ex.diagnostics, indent=None), file=sys.stderr)
        return 1 if isinstance(ex, InvalidParameterError) else 2


if __name__ == "__main__":
    sys.exit(main())
