"""Command-line interface.

Three families of subcommands: `solve` prints one equilibrium or optimum as
JSON under a `# key: value` summary read from its result block, `table`
writes CSV sweeps, one kind per subcommand, and `verify` runs
simulation-based consistency checks. Every JSON payload carries a manifest
(command, parameters, distribution, seed, version, timestamp) next to,
never inside, the result block, so result bytes stay comparable across runs.

Exit codes: 0 success, 1 usage or invalid parameters, 2 no equilibrium or
numeric failure, 3 verification failed.
"""
from __future__ import annotations

import argparse
import datetime as _dt
import functools
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from ._numerics import linspace
from .distributions import Distribution, distribution_from_spec
from .equilibrium import (
    ContestParams,
    PrizeSchedule,
    solve_asymmetric,
    solve_multiprize,
    solve_symmetric,
)
from .errors import InvalidParameterError, NumericFailureError, SearchContestError, require_int
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


# the stock families of `table welfare_examples` and `verify distribution_free`
_STOCK_SPECS = ({"family": "uniform", "params": [0.0, 1.0]},
                {"family": "exponential", "params": [1.0]},
                {"family": "pareto", "params": [2.0, 1.0]})


def _parse_dist(args: argparse.Namespace) -> Distribution:
    if args.dist and args.dist_file:
        raise InvalidParameterError("give --dist or --dist-file, not both")
    if args.dist_file:
        try:
            spec = json.loads(Path(args.dist_file).read_text())
        except (OSError, ValueError) as ex:  # JSON and decoding errors are ValueErrors
            raise InvalidParameterError(f"cannot read --dist-file: {ex}") from None
        return distribution_from_spec(spec)
    return distribution_from_spec(args.dist or {"family": "uniform", "params": [0.0, 1.0]})


def _manifest(args: argparse.Namespace, parameters, dist: Distribution | None) -> dict:
    """parameters: a dict, or a parameter record, whose field names are the keys."""
    return {
        "command": f"{args.command} {args.what}",
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


def _emit(args: argparse.Namespace, parameters, dist: Distribution | None, result,
          show: Sequence[str] = (), extra: Sequence[str] = ()) -> int:
    """Print the `# key: value` summary, then the JSON payload. Each key in
    `show` reads its value from the canonical result block, so the summary
    carries the result's digits; `extra` lines hold what the result does not."""
    block = canonical(result)
    text = to_json({"manifest": _manifest(args, parameters, dist), "result": block})
    if args.output:  # written first, so a path that cannot be written leaves stdout empty
        try:
            Path(args.output).write_text(text + "\n")
        except OSError as ex:
            raise InvalidParameterError(f"cannot write --output: {ex}") from None
    for line in [f"{key}: {json.dumps(block[key])}" for key in show] + list(extra):
        print(f"# {line}")
    print(text)
    return 0


def _write_table(args: argparse.Namespace, parameters: dict, header: Sequence[str], rows,
                 diagnostics=None) -> int:
    text = csv_text(header, rows)
    if args.out:
        out = Path(args.out)
        try:
            out.write_text(text)
            write_json(out.with_suffix(out.suffix + ".manifest.json"),
                       _manifest(args, parameters, None))
            if diagnostics is not None:
                write_json(out.with_suffix(out.suffix + ".diagnostics.json"), diagnostics)
        except OSError as ex:
            raise InvalidParameterError(f"cannot write --out: {ex}") from None
        print(f"# wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def _cells(qs, full: bool) -> list[str]:
    """CSV cells of quantiles or prizes: 3 decimals, or 15 digits; blank for None."""
    return ["" if q is None else format_full(q) if full else f"{q:.3f}" for q in qs]


def _contest(args) -> ContestParams:
    return ContestParams(args.n, args.cost, args.prize)


def _designer(args) -> DesignerParams:
    return DesignerParams(args.designers, args.team_size, args.cost, args.meta_prize)


def _sim_config(args) -> SimulationConfig:
    return SimulationConfig(args.reps, args.seed, n_threads=args.threads)


# ---------------------------------------------------------------- solve


def _cmd_solve_symmetric(args) -> int:
    d = _parse_dist(args)
    params = _contest(args)
    return _emit(args, params, d, solve_symmetric(params, d),
                 ["threshold", "acceptance_prob", "dissipation_ratio"])


def _cmd_solve_multiprize(args) -> int:
    d = _parse_dist(args)
    prizes = PrizeSchedule(tuple(args.prizes))
    return _emit(args, {"n_players": args.n, "cost": args.cost, **canonical(prizes)}, d,
                 solve_multiprize(args.n, args.cost, prizes, d),
                 ["threshold", "player_value", "dissipation_ratio"])


def _cmd_solve_asymmetric(args) -> int:
    d = _parse_dist(args)
    params = _contest(args)
    return _emit(args, params, d, solve_asymmetric(params, d),
                 ["low_threshold", "high_threshold", "high_player_value"])


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
    _emit(args, params, d, result, ["exists", "round_quantiles"])
    return 0 if sol.exists else 2


def _cmd_solve_designer(args) -> int:
    d = _parse_dist(args)
    params = _designer(args)
    return _emit(args, params, d, solve_designer(params, d),
                 ["threshold", "internal_prize", "dissipation_ratio"])


def _cmd_solve_planner(args) -> int:
    d = _parse_dist(args)
    sol = solve_planner(args.n, args.cost, d)
    result = canonical(sol)
    result["efficient_prize_hazard_form"] = efficient_prize_integral(sol, args.n, d)
    if args.classify is not None:
        result["classification"] = canonical(
            classify_prize(args.classify, sol, args.n, args.cost, d))
    return _emit(args, {"n_players": args.n, "cost": args.cost, "classify": args.classify}, d,
                 result, ["threshold", "efficient_prize", "interior"])


# ---------------------------------------------------------------- table


def _cmd_table_finite(args) -> int:
    k = 2 if args.what == "finite_k2" else 3
    n_range = range(args.n_min, args.n_max + 1)
    header = (["cost_ratio", "n_players", "exists"]
              + [f"a{j}" for j in range(1, k)]
              + [f"a{j}_full" for j in range(1, k)])
    rows = []
    diagnostics = []
    for r in args.cost_ratios:
        profile = threshold_profile(k, r, n_range)
        for row in profile.rows:
            qs = row.round_quantiles if row.exists else (None,) * (k - 1)
            rows.append([r, row.n_players, int(row.exists)]
                        + _cells(qs, False) + _cells(qs, True))
        diagnostics.append({"cost_ratio": r, "peak_n": profile.peak_n,
                            "frontier_n": profile.frontier_n})
    return _write_table(
        args, {"cost_ratios": args.cost_ratios, "n_min": args.n_min, "n_max": args.n_max},
        header, rows, {"profiles": diagnostics},
    )


def _cmd_table_profile(args) -> int:
    profile = threshold_profile(args.k, args.cost_ratio, range(args.n_min, args.n_max + 1))
    header = ["N"] + [f"a{j}" for j in range(1, args.k)] + ["exists"]
    rows = []
    for row in profile.rows:
        qs = row.round_quantiles if row.exists else (None,) * (args.k - 1)
        rows.append([row.n_players] + _cells(qs, True) + [int(row.exists)])
    diag = {"cost_ratio": args.cost_ratio, "n_draws": args.k,
            "peak_n": profile.peak_n, "frontier_n": profile.frontier_n}
    return _write_table(args, {"k": args.k, "cost_ratio": args.cost_ratio,
                               "n_min": args.n_min, "n_max": args.n_max}, header, rows, diag)


def _cmd_table_welfare(args) -> int:
    rows = []
    for spec in _STOCK_SPECS:
        sol = solve_planner(args.n, args.cost, distribution_from_spec(spec))
        pair = [sol.threshold, sol.efficient_prize]
        rows.append([spec["family"]] + _cells(pair, False) + _cells(pair, True))
    return _write_table(args, {"n_players": args.n, "cost": args.cost},
                        ["family", "b_star", "w_star", "b_star_full", "w_star_full"], rows)


# ---------------------------------------------------------------- verify


def _verdict(args, parameters, dist, result, passed: bool,
             show: Sequence[str] = (), extra: Sequence[str] = ()) -> int:
    _emit(args, parameters, dist, result, show,
          list(extra) + [f"verify: {'PASS' if passed else 'FAIL'}"])
    return 0 if passed else 3


def _cmd_verify_dissipation(args) -> int:
    d = _parse_dist(args)
    params = _contest(args)
    eq = solve_symmetric(params, d)
    profile = StrategyProfile((InfiniteThresholdStrategy(eq.threshold),) * args.n)
    rep = simulate_contest(profile, params, d, _sim_config(args))
    gap = abs(rep.dissipation_ratio - 1.0)
    payoff_ok = all(abs(m) <= 3.0 * s for m, s in zip(rep.mean_payoff, rep.se_payoff))
    passed = gap <= 3.0 * rep.se_dissipation and payoff_ok
    return _verdict(args, {**canonical(params), "replications": args.reps}, d, rep, passed,
                    ["dissipation_ratio", "se_dissipation"],
                    [f"payoffs_within_3se: {payoff_ok}"])


def _cmd_verify_distribution_free(args) -> int:
    dists = [distribution_from_spec(spec) for spec in _STOCK_SPECS]
    extra = _parse_dist(args) if (args.dist or args.dist_file) else None
    if extra is not None:
        dists.append(extra)
    params = _contest(args)
    rep = distribution_free_check(params, dists, _sim_config(args))
    return _verdict(args, {**canonical(params), "replications": args.reps}, extra, rep,
                    rep.passed, ["max_pairwise_sigma"])


def _cmd_verify_best_response(args) -> int:
    d = _parse_dist(args)
    params = _contest(args)
    require_int("grid", args.grid, 1)
    qs = linspace(0.02, 0.98, args.grid)
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
    return _verdict(args, {**canonical(params), "profile": args.profile, "grid": args.grid,
                           "replications": args.reps}, d, {"scans": scans}, passed,
                    extra=[f"profitable_deviation_found: {not passed}"])


def _cmd_verify_designer_foc(args) -> int:
    d = _parse_dist(args)
    params = _designer(args)
    rep = verify_designer_foc(params, d, step=args.step)
    return _verdict(args, {**canonical(params), "step": args.step}, d,
                    rep, rep.passed, ["relative_error", "prob_at_equilibrium"])


def _cmd_verify_recall(args) -> int:
    d = _parse_dist(args)
    params = _contest(args)
    rep = recall_irrelevance_check(params, d, _sim_config(args))
    return _verdict(args, {**canonical(params), "replications": args.reps},
                    d, rep, rep.passed, ["ks_statistic", "critical_value"])


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


def _leaf(sub, name: str, func, rows: list, **parser_kw) -> None:
    """A subcommand that takes exactly its flag rows."""
    p = sub.add_parser(name, **parser_kw)
    _add_flags(p, rows)
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="searchcontest",
                     description="Equilibria, optima and simulations of search contests.")
    parser.add_argument("--version", action="version", version=f"searchcontest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    seed = ("--seed", int, None, "default: SEARCHCONTEST_SEED, else 12345")
    output = [("--output", None, None)]
    io = _DIST_FLAGS + output
    sim = _DIST_FLAGS + [("--reps", int, 200_000), seed, ("--threads", int, 1)] + output

    solve = sub.add_parser("solve", help="compute one equilibrium or optimum")
    ssub = solve.add_subparsers(dest="what", required=True, parser_class=_Parser)
    _leaf(ssub, "symmetric", _cmd_solve_symmetric, _n_cost() + [_PRIZE] + io)
    _leaf(ssub, "multiprize", _cmd_solve_multiprize, _n_cost() + [
        ("--prizes", _floats, _REQUIRED, "comma-separated, non-increasing")] + io)
    _leaf(ssub, "asymmetric", _cmd_solve_asymmetric, _n_cost() + [_PRIZE] + io)
    _leaf(ssub, "finite", _cmd_solve_finite, [
        ("--n", int, _REQUIRED), ("--k", int, _REQUIRED), ("--cost-ratio", float, _REQUIRED),
        ("--init", _floats, None, "comma-separated starting quantiles")] + io)
    _leaf(ssub, "designer", _cmd_solve_designer, _designer_flags() + io)
    _leaf(ssub, "planner", _cmd_solve_planner, _n_cost() + [
        ("--classify", float, None, "also classify this prize")] + io)

    # each kind takes only its own flags, matched whole: a flag of another kind
    # is a usage error, not an abbreviation of one of this kind's
    table = sub.add_parser("table", help="write CSV sweeps")
    tsub = table.add_subparsers(dest="what", required=True, parser_class=_Parser)
    n_range = [("--n-min", int, 2), ("--n-max", int, 9)]
    out = [("--out", None, None, "CSV path; stdout when omitted")]
    for kind in ("finite_k2", "finite_k3"):
        _leaf(tsub, kind, _cmd_table_finite,
              [("--cost-ratios", _floats, "0.0,0.05,0.10")] + n_range + out, allow_abbrev=False)
    _leaf(tsub, "profile", _cmd_table_profile,
          [("--k", int, 3), ("--cost-ratio", float, 0.1)] + n_range + out, allow_abbrev=False)
    _leaf(tsub, "welfare_examples", _cmd_table_welfare,
          [("--n", int, 2), ("--cost", float, 0.1)] + out, allow_abbrev=False)

    verify = sub.add_parser("verify", help="simulation-based consistency checks")
    vsub = verify.add_subparsers(dest="what", required=True, parser_class=_Parser)
    _leaf(vsub, "dissipation", _cmd_verify_dissipation, _n_cost(3, 0.1) + [_PRIZE] + sim)
    _leaf(vsub, "distribution_free", _cmd_verify_distribution_free,
          _n_cost(2, 0.05) + [_PRIZE] + sim)
    _leaf(vsub, "best_response", _cmd_verify_best_response, _n_cost(3, 0.1) + [
        _PRIZE, ("--profile", ("symmetric", "asymmetric"), "symmetric"), ("--grid", int, 25)]
        + sim)
    _leaf(vsub, "designer_foc", _cmd_verify_designer_foc,
          _designer_flags(2, 2, 0.05) + [("--step", float, 1e-5), seed] + io)
    _leaf(vsub, "recall", _cmd_verify_recall, _n_cost(3, 0.1) + [_PRIZE] + sim)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once a process: it makes about 600
    add_argument calls and reads no environment."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "seed", 0) is None:  # a command that takes --seed, without it
        args.seed = _default_seed()  # read on each call
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
