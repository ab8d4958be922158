"""Command-line contract: exit codes, manifest/result layout, CSV sidecars."""
import io
import json
import math
import shlex
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from searchcontest import RecallReport, __version__
from searchcontest.cli import build_parser, main


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _payload(out: str) -> dict:
    body = "\n".join(line for line in out.splitlines() if not line.startswith("#"))
    return _strict_json(body)


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "searchcontest" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "symmetric", "--n", "3"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_solve_symmetric_payload_layout(capsys):
    code, out, _ = _run(capsys, ["solve", "symmetric", "--n", "3", "--cost", "0.1"])
    assert code == 0
    summaries = [l for l in out.splitlines() if l.startswith("#")]
    assert any("threshold" in l for l in summaries)
    payload = _payload(out)
    assert set(payload) == {"manifest", "result"}
    man = payload["manifest"]
    assert man["command"] == "solve symmetric"
    assert man["parameters"] == {"n_players": 3, "cost": 0.1, "prize": 1.0}
    assert man["distribution"] == {"family": "uniform", "params": [0.0, 1.0]}
    assert man["version"]
    assert "timestamp" in man
    assert "timestamp" not in payload["result"]
    assert payload["result"]["threshold"] == pytest.approx(0.7, abs=1e-12)
    assert payload["result"]["acceptance_prob"] == pytest.approx(0.3, abs=1e-15)


def test_result_block_is_reproducible(capsys):
    argv = ["solve", "symmetric", "--n", "4", "--cost", "0.05"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    r1, r2 = _payload(out1)["result"], _payload(out2)["result"]
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_output_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "eq.json"
    code, out, _ = _run(
        capsys,
        ["solve", "symmetric", "--n", "2", "--cost", "0.1", "--output", str(target)],
    )
    assert code == 0
    assert json.loads(target.read_text()) == _payload(out)


def test_dist_flag_grammar(capsys):
    code, out, _ = _run(
        capsys,
        ["solve", "symmetric", "--n", "3", "--cost", "0.1", "--dist", "exponential:1"],
    )
    assert code == 0
    result = _payload(out)["result"]
    assert result["threshold"] == pytest.approx(-math.log(0.3), rel=1e-12)


def test_dist_file(capsys, tmp_path):
    spec = tmp_path / "d.json"
    spec.write_text(json.dumps({"family": "pareto", "params": [2.0, 1.0]}))
    code, out, _ = _run(
        capsys,
        ["solve", "symmetric", "--n", "2", "--cost", "0.05", "--dist-file", str(spec)],
    )
    assert code == 0
    # quantile(0.9) of the heavy tail: (1-0.9)^(-1/2)
    assert _payload(out)["result"]["threshold"] == pytest.approx(math.sqrt(10.0), rel=1e-12)


def test_unknown_dist_family_exits_one(capsys):
    code, _, err = _run(
        capsys,
        ["solve", "symmetric", "--n", "3", "--cost", "0.1", "--dist", "cauchy:0,1"],
    )
    assert code == 1
    assert "error" in err


def test_not_viable_exits_two(capsys):
    code, _, err = _run(capsys, ["solve", "symmetric", "--n", "5", "--cost", "0.3"])
    assert code == 2
    assert "error" in err


def test_invalid_parameters_exit_one(capsys):
    code, _, err = _run(capsys, ["solve", "symmetric", "--n", "1", "--cost", "0.1"])
    assert code == 1
    assert "error" in err


_SYM = ["solve", "symmetric", "--n", "3", "--cost", "0.1"]
# a cell where the asymmetric solver's powers once underflowed to 0/0
_ASYM_UNDERFLOW = ["solve", "asymmetric", "--n", "200", "--cost", "0.0001"]
_FINITE = ["solve", "finite", "--n", "3", "--k", "3"]
_HUGE = 10**400  # a count no float holds
_BAD_SPECS = {
    "spec-list": '[1, 2]',
    "spec-letters": '{"family": "uniform", "params": ["a", "b"]}',
    "spec-letter-key": '{"family": "uniform", "params": {"lo": "x", "hi": 1}}',
    "spec-null": '{"family": "exponential", "params": [null]}',
    "spec-short-row": '{"family": "custom", "quantile_grid": [[0], [1, 2]]}',
    "spec-string-grid": '{"family": "custom", "quantile_grid": "abc"}',
}


@pytest.mark.parametrize("argv, spec", [
    pytest.param(_SYM + ["--dist", "uniform:a,b"], None, id="dist-letters"),
    pytest.param(["solve", "multiprize", "--n", "2", "--cost", "0.1", "--prizes", "1,x"], None,
                 id="prizes-letter"),
    pytest.param(_FINITE + ["--cost-ratio", "0.05", "--init", "0.5,x"], None, id="init-letter"),
    pytest.param(["table", "finite_k2", "--cost-ratios", "a"], None, id="cost-ratios-letter"),
    pytest.param(_SYM, "missing", id="dist-file-missing"),
    pytest.param(_SYM + ["--dist", "pareto:2,1"], '{"family": "exponential", "params": [3]}',
                 id="dist-and-dist-file"),
    pytest.param(["solve", "symmetric", "--n", "3", "--cost", "nan"], None, id="cost-nan"),
    pytest.param(_FINITE + ["--cost-ratio", "nan"], None, id="cost-ratio-nan"),
    pytest.param(_FINITE + ["--cost-ratio", "0.05", "--init", "0.5"], None, id="init-short"),
    pytest.param(["verify", "dissipation", "--n", "2", "--cost", "1e-14"], None,
                 id="tiny-acceptance"),
    pytest.param(_SYM + ["--output", "/no/such/dir/x.json"], None, id="output-unwritable"),
    pytest.param(["table", "finite_k2", "--out", "/no/such/dir/t.csv"], None,
                 id="out-unwritable"),
    pytest.param(_ASYM_UNDERFLOW, None, id="asymmetric-underflow"),
    # acceptance probabilities whose threshold quantile 1 - p rounds to 1
    pytest.param(["solve", "symmetric", "--n", "2", "--cost", "1e-18", "--dist", "exponential:1"],
                 None, id="symmetric-below-resolution"),
    pytest.param(["solve", "symmetric", "--n", "2", "--cost", "1e-18"], None,
                 id="symmetric-below-resolution-uniform"),
    pytest.param(["solve", "multiprize", "--n", "2", "--cost", "1e-18", "--prizes", "1,0",
                  "--dist", "exponential:1"], None, id="multiprize-below-resolution"),
    pytest.param(["solve", "designer", "--designers", "2", "--team-size", "2", "--cost", "1e-19",
                  "--dist", "exponential:1"], None, id="designer-below-resolution"),
    pytest.param(["solve", "asymmetric", "--n", "3", "--cost", "1e-17", "--dist", "exponential:1"],
                 None, id="asymmetric-below-resolution"),
    # verifications that could not fail, and a grid numpy refuses
    pytest.param(["verify", "recall", "--reps", "1"], None, id="recall-one-rep"),
    pytest.param(["verify", "recall", "--reps", "5"], None, id="recall-ks-cannot-fail"),
    pytest.param(["verify", "best_response", "--reps", "1", "--grid", "2"], None,
                 id="best-response-one-rep"),
    pytest.param(["verify", "distribution_free", "--reps", "1"], None,
                 id="distribution-free-one-rep"),
    pytest.param(["verify", "dissipation", "--reps", "1"], None, id="dissipation-one-rep"),
    pytest.param(["verify", "best_response", "--grid", "0"], None, id="grid-zero"),
    pytest.param(["verify", "best_response", "--grid", "-1"], None, id="grid-negative"),
    # scale**shape of the Pareto density overflows a float
    pytest.param(["solve", "planner", "--n", "2", "--cost", "1e199", "--dist", "pareto:3,1e200"],
                 None, id="pareto-scale-power-overflow"),
    # N cost past the float range, and an acceptance cost / spread that underflows to 0
    pytest.param(["solve", "planner", "--n", "2", "--cost", "1e308", "--dist", "uniform:0,1"],
                 None, id="planner-cost-overflow"),
    pytest.param(["solve", "multiprize", "--n", "2", "--cost", "5e-324", "--prizes", "1e300,0",
                  "--dist", "uniform:0,1"], None, id="multiprize-zero-acceptance"),
    # counts past the float range; each once escaped as OverflowError or ValueError
    pytest.param(["solve", "symmetric", "--n", str(_HUGE), "--cost", "0.1"], None,
                 id="symmetric-n-401-digits"),
    pytest.param(["solve", "planner", "--n", str(_HUGE), "--cost", "0.1"], None,
                 id="planner-n-401-digits"),
    pytest.param(["solve", "finite", "--n", str(_HUGE), "--k", "3", "--cost-ratio", "0"], None,
                 id="finite-n-401-digits"),
    pytest.param(["solve", "designer", "--designers", str(_HUGE), "--team-size", "2",
                  "--cost", "0.1"], None, id="designers-401-digits"),
    pytest.param(["solve", "finite", "--n", "3", "--k", str(_HUGE), "--cost-ratio", "0.05"], None,
                 id="finite-k-401-digits"),
] + [pytest.param(_SYM, text, id=name) for name, text in _BAD_SPECS.items()])
def test_bad_input_exits_without_traceback(capsys, tmp_path, argv, spec):
    # spec: the text of a --dist-file, or "missing" for a file that is not there
    if argv == _ASYM_UNDERFLOW:  # valid input: a result or a solver error
        code, _, err = _run(capsys, argv)
        assert code in (0, 2) and "Traceback" not in err
        return
    if spec is not None:
        path = tmp_path / "spec.json"
        if spec != "missing":
            path.write_text(spec)
        argv = argv + ["--dist-file", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a leaked numpy warning escapes
        try:
            code = main(argv)
        except SystemExit as ex:  # argparse usage errors
            code = ex.code
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in err and "Warning" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert out == ""


@pytest.mark.parametrize("kind", ["finite_k2", "welfare_examples"])
def test_table_out_checked_before_solving(capsys, tmp_path, monkeypatch, kind):
    import searchcontest.cli as cli_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("solver ran before --out was checked")

    monkeypatch.setattr(cli_mod, "threshold_profile", forbidden)
    monkeypatch.setattr(cli_mod, "solve_planner", forbidden)
    for target in ("/no/such/dir/t.csv", str(tmp_path)):  # missing directory; a directory
        code, out, err = _run(capsys, ["table", kind, "--out", target])
        assert code == 1 and out == "" and "cannot write --out" in err
    assert list(tmp_path.iterdir()) == []


# each table kind's own flags, --out aside
_TABLE_FLAGS = {
    "finite_k2": ["--cost-ratios", "--n-min", "--n-max"],
    "finite_k3": ["--cost-ratios", "--n-min", "--n-max"],
    "profile": ["--k", "--cost-ratio", "--n-min", "--n-max"],
    "welfare_examples": ["--n", "--cost"],
}


@pytest.mark.parametrize("kind", list(_TABLE_FLAGS))
def test_table_rejects_flags_of_other_kinds(capsys, tmp_path, kind):
    own = _TABLE_FLAGS[kind]
    args = build_parser().parse_args(["table", kind] + [x for f in own for x in (f, "1")])
    assert args.what == kind
    foreign = sorted({f for flags in _TABLE_FLAGS.values() for f in flags} - set(own))
    for flag in foreign:  # --cost-ratio is no abbreviation of --cost-ratios either
        with pytest.raises(SystemExit) as exc:
            main(["table", kind, flag, "1", "--out", str(tmp_path / "t.csv")])
        out, err = capsys.readouterr()
        assert exc.value.code == 1 and out == ""
        assert f"unrecognized arguments: {flag} 1" in err
    assert list(tmp_path.iterdir()) == []


def test_simulation_over_memory_budget_exits_one(capsys, monkeypatch):
    import searchcontest.simulation as sim

    def forbidden(*args, **kwargs):
        raise AssertionError("chunks ran before the memory check")

    monkeypatch.setattr(sim, "_map_chunks", forbidden)
    # about 4.5 GB of chunks in flight
    code, out, err = _run(capsys, ["verify", "dissipation", "--n", "1000", "--cost", "0.0003"])
    assert (code, out) == (1, "")
    assert "memory budget" in err and "Traceback" not in err


def test_solve_finite_overflow_cell_exits_two(capsys):
    # a k-draw cell whose scaled ratios leave the float range fails cleanly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = _run(
            capsys, ["solve", "finite", "--n", "15", "--k", "4", "--cost-ratio", "0.06539"]
        )
    assert code == 2
    assert "no k=4 equilibrium" in err
    assert "Traceback" not in err
    # the failure's diagnostics follow the message as one JSON line
    diagnostics = json.loads(err.splitlines()[-1])
    assert diagnostics["attempts"][0]["method"] == "best_response"


def test_solve_planner_past_float_resolution_exits_two(capsys):
    # a heavy tail whose welfare optimum lies beyond the quantile grid
    code, out, err = _run(capsys, ["solve", "planner", "--n", "2", "--cost", "0.1",
                                   "--dist", "pareto:1.1,1"])
    assert code == 2 and out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 2 and "error:" in lines[0]
    assert json.loads(lines[1])["top_residual"] > 0.0


def test_solve_planner_unsound_bracket_exits_two(capsys):
    # a root that fails the closed-form first-order condition (here the
    # adaptive integrand lost a heavy tail) is refused like a bracket of one
    # sign once was: a numeric failure with its diagnostics, not a traceback
    code, out, err = _run(capsys, ["solve", "planner", "--n", "100", "--cost", "0.1",
                                   "--dist", "pareto:1.2,1"])
    assert code == 2 and out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 2 and "error:" in lines[0] and "closed-form" in lines[0]
    diag = json.loads(lines[1])
    assert abs(diag["closed_residual"]) > 1e-6 * 0.1 and diag["root_quantile"] < 1.0


def test_solve_finite_k2_refuses_init(capsys):
    # k=2 goes to the closed form, which has no use for starting quantiles
    code, out, err = _run(
        capsys, ["solve", "finite", "--n", "3", "--k", "2", "--cost-ratio", "0.05",
                 "--init", "0.5"]
    )
    assert code == 1
    assert "--init needs k >= 3" in err
    assert out == ""


def test_solve_finite_reports_nonexistence_with_exit_two(capsys):
    code, out, err = _run(
        capsys, ["solve", "finite", "--n", "7", "--k", "2", "--cost-ratio", "0.10"]
    )
    assert code == 2
    assert "no symmetric equilibrium" in err
    payload = _payload(out)
    assert payload["result"]["exists"] is False


@pytest.mark.parametrize("k", [2, 3])
def test_solve_finite_on_participation_frontier(capsys, k):
    # N*c/W = 1: every player accepts the first draw, for the closed form too
    code, out, err = _run(
        capsys, ["solve", "finite", "--n", "4", "--k", str(k), "--cost-ratio", "0.25"]
    )
    assert (code, err) == (0, "")
    assert _payload(out)["result"] == {"exists": True, "round_quantiles": [0.0] * (k - 1)}


def test_summary_lines_show_result_digits(capsys):
    # thresholds 1 - 3.6e-12 and 1 - 2.7e-12, which 6 digits both round to 1
    code, out, _ = _run(capsys, ["solve", "asymmetric", "--n", "3", "--cost", "1e-12"])
    assert code == 0
    result = _payload(out)["result"]
    summary = dict(line[2:].split(": ", 1) for line in out.splitlines() if line.startswith("# "))
    assert summary["low_threshold"] != summary["high_threshold"]
    for key in ("low_threshold", "high_threshold", "high_player_value"):
        assert json.loads(summary[key]) == result[key]


def test_solve_finite_maps_quantiles_through_distribution(capsys):
    code, out, _ = _run(
        capsys,
        ["solve", "finite", "--n", "3", "--k", "3", "--cost-ratio", "0.05",
         "--dist", "uniform:0,1"],
    )
    assert code == 0
    result = _payload(out)["result"]
    assert result["exists"] is True
    assert result["round_thresholds"] == pytest.approx(result["round_quantiles"], abs=1e-12)
    assert result["round_quantiles"][0] == pytest.approx(0.745, abs=1e-3)


def test_solve_designer(capsys):
    code, out, _ = _run(
        capsys,
        ["solve", "designer", "--designers", "2", "--team-size", "2", "--cost", "0.05"],
    )
    assert code == 0
    result = _payload(out)["result"]
    assert result["threshold_quantile"] == pytest.approx(0.7, abs=1e-12)
    assert result["dissipation_ratio"] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_solve_planner_with_classification(capsys):
    code, out, _ = _run(
        capsys, ["solve", "planner", "--n", "2", "--cost", "0.1", "--classify", "1.0"]
    )
    assert code == 0
    result = _payload(out)["result"]
    assert result["efficient_prize"] == pytest.approx(0.2582, abs=5e-5)
    assert result["efficient_prize_hazard_form"] == pytest.approx(
        result["efficient_prize"], rel=1e-6
    )
    assert result["classification"]["kind"] == "oversearch"


def test_table_finite_k2_with_sidecars(capsys, tmp_path):
    target = tmp_path / "k2.csv"
    code, out, _ = _run(
        capsys,
        ["table", "finite_k2", "--cost-ratios", "0.0,0.10", "--n-min", "2",
         "--n-max", "7", "--out", str(target)],
    )
    assert code == 0
    assert f"wrote {target}" in out
    text = target.read_text()
    lines = text.splitlines()
    assert lines[0] == "cost_ratio,n_players,exists,a1,a1_full"
    assert any(line.startswith("0.0,2,1,0.618") for line in lines)
    # beyond the existence frontier the cell is flagged, values left blank
    assert any(line.startswith("0.1,7,0,,") for line in lines)
    manifest = json.loads(target.with_suffix(".csv.manifest.json").read_text())
    assert manifest["command"] == "table finite_k2"
    diags = json.loads(target.with_suffix(".csv.diagnostics.json").read_text())
    by_ratio = {p["cost_ratio"]: p for p in diags["profiles"]}
    assert by_ratio[0.1]["peak_n"] == 5
    assert by_ratio[0.1]["frontier_n"] == 7


def test_reproduced_tables_match_golden(capsys, tmp_path):
    # the same commands as scripts/reproduce_tables.py; the golden copies are
    # the benchmark's, which compares the same bytes
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
    for argv in (["table", "finite_k2"], ["table", "finite_k3"],
                 ["table", "welfare_examples", "--n", "2", "--cost", "0.1"]):
        code, _, _ = _run(capsys, argv + ["--out", str(tmp_path / f"{argv[1]}.csv")])
        assert code == 0
    names = sorted(p.name for p in golden.iterdir())
    assert names == [
        "finite_k2.csv", "finite_k2.csv.diagnostics.json",
        "finite_k3.csv", "finite_k3.csv.diagnostics.json", "welfare_examples.csv",
    ]
    for name in names:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


def test_table_to_stdout(capsys):
    code, out, _ = _run(
        capsys,
        ["table", "profile", "--k", "3", "--cost-ratio", "0.05", "--n-min", "2",
         "--n-max", "4"],
    )
    assert code == 0
    assert out.splitlines()[0] == "N,a1,a2,exists"


def test_table_welfare_examples(capsys, tmp_path):
    target = tmp_path / "welfare.csv"
    code, _, _ = _run(
        capsys,
        ["table", "welfare_examples", "--n", "2", "--cost", "0.1", "--out", str(target)],
    )
    assert code == 0
    rows = {line.split(",")[0]: line.split(",") for line in
            target.read_text().splitlines()[1:]}
    assert rows["uniform"][2] == "0.258"
    assert rows["exponential"][2] == "1.000"
    assert rows["pareto"][2] == "8.889"


def test_verify_dissipation_passes(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "dissipation", "--n", "2", "--cost", "0.1", "--reps", "50000",
         "--seed", "7"],
    )
    assert code == 0
    assert "# verify: PASS" in out


def test_verify_best_response_passes(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "best_response", "--n", "2", "--cost", "0.1", "--grid", "9",
         "--reps", "40000", "--seed", "7"],
    )
    assert code == 0
    assert "# verify: PASS" in out


def test_verify_best_response_asymmetric_passes(capsys, monkeypatch):
    # scripts/run_verifications.py's argv at the default seed
    monkeypatch.delenv("SEARCHCONTEST_SEED", raising=False)
    code, out, _ = _run(
        capsys,
        ["verify", "best_response", "--profile", "asymmetric", "--n", "3", "--cost", "0.1",
         "--reps", "200000"],
    )
    assert code == 0
    assert "# verify: PASS" in out


def test_verify_distribution_free_reads_dist_file(capsys, tmp_path):
    spec = tmp_path / "d.json"
    argv = ["verify", "distribution_free", "--reps", "2000", "--seed", "1",
            "--dist-file", str(spec)]
    spec.write_text(json.dumps({"family": "exponential", "params": [2.0]}))
    code, out, _ = _run(capsys, argv)
    assert code == 0
    payload = _payload(out)
    # three stock families and the file's, each named by its spec
    assert [row["spec"] for row in payload["result"]["rows"]] == [
        {"family": "uniform", "params": [0.0, 1.0]},
        {"family": "exponential", "params": [1.0]},
        {"family": "pareto", "params": [2.0, 1.0]},
        {"family": "exponential", "params": [2.0]},
    ]
    assert payload["manifest"]["distribution"] == {"family": "exponential", "params": [2.0]}
    spec.write_text('{"family": "exponential", "params": [null]}')
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert "error" in err and out == ""


def test_verify_designer_foc_passes(capsys):
    code, out, _ = _run(capsys, ["verify", "designer_foc"])
    assert code == 0
    assert "# verify: PASS" in out


def test_verify_failure_exits_three(capsys, monkeypatch):
    import searchcontest.cli as cli_mod

    def fake_check(params, d, config):
        return RecallReport(ks_statistic=0.5, critical_value=0.01,
                            replications=config.replications, passed=False)

    monkeypatch.setattr(cli_mod, "recall_irrelevance_check", fake_check)
    code, out, _ = _run(capsys, ["verify", "recall", "--reps", "100"])
    assert code == 3
    assert "# verify: FAIL" in out


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("SEARCHCONTEST_SEED", "777")
    code, out, _ = _run(
        capsys,
        ["verify", "dissipation", "--n", "2", "--cost", "0.1", "--reps", "5000"],
    )
    assert code == 0
    assert _payload(out)["manifest"]["seed"] == 777


def test_main_builds_its_parser_once_per_default_seed(capsys, monkeypatch):
    # the parser is built once a process, but SEARCHCONTEST_SEED is read on
    # every call: a changed default seed builds a parser with it
    import searchcontest.cli as cli

    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda real=cli.build_parser: built.append(1) or real())
    cli._parser.cache_clear()
    argv = ["verify", "designer_foc"]
    seeds = []
    for env in ("777", "777", "778"):
        monkeypatch.setenv("SEARCHCONTEST_SEED", env)
        code, out, _ = _run(capsys, argv)
        assert code == 0
        seeds.append(_payload(out)["manifest"]["seed"])
    assert seeds == [777, 777, 778]
    assert len(built) == 2


def test_env_seed_garbage_falls_back(capsys, monkeypatch):
    monkeypatch.setenv("SEARCHCONTEST_SEED", "not-a-number")
    parser = build_parser()
    args = parser.parse_args(["verify", "recall"])
    assert args.seed == 12345


_SPECS = {
    "uniform": {"family": "uniform", "params": [0.0, 1.0]},
    "pareto": {"family": "pareto", "params": [2.0, 1.0]},
    "grid": {"family": "custom", "quantile_grid": [[0.0, 0.0], [0.5, 1.0], [1.0, 3.0]]},
}


def test_solve_planner_solves_once(capsys, monkeypatch):
    import searchcontest.cli as cli_mod
    import searchcontest.planner as planner_mod

    calls = []
    solve = planner_mod.solve_planner

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(cli_mod, "solve_planner", counted)
    monkeypatch.setattr(planner_mod, "solve_planner", counted)
    code, _, _ = _run(capsys, ["solve", "planner", "--n", "2", "--cost", "0.1",
                               "--classify", "1.0"])
    assert code == 0
    assert len(calls) == 1


# result blocks of `solve planner --classify 1.0` before the planner functions
# took a shared solution; not one digit may move
_PLANNER_RESULTS = {
    ("uniform", "0.1"): {
        "acceptance_prob": 0.774596669241483,
        "efficient_prize": 0.258198889747161,
        "efficient_prize_hazard_form": 0.258198889747161,
        "foc_residual": -1.38777878078145e-17,
        "interior": True,
        "threshold": 0.225403330758517,
        "welfare": 0.483602220505678,
        "classification": {"competitive_threshold": 0.8, "kind": "oversearch",
                           "planner_threshold": 0.225403330758517, "threshold_gap": 0.574596669241483},
    },
    ("pareto", "0.1"): {
        "acceptance_prob": 0.0224999999997899,
        "efficient_prize": 8.88888888897189,
        "efficient_prize_hazard_form": 8.88888888895904,
        "foc_residual": 6.81427136939305e-13,
        "interior": True,
        "threshold": 6.66666666669779,
        "welfare": 8.88888888899077,
        "classification": {"competitive_threshold": 2.23606797749979, "kind": "undersearch",
                           "planner_threshold": 6.66666666669779, "threshold_gap": -4.430598689198},
    },
    ("grid", "0.3"): {
        "acceptance_prob": 0.708962569679709,
        "efficient_prize": 0.846307020511766,
        "efficient_prize_hazard_form": 0.846307020511728,
        "foc_residual": -1.72639680329212e-14,
        "interior": True,
        "threshold": 0.582074860640581,
        "welfare": 1.22051184527384,
        "classification": {"competitive_threshold": 0.8, "kind": "oversearch",
                           "planner_threshold": 0.582074860640581, "threshold_gap": 0.217925139359419},
    },
}


@pytest.mark.parametrize("family,cost", list(_PLANNER_RESULTS))
def test_solve_planner_result_bytes_frozen(capsys, tmp_path, family, cost):
    spec = tmp_path / "d.json"
    spec.write_text(json.dumps(_SPECS[family]))
    code, out, _ = _run(capsys, ["solve", "planner", "--n", "2", "--cost", cost,
                                 "--classify", "1.0", "--dist-file", str(spec)])
    assert code == 0
    payload = _payload(out)
    assert payload["result"] == _PLANNER_RESULTS[family, cost]
    # the manifest names the distribution that ran, the grid included
    assert payload["manifest"]["distribution"] == _SPECS[family]


# every solve leaf and `verify designer_foc`: exit code, stderr, and the
# payload less its timestamp and version, as printed before summary lines
# were read from the result block and manifests from the parameter record
_FROZEN = json.loads(Path(__file__).with_name("cli_frozen_payloads.json").read_text())


@pytest.mark.parametrize("case", _FROZEN, ids=[c["argv"] for c in _FROZEN])
def test_payload_bytes_frozen(capsys, monkeypatch, case):
    monkeypatch.delenv("SEARCHCONTEST_SEED", raising=False)
    code, out, err = _run(capsys, case["argv"].split())
    assert (code, err) == (case["exit"], case["stderr"])
    payload = _payload(out)
    assert payload["manifest"].pop("timestamp")
    assert payload["manifest"].pop("version") == __version__
    assert payload == case["payload"]


def _readme_argvs() -> list[list[str]]:
    """The `searchcontest ...` lines of the README's sh blocks, as argvs."""
    argvs, in_sh = [], False
    for line in Path(__file__).parents[1].joinpath("README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("searchcontest "):
            argvs.append(shlex.split(line)[1:])
    return argvs


@pytest.mark.parametrize("argv", _readme_argvs(), ids=" ".join)
def test_readme_examples_print_strict_json(capsys, tmp_path, monkeypatch, argv):
    # every payload and table sidecar parses with NaN and Infinity refused
    monkeypatch.delenv("SEARCHCONTEST_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    code, out, _ = _run(capsys, argv)
    assert code == 0
    texts = [p.read_text() for p in sorted((tmp_path / "out").glob("*.json"))]
    if any(not line.startswith("#") for line in out.splitlines()):
        texts.append("\n".join(line for line in out.splitlines() if not line.startswith("#")))
    assert texts
    for text in texts:
        _strict_json(text)


def _run_strict(capsys, argv):
    """_run with a RuntimeWarning raised as an error, as CI runs the suite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return _run(capsys, argv)


def _one_error_line(err: str) -> str:
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and "error:" in lines[0], err
    return lines[0]


@pytest.mark.parametrize("argv", [
    "solve asymmetric --n 3 --cost 1e-60",
    "solve asymmetric --n 3 --cost 1e-320",
    "verify best_response --profile asymmetric --n 3 --cost 1e-300 --dist uniform:-1e9,1e9"
    " --grid 1 --reps 2",
])
def test_asymmetric_below_float_resolution_exits_one(capsys, argv):
    # refused before any root search, which used to escape as a traceback
    code, out, err = _run_strict(capsys, argv.split())
    assert (code, out) == (1, "")
    assert "below float resolution" in _one_error_line(err)


@pytest.mark.parametrize("argv", [
    "verify designer_foc --designers 30 --team-size 9 --cost 1e-13 --step 1e-3",
    "verify designer_foc --designers 2 --team-size 2 --cost 1e-9",
])
def test_designer_foc_step_past_the_tail_exits_one(capsys, argv):
    # q + step past 1 used to overflow, or to fail a correct closed form
    code, out, err = _run_strict(capsys, argv.split())
    assert (code, out) == (1, "")
    assert "does not fit inside [0, 1]" in _one_error_line(err)


def test_designer_foc_step_near_the_tail_exits_one(capsys):
    # a step of 0.88 of the tail fits inside [0, 1] but read relative_error
    # 0.54 and exited 3: a false FAIL of a correct closed form
    argv = ("verify designer_foc --designers 24 --team-size 6 --cost 9.734177760728507e-06 "
            "--step 0.0012727878596263166 --dist pareto:1.1,1")
    code, out, err = _run_strict(capsys, argv.split())
    assert (code, out) == (1, "")
    assert "over a tenth of" in _one_error_line(err)


@pytest.mark.parametrize("argv", [
    "solve planner --n 2 --cost 1e200",
    "table welfare_examples --n 9 --cost 1e300",
])
def test_planner_huge_cost_exits_zero(capsys, argv):
    # bracket signs are compared, not multiplied, so nothing overflows
    code, out, err = _run_strict(capsys, argv.split())
    assert (code, err) == (0, "")
    if argv.startswith("solve"):
        assert _payload(out)["result"]["interior"] is False


_301_DIGITS = 10**300  # a count a float holds


def test_planner_count_past_the_int_product_exits_without_traceback(capsys, tmp_path):
    # N (N + 1) was an int, which overflowed its float conversion. At cost
    # 1e-302 the uniform optimum is the corner: sqrt(c N (N + 1)) is about 1e149 > 1
    code, out, err = _run_strict(capsys, f"solve planner --n {_301_DIGITS} --cost 1e-302".split())
    assert (code, err) == (0, "")
    assert _payload(out)["result"]["interior"] is False
    # the Pareto row's Beta factor, 1.8e-150, read 1.0 when it was formed from
    # log-gammas of N and N + 1/2, and the root search refused its bracket. Every
    # row is the corner: each player keeps the first draw, at the support's low end
    argv = f"table welfare_examples --n {_301_DIGITS} --cost 0.1 --out {tmp_path / 'w'}".split()
    code, out, err = _run_strict(capsys, argv)
    assert (code, err) == (0, "")
    rows = [row.split(",") for row in (tmp_path / "w").read_text().splitlines()[1:]]
    assert [(r[0], r[3]) for r in rows] == [("uniform", "0"), ("exponential", "0"),
                                            ("pareto", "1")]


@pytest.mark.parametrize("argv, message", [
    ("solve finite --n 3 --k 100000000000000000000 --cost-ratio 0.05",
     "n_draws must be at most 1048577"),
    (f"solve asymmetric --n {_301_DIGITS} --cost 1e-301",
     "at most 1048576 players"),
    ("solve asymmetric --n 1048577 --cost 1e-7", "at most 1048576 players"),
], ids=["finite-k-21-digits", "asymmetric-n-301-digits", "asymmetric-n-past-budget"])
def test_count_past_a_memory_bound_exits_one(capsys, monkeypatch, argv, message):
    # k - 1 start lists, or N-entry binomial tables, would be built: refused first.
    # lgam, which builds the tables, fails the test if it is reached
    def no_tables(x):
        raise AssertionError("a binomial table was started")

    monkeypatch.setattr("searchcontest.equilibrium.lgam", no_tables)
    code, out, err = _run_strict(capsys, argv.split())
    assert (code, out) == (1, "")
    assert message in _one_error_line(err)


def test_symmetric_acceptance_underflow_exits_one(capsys):
    # N c / W underflows to 0, which was divided by; the argv property drew it
    argv = "solve symmetric --n 2 --cost 1e-300 --prize 1e200".split()
    code, out, err = _run_strict(capsys, argv)
    assert (code, out) == (1, "")
    assert "below float resolution" in _one_error_line(err)


def test_two_draw_huge_cost_ratio_exits_two(capsys):
    # the grid scan multiplied residuals near -1e200, which overflowed
    code, out, err = _run_strict(capsys, "solve finite --n 2 --k 2 --cost-ratio 1e200".split())
    assert (code, err) == (2, "# no symmetric equilibrium at these parameters\n")
    assert _payload(out)["result"]["exists"] is False


@pytest.mark.parametrize("argv", [
    "solve asymmetric --n 3 --cost 1e199 --prize 1e200",
    "solve asymmetric --n 3 --cost 1e-201 --prize 1e-200",
])
def test_asymmetric_extreme_prize_exits_zero(capsys, argv):
    # the outer scan multiplied residuals of the prize's scale: the product
    # overflowed at 1e200 and underflowed to 0, missing the bracket, at 1e-200
    code, out, err = _run_strict(capsys, argv.split())
    assert (code, err) == (0, "")
    result = _payload(out)["result"]
    assert result["low_threshold"] == pytest.approx(0.644444444444, abs=1e-9)
    assert result["high_threshold"] == pytest.approx(0.733333333333, abs=1e-9)


@pytest.mark.parametrize("argv", [
    "verify dissipation --n 3 --cost 1e-201 --prize 1e-200 --reps 20000 --seed 1",
    "verify best_response --n 3 --cost 1e-201 --prize 1e-200 --reps 2000 --grid 3 --seed 1",
    "verify distribution_free --n 2 --cost 5e-202 --prize 1e-200 --reps 20000 --seed 1",
    "verify dissipation --n 3 --cost 1e199 --prize 1e200 --reps 20000 --seed 1",
    "verify best_response --n 3 --cost 1e199 --prize 1e200 --reps 2000 --grid 3 --seed 1",
    "verify distribution_free --n 2 --cost 5e198 --prize 1e200 --reps 20000 --seed 1",
])
def test_verdict_does_not_depend_on_the_prize_scale(capsys, argv):
    # squared payoffs and costs in absolute units underflowed to a standard
    # error of 0 (a false FAIL) or overflowed (a traceback); at prize 1 all pass
    code, out, err = _run_strict(capsys, argv.split())
    assert (code, err) == (0, "")
    assert "# verify: PASS" in out.splitlines()


# ------------------------------------------------------------ argv property

# the IEEE edges: the least subnormal and normal, the largest float below 1, the largest float
_EDGES = [5e-324, 2.2250738585072009e-308, 1.0 - 2.0**-53, 1.7976931348623157e308]
_COST = st.one_of(st.floats(math.log(1e-14), math.log(100.0)).map(math.exp),
                  st.sampled_from([1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300]),
                  st.sampled_from(_EDGES))
_DIST = st.sampled_from([[], ["--dist", "uniform:0,1"], ["--dist", "exponential:1"],
                         ["--dist", "pareto:2,1"], ["--dist", "pareto:1.1,1"],
                         ["--dist", "uniform:-1e9,1e9"]])


def _counts(lo: int, hi: int) -> st.SearchStrategy:
    """Counts from lo to hi, or one no float holds."""
    return st.one_of(st.integers(lo, hi), st.just(_HUGE))


_N = _counts(1, 2000)
# the prize's scale must not matter: N c / W is what the equilibria depend on
_PRIZE = st.one_of(st.sampled_from([1.0, 1e200, 1e-200, 2.0**600, 2.0**-600, *_EDGES]),
                   st.floats(math.log(1e-300), math.log(1e300)).map(math.exp))


def _argv(*parts) -> st.SearchStrategy:
    """An argv from fixed words, (flag, strategy) pairs and dist-flag lists."""
    def word(part):
        if isinstance(part, str):
            return st.just([part])
        if isinstance(part, tuple):
            flag, values = part
            return values.map(lambda v: [flag, repr(v) if isinstance(v, float) else str(v)])
        return part
    return st.tuples(*map(word, parts)).map(lambda words: [w for ws in words for w in ws])


def _sim(what: str, *extra) -> st.SearchStrategy:
    # simulations stay at reps <= 5,000, N <= 30 and acceptance >= 1e-2 so that
    # round-by-round play cannot hang the suite; the cost scales with the prize
    return st.tuples(st.integers(1, 30), st.floats(math.log(1e-2), math.log(2.0)),
                     _PRIZE).flatmap(
        lambda ncw: _argv("verify", what, ("--n", st.just(ncw[0])),
                          ("--cost", st.just(math.exp(ncw[1]) / ncw[0] * ncw[2])),
                          ("--prize", st.just(ncw[2])),
                          ("--reps", st.integers(2, 5000)), *extra, _DIST))


def _prizes(n: int) -> st.SearchStrategy:
    value = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e300), st.sampled_from(_EDGES))
    values = st.lists(value, min_size=n, max_size=n)
    return values.map(lambda v: ",".join(map(repr, sorted(v, reverse=True))))


_N_RANGE = (("--n-min", st.integers(1, 6)), ("--n-max", st.integers(2, 12)))
_LEAF_ARGVS = {
    "solve symmetric": _argv("solve", "symmetric", ("--n", _N), ("--cost", _COST),
                             ("--prize", _PRIZE), _DIST),
    "solve multiprize": st.integers(1, 40).flatmap(lambda n: _argv(
        "solve", "multiprize", ("--n", st.just(n)), ("--cost", _COST),
        ("--prizes", _prizes(n)), _DIST)),
    "solve asymmetric": _argv("solve", "asymmetric", ("--n", _N), ("--cost", _COST),
                              ("--prize", _PRIZE), _DIST),
    "solve finite": st.tuples(_counts(1, 40), _counts(1, 6)).flatmap(lambda nk: _argv(
        "solve", "finite", ("--n", st.just(nk[0])), ("--k", st.just(nk[1])),
        ("--cost-ratio", st.one_of(st.floats(0.0, 1.2).map(lambda f: f / min(nk[0], 40)),
                                   st.sampled_from([1e100, 1e200, 1e300, *_EDGES]))), _DIST)),
    "solve designer": _argv("solve", "designer", ("--designers", _counts(1, 30)),
                            ("--team-size", _counts(0, 10)), ("--cost", _COST), _DIST),
    "solve planner": _argv("solve", "planner", ("--n", _N), ("--cost", _COST), _DIST),
    "table finite_k2": _argv("table", "finite_k2", ("--cost-ratios", st.floats(0.0, 0.3)),
                             *_N_RANGE),
    "table finite_k3": _argv("table", "finite_k3", ("--cost-ratios", st.floats(0.0, 0.3)),
                             *_N_RANGE),
    "table profile": _argv("table", "profile", ("--k", _counts(2, 4)),
                           ("--cost-ratio", st.floats(0.0, 0.3)), *_N_RANGE),
    "table welfare_examples": _argv("table", "welfare_examples", ("--n", _N),
                                    ("--cost", _COST)),
    "verify dissipation": _sim("dissipation"),
    "verify distribution_free": _sim("distribution_free"),
    "verify best_response": _sim("best_response",
                                 ("--profile", st.sampled_from(["symmetric", "asymmetric"])),
                                 ("--grid", st.integers(1, 25))),
    "verify designer_foc": _argv(
        "verify", "designer_foc", ("--designers", _counts(1, 30)),
        ("--team-size", _counts(1, 10)), ("--cost", _COST),
        ("--step", st.floats(math.log(1e-11), math.log(0.1)).map(math.exp)), _DIST),
    "verify recall": _sim("recall"),
}


def test_argv_property_covers_every_leaf():
    subcommands = [a for a in build_parser()._actions if a.dest == "command"][0].choices
    leaves = {f"{family} {leaf}" for family, parser in subcommands.items()
              for a in parser._actions if a.dest == "what" for leaf in a.choices}
    assert leaves == set(_LEAF_ARGVS)


@pytest.mark.parametrize("leaf", sorted(_LEAF_ARGVS))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_argv_exits_with_a_code(leaf, data):
    # exit 0 or 3 prints a strict JSON payload (a CSV for tables); exit 1 or 2
    # prints exactly one error line, and never a traceback
    argv = data.draw(_LEAF_ARGVS[leaf], label="argv")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as ex:  # argparse's usage errors
            code = ex.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code in (1, 2) and not out:
        # a usage error follows the usage lines; a numeric failure is
        # followed by its diagnostics line
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        return
    assert "error:" not in err, (argv, err)
    if argv[0] == "table":
        rows = [line.split(",") for line in out.splitlines()]
        assert all(len(row) == len(rows[0]) for row in rows), argv
        assert not {"nan", "inf", "-inf"} & {cell for row in rows for cell in row}, argv
        return
    payload = _payload(out)
    if code == 2:  # `solve finite` prints its no-equilibrium payload
        assert argv[:2] == ["solve", "finite"] and payload["result"]["exists"] is False
