"""Import footprint: no command loads scipy, or a stdlib module it does not
run, in a fresh interpreter.

The package runs on numpy alone; scipy is the tests' oracle. The test modules
import scipy themselves, so every check here runs in its own
`sys.executable` subprocess.
"""
import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import searchcontest
from searchcontest import __version__

SRC = Path(__file__).parents[1] / "src"

# run an optional set-up statement, import the CLI, run main on argv, report
# what it printed and which scipy modules, and which of the stdlib modules a
# run may not need, the process then holds
_PROBE = """
import contextlib, io, json, sys
exec(sys.argv[2])
import searchcontest, searchcontest.cli
argv = json.loads(sys.argv[1])
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = searchcontest.cli.main(argv) if argv else None
print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue(),
                  "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "stdlib": [m for m in ("concurrent.futures", "csv", "logging")
                             if m in sys.modules]}))
"""


def _fresh(argv: list[str], setup: str = "") -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SEARCHCONTEST_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _PROBE,
                           json.dumps(argv), setup], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _payload(out: str) -> dict:
    return json.loads("\n".join(line for line in out.splitlines() if not line.startswith("#")))


def test_import_loads_no_scipy_solver():
    assert _fresh([])["loaded"] == []


# closed forms and simulation, and the commands that find roots and integrate
_SCIPY_FREE = [
    "solve symmetric --n 3 --cost 0.1",
    "solve multiprize --n 3 --cost 0.05 --prizes 0.6,0.3,0.1",
    "solve designer --designers 2 --team-size 2 --cost 0.05",
    "verify dissipation --reps 2000 --seed 7",
    "verify recall --reps 2000 --seed 7",
    "verify distribution_free --reps 2000 --seed 7",
    "solve planner --n 2 --cost 0.1",
    "solve finite --n 3 --k 3 --cost-ratio 0.05",
    "solve asymmetric --n 4 --cost 0.05",
    "verify designer_foc --designers 2 --team-size 2 --cost 0.05",
    "table finite_k2 --out {tmp}/finite_k2.csv",
    "table welfare_examples --n 2 --cost 0.1 --out {tmp}/welfare_examples.csv",
]


@pytest.mark.parametrize("argv", _SCIPY_FREE)
def test_command_loads_no_scipy_solver(argv, tmp_path):
    run = _fresh(argv.format(tmp=tmp_path).split())
    assert run["code"] == 0, run["err"]
    assert run["loaded"] == []


def test_probe_sees_module_loaded_on_use():
    # positive control: a planner whose quadrature imports scipy.integrate on
    # its first call, after the package's import, shows in the probe's list
    setup = """
import searchcontest.planner as planner
quad = planner._quad
def _quad(*args):
    import scipy.integrate
    return quad(*args)
planner._quad = _quad
"""
    run = _fresh("solve planner --n 2 --cost 0.1".split(), setup)
    assert run["code"] == 0, run["err"]
    assert "scipy.integrate" in run["loaded"]


# the thread pool (and logging, which it imports) only where a run has two
# threads and two chunks, csv only where a table is written
@pytest.mark.parametrize("argv, stdlib", [
    ("", []),
    ("verify dissipation --reps 2000 --seed 7", []),
    ("solve planner --n 2 --cost 0.1", []),
    ("table finite_k2 --out {tmp}/finite_k2.csv", ["csv"]),
], ids=["import", "verify-one-thread", "planner", "table"])
def test_run_loads_only_the_stdlib_it_uses(argv, stdlib, tmp_path):
    run = _fresh(argv.format(tmp=tmp_path).split())
    assert run["code"] in (None, 0), run["err"]
    assert run["stdlib"] == stdlib


def test_probe_sees_thread_pool_loaded_on_use():
    # positive control: two threads over two chunks (65,536 replications each)
    run = _fresh("verify dissipation --reps 70000 --seed 7 --threads 2".split())
    assert run["code"] == 0, run["err"]
    assert "concurrent.futures" in run["stdlib"]


def test_exported_records_have_their_own_docstrings():
    # dataclass builds a missing __doc__, "Name(field: type, ...)", through
    # inspect.signature at import
    records = [obj for obj in vars(searchcontest).values()
               if isinstance(obj, type) and dataclasses.is_dataclass(obj)]
    assert len(records) == 26
    bare = [cls.__name__ for cls in records
            if not cls.__doc__ or cls.__doc__.startswith(cls.__name__ + "(")]
    assert bare == []


def test_solvers_make_no_blas_call():
    # the k-draw, planner, distribution and equilibrium modules and the CLI
    # import no numpy, and no module holds a matrix product or an np.linalg
    # call: OpenBLAS picks its kernels by CPU, so their bits would depend on the host
    calls = []
    for path in sorted((SRC / "searchcontest").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and path.stem in (
                    "finite_horizon", "planner", "distributions", "equilibrium", "cli"):
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
                names += [alias.name for alias in node.names]
                calls += [(path.stem, name) for name in names if name.split(".")[0] == "numpy"]
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                calls.append((path.stem, "@"))
            elif isinstance(node, ast.Attribute) and node.attr in ("linalg", "dot", "matmul"):
                calls.append((path.stem, node.attr))
    assert calls == []


# each frozen argv in a process of its own, from a fresh import of the package;
# the frozen entries are the in-process test's
_FROZEN = json.loads(Path(__file__).with_name("cli_frozen_payloads.json").read_text())


@pytest.mark.parametrize("case", _FROZEN, ids=[c["argv"] for c in _FROZEN])
def test_frozen_payload_from_fresh_interpreter(case):
    run = _fresh(case["argv"].split())
    assert (run["code"], run["err"]) == (case["exit"], case["stderr"])
    payload = _payload(run["out"])
    assert payload["manifest"].pop("timestamp")
    assert payload["manifest"].pop("version") == __version__
    assert payload == case["payload"]
