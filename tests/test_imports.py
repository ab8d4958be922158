"""Import footprint: scipy's solvers load on first use, in a fresh interpreter.

The test modules import scipy themselves, so every check here runs in its own
`sys.executable` subprocess.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from searchcontest import __version__

SRC = Path(__file__).parents[1] / "src"
DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.special")

# import the CLI, run main on argv, report what it printed and which of the
# deferred modules the process then holds
_PROBE = f"""
import contextlib, io, json, sys
import searchcontest, searchcontest.cli
argv = json.loads(sys.argv[1])
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = searchcontest.cli.main(argv) if argv else None
print(json.dumps({{"code": code, "out": out.getvalue(), "err": err.getvalue(),
                  "loaded": [m for m in {DEFERRED!r} if m in sys.modules]}}))
"""


def _fresh(argv: list[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SEARCHCONTEST_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _PROBE,
                           json.dumps(argv)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _payload(out: str) -> dict:
    return json.loads("\n".join(line for line in out.splitlines() if not line.startswith("#")))


def test_import_loads_no_scipy_solver():
    assert _fresh([])["loaded"] == []


# closed forms and simulation: none needs a root finder or quadrature
_SCIPY_FREE = [
    "solve symmetric --n 3 --cost 0.1",
    "solve multiprize --n 3 --cost 0.05 --prizes 0.6,0.3,0.1",
    "solve designer --designers 2 --team-size 2 --cost 0.05",
    "verify dissipation --reps 2000 --seed 7",
    "verify recall --reps 2000 --seed 7",
    "verify distribution_free --reps 2000 --seed 7",
]


@pytest.mark.parametrize("argv", _SCIPY_FREE)
def test_command_loads_no_scipy_solver(argv):
    run = _fresh(argv.split())
    assert run["code"] == 0, run["err"]
    assert run["loaded"] == []


def test_planner_loads_quad_and_brentq():
    # positive control: the probe does see a module a command imports on use
    run = _fresh("solve planner --n 2 --cost 0.1".split())
    assert run["code"] == 0, run["err"]
    assert {"scipy.integrate", "scipy.optimize"} <= set(run["loaded"])


# each frozen argv in a process of its own, so every deferred import is that
# process's first use of scipy; the frozen entries are the in-process test's
_FROZEN = json.loads(Path(__file__).with_name("cli_frozen_payloads.json").read_text())


@pytest.mark.parametrize("case", _FROZEN, ids=[c["argv"] for c in _FROZEN])
def test_frozen_payload_from_fresh_interpreter(case):
    run = _fresh(case["argv"].split())
    assert (run["code"], run["err"]) == (case["exit"], case["stderr"])
    payload = _payload(run["out"])
    assert payload["manifest"].pop("timestamp")
    assert payload["manifest"].pop("version") == __version__
    assert payload == case["payload"]
