"""Smoke tests: the scripts under scripts/ run to completion and report no
mismatch between a count and its closed form."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("argv", [
    ["rank_census.py", "grids/sample_a.grid", "3", "17"],
    ["cc_table.py", "5"],
    ["sweep_colourings.py", "2", "2", "2"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    done = run_script(argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout and "MISMATCH" not in done.stdout


def test_rank_census_refuses_units_divisible_by_a_prime(tmp_path):
    # the board of these units at p = 3 was tabulated as the module spanned
    # by E_11 alone
    units = tmp_path / "units.grid"
    units.write_text("grid:\na a a\nunits:\n3 1 1\n")
    done = run_script(["rank_census.py", str(units), "5", "3"])
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: u(1, 1) = 3 is divisible by the prime 3\n"


@pytest.mark.parametrize("argv,code", [
    (["rank_census.py", "nosuch.grid", "3"], 3),
    (["rank_census.py", "grids/sample_a.grid", "4"], 3),
    (["cc_table.py", "4"], 3),
    (["sweep_colourings.py", "x"], 3),
    (["sweep_colourings.py", "3", "3", "two"], 3),
    (["sweep_colourings.py", "0", "3"], 3),  # used to sweep a grid with no cells
    (["sweep_colourings.py", "3", "-1"], 3),
    (["sweep_colourings.py", "2", "2", "-1"], 3),  # used to sweep the blank grid alone
    (["sweep_colourings.py", "13", "1", "1"], 4),  # more rows than the game admits
], ids=["missing-grid", "composite-field", "composite-prime", "sweep-rows-not-integer",
        "sweep-colours-not-integer", "sweep-no-rows", "sweep-no-columns",
        "sweep-negative-colours", "sweep-too-many-rows"])
def test_scripts_refuse_input_errors(argv, code):
    # an input error ends a script as it ends a gridask run: exit 3 with one
    # error line and no table, not a traceback (exit 1, a mismatch's code);
    # a budget exceeded ends it in exit 4
    done = run_script(argv)
    assert (done.returncode, done.stdout) == (code, "")
    assert done.stderr.startswith({3: "error: ", 4: "budget exceeded: "}[code])
    assert done.stderr.count("\n") == 1
