"""Smoke tests: the scripts under scripts/ run to completion and report no
mismatch between a count and its closed form."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridask.colouring import PartialColouring, parse_grid

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("argv,line", [
    (["rank_census.py", "grids/sample_a.grid", "3", "17"], None),
    (["cc_table.py", "5"], None),
    (["sweep_colourings.py", "2", "2", "2"],
     "theorem: all 7 admissible colourings match classical_mat(2, 2) "
     "over Z/9 (c_1, c_2) and F_5 (c_1)"),
], ids=["rank_census.py", "cc_table.py", "sweep_colourings.py"])
def test_script_runs(argv, line):
    done = run_script(argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout and "MISMATCH" not in done.stdout
    assert line is None or line in done.stdout.splitlines()


ONE_COLOUR_2X2 = PartialColouring(2, 2, dict.fromkeys([(1, 1), (1, 2), (2, 1), (2, 2)], "a"))


@pytest.mark.parametrize("beta,units,verdict", [
    (parse_grid((ROOT / "grids" / "sample_a.grid").read_text()).colouring, {}, (True, True)),
    (parse_grid((ROOT / "grids" / "sample_c.grid").read_text()).colouring, {}, (False, False)),
    # tr(U^T X) = 0 with U invertible: X -> U^T X maps the module onto the
    # traceless matrices and keeps every kernel size
    (ONE_COLOUR_2X2, {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 2}, (False, True)),
    (ONE_COLOUR_2X2, {}, (False, False)),
], ids=["sample_a", "sample_c", "one-colour-units-1112", "one-colour-units-1"])
def test_sweep_checks_one_colouring(beta, units, verdict):
    # (admissible, matches classical_mat): an inadmissible colouring may
    # match or not, as the paper claims no converse
    assert load_script("sweep_colourings").check(beta, units) == verdict


def test_sweep_exits_1_at_an_admissible_mismatch(monkeypatch, capsys):
    sweep = load_script("sweep_colourings")
    monkeypatch.setattr(sweep, "check", lambda beta, units: (True, len(beta.colour_of) < 2))
    monkeypatch.setattr(sys, "argv", ["sweep_colourings.py", "1", "2", "1"])
    with pytest.raises(SystemExit) as done:
        sweep.main()
    assert done.value.code == 1
    assert capsys.readouterr().out.startswith(
        "MISMATCH: admissible {(1, 1): 'c1', (1, 2): 'c1'} with units")


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
    (["sweep_colourings.py", "8", "1", "0"], 4),  # 9^8 census points over Z/9
], ids=["missing-grid", "composite-field", "composite-prime", "sweep-rows-not-integer",
        "sweep-colours-not-integer", "sweep-no-rows", "sweep-no-columns",
        "sweep-negative-colours", "sweep-too-many-rows", "sweep-census-over-budget"])
def test_scripts_refuse_input_errors(argv, code):
    # an input error ends a script as it ends a gridask run: exit 3 with one
    # error line and no table, not a traceback (exit 1, a mismatch's code);
    # a budget exceeded ends it in exit 4
    done = run_script(argv)
    assert (done.returncode, done.stdout) == (code, "")
    assert done.stderr.startswith({3: "error: ", 4: "budget exceeded: "}[code])
    assert done.stderr.count("\n") == 1
