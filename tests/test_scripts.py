"""Smoke tests: the scripts under scripts/ run to completion and report no
mismatch between a count and its closed form."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["rank_census.py", "grids/sample_a.grid", "3", "17"],
    ["cc_table.py", "5"],
    ["sweep_colourings.py", "2", "2", "2"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout and "MISMATCH" not in done.stdout
