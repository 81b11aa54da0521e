import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gridask.cli import run
from gridask.modrep import rep_from_json

ROOT = Path(__file__).resolve().parent.parent
GRIDS = ROOT / "grids"


def grid(name: str) -> str:
    return str(GRIDS / f"{name}.grid")


def run_out(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# check-admissible
# ---------------------------------------------------------------------------

def test_check_admissible_pass(capsys):
    code, out = run_out(["check-admissible", grid("sample_a"),
                         "--family", "rho", "--level", "0", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["admissible"] is True
    assert len(report["certificates"]) == 7  # non-empty subsets of 3 rows


def test_check_admissible_expected_failure(capsys):
    code, out = run_out(["check-admissible", grid("sample_c"),
                         "--family", "rho", "--expect-inadmissible", "--json"],
                        capsys)
    assert code == 0
    assert json.loads(out)["admissible"] is False


def test_check_admissible_unexpected_failure(capsys):
    code, _ = run_out(["check-admissible", grid("sample_c")], capsys)
    assert code == 1


def test_check_admissible_refuses_more_than_twelve_rows(tmp_path, capsys):
    # every non-empty row subset is visited: 2^13 - 1 of them are refused
    tall = tmp_path / "tall.grid"
    tall.write_text("family: rho\ngrid:\n" + "c1\n" * 13)
    assert run(["check-admissible", str(tall)]) == 4
    assert capsys.readouterr().err.startswith("budget exceeded: ")


def test_check_admissible_honours_budget(capsys):
    # level 1 tries C(7, 1) = 7 discard sets per row subset
    argv = ["check-admissible", grid("rainbow_4_7"), "--level", "1"]
    assert run(argv + ["--budget", "1"]) == 4
    assert capsys.readouterr().err.startswith("budget exceeded: ")
    assert run(argv + ["--budget", "7"]) == 0


def test_check_admissible_family_from_file(capsys):
    # rainbow files carry "family: gamma" headers
    code, out = run_out(["check-admissible", grid("rainbow_4_7"),
                         "--level", "1", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["family"] == "gamma"
    code, _ = run_out(["check-admissible", grid("rainbow_6_7"), "--level", "1"],
                      capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# ask / rank-dist / dump-rep
# ---------------------------------------------------------------------------

def test_ask_prints_exact_rational(capsys):
    code, out = run_out(["ask", "--rep", "classic:alt:3", "--prime", "3"], capsys)
    assert code == 0
    assert out.strip() == "35/9"


def test_ask_json_value(capsys):
    code, out = run_out(["ask", "--rep", "classic:mat:2,2", "--prime", "3",
                         "--json"], capsys)
    assert code == 0
    val = json.loads(out)["value"]
    assert Fraction(int(val["num"]), int(val["den"])) == Fraction(17, 9)


def test_ask_over_quotient_ring(capsys):
    code, out = run_out(["ask", "--rep", "classic:mat:1,1", "--prime", "3",
                         "--n", "2", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ring"] == "Z/3^2"


def test_rank_dist_counts(capsys):
    code, out = run_out(["rank-dist", "--rep", "classic:alt:3",
                         "--prime", "3", "--json"], capsys)
    assert code == 0
    counts = json.loads(out)["counts"]
    assert counts["0"] == 1
    assert sum(counts.values()) == 27


def test_dump_rep_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    code, _ = run_out(["dump-rep", "--rep", "family:sigma:1-2:1-2",
                       "-o", str(out_file)], capsys)
    assert code == 0
    rep = rep_from_json(json.loads(out_file.read_text()))
    assert rep.rank == 3
    # the dumped file round-trips through the file: spec
    code, out = run_out(["ask", "--rep", f"file:{out_file}", "--prime", "3"],
                        capsys)
    assert code == 0


# ---------------------------------------------------------------------------
# zeta-verify
# ---------------------------------------------------------------------------

def test_zeta_verify_admissible_board_passes(capsys):
    code, out = run_out(["zeta-verify", "--module", "board",
                         "--grid", grid("sample_a"),
                         "--against", "classical_mat", "--prime", "5", "--json"],
                        capsys)
    assert code == 0
    assert json.loads(out)["checks"][0]["passed"] is True


def test_zeta_verify_inadmissible_board_fails(capsys):
    code, out = run_out(["zeta-verify", "--module", "board",
                         "--grid", grid("sample_c"),
                         "--against", "classical_mat", "--prime", "5", "--json"],
                        capsys)
    assert code == 1
    checks = json.loads(out)["checks"][0]
    assert checks["coefficients"][1]["match"] is False


def test_zeta_verify_multiple_primes(capsys):
    code, out = run_out(["zeta-verify", "--rep", "classic:alt:2",
                         "--against", "classical_alt", "--params", "d=2",
                         "--prime", "3", "--prime", "5", "--json"], capsys)
    assert code == 0
    assert len(json.loads(out)["checks"]) == 2


def test_zeta_verify_soft_fail_small_prime(capsys):
    # the root-count family formula excludes small primes: mismatch at p=2
    # is a caveat (exit 2), not a hard failure
    code, out = run_out(["zeta-verify", "--module", "board",
                         "--grid", grid("sample_c"),
                         "--against", "nfamily", "--params", "N=2",
                         "--prime", "2", "--json"], capsys)
    assert code == 2
    assert "soft_fail" in json.loads(out)["checks"][0]


def test_zeta_verify_hard_failure_outranks_soft(capsys):
    # p=3 is a soft failure, p=5 a hard one: the exit code is the hard one
    code, out = run_out(["zeta-verify", "--rep", "classic:mat:2",
                         "--against", "nfamily", "--params", "N=2",
                         "--prime", "3", "--prime", "5", "--json"], capsys)
    assert code == 1
    checks = json.loads(out)["checks"]
    assert "soft_fail" in checks[0] and "soft_fail" not in checks[1]
    assert not checks[1]["passed"]


# ---------------------------------------------------------------------------
# constant-rank / orbital-check / cc
# ---------------------------------------------------------------------------

def test_constant_rank_gamma(capsys):
    code, out = run_out(["constant-rank", "--family", "gamma", "--I", "1-3",
                         "--J", "1-3", "--rank", "1", "--prime", "5", "--json"],
                        capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_constant_rank_wrong_rank_fails(capsys):
    code, out = run_out(["constant-rank", "--family", "rho", "--I", "1-2",
                         "--J", "1-2", "--rank", "1", "--prime", "3", "--json"],
                        capsys)
    assert code == 1


def test_orbital_check_alpha(capsys):
    code, out = run_out(["orbital-check", "--big", "alpha:3",
                         "--sub", "alphahat:3", "--prime", "3", "--json"],
                        capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_cc_free_nilpotent(capsys):
    code, out = run_out(["cc", "--free-nilpotent", "3,2", "--prime", "5",
                         "--json"], capsys)
    assert code == 0
    assert json.loads(out)["classes"] == 149


def test_cc_baer(capsys):
    code, out = run_out(["cc", "--baer", "classic:alt:3", "--prime", "3",
                         "--json"], capsys)
    assert code == 0
    assert json.loads(out)["classes"] == 105


def test_cc_baer_honours_n(capsys):
    # one alternating form on R^2 gives the Heisenberg group over R = Z/9
    code, out = run_out(["cc", "--baer", "classic:alt:2", "--prime", "3",
                         "--n", "2", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert (report["n"], report["classes"]) == (2, 105)
    code, out = run_out(["cc", "--free-nilpotent", "2,2", "--prime", "3",
                         "--n", "2", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["classes"] == 105


def test_cc_budget_bounds_census_points(capsys):
    # the free class-3 group on 3 generators has 5^14 elements but only
    # 5^6 census points after the centre restriction
    argv = ["cc", "--free-nilpotent", "3,3", "--prime", "5"]
    assert run(argv + ["--budget", "100"]) == 4
    assert capsys.readouterr().err.startswith("budget exceeded: ")
    code, out = run_out(argv + ["--json"], capsys)
    assert code == 0
    assert json.loads(out)["classes"] == 2715625


UNSUPPORTED_CC = [["cc", "--free-nilpotent", "3,2", "--prime", "3"],
                  ["cc", "--baer", "triangular-pair:2", "--prime", "3"]]


@pytest.mark.parametrize("argv", UNSUPPORTED_CC)
def test_cc_unsupported_input_exits_three(argv, capsys):
    assert run(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# Exit codes, determinism, batch.
# ---------------------------------------------------------------------------

def test_usage_errors_exit_three(capsys):
    assert run(["ask", "--rep", "classic:alt:3"]) == 3  # missing --prime
    assert run(["no-such-verb"]) == 3
    assert run(["cc", "--prime", "5"]) == 3
    assert run(["cc", "--free-nilpotent", "2,2", "--baer", "classic:alt:2",
                "--prime", "5"]) == 3
    assert run(["cc", "--free-nilpotent", "", "--prime", "5"]) == 3
    assert run(["zeta-verify", "--against", "classical_mat", "--prime", "3"]) == 3
    assert run(["check-admissible", "/nonexistent.grid"]) == 3
    capsys.readouterr()


def test_budget_exit_four(capsys):
    assert run(["ask", "--rep", "classic:mat:3,3", "--prime", "5",
                "--method", "direct", "--budget", "100"]) == 4
    capsys.readouterr()


def test_sampled_certifiers_budget_bounds_log_table(capsys):
    # over Z/p^n the draws are keyed through a log table of |R| entries, so
    # a budget below |R| = 9 is refused before anything is drawn
    for argv in (["orbital-check", "--big", "alpha:3", "--sub", "alphahat:3"],
                 ["constant-rank", "--family", "gamma", "--I", "1-3", "--J", "1-3",
                  "--rank", "1"]):
        argv += ["--prime", "3", "--n", "2"]
        assert run(argv + ["--budget", "5"]) == 4
        assert capsys.readouterr().err.startswith("budget exceeded: ")
        assert run(argv + ["--budget", "9", "--samples", "50"]) == 0
    capsys.readouterr()


def test_direct_census_without_rows(tmp_path, capsys):
    # I is empty, so every element is the empty matrix and ask = 1, both
    # over F_3 (3^5 elements) and over F_11 (11^5)
    labels = list("abcde")
    spec = tmp_path / "norows.json"
    spec.write_text(json.dumps({"B": labels, "I": [], "J": ["1", "2"],
                                "gens": {b: [] for b in labels}}))
    for prime in ("3", "11"):
        for method in ("direct", "orbit"):
            code, out = run_out(["ask", "--method", method, "--rep", f"file:{spec}",
                                 "--prime", prime], capsys)
            assert (code, out.strip()) == (0, "1/1"), (prime, method)


def test_census_runs_beyond_int64(capsys):
    # 3037000507 is the least prime p with (p - 1)^2 >= 2^63, where int64
    # products of residues would overflow; the census is exact at any p:
    # ask = (p + (p - 1)) / p, the kernels of c = 0 and of c != 0
    for method in ("direct", "orbit"):
        code, out = run_out(["ask", "--method", method, "--rep", "classic:mat:1",
                             "--prime", "3037000507", "--budget", "10000000000"], capsys)
        assert (code, out.strip()) == (0, "6074001013/3037000507"), method


def test_reports_have_no_floats_and_are_deterministic(capsys):
    argv = ["zeta-verify", "--rep", "classic:sym:2", "--against",
            "classical_sym", "--params", "d=2", "--prime", "3", "--json"]
    _, out1 = run_out(argv, capsys)
    _, out2 = run_out(argv, capsys)
    assert out1 == out2
    report = json.loads(out1)

    def no_floats(x):
        assert not isinstance(x, float)
        if isinstance(x, dict):
            for v in x.values():
                no_floats(v)
        elif isinstance(x, list):
            for v in x:
                no_floats(v)

    no_floats(report)
    # canonical serialization round-trips byte-identically
    assert json.dumps(report, sort_keys=True, separators=(",", ":")) == out1.strip()


def test_batch_empty_manifest(tmp_path, capsys):
    manifest = tmp_path / "empty.txt"
    manifest.write_text("# nothing to do\n\n")
    code, out = run_out(["batch", str(manifest), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["counts"] == {"pass": 0, "soft": 0, "fail": 0}


def test_batch_shipped_manifest_passes(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # manifest paths are relative to the repo root
    code, out = run_out(["batch", "manifests/acceptance.txt", "--json"], capsys)
    assert code == 0
    report = json.loads(out.strip().splitlines()[-1])
    assert report["counts"]["fail"] == 0 and report["counts"]["soft"] == 0
    assert report["counts"]["pass"] > 0


def test_batch_keeps_going_after_failure(tmp_path, capsys):
    manifest = tmp_path / "mixed.txt"
    manifest.write_text(
        f"check-admissible {grid('sample_a')} --family rho\n"
        f"check-admissible {grid('sample_c')} --family rho\n"
        "ask --rep classic:alt:2 --prime 3\n")
    code, out = run_out(["batch", str(manifest), "--json"], capsys)
    assert code == 1
    # child commands print their own reports first; the aggregate is last
    report = json.loads(out.strip().splitlines()[-1])
    assert report["counts"] == {"pass": 2, "soft": 0, "fail": 1}
    assert len(report["results"]) == 3


def test_batch_continues_past_unsupported_input(tmp_path, capsys):
    manifest = tmp_path / "unsupported.txt"
    manifest.write_text("".join(" ".join(argv) + "\n" for argv in UNSUPPORTED_CC)
                        + "ask --rep classic:alt:2 --prime 3\n")
    code, out = run_out(["batch", str(manifest), "--json"], capsys)
    assert code == 1
    report = json.loads(out.strip().splitlines()[-1])
    assert [r["exit"] for r in report["results"]] == [3, 3, 0]
    assert report["counts"] == {"pass": 1, "soft": 0, "fail": 2}


RING_ERRORS = [["ask", "--rep", "classic:mat:2", "--prime", "4"],
               ["ask", "--rep", "classic:mat:2", "--prime", "3", "--n", "0"]]


@pytest.mark.parametrize("argv", RING_ERRORS)
def test_ring_errors_exit_three(argv, capsys):
    assert run(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_batch_continues_past_ring_error(tmp_path, capsys):
    manifest = tmp_path / "rings.txt"
    manifest.write_text("".join(" ".join(argv) + "\n" for argv in RING_ERRORS)
                        + "ask --rep classic:alt:2 --prime 3\n")
    code, out = run_out(["batch", str(manifest), "--json"], capsys)
    assert code == 1
    report = json.loads(out.strip().splitlines()[-1])
    assert [r["exit"] for r in report["results"]] == [3, 3, 0]
    assert report["counts"] == {"pass": 1, "soft": 0, "fail": 2}


# Unknown predictions and malformed representations; the file: specs are
# relative to a directory that write_malformed_reps has filled.
INPUT_ERRORS = [
    ["zeta-verify", "--rep", "classic:alt:3", "--against", "nosuch", "--prime", "3"],
    ["zeta-verify", "--rep", "classic:alt:3", "--against", "classical_alt",
     "--params", "e=3", "--prime", "3"],
    ["zeta-verify", "--rep", "classic:alt:3", "--against", "classical_sl",
     "--params", "d=1", "--prime", "3"],
    ["ask", "--rep", "file:.", "--prime", "3"],
    ["ask", "--rep", "file:nogens.json", "--prime", "3"],
    ["ask", "--rep", "file:badshape.json", "--prime", "3"],
    ["ask", "--rep", "file:notobject.json", "--prime", "3"],
    ["ask", "--rep", "file:fraction.json", "--prime", "3", "--method", "direct"],
    ["orbital-check", "--big", "classic:alt:3", "--sub", "classic:alt:2", "--prime", "3"],
    ["ask", "--rep", "classic:alt:3,7", "--prime", "3"],  # alt takes one dimension
    ["ask", "--rep", "classic:mat:2,2,9", "--prime", "3"],  # mat takes at most two
]


def write_malformed_reps(directory: Path) -> None:
    (directory / "nogens.json").write_text(
        json.dumps({"B": ["a"], "I": ["1"], "J": ["1"]}))
    (directory / "badshape.json").write_text(
        json.dumps({"B": ["a"], "I": ["1"], "J": ["1"], "gens": {"a": [[1, 2]]}}))
    (directory / "notobject.json").write_text(json.dumps([1, 2]))
    (directory / "fraction.json").write_text(  # the direct census read 1.5 as 1
        json.dumps({"B": ["a"], "I": ["1"], "J": ["1"], "gens": {"a": [[1.5]]}}))


@pytest.mark.parametrize("argv", INPUT_ERRORS)
def test_input_errors_exit_three(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_malformed_reps(tmp_path)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_batch_continues_past_input_errors(tmp_path, monkeypatch, capsys):
    # each line used to end the whole run in a traceback
    monkeypatch.chdir(tmp_path)
    write_malformed_reps(tmp_path)
    manifest = tmp_path / "inputs.txt"
    manifest.write_text("".join(" ".join(argv) + "\n" for argv in INPUT_ERRORS)
                        + "ask --rep classic:alt:2 --prime 3\n")
    code, out = run_out(["batch", str(manifest), "--json"], capsys)
    assert code == 1
    report = json.loads(out.strip().splitlines()[-1])
    assert [r["exit"] for r in report["results"]] == [3] * len(INPUT_ERRORS) + [0]
    assert report["counts"] == {"pass": 1, "soft": 0, "fail": len(INPUT_ERRORS)}


VACUOUS_CHECKS = [
    ["orbital-check", "--big", "alpha:3", "--sub", "alphahat:3", "--prime", "3",
     "--n", "2", "--samples", "0"],
    ["constant-rank", "--family", "rho", "--I", "1-2", "--J", "1-3", "--rank", "0",
     "--prime", "3", "--samples", "-5"],
    ["zeta-verify", "--rep", "classic:alt:2", "--against", "classical_alt",
     "--params", "d=2", "--prime", "3", "--terms", "0"],
    ["constant-rank", "--family", "rho", "--I", "3-1", "--J", "1-2", "--rank", "0",
     "--prime", "3"],  # a reversed range names no rows
]


@pytest.mark.parametrize("argv", VACUOUS_CHECKS)
def test_checks_of_nothing_are_refused(argv, capsys):
    # zero samples, no rows, or only the coefficient c_0 = 1, would pass
    # vacuously
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "at least 1" in captured.err
    assert captured.out == ""


def test_header_echoes_seed_only(capsys):
    code, out = run_out(["ask", "--rep", "classic:alt:2", "--prime", "3",
                         "--json", "--seed", "7"], capsys)
    assert code == 0
    assert json.loads(out)["header"] == {"seed": 7}


def test_orbit_path_runs_without_numpy():
    # every library path runs in pure Python: the acceptance manifest, the
    # sampled orbital check over Z/9, and the direct census (rank-dist and
    # ask --method direct); numpy serves only the tests' vectorised oracles
    script = ("import sys\n"
              "from gridask.cli import run\n"
              "codes = [run(argv.split()) for argv in sys.argv[1:]]\n"
              "print(codes, 'numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script, "batch manifests/acceptance.txt",
         "orbital-check --big alpha:3 --sub alphahat:3 --prime 3 --n 2 --samples 300",
         "rank-dist --rep classic:mat:2 --prime 5",
         "ask --method direct --rep classic:sym:3 --prime 3 --n 2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"
