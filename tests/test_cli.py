import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from gridask import nilpotent, predictions
from gridask.askzeta import direct_profile_counts
from gridask.cli import run
from gridask.modrep import alpha_rep, rep_from_json
from gridask.rings import PadicQuotient

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


def test_manifest_rank_dist_line_matches_the_census(capsys):
    # the manifest's rank-dist line walks 3,610 torus orbits of the 56,632
    # subspaces of F_3^6; the census of the 3^12 elements of alpha:3 pins
    # its counts
    line = "rank-dist --rep alpha:3 --prime 3"
    assert line in (ROOT / "manifests" / "acceptance.txt").read_text().splitlines()
    expected = {0: 1, 2: 3068, 4: 225108, 6: 303264}
    by_rank = Counter()
    for prof, n in direct_profile_counts(alpha_rep(3), PadicQuotient(3)).items():
        by_rank[prof.count(0)] += n
    assert by_rank == expected
    code, out = run_out(line.split() + ["--json"], capsys)
    assert code == 0
    assert json.loads(out)["counts"] == {str(r): n for r, n in expected.items()}


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


def test_zero_unit_is_an_input_error(tmp_path, capsys):
    # a 0 in a units block ended in a traceback with exit 1, the code of a
    # mismatch, and inside batch it stopped the lines after it from running
    zero = tmp_path / "zero.grid"
    zero.write_text("grid:\na .\n. a\nunits:\n0 1\n1 1\n")
    line = f"zeta-verify --module board --grid {zero} --against classical_mat --prime 3"
    assert run(line.split()) == 3
    assert capsys.readouterr().err == "error: u(1, 1) = 0\n"
    manifest = tmp_path / "lines.txt"
    manifest.write_text(line + "\nask --rep classic:alt:2 --prime 3\n")
    code, out = run_out(["batch", str(manifest), "--json"], capsys)
    assert code == 1
    report = json.loads(out.strip().splitlines()[-1])
    assert [r["exit"] for r in report["results"]] == [3, 0]


@pytest.mark.parametrize("module,against", [("board", "classical_mat"), ("altboard", "cor_C"),
                                            ("symboard", "cor_D")])
def test_zero_unit_on_a_blank_cell_is_unused(module, against, tmp_path, capsys):
    # the modules read the units of the coloured cells only: a 0 on the
    # blank cell (1, 2) was refused (exit 3), where a 3 there passed at p = 3
    zero = tmp_path / "zero.grid"
    zero.write_text("grid:\na .\n. a\nunits:\n1 0\n1 1\n")
    code, out = run_out(["zeta-verify", "--module", module, "--grid", str(zero),
                         "--against", against, "--prime", "3", "--prime", "5", "--json"],
                        capsys)
    assert code == 0
    assert [check["passed"] for check in json.loads(out)["checks"]] == [True, True]


@pytest.mark.parametrize("spec,against", [("--module board --grid {grid}", "classical_mat"),
                                          ("--rep board:{grid}", "classical_mat"),
                                          ("--rep altboard:{grid}", "cor_C"),
                                          ("--rep symboard:{grid}", "cor_D")])
def test_zeta_verify_refuses_units_divisible_by_the_prime(spec, against, tmp_path, capsys):
    # the closed forms need units mod p on the coloured cells: at p = 3 the
    # board of these units read brute 7/3 against the predicted 17/9, exit 1
    units = tmp_path / "units.grid"
    units.write_text("grid:\na .\n. a\nunits:\n1 1\n1 3\n")
    argv = ["zeta-verify", *spec.format(grid=units).split(),
            "--against", against, "--params", "d=2,e=2"]
    assert run(argv + ["--prime", "5", "--prime", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: u(2, 2) = 3 is divisible by the prime 3")
    assert run(argv + ["--prime", "5"]) == 0
    # a unit on a blank cell is unused
    units.write_text("grid:\na .\n. a\nunits:\n1 3\n1 1\n")
    assert run(argv + ["--prime", "3"]) == 0


# Every verb that builds a board over a ring refuses a unit that p divides.
# At p = 3 each answered for the module spanned by E_11 alone, where the
# relation 3 x_11 + x_12 + x_13 = 0 cuts out a module of rank 2.
UNITS_311 = "grid:\na a a\nunits:\n3 1 1\n"
UNIT_VERBS = [["ask", "--rep", "board:{grid}"],
              ["rank-dist", "--rep", "board:{grid}"],
              ["orbital-check", "--big", "board:{grid}", "--sub", "classic:mat:1,3"],
              ["orbital-check", "--big", "classic:mat:1,3", "--sub", "board:{grid}"],
              ["cc", "--baer", "altboard:{grid}"]]


@pytest.mark.parametrize("argv", UNIT_VERBS, ids=["ask", "rank-dist", "orbital-big",
                                                  "orbital-sub", "cc-baer"])
def test_every_verb_refuses_units_divisible_by_the_prime(argv, tmp_path, capsys):
    units = tmp_path / "units.grid"
    units.write_text(UNITS_311)
    assert run([a.format(grid=units) for a in argv] + ["--prime", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: u(1, 1) = 3 is divisible by the prime 3\n"


def test_ask_reads_units_that_are_units_mod_p(tmp_path, capsys):
    units = tmp_path / "units.grid"
    units.write_text(UNITS_311)
    code, out = run_out(["ask", "--rep", f"board:{units}", "--prime", "5"], capsys)
    assert (code, out) == (0, "29/25\n")


def test_zeta_verify_reads_parameters_from_the_rep_grid(capsys):
    # d and e come from the grid the module is built from: without --grid
    # this exited 3 with "classical_mat needs parameter d"
    code, out = run_out(["zeta-verify", "--rep", f"board:{grid('sample_a')}",
                         "--against", "classical_mat", "--prime", "3", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["checks"][0]["passed"] is True


@pytest.mark.parametrize("spec", [f"board:{grid('sample_a')}", "classic:mat:2"],
                         ids=["board", "classic"])
def test_zeta_verify_refuses_a_grid_the_rep_is_not_built_from(spec, capsys):
    # --grid belongs to --module: beside --rep, the module against the
    # closed form at adm_2x3's d and e read as a hard mismatch (exit 1)
    argv = ["zeta-verify", "--rep", spec, "--grid", grid("adm_2x3"),
            "--against", "classical_mat", "--prime", "3"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --grid goes with --module, not --rep {spec}\n"


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


def test_cc_free_nilpotent_any_class(capsys):
    # class 4 is the catalog's F42_cc, and one generator gives the abelian
    # group Z/p whatever the class
    for spec, classes in [("4,2", 1345), ("5,1", 5), ("1000000000,1", 5)]:
        code, out = run_out(["cc", "--free-nilpotent", spec, "--prime", "5", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["classes"] == classes


@pytest.mark.parametrize("argv, code", [
    # the census of 4,2 over F_5 has 5^5 points, one coordinate per Lyndon
    # word shorter than 4
    (["--free-nilpotent", "4,2", "--prime", "5", "--budget", "3124"], 4),
    (["--free-nilpotent", "13,2", "--prime", "17"], 4),
    (["--free-nilpotent", "1000000000,2", "--prime", "1000000007"], 4),
    (["--free-nilpotent", "4,3", "--prime", "5"], 4),
    (["--free-nilpotent", "13,2", "--prime", "3", "--budget", "10000000000000"], 3),
])
def test_cc_refuses_before_building(argv, code, monkeypatch, capsys):
    def build(d, c):
        raise AssertionError(f"built the class-{c} algebra on {d} generators")
    monkeypatch.setattr(nilpotent, "free_nilpotent_lie", build)
    assert run(["cc"] + argv) == code
    assert capsys.readouterr().err.startswith("budget exceeded: " if code == 4 else "error: ")


def test_cc_budget_admits_the_smallest_census(capsys):
    code, out = run_out(["cc", "--free-nilpotent", "4,2", "--prime", "5",
                         "--budget", "3125", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["classes"] == 1345


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


def test_zeta_verify_checks_the_budget_before_expanding_the_closed_form(monkeypatch, capsys):
    # the census over Z/3^2000 is refused at once; expanding the closed form
    # to T^2000 first took seconds before the same exit 4
    def expanded(*args):
        raise AssertionError("the closed form was expanded before the budget check")

    monkeypatch.setattr(predictions.Prediction, "series", expanded)
    assert run(["zeta-verify", "--rep", "classic:sl:2", "--against", "classical_sl",
                "--params", "d=2", "--prime", "3", "--terms", "2000"]) == 4
    assert capsys.readouterr().err.startswith("budget exceeded: ")


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


def test_reused_parser_leaks_no_state(capsys):
    # run builds its grammar once per process, so no parse may leave state
    # for the next: not the primes --prime appended, not a verb's func, not
    # a parse that failed half-way.  Each line must print what a fresh
    # process prints.
    zeta = ["zeta-verify", "--rep", "classic:sl:2", "--against", "classical_sl",
            "--params", "d=2", "--json"]
    lines = [(zeta + ["--prime", "3", "--prime", "5"], 0),
             (zeta + ["--prime", "11", "--terms", "0"], 3),
             (["check-admissible", grid("sample_a"), "--family", "rho", "--json"], 0),
             (zeta + ["--prime", "7"], 0)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv, expected in lines:
        code = run(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "gridask", *argv], cwd=ROOT,
                               env=env, capture_output=True, text=True, timeout=120)
        assert code == expected
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr)
    assert [c["prime"] for c in json.loads(captured.out)["checks"]] == [7]


def test_cli_import_loads_no_code_generation_modules():
    # every command pays for its imports: the records are NamedTuples and
    # plain classes, so no dataclass machinery (inspect and the modules it
    # pulls in) is loaded; -S keeps site hooks from importing any of them
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import gridask.cli; "
             "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
             " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(ROOT / "src")],
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out == "[]\n"


def test_batch_empty_manifest(tmp_path, capsys):
    manifest = tmp_path / "empty.txt"
    manifest.write_text("# nothing to do\n\n")
    code, out = run_out(["batch", str(manifest), "--json"], capsys)
    assert code == 0
    # no header: each line runs at its own --seed, so batch has none to echo
    assert json.loads(out) == {"results": [], "counts": {"pass": 0, "soft": 0, "fail": 0}}


def test_batch_shipped_manifest_passes(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # manifest paths are relative to the repo root
    code, out = run_out(["batch", "manifests/acceptance.txt", "--json"], capsys)
    assert code == 0
    report = json.loads(out.strip().splitlines()[-1])
    assert report["counts"]["fail"] == 0 and report["counts"]["soft"] == 0
    assert report["counts"]["pass"] > 0


@pytest.mark.parametrize("argv", [
    ["batch", "manifests/acceptance.txt", "--seed", "5"],
    ["batch", "manifests/acceptance.txt", "--budget", "1"],
    ["dump-rep", "--rep", "alpha:2", "--json"],
    ["dump-rep", "--rep", "alpha:2", "--seed", "5"],
    ["dump-rep", "--rep", "alpha:2", "--budget", "1"],
])
def test_verbs_refuse_options_they_never_read(argv, capsys, monkeypatch):
    # batch ran every line at the default seed and budget whatever it was
    # given, and reported the seed it was given; dump-rep always prints JSON
    monkeypatch.chdir(ROOT)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: unrecognized arguments")


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
NOT_PRIME = [
    ["zeta-verify", "--rep", "classic:sl:2", "--against", "classical_sl", "--params", "d=2",
     "--prime", "0"],
    ["zeta-verify", "--module", "board", "--grid", grid("sample_a"),
     "--against", "classical_mat", "--prime", "0"],
    ["zeta-verify", "--module", "board", "--grid", grid("sample_a"),
     "--against", "classical_mat", "--prime", "1"],
]

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
    # a dimension or generator count below 1 names no module (each was answered)
    ["ask", "--rep", "classic:mat:2,-1", "--prime", "3"],
    ["ask", "--rep", "classic:mat:-2", "--prime", "3"],
    ["ask", "--rep", "classic:mat:0", "--prime", "3"],
    ["ask", "--rep", "classic:alt:-1", "--prime", "3"],
    ["ask", "--rep", "classic:sl:-3", "--prime", "3"],
    ["ask", "--rep", "alpha:-1", "--prime", "3"],
    ["ask", "--rep", "alphahat:0", "--prime", "3"],
    ["ask", "--rep", "triangular-pair:-1", "--prime", "3"],
    ["cc", "--free-nilpotent", "3,-2", "--prime", "5"],
    ["cc", "--free-nilpotent", "0,2", "--prime", "5"],  # a class below 1 names no group
    ["cc", "--free-nilpotent", "-1,2", "--prime", "5"],
    # a negative cokernel rank or level names no claim to check
    ["constant-rank", "--family", "rho", "--I", "1-2", "--J", "1-3", "--rank", "-1",
     "--prime", "3"],
    ["check-admissible", str(ROOT / "grids" / "sample_a.grid"), "--level", "-1"],
    # --module builds the module from --grid, so a --rep beside it was ignored
    ["zeta-verify", "--module", "board", "--grid", str(ROOT / "grids" / "sample_a.grid"),
     "--rep", "alpha:3", "--against", "classical_mat", "--prime", "3"],
    # a negative budget is a bad input, not a census too large for it
    ["ask", "--rep", "classic:mat:2", "--prime", "3", "--budget", "-1"],
    # a repeated index was dropped, so the smaller module was answered
    ["ask", "--rep", "family:rho:1,1:1-2", "--prime", "3"],
    ["constant-rank", "--family", "rho", "--I", "1,1", "--J", "1-2", "--rank", "0",
     "--prime", "3"],
    # baer_cc counts classes, |R|^l * ask, so against ask it reported a mismatch
    ["zeta-verify", "--module", "altboard", "--grid", str(ROOT / "grids" / "adm_2x2.grid"),
     "--against", "baer_cc", "--prime", "3"],
    # so do the other class-number series: F2d_cc exited 1 (brute 29/5 against
    # 29), and F42_cc exited 2, a soft fail for a category error
    ["zeta-verify", "--rep", "classic:alt:2", "--against", "F2d_cc", "--params", "d=2",
     "--prime", "5"],
    ["zeta-verify", "--rep", "classic:alt:2", "--against", "F42_cc", "--prime", "3"],
    # a prime that is not prime: 0 ended in a traceback (exit 1, read as a
    # mismatch), and 1 was reported as dividing a unit
    *NOT_PRIME,
]


@pytest.mark.parametrize("argv", NOT_PRIME, ids=["rep-0", "board-0", "board-1"])
def test_zeta_verify_refuses_a_prime_that_is_not_prime(argv, capsys):
    assert run(argv) == 3
    assert capsys.readouterr().err == f"error: {argv[-1]} is not prime\n"


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


@pytest.mark.parametrize("bad", ['ask --rep "classic:mat:2 --prime 3', "batch {manifest}"])
def test_batch_refuses_a_bad_line_and_goes_on(bad, tmp_path, capsys):
    # an unbalanced quote ended the whole run with no report, and a batch
    # line recursed into a RecursionError (exit 1)
    manifest = tmp_path / "lines.txt"
    manifest.write_text(bad.format(manifest=manifest) + "\nask --rep classic:alt:2 --prime 3\n")
    code, out = run_out(["batch", str(manifest), "--json"], capsys)
    assert code == 1
    report = json.loads(out.strip().splitlines()[-1])
    assert [r["exit"] for r in report["results"]] == [3, 0]
    assert report["counts"] == {"pass": 1, "soft": 0, "fail": 1}


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
    # sampled orbital check over Z/9, the subspace walk of rank-dist and the
    # direct census of ask --method direct; numpy serves only the tests'
    # vectorised oracles
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
