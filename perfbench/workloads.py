"""The benchmark's workloads: job lists with stored exact reference answers.

A job is one `gridask` command line, run through `gridask.cli.run` with
`--json --seed <seed>` appended, or the one `askzeta.ask` call over
F_{p^f} that has no CLI flag (written "askzeta.ask SPEC p f").  Every
reference below was derived without the enumeration the job runs; see
derive_refs.py, which re-derives and checks them all.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    cmd: str
    expect: object

    @property
    def verb(self) -> str:
        return self.cmd.split(None, 1)[0]


# The 31 lines of manifests/acceptance.txt, in order.
ACCEPTANCE = (
    Job("check-admissible grids/sample_a.grid --family rho", True),
    Job("check-admissible grids/sample_b.grid --family rho", True),
    Job("check-admissible grids/sample_c.grid --family rho --expect-inadmissible", False),
    Job("check-admissible grids/sample_d.grid --family rho --expect-inadmissible", False),
    Job("check-admissible grids/quartic.grid --family rho", True),
    Job("check-admissible grids/quintic.grid --family rho --expect-inadmissible", False),
    Job("check-admissible grids/traceless_2.grid --family rho", True),
    Job("check-admissible grids/traceless_3.grid --family rho", True),
    Job("check-admissible grids/rainbow_4_7.grid --level 1", True),
    Job("check-admissible grids/rainbow_6_7.grid --level 1 --expect-inadmissible", False),
    Job("zeta-verify --module board --grid grids/sample_a.grid --against classical_mat"
        " --prime 3 --prime 5",
        {'3': ('1/1', '53/27'), '5': ('1/1', '249/125')}),
    Job("zeta-verify --module board --grid grids/sample_b.grid --against classical_mat"
        " --prime 3 --prime 7",
        {'3': ('1/1', '53/27'), '7': ('1/1', '685/343')}),
    Job("zeta-verify --module board --grid grids/quartic.grid --against classical_mat"
        " --prime 5",
        {'5': ('1/1', '249/125')}),
    Job("zeta-verify --module board --grid grids/sample_c.grid --against nfamily"
        " --params N=2 --prime 5 --prime 7",
        {'5': ('1/1', '297/125'), '7': ('1/1', '793/343')}),
    Job("zeta-verify --module board --grid grids/quintic.grid --against ex19"
        " --prime 5 --prime 7",
        {'5': ('1/1', '53/25'), '7': ('1/1', '103/49')}),
    Job("zeta-verify --module altboard --grid grids/adm_2x2.grid --against cor_C"
        " --prime 3 --prime 5",
        {'3': ('1/1', '107/27'), '5': ('1/1', '749/125')}),
    Job("zeta-verify --module altboard --grid grids/adm_2x3.grid --against cor_C"
        " --prime 3 --prime 5",
        {'3': ('1/1', '323/81'), '5': ('1/1', '3749/625')}),
    Job("zeta-verify --module symboard --grid grids/adm_2x2.grid --against cor_D"
        " --prime 3 --prime 5",
        {'3': ('1/1', '161/81'), '5': ('1/1', '1249/625')}),
    Job("zeta-verify --rep classic:alt:3 --against classical_alt --params d=3"
        " --prime 3 --prime 5",
        {'3': ('1/1', '35/9'), '5': ('1/1', '149/25')}),
    Job("zeta-verify --rep classic:sl:2 --against classical_sl --params d=2"
        " --prime 3 --prime 5",
        {'3': ('1/1', '17/9'), '5': ('1/1', '49/25')}),
    Job("zeta-verify --rep alpha:2 --against kite --params m=1,n=2 --prime 3 --prime 5",
        {'3': ('1/1', '35/9'), '5': ('1/1', '149/25')}),
    Job("zeta-verify --rep alpha:3 --against kite --params m=3,n=3 --prime 3 --prime 5",
        {'3': ('1/1', '131/27'), '5': ('1/1', '869/125')}),
    Job("zeta-verify --rep triangular-pair:2 --against ex14_L --params d=2"
        " --prime 3 --prime 5",
        {'3': ('1/1', '11/3'), '5': ('1/1', '21/5')}),
    Job("constant-rank --family rho --I 1-2 --J 1-3 --rank 0 --prime 3",
        {'checked': 8, 'passed': True}),
    Job("constant-rank --family sigma --I 1-3 --J 1-3 --rank 0 --prime 3",
        {'checked': 26, 'passed': True}),
    Job("constant-rank --family gamma --I 1-3 --J 1-3 --rank 1 --prime 5",
        {'checked': 124, 'passed': True}),
    Job("orbital-check --big alpha:3 --sub alphahat:3 --prime 5",
        {'checked': 4096, 'passed': True}),
    Job("cc --free-nilpotent 2,2 --prime 5", 29),
    Job("cc --free-nilpotent 3,2 --prime 5", 149),
    Job("cc --baer classic:alt:3 --prime 3", 105),
    Job("cc --baer altboard:grids/adm_2x2.grid --prime 3", 963),
)

ORBIT_ZETA = (
    Job("zeta-verify --module altboard --grid grids/adm_2x3.grid --against cor_C"
        " --prime 3 --terms 2",
        {'3': ('1/1', '323/81', '1049/81')}),
    Job("zeta-verify --rep alpha:3 --against kite --params m=3,n=3 --prime 5",
        {'5': ('1/1', '869/125')}),
    Job("zeta-verify --module board --grid grids/quartic.grid --against classical_mat"
        " --prime 3 --terms 3",
        {'3': ('1/1', '53/27', '79/27', '35/9')}),
    Job("zeta-verify --module symboard --grid grids/adm_2x2.grid --against cor_D"
        " --prime 3 --terms 2",
        {'3': ('1/1', '161/81', '241/81')}),
    Job("orbital-check --big alpha:3 --sub alphahat:3 --prime 3 --n 2",
        {'checked': 10000, 'passed': True}),
    Job("askzeta.ask classic:alt:4 3 2",
        '7289/729'),
)

DIRECT_CENSUS = (
    Job("rank-dist --rep classic:mat:3 --prime 5",
        {'0': 1, '1': 3844, '2': 461280, '3': 1488000}),
    Job("rank-dist --rep classic:sl:3 --prime 5",
        {'0': 1, '1': 744, '2': 92380, '3': 297500}),
    Job("ask --method direct --rep classic:mat:2,3 --prime 3 --n 2",
        '113/81'),
    Job("ask --method direct --rep classic:sym:3 --prime 3 --n 2",
        '79/27'),
)

WORKLOADS = {
    "acceptance": ACCEPTANCE,
    "orbit-zeta": ORBIT_ZETA,
    "direct-census": DIRECT_CENSUS,
}


def _frac(d: dict) -> str:
    return f"{d['num']}/{d['den']}"


def answer(verb: str, report: dict):
    """The part of a --json report that the reference pins down."""
    if verb == "check-admissible":
        return report["admissible"]
    if verb == "zeta-verify":
        return {str(c["prime"]): tuple(_frac(k["brute"]) for k in c["coefficients"])
                for c in report["checks"]}
    if verb in ("constant-rank", "orbital-check"):
        return {"checked": report["checked"], "passed": report["passed"]}
    if verb == "cc":
        return report["classes"]
    if verb == "rank-dist":
        return report["counts"]
    if verb == "ask":
        return _frac(report["value"])
    raise ValueError(f"no answer extractor for verb {verb!r}")


def options(tokens: list[str]) -> dict[str, str]:
    """Flag -> value for every flag in a command line that takes a value."""
    return {key: val for key, val in zip(tokens, tokens[1:])
            if key.startswith("--") and not val.startswith("--")}
