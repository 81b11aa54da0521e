"""Re-derive every reference answer stored in workloads.py and compare.

Run from the repository root:  python3 perfbench/derive_refs.py

No reference comes from the enumeration a job runs.  The sources are:
  * zeta coefficients and ask values: the closed-form catalog
    (gridask.predictions), expanded at q = p or q = p^f;
  * admissibility verdicts: the manifest's own expectation flag;
  * point counts of the certifiers: |points with a unit coordinate| =
    q^dim - 1 over F_q, |points with all coordinates non-zero| =
    (q-1)^dim, and the sample count over Z/p^n;
  * conjugacy-class counts: the F2d_cc / F3d_cc / baer_cc series, and
    cc --baer classic:alt:3 --prime 3 = 105 as asserted in the tests;
  * rank distributions: the rank-r matrix counts over F_q below.
"""
from __future__ import annotations

import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from gridask import cli, predictions  # noqa: E402
from gridask.colouring import parse_grid  # noqa: E402

import workloads  # noqa: E402


def q_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def rank_count(n: int, r: int, q: int) -> int:
    """Number of n x n matrices of rank r over F_q."""
    out = q_binomial(n, r, q)
    for i in range(r):
        out *= q**n - q**i
    return out


def trace_zero_rank_count(n: int, r: int, q: int) -> int:
    """Number of trace-zero n x n matrices of rank r over F_q.

    By orthogonality of the additive characters psi of F_q,
    #{rank r, trace 0} = (N_r + (q - 1) S_r) / q with
    S_r = sum over rank-r A of psi(tr A) = (-1)^r q^C(r,2) [n choose r]_q
    (the eigenvalue of the bilinear-forms scheme at a rank-n form).
    """
    s = (-1) ** r * q ** (r * (r - 1) // 2) * q_binomial(n, r, q)
    total = rank_count(n, r, q) + (q - 1) * s
    assert total % q == 0
    return total // q


def _frac(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def derive(cmd: str):
    tokens = shlex.split(cmd)
    verb, one = tokens[0], workloads.options(tokens)
    if verb == "check-admissible":
        return "--expect-inadmissible" not in tokens
    if verb == "zeta-verify":
        if "--params" in one:
            params = {k: int(v) for k, v in
                      (t.split("=") for t in one["--params"].split(","))}
        else:
            beta = parse_grid((ROOT / one["--grid"]).read_text()).colouring
            params = {"d": beta.d, "e": beta.e}
        pred = predictions.predict(one["--against"], **params)
        terms = int(one.get("--terms", 1))
        primes = [val for key, val in zip(tokens, tokens[1:]) if key == "--prime"]
        return {p: tuple(_frac(c) for c in pred.series(int(p), terms))
                for p in primes}
    if verb in ("constant-rank", "orbital-check"):
        q = int(one["--prime"])
        if verb == "constant-rank":
            lo, hi = one["--I"].split("-")
            dim = int(hi) - int(lo) + 1
            return {"checked": q**dim - 1, "passed": True}
        if int(one.get("--n", 1)) > 1:
            return {"checked": 10**4, "passed": True}  # the default sample count
        dim = len(cli.build_rep(one["--big"]).I)
        return {"checked": (q - 1) ** dim, "passed": True}
    if verb == "cc":
        p = int(one["--prime"])
        if "--free-nilpotent" in one:
            c, d = (int(t) for t in one["--free-nilpotent"].split(","))
            return int(predictions.predict(f"F{c}d_cc", d=d).coefficient(p, 1))
        if one["--baer"] == "classic:alt:3" and p == 3:
            return 105  # tests/test_cli.py::test_cc_baer
        beta = parse_grid((ROOT / one["--baer"].partition(":")[2]).read_text()).colouring
        pred = predictions.predict("baer_cc", d=beta.d, e=beta.e, b=len(beta.colours()))
        return int(pred.coefficient(p, 1))
    if verb == "rank-dist":
        q = int(one["--prime"])
        _, name, n = one["--rep"].split(":")
        count = {"mat": rank_count, "sl": trace_zero_rank_count}[name]
        return {str(r): count(int(n), r, q) for r in range(int(n) + 1)}
    if verb == "ask":
        _, name, dims = one["--rep"].split(":")
        d, *e = (int(t) for t in dims.split(","))
        params = {"d": d, "e": e[0]} if name == "mat" else {"d": d}
        pred = predictions.predict(f"classical_{name}", **params)
        return _frac(pred.coefficient(int(one["--prime"]), int(one["--n"])))
    if verb == "askzeta.ask":
        spec, p, f = tokens[1:]
        _, name, d = spec.split(":")
        pred = predictions.predict(f"classical_{name}", d=int(d))
        return _frac(pred.coefficient(int(p) ** int(f), 1))
    raise ValueError(f"no derivation for {cmd!r}")


def main() -> int:
    bad = 0
    for name, jobs in workloads.WORKLOADS.items():
        for job in jobs:
            got = derive(job.cmd)
            if got != job.expect:
                bad += 1
                print(f"{name}: {job.cmd}\n  stored  {job.expect!r}\n  derived {got!r}")
    print("all references re-derived" if not bad else f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
