"""Command-line front end.

Verbs: check-admissible, ask, zeta-verify, rank-dist, constant-rank,
orbital-check, cc, dump-rep, batch.  Exit codes: 0 = all checks pass,
1 = verification mismatch, 2 = soft fail only (small-prime caveat),
3 = usage, parse or unsupported-input error, 4 = budget exceeded.
Reports go to stdout (text, or canonical JSON with --json); diagnostics
to stderr.  All randomness flows from --seed, echoed in the report header.

Representation specs (for --rep/--big/--sub/--baer):
  classic:NAME:d[,e]      standard module (mat, alt, sym, sl, tr)
  alpha:d / alphahat:d    degree-3 commutator representations
  family:FAM:I:J          generic family, index sets as "1-3" or "1,2,5"
  board:GRID / altboard:GRID / symboard:GRID   relation modules from a grid file
  triangular-pair:d       the block-triangular module of size 2d
  file:PATH.json          serialized representation
Relative input paths are resolved against the working directory.
"""
from __future__ import annotations

import argparse
import json
import shlex
import sys
from fractions import Fraction
from pathlib import Path

from . import askzeta, boardgame, modrep, nilpotent, predictions
from .colouring import ParseError, parse_grid
from .rings import PadicQuotient, RingError

DEFAULT_SEED = 20240601

# Predictions whose closed forms exclude finitely many small primes; a
# mismatch there at p in {2, 3} is reported as a soft failure.
SOFT_PREDICTIONS = {"nfamily", "ex19", "F42_cc"}
SOFT_PRIMES = {2, 3}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 3 instead of argparse's 2
        raise UsageError(message)


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _frac(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
        return
    for key, val in sorted(report.items()):
        print(f"{key}: {val}")


def _parse_index_set(text: str) -> tuple[int, ...]:
    if "-" in text and "," not in text:
        lo, hi = map(int, text.split("-"))
        if hi < lo:
            raise UsageError(f"index range {text} is empty; an index set "
                             "needs at least 1 index")
        return tuple(range(lo, hi + 1))
    return tuple(int(tok) for tok in text.split(","))


def _load_grid(path: str):
    return parse_grid(Path(path).read_text())


BOARD_BUILDERS = {"board": modrep.board_rep, "altboard": modrep.altboard_rep,
                  "symboard": modrep.symboard_rep}


def build_rep(spec: str) -> modrep.ModuleRep:
    head, _, rest = spec.partition(":")
    if head == "classic":
        name, _, dims = rest.partition(":")
        parts = [int(t) for t in dims.split(",")]
        most = 2 if name == "mat" else 1
        if len(parts) > most:
            raise UsageError(f"classic:{name} takes at most {most} dimension(s), "
                             f"got {dims}")
        return modrep.classic_rep(name, *parts)
    if head == "alpha":
        return modrep.alpha_rep(int(rest))
    if head == "alphahat":
        return modrep.alphahat_rep(int(rest))
    if head == "family":
        fam, _, sets = rest.partition(":")
        i_text, _, j_text = sets.partition(":")
        return modrep.family_rep(boardgame.Family(fam),
                                 _parse_index_set(i_text), _parse_index_set(j_text))
    if head in BOARD_BUILDERS:
        parsed = _load_grid(rest)
        return BOARD_BUILDERS[head](parsed.colouring, parsed.units)
    if head == "triangular-pair":
        return modrep.triangular_pair_rep(int(rest))
    if head == "file":
        return modrep.rep_from_json(json.loads(Path(rest).read_text()))
    raise UsageError(f"unknown representation spec {spec!r}")


def _header(args) -> dict:
    return {"seed": getattr(args, "seed", DEFAULT_SEED)}


# ---------------------------------------------------------------------------
# Verb implementations (each returns an exit code).
# ---------------------------------------------------------------------------

def _cmd_check_admissible(args) -> int:
    parsed = _load_grid(args.grid)
    family = boardgame.Family(args.family or parsed.family or "rho")
    master = boardgame.master_symmetric(family, parsed.colouring)
    verdict = boardgame.is_admissible_game(master, args.level, args.budget)
    report = {
        "header": _header(args),
        "family": family.value,
        "level": args.level,
        "admissible": verdict.admissible,
        "certificates": [
            {"H": list(c.H), "D": list(c.D),
             "moves": [[list(cell), col] for cell, col in c.moves]}
            for c in verdict.certificates],
        "witness": verdict.witness,
    }
    _emit(report, args.json)
    return 0 if verdict.admissible == (not args.expect_inadmissible) else 1


def _cmd_ask(args) -> int:
    rep = build_rep(args.rep)
    ring = PadicQuotient(args.prime, args.n)
    result = askzeta.ask(rep, ring, args.method, args.budget)
    report = {"header": _header(args), "method": result.method,
              "ring": f"Z/{args.prime}^{args.n}" if args.n > 1 else f"F_{args.prime}",
              "value": _frac(result.value)}
    if not args.json:
        print(f"{result.value.numerator}/{result.value.denominator}")
    else:
        _emit(report, True)
    return 0


def _prediction_for(args, parsed) -> predictions.Prediction:
    params = {}
    if args.params:
        for tok in args.params.split(","):
            key, _, val = tok.partition("=")
            params[key] = int(val)
    if not params and parsed is not None:
        beta = parsed.colouring
        b = len(beta.colours())
        auto = {"classical_mat": {"d": beta.d, "e": beta.e},
                "cor_C": {"d": beta.d, "e": beta.e},
                "cor_D": {"d": beta.d, "e": beta.e},
                "baer_cc": {"d": beta.d, "e": beta.e, "b": b}}
        params = auto.get(args.against, {})
    return predictions.predict(args.against, **params)


def _cmd_zeta_verify(args) -> int:
    if args.module and not args.grid:
        raise UsageError("--module requires --grid")
    if not args.module and not args.rep:
        raise UsageError("zeta-verify needs --module/--grid or --rep")
    parsed = _load_grid(args.grid) if args.grid else None
    if args.module:
        rep = BOARD_BUILDERS[args.module](parsed.colouring, parsed.units)
    else:
        rep = build_rep(args.rep)
    prediction = _prediction_for(args, parsed)
    exit_code = 0
    reports = []
    for p in args.primes:
        rep_report = askzeta.verify_prediction(rep, prediction, p, args.terms,
                                               args.method, args.budget)
        reports.append({
            "prime": p,
            "prediction": prediction.name,
            "coefficients": [{"n": c.n, "brute": _frac(c.brute),
                              "predicted": _frac(c.predicted), "match": c.match}
                             for c in rep_report.coefficients],
            "passed": rep_report.passed,
        })
        if not rep_report.passed:
            soft = prediction.name in SOFT_PREDICTIONS and p in SOFT_PRIMES
            # a hard failure (1) outranks a soft one (2) whatever the order
            exit_code = (exit_code or 2) if soft else 1
            if soft:
                reports[-1]["soft_fail"] = (
                    "closed form excludes finitely many small primes; "
                    f"p={p} mismatch reported as soft failure")
    _emit({"header": _header(args), "checks": reports}, args.json)
    return exit_code


def _cmd_rank_dist(args) -> int:
    rep = build_rep(args.rep)
    field = PadicQuotient(args.prime)
    dist = askzeta.rank_distribution(rep, field, args.budget)
    report = {"header": _header(args), "q": dist.q,
              "counts": {str(r): dist.counts[r] for r in sorted(dist.counts)}}
    _emit(report, args.json)
    return 0


def _emit_point_report(args, report: askzeta.PointReport) -> int:
    _emit({"header": _header(args), "checked": report.checked, "mode": report.mode,
           "passed": report.passed,
           "violations": [list(map(str, v)) for v in report.violations]}, args.json)
    return 0 if report.passed else 1


def _cmd_constant_rank(args) -> int:
    rep = modrep.family_rep(boardgame.Family(args.family),
                            _parse_index_set(args.I), _parse_index_set(args.J))
    ring = PadicQuotient(args.prime, args.n)
    return _emit_point_report(args, askzeta.constant_rank_check(
        rep, ring, args.rank, args.samples, args.seed, args.budget))


def _cmd_orbital_check(args) -> int:
    big = build_rep(args.big)
    sub = build_rep(args.sub)
    ring = PadicQuotient(args.prime, args.n)
    return _emit_point_report(args, askzeta.orbital_equivalence_check(
        big, sub, ring, args.samples, args.seed, args.budget))


def _cmd_cc(args) -> int:
    if args.free_nilpotent is not None:
        c_text, _, d_text = args.free_nilpotent.partition(",")
        alg = nilpotent.free_nilpotent_lie(int(d_text), int(c_text))
        count = nilpotent.conjugacy_count_bch(alg, args.prime, args.n, args.budget)
        report = {"header": _header(args), "group": f"free class-{c_text} on {d_text}",
                  "prime": args.prime, "n": args.n, "classes": count}
    else:
        rep = build_rep(args.baer)
        count = nilpotent.baer_group_cc(rep, args.prime, args.n, args.budget)
        report = {"header": _header(args), "group": f"baer:{args.baer}",
                  "prime": args.prime, "n": args.n, "classes": count}
    _emit(report, args.json)
    return 0


def _cmd_dump_rep(args) -> int:
    rep = build_rep(args.rep)
    payload = json.dumps(modrep.rep_to_json(rep), sort_keys=True)
    if args.output:
        Path(args.output).write_text(payload + "\n")
    else:
        print(payload)
    return 0


def _cmd_batch(args) -> int:
    lines = Path(args.manifest).read_text().splitlines()
    counts = {"pass": 0, "soft": 0, "fail": 0}
    results = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        code = run(shlex.split(line))
        results.append({"command": line, "exit": code})
        if code == 0:
            counts["pass"] += 1
        elif code == 2:
            counts["soft"] += 1
        else:
            counts["fail"] += 1
    _emit({"header": _header(args), "results": results, "counts": counts}, args.json)
    if counts["fail"]:
        return 1
    if counts["soft"]:
        return 2
    return 0


# ---------------------------------------------------------------------------
# Argument grammar.
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="gridask")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--json", action="store_true")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--budget", type=int, default=askzeta.DEFAULT_BUDGET)

    p = sub.add_parser("check-admissible")
    p.add_argument("grid")
    p.add_argument("--family", choices=["rho", "gamma", "sigma"])
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--expect-inadmissible", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_check_admissible)

    p = sub.add_parser("ask")
    p.add_argument("--rep", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--method", choices=["direct", "orbit"], default="orbit")
    common(p)
    p.set_defaults(func=_cmd_ask)

    p = sub.add_parser("zeta-verify")
    p.add_argument("--module", choices=list(BOARD_BUILDERS))
    p.add_argument("--grid")
    p.add_argument("--rep")
    p.add_argument("--against", required=True)
    p.add_argument("--params")
    p.add_argument("--prime", dest="primes", type=int, action="append", required=True)
    p.add_argument("--terms", type=positive_int, default=1)
    p.add_argument("--method", choices=["direct", "orbit"], default="orbit")
    common(p)
    p.set_defaults(func=_cmd_zeta_verify)

    p = sub.add_parser("rank-dist")
    p.add_argument("--rep", required=True)
    p.add_argument("--prime", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_rank_dist)

    p = sub.add_parser("constant-rank")
    p.add_argument("--family", required=True, choices=["rho", "gamma", "sigma"])
    p.add_argument("--I", required=True)
    p.add_argument("--J", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--samples", type=positive_int, default=10**4)
    common(p)
    p.set_defaults(func=_cmd_constant_rank)

    p = sub.add_parser("orbital-check")
    p.add_argument("--big", required=True)
    p.add_argument("--sub", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--samples", type=positive_int, default=10**4)
    common(p)
    p.set_defaults(func=_cmd_orbital_check)

    p = sub.add_parser("cc")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--free-nilpotent")
    group.add_argument("--baer")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    common(p)
    p.set_defaults(func=_cmd_cc)

    p = sub.add_parser("dump-rep")
    p.add_argument("--rep", required=True)
    p.add_argument("-o", "--output")
    common(p)
    p.set_defaults(func=_cmd_dump_rep)

    p = sub.add_parser("batch")
    p.add_argument("manifest")
    common(p)
    p.set_defaults(func=_cmd_batch)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ParseError, OSError, ValueError, RingError,
            modrep.ShapeMismatch, predictions.UnknownPrediction,
            nilpotent.BadCharacteristic, nilpotent.NotAlternating,
            nilpotent.UnsupportedClass) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (askzeta.BudgetExceeded, boardgame.LevelTooLarge) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
