#!/usr/bin/env python3
"""Tabulate the rank distribution of a grid's relation module over several
prime fields, next to the resulting average kernel size.  An input error,
such as a missing grid file, a modulus that is not prime, or a unit of a
coloured cell that one of the primes divides, is refused (exit 3).

Usage: python3 scripts/rank_census.py GRID_FILE [PRIME ...]
"""
import sys

from gridask.askzeta import rank_distribution
from gridask.cli import INPUT_ERRORS, build_rep
from gridask.rings import PadicQuotient


def main() -> None:
    if len(sys.argv) < 2:
        raise SystemExit(__doc__.strip())
    try:  # refused as by the gridask verbs, before anything is printed
        fields = [PadicQuotient(int(a)) for a in sys.argv[2:] or (3, 5, 7)]
        rep = build_rep(f"board:{sys.argv[1]}", fields)
    except INPUT_ERRORS as exc:  # exit 3, the gridask code of an input error
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(3) from None
    d, e = len(rep.I), len(rep.J)
    print(f"{sys.argv[1]}: {d}x{e} grid, module rank {rep.rank}")
    for field in fields:
        dist = rank_distribution(rep, field)
        counts = " ".join(f"r{r}:{dist.counts[r]}" for r in sorted(dist.counts))
        print(f"q={field.p:3d}  {counts}  avg|ker| = {dist.ask_value(d)}")


if __name__ == "__main__":
    main()
