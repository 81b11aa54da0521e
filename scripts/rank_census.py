#!/usr/bin/env python3
"""Tabulate the rank distribution of a grid's relation module over several
prime fields, next to the resulting average kernel size.

Usage: python3 scripts/rank_census.py GRID_FILE [PRIME ...]
"""
import sys
from pathlib import Path

from gridask.askzeta import rank_distribution
from gridask.colouring import parse_grid
from gridask.modrep import board_rep
from gridask.rings import PadicQuotient


def main() -> None:
    if len(sys.argv) < 2:
        raise SystemExit(__doc__.strip())
    parsed = parse_grid(Path(sys.argv[1]).read_text())
    primes = [int(a) for a in sys.argv[2:]] or [3, 5, 7]
    rep = board_rep(parsed.colouring, parsed.units)
    d, e = len(rep.I), len(rep.J)
    print(f"{sys.argv[1]}: {d}x{e} grid, module rank {rep.rank}")
    for q in primes:
        dist = rank_distribution(rep, PadicQuotient(q))
        counts = " ".join(f"r{r}:{dist.counts[r]}" for r in sorted(dist.counts))
        print(f"q={q:3d}  {counts}  avg|ker| = {dist.ask_value(d)}")


if __name__ == "__main__":
    main()
