#!/usr/bin/env python3
"""Sweep every canonical partial colouring of a small grid and report how
many are admissible, cross-checking the closure test against the
column-deletion game.  A count that is not an integer, a grid with no
rows or no columns, or a negative colour count is refused (exit 3); a grid with more rows than the
game admits exceeds its budget (exit 4).

Usage: python3 scripts/sweep_colourings.py [ROWS] [COLS] [MAX_COLOURS]
"""
import sys
import time

from gridask.boardgame import LevelTooLarge, is_admissible_game, master_rho
from gridask.cli import INPUT_ERRORS, UsageError
from gridask.colouring import PartialColouring, is_admissible_rect


def canonical_colourings(d, e, max_colours):
    cells = [(i, j) for i in range(1, d + 1) for j in range(1, e + 1)]

    def rec(idx, used, assign):
        if idx == len(cells):
            yield dict(assign)
            return
        yield from rec(idx + 1, used, assign)
        for c in range(min(used + 1, max_colours)):
            assign[cells[idx]] = f"c{c + 1}"
            yield from rec(idx + 1, max(used, c + 1), assign)
            del assign[cells[idx]]

    yield from rec(0, 0, {})


def main() -> None:
    try:  # refused as by the gridask verbs, before anything is printed
        counts = [int(a) for a in sys.argv[1:4]]
        d, e, max_colours = counts + [3, 3, 3][len(counts):]
        if min(d, e) < 1:
            raise UsageError(f"a grid needs a row and a column, got {d}x{e}")
        if max_colours < 0:
            raise UsageError(f"a colour count is at least 0, got {max_colours}")
    except INPUT_ERRORS as exc:  # exit 3, the gridask code of an input error
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(3) from None
    total = admissible = 0
    start = time.time()
    try:
        for colour_of in canonical_colourings(d, e, max_colours):
            beta = PartialColouring(d, e, colour_of)
            rect = is_admissible_rect(beta).admissible
            game = is_admissible_game(master_rho(beta), 0).admissible
            if rect != game:
                raise SystemExit(f"checker disagreement on {colour_of}")
            total += 1
            admissible += rect
    except LevelTooLarge as exc:  # exit 4, as gridask check-admissible
        print(f"budget exceeded: {exc}", file=sys.stderr)
        raise SystemExit(4) from None
    elapsed = time.time() - start
    print(f"{d}x{e} grids, <= {max_colours} colours (canonical): {total}")
    print(f"admissible: {admissible} ({admissible / total:.1%})")
    print(f"closure test and game agreed on every instance [{elapsed:.1f}s]")


if __name__ == "__main__":
    main()
