#!/usr/bin/env python3
"""Sweep every canonical partial colouring of a small grid against the
paper's main theorem: the relation module of an admissible colouring of
[d] x [e] has the ask zeta coefficients of the full d x e matrices.

For each colouring the sweep takes the column-deletion game's verdict at
level 0, builds the board module with units drawn from a fixed seed among
1..14 coprime to 15, and compares c_1 and c_2 over Z/9 and c_1 over F_5
with classical_mat(d, e).  It exits 1 at the first admissible colouring
that mismatches, naming it.  It counts the inadmissible colourings that
still match at these rings; that count is not checked, as the paper
claims no converse.  A count that is not an integer, a grid with no rows
or no columns, or a negative colour count is refused (exit 3); a grid
with more rows than the game admits, or a census over the default
budget, exceeds its budget (exit 4).

Usage: python3 scripts/sweep_colourings.py [ROWS] [COLS] [MAX_COLOURS]
"""
import random
import sys
import time
from math import gcd

from gridask.askzeta import BudgetExceeded, verify_prediction
from gridask.boardgame import LevelTooLarge, is_admissible_game, master_rho
from gridask.cli import INPUT_ERRORS, UsageError
from gridask.colouring import PartialColouring
from gridask.modrep import board_rep
from gridask.predictions import predict
from gridask.rings import PadicQuotient

RINGS = (PadicQuotient(3, 2), PadicQuotient(5))  # c_1, c_2 at p = 3; c_1 at p = 5
UNITS = [u for u in range(1, 15) if gcd(u, 15) == 1]  # units mod 3 and mod 5
UNIT_SEED = 1


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


def check(beta, units):
    """(admissible, matches): the game's verdict on beta at level 0, and
    whether the board module of beta with these units has the zeta
    coefficients of classical_mat(d, e) over every ring of RINGS."""
    admissible = is_admissible_game(master_rho(beta), 0).admissible
    rep = board_rep(beta, units)
    prediction = predict("classical_mat", d=beta.d, e=beta.e)
    return admissible, all(verify_prediction(rep, prediction, ring).passed for ring in RINGS)


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
    rng = random.Random(UNIT_SEED)
    total = admissible = converse = 0
    start = time.time()
    try:
        for colour_of in canonical_colourings(d, e, max_colours):
            beta = PartialColouring(d, e, colour_of)
            units = {cell: rng.choice(UNITS) for cell in sorted(colour_of)}
            game, matches = check(beta, units)
            if game and not matches:
                print(f"MISMATCH: admissible {colour_of} with units {units} "
                      f"differs from classical_mat({d}, {e})")
                raise SystemExit(1)
            total += 1
            admissible += game
            converse += matches and not game
    except (BudgetExceeded, LevelTooLarge) as exc:  # exit 4, as the gridask verbs
        print(f"budget exceeded: {exc}", file=sys.stderr)
        raise SystemExit(4) from None
    elapsed = time.time() - start
    print(f"{d}x{e} grids, <= {max_colours} colours (canonical): {total}")
    print(f"admissible: {admissible} ({admissible / total:.1%})")
    print(f"theorem: all {admissible} admissible colourings match classical_mat({d}, {e}) "
          f"over Z/9 (c_1, c_2) and F_5 (c_1)")
    print(f"inadmissible colourings that match too: {converse} of {total - admissible} "
          f"[{elapsed:.1f}s]")


if __name__ == "__main__":
    main()
