"""Matrices over the finite rings of :mod:`gridask.rings`.

Rank and elementary-divisor computations by exact Gaussian elimination,
all in one loop (partial_smith); over Z/p^n pivots are chosen by minimal
valuation and cleared with unit-part inversion, so the resulting
valuation multiset is the Smith-type divisor profile (capped at n).

Convention: matrices act on the left on row vectors, x |-> x m, so the
kernel of an r x c matrix lives in R^r.
"""
from __future__ import annotations

from itertools import chain
from typing import Sequence

from .rings import Ring


class Mat:
    """Matrix over a finite ring (row-major entry tuple); nothing changes it
    once built, and two matrices with equal rings, shapes and entries are
    equal."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, rows: int, cols: int, entries: tuple) -> None:
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.ring, self.rows, self.cols, self.entries = ring, rows, cols, entries

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and (self.rows, self.cols, self.entries, self.ring)
                == (other.rows, other.cols, other.entries, other.ring))

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]


def divisor_profile(m: Mat, bound: int | None = None) -> tuple[int, ...]:
    """Sorted multiset of elementary-divisor valuations, capped at the ring cap.

    Length min(rows, cols).  Over a field the cap is 1 and the profile
    encodes the rank as the number of zero entries.  This is partial_smith
    run to stop = cap with nothing carried: its valuations, padded with the
    cap for the all-zero block that is left, with bound as in partial_smith.
    The profile of m is that of its transpose, so the elimination runs on
    the shorter side: on the transpose when m has more rows than columns.
    """
    cap = m.ring.cap
    if m.rows > m.cols:
        m = Mat(m.ring, m.cols, m.rows, tuple(chain.from_iterable(
            m.entries[j::m.cols] for j in range(m.cols))))
    valuations = partial_smith(m, cap, bound=bound)[0]
    return tuple(sorted(valuations + [cap] * (m.rows - len(valuations))))


def partial_smith(m: Mat, stop: int, carried: Sequence[Mat] = (),
                  bound: int | None = None) -> tuple[list[int], list[list[list]]]:
    """Diagonalise m until every entry of the active block has valuation >= stop.

    The row and column operations bring m to P m Q = diag(p^v for v in
    valuations) + Z (a block sum) for invertible P and Q: every v is below
    stop and every entry of Z has valuation >= stop.  Returns (valuations,
    blocks): blocks[0] is Z, and blocks[1:] are the blocks of P c Q at Z's
    rows and columns, one per carried c of m's shape, each a list of rows.
    The loop eliminates m alone and records each pivot's operations; the
    carried matrices go through them afterwards.  bound, min(rows, cols)
    unless given, promises that at most that many valuations are below
    stop: at bound pivots the search stops, the rest of Z is 0 mod p^stop
    (Z is empty at min(rows, cols)), and no carried block is formed, so
    blocks is [Z] alone.  With stop = the ring cap and nothing carried
    this is divisor_profile.
    """
    R = m.ring
    rows, cols = m.rows, m.cols
    zero = R.zero
    a = [list(m.row(i)) for i in range(rows)]
    pivots = []  # for the carried matrices: (bi, bj, column below, tail, unit^-1, v)
    valuations: list[int] = []
    top = 0  # active block starts at (top, top) after swaps
    bound = min(rows, cols) if bound is None else bound
    while top < bound:
        # pivot of minimal valuation in the active block; entries are
        # canonical, so the common zeros are passed over without a valuation
        best = None
        best_v = stop
        for i in range(top, rows):
            row = a[i]
            for j in range(top, cols):
                x = row[j]
                if x == zero:
                    continue
                v = R.valuation(x)
                if v < best_v:
                    best, best_v = (i, j), v
                    if v == 0:
                        break
            if best_v == 0:
                break
        if best is None:
            break  # every entry of the active block has valuation >= stop
        bi, bj = best
        # only the active block is read again: rows top.., columns top..
        a[top], a[bi] = a[bi], a[top]
        for row in a[top:]:
            row[top], row[bj] = row[bj], row[top]
        # pivot = p^v * unit and each entry x below it has valuation >= v,
        # so factor = (x / p^v) * unit^-1 has factor * pivot = x
        unit_inv = R.inv(R.exact_div(a[top][top], best_v))
        pivot_tail = a[top][top + 1:]
        for row in a[top + 1:]:
            x = row[top]
            if R.is_zero(x):
                continue
            factor = R.mul(unit_inv, R.exact_div(x, best_v))
            row[top + 1:] = R.sub_multiple(row[top + 1:], factor, pivot_tail)
        if carried:
            # m's pivot column below the pivot, which the row update leaves in place
            pivots.append((bi, bj, [row[top] for row in a[top + 1:]], pivot_tail,
                           unit_inv, best_v))
        valuations.append(best_v)
        top += 1
    block = [row[top:] for row in a[top:]]
    if top == bound:  # Z is 0 mod p^stop, so the carried blocks are not formed
        return valuations, [block]
    carried = [[list(c.row(i)) for i in range(rows)] for c in carried]
    for step, (bi, bj, column, pivot_tail, unit_inv, v) in enumerate(pivots):
        # the same swaps and operations on every carried matrix: the row
        # factors clear m's pivot column, and the column factors its pivot
        # row's tail (m skips them: after its row operations they would
        # change only its pivot row)
        row_factors = [R.mul(unit_inv, R.exact_div(x, v)) for x in column]
        col_factors = [R.mul(unit_inv, R.exact_div(z, v)) for z in pivot_tail]
        for c in carried:
            c[step], c[bi] = c[bi], c[step]
            for row in c[step:]:
                row[step], row[bj] = row[bj], row[step]
            pivot = c[step][step:]
            for row, f in zip(c[step + 1:], row_factors):
                if not R.is_zero(f):
                    row[step:] = R.sub_multiple(row[step:], f, pivot)
                x = row[step]
                if not R.is_zero(x):
                    row[step + 1:] = R.sub_multiple(row[step + 1:], x, col_factors)
    return valuations, [block] + [[row[top:] for row in c[top:]] for c in carried]


def rank(m: Mat) -> int:
    """Rank over a field = number of zero valuations in the profile."""
    return sum(1 for v in divisor_profile(m) if v == 0)


def profile_image_size(profile: Sequence[int], ring: Ring) -> int:
    """|{x m : x in R^rows}| for a matrix m over ring with this divisor
    profile: a divisor p^v contributes q^(cap - v), q the residue field's size."""
    return ring.residue_cardinality() ** sum(ring.cap - v for v in profile)


def image_size(m: Mat) -> int:
    """|{x m : x in R^rows}| from the divisor profile."""
    return profile_image_size(divisor_profile(m), m.ring)
