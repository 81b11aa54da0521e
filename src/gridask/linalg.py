"""Matrices over the finite rings of :mod:`gridask.rings`.

Rank and elementary-divisor computations by exact Gaussian elimination,
all in one loop (partial_smith); over Z/p^n pivots are chosen by minimal
valuation and cleared with unit-part inversion, so the resulting
valuation multiset is the Smith-type divisor profile (capped at n).  The
loop swaps rows only: P m Q is block diagonal once its columns are
permuted by the pivot columns it records, pivots first.

Convention: matrices act on the left on row vectors, x |-> x m, so the
kernel of an r x c matrix lives in R^r.
"""
from __future__ import annotations

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
    the rows of the shorter side: m's columns when it has more rows.
    """
    cap, cols, entries = m.ring.cap, m.cols, m.entries
    if m.rows > cols:
        rows = [list(entries[j::cols]) for j in range(cols)]
    else:
        rows = [list(entries[i * cols:(i + 1) * cols]) for i in range(m.rows)]
    valuations = _eliminate(m.ring, rows, cap, len(rows) if bound is None else bound)[0]
    return tuple(sorted(valuations + [cap] * (len(rows) - len(valuations))))


def partial_smith(m: Mat, stop: int, carried: Sequence[Mat] = (),
                  bound: int | None = None) -> tuple[list[int], list[list[list]]]:
    """Diagonalise m until every entry of the active block has valuation >= stop.

    The row and column operations bring m to P m Q = diag(p^v for v in
    valuations) + Z (a block sum once the columns are permuted) for
    invertible P and Q: every v is below stop and every entry of Z has
    valuation >= stop.  Only rows are swapped: pivot k sits in row k and
    in a column the loop records, and the column permutation puts the
    pivot columns first, in pivot order.  Returns (valuations, blocks):
    blocks[0] is Z, rows t.. (t pivots) at the columns that hold no
    pivot, in order, and blocks[1:] are the blocks of P c Q at the same
    rows and columns, one per carried c of m's shape, each a list of
    rows.  The loop
    (_eliminate) works on m alone and records each pivot's operations;
    the carried matrices go through them afterwards.  bound, min(rows,
    cols) unless given, promises that at most that many valuations are
    below stop: at bound pivots the search stops, the rest of Z is 0 mod
    p^stop (Z is empty at min(rows, cols)), and no carried block is
    formed, so blocks is [Z] alone.  With stop = the ring cap and nothing
    carried this is divisor_profile.
    """
    R = m.ring
    rows, cols = m.rows, m.cols
    a = [list(m.row(i)) for i in range(rows)]
    bound = min(rows, cols) if bound is None else bound
    steps = []
    valuations, pivot_columns = _eliminate(R, a, stop, bound, steps)
    t = len(valuations)
    free = sorted(set(range(cols)) - set(pivot_columns))
    block = [[row[j] for j in free] for row in a[t:]]
    if t == bound:  # Z is 0 mod p^stop, so the carried blocks are not formed
        return valuations, [block]
    zero, mul, exact_div, sub_multiple = R.zero, R.mul, R.exact_div, R.sub_multiple
    carried = [[list(c.row(i)) for i in range(rows)] for c in carried]
    for step, (bi, j, row_factors, pivot_row, unit_inv, v) in enumerate(steps):
        # the same operations on every carried matrix: the row factors
        # clear m's pivot column, and the column factors its pivot row (m
        # skips them: after its row operations they would change only its
        # pivot row).  Factor 1 at column j clears that column of the rows
        # below, and the columns of earlier pivots are not read again.
        col_factors = [mul(unit_inv, z if v == 0 else exact_div(z, v)) for z in pivot_row]
        for c in carried:
            c[step], c[bi] = c[bi], c[step]
            pivot = c[step]
            for r, f in enumerate(row_factors, step + 1):
                row = c[r] if f == zero else sub_multiple(c[r], f, pivot)
                x = row[j]
                c[r] = row if x == zero else sub_multiple(row, x, col_factors)
    return valuations, [block] + [[[row[j] for j in free] for row in c[t:]] for c in carried]


def _eliminate(R: Ring, a: list[list], stop: int, bound: int,
               steps: list | None = None) -> tuple[list[int], list[int]]:
    """The elimination loop of partial_smith on the rows a, in place:
    (valuations, the column of each pivot).  Pivot k is an entry of minimal
    valuation below stop among rows k.. and moves to row k; the rows below
    it then lose a multiple of it that clears its column.  Whole rows are
    updated, so the columns of earlier pivots stay 0 below them.  With
    steps, each pivot appends (its row before the swap, its column, the
    factors of the rows below it, its row, unit^-1, v) for the carry."""
    rows = len(a)
    zero, valuation, inv, mul = R.zero, R.valuation, R.inv, R.mul
    exact_div, sub_multiple = R.exact_div, R.sub_multiple
    valuations, columns = [], []
    top = 0
    while top < bound:
        # entries are canonical, so the zeros, the earlier pivot columns
        # among them, are passed over without a valuation
        best_v = stop
        for i in range(top, rows):
            for j, x in enumerate(a[i]):
                if x != zero:
                    v = valuation(x)
                    if v < best_v:
                        bi, bj, best_v = i, j, v
                        if v == 0:
                            break
            if best_v == 0:
                break
        if best_v == stop:
            break  # every entry of the active block has valuation >= stop
        a[top], a[bi] = a[bi], a[top]
        pivot_row = a[top]
        # pivot = p^v * unit and each entry x below it has valuation >= v,
        # so factor = (x / p^v) * unit^-1 has factor * pivot = x
        pivot = pivot_row[bj]
        unit_inv = inv(pivot if best_v == 0 else exact_div(pivot, best_v))
        factors = []
        for i in range(top + 1, rows):
            x = a[i][bj]
            if x == zero:
                factors.append(zero)
                continue
            factor = mul(unit_inv, x if best_v == 0 else exact_div(x, best_v))
            a[i] = sub_multiple(a[i], factor, pivot_row)
            factors.append(factor)
        if steps is not None:
            steps.append((bi, bj, factors, pivot_row, unit_inv, best_v))
        valuations.append(best_v)
        columns.append(bj)
        top += 1
    return valuations, columns


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
