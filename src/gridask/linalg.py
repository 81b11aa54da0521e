"""Matrices over the finite rings of :mod:`gridask.rings`.

Rank and elementary-divisor computations by exact Gaussian elimination;
over Z/p^n pivots are chosen by minimal valuation and cleared with
unit-part inversion, so the resulting valuation multiset is the
Smith-type divisor profile (capped at n).

Convention: matrices act on the left on row vectors, x |-> x m, so the
kernel of an r x c matrix lives in R^r.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .rings import Ring


@dataclass(frozen=True)
class Mat:
    """Immutable matrix over a finite ring (row-major entry tuple)."""

    ring: Ring
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_int_rows(ring: Ring, rows: Sequence[Sequence[int]]) -> "Mat":
        return Mat(ring, len(rows), len(rows[0]) if rows else 0,
                   tuple(ring.from_int(x) for row in rows for x in row))

    @staticmethod
    def zero(ring: Ring, rows: int, cols: int) -> "Mat":
        return Mat(ring, rows, cols, (ring.zero,) * (rows * cols))

    @staticmethod
    def identity(ring: Ring, n: int) -> "Mat":
        ents = [ring.zero] * (n * n)
        for i in range(n):
            ents[i * n + i] = ring.one
        return Mat(ring, n, n, tuple(ents))

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def add(self, other: "Mat") -> "Mat":
        R = self.ring
        return Mat(R, self.rows, self.cols,
                   tuple(R.add(a, b) for a, b in zip(self.entries, other.entries)))

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        R = self.ring
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = R.zero
                for k in range(self.cols):
                    acc = R.add(acc, R.mul(self[i, k], other[k, j]))
                out.append(acc)
        return Mat(R, self.rows, other.cols, tuple(out))

    def transpose(self) -> "Mat":
        return Mat(self.ring, self.cols, self.rows,
                   tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)))

    def act_left(self, x: Sequence) -> tuple:
        """Row vector times matrix: (x m)_j = sum_i x_i m_ij."""
        R = self.ring
        out = []
        for j in range(self.cols):
            acc = R.zero
            for i in range(self.rows):
                acc = R.add(acc, R.mul(x[i], self[i, j]))
            out.append(acc)
        return tuple(out)


def divisor_profile(m: Mat) -> tuple[int, ...]:
    """Sorted multiset of elementary-divisor valuations, capped at the ring cap.

    Length min(rows, cols).  Over a field the cap is 1 and the profile
    encodes the rank as the number of zero entries.
    """
    R = m.ring
    cap = R.cap
    a = [list(m.row(i)) for i in range(m.rows)]
    rows, cols = m.rows, m.cols
    profile: list[int] = []
    top = 0  # active block starts at (top, top) after swaps
    while top < rows and top < cols:
        # pivot of minimal valuation in the active block
        best = None
        best_v = cap
        for i in range(top, rows):
            for j in range(top, cols):
                v = R.valuation(a[i][j])
                if v < best_v:
                    best, best_v = (i, j), v
                    if v == 0:
                        break
            if best_v == 0:
                break
        if best is None:
            break  # all-zero block: capped valuations fill the rest
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
            row[top + 1:] = [R.sub(y, R.mul(factor, z))
                             for y, z in zip(row[top + 1:], pivot_tail)]
        profile.append(best_v)
        top += 1
    profile += [cap] * (min(rows, cols) - len(profile))
    return tuple(sorted(profile))


def partial_smith(m: Mat, stop: int) -> tuple[list[int], list[list], list[list], list[list]]:
    """Diagonalise m until every entry of the active block has valuation >= stop.

    Returns (valuations, left, right, block) with P m Q = diag(p^v for v in
    valuations) + block (a block sum) for invertible P and Q: every v is
    below stop, every entry of block has valuation >= stop, left holds the
    rows of P and right the columns of Q that belong to block.  With stop =
    the ring cap the valuations, padded with the cap, are divisor_profile(m).
    """
    R = m.ring
    rows, cols = m.rows, m.cols
    a = [list(m.row(i)) for i in range(rows)]
    left = [[R.one if i == j else R.zero for j in range(rows)] for i in range(rows)]
    right = [[R.one if i == j else R.zero for i in range(cols)] for j in range(cols)]
    valuations: list[int] = []
    top = 0
    while top < rows and top < cols:
        best, best_v = None, stop
        for i in range(top, rows):
            for j in range(top, cols):
                v = R.valuation(a[i][j])
                if v < best_v:
                    best, best_v = (i, j), v
                    if v == 0:
                        break
            if best_v == 0:
                break
        if best is None:
            break
        bi, bj = best
        a[top], a[bi] = a[bi], a[top]
        left[top], left[bi] = left[bi], left[top]
        for row in a[top:]:
            row[top], row[bj] = row[bj], row[top]
        right[top], right[bj] = right[bj], right[top]
        unit_inv = R.inv(R.exact_div(a[top][top], best_v))
        pivot_row, pivot_left, pivot_right = a[top], left[top], right[top]
        # rows below the pivot lose their entry in its column (as in
        # divisor_profile), and the columns right of it lose their entry in
        # its row, which changes only Q: the pivot column is now zero below
        for r in range(top + 1, rows):
            x = a[r][top]
            if not R.is_zero(x):
                f = R.mul(unit_inv, R.exact_div(x, best_v))
                a[r][top + 1:] = [R.sub(y, R.mul(f, z))
                                  for y, z in zip(a[r][top + 1:], pivot_row[top + 1:])]
                left[r] = [R.sub(y, R.mul(f, z)) for y, z in zip(left[r], pivot_left)]
        for c in range(top + 1, cols):
            x = pivot_row[c]
            if not R.is_zero(x):
                f = R.mul(unit_inv, R.exact_div(x, best_v))
                right[c] = [R.sub(y, R.mul(f, z)) for y, z in zip(right[c], pivot_right)]
        valuations.append(best_v)
        top += 1
    return valuations, left[top:], right[top:], [row[top:] for row in a[top:]]


def rank(m: Mat) -> int:
    """Rank over a field = number of zero valuations in the profile."""
    return sum(1 for v in divisor_profile(m) if v == 0)


def profile_image_size(profile: Sequence[int], ring: Ring) -> int:
    """|{x m : x in R^rows}| for a matrix m over ring with this divisor profile."""
    size = 1
    for v in profile:
        size *= ring.p ** (ring.residue_log * (ring.cap - v))
    return size


def image_size(m: Mat) -> int:
    """|{x m : x in R^rows}| from the divisor profile."""
    return profile_image_size(divisor_profile(m), m.ring)


def kernel_size(m: Mat) -> int:
    """|{x in R^rows : x m = 0}| = |R|^rows / image_size(m)."""
    return m.ring.cardinality() ** m.rows // image_size(m)
