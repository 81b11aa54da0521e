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
    def from_rows(ring: Ring, rows: Sequence[Sequence]) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        ents = tuple(x for row in rows for x in row)
        return Mat(ring, r, c, ents)

    @staticmethod
    def from_int_rows(ring: Ring, rows: Sequence[Sequence[int]]) -> "Mat":
        return Mat.from_rows(ring, [[ring.from_int(x) for x in row] for row in rows])

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
        a[top], a[bi] = a[bi], a[top]
        for row in a:
            row[top], row[bj] = row[bj], row[top]
        pivot = a[top][top]
        # pivot = p^v * unit; dividing the pivot row by the unit part
        # leaves p^v exactly (1 over a field) at the pivot
        unit_inv = R.inv(R.exact_div(pivot, best_v))
        a[top] = [R.mul(unit_inv, x) for x in a[top]]
        for i in range(top + 1, rows):
            x = a[i][top]
            if R.is_zero(x):
                continue
            # x has valuation >= v, so x / p^v is exact
            factor = R.exact_div(x, best_v)
            a[i] = [R.sub(a[i][j], R.mul(factor, a[top][j])) for j in range(cols)]
        # column clearing is implicit: remaining rows already have 0 in
        # column top, and the pivot row is dropped from the active block
        profile.append(best_v)
        top += 1
    profile += [cap] * (min(rows, cols) - len(profile))
    return tuple(sorted(profile))


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
