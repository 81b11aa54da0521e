import random

import pytest
from hypothesis import example, given, settings, strategies as st

from gridask.linalg import Mat, divisor_profile, image_size, partial_smith, rank
from gridask.modrep import ModuleRep, alpha_rep, classic_rep
from gridask.rings import ExtField, PadicQuotient

from oracles import (act_left, brute_image_size, brute_kernel_size, mat_add,
                     mat_from_int_rows, mat_identity, mat_mul, mat_transpose, mat_zero,
                     naive_divisor_profile, naive_field_rank, naive_orbit_matrix,
                     naive_rank_modp)
from test_askzeta import alternating_reps

RINGS = [PadicQuotient(3), PadicQuotient(5),
         PadicQuotient(2, 2), PadicQuotient(3, 2),
         ExtField(2, 2)]


def kernel_size(m: Mat) -> int:
    """|{x in R^rows : x m = 0}| = |R|^rows / image_size(m)."""
    return m.ring.cardinality() ** m.rows // image_size(m)


def test_mat_equality_and_shape():
    # rings built apart compare equal, so the matrices over them do
    m = Mat(PadicQuotient(3, 2), 2, 2, (1, 0, 0, 3))
    assert m == Mat(PadicQuotient(3, 2), 2, 2, (1, 0, 0, 3))
    assert m != Mat(PadicQuotient(3, 1), 2, 2, (1, 0, 0, 3))
    assert m != Mat(PadicQuotient(3, 2), 1, 4, (1, 0, 0, 3))
    assert m != Mat(PadicQuotient(3, 2), 2, 2, (1, 0, 0, 6))
    with pytest.raises(ValueError):
        Mat(PadicQuotient(3), 2, 2, (1, 0, 0))


def test_profile_diag_example():
    R = PadicQuotient(5, 2)
    m = mat_from_int_rows(R, [[1, 0], [0, 5]])
    assert divisor_profile(m) == (0, 1)


def test_profile_zero_matrix_capped():
    R = PadicQuotient(5, 2)
    assert divisor_profile(mat_zero(R, 2, 3)) == (2, 2)


def test_profile_all_ones_rank_one():
    F = PadicQuotient(3)
    m = mat_from_int_rows(F, [[1, 1, 1]] * 3)
    assert divisor_profile(m) == (0, 1, 1)
    assert rank(m) == 1


def test_kernel_identity_and_zero():
    F5 = PadicQuotient(5)
    assert kernel_size(mat_identity(F5, 3)) == 1
    F3 = PadicQuotient(3)
    assert kernel_size(mat_zero(F3, 2, 2)) == 9


def test_kernel_diag_5_1_over_z25():
    R = PadicQuotient(5, 2)
    m = mat_from_int_rows(R, [[5, 0], [0, 1]])
    assert kernel_size(m) == 5
    assert brute_kernel_size(m) == 5


def _random_mat(ring, rows, cols, rng):
    elems = list(ring.elements())
    return Mat(ring, rows, cols,
               tuple(rng.choice(elems) for _ in range(rows * cols)))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_kernel_times_image_is_domain_size(ring):
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        m = _random_mat(ring, rows, cols, rng)
        assert ring.cardinality() ** rows % image_size(m) == 0


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_kernel_and_image_match_enumeration(ring):
    rng = random.Random(23)
    for _ in range(15):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        m = _random_mat(ring, rows, cols, rng)
        assert kernel_size(m) == brute_kernel_size(m)
        assert image_size(m) == brute_image_size(m)


def test_rank_matches_naive_row_reduction():
    rng = random.Random(37)
    for p in (2, 3, 5):
        F = PadicQuotient(p)
        for _ in range(40):
            rows = [[rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))]
                    for _ in range(rng.randrange(1, 5))]
            rows = [r[:len(rows[0])] + [0] * (len(rows[0]) - len(r)) for r in rows]
            m = mat_from_int_rows(F, rows)
            assert rank(m) == naive_rank_modp(rows, p)


def _random_invertible(ring, n, rng):
    elems = list(ring.elements())
    while True:
        m = Mat(ring, n, n, tuple(rng.choice(elems) for _ in range(n * n)))
        if kernel_size(m) == 1:
            return m


@pytest.mark.parametrize("ring", [PadicQuotient(3), PadicQuotient(3, 2)],
                         ids=str)
def test_profile_invariant_under_invertible_multiplication(ring):
    rng = random.Random(53)
    for _ in range(100):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        m = _random_mat(ring, rows, cols, rng)
        u = _random_invertible(ring, rows, rng)
        v = _random_invertible(ring, cols, rng)
        assert divisor_profile(mat_mul(mat_mul(u, m), v)) == divisor_profile(m)


def test_profile_reduction_compatibility():
    # reduce a Z/p^n matrix mod p: residue-field rank = number of zero valuations
    rng = random.Random(71)
    R = PadicQuotient(3, 3)
    F = PadicQuotient(3)
    for _ in range(50):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        ints = [[rng.randrange(27) for _ in range(cols)] for _ in range(rows)]
        prof = divisor_profile(mat_from_int_rows(R, ints))
        zero_count = sum(1 for v in prof if v == 0)
        assert zero_count == rank(mat_from_int_rows(F, ints))


def test_act_left_matches_mul():
    F = PadicQuotient(5)
    m = mat_from_int_rows(F, [[1, 2], [3, 4], [0, 1]])
    x = (1, 2, 3)
    row = mat_from_int_rows(F, [list(x)])
    assert act_left(m, x) == mat_mul(row, m).entries


def test_transpose_preserves_profile():
    rng = random.Random(97)
    R = PadicQuotient(2, 3)
    for _ in range(30):
        m = _random_mat(R, rng.randrange(1, 4), rng.randrange(1, 4), rng)
        assert divisor_profile(m) == divisor_profile(mat_transpose(m))


@st.composite
def int_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return [[draw(st.integers(-60, 60)) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=80, deadline=None)
@given(pk=st.sampled_from([(2, 3), (3, 3)]), ints=int_matrices())
@example(pk=(3, 3), ints=[[0, 9, 3], [0, 3, 18], [0, 6, 6]])  # zero column, p-adic pivots
@example(pk=(2, 3), ints=[[4, 2, 0, 6], [2, 0, 0, 4]])
@example(pk=(3, 3), ints=[[3, 0], [9, 0], [0, 6], [1, 27], [0, 0]])  # tall: runs on the transpose
@example(pk=(2, 3), ints=[[4, 6, 2], [2, 2, 0], [6, 0, 4], [0, 4, 4]])
def test_profile_matches_enumeration_over_z8_and_z27(pk, ints):
    # the elimination touches only the active block (rows and columns from
    # the pivot on) and runs on the shorter side; its profile is the Smith
    # profile, and the image size it gives is the enumerated one (where
    # R^rows is small enough to enumerate)
    p, n = pk
    m = mat_from_int_rows(PadicQuotient(p, n), ints)
    assert divisor_profile(m) == naive_divisor_profile(ints, p, n)
    if p ** (n * m.rows) <= 27**3:
        assert image_size(m) == brute_image_size(m)


@st.composite
def tall_field_matrices(draw):
    """A matrix over F_4 or F_9 with more rows (3 to 5) than columns, as
    rows of a random combination of rank-many random rows, so that every
    rank up to the column count is common."""
    field = draw(st.sampled_from([ExtField(2, 2), ExtField(3, 2)]))
    elements = st.sampled_from(list(field.elements()))
    rows = draw(st.integers(3, 5))
    cols, r = draw(st.integers(1, rows - 1)), draw(st.integers(0, rows))
    base = [[draw(elements) for _ in range(cols)] for _ in range(r)]
    out = []
    for _ in range(rows):
        row = [field.zero] * cols
        for b in base:
            c = draw(elements)
            row = [field.add(x, field.mul(c, y)) for x, y in zip(row, b)]
        out.append(row)
    return field, out


@settings(max_examples=60, deadline=None)
@given(case=tall_field_matrices())
def test_tall_field_rank_matches_row_reduction(case):
    # the matrix and its wide transpose: the elimination runs on the
    # columns of the one and the rows of the other
    field, rows = case
    r = naive_field_rank(rows, field)
    for ints in (rows, [list(col) for col in zip(*rows)]):
        m = Mat(field, len(ints), len(ints[0]), tuple(x for row in ints for x in row))
        assert rank(m) == r
        assert divisor_profile(m) == (0,) * r + (1,) * (min(m.rows, m.cols) - r)


@st.composite
def primitive_orbit_matrices(draw):
    """(rep, p, n, x): an alternating rep, so C(x) x = 0, and a point x of
    (Z/p^n)^I with a unit coordinate when I is not empty."""
    rep = draw(alternating_reps())
    p, n = draw(st.sampled_from([(2, 3), (3, 2), (3, 3), (5, 2)]))
    x = [draw(st.integers(0, p**n - 1)) for _ in rep.I]
    if x:
        x[draw(st.integers(0, len(x) - 1))] = draw(st.sampled_from(
            [u for u in range(p**n) if u % p]))
    return rep, p, n, tuple(x)


@settings(max_examples=80, deadline=None)
@given(case=primitive_orbit_matrices())
@example(case=(classic_rep("alt", 3), 3, 3, (3, 1, 9)))
@example(case=(classic_rep("alt", 4), 2, 3, (1, 2, 4, 0)))
@example(case=(alpha_rep(3), 3, 2, (1, 3, 0, 6, 2, 4)))
@example(case=(ModuleRep(("a",), (1, 2), (1, 2), (((0, 3), (-3, 0)),)), 3, 3, (9, 1)))
def test_profile_stopped_at_the_rank_bound_matches_the_oracle(case):
    # at a primitive x at most rank_bound valuations of C(x) lie below the
    # cap, so the elimination that stops at that many pivots and pads the
    # rest with the cap gives the full Smith profile
    rep, p, n, x = case
    ring = PadicQuotient(p, n)
    m = naive_orbit_matrix(rep, ring, x)
    assert rep.rank_bound <= max(len(rep.J) - 1, 0)
    assert divisor_profile(m, rep.rank_bound) == naive_divisor_profile(
        [list(m.row(b)) for b in range(m.rows)], p, n)


@st.composite
def smith_cases(draw):
    p, n = draw(st.sampled_from([(2, 2), (2, 4), (3, 3), (5, 2)]))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    # entries u * p^e, so that valuations above 0 and blocks are common
    ints = [[draw(st.integers(-4, 4)) * p ** draw(st.integers(0, n)) for _ in range(cols)]
            for _ in range(rows)]
    return p, n, draw(st.integers(1, n)), rows, cols, ints


@settings(max_examples=80, deadline=None)
@given(case=smith_cases())
@example(case=(3, 3, 2, 3, 3, [[0, 12, 27], [12, 9, 3], [27, 3, 0]]))
@example(case=(2, 4, 3, 2, 0, [[], []]))
@example(case=(3, 3, 2, 2, 2, [[1, 1], [0, 9]]))  # the pivot row has a nonzero tail
# the first pivot of least valuation is in neither the first row nor the
# first column, so Z and the carried blocks sit at columns out of order
@example(case=(3, 3, 2, 3, 3, [[3, 9, 0], [0, 3, 1], [9, 0, 3]]))
@example(case=(2, 4, 3, 3, 2, [[4, 2], [8, 0], [0, 1]]))
@example(case=(5, 2, 1, 2, 3, [[5, 0, 10], [0, 5, 2]]))  # Z is 1 x 2 and carried
@example(case=(2, 3, 2, 3, 3, [[2, 0, 4], [0, 4, 1], [0, 4, 2]]))  # Z is 1 x 1
# Z empty: full rank square, t = rows < cols, and t = cols < rows
@example(case=(5, 2, 2, 2, 2, [[5, 1], [2, 0]]))
@example(case=(3, 3, 2, 2, 3, [[3, 9, 1], [0, 3, 6]]))
@example(case=(2, 4, 3, 3, 1, [[4], [8], [6]]))
def test_partial_smith_splits_off_the_block(case):
    # P m Q = diag(p^v) + Z: m carried through the operations gives back Z;
    # the carried unit matrices E_ij give blocks that span every matrix of
    # Z's shape mod p (the rows of P and the columns of Q at Z have full
    # rank mod p); every valuation is below stop and every entry of Z at or
    # above it; and the valuations with Z's profile make the profile of m
    p, n, stop, rows, cols, ints = case
    R = PadicQuotient(p, n)
    m = Mat(R, rows, cols, tuple(R.from_int(x) for row in ints for x in row))
    units = [Mat(R, rows, cols, tuple(R.from_int(int(e == f)) for f in range(rows * cols)))
             for e in range(rows * cols)]
    valuations, (block, *carried) = partial_smith(m, stop, [m] + units)
    t = len(valuations)
    if t == min(rows, cols):  # Z is empty, and no carried block is formed
        assert carried == []
        carried = [block] * (1 + len(units))  # each would be empty, of Z's shape
    carried_m, *unit_blocks = carried
    assert carried_m == block
    flat_blocks = [[x for row in b for x in row] for b in unit_blocks]
    assert naive_rank_modp(flat_blocks, p) == (rows - t) * (cols - t)
    Z = Mat(R, rows - t, cols - t, tuple(x for row in block for x in row))
    assert all(v < stop for v in valuations)
    assert all(R.valuation(z) >= stop for z in Z.entries)
    assert tuple(sorted(valuations + list(divisor_profile(Z)))) == divisor_profile(m)
    # each carried block is the one the operations on m make of E_ij: for
    # 2s - (stop - 1) >= n every cross term of m + p^s E_ij vanishes, so its
    # profile is the valuations and that of Z + p^s (the block of E_ij)
    s = max(stop, (n + stop) // 2)
    scale = R.from_int(p**s)
    for e, b in zip(units, flat_blocks):
        lifted = Mat(R, rows - t, cols - t,
                     tuple(R.add(z, R.mul(scale, x)) for z, x in zip(Z.entries, b)))
        scaled = Mat(R, rows, cols, tuple(R.mul(scale, x) for x in e.entries))
        assert (tuple(sorted(valuations + list(divisor_profile(lifted))))
                == divisor_profile(mat_add(m, scaled)))


class Unreadable(Mat):
    """A matrix whose rows may not be read."""

    __slots__ = ()

    def row(self, i: int) -> tuple:
        raise AssertionError("a carried matrix was read")


@pytest.mark.parametrize("ints", [[[1, 2], [3, 4]], [[0, 5, 1], [25, 1, 0]]],
                         ids=["full-rank-square", "t-equals-rows"])
def test_partial_smith_leaves_the_carry_unread_when_z_is_empty(ints):
    # every pivot has valuation below stop, so Z has no rows or no columns,
    # and no carried block is formed
    R = PadicQuotient(5, 3)
    rows, cols = len(ints), len(ints[0])
    m = mat_from_int_rows(R, ints)
    carried = [Unreadable(R, rows, cols, m.entries) for _ in range(3)]
    valuations, blocks = partial_smith(m, 2, carried)
    assert len(valuations) == min(rows, cols)
    assert blocks == [[]]
    tall = mat_from_int_rows(R, [list(col) for col in zip(*ints)])
    valuations, blocks = partial_smith(tall, 2, [Unreadable(R, cols, rows, tall.entries)])
    assert blocks == [[[]] * (cols - rows)]


@pytest.mark.parametrize("ints,bound,valuations", [
    ([[1, 2], [2, 4]], 1, [0]),  # rank 1: Z = 0
    ([[0, 5, -5], [-5, 0, 1], [5, -1, 0]], 2, [0, 0]),  # alternating: (1, 5, 5) is a kernel vector
    ([[25, 0], [0, 0]], 1, []),  # no pivot below stop: the carry is replayed on Z
], ids=["rank-one", "alternating", "below-bound"])
def test_partial_smith_stops_at_the_bound(ints, bound, valuations):
    # at bound pivots the search stops: Z is left as the row operations
    # made it, 0 mod p^stop, and no carried matrix is read; below the bound
    # the carry is replayed as without one
    R = PadicQuotient(5, 3)
    m = mat_from_int_rows(R, ints)
    rows, cols = m.rows, m.cols
    if len(valuations) == bound:
        found, blocks = partial_smith(m, 2, [Unreadable(R, rows, cols, m.entries)], bound)
        assert blocks[1:] == []
    else:
        found, blocks = partial_smith(m, 2, [m], bound)
        assert blocks == partial_smith(m, 2, [m])[1]
    assert found == valuations
    assert all(R.valuation(z) >= 2 for row in blocks[0] for z in row)
    assert len(blocks[0]) == rows - len(valuations)
