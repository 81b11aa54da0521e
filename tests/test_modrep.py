import itertools
import random
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gridask.boardgame import Family
from gridask.colouring import PartialColouring, parse_grid, sl_colouring
from gridask.linalg import rank
from gridask.modrep import (ModuleRep, ShapeMismatch, alpha_rep, alphahat_rep,
                            altboard_rep, board_rep, classic_rep, element_dual,
                            family_rep, rep_from_json, rep_to_json,
                            symboard_rep, triangular_pair_rep)
from gridask.rings import ExtField, PadicQuotient

from oracles import (act_left, alphahat_by_hand, class_values, family_classes, is_blank,
                     mat_add, mat_from_int_rows, naive_ask, naive_element, naive_orbit_matrix,
                     knuth_bullet, naive_rank_modp, random_rep)

GRIDS = Path(__file__).resolve().parent.parent / "grids"
F3 = PadicQuotient(3)


def load(name: str):
    return parse_grid((GRIDS / f"{name}.grid").read_text())


def stacked_rank(rep: ModuleRep, ring) -> int:
    rows = [sum((list(r) for r in g), []) for g in rep.gens]
    return rank(mat_from_int_rows(ring, rows))


# ---------------------------------------------------------------------------
# Module elements and orbit matrices against entry-by-entry formation.
# ---------------------------------------------------------------------------

MATRIX_RINGS = {"F3": F3, "F5": PadicQuotient(5), "Z/8": PadicQuotient(2, 3),
                "Z/9": PadicQuotient(3, 2), "Z/27": PadicQuotient(3, 3),
                "F4": ExtField(2, 2), "F9": ExtField(3, 2)}


@st.composite
def reps_and_points(draw):
    """A ring, a representation of shape up to 3 x 3 with up to 3 generators
    (entries in -30..30), a point of ring^I and a coefficient tuple."""
    name = draw(st.sampled_from(sorted(MATRIX_RINGS)))
    elems = list(MATRIX_RINGS[name].elements())
    dI, dJ, k = (draw(st.integers(0, 3)) for _ in range(3))
    gens = tuple(tuple(tuple(draw(st.integers(-30, 30)) for _ in range(dJ))
                       for _ in range(dI)) for _ in range(k))
    rep = ModuleRep(tuple(range(k)), tuple(range(1, dI + 1)), tuple(range(1, dJ + 1)), gens)
    x = tuple(draw(st.sampled_from(elems)) for _ in range(dI))
    coeffs = tuple(draw(st.sampled_from(elems)) for _ in range(k))
    return name, rep, x, coeffs


@settings(max_examples=150, deadline=None)
@given(case=reps_and_points())
@example(case=("Z/9", ModuleRep((), (1, 2), (1, 2, 3), ()), (4, 5), ()))  # 0 x J
@example(case=("F4", ModuleRep(("a", "b"), (), (1, 2), ((), ())), (), ((1, 1), (0, 1))))
@example(case=("Z/27", ModuleRep(("a", "b"), (1, 2), (1, 2),
                                 (((-1, 5), (-26, 0)), ((0, 0), (0, 0)))), (3, 25), (26, 9)))
@example(case=("F9", ModuleRep(("a",), (1, 2), (1,), (((-4,), (7,)),)), ((2, 1), (0, 2)),
               ((1, 2),)))
# two nonzero a_bij at (a, 1) and at (1, 1) of the element: a second layer
@example(case=("Z/27", ModuleRep(("a", "b"), (1, 2), (1, 2), (((3, 0), (-5, 0)), ((2, 0), (0, 7)))),
               (4, 11), (13, 26)))
@example(case=("F9", ModuleRep(("a",), (1, 2, 3), (1,), (((2,), (0,), (-1,)),)),
               ((1, 1), (2, 0), (0, 1)), ((2, 2),)))  # C(x) is 1 x 1
@example(case=("F5", ModuleRep(("a", "b"), (1, 2), (1, 2, 3), (((0, 0, 0),) * 2,) * 2), (3, 4),
               (1, 2)))  # every generator is 0
def test_matrices_match_entrywise_formation(case):
    name, rep, x, coeffs = case
    ring = MATRIX_RINGS[name]
    assert rep.orbit_matrix_at(ring, x) == naive_orbit_matrix(rep, ring, x)
    assert rep.element(ring, coeffs) == naive_element(rep, ring, coeffs)


# ---------------------------------------------------------------------------
# Relation-module bases from colourings.
# ---------------------------------------------------------------------------

def test_board_all_blank_elementary_basis():
    rep = board_rep(PartialColouring(2, 3))
    assert rep.rank == 6
    assert sorted(rep.labels) == [(i, j) for i in (1, 2) for j in (1, 2, 3)]
    totals = [sum(sum(r) for r in g) for g in rep.gens]
    assert totals == [1] * 6  # each generator is one elementary matrix


def test_board_rank_drops_per_colour():
    for name in ("sample_a", "sample_b", "sample_c", "sample_d", "quartic"):
        beta = load(name).colouring
        rep = board_rep(beta)
        assert rep.rank == beta.d * beta.e - len(beta.colours())
        assert stacked_rank(rep, PadicQuotient(5)) == rep.rank


def test_board_traceless_is_sl():
    rep = board_rep(sl_colouring(3))
    assert rep.rank == 8
    for g in rep.gens:
        assert sum(g[i][i] for i in range(3)) == 0
    assert stacked_rank(rep, F3) == 8


def test_board_scaled_units_same_module():
    # scaling by the pivot unit leaves the spanned module unchanged
    beta = load("sample_a").colouring
    u = {(1, 1): 2, (2, 2): -1, (3, 3): 4}
    rep1 = board_rep(beta)
    rep2 = board_rep(beta, u)
    F7 = PadicQuotient(7)
    assert rep1.rank == rep2.rank
    assert stacked_rank(rep2, F7) == rep2.rank


def test_altboard_rank_formula():
    for name in ("adm_2x2", "adm_2x3"):
        g = load(name)
        beta = g.colouring
        b = len(beta.colours())
        rep = altboard_rep(beta)
        assert rep.rank == comb(beta.d + beta.e, 2) - b
        assert len(rep.I) == beta.d + beta.e


def test_altboard_generators_alternating():
    rep = altboard_rep(load("adm_2x3").colouring)
    for g in rep.gens:
        for i in range(len(rep.I)):
            assert g[i][i] == 0
            for j in range(len(rep.J)):
                assert g[i][j] == -g[j][i]


def test_alternating_needs_square_antisymmetric_generators():
    # one test for the rank bound and the Baer groups: a_{bij} = -a_{bji}
    # on every generator, which over Z leaves 0 on the diagonal
    assert classic_rep("alt", 3).alternating
    assert altboard_rep(load("adm_2x3").colouring).alternating
    assert ModuleRep((), (1, 2), (1, 2), ()).alternating  # no generator to break it
    assert not classic_rep("sym", 2).alternating
    assert not classic_rep("mat", 2, 3).alternating  # not square
    assert not ModuleRep(("a",), (1, 2), (1, 2), (((1, 1), (-1, 0)),)).alternating


def test_symboard_generators_symmetric():
    rep = symboard_rep(load("adm_2x2").colouring)
    for g in rep.gens:
        for i in range(len(rep.I)):
            for j in range(len(rep.J)):
                assert g[i][j] == g[j][i]


def test_one_by_one_blocks():
    alt = altboard_rep(PartialColouring(1, 1))
    assert alt.rank == 1
    assert alt.gens[0] == ((0, 1), (-1, 0))
    sym = symboard_rep(PartialColouring(1, 1))
    assert sym.rank == 3


# Units on sample_a's coloured cells, units mod 5 and mod 7; the 5 sits on
# a blank cell, where units are unused.
SAMPLE_A_UNITS = {(1, 1): 2, (1, 2): 3, (2, 1): 6, (2, 2): -1, (3, 3): 4, (1, 3): 5}
FAMILY_SHAPES = [((1, 2, 3), (1, 2, 3)), ((1, 2), (2, 3, 4)), ((1, 2), (2, 3)),
                 ((2, 3), (1, 2)), ((1, 2), (3, 4, 5))]
BOARDS = {"board": board_rep, "altboard": altboard_rep, "symboard": symboard_rep}
RELATION_CASES = (
    [(family, shape) for family in ("rho", "gamma", "sigma") for shape in FAMILY_SHAPES]
    + [(kind, name) for kind in BOARDS for name in sorted(p.stem for p in GRIDS.glob("*.grid"))]
    + [(kind, "sample_a+units") for kind in BOARDS])


@pytest.mark.parametrize("kind", sorted(BOARDS))
def test_relation_modules_read_the_units_of_coloured_cells_only(kind):
    # the hat colouring has more cells than beta, but its coloured classes
    # are beta's coloured cells: a 0 on every blank cell changes no module
    for path in sorted(GRIDS.glob("*.grid")):
        beta = load(path.stem).colouring
        d, e = beta.d, beta.e
        coloured = {cell: 2 + k for k, cell in enumerate(sorted(beta.colour_of))}
        zeros = {(i, j): 0 for i in range(1, d + 1) for j in range(1, e + 1)
                 if is_blank(beta, (i, j))}
        assert (BOARDS[kind](beta, {**coloured, **zeros})
                == BOARDS[kind](beta, coloured)), path.stem


def relation_case(kind: str, source):
    """(rep, family, I, J, colours), colours mapping each colour to the
    (class, unit) pairs of its relation sum_c u_c x_c = 0."""
    if kind not in BOARDS:
        I, J = source
        return family_rep(Family(kind), I, J), kind, I, J, {}
    name, _, units = source.partition("+")
    g = load(name)
    beta = g.colouring
    u = SAMPLE_A_UNITS if units else g.units
    d, e = beta.d, beta.e
    if kind == "board":
        family, I, J = "rho", tuple(range(1, d + 1)), tuple(range(1, e + 1))
        place = {cell: frozenset([cell]) for cell in beta.colour_of}
    else:  # the cell (i, j) of beta sits on the class of (i, d + j)
        family = "gamma" if kind == "altboard" else "sigma"
        I = J = tuple(range(1, d + e + 1))
        place = {(i, j): frozenset({(i, d + j), (d + j, i)}) for (i, j) in beta.colour_of}
    colours: dict = {}
    for cell, colour in beta.colour_of.items():
        colours.setdefault(colour, []).append((place[cell], u[cell]))
    return BOARDS[kind](beta, u), family, I, J, colours


@pytest.mark.parametrize("kind,source", RELATION_CASES,
                         ids=[f"{kind}-{source}" for kind, source in RELATION_CASES])
def test_relation_module_is_the_solution_set_of_its_relations(kind, source):
    # every generator lies on the grid's cells with the family sign on each
    # class and solves each colour's relation, and over F_5 and F_7 the
    # generators are independent and as many as the solution set's
    # dimension, #classes - #colours
    rep, family, I, J, colours = relation_case(kind, source)
    assert (rep.I, rep.J) == (I, J)
    classes = family_classes(family, I, J)
    index = {cls: k for k, cls in enumerate(classes)}
    values = [class_values(g, I, J, family, classes) for g in rep.gens]
    assert None not in values
    for x in values:
        for terms in colours.values():
            assert sum(u * x[index[cls]] for cls, u in terms) == 0
    for p in (5, 7):
        assert naive_rank_modp(values, p) == rep.rank == len(classes) - len(colours)


# ---------------------------------------------------------------------------
# Classic bases and family representations.
# ---------------------------------------------------------------------------

def test_classic_shapes_and_ranks():
    assert classic_rep("mat", 2, 3).rank == 6
    assert classic_rep("alt", 3).rank == 3
    assert classic_rep("sym", 2).rank == 3
    assert classic_rep("sl", 3).rank == 8
    assert classic_rep("sl", 1).rank == 0
    assert classic_rep("tr", 2).rank == 3


def test_classic_tr_upper_triangular():
    rep = classic_rep("tr", 3)
    assert rep.rank == 6
    for g in rep.gens:
        for i in range(3):
            for j in range(i):
                assert g[i][j] == 0


def test_gamma_square_two_single_generator():
    rep = family_rep(Family.GAMMA, (1, 2), (1, 2))
    assert rep.rank == 1
    assert rep.gens[0] == ((0, 1), (-1, 0))


def test_sigma_square_spans_symmetric():
    rep = family_rep(Family.SIGMA, (1, 2, 3), (1, 2, 3))
    assert rep.rank == 6
    for g in rep.gens:
        for i in range(3):
            for j in range(3):
                assert g[i][j] == g[j][i]
    assert stacked_rank(rep, PadicQuotient(5)) == 6


def test_gamma_disjoint_matches_rho():
    rho = family_rep(Family.RHO, (1, 2), (3, 4, 5))
    gam = family_rep(Family.GAMMA, (1, 2), (3, 4, 5))
    assert rho.rank == gam.rank == 6
    assert naive_ask(gam, F3) == naive_ask(rho, F3)


def test_rho_generators_are_elementary():
    rep = family_rep(Family.RHO, (1, 2), (1, 2))
    assert rep.rank == 4
    for label, g in zip(rep.labels, rep.gens):
        i, j = label
        assert g[rep.I.index(i)][rep.J.index(j)] == 1
        assert sum(abs(x) for row in g for x in row) == 1


# ---------------------------------------------------------------------------
# Knuth duals and the orbit matrix.
# ---------------------------------------------------------------------------

def test_orbit_rows_follow_generators():
    rep = family_rep(Family.GAMMA, (1, 2, 3), (1, 2, 3))
    for x in itertools.product(range(3), repeat=3):
        C = rep.orbit_matrix_at(F3, x)
        for b, g in enumerate(rep.gens):
            m = mat_from_int_rows(F3, g)
            assert C.row(b) == act_left(m, x)


def test_orbit_matrix_linearity():
    rep = classic_rep("sym", 2)
    for x in itertools.product(range(3), repeat=2):
        for y in itertools.product(range(3), repeat=2):
            s = tuple(F3.add(a, b) for a, b in zip(x, y))
            lhs = rep.orbit_matrix_at(F3, s)
            rhs = mat_add(rep.orbit_matrix_at(F3, x), rep.orbit_matrix_at(F3, y))
            assert lhs.entries == rhs.entries


def test_bullet_shape_swap():
    rep = classic_rep("mat", 2, 3)
    dual = knuth_bullet(rep)
    assert len(dual.labels) == len(rep.J)
    assert dual.I == rep.I
    assert len(dual.J) == rep.rank
    for b, g in enumerate(rep.gens):
        for i in range(len(rep.I)):
            for j in range(len(rep.J)):
                assert dual.gens[j][i][b] == g[i][j]


def test_bullet_involution_up_to_relabelling():
    rng = random.Random(13)
    for _ in range(10):
        rep = random_rep(2, 2, rng)
        twice = knuth_bullet(knuth_bullet(rep))
        assert tuple(tuple(map(tuple, g)) for g in twice.gens) == \
            tuple(tuple(map(tuple, g)) for g in rep.gens)


def test_element_dual_orbit_matrix_is_element():
    # the dual's orbit matrix at c is the module element sum_b c_b a_b
    rep = classic_rep("mat", 2, 3)
    dual = element_dual(rep)
    assert (dual.labels, dual.I, dual.J) == (rep.I, rep.labels, rep.J)
    Z9 = PadicQuotient(3, 2)
    rng = random.Random(17)
    for _ in range(20):
        c = tuple(rng.randrange(9) for _ in rep.labels)
        assert dual.orbit_matrix_at(Z9, c) == rep.element(Z9, c)


def test_element_dual_involution():
    rng = random.Random(19)
    for _ in range(10):
        rep = random_rep(3, 3, rng)
        assert element_dual(element_dual(rep)) == rep


# ---------------------------------------------------------------------------
# The degree-3 relation representations.
# ---------------------------------------------------------------------------

def test_alpha_dimensions():
    for d in (2, 3, 4):
        rep = alpha_rep(d)
        n_pairs = comb(d, 2)
        assert len(rep.I) == d + n_pairs
        assert rep.rank == n_pairs + d * n_pairs


def test_alpha_equals_alphahat_below_three():
    a = alpha_rep(2)
    ah = alphahat_rep(2)
    assert a.gens == ah.gens


def test_alphahat_generator_count():
    assert alpha_rep(3).rank == 12
    assert alphahat_rep(3).rank == 11
    assert alphahat_rep(4).rank == alpha_rep(4).rank - comb(4, 3)


def test_alphahat_matches_hand_construction():
    for d in range(1, 7):
        assert alphahat_rep(d) == alphahat_by_hand(d)


def test_alpha_pair_generators_antisymmetric():
    rep = alpha_rep(3)
    n = len(rep.I)
    for label, g in zip(rep.labels, rep.gens):
        for i in range(n):
            assert g[i][i] == 0
            for j in range(n):
                assert g[i][j] == -g[j][i]


def test_triangular_pair_shape():
    rep = triangular_pair_rep(2)
    # sl_2 plus two copies of tr_2 glued on a 4x4 frame
    assert len(rep.I) == 4 and len(rep.J) == 4
    assert rep.rank == 2 * 3 + 3
    # every generator lies in [[tr_2, sl_2], [0, tr_2]], and they span its
    # 9 dimensions
    for g in rep.gens:
        assert all(g[i][j] == 0 for i in range(4) for j in range(i))
        assert g[0][2] + g[1][3] == 0
    assert stacked_rank(rep, F3) == rep.rank


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def test_json_roundtrip():
    # indices and labels become strings in JSON; a second trip is stable
    rep = family_rep(Family.SIGMA, (1, 2), (1, 2))
    data = rep_to_json(rep)
    back = rep_from_json(data)
    assert back.gens == rep.gens
    assert len(back.I) == len(rep.I) and len(back.J) == len(rep.J)
    assert rep_to_json(back) == data


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        ModuleRep(("a",), (1, 2), (1,), (((0,), (0,), (0,)),))
    with pytest.raises(ShapeMismatch):
        ModuleRep(("a", "a"), (1,), (1,), (((0,),), ((0,),)))
    # repeated indices: the element dual would have repeated labels
    with pytest.raises(ShapeMismatch):
        rep_from_json({"B": ["a"], "I": ["1", "1"], "J": ["1"], "gens": {"a": [[1], [2]]}})
    with pytest.raises(ShapeMismatch):
        ModuleRep(("a",), (1,), (2, 2), (((0, 0),),))
    with pytest.raises(ShapeMismatch):
        ModuleRep(("a",), (1, 1), (2,), (((0,), (0,)),))
    with pytest.raises(ShapeMismatch):
        rep_from_json({"B": ["a"], "I": ["1"], "J": ["1"]})  # no "gens"
    with pytest.raises(ShapeMismatch):
        rep_from_json({"B": ["a"], "I": ["1"], "J": ["1"], "gens": {"a": 5}})
    with pytest.raises(ShapeMismatch):
        rep_from_json({"B": ["a"], "I": ["1"], "J": ["1"], "gens": {"a": [["1"]]}})
