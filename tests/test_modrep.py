import itertools
import random
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gridask.boardgame import Family
from gridask.colouring import (UnitAssignment, all_blank, parse_grid,
                               sl_colouring)
from gridask.linalg import Mat, rank
from gridask.modrep import (IndexNotSubset, ModuleRep, ShapeMismatch,
                            adjacency_rep, alpha_rep, alphahat_rep,
                            altboard_rep, board_rep, classic_rep,
                            complete_graph, discrete_graph, element_dual, family_rep,
                            graph_join, inflate_rep, knuth_bullet,
                            rep_from_json, rep_to_json, restrict_rep,
                            symboard_rep, threshold_graph, triangular_pair_rep)
from gridask.rings import make_ring

from oracles import naive_ask, naive_element, naive_orbit_matrix, random_rep

GRIDS = Path(__file__).resolve().parent.parent / "grids"
F3 = make_ring("field", 3)


def load(name: str):
    return parse_grid((GRIDS / f"{name}.grid").read_text())


def stacked_rank(rep: ModuleRep, ring) -> int:
    rows = [sum((list(r) for r in g), []) for g in rep.gens]
    return rank(Mat.from_int_rows(ring, rows))


# ---------------------------------------------------------------------------
# Module elements and orbit matrices against entry-by-entry formation.
# ---------------------------------------------------------------------------

MATRIX_RINGS = {"F3": F3, "F5": make_ring("field", 5), "Z/8": make_ring("padic", 2, 3),
                "Z/9": make_ring("padic", 3, 2), "Z/27": make_ring("padic", 3, 3),
                "F4": make_ring("ext", 2, 2), "F9": make_ring("ext", 3, 2)}


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
def test_matrices_match_entrywise_formation(case):
    name, rep, x, coeffs = case
    ring = MATRIX_RINGS[name]
    assert rep.orbit_matrix_at(ring, x) == naive_orbit_matrix(rep, ring, x)
    assert rep.element(ring, coeffs) == naive_element(rep, ring, coeffs)


# ---------------------------------------------------------------------------
# Relation-module bases from colourings.
# ---------------------------------------------------------------------------

def test_board_all_blank_elementary_basis():
    rep = board_rep(all_blank(2, 3))
    assert rep.rank == 6
    assert sorted(rep.labels) == sorted(rep.labels)
    totals = [sum(sum(r) for r in g) for g in rep.gens]
    assert totals == [1] * 6  # each generator is one elementary matrix


def test_board_rank_drops_per_colour():
    for name in ("sample_a", "sample_b", "sample_c", "sample_d", "quartic"):
        beta = load(name).colouring
        rep = board_rep(beta)
        assert rep.rank == beta.d * beta.e - len(beta.colours())
        assert stacked_rank(rep, make_ring("field", 5)) == rep.rank


def test_board_traceless_is_sl():
    rep = board_rep(sl_colouring(3))
    assert rep.rank == 8
    for g in rep.gens:
        assert sum(g[i][i] for i in range(3)) == 0
    assert stacked_rank(rep, F3) == 8


def test_board_scaled_units_same_module():
    # scaling by the pivot unit leaves the spanned module unchanged
    beta = load("sample_a").colouring
    u = UnitAssignment(3, 3, {(1, 1): 2, (2, 2): -1, (3, 3): 4})
    rep1 = board_rep(beta)
    rep2 = board_rep(beta, u)
    F7 = make_ring("field", 7)
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


def test_symboard_generators_symmetric():
    rep = symboard_rep(load("adm_2x2").colouring)
    for g in rep.gens:
        for i in range(len(rep.I)):
            for j in range(len(rep.J)):
                assert g[i][j] == g[j][i]


def test_one_by_one_blocks():
    alt = altboard_rep(all_blank(1, 1))
    assert alt.rank == 1
    assert alt.gens[0] == ((0, 1), (-1, 0))
    sym = symboard_rep(all_blank(1, 1))
    assert sym.rank == 3


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
    assert stacked_rank(rep, make_ring("field", 5)) == 6


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
            m = Mat.from_int_rows(F3, g)
            assert C.row(b) == m.act_left(x)


def test_orbit_matrix_linearity():
    rep = classic_rep("sym", 2)
    for x in itertools.product(range(3), repeat=2):
        for y in itertools.product(range(3), repeat=2):
            s = tuple(F3.add(a, b) for a, b in zip(x, y))
            lhs = rep.orbit_matrix_at(F3, s)
            rhs = rep.orbit_matrix_at(F3, x).add(rep.orbit_matrix_at(F3, y))
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
    Z9 = make_ring("padic", 3, 2)
    rng = random.Random(17)
    for _ in range(20):
        c = tuple(rng.randrange(9) for _ in rep.labels)
        assert dual.orbit_matrix_at(Z9, c) == rep.element(Z9, c)


def test_element_dual_involution():
    rng = random.Random(19)
    for _ in range(10):
        rep = random_rep(3, 3, rng)
        assert element_dual(element_dual(rep)) == rep


def test_restrict_inflate_roundtrip():
    rep = family_rep(Family.GAMMA, (1, 2, 3), (1, 2, 3))
    big = inflate_rep(rep, (1, 2, 3, 4), (1, 2, 3, 4, 5))
    assert len(big.I) == 4 and len(big.J) == 5
    back = restrict_rep(big, (1, 2, 3), (1, 2, 3))
    assert back.gens == rep.gens
    with pytest.raises(IndexNotSubset):
        restrict_rep(rep, (1, 9), (1,))
    with pytest.raises(IndexNotSubset):
        inflate_rep(rep, (1, 2), (1, 2, 3))


def test_restrict_gamma_row():
    sub = restrict_rep(family_rep(Family.GAMMA, (1, 2, 3), (1, 2, 3)),
                       (1,), (1, 2, 3))
    for g in sub.gens:
        assert len(g) == 1


# ---------------------------------------------------------------------------
# Graphs and adjacency representations.
# ---------------------------------------------------------------------------

def test_threshold_graph_edge_count():
    g = threshold_graph(1, 2)
    assert len(g.vertices) == 3
    assert len(g.edges) == 3  # m*n cross edges + C(n,2)
    assert len(threshold_graph(3, 3).edges) == 3 * 3 + 3


def test_join_of_discrete_is_complete_bipartite():
    g = graph_join(discrete_graph(("a", "b")), discrete_graph((1, 2, 3)))
    assert len(g.edges) == 6


def test_adjacency_of_complete_graph_is_gamma():
    rep = adjacency_rep(complete_graph((1, 2, 3)), "negative")
    gam = family_rep(Family.GAMMA, (1, 2, 3), (1, 2, 3))
    assert sorted(rep.gens) == sorted(gam.gens)


def test_adjacency_positive_sign_symmetric():
    rep = adjacency_rep(complete_graph((1, 2, 3)), "positive")
    for g in rep.gens:
        for i in range(3):
            for j in range(3):
                assert g[i][j] == g[j][i]


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
        rep_from_json({"B": ["a"], "I": ["1"], "J": ["1"]})  # no "gens"
    with pytest.raises(ShapeMismatch):
        rep_from_json({"B": ["a"], "I": ["1"], "J": ["1"], "gens": {"a": 5}})
    with pytest.raises(ShapeMismatch):
        rep_from_json({"B": ["a"], "I": ["1"], "J": ["1"], "gens": {"a": [["1"]]}})
