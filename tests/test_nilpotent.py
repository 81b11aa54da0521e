import itertools
import random
from math import comb

import pytest

from gridask.askzeta import ask, ask_orbit
from gridask.colouring import parse_grid
from gridask.fastcount import baer_orbit_count
from gridask.modrep import altboard_rep, classic_rep
from gridask.nilpotent import (BadCharacteristic, GradedAlgebra, NotAlternating,
                               baer_group_cc, conjugacy_count_bch, free_nilpotent_lie,
                               lyndon_words)
from gridask.predictions import predict
from gridask.rings import PadicQuotient

from pathlib import Path

from oracles import (a_d_algebra, adjoint_rep, baer_law, bch_inverse, bch_multiply,
                     conjugacy_class_count, is_lie, jacobi_quotient, knuth_bullet)

GRIDS = Path(__file__).resolve().parent.parent / "grids"
F5 = PadicQuotient(5)
F7 = PadicQuotient(7)


# ---------------------------------------------------------------------------
# Algebra construction.
# ---------------------------------------------------------------------------

def test_free_class_two_dimensions():
    for d in (2, 3, 4):
        alg = free_nilpotent_lie(d, 2)
        assert alg.dim == d + comb(d, 2)
        assert is_lie(alg)


def test_free_class_three_dimensions():
    # d + C(d,2) + (d^3 - d)/3 basic commutators up to degree 3
    for d, dim in [(2, 5), (3, 14)]:
        alg = free_nilpotent_lie(d, 3)
        assert alg.dim == dim
        assert is_lie(alg)


def mobius(m: int) -> int:
    sign, q = 1, 2
    while m > 1:
        if m % q == 0:
            m //= q
            if m % q == 0:
                return 0
            sign = -sign
        q += 1
    return sign


def necklace_dimension(d: int, k: int) -> int:
    """Witt's formula: (1/k) sum over m | k of mu(m) d^(k/m)."""
    return sum(mobius(m) * d ** (k // m) for m in range(1, k + 1) if k % m == 0) // k


def test_degree_dimensions_follow_witt():
    cases = [(d, c) for d in (1, 2, 3) for c in (1, 2, 3, 4, 5)] + [(4, 4)]
    for d, c in cases:
        degrees = free_nilpotent_lie(d, c).degrees
        assert [degrees.count(k) for k in range(1, c + 1)] == \
            [necklace_dimension(d, k) for k in range(1, c + 1)], (d, c)


def test_lyndon_words_are_the_least_rotations():
    # a Lyndon word is strictly smaller than each of its proper rotations
    for d, n in [(1, 4), (2, 6), (3, 4)]:
        words = list(lyndon_words(d, n))
        assert words == sorted(words)
        assert set(words) == {w for k in range(1, n + 1)
                              for w in itertools.product(range(1, d + 1), repeat=k)
                              if all(w < w[i:] + w[:i] for i in range(1, k))}
    assert list(lyndon_words(2, 0)) == list(lyndon_words(0, 3)) == []


def test_higher_classes_are_lie():
    for d, c in [(2, 4), (2, 5), (3, 4)]:
        assert is_lie(free_nilpotent_lie(d, c)), (d, c)


def test_class_three_matches_jacobi_quotient():
    # two independent constructions, equal up to isomorphism: the same
    # degree dimensions and the same class numbers
    for d, expected in [(2, [149, 391]), (3, [2715625, 51748753])]:
        free, quo = free_nilpotent_lie(d, 3), jacobi_quotient(a_d_algebra(d))
        assert sorted(free.degrees) == sorted(quo.degrees)
        assert [conjugacy_count_bch(free, p) for p in (5, 7)] == expected
        assert [conjugacy_count_bch(quo, p) for p in (5, 7)] == expected


def test_anticommutativity_enforced():
    with pytest.raises(Exception):
        GradedAlgebra(("a", "b"), (1, 1), {(0, 1): {0: 1}, (1, 0): {0: 1}})


def test_relation_algebra_is_not_lie():
    alg = a_d_algebra(3)
    assert not is_lie(alg)
    assert alg.dim == 3 + comb(3, 2) + 3 * comb(3, 2)


def test_jacobi_quotient_recovers_free_algebra():
    quo = jacobi_quotient(a_d_algebra(3))
    assert is_lie(quo)
    assert quo.dim == free_nilpotent_lie(3, 3).dim
    assert jacobi_quotient(a_d_algebra(2)).dim == 5


# ---------------------------------------------------------------------------
# Group law.
# ---------------------------------------------------------------------------

def test_bch_group_axioms_sampled():
    alg = free_nilpotent_lie(2, 3)
    rng = random.Random(7)
    zero = (0,) * alg.dim
    for _ in range(40):
        x = tuple(rng.randrange(5) for _ in range(alg.dim))
        y = tuple(rng.randrange(5) for _ in range(alg.dim))
        z = tuple(rng.randrange(5) for _ in range(alg.dim))
        lhs = bch_multiply(alg, F5, bch_multiply(alg, F5, x, y), z)
        rhs = bch_multiply(alg, F5, x, bch_multiply(alg, F5, y, z))
        assert lhs == rhs
        assert bch_multiply(alg, F5, x, zero) == x
        assert bch_multiply(alg, F5, x, bch_inverse(alg, F5, x)) == zero


def test_bch_class_three_needs_p_at_least_five():
    alg = free_nilpotent_lie(2, 3)
    with pytest.raises(BadCharacteristic):
        bch_multiply(alg, PadicQuotient(3), (0,) * 5, (0,) * 5)
    # class 2 only needs 2 invertible
    alg2 = free_nilpotent_lie(2, 2)
    bch_multiply(alg2, PadicQuotient(3), (0,) * 3, (1,) * 3)


def test_abelian_group_every_class_singleton():
    alg = GradedAlgebra(("x", "y"), (1, 1), {})
    assert conjugacy_count_bch(alg, 5) == 25
    assert conjugacy_count_bch(alg, 3, 2) == 81


# ---------------------------------------------------------------------------
# Conjugacy counting.
# ---------------------------------------------------------------------------

def test_heisenberg_class_number():
    alg = free_nilpotent_lie(2, 2)
    assert conjugacy_count_bch(alg, 5) == 29
    assert conjugacy_count_bch(alg, 7) == 55


def test_free_class_three_class_number():
    alg = free_nilpotent_lie(2, 3)
    assert conjugacy_count_bch(alg, 5) == 149


def test_free_class_four_matches_F42_cc():
    # c_1, c_2 at p = 5, 7, 11 and c_3 at p = 5 of the free class-4 group on
    # 2 generators, counted, against the closed form
    alg = free_nilpotent_lie(2, 4)
    pred = predict("F42_cc")
    for p, n, expected in [(5, 1, 1345), (7, 1, 5089), (11, 1, 30481),
                           (5, 2, 1350625), (7, 2, 19364065), (11, 2, 695754961),
                           (5, 3, 1170390625)]:
        assert conjugacy_count_bch(alg, p, n, budget=10**11) == expected == \
            pred.coefficient(p, n), (p, n)


def test_class_four_needs_p_above_four():
    alg = free_nilpotent_lie(2, 4)
    for p in (2, 3):
        with pytest.raises(BadCharacteristic):
            conjugacy_count_bch(alg, p)


def bch_oracle(alg, p, n=1):
    ring = PadicQuotient(p, n)
    return conjugacy_class_count(lambda a, b: bch_multiply(alg, ring, a, b),
                                 p**n, alg.dim)


def test_cc_equals_adjoint_ask():
    # class counting via the average kernel size of the adjoint module
    for d, nc, p in [(2, 2, 5), (2, 2, 7), (2, 3, 5)]:
        alg = free_nilpotent_lie(d, nc)
        ad = adjoint_rep(alg)
        Fp = PadicQuotient(p)
        count = conjugacy_count_bch(alg, p)
        assert count == ask(ad, Fp, "direct").value
        assert count == bch_oracle(alg, p)


def test_cc_over_residue_rings_matches_oracle():
    # Z/9 and Z/25: the centre restriction scales by |R|^z with |R| = p^n
    alg = free_nilpotent_lie(2, 2)
    for p, expected in [(3, 105), (5, 745)]:
        assert conjugacy_count_bch(alg, p, 2) == bch_oracle(alg, p, 2) == expected


def test_cc_refuses_non_integral_count():
    # x1 x3 = y, x2 y = z breaks Jacobi at (x1, x3, x2): the BCH law is no
    # group law, and |R|^z * ask is 841/5, which is refused, not truncated
    alg = GradedAlgebra(("x1", "x2", "x3", "y", "z"), (1, 1, 1, 2, 3),
                        {(0, 2): ((3, 1),), (2, 0): ((3, -1),),
                         (1, 3): ((4, 1),), (3, 1): ((4, -1),)})
    assert not is_lie(alg)
    with pytest.raises(ValueError, match="841/5"):
        conjugacy_count_bch(alg, 5)


def test_adjoint_bullet_dual_same_count():
    alg = free_nilpotent_lie(2, 3)
    ad = adjoint_rep(alg)
    dual = knuth_bullet(ad)
    assert ask_orbit(dual, F5).value == 149


def test_adjoint_matrices_are_brackets():
    alg = free_nilpotent_lie(2, 3)
    rep = adjoint_rep(alg)
    for b in range(alg.dim):
        g = rep.gens[b]
        for i in range(alg.dim):
            assert tuple((k, v) for k, v in enumerate(g[i]) if v) == \
                tuple(sorted(alg.product_basis(i, b)))


# ---------------------------------------------------------------------------
# Baer groups from alternating modules.
# ---------------------------------------------------------------------------

def load_altboard(name: str):
    g = parse_grid((GRIDS / f"{name}.grid").read_text())
    return altboard_rep(g.colouring, g.units)


def test_baer_alt3_consistency():
    rep = classic_rep("alt", 3)
    F3 = PadicQuotient(3)
    cc = baer_group_cc(rep, 3)
    assert cc == 105
    assert cc == 3**rep.rank * ask(rep, F3, "direct").value
    assert cc == conjugacy_class_count(baer_law(rep.gens, 3), 3, 6)


def test_baer_rejects_non_alternating():
    with pytest.raises(NotAlternating):
        baer_group_cc(classic_rep("sym", 2), 3)


def test_baer_board_small_prime_oracle_equals_ask():
    rep = load_altboard("adm_2x2")
    oracle = conjugacy_class_count(baer_law(rep.gens, 3), 3, len(rep.I) + rep.rank)
    assert oracle == baer_orbit_count(rep.gens, 3) == baer_group_cc(rep, 3) == 963


def test_baer_over_residue_ring_is_heisenberg():
    # one alternating form on R^2 gives the Heisenberg group over R = Z/p^n
    rep = classic_rep("alt", 2)
    heisenberg = free_nilpotent_lie(2, 2)
    for p, n in [(3, 2), (5, 2), (3, 3)]:
        assert baer_group_cc(rep, p, n) == conjugacy_count_bch(heisenberg, p, n)
    assert baer_group_cc(rep, 3, 2) == \
        conjugacy_class_count(baer_law(rep.gens, 9), 9, 3) == 105


def test_baer_matches_shifted_series():
    # the class-counting series is the ask series with T -> q^l T
    from gridask.predictions import predict
    rep = load_altboard("adm_2x2")
    assert baer_group_cc(rep, 3) == predict("baer_cc", d=2, e=2, b=1).coefficient(3, 1)
