import itertools
import random
from collections import Counter
from fractions import Fraction
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridask import askzeta, fastcount, torus
from gridask.askzeta import (BudgetExceeded, ask, ask_direct, ask_orbit,
                             constant_rank_check, direct_profile_counts,
                             orbital_equivalence_check, rank_distribution,
                             verify_prediction, zeta_coefficients)
from gridask.boardgame import Family
from gridask.colouring import parse_grid
from gridask.linalg import Mat, divisor_profile, rank
from gridask.modrep import (ModuleRep, alpha_rep, alphahat_rep, board_rep,
                            classic_rep, family_rep)
from gridask.predictions import predict
from gridask.rings import make_ring

from oracles import (naive_ask, naive_constant_rank, naive_divisor_profile,
                     naive_orbit_ask, naive_orbit_matrix, naive_orbital,
                     naive_sampled_constant_rank, naive_sampled_orbital, random_rep,
                     seeded_draws, torus_orbit)

GRIDS = Path(__file__).resolve().parent.parent / "grids"
F3 = make_ring("field", 3)
F5 = make_ring("field", 5)
F = Fraction


def load_board(name: str):
    g = parse_grid((GRIDS / f"{name}.grid").read_text())
    return board_rep(g.colouring, g.units)


# ---------------------------------------------------------------------------
# Values straight from the closed formulas.
# ---------------------------------------------------------------------------

def test_square_matrices():
    assert ask_direct(classic_rep("mat", 2, 2), F3).value == F(17, 9)
    assert ask_orbit(classic_rep("mat", 2, 2), F3).value == F(17, 9)


def test_alternating_three():
    assert ask_direct(classic_rep("alt", 3), F3).value == F(35, 9)


def test_zero_module_kernel_is_everything():
    rep = ModuleRep((), (1,), (1,), ())
    assert ask_direct(rep, F5).value == 5
    assert ask_orbit(rep, F5).value == 5


def test_trivial_I_gives_one():
    # no rows at all: a single empty point x, empty orbit matrix
    assert ask_orbit(ModuleRep((), (), (1,), ()), F3).value == 1


def test_direct_equals_orbit_random():
    rng = random.Random(101)
    rings = [make_ring("field", 2), F3, make_ring("padic", 2, 2),
             make_ring("padic", 3, 2), make_ring("ext", 2, 2)]
    for k in range(40):
        rep = random_rep(3, 3, rng)
        ring = rings[k % len(rings)]
        assert ask_direct(rep, ring).value == ask_orbit(rep, ring).value


def test_direct_matches_definition_oracle():
    rng = random.Random(103)
    for _ in range(10):
        rep = random_rep(2, 2, rng)
        assert ask_direct(rep, F3).value == naive_ask(rep, F3)


def element_census(rep, ring) -> Counter:
    """Divisor-profile census with one linalg.divisor_profile per element."""
    return Counter(divisor_profile(rep.element(ring, coeffs))
                   for coeffs in itertools.product(list(ring.elements()),
                                                   repeat=rep.rank))


def test_fast_census_matches_pure():
    rep = classic_rep("mat", 2, 2)
    for ring in (F5, make_ring("padic", 3, 2)):
        assert direct_profile_counts(rep, ring) == element_census(rep, ring)


ORACLE_RINGS = {"F2": make_ring("field", 2), "F3": F3, "Z/4": make_ring("padic", 2, 2),
                "Z/8": make_ring("padic", 2, 3), "Z/16": make_ring("padic", 2, 4),
                "Z/9": make_ring("padic", 3, 2), "Z/27": make_ring("padic", 3, 3),
                "F4": make_ring("ext", 2, 2)}


@st.composite
def tiny_reps(draw, min_rank=0, size=2):
    dI, dJ = (draw(st.integers(0, size)) for _ in range(2))
    k = draw(st.integers(min_rank, size))
    gens = tuple(tuple(tuple(draw(st.integers(-4, 4)) for _ in range(dJ))
                       for _ in range(dI)) for _ in range(k))
    return ModuleRep(tuple(range(k)), tuple(range(1, dI + 1)),
                     tuple(range(1, dJ + 1)), gens)


# Z/16 and Z/27 run as explicit examples only: naive_orbit_ask enumerates
# R^I points and R^B images for each, up to 2 s per drawn rep
@settings(max_examples=50, deadline=None)
@given(rep=tiny_reps(),
       ring_name=st.sampled_from(sorted(set(ORACLE_RINGS) - {"Z/16", "Z/27"})))
@example(rep=ModuleRep((), (), (1, 2), ()), ring_name="Z/8")  # I empty
@example(rep=ModuleRep((), (1, 2), (1,), ()), ring_name="F4")  # rank 0
@example(rep=ModuleRep(("a",), (1, 2), (1, 2), (((-1, 2), (0, -3)),)),
         ring_name="Z/4")
@example(rep=ModuleRep(("a", "b"), (1, 2), (1, 2), (((3, 0), (0, -1)), ((0, 1), (9, 0)))),
         ring_name="Z/27")  # levels 2 and 3 lifted, with middle valuations
# level 4 is lifted from classes over Z/8, where the units are +-5^l
@example(rep=ModuleRep(("a", "b"), (1, 2), (1, 2), (((2, 1), (0, -1)), ((0, 4), (1, 3)))),
         ring_name="Z/16")
def test_orbit_matches_orbit_oracle(rep, ring_name):
    ring = ORACLE_RINGS[ring_name]
    assert ask_orbit(rep, ring).value == naive_orbit_ask(rep, ring)


LIFT_RINGS = {"Z/4": (2, 2), "Z/8": (2, 3), "Z/16": (2, 4), "Z/9": (3, 2),
              "Z/27": (3, 3), "Z/25": (5, 2)}


@st.composite
def lift_cases(draw):
    ring_name = draw(st.sampled_from(sorted(LIFT_RINGS)))
    rep = draw(tiny_reps(size=3))
    p, k = LIFT_RINGS[ring_name]
    return ring_name, rep, tuple(draw(st.integers(0, p**k - 1)) for _ in rep.I)


@settings(max_examples=150, deadline=None)
@given(case=lift_cases())
@example(case=("Z/8", ModuleRep(("a", "b"), (), (1, 2), ((), ())), ()))  # I empty
@example(case=("Z/27", ModuleRep(("a",), (1, 2), (), (((), ()),)), (4, 9)))  # J empty
@example(case=("Z/16", ModuleRep(("a", "b", "c"), (1, 2), (1, 2, 3),
                                 (((0, 0, 0), (0, 0, 0)), ((3, -9, 1), (0, 6, -2)),
                                  ((-4, 2, 0), (8, 0, -12)))),
               (10, 13)))  # a zero generator
# C(x') = 3 has valuation k - 1, and C(x) = 3 + 6 = 0: no pivot may stop at k - 1
@example(case=("Z/9", ModuleRep(("a",), (1, 2), (1,), (((3,), (1,)),)), (1, 6)))
def test_lifting_identity_matches_profile_oracle(case):
    # C(x) over Z/p^k from the class data of x' = x mod p^(k-1): the
    # valuations below k - 1, then k - 1 as often as the rank of K(y) over
    # F_p at y = (x - x') / p^(k-1), then k
    ring_name, rep, x = case
    p, k = LIFT_RINGS[ring_name]
    level = make_ring("padic", p, k)
    top = p ** (k - 1)
    valuations, forms = askzeta._class_lift(rep, level, [c % top for c in x])
    Fp = make_ring("field", p)
    t = len(valuations)
    K = Mat(Fp, rep.rank - t, len(rep.J) - t,
            tuple(Fp.linear_form((1,) + tuple(c // top for c in x), f) for f in forms))
    s = rank(K)
    assembled = sorted(valuations + [k - 1] * s + [k] * (min(rep.rank, len(rep.J)) - t - s))
    C = naive_orbit_matrix(rep, level, x)
    assert tuple(assembled) == naive_divisor_profile([C.row(b) for b in range(C.rows)], p, k)


@settings(max_examples=50, deadline=None)
@given(rep=tiny_reps(), ring_name=st.sampled_from(sorted(ORACLE_RINGS)))
@example(rep=ModuleRep(("a", "b"), (), (1, 2), ((), ())), ring_name="F3")  # I empty
@example(rep=ModuleRep(("a",), (1, 2), (), (((), ()),)), ring_name="Z/9")  # J empty
@example(rep=ModuleRep((), (1, 2), (1,), ()), ring_name="F4")  # rank 0
@example(rep=ModuleRep(("a", "b"), (1, 2), (1, 2),
                       (((-1, 2), (0, -3)), ((4, -4), (-2, 1)))), ring_name="Z/8")
def test_census_matches_element_census(rep, ring_name):
    ring = ORACLE_RINGS[ring_name]
    assert direct_profile_counts(rep, ring) == element_census(rep, ring)


KERNEL_RINGS = {"F2": make_ring("field", 2), "F3": F3, "F5": F5,
                "Z/8": make_ring("padic", 2, 3), "Z/9": make_ring("padic", 3, 2),
                "Z/27": make_ring("padic", 3, 3)}


@settings(max_examples=50, deadline=None)
@given(rep=tiny_reps(min_rank=1), ring_name=st.sampled_from(sorted(KERNEL_RINGS)))
@example(rep=ModuleRep(("a", "b"), (1, 2), (1, 2), (((0, 0), (0, 0)), ((3, 0), (0, -3)))),
         ring_name="Z/27")  # a zero generator
@example(rep=ModuleRep(("a", "b"), (1, 2), (1, 2),
                       (((-1, 2), (0, -3)), ((4, -4), (-2, 1)))), ring_name="Z/8")
@example(rep=ModuleRep(("a",), (1, 2), (1, 2), (((0, 0), (0, 0)),)), ring_name="F5")
def test_profile_counts_matches_element_census(rep, ring_name):
    # the kernel alone, in chunks of 7, so that larger levels span several
    ring = KERNEL_RINGS[ring_name]
    counts = fastcount.profile_counts(rep.gens, ring.p, ring.cap, chunk=7)
    assert counts == element_census(rep, ring)


@pytest.mark.parametrize("spec,p,n", [("sl:3", 5, 1), ("mat:2,3", 3, 2), ("sym:3", 3, 2),
                                      ("tr:3", 3, 2), ("alt:3", 3, 3), ("mat:2", 2, 3),
                                      ("sym:2", 2, 4)])
def test_census_matches_vectorised_oracle(spec, p, n):
    # at sizes the drawn reps never reach: up to 5^8 elements, and levels
    # lifted over Z/16 and Z/27
    name, dims = spec.split(":")
    rep = classic_rep(name, *map(int, dims.split(",")))
    ring = make_ring("field", p) if n == 1 else make_ring("padic", p, n)
    assert direct_profile_counts(rep, ring) == fastcount.profile_counts(rep.gens, p, n)


def test_multiset_keys_beyond_int64():
    # 7 steps at level 31: 8^22 = 2^66 wraps to 0 in int64, so these two
    # profiles would share a key; such keys are Python ints instead
    profs = np.array([[22] + [31] * 6, [23] + [31] * 6, [22] + [31] * 6])
    assert fastcount._multiset_counts(profs, 31) == [((22,) + (31,) * 6, 2),
                                                     ((23,) + (31,) * 6, 1)]


def counted_orbit_matrices(monkeypatch) -> list:
    """The points at which ModuleRep.orbit_matrix_at is called from now on."""
    calls = []
    orbit_matrix_at = ModuleRep.orbit_matrix_at

    def counted(self, level, x):
        calls.append(x)
        return orbit_matrix_at(self, level, x)

    monkeypatch.setattr(ModuleRep, "orbit_matrix_at", counted)
    return calls


@pytest.mark.parametrize("ring,matrices", [(F5, 14 + 4), (make_ring("padic", 3, 2), 16 + 16)],
                         ids=["F5", "Z/9"])
def test_census_eliminates_unit_orbit_representatives(ring, matrices, monkeypatch):
    # the direct census is the orbit census of the dual, whose torus on the
    # coefficients of e_ij has weights b_i + c_j, a lattice of rank 3 on the
    # 4 coordinates.  Each support of at most 3 coordinates is one orbit,
    # and the full support splits into phi^4 / phi^3 = phi orbits: over F_5,
    # 14 + 4 = 18 orbit matrices where unit orbits took the 156 points of
    # P^3; over Z/9, 14 + 2 = 16 at level 1 and the same 16 as classes at
    # level 2, where unit orbits took 40 + 1080
    calls = counted_orbit_matrices(monkeypatch)
    counts = direct_profile_counts(classic_rep("mat", 2), ring)
    assert len(calls) == matrices
    assert sum(counts.values()) == ring.cardinality() ** 4


def test_extension_field_census_eliminates_unit_orbit_representatives(monkeypatch):
    # over F_4 the zero element is counted without elimination, and the
    # other 255 elements by 14 + 3^4 / 3^3 = 17 torus orbits, where unit
    # orbits took the (4^4 - 1)/3 = 85 points of P^3
    F4 = make_ring("ext", 2, 2)
    calls = counted_orbit_matrices(monkeypatch)
    rep = classic_rep("mat", 2)
    counts = direct_profile_counts(rep, F4)
    assert len(calls) == 17
    assert counts == element_census(rep, F4)


@pytest.mark.parametrize("ring,points", [(F5, 7), (make_ring("padic", 3, 2), 7 + 7)],
                         ids=["F5", "Z/9"])
def test_orbit_enumerates_unit_orbit_representatives(ring, points, monkeypatch):
    # one orbit matrix per torus orbit of primitive points at level 1 and
    # per torus class of level k - 1 at level k >= 2.  The weights of alt:3
    # span Z^3, so each of the 7 supports in F_q^3 is one orbit: over F_5,
    # 7 points where unit orbits took the 31 points of P^2; over Z/9, the 7
    # points over F_3 and then the same 7 as classes, whose 7 * 27 lifts
    # take ranks over F_3 instead
    calls = counted_orbit_matrices(monkeypatch)
    rep = classic_rep("alt", 3)
    value = ask_orbit(rep, ring).value
    assert len(calls) == points
    assert value == predict("classical_alt", d=3).series(ring.p, ring.cap)[ring.cap]


def test_zeta_coefficients_sum_each_level_once(monkeypatch):
    # c_1 and c_2 over Z/3, Z/9 from one pass per level: 7 torus orbits at
    # level 1, then level 2 lifted from those 7 classes (one matrix over Z/9
    # each), where recomputing c_1 inside c_2 would make 7 more
    calls = counted_orbit_matrices(monkeypatch)
    coeffs = zeta_coefficients(classic_rep("alt", 3), 3, 2)
    assert len(calls) == 7 + 7
    assert coeffs == predict("classical_alt", d=3).series(3, 2)


def test_direct_zeta_takes_one_census(monkeypatch):
    # c_1..c_3 from the Z/27 census with profiles capped at k.  The dual's
    # torus weights span Z^3, so each valuation pattern of a primitive point
    # is one orbit: 7 orbit matrices at level 1, 7 classes at level 2 and
    # 3^3 - 2^3 = 19 at level 3, 33 where unit orbits took 1,183 matrices
    calls = counted_orbit_matrices(monkeypatch)
    coeffs = zeta_coefficients(classic_rep("alt", 3), 3, 3, method="direct")
    assert len(calls) == 33
    assert coeffs == predict("classical_alt", d=3).series(3, 3)


@pytest.mark.parametrize("p,n_max", [(2, 3), (3, 2)])
def test_direct_zeta_matches_orbit_zeta(p, n_max):
    rep = classic_rep("mat", 2, 3)
    assert (zeta_coefficients(rep, p, n_max, method="direct")
            == zeta_coefficients(rep, p, n_max))


def test_budget_enforced():
    rep = classic_rep("mat", 3, 3)
    with pytest.raises(BudgetExceeded):
        ask_direct(rep, F5, budget=100)
    with pytest.raises(BudgetExceeded):
        ask_orbit(rep, F5, budget=10)
    with pytest.raises(ValueError):
        ask(rep, F3, method="nonsense")
    with pytest.raises(ValueError):
        zeta_coefficients(rep, 3, 1, method="nonsense")


# ---------------------------------------------------------------------------
# Series coefficients and verification reports.
# ---------------------------------------------------------------------------

def test_zeta_coefficients_one_by_one():
    coeffs = zeta_coefficients(classic_rep("mat", 1, 1), 3, 2)
    pred = predict("classical_mat", d=1, e=1)
    assert coeffs == pred.series(3, 2)
    assert coeffs[0] == 1


def test_zeta_alt2_matches_catalog():
    coeffs = zeta_coefficients(classic_rep("alt", 2), 3, 2)
    assert coeffs == predict("classical_alt", d=2).series(3, 2)


def test_zero_module_zeta_geometric():
    rep = ModuleRep((), (1, 2), (1, 2), ())
    coeffs = zeta_coefficients(rep, 3, 2)
    assert coeffs == [1, 9, 81]


def test_verify_prediction_pass_and_fail():
    ok = verify_prediction(load_board("sample_a"),
                           predict("classical_mat", d=3, e=3), 5, 1)
    assert ok.passed
    bad = verify_prediction(load_board("sample_c"),
                            predict("classical_mat", d=3, e=3), 5, 1)
    assert not bad.passed
    assert bad.coefficients[0].match  # T^0 is always 1
    assert not bad.coefficients[1].match


# ---------------------------------------------------------------------------
# Rank distributions.
# ---------------------------------------------------------------------------

def test_rank_distribution_recovers_ask():
    rep = classic_rep("alt", 3)
    for q in (3, 5):
        Fq = make_ring("field", q)
        dist = rank_distribution(rep, Fq)
        assert dist.counts[0] == 1
        assert sum(dist.counts.values()) == q**rep.rank
        assert dist.ask_value(len(rep.I)) == ask_direct(rep, Fq).value


def test_rank_distribution_counts_matrices_of_each_rank():
    # prod_{i<r} (q^3 - q^i)^2 / (q^r - q^i) matrices of rank r in F_q^(3x3):
    # 1, 3,844, 461,280 and 1,488,000 at q = 5
    q = 5
    expected = {r: prod((q**3 - q**i) ** 2 for i in range(r))
                // prod(q**r - q**i for i in range(r)) for r in range(4)}
    assert expected == {0: 1, 1: 3844, 2: 461280, 3: 1488000}
    assert rank_distribution(classic_rep("mat", 3), F5).counts == expected


def test_rank_distribution_requires_field():
    with pytest.raises(ValueError):
        rank_distribution(classic_rep("alt", 2), make_ring("padic", 3, 2))


# ---------------------------------------------------------------------------
# Constant-rank and orbital certifiers.
# ---------------------------------------------------------------------------

def test_gamma_square_constant_corank_one():
    rep = family_rep(Family.GAMMA, (1, 2, 3), (1, 2, 3))
    report = constant_rank_check(rep, F5, 1)
    assert report.passed and report.checked == 5**3 - 1


def test_rho_rectangular_corank_zero_over_z25():
    rep = family_rep(Family.RHO, (1, 2), (1, 2, 3))
    report = constant_rank_check(rep, make_ring("padic", 5, 2), 0,
                                 samples=2000, seed=7)
    assert report.passed and report.mode == "sample"


def test_sigma_corank_zero():
    rep = family_rep(Family.SIGMA, (1, 2, 3), (1, 2, 3))
    assert constant_rank_check(rep, F3, 0).passed


def test_constant_rank_detects_failure():
    # the full matrix family has corank 0, so demanding 1 must fail
    rep = classic_rep("mat", 2, 2)
    report = constant_rank_check(rep, F3, 1)
    assert not report.passed and report.violations


def test_orbital_board_inside_mat():
    big = classic_rep("mat", 3, 3)
    sub = load_board("sample_b")
    fixed = ModuleRep(sub.labels, big.I, big.J, sub.gens)
    assert orbital_equivalence_check(big, fixed, F3).passed


def test_orbital_failure_for_inadmissible():
    big = classic_rep("mat", 3, 3)
    sub = load_board("sample_d")
    fixed = ModuleRep(sub.labels, big.I, big.J, sub.gens)
    report = orbital_equivalence_check(big, fixed, make_ring("field", 7))
    assert not report.passed
    assert len(report.violations) == 10  # capped report


def test_orbital_requires_matching_shapes():
    from gridask.modrep import ShapeMismatch
    with pytest.raises(ShapeMismatch):
        orbital_equivalence_check(classic_rep("mat", 2, 2),
                                  classic_rep("mat", 2, 3), F3)


def test_sampling_is_deterministic():
    rep = family_rep(Family.RHO, (1, 2), (1, 2))
    R = make_ring("padic", 3, 2)
    a = constant_rank_check(rep, R, 0, samples=500, seed=42)
    b = constant_rank_check(rep, R, 0, samples=500, seed=42)
    assert a == b


@st.composite
def certifier_cases(draw):
    """Two representations sharing I and J (up to 3 x 2) with up to 3
    generators each, entries in -4..4."""
    dI, dJ = draw(st.integers(0, 3)), draw(st.integers(0, 2))

    def rep():
        k = draw(st.integers(0, 3))
        gens = tuple(tuple(tuple(draw(st.integers(-4, 4)) for _ in range(dJ))
                           for _ in range(dI)) for _ in range(k))
        return ModuleRep(tuple(range(k)), tuple(range(1, dI + 1)),
                         tuple(range(1, dJ + 1)), gens)

    return rep(), rep()


@settings(max_examples=60, deadline=None)
@given(case=certifier_cases(), p=st.sampled_from([2, 3, 5]), l=st.integers(0, 2))
@example(case=(ModuleRep(("a",), (), (1, 2), ((),)), ModuleRep((), (), (1, 2), ())),
         p=3, l=0)  # I empty: C(()) is a zero matrix
@example(case=(classic_rep("mat", 3, 3), board_rep(
    parse_grid((GRIDS / "sample_d.grid").read_text()).colouring)), p=5, l=0)
@example(case=(ModuleRep(("a", "b"), (1, 2, 3), (1, 2),
                         (((1, -2), (0, 3), (-4, 1)), ((2, 2), (-1, 0), (0, -3)))),
               ModuleRep(("c",), (1, 2, 3), (1, 2), (((-1, 0), (0, 1), (1, 1)),))),
         p=5, l=1)
def test_certifiers_match_all_points_oracle(case, p, l):
    # one point per torus orbit certifies, and reports, what checking every
    # point of F_p^I does: the same counts, verdicts and first 10 violations
    big, sub = case
    ring = make_ring("field", p)
    for report, (checked, bad) in (
            (constant_rank_check(big, ring, l), naive_constant_rank(big, p, l)),
            (orbital_equivalence_check(big, sub, ring), naive_orbital(big, sub, p))):
        assert (report.checked, report.passed) == (checked, not bad)
        assert [v[0] for v in report.violations] == bad[:10]
        assert report.mode == "exhaustive"


@pytest.mark.parametrize("ring", [F3, make_ring("padic", 3, 2)], ids=["F3", "Z/9"])
def test_certifiers_on_empty_index_set(ring):
    # no point of R^0 has a unit coordinate, and the empty point has every
    # coordinate a unit; over Z/9 the empty point is drawn `samples` times
    rep = ModuleRep(("a",), (), (1,), ((),))
    assert constant_rank_check(rep, ring, 1, samples=50).checked == 0
    report = orbital_equivalence_check(rep, rep, ring, samples=50)
    assert report.passed and report.checked == (1 if ring.cap == 1 else 50)


@pytest.mark.parametrize("check,calls,checked", [
    (lambda: constant_rank_check(family_rep(Family.GAMMA, (1, 2, 3), (1, 2, 3)), F5, 1),
     7, 5**3 - 1),
    (lambda: orbital_equivalence_check(alpha_rep(3), alphahat_rep(3), F5),
     2 * 16, 4**6),
], ids=["constant-rank-gamma-F5", "orbital-alpha3-F5"])
def test_certifiers_walk_unit_orbit_representatives(check, calls, checked, monkeypatch):
    # over F_5 one orbit matrix per rep at each walked torus orbit, while
    # `checked` still counts every point: the 7 supports of F_5^3 (unit
    # orbits took 31 points), and for each of alpha and alphahat the 16
    # orbits of the all-unit points of F_5^6 under the rank-4 lattice of
    # their joint incidence system (unit orbits took 4^5)
    count = []
    orbit_matrix_at = ModuleRep.orbit_matrix_at

    def counted(self, level, x):
        count.append(x)
        return orbit_matrix_at(self, level, x)

    monkeypatch.setattr(ModuleRep, "orbit_matrix_at", counted)
    report = check()
    assert len(count) == calls
    assert report.passed and report.checked == checked


def _board_in_mat(name):
    big = classic_rep("mat", 3, 3)
    sub = load_board(name)
    return big, ModuleRep(sub.labels, big.I, big.J, sub.gens)


@pytest.mark.parametrize("reps,l,samples,seed", [
    (lambda: (alpha_rep(3), alphahat_rep(3)), None, 300, 51),
    (lambda: _board_in_mat("sample_d"), None, 400, 5),
    (lambda: (family_rep(Family.RHO, (1, 2), (1, 2, 3)),), 0, 500, 7),
    (lambda: (load_board("sample_c"),), 0, 300, 3),
], ids=["orbital-alpha3", "orbital-sample_d", "constant-rank-rho", "constant-rank-sample_c"])
@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (2, 3), (2, 4)],
                         ids=["Z/9", "Z/27", "Z/25", "Z/8", "Z/16"])
def test_sampled_certifiers_match_draw_oracle(reps, l, samples, seed, p, n):
    # eliminating each drawn torus orbit once reports what forming and
    # eliminating C(x) at every draw does: the same count, verdict and first
    # 10 violations (the drawn points, in draw order, with their profiles);
    # l is None for the orbital check
    reps, ring = reps(), make_ring("padic", p, n)
    if l is None:
        report = orbital_equivalence_check(*reps, ring, samples=samples, seed=seed)
        checked, bad = naive_sampled_orbital(*reps, p, n, samples, seed)
    else:
        report = constant_rank_check(*reps, ring, l, samples=samples, seed=seed)
        checked, bad = naive_sampled_constant_rank(*reps, p, n, l, samples, seed)
    assert (report.checked, report.passed, report.mode) == (checked, not bad, "sample")
    assert list(report.violations) == bad[:10]


@pytest.mark.parametrize("check,reps,dim,all_units", [
    (lambda R: orbital_equivalence_check(alpha_rep(3), alphahat_rep(3), R,
                                         samples=2000, seed=51),
     (alpha_rep(3), alphahat_rep(3)), 6, True),
    (lambda R: constant_rank_check(family_rep(Family.GAMMA, (1, 2, 3), (1, 2, 3)), R, 1,
                                   samples=2000, seed=51),
     (family_rep(Family.GAMMA, (1, 2, 3), (1, 2, 3)),), 3, False),
], ids=["orbital-alpha3", "constant-rank-gamma"])
def test_sampled_certifiers_eliminate_each_drawn_unit_orbit_once(check, reps, dim, all_units,
                                                                monkeypatch):
    # over Z/9 a draw x stands for its torus orbit: one orbit matrix per rep
    # for each distinct orbit, however often it is drawn, counted here by
    # breadth-first closure of the draws under the weights
    ring = make_ring("padic", 3, 2)
    draws = seeded_draws(3, 2, dim, 2000, 51, all_units)
    weights = torus.weights(*reps)
    orbits = set()
    for x in draws:
        if not any(x in orbit for orbit in orbits):
            orbits.add(torus_orbit(ring, weights, x))
    count = []
    orbit_matrix_at = ModuleRep.orbit_matrix_at

    def counted(self, level, x):
        count.append(x)
        return orbit_matrix_at(self, level, x)

    monkeypatch.setattr(ModuleRep, "orbit_matrix_at", counted)
    report = check(ring)
    assert len(count) == len(reps) * len(orbits) < len(reps) * len(set(draws))
    assert report.passed and report.checked == 2000
