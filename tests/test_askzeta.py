import itertools
import random
from collections import Counter
from fractions import Fraction
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gridask import askzeta, fastcount, torus
from gridask.askzeta import (BudgetExceeded, ask, ask_orbit,
                             constant_rank_check, direct_profile_counts,
                             orbital_equivalence_check, profile_census,
                             rank_distribution, verify_prediction,
                             zeta_coefficients)
from gridask.boardgame import Family
from gridask.cli import build_rep, run
from gridask.colouring import parse_grid
from gridask.linalg import Mat, divisor_profile, rank
from gridask.modrep import (ModuleRep, alpha_rep, alphahat_rep, board_rep,
                            classic_rep, family_rep)
from gridask.predictions import predict
from gridask.rings import ExtField, PadicQuotient

from oracles import (naive_ask, naive_constant_rank, naive_divisor_profile,
                     naive_field_rank, naive_orbit_ask, naive_orbit_matrix, naive_orbital,
                     naive_sampled_constant_rank, naive_sampled_orbital, random_rep,
                     seeded_draws, subspace_rank_counts, torus_orbit)

GRIDS = Path(__file__).resolve().parent.parent / "grids"
F3 = PadicQuotient(3)
F5 = PadicQuotient(5)
F = Fraction


def load_board(name: str):
    g = parse_grid((GRIDS / f"{name}.grid").read_text())
    return board_rep(g.colouring, g.units)


# ---------------------------------------------------------------------------
# Values straight from the closed formulas.
# ---------------------------------------------------------------------------

def test_square_matrices():
    assert ask(classic_rep("mat", 2, 2), F3, "direct").value == F(17, 9)
    assert ask_orbit(classic_rep("mat", 2, 2), F3).value == F(17, 9)


def test_alternating_three():
    assert ask(classic_rep("alt", 3), F3, "direct").value == F(35, 9)


def test_zero_module_kernel_is_everything():
    rep = ModuleRep((), (1,), (1,), ())
    assert ask(rep, F5, "direct").value == 5
    assert ask_orbit(rep, F5).value == 5


def test_trivial_I_gives_one():
    # no rows at all: a single empty point x, empty orbit matrix
    assert ask_orbit(ModuleRep((), (), (1,), ()), F3).value == 1


def test_direct_equals_orbit_random():
    rng = random.Random(101)
    rings = [PadicQuotient(2), F3, PadicQuotient(2, 2),
             PadicQuotient(3, 2), ExtField(2, 2)]
    for k in range(40):
        rep = random_rep(3, 3, rng)
        ring = rings[k % len(rings)]
        assert ask(rep, ring, "direct").value == ask_orbit(rep, ring).value


def test_direct_matches_definition_oracle():
    rng = random.Random(103)
    for _ in range(10):
        rep = random_rep(2, 2, rng)
        assert ask(rep, F3, "direct").value == naive_ask(rep, F3)


def element_census(rep, ring) -> Counter:
    """Divisor-profile census with one linalg.divisor_profile per element."""
    return Counter(divisor_profile(rep.element(ring, coeffs))
                   for coeffs in itertools.product(list(ring.elements()),
                                                   repeat=rep.rank))


def test_fast_census_matches_pure():
    rep = classic_rep("mat", 2, 2)
    for ring in (F5, PadicQuotient(3, 2)):
        assert direct_profile_counts(rep, ring) == element_census(rep, ring)


ORACLE_RINGS = {"F2": PadicQuotient(2), "F3": F3, "Z/4": PadicQuotient(2, 2),
                "Z/8": PadicQuotient(2, 3), "Z/16": PadicQuotient(2, 4),
                "Z/9": PadicQuotient(3, 2), "Z/27": PadicQuotient(3, 3),
                "F4": ExtField(2, 2)}


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
# alternating, r = 2: the class stops at r pivots, and every lift has one valuation k
@example(case=("Z/27", classic_rep("alt", 3), (5, 10, 22)))
# alternating, r = 2: the class has t = 1 < r pivots, and K is ranked
@example(case=("Z/9", ModuleRep(("a", "b"), (1, 2, 3), (1, 2, 3),
                                (((0, 1, 3), (-1, 0, 0), (-3, 0, 0)),
                                 ((0, 0, 2), (0, 0, 1), (-2, -1, 0)))), (4, 7, 3)))
# C(x') = 3 has valuation k - 1, and C(x) = 3 + 6 = 0: no pivot may stop at k - 1
@example(case=("Z/9", ModuleRep(("a",), (1, 2), (1,), (((3,), (1,)),)), (1, 6)))
def test_lifting_identity_matches_profile_oracle(case):
    # C(x) over Z/p^k from the class data of x' = x mod p^(k-1): the
    # valuations below k - 1, then k - 1 as often as the rank of K(y) over
    # F_p at y = (x - x') / p^(k-1), then k
    ring_name, rep, x = case
    p, k = LIFT_RINGS[ring_name]
    level = PadicQuotient(p, k)
    top = p ** (k - 1)
    basis = [naive_orbit_matrix(rep, level, [int(i == l) for i in range(len(rep.I))])
             for l in range(len(rep.I))]
    valuations, constant, linear = askzeta._class_lift(
        level, naive_orbit_matrix(rep, level, [c % top for c in x]), basis, rep.rank_bound)
    y = [c // top for c in x]
    t = len(valuations)
    if t == rep.rank_bound:  # the class stopped at r pivots: K is neither formed nor ranked
        assert (constant, linear) == ((), [])
        s = 0
    else:
        K = Mat(PadicQuotient(p), rep.rank - t, len(rep.J) - t,
                tuple((z + sum(yi * b[e] for yi, b in zip(y, linear))) % p
                      for e, z in enumerate(constant)))
        s = rank(K)
    assembled = sorted(valuations + [k - 1] * s + [k] * (min(rep.rank, len(rep.J)) - t - s))
    C = naive_orbit_matrix(rep, level, x)
    assert tuple(assembled) == naive_divisor_profile([C.row(b) for b in range(C.rows)], p, k)


@st.composite
def span_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    width = draw(st.integers(0, 6))
    vector = st.lists(st.integers(0, 4 * p), min_size=width, max_size=width)
    return p, draw(vector), draw(st.lists(vector, max_size=3))


@settings(max_examples=100, deadline=None)
@given(case=span_cases())
@example(case=(3, [1, 2], []))  # the empty span: K(0) alone
@example(case=(2, [], [[], [], []]))  # no entries
@example(case=(5, [4, 0, 7], [[1, 2, 3], [2, 4, 6], [0, 0, 5]]))  # dependent rows
def test_span_values_walk_matches_product(case):
    # the odometer's prefix-sum steps give every value of K(0) + span, with
    # the multiplicities of the coefficient tuples
    p, constant, span = case
    expected = Counter(tuple((z + sum(c * b[e] for c, b in zip(coeffs, span))) % p
                             for e, z in enumerate(constant))
                       for coeffs in itertools.product(range(p), repeat=len(span)))
    assert Counter(askzeta._span_values(constant, span, p)) == expected


@pytest.mark.parametrize("field", [PadicQuotient(2), F3, ExtField(2, 2)],
                         ids=["F2", "F3", "F4"])
def test_rank_count_counts_every_matrix_of_its_rank(field):
    # a full span of K is counted by rank, not walked: N(r, c, s) against the
    # rank of every r x c matrix, r c <= 6
    q, values = field.cardinality(), list(field.elements())
    for r in range(1, 7):
        for c in range(1, 6 // r + 1):
            ranks = Counter(naive_field_rank(zip(*[iter(entries)] * c), field)
                            for entries in itertools.product(values, repeat=r * c))
            assert {s: askzeta._rank_count(r, c, s, q) for s in range(min(r, c) + 1)} == ranks


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


KERNEL_RINGS = {"F2": PadicQuotient(2), "F3": F3, "F5": F5,
                "Z/8": PadicQuotient(2, 3), "Z/9": PadicQuotient(3, 2),
                "Z/27": PadicQuotient(3, 3)}


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
    ring = PadicQuotient(p, n)
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


@pytest.mark.parametrize("ring,matrices", [(F5, 14 + 4), (PadicQuotient(3, 2), 14 + 2)],
                         ids=["F5", "Z/9"])
def test_census_eliminates_unit_orbit_representatives(ring, matrices, monkeypatch):
    # the direct census is the orbit census of the dual, whose torus on the
    # coefficients of e_ij has weights b_i + c_j, a lattice of rank 3 on the
    # 4 coordinates.  Each support of at most 3 coordinates is one orbit,
    # and the full support splits into phi^4 / phi^3 = phi orbits: over F_5,
    # 14 + 4 = 18 orbit matrices where unit orbits took the 156 points of
    # P^3; over Z/9, 14 + 2 = 16 classes over F_3, each eliminated once over
    # Z/9 for both levels, where unit orbits took 40 + 1080
    calls = counted_orbit_matrices(monkeypatch)
    counts = direct_profile_counts(classic_rep("mat", 2), ring)
    assert len(calls) == matrices
    assert sum(counts.values()) == ring.cardinality() ** 4


def test_extension_field_census_eliminates_unit_orbit_representatives(monkeypatch):
    # over F_4 the zero element is counted without elimination, and the
    # other 255 elements by 14 + 3^4 / 3^3 = 17 torus orbits, where unit
    # orbits took the (4^4 - 1)/3 = 85 points of P^3
    F4 = ExtField(2, 2)
    calls = counted_orbit_matrices(monkeypatch)
    rep = classic_rep("mat", 2)
    counts = direct_profile_counts(rep, F4)
    assert len(calls) == 17
    assert counts == element_census(rep, F4)


@pytest.mark.parametrize("ring,points", [(F5, 7), (PadicQuotient(3, 2), 7)],
                         ids=["F5", "Z/9"])
def test_orbit_enumerates_unit_orbit_representatives(ring, points, monkeypatch):
    # one orbit matrix per torus orbit of primitive points over a field, and
    # over Z/p^k per torus class of level k - 1, whose reduction gives the
    # levels below.  The weights of alt:3 span Z^3, so each of the 7
    # supports in F_q^3 is one orbit: over F_5, 7 points where unit orbits
    # took the 31 points of P^2; over Z/9, the 7 classes over F_3, each
    # eliminated once over Z/9, and the ranks over F_3 of their 7 * 27 lifts
    calls = counted_orbit_matrices(monkeypatch)
    rep = classic_rep("alt", 3)
    value = ask_orbit(rep, ring).value
    assert len(calls) == points
    assert value == predict("classical_alt", d=3).series(ring.p, ring.cap)[ring.cap]


def test_zeta_coefficients_sum_each_level_once(monkeypatch):
    # c_1 and c_2 over Z/3, Z/9 from one pass over the 7 torus classes of
    # level 1 (one matrix over Z/9 each), whose census of level 2 reduces
    # to level 1: walking level 1 on its own would make 7 more, and
    # recomputing c_1 inside c_2 7 more again
    calls = counted_orbit_matrices(monkeypatch)
    coeffs = zeta_coefficients(classic_rep("alt", 3), PadicQuotient(3, 2))
    assert len(calls) == 7
    assert coeffs == predict("classical_alt", d=3).series(3, 2)


def test_direct_zeta_takes_one_census(monkeypatch):
    # c_1..c_3 from the Z/27 census with profiles capped at k.  The dual's
    # torus weights span Z^3, so each valuation pattern of a primitive point
    # is one orbit: 3^3 - 2^3 = 19 classes over Z/9 give level 3, whose
    # reduction gives levels 2 and 1, where unit orbits took 1,183 matrices
    # (and walking level 1 on its own 7 more)
    calls = counted_orbit_matrices(monkeypatch)
    coeffs = zeta_coefficients(classic_rep("alt", 3), PadicQuotient(3, 3), method="direct")
    assert len(calls) == 19
    assert coeffs == predict("classical_alt", d=3).series(3, 3)


def test_census_forms_orbit_matrices_only_at_the_top_level(monkeypatch):
    # over Z/81 the census lifts the 4^3 - 3^3 = 37 torus classes of level 3
    # (one per valuation pattern, as alt:3's weights span Z^3), each one
    # matrix over Z/81; the levels below are reductions of level 4, so no
    # matrix is formed over Z/27, Z/9 or F_3
    rep, ring = classic_rep("alt", 3), PadicQuotient(3, 4)
    classes = [x for x, _ in torus.Torus(rep.weights, ring.level(3)).orbits(3, False)]
    formed = []
    orbit_matrix_at = ModuleRep.orbit_matrix_at

    def counted(self, level, x):
        formed.append((level.cap, x))
        return orbit_matrix_at(self, level, x)

    monkeypatch.setattr(ModuleRep, "orbit_matrix_at", counted)
    coeffs = zeta_coefficients(rep, ring)
    assert len(classes) == 37
    assert formed == [(4, x) for x in classes]
    assert coeffs == predict("classical_alt", d=3).series(3, 4)


@pytest.mark.parametrize("pn", [(2, 4), (3, 3)], ids=["Z/16", "Z/27"])
@pytest.mark.parametrize("spec", [f"board:{GRIDS / 'sample_b.grid'}",
                                  f"altboard:{GRIDS / 'adm_2x2.grid'}", "alpha:2"],
                         ids=["board", "altboard", "alpha2"])
def test_zeta_coefficients_match_a_census_at_each_level(spec, pn):
    # c_k read from the census over Z/p^n, reduced mod p^k, against the last
    # coefficient of a census over Z/p^k itself: level 1 walked, or level k
    # lifted from the classes of level k - 1
    rep = build_rep(spec)
    p, n = pn
    assert zeta_coefficients(rep, PadicQuotient(p, n)) == [F(1)] + [
        zeta_coefficients(rep, PadicQuotient(p, k))[-1] for k in range(1, n + 1)]


def test_direct_census_finds_the_dual_weights_once(monkeypatch):
    # the dual is cached on the rep, so the direct census over a second
    # ring reads the torus weights the first one found
    kernels = []
    incidence_kernel = torus.incidence_kernel

    def counted(*reps):
        kernels.append(reps)
        return incidence_kernel(*reps)

    monkeypatch.setattr(torus, "incidence_kernel", counted)
    rep = classic_rep("alt", 3)
    for q in (3, 5):
        assert ask(rep, PadicQuotient(q), "direct").value == \
            predict("classical_alt", d=3).coefficient(q, 1)
    assert len(kernels) == 1


@pytest.mark.parametrize("p,n_max", [(2, 3), (3, 2)])
def test_direct_zeta_matches_orbit_zeta(p, n_max):
    rep = classic_rep("mat", 2, 3)
    assert (zeta_coefficients(rep, PadicQuotient(p, n_max), method="direct")
            == zeta_coefficients(rep, PadicQuotient(p, n_max)))


# Z/8 and Z/27 lift level 3 and Z/16 level 4, and reduce it to every level
# below.  naive_orbit_ask
# enumerates R^I points and R^B images for each, so |R|^(I + B) is kept at
# most 16^4
@settings(max_examples=30, deadline=None)
@given(pn=st.sampled_from([(2, 3), (2, 4), (3, 3)]), rep=tiny_reps())
@example(pn=(2, 4), rep=ModuleRep(("a", "b"), (1, 2), (1, 2),
                                  (((3, 0), (0, -1)), ((0, 1), (9, 0)))))
@example(pn=(3, 3), rep=ModuleRep(("a",), (1, 2), (1, 2), (((3, -1), (0, 9)),)))
@example(pn=(2, 3), rep=ModuleRep(("a", "b"), (1,), (1, 2), (((2, 1),), ((0, 4),))))
def test_zeta_coefficients_match_orbit_oracle_at_every_level(pn, rep):
    p, n = pn
    assume(p ** (n * (len(rep.I) + rep.rank)) <= 16 ** 4)
    coeffs = zeta_coefficients(rep, PadicQuotient(p, n))
    assert coeffs[1:] == [naive_orbit_ask(rep, PadicQuotient(p, k))
                          for k in range(1, n + 1)]


def test_budget_enforced():
    rep = classic_rep("mat", 3, 3)
    with pytest.raises(BudgetExceeded):
        ask(rep, F5, "direct", budget=100)
    with pytest.raises(BudgetExceeded):
        ask_orbit(rep, F5, budget=10)
    with pytest.raises(ValueError):
        ask(rep, F3, method="nonsense")
    with pytest.raises(ValueError):
        zeta_coefficients(rep, F3, method="nonsense")


# ---------------------------------------------------------------------------
# The rank bound: at most r valuations below the cap at a primitive point.
# ---------------------------------------------------------------------------

ROOT = GRIDS.parent
BIG_PRIME = PadicQuotient(1000003)


def census_reps(argvs, monkeypatch) -> list:
    """The modules whose census the CLI takes on these command lines, in
    order, one entry per census."""
    reps = []
    zeta = askzeta.zeta_coefficients

    def recorded(rep, *args, **kwargs):
        reps.append(rep)
        return zeta(rep, *args, **kwargs)

    monkeypatch.setattr(askzeta, "zeta_coefficients", recorded)
    monkeypatch.chdir(ROOT)
    for argv in argvs:
        assert run(argv) == 0, argv
    return reps


def with_rank_bound(rep: ModuleRep, bound: int) -> ModuleRep:
    """A copy of rep whose census takes bound as its rank bound."""
    forced = ModuleRep(rep.labels, rep.I, rep.J, rep.gens)
    forced.rank_bound = bound  # shadows the cached property
    return forced


def test_rank_bound_is_the_rank_at_a_random_point(monkeypatch):
    # the bound is certified by identities; at a random point over F_P, P a
    # large prime, C(x) has the generic rank but for a chance of about
    # deg / P, so a bound above that rank would show as loose.  Every module
    # whose census a manifest line takes has a tight bound, the restricted
    # adjoint modules of the cc lines (x C(x) = 0) among them; the element
    # duals of the direct method keep min(B, J), which may be loose
    lines = (ROOT / "manifests" / "acceptance.txt").read_text().splitlines()
    argvs = [line.split() for line in (raw.split("#", 1)[0].strip() for raw in lines)
             if line.split()[:1] in (["zeta-verify"], ["ask"], ["cc"])]
    reps = census_reps(argvs, monkeypatch)
    assert len(reps) >= 30
    draw = random.Random(31).randrange
    tightened = 0
    for rep in reps:
        points = [[draw(BIG_PRIME.p) for _ in rep.I] for _ in range(2)]
        generic = max(rank(naive_orbit_matrix(rep, BIG_PRIME, x)) for x in points)
        assert rep.rank_bound == generic, rep.labels
        tightened += generic < min(rep.rank, len(rep.J))
        dual = rep.dual
        assert dual.rank_bound >= rank(naive_orbit_matrix(dual, BIG_PRIME,
                                                          [draw(BIG_PRIME.p) for _ in dual.I]))
    assert tightened >= 10


def test_rank_bound_needs_the_identity_on_every_generator(monkeypatch):
    # alt:3 (C(x) x = 0) and the restricted adjoint module of the free
    # class-2 group on 3 generators (x C(x) = 0) lose one from min(B, J);
    # one entry off the identity in one generator keeps min(B, J)
    alt = classic_rep("alt", 3)
    [adjoint] = census_reps([["cc", "--free-nilpotent", "3,2", "--prime", "5"]], monkeypatch)
    assert (alt.rank_bound, adjoint.rank_bound) == (2, 2)
    assert (min(alt.rank, len(alt.J)), min(adjoint.rank, len(adjoint.J))) == (3, 3)
    for rep in (alt, adjoint):
        first, *rest = rep.gens
        broken = ((first[0][:1] + (first[0][1] + 1,) + first[0][2:],) + first[1:],)
        off = ModuleRep(rep.labels, rep.I, rep.J, broken + tuple(rest))
        assert off.rank_bound == min(rep.rank, len(rep.J))


@st.composite
def alternating_reps(draw):
    d, k = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    gens = []
    for _ in range(k):
        upper = {(i, j): draw(st.integers(-4, 4)) for i in range(d) for j in range(i + 1, d)}
        gens.append(tuple(tuple(upper[i, j] if i < j else -upper[j, i] if i > j else 0
                                for j in range(d)) for i in range(d)))
    index = tuple(range(1, d + 1))
    return ModuleRep(tuple(range(k)), index, index, tuple(gens))


ALTERNATING_RINGS = {"Z/8": (2, 3), "Z/9": (3, 2), "Z/27": (3, 3)}


# naive_orbit_ask enumerates R^I points and R^B images for each, so it
# checks the levels Z/p^k with |Z/p^k|^(I + B) <= 16^4; the census with r
# forced to min(B, J), the elimination of every class to its full profile,
# checks every level
@settings(max_examples=40, deadline=None)
@given(rep=alternating_reps(), ring_name=st.sampled_from(sorted(ALTERNATING_RINGS)))
@example(rep=ModuleRep(("a",), (1, 2), (1, 2), (((0, 3), (-3, 0)),)), ring_name="Z/27")
@example(rep=ModuleRep(("a", "b"), (1, 2, 3), (1, 2, 3),
                       (((0, 1, 3), (-1, 0, 0), (-3, 0, 0)),
                        ((0, 0, 2), (0, 0, 1), (-2, -1, 0)))), ring_name="Z/8")
@example(rep=ModuleRep((), (1,), (1,), ()), ring_name="Z/9")  # rank 0
def test_census_with_rank_bound_matches_full_elimination_and_oracle(rep, ring_name):
    p, n = ALTERNATING_RINGS[ring_name]
    ring = PadicQuotient(p, n)
    full = min(rep.rank, len(rep.J))
    assert rep.rank_bound == (min(full, len(rep.J) - 1) if rep.I else full)
    assert profile_census(rep, ring) == profile_census(with_rank_bound(rep, full), ring)
    coeffs = zeta_coefficients(rep, ring)
    for k in range(1, n + 1):
        if (p ** k) ** (len(rep.I) + rep.rank) <= 16 ** 4:
            assert coeffs[k] == naive_orbit_ask(rep, PadicQuotient(p, k))


@pytest.mark.parametrize("spec,prediction,params,p,n", [
    ("alt:3", "classical_alt", {"d": 3}, 3, 4),
    ("alt:3", "classical_alt", {"d": 3}, 5, 3),
    ("alpha:3", "kite", {"m": 3, "n": 3}, 3, 3),
], ids=["alt3-Z/81", "alt3-Z/125", "alpha3-Z/27"])
def test_census_with_rank_bound_matches_full_elimination_and_catalog(spec, prediction,
                                                                    params, p, n):
    name, d = spec.split(":")
    rep = classic_rep(name, int(d)) if name == "alt" else alpha_rep(int(d))
    ring = PadicQuotient(p, n)
    assert rep.rank_bound == min(rep.rank, len(rep.J)) - 1
    budget = ring.cardinality() ** len(rep.I)
    counts = profile_census(rep, ring, budget)
    assert counts == profile_census(with_rank_bound(rep, min(rep.rank, len(rep.J))), ring,
                                    budget)
    assert zeta_coefficients(rep, ring, budget=budget) == predict(prediction,
                                                                  **params).series(p, n)


def test_census_below_the_rank_bound_is_wrong():
    # r - 1 would stop classes that can still gain a valuation: the census
    # of alt:3 over Z/9 changes, so a bound one too low cannot pass unseen
    rep, ring = classic_rep("alt", 3), PadicQuotient(3, 2)
    assert profile_census(with_rank_bound(rep, rep.rank_bound - 1), ring) != \
        profile_census(rep, ring)


# ---------------------------------------------------------------------------
# Series coefficients and verification reports.
# ---------------------------------------------------------------------------

def test_zeta_coefficients_one_by_one():
    coeffs = zeta_coefficients(classic_rep("mat", 1, 1), PadicQuotient(3, 2))
    pred = predict("classical_mat", d=1, e=1)
    assert coeffs == pred.series(3, 2)
    assert coeffs[0] == 1


def test_zeta_alt2_matches_catalog():
    coeffs = zeta_coefficients(classic_rep("alt", 2), PadicQuotient(3, 2))
    assert coeffs == predict("classical_alt", d=2).series(3, 2)


def test_zero_module_zeta_geometric():
    rep = ModuleRep((), (1, 2), (1, 2), ())
    coeffs = zeta_coefficients(rep, PadicQuotient(3, 2))
    assert coeffs == [1, 9, 81]


def test_verify_prediction_pass_and_fail():
    ok = verify_prediction(load_board("sample_a"),
                           predict("classical_mat", d=3, e=3), PadicQuotient(5))
    assert ok.passed
    bad = verify_prediction(load_board("sample_c"),
                            predict("classical_mat", d=3, e=3), PadicQuotient(5))
    assert not bad.passed
    assert bad.coefficients[0].match  # T^0 is always 1
    assert not bad.coefficients[1].match


# ---------------------------------------------------------------------------
# Rank distributions.
# ---------------------------------------------------------------------------

def test_rank_distribution_recovers_ask():
    rep = classic_rep("alt", 3)
    for q in (3, 5):
        Fq = PadicQuotient(q)
        dist = rank_distribution(rep, Fq)
        assert dist.counts[0] == 1
        assert sum(dist.counts.values()) == q**rep.rank
        assert dist.ask_value(len(rep.I)) == ask(rep, Fq, "direct").value


def test_rank_distribution_counts_matrices_of_each_rank():
    # prod_{i<r} (q^3 - q^i)^2 / (q^r - q^i) matrices of rank r in F_q^(3x3):
    # 1, 3,844, 461,280 and 1,488,000 at q = 5
    q = 5
    expected = {r: prod((q**3 - q**i) ** 2 for i in range(r))
                // prod(q**r - q**i for i in range(r)) for r in range(4)}
    assert expected == {0: 1, 1: 3844, 2: 461280, 3: 1488000}
    assert rank_distribution(classic_rep("mat", 3), F5).counts == expected


RANK_FIELDS = {"F2": PadicQuotient(2), "F3": F3, "F5": F5, "F4": ExtField(2, 2)}


@st.composite
def rank_cases(draw):
    dI, dJ = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    k = draw(st.integers(0, 4))
    gens = tuple(tuple(tuple(draw(st.integers(-1, 1)) for _ in range(dJ))
                       for _ in range(dI)) for _ in range(k))
    return ModuleRep(tuple(range(k)), tuple(range(1, dI + 1)),
                     tuple(range(1, dJ + 1)), gens)


@settings(max_examples=60, deadline=None)
@given(rep=rank_cases(), field_name=st.sampled_from(sorted(RANK_FIELDS)))
@example(rep=ModuleRep((), (1, 2, 3), (1, 2), ()), field_name="F5")  # B = 0, J < I
@example(rep=ModuleRep(("a", "b"), (1, 2, 3), (1, 2),
                       (((1, 0), (0, 1), (1, 1)), ((0, 1), (-1, 0), (0, 0)))),
         field_name="F4")  # J < I: the walk takes the transposed module
@example(rep=classic_rep("mat", 3, 2), field_name="F5")  # J < I, under a large torus
@example(rep=ModuleRep(("a", "b", "c"), (1, 2), (1, 2, 3),
                       (((1, 0, -1), (0, 1, 0)), ((0, 0, 1), (1, 1, 0)), ((1, 1, 0), (0, 0, 1)))),
         field_name="F3")  # I < J: left kernels
@example(rep=classic_rep("sl", 3), field_name="F2")  # F_2: every torus orbit is one point
def test_rank_distribution_matches_the_census(rep, field_name):
    # the subspace moments over one subspace per torus orbit, inverted, count
    # what the plain walk over every subspace and the kept census count
    field = RANK_FIELDS[field_name]
    by_rank = Counter()
    for prof, n in direct_profile_counts(rep, field).items():
        by_rank[prof.count(0)] += n
    assert rank_distribution(rep, field).counts == subspace_rank_counts(rep, field) == by_rank


def test_rank_distribution_budget_bounds_subspaces(capsys):
    # F_5^3 has 1 + 31 + 31 + 1 = 64 subspaces, for classic:mat:3 and for
    # classic:mat:3,5 (the walk takes the side with fewer coordinates)
    for rep in (classic_rep("mat", 3), classic_rep("mat", 5, 3), classic_rep("mat", 3, 5)):
        assert rank_distribution(rep, F5, budget=64).counts[0] == 1
        with pytest.raises(BudgetExceeded, match="64 subspaces exceed budget 63"):
            rank_distribution(rep, F5, budget=63)
    assert run(["rank-dist", "--rep", "classic:mat:3", "--prime", "5", "--budget", "63"]) == 4
    assert capsys.readouterr().err == "budget exceeded: 64 subspaces exceed budget 63\n"


def test_rank_distribution_requires_field():
    with pytest.raises(ValueError):
        rank_distribution(classic_rep("alt", 2), PadicQuotient(3, 2))


# ---------------------------------------------------------------------------
# Constant-rank and orbital certifiers.
# ---------------------------------------------------------------------------

def test_gamma_square_constant_corank_one():
    rep = family_rep(Family.GAMMA, (1, 2, 3), (1, 2, 3))
    report = constant_rank_check(rep, F5, 1)
    assert report.passed and report.checked == 5**3 - 1


def test_rho_rectangular_corank_zero_over_z25():
    rep = family_rep(Family.RHO, (1, 2), (1, 2, 3))
    report = constant_rank_check(rep, PadicQuotient(5, 2), 0,
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
    report = orbital_equivalence_check(big, fixed, PadicQuotient(7))
    assert not report.passed
    assert len(report.violations) == 10  # capped report


def test_orbital_requires_matching_shapes():
    from gridask.modrep import ShapeMismatch
    with pytest.raises(ShapeMismatch):
        orbital_equivalence_check(classic_rep("mat", 2, 2),
                                  classic_rep("mat", 2, 3), F3)


def test_sampling_is_deterministic():
    rep = family_rep(Family.RHO, (1, 2), (1, 2))
    R = PadicQuotient(3, 2)
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
    ring = PadicQuotient(p)
    for report, (checked, bad) in (
            (constant_rank_check(big, ring, l), naive_constant_rank(big, p, l)),
            (orbital_equivalence_check(big, sub, ring), naive_orbital(big, sub, p))):
        assert (report.checked, report.passed) == (checked, not bad)
        assert [v[0] for v in report.violations] == bad[:10]
        assert report.mode == "exhaustive"


@pytest.mark.parametrize("ring", [F3, PadicQuotient(3, 2)], ids=["F3", "Z/9"])
def test_certifiers_on_empty_index_set(ring):
    # no point of R^0 has a unit coordinate, and the empty point has every
    # coordinate a unit; over Z/9 the empty point is drawn `samples` times
    rep = ModuleRep(("a",), (), (1,), ((),))
    assert constant_rank_check(rep, ring, 1, samples=50).checked == 0
    report = orbital_equivalence_check(rep, rep, ring, samples=50)
    assert report.passed and report.checked == (1 if ring.cap == 1 else 50)


def test_sampled_certifiers_on_empty_index_set_count_the_draws(monkeypatch):
    # over Z/9 the one orbit of R^0 is walked, and `checked` is what the
    # draws would count: `samples` all-unit draws and no some-unit draw
    rep, ring = ModuleRep(("a",), (), (1,), ((),)), PadicQuotient(3, 2)
    draws = _spy_draws(monkeypatch)
    assert constant_rank_check(rep, ring, 1, samples=50).checked == len(
        seeded_draws(3, 2, 0, 50, 0, False)) == 0
    assert orbital_equivalence_check(rep, rep, ring, samples=50).checked == len(
        seeded_draws(3, 2, 0, 50, 0, True)) == 50
    assert not draws


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
    # eliminating each torus orbit once, walked or drawn, reports what forming
    # and eliminating C(x) at every draw does: the same count, verdict and first
    # 10 violations (the drawn points, in draw order, with their profiles);
    # l is None for the orbital check
    reps, ring = reps(), PadicQuotient(p, n)
    report, (checked, bad) = _sampled_check(reps, ring, l, samples, seed)
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
def test_sampled_certifiers_eliminate_each_unit_orbit_once(check, reps, dim, all_units,
                                                           monkeypatch):
    # over Z/9 a point stands for its torus orbit: one orbit matrix per rep
    # for each orbit, however many points it holds; the 2000 draws meet
    # every orbit, counted here by breadth-first closure of the draws
    ring = PadicQuotient(3, 2)
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


def _spy_draws(monkeypatch) -> list:
    """Record each call of askzeta._sampled_points, which then draws as before."""
    calls, sampled_points = [], askzeta._sampled_points

    def spy(*args):
        calls.append(args)
        return sampled_points(*args)

    monkeypatch.setattr(askzeta, "_sampled_points", spy)
    return calls


def _sampled_check(reps, ring, l, samples, seed):
    """(report, oracle's (checked, violations)); l is None for the orbital check."""
    p, n = ring.p, ring.cap
    if l is None:
        return (orbital_equivalence_check(*reps, ring, samples=samples, seed=seed),
                naive_sampled_orbital(*reps, p, n, samples, seed))
    return (constant_rank_check(*reps, ring, l, samples=samples, seed=seed),
            naive_sampled_constant_rank(*reps, p, n, l, samples, seed))


@pytest.mark.parametrize("reps,l", [
    (lambda: (alpha_rep(3), alphahat_rep(3)), None),
    (lambda: (family_rep(Family.RHO, (1, 2), (1, 2, 3)),), 0),
    (lambda: (family_rep(Family.GAMMA, (1, 2, 3), (1, 2, 3)),), 1),
], ids=["orbital-alpha3", "constant-rank-rho", "constant-rank-gamma"])
@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (3, 3)],
                         ids=["Z/8", "Z/9", "Z/25", "Z/27"])
def test_passing_sampled_certifiers_walk_every_orbit_and_draw_nothing(reps, l, p, n,
                                                                      monkeypatch):
    # with no more torus orbits than draws (400 of alpha:3's over Z/25 at
    # most), every orbit is eliminated once, and as each holds, so does
    # every draw: the report is the draw oracle's, and nothing is drawn
    reps, ring = reps(), PadicQuotient(p, n)
    group = torus.Torus(torus.weights(*reps), ring)
    orbits = group.orbit_count(len(reps[0].I), l is None)
    draws, bounds = _spy_draws(monkeypatch), []

    def spy(m, bound=None):
        bounds.append(bound)
        return divisor_profile(m, bound)

    monkeypatch.setattr(askzeta, "divisor_profile", spy)
    report, (checked, bad) = _sampled_check(reps, ring, l, 400, 11)
    assert orbits <= 400 and not bad and not draws
    assert report == (checked, (), "sample", True)
    assert bounds == [rep.rank_bound for rep in reps] * orbits


@pytest.mark.parametrize("reps,l,p,n", [
    (lambda: _board_in_mat("sample_d"), None, 5, 2),
    (lambda: _board_in_mat("sample_d"), None, 2, 3),
    (lambda: (family_rep(Family.RHO, (1, 2), (1, 2, 3)),), 1, 3, 2),
    (lambda: (family_rep(Family.GAMMA, (1, 2, 3), (1, 2, 3)),), 0, 3, 2),
], ids=["orbital-sample_d-Z/25", "orbital-sample_d-Z/8", "constant-rank-rho-Z/9",
        "constant-rank-gamma-Z/9"])
def test_violating_sampled_certifiers_eliminate_no_orbit_twice(reps, l, p, n, monkeypatch):
    # the walk stops at its first failing orbit, and the draws then reuse
    # the verdicts of the orbits walked: the report is the draw oracle's,
    # violations in draw order, and no rep eliminates an orbit twice
    reps, ring = reps(), PadicQuotient(p, n)
    group = torus.Torus(torus.weights(*reps), ring)
    assert group.orbit_count(len(reps[0].I), l is None) <= 400
    draws, seen = _spy_draws(monkeypatch), []
    orbit_matrix_at = ModuleRep.orbit_matrix_at

    def counted(self, level, x):
        seen.append((self, x))
        return orbit_matrix_at(self, level, x)

    monkeypatch.setattr(ModuleRep, "orbit_matrix_at", counted)
    report, (checked, bad) = _sampled_check(reps, ring, l, 400, 5)
    assert bad and draws
    assert report == (checked, tuple(bad[:10]), "sample", False)
    keys = group.keys([x for _, x in seen])
    for rep in reps:
        mine = [key for (r, _), key in zip(seen, keys) if r is rep]
        assert len(mine) == len(set(mine))


@pytest.mark.parametrize("reps,l,orbits", [
    (lambda: (alpha_rep(3), alphahat_rep(3)), None, 400),
    (lambda: (family_rep(Family.GAMMA, (1, 2, 3), (1, 2, 3)),), 1, 19),
], ids=["orbital-alpha3", "constant-rank-gamma"])
def test_sampled_certifiers_with_fewer_draws_than_orbits_draw(reps, l, orbits, monkeypatch):
    # --samples 5 over Z/25 is below the orbit count, so the check draws
    # as before and the report is the draw oracle's
    reps, ring = reps(), PadicQuotient(5, 2)
    assert torus.Torus(torus.weights(*reps), ring).orbit_count(len(reps[0].I), l is None) == orbits
    draws = _spy_draws(monkeypatch)
    report, (checked, bad) = _sampled_check(reps, ring, l, 5, 13)
    assert draws and report == (checked, tuple(bad[:10]), "sample", not bad)


BATCH = askzeta.SAMPLE_BATCH


@pytest.mark.parametrize("samples", [1, BATCH, BATCH + 1, 3 * BATCH + 7])
@pytest.mark.parametrize("dim", [0, 1, 2, 3])
@pytest.mark.parametrize("all_units", [True, False], ids=["all-units", "some-unit"])
@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2)], ids=["Z/8", "Z/9", "Z/25"])
def test_sampled_batches_concatenate_to_the_draw_oracle(samples, dim, all_units, p, n):
    # the batches are full but for the last, and together they are the
    # oracle's stream, redraws included, across every batch boundary
    batches = list(askzeta._sampled_points(PadicQuotient(p, n), dim, samples, 17, all_units))
    draws = seeded_draws(p, n, dim, samples, 17, all_units)
    assert [x for batch in batches for x in batch] == draws
    assert [len(batch) for batch in batches] == (
        [BATCH] * (len(draws) // BATCH) + [len(draws) % BATCH] * bool(len(draws) % BATCH))


@pytest.mark.parametrize("reps,l,seed", [
    (lambda: _board_in_mat("sample_d"), None, 3),
    (lambda: (load_board("sample_d"),), 0, 0),
], ids=["orbital-sample_d", "constant-rank-sample_d"])
def test_sampled_violations_across_batches_match_draw_oracle(reps, l, seed):
    # over Z/25 the first 10 violating draws fall in two batches, and the
    # report still lists them in draw order; l is None for the orbital check
    reps, ring = reps(), PadicQuotient(5, 2)
    report, (checked, bad) = _sampled_check(reps, ring, l, 600, seed)
    draws = seeded_draws(5, 2, len(reps[0].I), 600, seed, l is None)
    assert len({draws.index(v[0]) // BATCH for v in bad[:10]}) > 1
    assert (report.checked, report.passed) == (checked, False)
    assert list(report.violations) == bad[:10]


@pytest.mark.parametrize("reps,l", [
    (lambda: _board_in_mat("sample_d"), None),
    (lambda: (load_board("sample_d"),), 0),
], ids=["orbital-sample_d", "constant-rank-sample_d"])
def test_sampled_certifiers_stop_at_the_tenth_violation(reps, l, monkeypatch):
    # the report is the first 10 violating draws and the number of draws,
    # so nothing after the 10th violation can change it: no later batch is
    # drawn and no later draw eliminated (all 2000 were, before)
    reps, ring = reps(), PadicQuotient(5, 2)
    batches, drawn = [], []
    sampled_points, orbit_matrix_at = askzeta._sampled_points, ModuleRep.orbit_matrix_at

    def drawing(*args):
        for batch in sampled_points(*args):
            batches.append(batch)
            yield batch

    def counted(self, level, x):
        if batches:
            drawn.append(x)
        return orbit_matrix_at(self, level, x)

    monkeypatch.setattr(askzeta, "_sampled_points", drawing)
    monkeypatch.setattr(ModuleRep, "orbit_matrix_at", counted)
    report, (checked, bad) = _sampled_check(reps, ring, l, 2000, 0)
    assert checked == 2000 and len(bad) > 10
    assert report == (checked, tuple(bad[:10]), "sample", False)
    draws = seeded_draws(5, 2, len(reps[0].I), 2000, 0, l is None)
    violating = {v[0] for v in bad}
    tenth = [k for k, x in enumerate(draws) if x in violating][9]
    assert len(batches) == tenth // BATCH + 1 < 2000 // BATCH
    assert drawn and set(drawn) <= set(draws[:tenth + 1])


@pytest.mark.parametrize("ring", [F5, PadicQuotient(3, 2)], ids=["F5", "Z/9"])
@pytest.mark.parametrize("check,reps", [
    (lambda reps, R: orbital_equivalence_check(*reps, R, samples=500),
     lambda: (alpha_rep(3), alphahat_rep(3))),
    (lambda reps, R: constant_rank_check(*reps, R, 0, samples=500),
     lambda: (load_board("sample_d"),)),
], ids=["orbital-alpha3", "constant-rank-sample_d"])
def test_certifier_eliminations_stop_at_the_rank_bound(check, reps, ring, monkeypatch):
    # every certified point is primitive, so each elimination is passed its
    # rep's rank bound (alpha:3 has r = 5 < min(B, J) = 6)
    reps, bounds = reps(), []

    def spy(m, bound=None):
        bounds.append(bound)
        return divisor_profile(m, bound)

    monkeypatch.setattr(askzeta, "divisor_profile", spy)
    check(reps, ring)
    assert bounds and bounds == [rep.rank_bound for rep in reps] * (len(bounds) // len(reps))
