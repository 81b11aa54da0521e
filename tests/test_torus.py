import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from gridask import torus
from gridask.modrep import ModuleRep, alpha_rep, alphahat_rep
from gridask.rings import ExtField, PadicQuotient

from oracles import (in_integer_span, integer_row_echelon, naive_incidence_kernel,
                     naive_orbit_matrix, pattern_orbits, torus_orbit)
from test_askzeta import tiny_reps

IDENTITY_RINGS = {"Z/8": PadicQuotient(2, 3), "Z/16": PadicQuotient(2, 4),
                  "Z/9": PadicQuotient(3, 2), "Z/25": PadicQuotient(5, 2),
                  "F4": ExtField(2, 2), "F9": ExtField(3, 2)}


def power(ring, u, e):
    out = ring.one
    for _ in range(abs(e)):
        out = ring.mul(out, u)
    return out if e >= 0 else ring.inv(out)


@settings(max_examples=80, deadline=None)
@given(rep=tiny_reps(size=3), ring_name=st.sampled_from(sorted(IDENTITY_RINGS)),
       data=st.data())
@example(rep=ModuleRep(("a", "b"), (), (1, 2), ((), ())), ring_name="Z/16",
         data=None)  # I empty
@example(rep=ModuleRep(("a",), (1, 2), (), (((), ()),)), ring_name="F9", data=None)  # J empty
@example(rep=ModuleRep(("a", "b"), (1, 2), (1, 2), (((0, 0), (0, 0)), ((3, -1), (0, 4)))),
         ring_name="Z/8", data=None)  # a zero generator
def test_torus_element_scales_orbit_matrix(rep, ring_name, data):
    # C(t.x) = diag(t^b) C(x) diag(t^c) exactly, for t = prod_s u_s^(w_s)
    # over the incidence kernel vectors w_s = (a, b, c) and any units u_s
    ring = IDENTITY_RINGS[ring_name]
    units, elems = list(ring.units()), list(ring.elements())
    kernel = torus.incidence_kernel(rep)

    def draw(strategy, fallback):
        return data.draw(strategy) if data is not None else fallback

    us = [units[draw(st.integers(0, len(units) - 1), -1)] for _ in kernel]
    x = tuple(elems[draw(st.integers(0, len(elems) - 1), 1)] for _ in rep.I)
    dI, dB = len(rep.I), rep.rank

    def scale(offset, count):
        out = [ring.one] * count
        for u, w in zip(us, kernel):
            out = [ring.mul(o, power(ring, u, e)) for o, e in zip(out, w[offset:offset + count])]
        return out

    a, b, c = scale(0, dI), scale(dI, dB), scale(dI + dB, len(rep.J))
    tx = tuple(ring.mul(s, xi) for s, xi in zip(a, x))
    before, after = naive_orbit_matrix(rep, ring, x), naive_orbit_matrix(rep, ring, tx)
    for g in range(dB):
        for j in range(len(rep.J)):
            assert after.row(g)[j] == ring.mul(ring.mul(b[g], before.row(g)[j]), c[j])


@st.composite
def joint_reps(draw):
    """Two or three reps on one I, each with its own generators and J."""
    dI, reps = draw(st.integers(0, 3)), []
    for _ in range(draw(st.integers(2, 3))):
        dJ, k = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        gens = tuple(tuple(tuple(draw(st.integers(-2, 2)) for _ in range(dJ))
                           for _ in range(dI)) for _ in range(k))
        reps.append(ModuleRep(tuple(range(k)), tuple(range(1, dI + 1)),
                              tuple(range(1, dJ + 1)), gens))
    return reps


@settings(max_examples=150, deadline=None)
@given(reps=st.one_of(tiny_reps(size=4).map(lambda rep: [rep]), joint_reps()))
@example(reps=[ModuleRep(("a", "b"), (), (1, 2), ((), ()))])  # I empty
@example(reps=[ModuleRep(("a",), (1, 2), (), (((), ()),))])  # J empty
@example(reps=[ModuleRep(("a", "b"), (1, 2), (1, 2),
                         (((0, 0), (0, 0)), ((3, -1), (0, 4))))])  # a zero generator
# two labels on the edge (a, 1): a_1 = a_2 = b_a + c_1
@example(reps=[ModuleRep(("a",), (1, 2), (1,), (((1,), (2,)),))])
# a disconnected graph: the edges a-1 (label 1) and b-2 (label 2) are two
# components, and the second rep's four edges close cycles
@example(reps=[ModuleRep(("a", "b"), (1, 2), (1, 2), (((1, 0), (0, 0)), ((0, 0), (0, 1)))),
               ModuleRep(("c",), (1, 2), (1, 2), (((1, 1), (1, 1)),))])
def test_incidence_kernel_matches_the_full_elimination(reps):
    # the cycle relations of a spanning forest give the lattice that one
    # elimination over every unknown gives: each basis lies in the other's
    # span, every vector solves every equation, and the weights (the
    # a-lattice) are independent and span the oracle's a-parts
    kernel, oracle = torus.incidence_kernel(*reps), naive_incidence_kernel(*reps)
    assert len(kernel) == len(oracle)
    assert all(in_integer_span(oracle, vec) for vec in kernel)
    assert all(in_integer_span(kernel, vec) for vec in oracle)
    b0 = dI = len(reps[0].I)
    for rep in reps:
        c0 = b0 + rep.rank
        for vec in kernel:
            assert all(vec[i] == vec[b0 + g] + vec[c0 + j] for g, gen in enumerate(rep.gens)
                       for i, row in enumerate(gen) for j, e in enumerate(row) if e)
        b0 = c0 + len(rep.J)
    weights = torus.weights(*reps)
    assert len(integer_row_echelon(weights)) == len(weights)
    assert all(in_integer_span(weights, vec[:dI]) for vec in oracle)
    assert all(in_integer_span([vec[:dI] for vec in oracle], w) for w in weights)


ORBIT_RINGS = {"F2": PadicQuotient(2), "F5": PadicQuotient(5),
               "Z/4": PadicQuotient(2, 2), "Z/8": PadicQuotient(2, 3),
               "Z/16": PadicQuotient(2, 4), "Z/9": PadicQuotient(3, 2),
               "F4": ExtField(2, 2)}


@settings(max_examples=60, deadline=None)
@given(rep=tiny_reps(size=3), ring_name=st.sampled_from(sorted(ORBIT_RINGS)))
@example(rep=ModuleRep(("a", "b"), (1, 2, 3), (1, 2),
                       (((1, 0), (0, 1), (0, 0)), ((0, 0), (1, 0), (0, -1)))),
         ring_name="Z/16")
@example(rep=ModuleRep((), (1, 2), (1,), ()), ring_name="Z/8")  # rank 0: weights span Z^I
def test_orbits_and_keys_match_orbit_oracle(rep, ring_name):
    # every point of each breadth-first orbit has the walked point as its
    # representative, and every point with a unit coordinate has a walked
    # representative; Torus.orbits yields one point per orbit with its size,
    # Torus.orbit expands it, and the sizes add up to the point counts
    ring = ORBIT_RINGS[ring_name]
    dim = len(rep.I)
    weights = torus.weights(rep)
    group = torus.Torus(weights, ring)
    points = [x for x in itertools.product(list(ring.elements()), repeat=dim)
              if any(ring.is_unit(c) for c in x)]
    found = list(group.orbits(dim, False))
    assert {group.representative(x) for x in points} == {x for x, _ in found}
    for x, size in found:
        orbit = torus_orbit(ring, weights, x)
        assert orbit == set(group.orbit(x))
        assert all(group.representative(y) == x for y in orbit)
        assert size == len(orbit)
    q, units = ring.cardinality(), len(list(ring.units()))
    assert sum(size for _, size in found) == q**dim - (q - units) ** dim
    assert sum(size for _, size in group.orbits(dim, True)) == units**dim


@settings(max_examples=80, deadline=None)
@given(rep=tiny_reps(size=4), ring_name=st.sampled_from(sorted(ORBIT_RINGS)),
       all_units=st.booleans())
@example(rep=ModuleRep((), (1, 2, 3), (1,), ()), ring_name="Z/8", all_units=False)
@example(rep=ModuleRep(("a",), (1, 2, 3), (1, 2), (((1, 0), (0, 2), (1, 1)),)),
         ring_name="Z/16", all_units=False)
def test_orbit_walk_matches_pattern_oracle(rep, ring_name, all_units):
    # the depth-first walk yields exactly the per-pattern lattices' points
    # and sizes, in the same order
    ring, dim, weights = ORBIT_RINGS[ring_name], len(rep.I), torus.weights(rep)
    assert (list(torus.Torus(weights, ring).orbits(dim, all_units))
            == list(pattern_orbits(weights, ring, dim, all_units)))


@pytest.mark.parametrize("ring", [PadicQuotient(2, 3), PadicQuotient(3, 2), PadicQuotient(5)],
                         ids=["Z/8", "Z/9", "F5"])
@pytest.mark.parametrize("all_units", [False, True])
def test_orbit_walk_of_the_joint_torus_matches_pattern_oracle(ring, all_units):
    weights = torus.weights(alpha_rep(3), alphahat_rep(3))
    assert (list(torus.Torus(weights, ring).orbits(6, all_units))
            == list(pattern_orbits(weights, ring, 6, all_units)))


def test_orbit_walk_in_dimension_zero():
    # the one point () is all units and has no unit coordinate
    group = torus.Torus((), PadicQuotient(3))
    assert list(group.orbits(0, True)) == list(pattern_orbits((), group.ring, 0, True)) == [((), 1)]
    assert list(group.orbits(0, False)) == list(pattern_orbits((), group.ring, 0, False)) == []
    assert (group.orbit_count(0, True), group.orbit_count(0, False)) == (1, 0)


COUNT_RINGS = {"F5": PadicQuotient(5), "Z/8": PadicQuotient(2, 3),
               "Z/9": PadicQuotient(3, 2), "Z/27": PadicQuotient(3, 3)}


@settings(max_examples=60, deadline=None)
@given(rep=tiny_reps(size=4), ring_name=st.sampled_from(sorted(COUNT_RINGS)),
       all_units=st.booleans(), stop=st.integers(0, 50))
@example(rep=ModuleRep(("a",), (1, 2, 3, 4), (1, 2), (((1, 1),) * 4,)), ring_name="Z/27",
         all_units=False, stop=50)  # unit scaling alone: 29,160 orbits
@example(rep=ModuleRep((), (1, 2, 3, 4), (1,), ()), ring_name="Z/8", all_units=True,
         stop=0)  # rank 0: one all-unit orbit
def test_orbit_count_counts_the_walk(rep, ring_name, all_units, stop):
    # orbit_count reads the number of orbits off the walk's leaves without
    # building a point; with stop it ends past stop, or counts them all; and
    # the orbit sizes add up to the point count
    ring, dim = COUNT_RINGS[ring_name], len(rep.I)
    group = torus.Torus(torus.weights(rep), ring)
    found = list(group.orbits(dim, all_units))
    assert group.orbit_count(dim, all_units) == len(found)
    stopped = group.orbit_count(dim, all_units, stop)
    if len(found) <= stop:
        assert stopped == len(found)
    else:
        assert stop < stopped <= len(found)
    q, units = ring.cardinality(), len(list(ring.units()))
    assert sum(size for _, size in found) == (
        units**dim if all_units else q**dim - (q - units) ** dim)


def test_joint_torus_orbits_of_alpha_pair():
    # the joint lattice of alpha:3 and alphahat:3 has rank 4 and unimodular
    # divisors on the all-unit points, so they fall into phi^6 / phi^4 orbits
    weights = torus.weights(alpha_rep(3), alphahat_rep(3))
    for p, n, phi in ((5, 1, 4), (3, 2, 6), (2, 3, 4)):
        found = list(torus.Torus(weights, PadicQuotient(p, n)).orbits(6, True))
        assert len(found) == phi**2 and {size for _, size in found} == {phi**4}


@pytest.mark.parametrize("ring,groups", [(PadicQuotient(2, 3), 16),
                                         (PadicQuotient(3, 2), 36)],
                         ids=["Z/8", "Z/9"])
def test_keys_group_the_joint_torus(ring, groups):
    # every point of the breadth-first orbit of each walked all-unit point
    # of the joint torus of alpha:3 and alphahat:3 has it as representative,
    # and the orbits cover the all-unit points
    weights = torus.weights(alpha_rep(3), alphahat_rep(3))
    group = torus.Torus(weights, ring)
    found = list(group.orbits(6, True))
    assert len(found) == groups
    for x, size in found:
        orbit = torus_orbit(ring, weights, x)
        assert len(orbit) == size
        assert all(group.representative(y) == x for y in orbit)
    assert sum(size for _, size in found) == len(list(ring.units())) ** 6


REPRESENTATIVE_RINGS = {"Z/8": PadicQuotient(2, 3), "Z/9": PadicQuotient(3, 2),
                        "Z/27": PadicQuotient(3, 3), "F4": ExtField(2, 2)}


@settings(max_examples=60, deadline=None)
@given(rep=tiny_reps(size=3), ring_name=st.sampled_from(sorted(REPRESENTATIVE_RINGS)),
       data=st.data())
@example(rep=ModuleRep(("a",), (1, 2, 3), (1, 2), (((1, 0), (0, 2), (1, 1)),)),
         ring_name="Z/27", data=None)
@example(rep=ModuleRep(("a",), (), (1,), ((),)), ring_name="Z/9", data=None)  # ring^0
def test_batched_keys_match_orbit_oracle(rep, ring_name, data):
    # points of mixed valuations, zeros and non-units among units, have
    # equal representatives exactly where the breadth-first orbits agree,
    # and each point's representative lies in its orbit
    ring = REPRESENTATIVE_RINGS[ring_name]
    elems, dim = list(ring.elements()), len(rep.I)
    if data is None:
        points = ([(1, 3, 9), (0, 6, 18), (2, 3, 0), (1, 3, 9), (4, 12, 9), (8, 24, 0)]
                  if dim else [(), ()])
    else:
        points = data.draw(st.lists(st.tuples(*[st.sampled_from(elems)] * dim), max_size=12))
    weights = torus.weights(rep)
    group = torus.Torus(weights, ring)
    orbits = {x: torus_orbit(ring, weights, x) for x in points}
    representatives = {x: group.representative(x) for x in points}
    for x in points:
        assert representatives[x] in orbits[x]
        for y in points:
            assert (representatives[x] == representatives[y]) == (y in orbits[x])
