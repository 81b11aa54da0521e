import itertools

import pytest
from hypothesis import example, given, strategies as st

from gridask.rings import (CompositeModulus, ExtField, PadicQuotient, Ring, RingError,
                           _is_irreducible, is_prime, smallest_irreducible)

from oracles import count_roots, trial_division_irreducible


def test_prime_field_basics():
    F = PadicQuotient(17)
    assert F.cardinality() == 17
    assert F.residue_cardinality() == 17
    assert F.inv(F.from_int(5)) == pow(5, 15, 17)
    assert F.is_unit(3) and not F.is_unit(0)
    assert F == PadicQuotient(17, 1)  # F_p is Z/p^1


def test_composite_modulus_rejected():
    with pytest.raises(CompositeModulus):
        PadicQuotient(4)
    with pytest.raises(CompositeModulus):
        PadicQuotient(6, 2)
    with pytest.raises(CompositeModulus):
        ExtField(4, 2)


def test_exponent_and_degree_below_one_rejected():
    for make in (lambda: PadicQuotient(3, 0), lambda: ExtField(3, 0)):
        with pytest.raises(RingError) as info:
            make()
        assert type(info.value) is RingError


def test_rings_are_equal_by_class_and_fields():
    assert PadicQuotient(3, 2) == PadicQuotient(3, 2)
    assert hash(PadicQuotient(3, 2)) == hash(PadicQuotient(3, 2))
    assert PadicQuotient(3, 2) != PadicQuotient(3, 1)
    assert ExtField(3, 2) == ExtField(3, 2)
    assert hash(ExtField(3, 2)) == hash(ExtField(3, 2))
    assert ExtField(3, 2) != ExtField(3, 1)
    assert ExtField(3, 1) != PadicQuotient(3)  # one field, two classes
    assert len({PadicQuotient(5), PadicQuotient(5, 1), ExtField(5)}) == 2
    # test ids (ids=str in test_linalg) are these reprs
    assert repr(PadicQuotient(3, 2)) == "PadicQuotient(p=3, n=2)"
    assert str(ExtField(2, 2)) == "ExtField(p=2, f=2)"


def test_padic_quotient_valuation():
    R = PadicQuotient(5, 2)
    assert R.cardinality() == 25
    assert R.valuation(R.from_int(5)) == 1
    assert R.valuation(R.from_int(0)) == 2
    assert R.valuation(R.from_int(7)) == 0
    assert not R.is_unit(R.from_int(10))


def test_f4_modulus_is_unique_irreducible_quadratic():
    # brute check: X^2+X+1 is the only monic irreducible quadratic over F_2
    irreducible = []
    for b, c in itertools.product(range(2), repeat=2):
        roots = [x for x in range(2) if (x * x + b * x + c) % 2 == 0]
        if not roots:
            irreducible.append((c, b, 1))
    assert irreducible == [(1, 1, 1)]
    assert smallest_irreducible(2, 2) == (1, 1, 1)
    F4 = ExtField(2, 2)
    assert F4.cardinality() == 4


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_ext_field_axioms_exhaustive(p, f):
    F = ExtField(p, f)
    elems = list(F.elements())
    assert len(elems) == p**f
    units = list(F.units())
    assert len(units) == p**f - 1
    one = F.one
    for a in units:
        assert F.mul(a, F.inv(a)) == one
    # associativity and distributivity on a small slice
    for a, b, c in itertools.islice(itertools.product(elems, repeat=3), 200):
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_irreducibility_matches_trial_division():
    # Ben-Or's gcd test against trial division on every monic polynomial of
    # degree <= 5 over F_2 and F_3 and of degree <= 4 over F_5
    checked = 0
    for p, top in ((2, 5), (3, 5), (5, 4)):
        for deg in range(top + 1):
            for low in itertools.product(range(p), repeat=deg):
                m = list(low) + [1]
                assert _is_irreducible(m, p) == trial_division_irreducible(m, p), (p, m)
                checked += 1
    assert checked == 1208


# The root-counting oracle that criteria 7 and 8 read N from.

def test_count_roots_quartic():
    # x^4 = -1 solvable iff the multiplicative group has an element of order 8
    assert count_roots((1, 0, 0, 0, 1), PadicQuotient(17)) == 4
    assert count_roots((1, 0, 0, 0, 1), PadicQuotient(3)) == 0


def test_count_roots_cube_roots_of_unity():
    assert count_roots((1, 1, 1), PadicQuotient(7)) == 2
    assert count_roots((1, 1, 1), PadicQuotient(5)) == 0


def test_count_roots_extension_field():
    # X^2+X+1 splits in F_4 (its own splitting field)
    assert count_roots((1, 1, 1), ExtField(2, 2)) == 2


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(0, 10**6))
def test_is_prime_agrees_with_divisibility(p, k):
    n = k
    naive = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
    assert is_prime(n) == naive
    assert is_prime(p)


@given(st.sampled_from([(3, 1), (5, 1), (3, 2), (2, 3)]),
       st.integers(-50, 50), st.integers(-50, 50))
def test_ring_ops_match_integer_arithmetic(spec, a, b):
    p, n = spec
    R = PadicQuotient(p, n)
    m = p**n
    assert R.add(R.from_int(a), R.from_int(b)) == (a + b) % m
    assert R.mul(R.from_int(a), R.from_int(b)) == (a * b) % m
    assert R.sub(R.from_int(a), R.from_int(b)) == (a - b) % m
    assert R.sub(R.zero, R.from_int(a)) == (-a) % m
    x = R.from_int(a)
    v = n if x == 0 else max(e for e in range(n) if x % p**e == 0)
    assert R.valuation(x) == v
    for e in range(v + 1):
        assert R.exact_div(x, e) == x // p**e
        assert R.mul(R.exact_div(x, e), R.from_int(p**e)) == x


@st.composite
def row_cases(draw):
    """A ring, a point x, up to two layers of terms (indices into x,
    integer coefficients) over up to four live entries, and two rows."""
    p, n = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 3), (3, 2), (2, 4)]))
    width = draw(st.integers(0, 5))
    elements = st.lists(st.integers(0, p**n - 1), min_size=width, max_size=width)
    live, depth = draw(st.integers(0, 4)), draw(st.integers(0, 2)) if width else 0
    layers = [(tuple(draw(st.integers(0, width - 1)) for _ in range(live)),
               tuple(draw(st.integers(-9, 9)) for _ in range(live))) for _ in range(depth)]
    return PadicQuotient(p, n), draw(elements), layers, draw(elements), draw(elements)


@given(case=row_cases())
@example(case=(PadicQuotient(3, 2), [4, 5], [], [1, 2], [7, 8]))  # no layers
@example(case=(PadicQuotient(2, 3), [3, 7, 5], [((0, 2), (5, -3)), ((1, 0), (4, 0))],
               [1, 2, 3], [4, 5, 6]))  # depth 2, the second entry filled by (0, 0)
def test_padic_row_primitives_match_generic_ring(case):
    # the one-call overrides of PadicQuotient against the Ring defaults,
    # which are built from add, sub, mul and from_int
    R, x, layers, ys, zs = case
    values = R.linear_forms(x, layers)
    assert values == Ring.linear_forms(R, x, layers)
    assert values == [sum(x[i] * c for i, c in terms) % R.cardinality()
                      for terms in zip(*(zip(*layer) for layer in layers))]
    f = x[0] if x else R.one
    assert R.sub_multiple(ys, f, zs) == Ring.sub_multiple(R, ys, f, zs)


# (p, f) -> (smallest_irreducible(p, f), ExtField(p, f).unit_generators())
EXT_FIELDS = {
    (2, 1): ((0, 1), ((1,),)), (2, 2): ((1, 1, 1), ((0, 1),)),
    (2, 3): ((1, 1, 0, 1), ((0, 1, 0),)), (2, 4): ((1, 1, 0, 0, 1), ((0, 1, 0, 0),)),
    (3, 1): ((0, 1), ((2,),)), (3, 2): ((1, 0, 1), ((1, 1),)),
    (3, 3): ((1, 2, 0, 1), ((0, 1, 0),)), (3, 4): ((2, 1, 0, 0, 1), ((0, 1, 0, 0),)),
    (5, 1): ((0, 1), ((2,),)), (5, 2): ((2, 0, 1), ((1, 1),)),
    (5, 3): ((1, 1, 0, 1), ((4, 1, 0),)), (5, 4): ((2, 0, 0, 0, 1), ((1, 1, 0, 0),)),
    (7, 1): ((0, 1), ((3,),)), (7, 2): ((1, 0, 1), ((2, 1),)),
    (7, 3): ((2, 0, 0, 1), ((1, 3, 0),)), (7, 4): ((1, 1, 0, 0, 1), ((5, 1, 0, 0),)),
}


@pytest.mark.parametrize("pf", EXT_FIELDS, ids=[f"F{p}^{f}" for p, f in EXT_FIELDS])
def test_ext_field_orders_match_the_coefficient_counter(pf):
    # elements() and the modulus search both run over the counter
    # c_0 + c_1 p + .. + c_{f-1} p^{f-1}; the modulus is the first monic
    # irreducible in that order, and the unit generator the first unit of
    # order q - 1 in elements() order
    p, f = pf
    modulus, generators = EXT_FIELDS[pf]
    counter = [tuple(k // p**i % p for i in range(f)) for k in range(p**f)]
    F = ExtField(p, f)
    assert list(F.elements()) == counter
    assert smallest_irreducible(p, f) == F.modulus == modulus
    assert next(c for c in counter if trial_division_irreducible([*c, 1], p)) == modulus[:-1]
    assert F.unit_generators() == generators

    def order(a):
        k, power = 1, a
        while power != F.one:
            k, power = k + 1, F.mul(power, a)
        return k

    assert next(a for a in counter[1:] if order(a) == p**f - 1) == generators[0]


def test_ext_field_frobenius_fixed_field():
    # a |-> a^p fixes exactly the prime subfield
    F = ExtField(3, 2)
    fixed = [a for a in F.elements()
             if F.mul(F.mul(a, a), a) == a]
    assert len(fixed) == 3


UNIT_RINGS = {"F2": PadicQuotient(2), "F3": PadicQuotient(3), "F4": ExtField(2, 2),
              "F8": ExtField(2, 3), "F9": ExtField(3, 2), "Z/4": PadicQuotient(2, 2),
              "Z/8": PadicQuotient(2, 3), "Z/16": PadicQuotient(2, 4),
              "Z/9": PadicQuotient(3, 2), "Z/27": PadicQuotient(3, 3),
              "Z/25": PadicQuotient(5, 2), "Z/49": PadicQuotient(7, 2)}


@pytest.mark.parametrize("ring", UNIT_RINGS.values(), ids=UNIT_RINGS)
def test_unit_generators_give_each_unit_of_each_level_once(ring):
    # the oracle is ring.units() at the top level, and the units of Z/p^m
    # at each level m below it
    gens, n = ring.unit_generators(), ring.cap

    def product(logs):
        u = ring.one
        for g, l in zip(gens, logs):
            assert ring.pow(g, l) == Ring.pow(ring, g, l)
            u = ring.mul(u, ring.pow(g, l))
        return u

    top = {logs: product(logs) for logs in itertools.product(*map(range, ring.unit_orders(n)))}
    assert sorted(top.values()) == sorted(ring.units())
    for m in range(1, n):
        orders, modulus = ring.unit_orders(m), ring.p**m
        level = {logs: product(logs) % modulus
                 for logs in itertools.product(*map(range, orders))}
        assert sorted(level.values()) == sorted(PadicQuotient(ring.p, m).units())
        # a unit's logs at the top level, reduced mod the orders of level m,
        # are the logs of its residue there
        assert all(level[tuple(l % o for l, o in zip(logs, orders))] == u % modulus
                   for logs, u in top.items())


def test_unit_generators_come_from_a_factorisation():
    # the unit group of F_3037000507 has 3 * 10^9 elements; the search
    # reads the primes 2, 3 and 506166751 of its order and stops at 2
    assert PadicQuotient(3037000507).unit_generators() == (2,)
