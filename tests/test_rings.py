import itertools

import pytest
from hypothesis import given, strategies as st

from gridask.rings import (CompositeModulus, ExtField, NotAField, PadicQuotient,
                           ReducibleModulus, Ring, count_roots, is_prime, make_ring,
                           smallest_irreducible)


def test_prime_field_basics():
    F = make_ring("field", 17)
    assert F.cardinality() == 17
    assert F.residue_cardinality() == 17
    assert F.inv(F.from_int(5)) == pow(5, 15, 17)
    assert F.is_unit(3) and not F.is_unit(0)
    assert F == PadicQuotient(17, 1)  # F_p is Z/p^1


def test_composite_modulus_rejected():
    with pytest.raises(CompositeModulus):
        make_ring("field", 4)
    with pytest.raises(CompositeModulus):
        make_ring("padic", 6, 2)


def test_padic_quotient_valuation():
    R = make_ring("padic", 5, 2)
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
    F4 = make_ring("ext", 2, 2)
    assert F4.cardinality() == 4


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        make_ring("ext", 2, 2, modulus=(0, 0, 1))  # X^2 = X*X
    with pytest.raises(ReducibleModulus):
        make_ring("ext", 3, 2, modulus=(2, 0, 1))  # X^2 - 1


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_ext_field_axioms_exhaustive(p, f):
    F = make_ring("ext", p, f)
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


def test_count_roots_quartic():
    # x^4 = -1 solvable iff the multiplicative group has an element of order 8
    assert count_roots((1, 0, 0, 0, 1), make_ring("field", 17)) == 4
    assert count_roots((1, 0, 0, 0, 1), make_ring("field", 3)) == 0


def test_count_roots_cube_roots_of_unity():
    assert count_roots((1, 1, 1), make_ring("field", 7)) == 2
    assert count_roots((1, 1, 1), make_ring("field", 5)) == 0


def test_count_roots_requires_field():
    with pytest.raises(NotAField):
        count_roots((1, 1), make_ring("padic", 5, 2))


def test_count_roots_extension_field():
    # X^2+X+1 splits in F_4 (its own splitting field)
    assert count_roots((1, 1, 1), make_ring("ext", 2, 2)) == 2


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
    assert R.neg(R.from_int(a)) == (-a) % m
    x = R.from_int(a)
    v = n if x == 0 else max(e for e in range(n) if x % p**e == 0)
    assert R.valuation(x) == v
    for e in range(v + 1):
        assert R.exact_div(x, e) == x // p**e
        assert R.mul(R.exact_div(x, e), R.from_int(p**e)) == x


@st.composite
def row_cases(draw):
    p, n = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 3), (3, 2), (2, 4)]))
    width = draw(st.integers(0, 5))
    elements = st.lists(st.integers(0, p**n - 1), min_size=width, max_size=width)
    columns = draw(st.lists(st.lists(st.integers(-9, 9), min_size=width, max_size=width),
                            max_size=4))
    return PadicQuotient(p, n), draw(elements), columns, draw(elements), draw(elements)


@given(case=row_cases())
def test_padic_row_primitives_match_generic_ring(case):
    # the one-call overrides of PadicQuotient against the Ring defaults,
    # which are built from add, sub, mul and from_int
    R, x, columns, ys, zs = case
    assert R.linear_forms(x, columns) == Ring.linear_forms(R, x, columns)
    f = x[0] if x else R.one
    assert R.sub_multiple(ys, f, zs) == Ring.sub_multiple(R, ys, f, zs)


def test_ext_field_frobenius_fixed_field():
    # a |-> a^p fixes exactly the prime subfield
    F = ExtField(3, 2, smallest_irreducible(3, 2))
    fixed = [a for a in F.elements()
             if F.mul(F.mul(a, a), a) == a]
    assert len(fixed) == 3
