"""Exact arithmetic in finite coefficient rings: Z/p^n and F_{p^f}.

The prime field F_p is Z/p^1, so PadicQuotient(p, 1) serves for it.
Elements are plain Python values: ints in [0, p^n) for Z/p^n, coefficient
tuples of length f for extension fields.  Each ring owns its levels
R / p^k R, k <= cap (Ring.level), and its unit group: generators whose
powers give the units of every level, and their orders, which the torus
(gridask.torus) walks.  All arithmetic is exact; nothing here ever
touches floating point.
"""
from __future__ import annotations

from functools import partial, reduce
from itertools import product, repeat
from operator import add, mod, mul
from typing import Iterator, Sequence


class RingError(Exception):
    """Base class for ring construction/usage errors."""


class CompositeModulus(RingError):
    """Raised when the requested characteristic is not prime."""


def _prime_factors(n: int) -> set[int]:
    """The primes dividing n >= 1, by trial division."""
    primes, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            primes.add(d)
            n //= d
        d += 1
    return primes | {n} if n > 1 else primes


def is_prime(p: int) -> bool:
    """Trial-division primality test (desk scale, p < 2^20)."""
    return p >= 2 and _prime_factors(p) == {p}


# ---------------------------------------------------------------------------
# Polynomial helpers over F_p (dense lists, low degree first).
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m, over F_p."""
    a = [c % p for c in a]
    _poly_trim(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        c = a[-1]
        shift = len(a) - 1 - dm
        for i, mc in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mc) % p
        _poly_trim(a)
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        monic = [(c * inv) % p for c in b]
        a, b = b, _poly_mod(a, monic, p)
    return a


def _poly_powmod_x(exp: int, m: list[int], p: int) -> list[int]:
    """X^exp modulo the monic polynomial m, by square and multiply."""
    result = [1]
    base = _poly_mod([0, 1], m, p)
    while exp:
        if exp & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        exp >>= 1
    return result


def _is_irreducible(m: list[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p (Ben-Or's test):
    gcd(X^{p^k} - X, m) = 1 for every k <= deg/2, since a reducible m has
    a monic irreducible factor of some degree k <= deg/2, and X^{p^k} - X
    is the product of the monic irreducibles of degree dividing k."""
    deg = len(m) - 1
    if deg < 1:
        return False
    for k in range(1, deg // 2 + 1):
        diff = _poly_powmod_x(p**k, m, p) + [0, 0]
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(list(m), _poly_trim(diff), p)) > 1:
            return False
    return True


def _coefficients(p: int, f: int) -> Iterator[tuple[int, ...]]:
    """Every (c_0, ..., c_{f-1}) over F_p, in the order of the counter
    c_0 + c_1 p + ... + c_{f-1} p^{f-1}."""
    return (c[::-1] for c in product(range(p), repeat=f))


def smallest_irreducible(p: int, f: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree f over F_p.

    Candidates are ordered by their coefficient counter
    c_0 + c_1 p + ... + c_{f-1} p^{f-1}.  Returns the full coefficient
    tuple (c_0, ..., c_{f-1}, 1), low degree first.
    """
    for coeffs in _coefficients(p, f):
        m = [*coeffs, 1]
        if _is_irreducible(m, p):
            return tuple(m)
    raise RingError(f"no irreducible of degree {f} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# Ring classes.
# ---------------------------------------------------------------------------

class Ring:
    """Common interface; see subclasses for element representations.

    A ring is its class and the values of its constructor arguments,
    _fields: they decide equality and the hash, and the repr shows them."""

    __slots__ = ("p",)
    _fields = ("p",)

    def __init__(self, p: int) -> None:
        self.p = p

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({args})"

    # cap = largest observable valuation (1 for fields, n for Z/p^n)
    @property
    def cap(self) -> int:
        return 1

    def cardinality(self) -> int:
        raise NotImplementedError

    def level(self, k: int) -> "Ring":
        """R / p^k R for 1 <= k <= cap: a field is its own only level."""
        return self

    def residue_cardinality(self) -> int:
        """q, the cardinality of the residue field (p^f for F_{p^f})."""
        return self.p

    def exact_div(self, a, v: int):
        """a / p^v for an element a of valuation >= v (over a field v is 0)."""
        return a

    def linear_forms(self, x: Sequence, layers: Sequence[tuple[Sequence[int], ...]]) -> list:
        """The values of the live entries of an orbit matrix at x (see
        modrep.ModuleRep._orbit_terms): entry e is the sum over the layers
        (indices, coeffs) of mul(x[indices[e]], from_int(coeffs[e]))."""
        terms = [map(self.mul, map(x.__getitem__, i), map(self.from_int, c)) for i, c in layers]
        return list(reduce(partial(map, self.add), terms)) if terms else []

    def sub_multiple(self, ys: Sequence, f, zs: Sequence) -> list:
        """[y - f z for y, z in zip(ys, zs)]: one row operation."""
        return [self.sub(y, self.mul(f, z)) for y, z in zip(ys, zs)]

    def pow(self, a, e: int):
        """a^e for e >= 0, by square and multiply."""
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def unit_orders(self, m: int) -> tuple[int, ...]:
        """The order of each of unit_generators() in the units of the level
        R / p^m R, m <= cap: (q - 1) q^(m - 1) for the one generator of a
        cyclic unit group, q the residue cardinality."""
        q = self.residue_cardinality()
        return ((q - 1) * q ** (m - 1),)

    def unit_generators(self) -> tuple:
        """Units g_s such that every unit of every level m is prod g_s^(l_s)
        for exactly one l with 0 <= l_s < unit_orders(m)[s].  Here the least
        unit g of full order N: g^(N / r) != 1 for each prime r dividing N,
        the primes of q - 1 and p when p divides N.  A generator of the top
        level reduces to one of every level below."""
        order, = self.unit_orders(self.cap)
        primes = _prime_factors(self.residue_cardinality() - 1)
        if order % self.p == 0:
            primes.add(self.p)
        return (next(g for g in self.units()
                     if all(self.pow(g, order // r) != self.one for r in primes)),)


class PadicQuotient(Ring):
    """Z/p^n, and the prime field F_p as n = 1; elements are ints in [0, p^n)."""

    __slots__ = ("n", "_m")
    _fields = ("p", "n")

    def __init__(self, p: int, n: int = 1) -> None:
        if not is_prime(p):
            raise CompositeModulus(f"{p} is not prime")
        if n < 1:
            raise RingError("exponent must be >= 1")
        self.p, self.n, self._m = p, n, p**n

    @property
    def cap(self) -> int:
        return self.n

    def cardinality(self) -> int:
        return self._m

    def level(self, k: int) -> "PadicQuotient":
        return self if k == self.n else PadicQuotient(self.p, k)

    zero = 0
    one = 1

    def from_int(self, k: int) -> int:
        return k % self._m

    def add(self, a: int, b: int) -> int:
        return (a + b) % self._m

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self._m

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self._m

    def is_zero(self, a: int) -> bool:
        return a % self._m == 0

    def is_unit(self, a: int) -> bool:
        return a % self.p != 0

    def inv(self, a: int) -> int:
        if not self.is_unit(a):
            raise RingError(f"{a} is not a unit in Z/{self._m}")
        return pow(a, -1, self._m)

    def valuation(self, a: int) -> int:
        a %= self._m
        if a == 0:
            return self.n
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def exact_div(self, a: int, v: int) -> int:
        return a // self.p**v

    def linear_forms(self, x: Sequence[int], layers) -> list[int]:
        terms = [map(mul, map(x.__getitem__, i), c) for i, c in layers]
        return list(map(mod, reduce(partial(map, add), terms), repeat(self._m))) if terms else []

    def sub_multiple(self, ys: Sequence[int], f: int, zs: Sequence[int]) -> list[int]:
        m = self._m
        return [(y - f * z) % m for y, z in zip(ys, zs)]

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self._m)

    def unit_orders(self, m: int) -> tuple[int, ...]:
        # (Z/2^m)^x = {+-1} x <5> is not cyclic for m >= 3
        if self.p == 2:
            return (2, 2 ** (m - 2)) if m >= 2 else (1, 1)
        return super().unit_orders(m)

    def unit_generators(self) -> tuple[int, ...]:
        if self.p == 2:
            return self.from_int(-1), self.from_int(5)
        return super().unit_generators()

    def elements(self) -> Iterator[int]:
        return iter(range(self._m))

    def units(self) -> Iterator[int]:
        return (a for a in range(self._m) if a % self.p)


class ExtField(Ring):
    """F_{p^f}; elements are coefficient tuples of length f (low degree first),
    multiplied modulo smallest_irreducible(p, f)."""

    __slots__ = ("f", "modulus")
    _fields = ("p", "f")

    def __init__(self, p: int, f: int = 1) -> None:
        if not is_prime(p):
            raise CompositeModulus(f"{p} is not prime")
        if f < 1:
            raise RingError("extension degree must be >= 1")
        self.p, self.f, self.modulus = p, f, smallest_irreducible(p, f)

    def cardinality(self) -> int:
        return self.p**self.f

    def residue_cardinality(self) -> int:
        return self.p**self.f

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.f

    @property
    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.f - 1)

    def from_int(self, k: int) -> tuple[int, ...]:
        return (k % self.p,) + (0,) * (self.f - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        prod = _poly_mul(a, b, self.p)
        red = _poly_mod(prod, list(self.modulus), self.p)
        red += [0] * (self.f - len(red))
        return tuple(red)

    def is_zero(self, a) -> bool:
        return all(c % self.p == 0 for c in a)

    def is_unit(self, a) -> bool:
        return not self.is_zero(a)

    def inv(self, a):
        if self.is_zero(a):
            raise RingError("zero is not invertible")
        return self.pow(a, self.cardinality() - 2)  # a^(q-2) = a^{-1} in F_q

    def valuation(self, a) -> int:
        return 0 if not self.is_zero(a) else 1

    def elements(self) -> Iterator[tuple[int, ...]]:
        return _coefficients(self.p, self.f)

    def units(self) -> Iterator[tuple[int, ...]]:
        return (a for a in self.elements() if not self.is_zero(a))
