"""Graded anticommutative algebras, the free nilpotent Lie algebras of any
class on their Lyndon bases, and conjugacy-class counting through average
kernel sizes (the truncated Baker-Campbell-Hausdorff group law is a test
oracle).  Algebras are stored as integer structure constants.

Class numbers over R = Z/p^n come from two identities (the orbit method
and the Lazard correspondence; O'Brien-Voll, Rossmann):

- BCH group of a Lie algebra L:  k(G) = ask(adjoint module of L), since
  the kernel of x |-> [x, y] is the centraliser of y.  A central basis
  element e_b gives a zero generator and a zero row; dropping z of them
  leaves ask unchanged by the generator and divides it by |R| per row, so
  k(G) = |R|^z * ask(adjoint module restricted to the non-central basis).
- Baer group of an alternating module M with l forms:  k(G) = |R|^l * ask(M).

Both asks are taken with askzeta.ask_orbit.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping

from . import askzeta
from .modrep import ModuleRep, _freeze, _zero
from .rings import PadicQuotient, Ring


class BadCharacteristic(Exception):
    pass


class NotAlternating(Exception):
    pass


SparseVec = tuple[tuple[int, int], ...]  # ((basis index, coefficient), ...)


class GradedAlgebra:
    """Anticommutative graded algebra with integer structure constants;
    structure[(a, b)] is the sparse product e_a e_b (a copy of the mapping
    given), of degree degrees[a] + degrees[b]."""

    __slots__ = ("labels", "degrees", "structure")

    def __init__(self, labels: tuple, degrees: tuple[int, ...],
                 structure: Mapping[tuple[int, int], SparseVec]) -> None:
        self.labels, self.degrees, self.structure = labels, degrees, dict(structure)
        n = len(labels)
        for a in range(n):
            for b in range(n):
                prod = self.structure.get((a, b), ())
                anti = {i: -c for i, c in self.structure.get((b, a), ())}
                if {i: c for i, c in prod} != anti:
                    raise ValueError(f"structure not anticommutative at {(a, b)}")
                for i, c in prod:
                    if degrees[i] != degrees[a] + degrees[b]:
                        raise ValueError(f"product {(a, b)} breaks the grading")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def product_basis(self, a: int, b: int) -> SparseVec:
        return self.structure.get((a, b), ())


def lyndon_words(d: int, max_len: int):
    """The Lyndon words of length <= max_len over the letters 1 < .. < d,
    in lexicographic order (Duval's algorithm)."""
    w = [0] if d > 0 and max_len > 0 else []
    while w:
        w[-1] += 1
        yield tuple(w)
        w = (w * max_len)[:max_len]  # w repeated up to length max_len
        while w and w[-1] == d:
            w.pop()


def _bracket(f: dict, g: dict) -> dict:
    """fg - gf of polynomials {word: coefficient} of the free associative algebra."""
    out: dict = {}
    for u, a in f.items():
        for v, b in g.items():
            out[u + v] = out.get(u + v, 0) + a * b
            out[v + u] = out.get(v + u, 0) - a * b
    return {w: c for w, c in out.items() if c}


def free_nilpotent_lie(d: int, nil_class: int = 3) -> GradedAlgebra:
    """Free nilpotent Lie algebra of class nil_class on d generators, on the
    Lyndon basis (Reutenauer, Free Lie Algebras, §5) ordered by length, then
    lexicographically.  The word w stands for P_w: w itself on one letter,
    else [P_u, P_v] for w = uv with v the longest proper Lyndon suffix of w.
    P_w is w plus greater words, so a Lie polynomial f is k P_m + (f - k P_m),
    k f's coefficient at its least word m: every structure constant is an integer."""
    # one letter has one Lyndon word: the algebra is abelian whatever the class
    words = sorted(lyndon_words(d, nil_class if d > 1 else 1), key=len)
    pos = {w: t for t, w in enumerate(words)}
    poly: dict = {}
    for w in words:
        v = next((w[i:] for i in range(1, len(w)) if w[i:] in pos), None)
        poly[w] = {w: 1} if v is None else _bracket(poly[w[:-len(v)]], poly[v])
    structure: dict[tuple[int, int], SparseVec] = {}
    for a, u in enumerate(words):
        for b in range(a + 1, len(words)):
            if len(u) + len(words[b]) > nil_class:
                break
            f, vec = _bracket(poly[u], poly[words[b]]), []
            while f:
                m = min(f)
                k = f[m]
                vec.append((pos[m], k))
                for x, c in poly[m].items():
                    f[x] = f.get(x, 0) - k * c
                    if not f[x]:
                        del f[x]
            structure[(a, b)] = tuple(vec)  # nonzero: distinct basis elements
            structure[(b, a)] = tuple((i, -c) for i, c in vec)
    return GradedAlgebra(tuple(words), tuple(map(len, words)), structure)


# ---------------------------------------------------------------------------
# BCH groups.
# ---------------------------------------------------------------------------

def _check_characteristic(nil_class: int, ring: Ring) -> None:
    """The Lazard correspondence needs p > the nilpotency class."""
    if ring.p <= nil_class:
        raise BadCharacteristic(f"class {nil_class} needs p > {nil_class}")


def check_free_group(d: int, nil_class: int, ring: Ring, budget: int) -> None:
    """Refuse the free class-c group on d generators over ring before
    building its algebra: for d >= 2 it has class c, and one non-central
    basis element, so one census coordinate, per Lyndon word shorter than c."""
    if d > 1:  # one generator spans an abelian algebra whatever the class
        _check_characteristic(nil_class, ring)
        cap = budget.bit_length() + 1  # |R| >= 2: this many coordinates exceed it
        words = lyndon_words(d, min(nil_class - 1, cap))
        least = ring.cardinality() ** sum(1 for _ in itertools.islice(words, cap))
        if least > budget:
            raise askzeta.BudgetExceeded(f"at least {least} census points exceed budget {budget}")


def _class_count(scale: int, ask: Fraction) -> int:
    """scale * ask, which is a class number and so must be an integer."""
    count = scale * ask
    if count.denominator != 1:
        raise ValueError(f"class count {count} is not an integer")
    return count.numerator


def conjugacy_count_bch(alg: GradedAlgebra, p: int, n: int = 1,
                        budget: int = askzeta.DEFAULT_BUDGET) -> int:
    """Conjugacy classes of the BCH group on R^dim, R = Z/p^n (for n = 1
    this is F_p, which is PadicQuotient(p, 1)).

    k(G) = ask(adjoint module) = |R|^z * ask(restricted), where z basis
    elements e_b are central and the restricted module drops, for each of
    them, generator b (x e_b = 0) and row b (e_b x = 0); generator b of the
    restricted module is the matrix of x |-> x e_b.  The budget bounds the
    |R|^I census points of the restricted module.
    """
    ring = PadicQuotient(p, n)
    _check_characteristic(max(alg.degrees, default=1), ring)
    keep = sorted({b for (_, b), vec in alg.structure.items() if vec})  # non-central
    gens = []
    for b in keep:
        g = _zero(len(keep), alg.dim)
        for row, a in enumerate(keep):
            for j, c in alg.product_basis(a, b):
                g[row][j] = c
        gens.append(_freeze(g))
    restricted = ModuleRep(tuple(alg.labels[b] for b in keep), tuple(keep),
                           tuple(range(alg.dim)), tuple(gens))
    return _class_count(ring.cardinality() ** (alg.dim - len(keep)),
                        askzeta.ask_orbit(restricted, ring, budget).value)


# ---------------------------------------------------------------------------
# Groups from alternating forms.
# ---------------------------------------------------------------------------

def baer_group_cc(rep: ModuleRep, p: int, n: int = 1,
                  budget: int = askzeta.DEFAULT_BUDGET) -> int:
    """Conjugacy classes of the class-2 group on R^d x R^l, R = Z/p^n (for
    n = 1 this is F_p, which is PadicQuotient(p, 1)), attached to an
    alternating module with l forms beta, with multiplication
    (x,y)(x',y') = (x+x', y+y'+(1/2) beta(x,x')).

    k(G) = |R|^l * ask(rep); the budget bounds the |R|^d census points.
    """
    if p == 2:
        raise BadCharacteristic("needs odd p")
    if not rep.alternating:
        raise NotAlternating("forms must be square and alternating")
    ring = PadicQuotient(p, n)
    return _class_count(ring.cardinality() ** rep.rank,
                        askzeta.ask_orbit(rep, ring, budget).value)
