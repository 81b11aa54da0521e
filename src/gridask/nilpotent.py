"""Graded anticommutative algebras of class <= 3, their adjoint
representations, and conjugacy-class counting through average kernel
sizes (the truncated Baker-Campbell-Hausdorff group law is a test oracle).

Algebras are stored as integer structure constants on a graded basis.
Products raise degree; everything in degree > 3 vanishes.  The free
class-3 Lie algebra on d generators is built on a Hall basis.

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

from fractions import Fraction
from typing import Mapping

from . import askzeta
from .modrep import ModuleRep, _freeze, _zero
from .rings import PadicQuotient, Ring


class UnsupportedClass(Exception):
    pass


class BadCharacteristic(Exception):
    pass


class NotAlternating(Exception):
    pass


SparseVec = tuple[tuple[int, int], ...]  # ((basis index, coefficient), ...)


class GradedAlgebra:
    """Anticommutative graded algebra of class <= 3 with integer structure
    constants; structure[(a, b)] is the sparse product e_a e_b (a copy of
    the mapping given)."""

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
                if degrees[a] + degrees[b] > 3 and prod:
                    raise ValueError("nonzero product above degree 3")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def product_basis(self, a: int, b: int) -> SparseVec:
        return self.structure.get((a, b), ())


def _add_pair(structure: dict, a: int, b: int, vec: SparseVec) -> None:
    if vec:
        structure[(a, b)] = vec
        structure[(b, a)] = tuple((i, -c) for i, c in vec)


def free_nilpotent_lie(d: int, nil_class: int = 3) -> GradedAlgebra:
    """Free nilpotent Lie algebra on d generators, class 2 or 3, on the
    Hall basis x_i; [x_j, x_i] (j > i); [[x_j, x_i], x_k] (j > i, k >= i).

    Degree dimensions: d, C(d,2), (d^3 - d)/3.
    """
    if nil_class not in (2, 3):
        raise UnsupportedClass(f"nilpotency class {nil_class} is not 2 or 3")
    labels: list = [("x", i) for i in range(1, d + 1)]
    degrees = [1] * d
    for j in range(2, d + 1):
        for i in range(1, j):
            labels.append(("c2", (j, i)))
            degrees.append(2)
    if nil_class == 3:
        for j in range(2, d + 1):
            for i in range(1, j):
                for k in range(i, d + 1):
                    labels.append(("c3", (j, i, k)))
                    degrees.append(3)
    pos = {lab: t for t, lab in enumerate(labels)}
    structure: dict[tuple[int, int], SparseVec] = {}

    def c3(j: int, i: int, k: int) -> SparseVec:
        """[[x_j, x_i], x_k] in the Hall basis (j > i)."""
        if nil_class == 2:
            return ()
        if k >= i:
            return (((pos[("c3", (j, i, k))]), 1),)
        # k < i: Jacobi rewrite [[j,i],k] = [[j,k],i] - [[i,k],j]
        return ((pos[("c3", (j, k, i))], 1), (pos[("c3", (i, k, j))], -1))

    for j in range(1, d + 1):
        for i in range(1, d + 1):
            if j > i:
                _add_pair(structure, pos[("x", j)], pos[("x", i)],
                          ((pos[("c2", (j, i))], 1),))
    for j in range(2, d + 1):
        for i in range(1, j):
            for k in range(1, d + 1):
                vec = c3(j, i, k)
                _add_pair(structure, pos[("c2", (j, i))], pos[("x", k)], vec)
    return GradedAlgebra(tuple(labels), tuple(degrees), structure)


def adjoint_rep(alg: GradedAlgebra) -> ModuleRep:
    """Right-multiplication representation: generator b is the matrix of
    x |-> x e_b on the basis."""
    n = alg.dim
    gens = []
    for b in range(n):
        g = _zero(n, n)
        for i in range(n):
            for j, c in alg.product_basis(i, b):
                g[i][j] = c
        gens.append(_freeze(g))
    idx = tuple(range(n))
    return ModuleRep(tuple(alg.labels), idx, idx, tuple(gens))


# ---------------------------------------------------------------------------
# BCH groups.
# ---------------------------------------------------------------------------

def _check_characteristic(alg: GradedAlgebra, ring: Ring) -> None:
    max_deg = max(alg.degrees) if alg.labels else 1
    if max_deg >= 3 and ring.p in (2, 3):
        raise BadCharacteristic("class-3 truncation needs p >= 5")
    if max_deg == 2 and ring.p == 2:
        raise BadCharacteristic("class-2 truncation needs odd p")


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
    them, generator b (x e_b = 0) and row b (e_b x = 0).  The budget bounds
    the |R|^I census points of the restricted module.
    """
    ring = PadicQuotient(p, n)
    _check_characteristic(alg, ring)
    ad = adjoint_rep(alg)
    keep = [b for b, g in enumerate(ad.gens) if any(any(row) for row in g)]
    restricted = ModuleRep(tuple(ad.labels[b] for b in keep),
                           tuple(ad.I[b] for b in keep), ad.J,
                           tuple(tuple(ad.gens[b][i] for i in keep) for b in keep))
    central = alg.dim - len(keep)
    return _class_count(ring.cardinality() ** central,
                        askzeta.ask_orbit(restricted, ring, budget).value)


# ---------------------------------------------------------------------------
# Groups from alternating forms.
# ---------------------------------------------------------------------------

def _check_alternating(rep: ModuleRep) -> None:
    d = len(rep.I)
    if len(rep.J) != d:
        raise NotAlternating("forms must be square")
    for g in rep.gens:
        for i in range(d):
            if g[i][i] != 0:
                raise NotAlternating("nonzero diagonal entry")
            for j in range(d):
                if g[i][j] != -g[j][i]:
                    raise NotAlternating("matrix is not alternating")


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
    _check_alternating(rep)
    ring = PadicQuotient(p, n)
    return _class_count(ring.cardinality() ** rep.rank,
                        askzeta.ask_orbit(rep, ring, budget).value)
