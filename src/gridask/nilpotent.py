"""Graded anticommutative algebras of class <= 3, their adjoint
representations, the truncated Baker-Campbell-Hausdorff group law, and
brute-force conjugacy-class counting.

Algebras are stored as integer structure constants on a graded basis.
Products raise degree; everything in degree > 3 vanishes.  The free
class-3 Lie algebra on d generators is built on a Hall basis; the bigger
anticommutative (non-Lie) algebra on the same degree-1 part and its
quotient by the Jacobi elements reproduce it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .modrep import ModuleRep, _freeze, _zero
from .rings import PadicQuotient, Ring


class UnsupportedClass(Exception):
    pass


class BadCharacteristic(Exception):
    pass


class NotAlternating(Exception):
    pass


class BudgetExceeded(Exception):
    pass


SparseVec = tuple[tuple[int, int], ...]  # ((basis index, coefficient), ...)


@dataclass(frozen=True)
class GradedAlgebra:
    """Anticommutative graded algebra of class <= 3 with integer structure
    constants; structure[(a, b)] is the sparse product e_a e_b."""

    labels: tuple
    degrees: tuple[int, ...]
    structure: Mapping[tuple[int, int], SparseVec]

    def __post_init__(self) -> None:
        object.__setattr__(self, "structure", dict(self.structure))
        n = len(self.labels)
        for a in range(n):
            for b in range(n):
                prod = self.structure.get((a, b), ())
                anti = {i: -c for i, c in self.structure.get((b, a), ())}
                if {i: c for i, c in prod} != anti:
                    raise ValueError(f"structure not anticommutative at {(a, b)}")
                for i, c in prod:
                    if self.degrees[i] != self.degrees[a] + self.degrees[b]:
                        raise ValueError(f"product {(a, b)} breaks the grading")
                if self.degrees[a] + self.degrees[b] > 3 and prod:
                    raise ValueError("nonzero product above degree 3")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def grading(self) -> tuple[int, int, int]:
        return tuple(sum(1 for d in self.degrees if d == k) for k in (1, 2, 3))

    def product_basis(self, a: int, b: int) -> SparseVec:
        return self.structure.get((a, b), ())

    def product(self, ring: Ring, x: Sequence, y: Sequence) -> list:
        out = [ring.zero] * self.dim
        for a in range(self.dim):
            if ring.is_zero(x[a]):
                continue
            for b in range(self.dim):
                if ring.is_zero(y[b]):
                    continue
                xy = ring.mul(x[a], y[b])
                for i, c in self.product_basis(a, b):
                    out[i] = ring.add(out[i], ring.mul(xy, ring.from_int(c)))
        return out

    def jacobi_defect(self, a: int, b: int, c: int) -> dict[int, int]:
        """[[a,b],c] + [[b,c],a] + [[c,a],b] as a sparse integer vector."""
        out: dict[int, int] = {}
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            for i, ci in self.product_basis(x, y):
                for j, cj in self.product_basis(i, z):
                    out[j] = out.get(j, 0) + ci * cj
        return {k: v for k, v in out.items() if v}

    def is_lie(self) -> bool:
        n = self.dim
        return all(not self.jacobi_defect(a, b, c)
                   for a in range(n) for b in range(n) for c in range(n))


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


def a_d_algebra(d: int) -> GradedAlgebra:
    """The anticommutative (generally non-Lie) algebra with basis
    x_i; p_{i<j}; t_{(h, i<j)} and products x_i x_j = p_{i<j},
    x_h p_{i<j} = t_{(h, i<j)} (everything else zero)."""
    labels: list = [("x", i) for i in range(1, d + 1)]
    degrees = [1] * d
    pairs = list(itertools.combinations(range(1, d + 1), 2))
    for pr in pairs:
        labels.append(("p", pr))
        degrees.append(2)
    for h in range(1, d + 1):
        for pr in pairs:
            labels.append(("t", (h, pr)))
            degrees.append(3)
    pos = {lab: t for t, lab in enumerate(labels)}
    structure: dict[tuple[int, int], SparseVec] = {}
    for i, j in pairs:
        _add_pair(structure, pos[("x", i)], pos[("x", j)], ((pos[("p", (i, j))], 1),))
    for h in range(1, d + 1):
        for pr in pairs:
            _add_pair(structure, pos[("x", h)], pos[("p", pr)],
                      ((pos[("t", (h, pr))], 1),))
    return GradedAlgebra(tuple(labels), tuple(degrees), structure)


def jacobi_quotient(alg: GradedAlgebra) -> GradedAlgebra:
    """Quotient of the a_d algebra by the degree-3 Jacobi elements
    t_{(i, j<k)} - t_{(j, i<k)} + t_{(k, i<j)}; for each triple the
    basis element t_{(max, pair)} is eliminated."""
    subs: dict[int, SparseVec] = {}
    pos = {lab: t for t, lab in enumerate(alg.labels)}
    kept = [t for t in range(alg.dim)]
    d = alg.grading[0]
    for a, b, c in itertools.combinations(range(1, d + 1), 3):
        drop = pos[("t", (c, (a, b)))]
        subs[drop] = ((pos[("t", (b, (a, c)))], 1), (pos[("t", (a, (b, c)))], -1))
        kept.remove(drop)
    new_index = {old: new for new, old in enumerate(kept)}

    def rewrite(vec: SparseVec) -> SparseVec:
        acc: dict[int, int] = {}
        for i, c in vec:
            if i in subs:
                for i2, c2 in subs[i]:
                    acc[i2] = acc.get(i2, 0) + c * c2
            else:
                acc[i] = acc.get(i, 0) + c
        return tuple((new_index[i], c) for i, c in sorted(acc.items()) if c)

    structure: dict[tuple[int, int], SparseVec] = {}
    for (a, b), vec in alg.structure.items():
        if a in subs or b in subs:
            continue  # dropped elements are degree 3: their products vanish
        new_vec = rewrite(vec)
        if new_vec:
            structure[(new_index[a], new_index[b])] = new_vec
    return GradedAlgebra(tuple(alg.labels[t] for t in kept),
                         tuple(alg.degrees[t] for t in kept), structure)


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


def bch_multiply(alg: GradedAlgebra, ring: Ring, x: Sequence, y: Sequence) -> tuple:
    """Truncated product x + y + (1/2)[x,y] + (1/12)[x,[x,y]] + (1/12)[y,[y,x]]."""
    _check_characteristic(alg, ring)
    br = alg.product(ring, x, y)
    half = ring.inv(ring.from_int(2))
    out = [ring.add(ring.add(a, b), ring.mul(half, c)) for a, b, c in zip(x, y, br)]
    if max(alg.degrees, default=1) >= 3:
        twelfth = ring.inv(ring.from_int(12))
        xxy = alg.product(ring, x, br)
        neg_br = [ring.neg(c) for c in br]
        yyx = alg.product(ring, y, neg_br)
        out = [ring.add(o, ring.mul(twelfth, ring.add(a, b)))
               for o, a, b in zip(out, xxy, yyx)]
    return tuple(out)


def bch_inverse(alg: GradedAlgebra, ring: Ring, x: Sequence) -> tuple:
    return tuple(ring.neg(c) for c in x)


def conjugacy_count_bch(alg: GradedAlgebra, p: int, n: int = 1,
                        budget: int = 10**6) -> int:
    """Conjugacy classes of the BCH group on (Z/p^n)^dim, by a visited-map
    orbit sweep under conjugation by the basis unit vectors."""
    ring = PadicQuotient(p, n)
    _check_characteristic(alg, ring)
    m = ring.cardinality()
    dim = alg.dim
    N = m**dim
    if N > budget:
        raise BudgetExceeded(f"group order {N} exceeds budget {budget}")

    def encode(vec: Sequence[int]) -> int:
        idx = 0
        for c in reversed(vec):
            idx = idx * m + c
        return idx

    def decode(idx: int) -> tuple:
        out = []
        for _ in range(dim):
            out.append(idx % m)
            idx //= m
        return tuple(out)

    gens = []
    for b in range(dim):
        g = [0] * dim
        g[b] = 1
        gens.append((tuple(g), bch_inverse(alg, ring, g)))

    visited = bytearray(N)
    classes = 0
    for start in range(N):
        if visited[start]:
            continue
        classes += 1
        visited[start] = 1
        stack = [decode(start)]
        while stack:
            h = stack.pop()
            for g, ginv in gens:
                hg = bch_multiply(alg, ring, h, g)
                conj = bch_multiply(alg, ring, ginv, hg)
                idx = encode(conj)
                if not visited[idx]:
                    visited[idx] = 1
                    stack.append(conj)
    return classes


# ---------------------------------------------------------------------------
# Groups from alternating forms.
# ---------------------------------------------------------------------------

def _alternating_forms(rep: ModuleRep) -> list:
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
    return list(rep.gens)


def baer_group_cc(rep: ModuleRep, p: int, budget: int = 10**7,
                  use_fast: bool = True) -> int:
    """Conjugacy classes of the class-2 group on F_p^d x F_p^l attached to
    an alternating module (generators = the l forms), multiplication
    (x,y)(x',y') = (x+x', y+y'+(1/2) beta(x,x')).  Orbit sweep under
    conjugation by the standard generators."""
    if p == 2:
        raise BadCharacteristic("needs odd p")
    forms = _alternating_forms(rep)
    d = len(rep.I)
    l = rep.rank
    N = p ** (d + l)
    if N > budget:
        raise BudgetExceeded(f"group order {N} exceeds budget {budget}")
    if use_fast and N > 200000:
        from .fastcount import baer_orbit_count
        return baer_orbit_count(forms, p)
    half = pow(2, -1, p)

    def beta(xa, xb):
        return tuple(sum(xa[i] * g[i][j] * xb[j] for i in range(d)
                         for j in range(d)) % p for g in forms)

    def law(a, b):
        xa, ya = a[:d], a[d:]
        xb, yb = b[:d], b[d:]
        x = tuple((u + v) % p for u, v in zip(xa, xb))
        bb = beta(xa, xb)
        y = tuple((u + v + half * w) % p for u, v, w in zip(ya, yb, bb))
        return x + y

    def encode(vec):
        idx = 0
        for c in reversed(vec):
            idx = idx * p + c
        return idx

    def decode(idx):
        out = []
        for _ in range(d + l):
            out.append(idx % p)
            idx //= p
        return tuple(out)

    gens = []
    for b in range(d + l):
        g = [0] * (d + l)
        g[b] = 1
        gens.append((tuple(g), tuple((-c) % p for c in g)))

    visited = bytearray(N)
    classes = 0
    for start in range(N):
        if visited[start]:
            continue
        classes += 1
        visited[start] = 1
        stack = [decode(start)]
        while stack:
            h = stack.pop()
            for g, ginv in gens:
                conj = law(ginv, law(h, g))
                idx = encode(conj)
                if not visited[idx]:
                    visited[idx] = 1
                    stack.append(conj)
    return classes
