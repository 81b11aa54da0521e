"""Module representations as finite lists of integer generator matrices.

A representation theta is a basis-labelled family of integer matrices of a
common shape I x J; specialising the entries to a finite ring realises the
module they span inside Hom(R^I, R^J).  This module also provides the two
companion ("Knuth dual") views, relation modules cut out of a grid
colouring, the classical matrix families, graph adjacency representations,
and the degree-3 commutator representations alpha / alphahat.

Of the companions, element_dual (basis I, shape B x J) turns module
elements into orbit matrices: its orbit matrix at c is the element
sum_b c_b a_b, so one orbit-matrix census serves both ways of computing
ask (askzeta.profile_census).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .boardgame import Family
from .colouring import PartialColouring, UnitAssignment
from .linalg import Mat
from .rings import Ring

IntMatrix = tuple[tuple[int, ...], ...]


class IndexNotSubset(Exception):
    pass


class ShapeMismatch(Exception):
    pass


def _zero(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def _freeze(m: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(row) for row in m)


@dataclass(frozen=True)
class ModuleRep:
    """Integer generator matrices a_b of shape I x J, indexed by labels B."""

    labels: tuple
    I: tuple
    J: tuple
    gens: tuple[IntMatrix, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.gens):
            raise ShapeMismatch("label/generator count mismatch")
        for name, index in (("labels", self.labels), ("I", self.I), ("J", self.J)):
            if len(set(index)) != len(index):  # element_dual makes I the labels
                raise ShapeMismatch(f"duplicate {name}")
        for g in self.gens:
            if len(g) != len(self.I) or any(len(r) != len(self.J) for r in g):
                raise ShapeMismatch("generator shape mismatch")

    @property
    def rank(self) -> int:
        return len(self.labels)

    def element(self, ring: Ring, coeffs: Sequence) -> Mat:
        """sum_b coeffs_b * a_b over the ring (coeffs are ring elements)."""
        return Mat(ring, len(self.I), len(self.J),
                   tuple(ring.linear_form(coeffs, col) for col in self._element_columns))

    def orbit_matrix_at(self, ring: Ring, x: Sequence) -> Mat:
        """C(x): the B x J matrix with entries sum_i x_i a_{bij}."""
        return Mat(ring, self.rank, len(self.J),
                   tuple(ring.linear_form(x, col) for col in self._orbit_columns))

    @cached_property
    def _element_columns(self) -> tuple[tuple[int, ...], ...]:
        """(a_{bij} for b in B) for each entry (i, j), row by row."""
        return tuple(tuple(g[i][j] for g in self.gens)
                     for i in range(len(self.I)) for j in range(len(self.J)))

    @cached_property
    def _orbit_columns(self) -> tuple[tuple[int, ...], ...]:
        """(a_{bij} for i in I) for each entry (b, j) of C(x), row by row."""
        return tuple(tuple(row[j] for row in g) for g in self.gens for j in range(len(self.J)))

    def circ_forms(self) -> list[list[dict[int, int]]]:
        """Symbolic C(X_I): entry (b, j) as {row index i: coefficient}."""
        out = []
        for g in self.gens:
            row_forms = []
            for j in range(len(self.J)):
                form = {i: g[i][j] for i in range(len(self.I)) if g[i][j]}
                row_forms.append(form)
            out.append(row_forms)
        return out

    def matrix_forms(self) -> list[list[dict[int, int]]]:
        """Symbolic A(X_B): entry (i, j) as {generator index b: coefficient}."""
        out = []
        for i in range(len(self.I)):
            row_forms = []
            for j in range(len(self.J)):
                form = {b: g[i][j] for b, g in enumerate(self.gens) if g[i][j]}
                row_forms.append(form)
            out.append(row_forms)
        return out


# ---------------------------------------------------------------------------
# Relation modules from colourings.
# ---------------------------------------------------------------------------

def board_rep(beta: PartialColouring, u: UnitAssignment | None = None) -> ModuleRep:
    """The relation module on [d] x [e]: one free generator per blank cell,
    and for each colour with pivot cell s = min(fibre) the generators
    u_s e_{ij} - u_{ij} e_s  for the other cells (i,j) of the fibre.

    Generator count = d*e - #colours; over any ring where the u entries
    are units this spans the solution set of the colour relations.
    """
    d, e = beta.d, beta.e
    if u is None:
        u = UnitAssignment.ones(d, e)
    labels: list = []
    gens: list[IntMatrix] = []
    for (i, j) in sorted(beta.cells()):
        if beta.is_blank((i, j)):
            g = _zero(d, e)
            g[i - 1][j - 1] = 1
            labels.append(("blank", (i, j)))
            gens.append(_freeze(g))
    for colour in beta.colours():
        fibre = beta.fibre(colour)
        pivot = fibre[0]
        for cell in fibre[1:]:
            g = _zero(d, e)
            g[cell[0] - 1][cell[1] - 1] = u[pivot]
            g[pivot[0] - 1][pivot[1] - 1] = -u[cell]
            labels.append((colour, cell))
            gens.append(_freeze(g))
    return ModuleRep(tuple(labels), tuple(range(1, d + 1)), tuple(range(1, e + 1)),
                     tuple(gens))


def _block_rep(beta: PartialColouring, u: UnitAssignment | None, sign: int) -> ModuleRep:
    """(d+e) x (d+e) module [[a, x], [sign * x^T, b]] with x in the relation
    module and a, b running over the alternating (sign=-1) or symmetric
    (sign=+1) matrices of sizes d and e."""
    d, e = beta.d, beta.e
    n = d + e
    inner = board_rep(beta, u)
    labels: list = []
    gens: list[IntMatrix] = []
    for lab, g in zip(inner.labels, inner.gens):
        big = _zero(n, n)
        for i in range(d):
            for j in range(e):
                big[i][d + j] = g[i][j]
                big[d + j][i] = sign * g[i][j]
        labels.append(("x", lab))
        gens.append(_freeze(big))
    for (lo, size, tag) in ((0, d, "a"), (d, e, "b")):
        for i in range(size):
            start_j = i if sign == 1 else i + 1
            for j in range(start_j, size):
                big = _zero(n, n)
                big[lo + i][lo + j] = 1
                if i != j:
                    big[lo + j][lo + i] = sign
                labels.append((tag, (i + 1, j + 1)))
                gens.append(_freeze(big))
    idx = tuple(range(1, n + 1))
    return ModuleRep(tuple(labels), idx, idx, tuple(gens))


def altboard_rep(beta: PartialColouring, u: UnitAssignment | None = None) -> ModuleRep:
    return _block_rep(beta, u, -1)


def symboard_rep(beta: PartialColouring, u: UnitAssignment | None = None) -> ModuleRep:
    return _block_rep(beta, u, +1)


# ---------------------------------------------------------------------------
# Classical families.
# ---------------------------------------------------------------------------

def classic_rep(name: str, d: int, e: int | None = None) -> ModuleRep:
    """Standard integer bases: mat(d,e), alt(d), sym(d), sl(d), tr(d)."""
    idx = tuple(range(1, d + 1))
    families = {"mat": Family.RHO, "alt": Family.GAMMA, "sym": Family.SIGMA}
    if name in families:  # only mat is rectangular
        cols = range(1, e + 1) if name == "mat" and e is not None else idx
        return family_rep(families[name], idx, cols)
    labels, gens = [], []
    if name == "sl":
        for i in range(d):
            for j in range(d):
                if i != j:
                    g = _zero(d, d)
                    g[i][j] = 1
                    labels.append((i + 1, j + 1))
                    gens.append(_freeze(g))
        for i in range(d - 1):
            g = _zero(d, d)
            g[i][i] = 1
            g[d - 1][d - 1] = -1
            labels.append(("h", i + 1))
            gens.append(_freeze(g))
    elif name == "tr":
        for i in range(d):
            for j in range(i, d):
                g = _zero(d, d)
                g[i][j] = 1
                labels.append((i + 1, j + 1))
                gens.append(_freeze(g))
    else:
        raise ValueError(f"unknown classic module {name!r}")
    return ModuleRep(tuple(labels), idx, idx, tuple(gens))


# ---------------------------------------------------------------------------
# The generic families rho / gamma / sigma on index sets (I, J).
# ---------------------------------------------------------------------------

def family_rep(family: Family, I: Sequence[int], J: Sequence[int]) -> ModuleRep:
    """Generator matrices of the generic rectangular / alternating /
    symmetric family on (I, J), rows indexed by I and columns by J."""
    family = Family(family)
    I = tuple(sorted(set(I)))
    J = tuple(sorted(set(J)))
    ri = {v: k for k, v in enumerate(I)}
    cj = {v: k for k, v in enumerate(J)}
    labels, gens = [], []
    if family is Family.RHO:
        for i in I:
            for j in J:
                g = _zero(len(I), len(J))
                g[ri[i]][cj[j]] = 1
                labels.append((i, j))
                gens.append(_freeze(g))
    elif family is Family.GAMMA:
        pairs = sorted({tuple(sorted((i, j))) for i in I for j in J if i != j})
        for (u, v) in pairs:
            g = _zero(len(I), len(J))
            if u in ri and v in cj and v in ri and u in cj:
                g[ri[u]][cj[v]] = 1
                g[ri[v]][cj[u]] = -1
            elif u in ri and v in cj:
                g[ri[u]][cj[v]] = 1
            else:
                g[ri[v]][cj[u]] = -1
            labels.append((u, v))
            gens.append(_freeze(g))
    else:
        pairs = sorted({tuple(sorted((i, j))) for i in I for j in J})
        for (u, v) in pairs:
            g = _zero(len(I), len(J))
            if u == v:
                g[ri[u]][cj[u]] = 1
            elif u in ri and v in cj and v in ri and u in cj:
                g[ri[u]][cj[v]] = 1
                g[ri[v]][cj[u]] = 1
            elif u in ri and v in cj:
                g[ri[u]][cj[v]] = 1
            else:
                g[ri[v]][cj[u]] = 1
            labels.append((u, v))
            gens.append(_freeze(g))
    return ModuleRep(tuple(labels), I, J, tuple(gens))


# ---------------------------------------------------------------------------
# Companion views, restriction, inflation, sums, embeddings.
# ---------------------------------------------------------------------------

def knuth_bullet(rep: ModuleRep) -> ModuleRep:
    """The companion representation with basis J and shape I x B:
    generator j has entries b(j)_{ib} = a_{bij}."""
    gens = []
    for j in range(len(rep.J)):
        g = [[rep.gens[b][i][j] for b in range(rep.rank)]
             for i in range(len(rep.I))]
        gens.append(_freeze(g))
    return ModuleRep(tuple(rep.J), tuple(rep.I), tuple(rep.labels), tuple(gens))


def element_dual(rep: ModuleRep) -> ModuleRep:
    """The companion representation with basis I and shape B x J: generator
    i has entries a_{bij}, so its orbit matrix at c is the module element
    sum_b c_b a_b, and element_dual(element_dual(rep)) == rep."""
    gens = tuple(tuple(g[i] for g in rep.gens) for i in range(len(rep.I)))
    return ModuleRep(tuple(rep.I), tuple(rep.labels), tuple(rep.J), gens)


def restrict_rep(rep: ModuleRep, I_sub: Sequence, J_sub: Sequence) -> ModuleRep:
    I_sub, J_sub = tuple(I_sub), tuple(J_sub)
    if not set(I_sub) <= set(rep.I) or not set(J_sub) <= set(rep.J):
        raise IndexNotSubset("restriction indices must be subsets")
    ri = [rep.I.index(i) for i in I_sub]
    cj = [rep.J.index(j) for j in J_sub]
    gens = tuple(_freeze([[g[i][j] for j in cj] for i in ri]) for g in rep.gens)
    return ModuleRep(rep.labels, I_sub, J_sub, gens)


def inflate_rep(rep: ModuleRep, I_big: Sequence, J_big: Sequence) -> ModuleRep:
    if not set(rep.I) <= set(I_big) or not set(rep.J) <= set(J_big):
        raise IndexNotSubset("inflation indices must be supersets")
    return embed_rep(rep, I_big, J_big, {i: i for i in rep.I}, {j: j for j in rep.J})


def embed_rep(rep: ModuleRep, I_big: Sequence, J_big: Sequence,
              row_map: Mapping, col_map: Mapping, tag=None) -> ModuleRep:
    """Embed via injections row_map: rep.I -> I_big, col_map: rep.J -> J_big."""
    I_big, J_big = tuple(I_big), tuple(J_big)
    ri = {v: k for k, v in enumerate(I_big)}
    cj = {v: k for k, v in enumerate(J_big)}
    gens = []
    for g in rep.gens:
        big = _zero(len(I_big), len(J_big))
        for a, i in enumerate(rep.I):
            for b, j in enumerate(rep.J):
                big[ri[row_map[i]]][cj[col_map[j]]] = g[a][b]
        gens.append(_freeze(big))
    labels = tuple((tag, lab) for lab in rep.labels) if tag is not None else rep.labels
    return ModuleRep(labels, I_big, J_big, tuple(gens))


def sum_rep(*reps: ModuleRep) -> ModuleRep:
    """Concatenate generator lists of representations with equal shape."""
    first = reps[0]
    labels: list = []
    gens: list = []
    for k, rep in enumerate(reps):
        if rep.I != first.I or rep.J != first.J:
            raise ShapeMismatch("summands must share index sets")
        for lab, g in zip(rep.labels, rep.gens):
            labels.append((k, lab))
            gens.append(g)
    return ModuleRep(tuple(labels), first.I, first.J, tuple(gens))


def triangular_pair_rep(d: int) -> ModuleRep:
    """The 2d x 2d module [[upper triangular, trace zero], [0, upper
    triangular]], assembled from embedded blocks."""
    n = 2 * d
    idx = tuple(range(1, n + 1))
    lo = {i: i for i in range(1, d + 1)}
    hi = {i: i + d for i in range(1, d + 1)}
    tr = classic_rep("tr", d)
    sl = classic_rep("sl", d)
    return sum_rep(embed_rep(tr, idx, idx, lo, lo),
                   embed_rep(sl, idx, idx, lo, hi),
                   embed_rep(tr, idx, idx, hi, hi))


# ---------------------------------------------------------------------------
# Graphs and adjacency representations.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleGraph:
    vertices: tuple
    edges: frozenset  # frozensets of size 2 (size 1 = loop, if allowed)
    allow_loops: bool = False

    def __post_init__(self) -> None:
        for edge in self.edges:
            if not set(edge) <= set(self.vertices):
                raise ValueError(f"edge {set(edge)} leaves the vertex set")
            if len(edge) == 1 and not self.allow_loops:
                raise ValueError("loops are not allowed in this graph")


def complete_graph(vertices: Sequence) -> SimpleGraph:
    vs = tuple(vertices)
    return SimpleGraph(vs, frozenset(frozenset(p) for p in itertools.combinations(vs, 2)))


def discrete_graph(vertices: Sequence) -> SimpleGraph:
    return SimpleGraph(tuple(vertices), frozenset())


def graph_join(g1: SimpleGraph, g2: SimpleGraph) -> SimpleGraph:
    if set(g1.vertices) & set(g2.vertices):
        raise ValueError("join requires disjoint vertex sets")
    cross = frozenset(frozenset((a, b)) for a in g1.vertices for b in g2.vertices)
    return SimpleGraph(g1.vertices + g2.vertices, g1.edges | g2.edges | cross,
                       g1.allow_loops or g2.allow_loops)


def threshold_graph(m: int, n: int) -> SimpleGraph:
    """Discrete graph on m vertices joined with a complete graph on n."""
    return graph_join(discrete_graph(tuple(("d", k) for k in range(1, m + 1))),
                      complete_graph(tuple(("k", k) for k in range(1, n + 1))))


def adjacency_rep(g: SimpleGraph, sign: str = "negative") -> ModuleRep:
    """Edge {v < w} maps to e_vw - e_wv (negative) or e_vw + e_wv
    (positive); loops {v} map to e_vv (positive only)."""
    vs = tuple(sorted(g.vertices))
    pos = {v: k for k, v in enumerate(vs)}
    s = -1 if sign == "negative" else 1
    labels, gens = [], []
    for edge in sorted(g.edges, key=lambda E: tuple(sorted(E))):
        e = tuple(sorted(edge))
        gmat = _zero(len(vs), len(vs))
        if len(e) == 1:
            if s == -1:
                raise ValueError("negative adjacency has no loop generators")
            gmat[pos[e[0]]][pos[e[0]]] = 1
        else:
            v, w = e
            gmat[pos[v]][pos[w]] = 1
            gmat[pos[w]][pos[v]] = s
        labels.append(e)
        gens.append(_freeze(gmat))
    return ModuleRep(tuple(labels), vs, vs, tuple(gens))


# ---------------------------------------------------------------------------
# Degree-3 commutator representations alpha and alphahat.
# ---------------------------------------------------------------------------

def _alpha_basis(d: int):
    verts = [("v", i) for i in range(1, d + 1)]
    pairs = [("p", p) for p in itertools.combinations(range(1, d + 1), 2)]
    return tuple(verts + pairs)


def _alpha_gen(d: int, basis: tuple, kind: str, data) -> IntMatrix:
    n = len(basis)
    pos = {lab: k for k, lab in enumerate(basis)}
    g = _zero(n, n)
    if kind == "pair":  # e_{i<j}: e_ij - e_ji on the vertex part
        i, j = data
        g[pos[("v", i)]][pos[("v", j)]] = 1
        g[pos[("v", j)]][pos[("v", i)]] = -1
    else:  # (h, i<j): e_{h,{ij}} - e_{{ij},h}
        h, (i, j) = data
        g[pos[("v", h)]][pos[("p", (i, j))]] = 1
        g[pos[("p", (i, j))]][pos[("v", h)]] = -1
    return _freeze(g)


def alpha_rep(d: int) -> ModuleRep:
    """Shape B x B with B = vertices [d] plus pairs C([d],2); generators:
    one per pair (antisymmetric vertex-vertex) and one per (vertex, pair)
    (antisymmetric vertex-pair).  Generator order: pairs lexicographically,
    then (h, pair) lexicographically."""
    basis = _alpha_basis(d)
    labels, gens = [], []
    for p in itertools.combinations(range(1, d + 1), 2):
        labels.append(("pair", p))
        gens.append(_alpha_gen(d, basis, "pair", p))
    for h in range(1, d + 1):
        for p in itertools.combinations(range(1, d + 1), 2):
            labels.append(("hp", (h, p)))
            gens.append(_alpha_gen(d, basis, "hp", (h, p)))
    return ModuleRep(tuple(labels), basis, basis, tuple(gens))


def alphahat_rep(d: int) -> ModuleRep:
    """The subrepresentation of alpha_rep on the reduced generator set:
    all pair generators; (h, {i,j}) kept as is when h is in {i,j}; for a
    triple a < b < c the two combinations (a,{b,c}) - (c,{a,b}) and
    (b,{a,c}) + (c,{a,b}) replace the three off-pair generators."""
    basis = _alpha_basis(d)
    n = len(basis)
    labels, gens = [], []
    for p in itertools.combinations(range(1, d + 1), 2):
        labels.append(("pair", p))
        gens.append(_alpha_gen(d, basis, "pair", p))

    def hp(h, p):
        return _alpha_gen(d, basis, "hp", (h, p))

    def add(a: IntMatrix, b: IntMatrix, sign: int) -> IntMatrix:
        return _freeze([[a[i][j] + sign * b[i][j] for j in range(n)] for i in range(n)])

    for h in range(1, d + 1):
        for p in itertools.combinations(range(1, d + 1), 2):
            i, j = p
            if h in p:
                labels.append(("hp", (h, p)))
                gens.append(hp(h, p))
                continue
            a, b, c = sorted((h, i, j))
            if h == a:
                labels.append(("hp-", (h, p)))
                gens.append(add(hp(h, p), hp(c, (a, b)), -1))
            elif h == b:
                labels.append(("hp+", (h, p)))
                gens.append(add(hp(h, p), hp(c, (a, b)), +1))
            # h == c: dropped (dependent on the two kept combinations)
    return ModuleRep(tuple(labels), basis, basis, tuple(gens))


# ---------------------------------------------------------------------------
# JSON serialization.
# ---------------------------------------------------------------------------

def rep_to_json(rep: ModuleRep) -> dict:
    return {
        "B": [str(lab) for lab in rep.labels],
        "I": [str(i) for i in rep.I],
        "J": [str(j) for j in rep.J],
        "gens": {str(lab): [list(row) for row in g]
                 for lab, g in zip(rep.labels, rep.gens)},
    }


def rep_from_json(data: dict) -> ModuleRep:
    try:
        labels = tuple(data["B"])
        I = tuple(data["I"])
        J = tuple(data["J"])
        gens = tuple(_freeze(data["gens"][lab]) for lab in labels)
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed representation ({exc!r})") from None
    if not all(type(x) is int for g in gens for row in g for x in row):
        raise ShapeMismatch("generator entries must be integers")
    return ModuleRep(labels, I, J, gens)
