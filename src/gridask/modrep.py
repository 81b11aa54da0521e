"""Module representations as finite lists of integer generator matrices.

A representation theta is a basis-labelled family of integer matrices of a
common shape I x J; specialising the entries to a finite ring realises the
module they span inside Hom(R^I, R^J).  relation_rep builds every module
on a boardgame family grid cut out by one relation per colour: the generic
families, boards and their hats, sl, the upper triangular matrices and the
triangular pair.  A board's relations take their coefficients from a plain
mapping of its coloured cells to units; a cell it leaves out has unit 1.
Also: the companion ("Knuth dual") element_dual and the degree-3
commutator representations alpha / alphahat.

element_dual (basis I, shape B x J) turns module elements into orbit
matrices: its orbit matrix at c is the element sum_b c_b a_b, so one
orbit-matrix census serves both ways of computing ask
(askzeta.profile_census), and ModuleRep.element is that orbit matrix.
An orbit matrix sums only its live entries, those (b, j) with some
a_{bij} != 0: most entries of C(x) are 0 at every x on these modules.
"""
from __future__ import annotations

import itertools
from functools import cached_property
from typing import Mapping, Sequence

from . import torus
from .boardgame import Family, GameColouring, build_grid, hat_colouring, master_rho
from .colouring import Cell, PartialColouring, sl_colouring
from .linalg import Mat
from .rings import Ring

IntMatrix = tuple[tuple[int, ...], ...]


class ShapeMismatch(Exception):
    pass


def _zero(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def _freeze(m: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(row) for row in m)


class ModuleRep:
    """Integer generator matrices a_b of shape I x J, indexed by labels B.
    Two reps with equal labels, index sets and generators are equal."""

    def __init__(self, labels: tuple, I: tuple, J: tuple,
                 gens: tuple[IntMatrix, ...]) -> None:
        if len(labels) != len(gens):
            raise ShapeMismatch("label/generator count mismatch")
        for name, index in (("labels", labels), ("I", I), ("J", J)):
            if len(set(index)) != len(index):  # element_dual makes I the labels
                raise ShapeMismatch(f"duplicate {name}")
        for g in gens:
            if len(g) != len(I) or any(len(r) != len(J) for r in g):
                raise ShapeMismatch("generator shape mismatch")
        self.labels, self.I, self.J, self.gens = labels, I, J, gens

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and (self.labels, self.I, self.J, self.gens)
                == (other.labels, other.I, other.J, other.gens))

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def alternating(self) -> bool:
        """Every generator square and alternating, a_{bij} = -a_{bji} (over
        Z this puts 0 on the diagonal)."""
        d = len(self.I)
        return len(self.J) == d and all(g[i][j] == -g[j][i] for g in self.gens
                                        for i in range(d) for j in range(d))

    @cached_property
    def rank_bound(self) -> int:
        """r >= the number of divisor valuations of C(x) below the cap at
        every primitive x (some coordinate a unit), over every ring: min(B,
        J), less one where an integer identity makes x a unimodular kernel
        vector of C(x), and so a column of an invertible Q (or a row of P)
        with a zero column of C(x) Q (or row of P C(x)).  Every a_b
        alternating gives C(x) x = 0, so r <= J - 1; B = I with a_{bij} =
        -a_{ibj}, as on a restricted adjoint module ([x, x] = 0), gives
        x C(x) = 0, so r <= B - 1."""
        B, dI, dJ = self.rank, len(self.I), len(self.J)
        bound = min(B, dJ)
        gens = self.gens
        if self.alternating and dJ > 0:
            bound = min(bound, dJ - 1)
        if B == dI > 0 and all(gens[b][i][j] == -gens[i][b][j] for b in range(B)
                               for i in range(B) for j in range(dJ)):
            bound = min(bound, B - 1)
        return bound

    def element(self, ring: Ring, coeffs: Sequence) -> Mat:
        """sum_b coeffs_b * a_b over the ring (coeffs are ring elements):
        the orbit matrix of the element dual at coeffs."""
        return self.dual.orbit_matrix_at(ring, coeffs)

    def orbit_matrix_at(self, ring: Ring, x: Sequence) -> Mat:
        """C(x): the B x J matrix with entries sum_i x_i a_{bij}.  Only the
        live entries are summed (ring.linear_forms over _orbit_terms); every
        other entry is read from the ring's zero, appended last."""
        layers, place = self._orbit_terms
        values = ring.linear_forms(x, layers)
        values.append(ring.zero)
        return Mat(ring, self.rank, len(self.J), tuple(map(values.__getitem__, place)))

    @cached_property
    def weights(self) -> tuple[tuple[int, ...], ...]:
        """torus.weights(self), found once: each census over a ring reads it."""
        return torus.weights(self)

    @cached_property
    def dual(self) -> "ModuleRep":
        """element_dual(self), built once, so its weights are found once."""
        return element_dual(self)

    @cached_property
    def _orbit_terms(self) -> tuple[tuple, tuple[int, ...]]:
        """(layers, place) for C(x).  The live entries are the entries (b, j)
        with some a_{bij} != 0, row by row.  Layer k is (indices, coeffs):
        the k-th nonzero term (i, a_{bij}) of each live entry, or (0, 0)
        when it has fewer.  place[e] is entry e's index among the live
        entries, or their count for an entry that is always 0."""
        terms = [[(i, row[j]) for i, row in enumerate(g) if row[j]]
                 for g in self.gens for j in range(len(self.J))]
        live = [t for t in terms if t]
        layers = tuple(tuple(zip(*k)) for k in itertools.zip_longest(*live, fillvalue=(0, 0)))
        index = iter(range(len(live)))
        return layers, tuple(next(index) if t else len(live) for t in terms)


# ---------------------------------------------------------------------------
# Relation modules on family grids.
# ---------------------------------------------------------------------------

def relation_rep(master: GameColouring, u: Mapping[Cell, int] = {}) -> ModuleRep:
    """The module of matrices on the master's grid cut out by its colours.

    Cell class c gives the matrix E(c): 1 at its cells (i, j) with i <= j,
    the family sign (-1 for gamma, +1 otherwise) at those with i > j.  A
    blank class c gives the generator E(c), labelled by its least cell.  A
    colour with least class s gives u_s E(c) - u_c E(s), labelled (colour,
    least cell of c), for each of its other classes c, where u_c is u at
    c's least cell (1 where u has no entry).  Over a ring where the units
    are units, this spans the solution set of sum_c u_c x_c = 0, one
    relation per colour.
    """
    grid = master.grid
    ri = {v: k for k, v in enumerate(grid.I)}
    cj = {v: k for k, v in enumerate(grid.J)}
    sign = -1 if grid.family is Family.GAMMA else 1

    def unit(cls) -> int:
        return u.get(min(cls), 1)

    blank = sorted({cls for cell, cls in grid.class_of.items()
                    if master.colour(cell) is None}, key=min)
    terms = [(min(cls), ((cls, 1),)) for cls in blank]
    for colour, classes in master.classes_of.items():
        pivot, *rest = sorted(classes, key=min)
        terms += [((colour, min(cls)), ((cls, unit(pivot)), (pivot, -unit(cls))))
                  for cls in rest]
    gens = []
    for _, parts in terms:
        g = _zero(len(grid.I), len(grid.J))
        for cls, value in parts:
            for (i, j) in cls:
                g[ri[i]][cj[j]] = value if i <= j else sign * value
        gens.append(_freeze(g))
    return ModuleRep(tuple(label for label, _ in terms), grid.I, grid.J, tuple(gens))


def family_rep(family: Family, I: Sequence[int], J: Sequence[int]) -> ModuleRep:
    """The generic rectangular / alternating / symmetric family on (I, J):
    the relation module of the family grid with every class blank."""
    return relation_rep(GameColouring(build_grid(family, I, J)))


def board_rep(beta: PartialColouring, u: Mapping[Cell, int] = {}) -> ModuleRep:
    """The relation module of a colouring of [d] x [e]: d*e - #colours
    generators."""
    return relation_rep(master_rho(beta), u)


def _hat_rep(beta: PartialColouring, u: Mapping[Cell, int], family: Family) -> ModuleRep:
    """(d+e) x (d+e) module [[a, x], [sign * x^T, b]] with x in the relation
    module of beta and a, b free alternating (gamma) or symmetric (sigma):
    the relation module of beta's hat colouring on [d + e], where beta's
    cell (i, j) is the class of (i, d + j)."""
    return relation_rep(hat_colouring(beta, family),
                        {(i, beta.d + j): unit for (i, j), unit in u.items()})


def altboard_rep(beta: PartialColouring, u: Mapping[Cell, int] = {}) -> ModuleRep:
    return _hat_rep(beta, u, Family.GAMMA)


def symboard_rep(beta: PartialColouring, u: Mapping[Cell, int] = {}) -> ModuleRep:
    return _hat_rep(beta, u, Family.SIGMA)


# ---------------------------------------------------------------------------
# Classical families.
# ---------------------------------------------------------------------------

def _below_diagonal(n: int) -> dict:
    """A colour of its own for each cell of [n] x [n] below the diagonal."""
    return {(i, j): f"{i},{j}" for i in range(1, n + 1) for j in range(1, i)}


def classic_rep(name: str, d: int, e: int | None = None) -> ModuleRep:
    """Standard integer bases: mat(d,e), alt(d), sym(d), sl(d), tr(d).

    sl(d) is the board of one colour on the diagonal: e_ij (i != j) and
    e_ii - e_11.  tr(d), the upper triangular matrices, is the board in
    which each cell below the diagonal has a colour of its own."""
    idx = tuple(range(1, d + 1))
    families = {"mat": Family.RHO, "alt": Family.GAMMA, "sym": Family.SIGMA}
    if name in families:  # only mat is rectangular
        cols = range(1, e + 1) if name == "mat" and e is not None else idx
        return family_rep(families[name], idx, cols)
    if name == "sl":
        return board_rep(sl_colouring(d))
    if name == "tr":
        return board_rep(PartialColouring(d, d, _below_diagonal(d)))
    raise ValueError(f"unknown classic module {name!r}")


def triangular_pair_rep(d: int) -> ModuleRep:
    """The 2d x 2d module [[upper triangular, trace zero], [0, upper
    triangular]]: the board on [2d] x [2d] in which each cell below the
    diagonal (below a diagonal block's diagonal, or in the lower-left
    block) has a colour of its own and the diagonal of the upper-right
    block shares one colour."""
    trace = {(i, i + d): "t" for i in range(1, d + 1)}
    return board_rep(PartialColouring(2 * d, 2 * d, _below_diagonal(2 * d) | trace))


# ---------------------------------------------------------------------------
# The companion view.
# ---------------------------------------------------------------------------

def element_dual(rep: ModuleRep) -> ModuleRep:
    """The companion representation with basis I and shape B x J: generator
    i has entries a_{bij}, so its orbit matrix at c is the module element
    sum_b c_b a_b, and element_dual(element_dual(rep)) == rep."""
    gens = tuple(tuple(g[i] for g in rep.gens) for i in range(len(rep.I)))
    return ModuleRep(tuple(rep.I), tuple(rep.labels), tuple(rep.J), gens)


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
    alpha = alpha_rep(d)
    gen_of = dict(zip(alpha.labels, alpha.gens))
    labels, gens = [], []
    for (kind, data), g in zip(alpha.labels, alpha.gens):
        if kind == "pair" or data[0] in data[1]:
            labels.append((kind, data))
            gens.append(g)
            continue
        h, (i, j) = data
        a, b, c = sorted((h, i, j))
        if h == c:  # dropped: dependent on the two kept combinations
            continue
        sign = -1 if h == a else 1
        labels.append(("hp-" if h == a else "hp+", data))
        gens.append(_freeze([[x + sign * y for x, y in zip(row, drop)]
                             for row, drop in zip(g, gen_of[("hp", (c, (a, b)))])]))
    return ModuleRep(tuple(labels), alpha.I, alpha.J, tuple(gens))


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
