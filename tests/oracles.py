"""Independent brute-force reference implementations used only by tests.

Everything here is written directly from the definitions, with no reuse of
the library's elimination, closure, or greedy-play code, so that agreement
between the two is meaningful evidence.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from gridask.colouring import PartialColouring
from gridask.linalg import Mat


# ---------------------------------------------------------------------------
# Linear algebra oracles.
# ---------------------------------------------------------------------------

def naive_rank_modp(int_rows: list[list[int]], p: int) -> int:
    """Textbook row reduction over F_p on integer input rows."""
    rows = [[x % p for x in r] for r in int_rows]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = pow(rows[pivot_row][col], p - 2, p)
        rows[pivot_row] = [(x * inv) % p for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def brute_kernel_size(m: Mat) -> int:
    """Count row vectors x with x m = 0 by full enumeration."""
    ring = m.ring
    zero = ring.from_int(0)
    count = 0
    for x in itertools.product(list(ring.elements()), repeat=m.rows):
        if all(v == zero for v in m.act_left(x)):
            count += 1
    return count


def brute_image_size(m: Mat) -> int:
    """Count distinct images x m by full enumeration."""
    images = set()
    for x in itertools.product(list(m.ring.elements()), repeat=m.rows):
        images.add(m.act_left(x))
    return len(images)


# ---------------------------------------------------------------------------
# ask oracle.
# ---------------------------------------------------------------------------

def naive_ask(rep, ring) -> Fraction:
    """Average kernel size straight from the definition: enumerate every
    coefficient tuple, count each element's kernel by vector enumeration."""
    elems = list(ring.elements())
    total = 0
    count = 0
    for coeffs in itertools.product(elems, repeat=rep.rank):
        total += brute_kernel_size(rep.element(ring, coeffs))
        count += 1
    return Fraction(total, count)


def naive_orbit_ask(rep, ring) -> Fraction:
    """ask by the orbit identity, summed over every x in R^I: C(x) has entry
    (b, j) = sum_i x_i a_{bij}, formed here straight from the generators,
    and its image is counted by vector enumeration."""
    elems = list(ring.elements())
    cols = len(rep.J)
    total = Fraction(0)
    for x in itertools.product(elems, repeat=len(rep.I)):
        entries = []
        for g in rep.gens:
            for j in range(cols):
                acc = ring.zero
                for i, xi in enumerate(x):
                    acc = ring.add(acc, ring.mul(xi, ring.from_int(g[i][j])))
                entries.append(acc)
        total += Fraction(1, brute_image_size(Mat(ring, rep.rank, cols, tuple(entries))))
    return total


# ---------------------------------------------------------------------------
# Certifier oracles: every point of F_p^I.
# ---------------------------------------------------------------------------

def _field_profile(rep, x, p: int) -> tuple[int, int]:
    """(zeros, ones) of the divisor profile of C(x) over F_p: the rank r of
    the B x J matrix with entries sum_i x_i a_{bij}, then min(B, J) - r."""
    rows = [[sum(xi * g[i][j] for i, xi in enumerate(x)) for j in range(len(rep.J))]
            for g in rep.gens]
    r = naive_rank_modp(rows, p)
    return r, min(rep.rank, len(rep.J)) - r


def naive_constant_rank(rep, p: int, l: int) -> tuple[int, list]:
    """(points checked, sorted violating points): coker C(x) is F_p^l, that
    is |J| - rank C(x) = l, at every x in F_p^I with a non-zero coordinate."""
    points = [x for x in itertools.product(range(p), repeat=len(rep.I)) if any(x)]
    bad = [x for x in points if len(rep.J) - _field_profile(rep, x, p)[0] != l]
    return len(points), bad


def naive_orbital(big, sub, p: int) -> tuple[int, list]:
    """(points checked, sorted violating points): equal divisor profiles of
    the two C(x) at every x in F_p^I with no zero coordinate."""
    points = list(itertools.product(range(1, p), repeat=len(big.I)))
    bad = [x for x in points if _field_profile(big, x, p) != _field_profile(sub, x, p)]
    return len(points), bad


# ---------------------------------------------------------------------------
# Conjugacy-class oracle.
# ---------------------------------------------------------------------------

def conjugacy_class_count(law, m: int, dim: int) -> int:
    """Conjugacy classes of a group on (Z/m)^dim with identity 0 and
    multiplication law(a, b), by a visited-set sweep of the orbits of
    h -> g^-1 h g for the unit vectors g, which generate every group built
    here.  Each g^-1 is found as the power g^k with g^k g = 0."""
    zero = (0,) * dim
    conjugators = []
    for b in range(dim):
        g = tuple(int(i == b) for i in range(dim))
        g_inv = g
        while law(g_inv, g) != zero:
            g_inv = law(g_inv, g)
        conjugators.append((g, g_inv))
    seen = set()
    classes = 0
    for start in itertools.product(range(m), repeat=dim):
        if start in seen:
            continue
        classes += 1
        seen.add(start)
        stack = [start]
        while stack:
            h = stack.pop()
            for g, g_inv in conjugators:
                conj = law(g_inv, law(h, g))
                if conj not in seen:
                    seen.add(conj)
                    stack.append(conj)
    return classes


def baer_law(forms, m: int):
    """(x,y)(x',y') = (x+x', y+y'+(1/2) beta(x,x')) on (Z/m)^d x (Z/m)^l,
    beta the vector of the l alternating forms; m odd."""
    d = len(forms[0])
    half = pow(2, -1, m)
    terms = [[(i, j, c) for i, row in enumerate(f) for j, c in enumerate(row) if c]
             for f in forms]

    def law(a, b):
        xa, xb = a[:d], b[:d]
        x = tuple((u + v) % m for u, v in zip(xa, xb))
        y = tuple((ya + yb + half * sum(xa[i] * c * xb[j] for i, j, c in t)) % m
                  for ya, yb, t in zip(a[d:], b[d:], terms))
        return x + y

    return law


# ---------------------------------------------------------------------------
# Rectangular admissibility from the quantified definition.
# ---------------------------------------------------------------------------

def _is_closed(fibres: list[list], I: frozenset, J: frozenset) -> bool:
    for fibre in fibres:
        if any(i in I and j in J for (i, j) in fibre):
            if not all(i in I and j in J for (i, j) in fibre):
                return False
    return True


def exhaustive_rect_admissible(beta: PartialColouring) -> bool:
    """Quantify over ALL non-empty product subgrids: admissible iff every
    colour-closed one contains a blank cell."""
    rows = range(1, beta.d + 1)
    cols = range(1, beta.e + 1)
    fibres = [beta.fibre(colour) for colour in beta.colours()]
    for ri in range(1, beta.d + 1):
        for I in itertools.combinations(rows, ri):
            for rj in range(1, beta.e + 1):
                for J in itertools.combinations(cols, rj):
                    if (all((i, j) in beta.colour_of for i in I for j in J)
                            and _is_closed(fibres, frozenset(I), frozenset(J))):
                        return False
    return True


# ---------------------------------------------------------------------------
# Board-game oracle: exhaustive move-tree reachability.
# ---------------------------------------------------------------------------

def oracle_moves(master, I, J) -> list:
    """Legal moves at position (I, J), from the definitions.

    The board is I x J, less the diagonal for gamma.  In gamma and sigma
    (i, j) and (j, i) form one class; in rho each cell is its own class.
    A colour stays iff each of its classes meets the board; a move is a
    board cell that is blank or whose colour left, and whose class has no
    other cell on the board.
    """
    family = master.grid.family.value
    board = {(i, j) for i in I for j in J if family != "gamma" or i != j}

    def mates(cell):
        i, j = cell
        return {(i, j)} if family == "rho" else {(i, j), (j, i)}

    left = {colour for cell, colour in master.colour_of.items()
            if not mates(cell) & board}
    return sorted(cell for cell in board
                  if master.colour_of.get(cell) in left | {None}
                  and len(mates(cell) & board) == 1)


def exhaustive_game_clearable(master, I, J) -> bool:
    """Can SOME legal move sequence from (I, J) delete every column?
    Explores the whole move tree with memoisation on the column set."""
    seen: dict[frozenset, bool] = {}

    def explore(cols: frozenset) -> bool:
        if not cols:
            return True
        if cols in seen:
            return seen[cols]
        seen[cols] = False  # cycle guard; columns only shrink, so unused
        result = any(explore(cols - {cell[1]})
                     for cell in oracle_moves(master, I, cols))
        seen[cols] = result
        return result

    return explore(frozenset(J))


# ---------------------------------------------------------------------------
# Random instance generators (seeded by the caller).
# ---------------------------------------------------------------------------

def random_colouring(d: int, e: int, n_colours: int,
                     rng: random.Random) -> PartialColouring:
    names = [f"c{k}" for k in range(1, n_colours + 1)]
    colour_of = {}
    for i in range(1, d + 1):
        for j in range(1, e + 1):
            choice = rng.randrange(n_colours + 1)
            if choice:
                colour_of[(i, j)] = names[choice - 1]
    return PartialColouring(d, e, colour_of)


def random_symmetric_colouring(d: int, n_colours: int,
                               rng: random.Random) -> PartialColouring:
    names = [f"c{k}" for k in range(1, n_colours + 1)]
    colour_of = {}
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            choice = rng.randrange(n_colours + 1)
            if choice:
                colour_of[(i, j)] = names[choice - 1]
                colour_of[(j, i)] = names[choice - 1]
    return PartialColouring(d, d, colour_of)


def random_rep(max_shape: int, max_gens: int, rng: random.Random):
    from gridask.modrep import ModuleRep
    dI = rng.randrange(1, max_shape + 1)
    dJ = rng.randrange(1, max_shape + 1)
    k = rng.randrange(1, max_gens + 1)
    gens = tuple(
        tuple(tuple(rng.randrange(-3, 4) for _ in range(dJ)) for _ in range(dI))
        for _ in range(k))
    return ModuleRep(tuple(f"g{t}" for t in range(k)),
                     tuple(range(1, dI + 1)), tuple(range(1, dJ + 1)), gens)
