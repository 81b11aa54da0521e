"""Independent brute-force reference implementations used only by tests,
and the fixtures only tests need.

The oracles are written directly from the definitions, with no reuse of
the library's elimination or greedy-play code, so that agreement between
the two is meaningful evidence.  The blank-closure admissibility test
lives here only: it checks the library's one decider, the column-deletion
game.  The fixtures (matrix arithmetic, the Knuth companion, the symbolic
forms of criterion 10, the class-3 relation algebra, seeded units, rainbow
and transposed colourings, the colour closure and a view of the library's
move rule) build test inputs and are not checks in their own right.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, prod
from typing import NamedTuple

from gridask import boardgame, torus
from gridask.colouring import Cell, PartialColouring
from gridask.linalg import Mat
from gridask.modrep import ModuleRep, _alpha_basis, _alpha_gen, _freeze, _zero
from gridask.nilpotent import GradedAlgebra, _check_characteristic


# ---------------------------------------------------------------------------
# Matrix arithmetic (fixtures).
# ---------------------------------------------------------------------------

def mat_from_int_rows(ring, rows) -> Mat:
    return Mat(ring, len(rows), len(rows[0]) if rows else 0,
               tuple(ring.from_int(x) for row in rows for x in row))


def mat_zero(ring, rows: int, cols: int) -> Mat:
    return Mat(ring, rows, cols, (ring.zero,) * (rows * cols))


def mat_identity(ring, n: int) -> Mat:
    return Mat(ring, n, n, tuple(ring.one if i == j else ring.zero
                                 for i in range(n) for j in range(n)))


def mat_add(a: Mat, b: Mat) -> Mat:
    R = a.ring
    return Mat(R, a.rows, a.cols, tuple(R.add(x, y) for x, y in zip(a.entries, b.entries)))


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    R = a.ring
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = R.zero
            for k in range(a.cols):
                acc = R.add(acc, R.mul(a.row(i)[k], b.row(k)[j]))
            out.append(acc)
    return Mat(R, a.rows, b.cols, tuple(out))


def mat_transpose(m: Mat) -> Mat:
    return Mat(m.ring, m.cols, m.rows,
               tuple(m.row(i)[j] for j in range(m.cols) for i in range(m.rows)))


def act_left(m: Mat, x) -> tuple:
    """Row vector times matrix: (x m)_j = sum_i x_i m_ij."""
    R = m.ring
    out = []
    for j in range(m.cols):
        acc = R.zero
        for i in range(m.rows):
            acc = R.add(acc, R.mul(x[i], m.row(i)[j]))
        out.append(acc)
    return tuple(out)


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


def naive_field_rank(rows, field) -> int:
    """Textbook row reduction over a field, in its ring operations."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows))
                      if not field.is_zero(rows[r][col])), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        for r in range(rank + 1, len(rows)):
            c = field.mul(rows[r][col], inv)
            rows[r] = [field.sub(a, field.mul(c, b)) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def brute_kernel_size(m: Mat) -> int:
    """Count row vectors x with x m = 0 by full enumeration."""
    ring = m.ring
    zero = ring.from_int(0)
    count = 0
    for x in itertools.product(list(ring.elements()), repeat=m.rows):
        if all(v == zero for v in act_left(m, x)):
            count += 1
    return count


def brute_image_size(m: Mat) -> int:
    """Count distinct images x m by full enumeration."""
    images = set()
    for x in itertools.product(list(m.ring.elements()), repeat=m.rows):
        images.add(act_left(m, x))
    return len(images)


# ---------------------------------------------------------------------------
# Polynomials over finite fields.
# ---------------------------------------------------------------------------

def count_roots(coeffs, ring) -> int:
    """Roots in a finite field of an integer polynomial (low degree first),
    by evaluating it at every element."""
    count = 0
    for a in ring.elements():
        acc = ring.zero
        for c in reversed(coeffs):
            acc = ring.add(ring.mul(acc, a), ring.from_int(c))
        count += ring.is_zero(acc)
    return count


def _divides(f: list[int], g: list[int], p: int) -> bool:
    """Does the monic f divide g over F_p?  Schoolbook long division."""
    rem = [c % p for c in g]
    for top in range(len(rem) - 1, len(f) - 2, -1):
        c = rem[top]
        for k, fc in enumerate(f):
            rem[top - len(f) + 1 + k] = (rem[top - len(f) + 1 + k] - c * fc) % p
    return not any(rem)


def trial_division_irreducible(m: list[int], p: int) -> bool:
    """A monic m over F_p (low degree first) of degree >= 1 is irreducible
    iff no monic polynomial of degree 1 .. deg/2 divides it."""
    deg = len(m) - 1
    if deg < 1:
        return False
    for k in range(1, deg // 2 + 1):
        for low in itertools.product(range(p), repeat=k):
            if _divides(list(low) + [1], m, p):
                return False
    return True


# ---------------------------------------------------------------------------
# Closed-form series without division.
# ---------------------------------------------------------------------------

def _truncated_product(a: list, b: dict[int, Fraction]) -> list:
    n = len(a) - 1
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a):
        for k, y in b.items():
            if i + k <= n:
                out[i + k] += x * y
    return out


def geometric_series(pred, q: int, n: int) -> list[Fraction]:
    """T-coefficients c_0..c_n of a catalog prediction at q, never dividing:
    the numerator is multiplied by sum_j x^j T^(jk) for each denominator
    factor 1 - x T^k."""
    out = [Fraction(1)] + [Fraction(0)] * n
    for factor in pred.num:
        poly: dict[int, Fraction] = {}
        for c, a, k in factor:
            poly[k] = poly.get(k, Fraction(0)) + c * Fraction(q) ** a
        out = _truncated_product(out, poly)
    for (one, a0, k0), (minus, a, k) in pred.den:
        assert (one, a0, k0, minus) == (1, 0, 0, -1) and k >= 1
        x = Fraction(q) ** a
        out = _truncated_product(out, {j * k: x**j for j in range(n // k + 1)})
    return out


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


def naive_orbit_matrix(rep, ring, x) -> Mat:
    """C(x) formed entry by entry from the generators: entry (b, j) is
    sum_i x_i a_{bij}, every term taken in the ring."""
    entries = []
    for g in rep.gens:
        for j in range(len(rep.J)):
            acc = ring.zero
            for i, xi in enumerate(x):
                acc = ring.add(acc, ring.mul(xi, ring.from_int(g[i][j])))
            entries.append(acc)
    return Mat(ring, rep.rank, len(rep.J), tuple(entries))


def naive_element(rep, ring, coeffs) -> Mat:
    """sum_b c_b a_b formed entry by entry: entry (i, j) is sum_b c_b a_{bij},
    every term taken in the ring."""
    entries = []
    for i in range(len(rep.I)):
        for j in range(len(rep.J)):
            acc = ring.zero
            for c, g in zip(coeffs, rep.gens):
                acc = ring.add(acc, ring.mul(c, ring.from_int(g[i][j])))
            entries.append(acc)
    return Mat(ring, len(rep.I), len(rep.J), tuple(entries))


def knuth_bullet(rep: ModuleRep) -> ModuleRep:
    """The companion representation with basis J and shape I x B:
    generator j has entries b(j)_{ib} = a_{bij}, so its orbit matrix at v
    is C(v)^T (a fixture)."""
    gens = []
    for j in range(len(rep.J)):
        g = [[rep.gens[b][i][j] for b in range(rep.rank)]
             for i in range(len(rep.I))]
        gens.append(_freeze(g))
    return ModuleRep(tuple(rep.J), tuple(rep.I), tuple(rep.labels), tuple(gens))


def naive_orbit_ask(rep, ring) -> Fraction:
    """ask by the orbit identity, summed over every x in R^I: C(x) is formed
    straight from the generators, and its image is counted by vector
    enumeration."""
    total = Fraction(0)
    for x in itertools.product(list(ring.elements()), repeat=len(rep.I)):
        total += Fraction(1, brute_image_size(naive_orbit_matrix(rep, ring, x)))
    return total


def subspaces(field, d: int):
    """Each subspace of field^d once, as the rows of its reduced row-echelon
    basis: a pivot set, each row 1 at its pivot and 0 left of it and at the
    other pivots, and every other entry free."""
    values = tuple(field.elements())
    for j in range(d + 1):
        for pivots in itertools.combinations(range(d), j):
            free = [(r, c) for r, p in enumerate(pivots)
                    for c in range(p + 1, d) if c not in pivots]
            for fill in itertools.product(values, repeat=len(free)):
                rows = [[field.one if c == p else field.zero for c in range(d)]
                        for p in pivots]
                for (r, c), x in zip(free, fill):
                    rows[r][c] = x
                yield tuple(map(tuple, rows))


def subspace_rank_counts(rep, field) -> dict[int, int]:
    """Rank r -> the number of c in F_q^B with rank A(c) = r, by the plain
    subspace walk: U lies in the left kernel of A(c) exactly when
    c C(u) = 0 for each vector u of its basis, which holds for q^(B - s) of
    the c, s the rank of the columns of those C(u).  So every subspace U of
    F_q^I gives the moments S_j = sum_c [k(c) choose j]_q, k(c) = dim Ker A(c), and
    N_k = sum_(j >= k) (-1)^(j - k) q^((j - k)(j - k - 1)/2) [j choose k]_q S_j
    of the c have k(c) = k, and rank I - k."""
    q, d = field.cardinality(), len(rep.I)
    moments = [0] * (d + 1)
    for basis in subspaces(field, d):
        conditions = []  # the columns of each C(u), as rows
        for u in basis:
            m = naive_orbit_matrix(rep, field, u)
            conditions += zip(*map(m.row, range(m.rows)))
        moments[len(basis)] += q ** (rep.rank - naive_field_rank(conditions, field))

    def gaussian(n, k):
        return (prod(q ** (n - i) - 1 for i in range(k))
                // prod(q ** (i + 1) - 1 for i in range(k)))

    counts = {}
    for k in range(d + 1):
        n = sum((-1) ** (j - k) * q ** ((j - k) * (j - k - 1) // 2) * gaussian(j, k)
                * moments[j] for j in range(k, d + 1))
        if n:
            counts[d - k] = n
    return counts


# ---------------------------------------------------------------------------
# Certifier oracles: every point of F_p^I, or every seeded draw from
# (Z/p^n)^I.
# ---------------------------------------------------------------------------

def _orbit_rows(rep, x) -> list[list[int]]:
    """C(x) over the integers: entry (b, j) is sum_i x_i a_{bij}."""
    return [[sum(xi * g[i][j] for i, xi in enumerate(x)) for j in range(len(rep.J))]
            for g in rep.gens]


def _field_profile(rep, x, p: int) -> tuple[int, int]:
    """(zeros, ones) of the divisor profile of C(x) over F_p: the rank r of
    C(x), then min(B, J) - r."""
    r = naive_rank_modp(_orbit_rows(rep, x), p)
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


def naive_divisor_profile(int_rows: list[list[int]], p: int, n: int) -> tuple[int, ...]:
    """Sorted Smith valuations over Z/p^n, capped at n, of an integer matrix.

    An entry of least valuation v clears its column by row operations; every
    other entry of its row is then a multiple of p^v, so column operations
    clear the row without touching the rest.  Record v, delete the row and
    the column, and repeat until only zeros are left.
    """
    m = p**n

    def val(a: int) -> int:
        v = 0
        while v < n and a % p ** (v + 1) == 0:
            v += 1
        return v

    a = [[x % m for x in row] for row in int_rows]
    size = min(len(a), len(a[0])) if a else 0
    profile = []
    while a and a[0]:
        v, r, c = min((val(x), r, c) for r, row in enumerate(a) for c, x in enumerate(row))
        if v == n:
            break
        inv = pow(a[r][c] // p**v, -1, m)
        a = [[(x - (row[c] // p**v) * inv * y) % m
              for k, (x, y) in enumerate(zip(row, a[r])) if k != c]
             for s, row in enumerate(a) if s != r]
        profile.append(v)
    return tuple(sorted(profile + [n] * (size - len(profile))))


def seeded_draws(p: int, n: int, dim: int, samples: int, seed: int,
                 all_units: bool) -> list[tuple]:
    """The sampled certifiers' draws from (Z/p^n)^dim: random.Random(seed)
    picks each coordinate from the units in increasing order (all_units) or
    from 0..p^n - 1, drawing the whole point again until some coordinate is
    a unit.  Over (Z/p^n)^0 only all_units draws anything: the empty point,
    `samples` times."""
    rng = random.Random(seed)
    units = [a for a in range(p**n) if a % p]
    elems = list(range(p**n))
    draws = []
    for _ in range(samples if dim or all_units else 0):
        if all_units:
            draws.append(tuple(rng.choice(units) for _ in range(dim)))
            continue
        x = tuple(rng.choice(elems) for _ in range(dim))
        while not any(c % p for c in x):
            x = tuple(rng.choice(elems) for _ in range(dim))
        draws.append(x)
    return draws


def naive_sampled_constant_rank(rep, p: int, n: int, l: int, samples: int,
                                seed: int) -> tuple[int, list]:
    """(draws checked, violations in draw order): (x, profile of C(x)) at
    every draw where coker C(x) is not (Z/p^n)^l, that is where the profile
    has a valuation strictly between 0 and n or |J| - #zeros != l."""
    draws = seeded_draws(p, n, len(rep.I), samples, seed, False)
    bad = []
    for x in draws:
        prof = naive_divisor_profile(_orbit_rows(rep, x), p, n)
        if any(0 < v < n for v in prof) or len(rep.J) - prof.count(0) != l:
            bad.append((x, prof))
    return len(draws), bad


def naive_sampled_orbital(big, sub, p: int, n: int, samples: int,
                          seed: int) -> tuple[int, list]:
    """(draws checked, violations in draw order): (x, both profiles) at
    every draw, all coordinates units, where the two C(x) differ in profile."""
    draws = seeded_draws(p, n, len(big.I), samples, seed, True)
    bad = []
    for x in draws:
        profs = tuple(naive_divisor_profile(_orbit_rows(rep, x), p, n) for rep in (big, sub))
        if profs[0] != profs[1]:
            bad.append((x,) + profs)
    return len(draws), bad


def torus_orbit(ring, weights, x) -> frozenset:
    """The orbit of the point x under the torus of the weight vectors, by
    breadth-first closure: a step multiplies every coordinate x_i by
    u^(a_i), for a weight vector a and any unit u of the ring."""
    def power(u, e):
        out = ring.one
        for _ in range(abs(e)):
            out = ring.mul(out, u)
        return out if e >= 0 else ring.inv(out)

    steps = [tuple(power(u, e) for e in a) for a in weights for u in ring.units()]
    seen = {tuple(x)}
    frontier = [tuple(x)]
    while frontier:
        y = frontier.pop()
        for step in steps:
            z = tuple(ring.mul(s, c) for s, c in zip(step, y))
            if z not in seen:
                seen.add(z)
                frontier.append(z)
    return frozenset(seen)


def pattern_orbits(weights, ring, dim: int, all_units: bool):
    """Torus.orbits as one lattice per valuation pattern: every v in
    lexicographic order with every (all_units) or some coordinate a unit,
    L_S built whole by torus._lattice, and the points of its box 0 <= l < h
    yielded with the orbit size prod ord / prod h."""
    units, zero = torus._Units(ring), [ring.zero]
    for v in itertools.product(range(1 if all_units else ring.cap + 1), repeat=dim):
        if not all_units and 0 not in v:
            continue
        support, bases = torus._lattice(weights, ring, v)
        size = prod(prod(o) // prod(h[j] for j, h in enumerate(b)) for o, b in bases)
        values = [zero] * dim
        for pos, i in enumerate(support):
            values[i] = [units.join(v[i], logs) for logs in
                         itertools.product(*(range(b[pos][pos]) for _, b in bases))]
        for x in itertools.product(*values):
            yield x, size


def naive_incidence_kernel(*reps) -> list[tuple[int, ...]]:
    """An integer basis of the solutions (a, b_1, c_1, b_2, c_2, ..) of
    a_i = b_g + c_j at every nonzero gens[g][i][j] of each rep, by one
    elimination over every unknown: the images of the unit vectors under
    the 0/+-1 equations are row-reduced with each vector carried along,
    and the vectors whose image ends at 0 span the integer kernel."""
    width = len(reps[0].I)
    equations = []
    for rep in reps:
        b0, c0 = width, width + rep.rank
        width = c0 + len(rep.J)
        equations += [(i, b0 + g, c0 + j) for g, gen in enumerate(rep.gens)
                      for i, row in enumerate(gen) for j, e in enumerate(row) if e]
    rows = [(list(unit), [unit[i] - unit[b] - unit[c] for i, b, c in equations])
            for unit in (tuple(int(k == r) for k in range(width)) for r in range(width))]
    top = 0
    for col in range(len(equations)):
        while any(rows[r][1][col] for r in range(top, width)):
            best = min((r for r in range(top, width) if rows[r][1][col]),
                       key=lambda r: abs(rows[r][1][col]))
            rows[top], rows[best] = rows[best], rows[top]
            pivot = rows[top]
            for r in range(top + 1, width):
                q = rows[r][1][col] // pivot[1][col]
                if q:
                    rows[r] = tuple([x - q * y for x, y in zip(part, piv)]
                                    for part, piv in zip(rows[r], pivot))
            if not any(rows[r][1][col] for r in range(top + 1, width)):
                top += 1
    return [tuple(vec) for vec, _ in rows[top:]]


def integer_row_echelon(rows) -> list[list[int]]:
    """A row-echelon basis over Z of the integer span of rows: column by
    column, Euclid's steps on the rows live there leave one, and the rest
    pass on to the later columns."""
    rows, basis = [list(r) for r in rows], []
    for col in range(len(rows[0]) if rows else 0):
        live, rows = [r for r in rows if r[col]], [r for r in rows if not r[col]]
        while len(live) > 1:
            pivot, *others = sorted(live, key=lambda r: abs(r[col]))
            others = [[x - r[col] // pivot[col] * y for x, y in zip(r, pivot)] for r in others]
            rows += [r for r in others if not r[col]]
            live = [pivot] + [r for r in others if r[col]]
        basis += live
    return basis


def in_integer_span(rows, v) -> bool:
    """Whether v is an integer combination of rows."""
    v = list(v)
    for b in integer_row_echelon(rows):
        col = next(j for j, x in enumerate(b) if x)
        if v[col] % b[col]:
            return False
        q = v[col] // b[col]
        v = [x - q * y for x, y in zip(v, b)]
    return not any(v)


# ---------------------------------------------------------------------------
# The class-3 relation algebra and its Jacobi quotient: an independent
# construction of the free class-3 Lie algebra.
# ---------------------------------------------------------------------------

def jacobi_defect(alg, a: int, b: int, c: int) -> dict[int, int]:
    """[[a,b],c] + [[b,c],a] + [[c,a],b] as a sparse integer vector."""
    out: dict[int, int] = {}
    for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
        for i, ci in alg.product_basis(x, y):
            for j, cj in alg.product_basis(i, z):
                out[j] = out.get(j, 0) + ci * cj
    return {k: v for k, v in out.items() if v}


def is_lie(alg) -> bool:
    n = alg.dim
    return all(not jacobi_defect(alg, a, b, c)
               for a in range(n) for b in range(n) for c in range(n))


def grading(alg) -> tuple[int, int, int]:
    """The dimensions of the degree-1, 2 and 3 parts."""
    return tuple(alg.degrees.count(k) for k in (1, 2, 3))


def _add_pair(structure: dict, a: int, b: int, vec) -> None:
    structure[(a, b)] = vec
    structure[(b, a)] = tuple((i, -c) for i, c in vec)


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
    structure: dict = {}
    for i, j in pairs:
        _add_pair(structure, pos[("x", i)], pos[("x", j)], ((pos[("p", (i, j))], 1),))
    for h in range(1, d + 1):
        for pr in pairs:
            _add_pair(structure, pos[("x", h)], pos[("p", pr)],
                      ((pos[("t", (h, pr))], 1),))
    return GradedAlgebra(tuple(labels), tuple(degrees), structure)


def jacobi_quotient(alg) -> GradedAlgebra:
    """Quotient of the a_d algebra by the degree-3 Jacobi elements
    t_{(i, j<k)} - t_{(j, i<k)} + t_{(k, i<j)}; for each triple the
    basis element t_{(max, pair)} is eliminated."""
    subs: dict = {}
    pos = {lab: t for t, lab in enumerate(alg.labels)}
    kept = list(range(alg.dim))
    d = grading(alg)[0]
    for a, b, c in itertools.combinations(range(1, d + 1), 3):
        drop = pos[("t", (c, (a, b)))]
        subs[drop] = ((pos[("t", (b, (a, c)))], 1), (pos[("t", (a, (b, c)))], -1))
        kept.remove(drop)
    new_index = {old: new for new, old in enumerate(kept)}

    def rewrite(vec):
        acc: dict[int, int] = {}
        for i, c in vec:
            if i in subs:
                for i2, c2 in subs[i]:
                    acc[i2] = acc.get(i2, 0) + c * c2
            else:
                acc[i] = acc.get(i, 0) + c
        return tuple((new_index[i], c) for i, c in sorted(acc.items()) if c)

    structure: dict = {}
    for (a, b), vec in alg.structure.items():
        if a in subs or b in subs:
            continue  # dropped elements are degree 3: their products vanish
        new_vec = rewrite(vec)
        if new_vec:
            structure[(new_index[a], new_index[b])] = new_vec
    return GradedAlgebra(tuple(alg.labels[t] for t in kept),
                         tuple(alg.degrees[t] for t in kept), structure)


# ---------------------------------------------------------------------------
# Conjugacy-class oracle and the group laws it sweeps.
# ---------------------------------------------------------------------------

def _bracket(alg, ring, x, y) -> list:
    """[x, y] = sum_{a,b} x_a y_b [e_a, e_b] from the structure constants."""
    out = [ring.zero] * alg.dim
    for a in range(alg.dim):
        if ring.is_zero(x[a]):
            continue
        for b in range(alg.dim):
            if ring.is_zero(y[b]):
                continue
            xy = ring.mul(x[a], y[b])
            for i, c in alg.product_basis(a, b):
                out[i] = ring.add(out[i], ring.mul(xy, ring.from_int(c)))
    return out


def adjoint_rep(alg) -> ModuleRep:
    """The whole adjoint module, central basis elements included: generator
    b is the matrix of x |-> x e_b on the basis."""
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


def bch_multiply(alg, ring, x, y) -> tuple:
    """Truncated BCH product x + y + (1/2)[x,y] + (1/12)[x,[x,y]] + (1/12)[y,[y,x]],
    exact up to class 3, under the library's characteristic rule
    (BadCharacteristic unless p exceeds the class)."""
    nil_class = max(alg.degrees, default=1)
    if nil_class > 3:
        raise ValueError(f"the BCH truncation is exact up to class 3, not {nil_class}")
    _check_characteristic(nil_class, ring)
    br = _bracket(alg, ring, x, y)
    half = ring.inv(ring.from_int(2))
    out = [ring.add(ring.add(a, b), ring.mul(half, c)) for a, b, c in zip(x, y, br)]
    if nil_class == 3:
        twelfth = ring.inv(ring.from_int(12))
        xxy = _bracket(alg, ring, x, br)
        yyx = _bracket(alg, ring, y, [ring.sub(ring.zero, c) for c in br])
        out = [ring.add(o, ring.mul(twelfth, ring.add(a, b)))
               for o, a, b in zip(out, xxy, yyx)]
    return tuple(out)


def bch_inverse(alg, ring, x) -> tuple:
    """-x, the inverse of x in the BCH group."""
    return tuple(ring.sub(ring.zero, c) for c in x)


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


def class_number_F3d(d: int, q: int) -> int:
    """Number of conjugacy classes of the free class-3 d-generator group
    over a residue field with q elements (T-coefficient of F3d_cc), from
    its own closed form."""
    shift = (d - 2) * d * (d + 2) // 3
    return q**shift * (q**comb(d, 2) + q**(d + 1) + q**d - q - 1)


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
# Rectangular admissibility: the quantified definition, and the
# blank-closure test that checks single-cell closures only.
# ---------------------------------------------------------------------------

Subgrid = tuple[tuple[int, ...], tuple[int, ...]]


def is_blank(beta: PartialColouring, cell: Cell) -> bool:
    return cell not in beta.colour_of


def fibre(beta: PartialColouring, colour: str) -> list[Cell]:
    return sorted(c for c, col in beta.colour_of.items() if col == colour)


def _closure(fibres: list[list[Cell]], seed: Subgrid) -> Subgrid:
    """Smallest colour-closed product subgrid containing the seed, from the
    colouring's fibres.

    Iterates to a fixpoint: whenever a colour appears inside the current
    I' x J', all rows and columns met by that colour's fibre are added.
    """
    I = set(seed[0])
    J = set(seed[1])
    changed = True
    while changed:
        changed = False
        for cells in fibres:
            if any(i in I and j in J for (i, j) in cells):
                for (i, j) in cells:
                    if i not in I:
                        I.add(i)
                        changed = True
                    if j not in J:
                        J.add(j)
                        changed = True
    return (tuple(sorted(I)), tuple(sorted(J)))


def has_blank(beta: PartialColouring, sub: Subgrid) -> bool:
    return any(is_blank(beta, (i, j)) for i in sub[0] for j in sub[1])


class RectVerdict(NamedTuple):
    admissible: bool
    witness: Subgrid | None = None  # a blank-free colour-closed subgrid


def is_admissible_rect(beta: PartialColouring) -> RectVerdict:
    """Blank-closure admissibility test.

    The colouring is admissible iff the closure of every coloured cell
    contains a blank cell: any blank-free closed subgrid contains the
    closure of each of its cells, so checking single-cell closures
    suffices.
    """
    fibres = [fibre(beta, c) for c in beta.colours()]
    for cell in sorted(beta.colour_of):
        closure = _closure(fibres, ((cell[0],), (cell[1],)))
        if not has_blank(beta, closure):
            return RectVerdict(False, closure)
    return RectVerdict(True)


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
    fibres = [fibre(beta, colour) for colour in beta.colours()]
    for ri in range(1, beta.d + 1):
        for I in itertools.combinations(rows, ri):
            for rj in range(1, beta.e + 1):
                for J in itertools.combinations(cols, rj):
                    if (all((i, j) in beta.colour_of for i in I for j in J)
                            and _is_closed(fibres, frozenset(I), frozenset(J))):
                        return False
    return True


def is_colour_closed(beta: PartialColouring, sub) -> bool:
    fibres = [fibre(beta, colour) for colour in beta.colours()]
    return _is_closed(fibres, frozenset(sub[0]), frozenset(sub[1]))


# ---------------------------------------------------------------------------
# Colouring fixtures.
# ---------------------------------------------------------------------------

def colour_closure(beta: PartialColouring, seed):
    """The smallest colour-closed product subgrid containing the seed, read
    off the colouring's fibres."""
    return _closure([fibre(beta, c) for c in beta.colours()], seed)


def transpose_colouring(beta: PartialColouring) -> PartialColouring:
    return PartialColouring(beta.e, beta.d,
                            {(j, i): c for (i, j), c in beta.colour_of.items()})


def rainbow_colouring(b: int, d: int) -> PartialColouring:
    """Symmetric d x d colouring with colour "c{a}" on the pairs {i, i+a},
    1 <= a <= b, i + a <= d (off-diagonal bands, one colour per offset)."""
    colour_of = {}
    for a in range(1, b + 1):
        for i in range(1, d - a + 1):
            colour_of[(i, i + a)] = f"c{a}"
            colour_of[(i + a, i)] = f"c{a}"
    return PartialColouring(d, d, colour_of)


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


def legal_moves(master, H, cols) -> list:
    """The library's moves at position (H, cols), row-major: the cells of
    the mask that boardgame's one rule, `_moves`, leaves on the board."""
    masks = master.masks
    moves = boardgame._moves(masks, boardgame._board(masks, H, cols))
    return [cell for k, cell in enumerate(masks.cells) if moves >> k & 1]


def replay_certificate(master, cert) -> bool:
    """Check that the recorded moves are legal and clear all columns."""
    cols = [j for j in master.grid.J if j not in set(cert.D)]
    for cell, col in cert.moves:
        if cell != (cell[0], col) or cell not in legal_moves(master, cert.H, cols):
            return False
        cols.remove(col)
    return not cols


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
# Relation modules from the definition.
# ---------------------------------------------------------------------------

def family_classes(family: str, I, J) -> list[frozenset]:
    """Cell classes of the family grid on (I, J): the cells of I x J, less
    the diagonal for gamma; (i, j) and (j, i) form one class in gamma and
    sigma, and every cell is a class of its own in rho."""
    cells = {(i, j) for i in I for j in J if family != "gamma" or i != j}
    if family == "rho":
        return [frozenset([cell]) for cell in cells]
    return list({frozenset({(i, j), (j, i)} & cells) for (i, j) in cells})


def class_values(g, I, J, family: str, classes) -> list[int] | None:
    """The value of the integer matrix g (rows I, columns J) on each class:
    its entry at a cell (i, j) with i <= j, and the family sign (-1 for
    gamma, +1 otherwise) times its entry at a cell with i > j.  None when g
    is nonzero off the cells, or two cells of a class disagree."""
    sign = -1 if family == "gamma" else 1
    entry = {(i, j): g[a][b] for a, i in enumerate(I) for b, j in enumerate(J)}
    values = []
    for cls in classes:
        signed = {entry.pop(cell) * (1 if cell[0] <= cell[1] else sign) for cell in cls}
        if len(signed) != 1:
            return None
        values.append(signed.pop())
    return None if any(entry.values()) else values


def alphahat_by_hand(d: int):
    """alphahat_rep(d) built generator by generator: the pair generators,
    then for each h and pair p = (i, j) in order the generator (h, p) when
    h is in p, and for the triple a < b < c of h, i, j the combination
    (a, {b, c}) - (c, {a, b}) at h = a and (b, {a, c}) + (c, {a, b}) at
    h = b."""
    basis = _alpha_basis(d)
    pairs = list(itertools.combinations(range(1, d + 1), 2))
    labels = [("pair", p) for p in pairs]
    gens = [_alpha_gen(d, basis, "pair", p) for p in pairs]

    def hp(h, p):
        return _alpha_gen(d, basis, "hp", (h, p))

    def add(a, b, sign: int):
        return tuple(tuple(x + sign * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

    for h in range(1, d + 1):
        for p in pairs:
            a, b, c = sorted((h, *p))
            if h in p:
                labels.append(("hp", (h, p)))
                gens.append(hp(h, p))
            elif h == a:
                labels.append(("hp-", (h, p)))
                gens.append(add(hp(h, p), hp(c, (a, b)), -1))
            elif h == b:
                labels.append(("hp+", (h, p)))
                gens.append(add(hp(h, p), hp(c, (a, b)), +1))
    return ModuleRep(tuple(labels), basis, basis, tuple(gens))


def circ_forms(rep) -> list[list[dict[int, int]]]:
    """Symbolic C(X_I): entry (b, j) as {row index i: coefficient}."""
    return [[{i: g[i][j] for i in range(len(rep.I)) if g[i][j]}
             for j in range(len(rep.J))] for g in rep.gens]


def matrix_forms(rep) -> list[list[dict[int, int]]]:
    """Symbolic A(X_B): entry (i, j) as {generator index b: coefficient}."""
    return [[{b: g[i][j] for b, g in enumerate(rep.gens) if g[i][j]}
             for j in range(len(rep.J))] for i in range(len(rep.I))]


# ---------------------------------------------------------------------------
# Random instance generators (seeded by the caller).
# ---------------------------------------------------------------------------

def random_unit_assignment(d: int, e: int, q: int, rng: random.Random) -> dict:
    """Random unit matrix for F_q checks: entries uniform in 1..q-1."""
    return {(i, j): rng.randrange(1, q) for i in range(1, d + 1) for j in range(1, e + 1)}


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
    dI = rng.randrange(1, max_shape + 1)
    dJ = rng.randrange(1, max_shape + 1)
    k = rng.randrange(1, max_gens + 1)
    gens = tuple(
        tuple(tuple(rng.randrange(-3, 4) for _ in range(dJ)) for _ in range(dI))
        for _ in range(k))
    return ModuleRep(tuple(f"g{t}" for t in range(k)),
                     tuple(range(1, dI + 1)), tuple(range(1, dJ + 1)), gens)
