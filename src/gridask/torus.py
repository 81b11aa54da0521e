"""The diagonal torus of a module: the symmetry every orbit sum and
certifier quotients by.

Take integer weights a on I, b on the generators and c on J with
a_i = b_g + c_j wherever gens[g][i][j] != 0.  For every unit t,
C(t.x) = diag(t^b) C(x) diag(t^c), where (t.x)_i = t^(a_i) x_i, so t.x has
the divisor profile of x.  The solutions are potentials phi on the graph
that joins generator g to column j by an edge labelled i for each nonzero
gens[g][i][j]: b_g = phi(g) and c_j = -phi(j), with phi(g) - phi(j) = a_i
on every edge.  A spanning forest fixes phi from a, each edge off it
closes a cycle whose signed labels must sum to 0, and the weights are a
basis of the integer kernel of these cycle relations (incidence_kernel);
a = 1, b = 0, c = 1 always solves the system, and is unit scaling.
Several reps on one I (the certifiers) share a and keep their own b and c.

Orbits.  Over R = Z/p^n write x_i = p^(v_i) u_i, the unit u_i taken mod
p^(n - v_i) (v_i = n means x_i = 0).  The ring supplies generators whose
powers give the units of every level Z/p^m, and their orders there
(Ring.unit_generators and Ring.unit_orders): the least unit of full order
for odd p and for F_q, and -1 and 5 for p = 2.  The same generators
serve every valuation, so the logs l_i of u_i (one per generator) on
coordinates of different valuation share a base.
A torus element t = gen^m adds sum_s m_s a^s_i to l_i, so with the
valuations fixed, the orbit of l (one generator at a time) is l + L_S:
L_S is spanned by the weights restricted to the support S and by
ord_i e_i, ord_i the order of the generator mod p^(n - v_i).  A triangular
basis H of L_S (echelon) with diagonal h meets each coset of L_S in one
point of the box 0 <= l_i < h_i, which is the orbit's representative,
and gives the orbit size prod ord_i / prod h_i.  Torus.representative
takes any point of the orbit to it: subtracting l_j // h_j times the j-th
basis row, column by column, leaves the earlier columns in the box.  The box is a
product over coordinates and h_i depends only on v_0 .. v_i, so orbits
walks the patterns depth-first: v_i = 0 .. n extends the parent's echelon
by one column per generator, on rows reduced mod the top order (which
every level's order divides, so top e_i lies in L_S whatever v_i is), and
a leaf is the product of per-coordinate value lists: 0 off the support,
and p^(v_i) times the unit of every log below h on it.  The diagonal of
a triangular basis is fixed by its lattice, so the walk's box is the one
representative reduces into.  A leaf holds prod h orbits, and orbit_count
counts them without building a point.
"""
from __future__ import annotations

import itertools
from functools import cached_property, partial
from math import prod
from operator import mul
from typing import Sequence

from .rings import Ring


def incidence_kernel(*reps) -> list[tuple[int, ...]]:
    """An integer basis of the solutions (a, b_1, c_1, b_2, c_2, ..) of
    a_i = b_g + c_j at every nonzero gens[g][i][j] of each rep, with a on
    the reps' shared I: first vectors whose a-parts are a basis of the
    a-lattice, the integer kernel of the cycle relations of a spanning
    forest of the incidence graph (each rep on its own nodes), then one
    vector with a = 0 per connected component, where b = 1 and c = -1.
    Each vector is checked against every equation."""
    dI = width = len(reps[0].I)
    equations, signs = [], [0] * dI
    for rep in reps:
        b0, c0 = width, width + rep.rank
        width = c0 + len(rep.J)
        signs += [1] * rep.rank + [-1] * len(rep.J)
        equations += [(i, b0 + g, c0 + j) for g, gen in enumerate(rep.gens)
                      for i, row in enumerate(gen) for j, e in enumerate(row) if e]
    edges = [[] for _ in range(width)]  # node -> (neighbour, label, sign of e_label)
    for i, g, j in equations:
        edges[g].append((j, i, -1))
        edges[j].append((g, i, 1))
    # phi(node) as a linear form in a, 0 at each root; an edge off the
    # forest, met from its lower end, adds its cycle relation to the
    # images of the e_i (one that reads 0 = 0 is passed over)
    phi, components, images = [None] * width, [], [[] for _ in range(dI)]
    for root in range(dI, width):
        if phi[root] is not None:
            continue
        phi[root], stack, component = [0] * dI, [root], [root]
        while stack:
            node = stack.pop()
            for other, i, sign in edges[node]:
                step = phi[node][:]
                step[i] += sign
                if phi[other] is None:
                    phi[other] = step
                    stack.append(other)
                    component.append(other)
                elif node < other and step != phi[other]:
                    for image, x, y in zip(images, step, phi[other]):
                        image.append(x - y)
        components.append(component)
    kernel = [tuple(a) + tuple(s * sum(map(mul, f, a)) for s, f in zip(signs[dI:], phi[dI:]))
              for a in _integer_kernel(images)]
    for component in components:
        vec = [0] * width
        for k in component:
            vec[k] = signs[k]
        kernel.append(tuple(vec))
    for vec in kernel:
        if any(vec[i] != vec[b] + vec[c] for i, b, c in equations):
            raise RuntimeError(f"torus weight {vec} fails the incidence system")
    return kernel


def _integer_kernel(images: Sequence[Sequence[int]]) -> list[list[int]]:
    """An integer basis of the a with sum_r a_r images[r] = 0: the unit
    vectors, each carried along with its image, are row-reduced one image
    column at a time, and those whose image ends at 0 span the kernel."""
    width = len(images)
    rows = [([int(k == r) for k in range(width)], image) for r, image in enumerate(images)]
    top = 0
    for col in range(len(images[0]) if images else 0):
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
    return [vec for vec, _ in rows[top:]]


def weights(*reps) -> tuple[tuple[int, ...], ...]:
    """A basis of the a-lattice of the reps' incidence kernel: independent
    vectors on I whose torus elements keep the divisor profile of every
    rep's C(x)."""
    dI = len(reps[0].I)
    return tuple(vec[:dI] for vec in incidence_kernel(*reps) if any(vec[:dI]))


def echelon(rows: Sequence[Sequence[int]], ords: Sequence[int]) -> list[list[int]]:
    """A triangular basis h_1 .. h_d of the lattice spanned by rows and the
    ord_j e_j: h_j is 0 before column j, 0 < h_j[j] divides ord_j, and its
    later entries are reduced mod their ord.  Where h_j[j] = ord_j, no row
    reached column j, and h_j = ord_j e_j."""
    basis = []
    rows = [[x % o for x, o in zip(r, ords)] for r in rows]
    for j, o in enumerate(ords):
        _, pivot, rows = _column(rows, j, o, ords)
        basis.append(pivot)
    return basis


def _column(rows, j: int, o: int, mods: Sequence[int]):
    """One column of echelon: (h, pivot, rest).  Each row with r[j] != 0 mod o
    is folded into the pivot, which starts as o e_j, by a unimodular pair of
    combinations that leaves gcd(h, r[j]) and 0; h is the pivot's diagonal,
    rest the rows nonzero past column j, every entry reduced mod mods."""
    pivot, h, rest = [o * (k == j) for k in range(len(mods))], o, []
    for r in rows:
        b = r[j] % o
        if b:
            g, s, t = _xgcd(h, b)
            pivot, r = ([(s * x + t * y) % m for x, y, m in zip(pivot, r, mods)],
                        [(h // g * y - b // g * x) % m for x, y, m in zip(pivot, r, mods)])
            h = g
        if any(r[j + 1:]):
            rest.append(r)
    return h, pivot, rest


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s a + t b, for a > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, (a, b) = a // b, (b, a % b)
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


class _Table(dict):
    """A dict that fills a missing entry with fill(key)."""

    def __init__(self, fill) -> None:
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Units:
    """The units of every level of ring as products of powers of the ring's
    unit generators, with the logs of any element."""

    def __init__(self, ring: Ring) -> None:
        self.ring, self.n, self.gens = ring, ring.cap, ring.unit_generators()

    def join(self, v: int, logs: Sequence[int]):
        """p^v times the unit with these logs at level n - v (0 when v = n)."""
        ring = self.ring
        if v == self.n:
            return ring.zero
        u = ring.from_int(ring.p ** v)
        for g, l in zip(self.gens, logs):
            u = ring.mul(u, ring.pow(g, l))
        return u

    def split(self, a) -> tuple[int, tuple[int, ...]]:
        """(v, logs) with a = join(v, logs), logs reduced mod the unit orders
        of level n - v."""
        v = self.ring.valuation(a)
        if v == self.n:
            return v, ()
        logs = self._logs[self.ring.exact_div(a, v)]
        return v, tuple(l % o for l, o in zip(logs, self.ring.unit_orders(self.n - v)))

    @cached_property
    def _logs(self) -> dict:
        """Unit -> logs at the top level.  A unit of a lower level, read as
        an element of the top level, is a unit there, and its logs there
        reduce to its logs at its own level."""
        return {self.join(0, logs): logs for logs in
                itertools.product(*map(range, self.ring.unit_orders(self.n)))}


def _lattice(weights, ring: Ring, v: tuple[int, ...]):
    """(support, [(ords, basis) per generator]) for the points with
    valuations v: L_S for each generator of the units."""
    n = ring.cap
    support = [i for i, vi in enumerate(v) if vi < n]
    rows = [[w[i] for i in support] for w in weights]
    ords = list(zip(*(ring.unit_orders(n - v[i]) for i in support)))
    return support, [(o, echelon(rows, o)) for o in ords]


class Torus:
    """The torus of the weights acting on the points of ring^dim: the
    representative and the size of each orbit, the number of orbits, the
    representative of any point's orbit, and the points of an orbit."""

    def __init__(self, weights: Sequence[Sequence[int]], ring: Ring) -> None:
        self.weights, self.ring, self.units = weights, ring, _Units(ring)
        # no fill refers to self, so no cycle keeps a Torus's tables alive
        self._lattices = _Table(partial(_lattice, weights, ring))
        self._splits = _Table(self.units.split)

    def _point(self, v, support, logs) -> tuple:
        """The point with valuations v and, on the support, these logs (one
        vector over the support per generator)."""
        x = [self.ring.zero] * len(v)
        for pos, i in enumerate(support):
            x[i] = self.units.join(v[i], [l[pos] for l in logs])
        return tuple(x)

    def _split(self, x):
        """(valuations, [logs over the support per generator], lattice) of x."""
        parts = [self._splits[c] for c in x]
        v = tuple(vi for vi, _ in parts)
        lattice = self._lattices[v]
        logs = [[parts[i][1][g] for i in lattice[0]] for g in range(len(lattice[1]))]
        return v, logs, lattice

    def _walk(self, dim: int, all_units: bool, coordinate):
        """(leaf, orbit size) at each leaf of the depth-first walk of Orbits
        above, in lexicographic order of v: leaf holds coordinate(v_i, h)
        for each coordinate i, h its diagonals (one per generator, () off
        the support, where v_i = n), and the leaf's orbits are the product
        over coordinates of p^(v_i) times the units of the logs below h."""
        ring, n = self.ring, self.ring.cap
        tops, levels = ring.unit_orders(n), [ring.unit_orders(n - v) for v in range(n)]

        def walk(i, leaf, states, size, unit):
            if i == dim:
                if unit:
                    yield leaf, size
                return
            for v in range(1 if all_units or (i == dim - 1 and not unit) else n + 1):
                if v == n:
                    yield from walk(i + 1, leaf + (coordinate(n, ()),), states, size, unit)
                    continue
                hs, _, rests = zip(*[_column(rows, i, o, [top] * dim)
                                     for rows, o, top in zip(states, levels[v], tops)])
                yield from walk(i + 1, leaf + (coordinate(v, hs),), rests,
                                size * prod(levels[v]) // prod(hs), unit or v == 0)

        states = [[[w % top for w in row] for row in self.weights] for top in tops]
        return walk(0, (), states, 1, all_units)

    def orbits(self, dim: int, all_units: bool):
        """(x, |orbit of x|) for one point x of each orbit on the points of
        ring^dim with every coordinate (all_units) or some coordinate a unit,
        in lexicographic order of v."""
        values = _Table(lambda key: [self.units.join(key[0], logs)
                                     for logs in itertools.product(*map(range, key[1]))])
        for lists, size in self._walk(dim, all_units, lambda v, hs: values[v, hs]):
            for x in itertools.product(*lists):
                yield x, size

    def orbit_count(self, dim: int, all_units: bool, stop: int | None = None) -> int:
        """The number of orbits that orbits(dim, all_units) yields, read off
        the leaves' diagonals without building a point.  Every leaf holds an
        orbit, so with stop the count ends at the first leaf that takes it
        past stop, after at most stop + 1 leaves."""
        count = 0
        for leaf, _ in self._walk(dim, all_units, lambda v, hs: prod(hs)):
            count += prod(leaf)
            if stop is not None and count > stop:
                break
        return count

    def representative(self, x) -> tuple:
        """The point orbits() yields for the orbit of x: each generator's
        logs reduced into the box of L_S, one column at a time."""
        v, logs, (support, bases) = self._split(x)
        for l, (ords, basis) in zip(logs, bases):
            for j, h in enumerate(basis):
                q = l[j] // h[j]
                if q:
                    l[j:] = [(y - q * z) % o for y, z, o in zip(l[j:], h[j:], ords[j:])]
        return self._point(v, support, logs)

    def orbit(self, x) -> list:
        """Every point of the orbit of x: its logs plus each element of the
        lattice modulo the ords."""
        v, logs, (support, bases) = self._split(x)
        cosets = []
        for start, (ords, basis) in zip(logs, bases):
            steps = itertools.product(*(range(o // h[j])
                                        for j, (o, h) in enumerate(zip(ords, basis))))
            cosets.append([tuple((s + sum(c * h[k] for c, h in zip(cs, basis))) % o
                                 for k, (s, o) in enumerate(zip(start, ords)))
                           for cs in steps])
        return [self._point(v, support, logs) for logs in itertools.product(*cosets)]
