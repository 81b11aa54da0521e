"""Average kernel sizes, zeta-series coefficients, rank distributions,
and the numerical constant-rank / orbital-equivalence certifiers.

The average kernel size ("ask") of a module M of matrices is
(1/|M|) sum_{m in M} |Ker m|, kernels taken for the left row-vector
action.  It is computed two independent ways: directly, as the mean of
|Ker A(c)| over the module elements A(c) = sum_b c_b a_b, and through the
orbit matrix C(x), using the identity ask = sum over x in R^I of
1/|image of C(x)|.

Both read one census.  A(c) is the orbit matrix, at c, of the module's
dual (ModuleRep.dual, built once by modrep.element_dual: basis I, shape
B x J, generator i with entries a_{bij}).  So profile_census, the number
of points x in R^I with each divisor profile of C(x), is the orbit census
of the rep and, taken on the dual, the direct census of its elements;
_census_ask reads either as the mean of |R|^I / |image| over the census
points, which is sum_x 1/|image C(x)| for the rep and the mean of
|Ker A(c)| for its dual.  zeta_coefficients is the one reader, and the
one place that picks the method: one census over R gives c_k, ask over
each level R.level(k), for every k <= R.cap, and ask over R is the last
of them.  Every level is the ring's own (Ring.level), so nothing here
builds a ring.

The census visits one point per torus orbit of one level, by three exact
identities over R = Z/p^n (a field F_q has n = 1):

- the torus (gridask.torus): for integer weights a on I, b on the
  generators and c on J with a_i = b_g + c_j wherever gens[g][i][j] != 0,
  and any unit t, C(t.x) = diag(t^b) C(x) diag(t^c), where
  (t.x)_i = t^(a_i) x_i; so t.x has the divisor profile of x.  Unit
  scaling is the weight a = 1, b = 0, c = 1.  With the valuations v_i of
  x fixed and x_i = p^(v_i) u_i, the logs of the units u_i (to the
  generators the ring supplies, Ring.unit_generators: one of full order
  for odd p and for F_q, -1 and 5 for p = 2) move by the lattice L_S
  spanned by the weights on the support S and by ord_i e_i, ord_i the
  order of the generator mod p^(n - v_i) (Ring.unit_orders).  A
  triangular basis of L_S with diagonal h gives one point per orbit and
  the orbit size prod ord_i / prod h_i;
- level recursion: every x != 0 in R^I is p^j x' for one j < n and one
  x' in P_(n-j), the primitive points over Z/p^(n-j) (some coordinate a
  unit), and the divisor profile of p^j B over Z/p^n is that of B over
  Z/p^(n-j) with every entry raised by j;
- reduction: x -> x mod p^e maps P_n onto P_e, each point with
  p^((n-e) I) preimages, and caps every Smith valuation at e.  So the
  census of P_e is that of P_n capped at e, divided by p^((n-e) I).

So the census computes one level, P_n.  It counts x = 0 once, with
C(0) = 0, and the points p^j P_(n-j), j = 0 .. n - 1, with the profiles v
of P_n raised by j and capped at n, min(v + j, n): the count of each such
profile, summed over P_n, is divided by p^(j I) (exactly, but only once
summed).  The same reduction gives ask over every Z/p^k, k <= n, from one
census over Z/p^n, with each valuation capped at k.

Level 1, over F_p or F_q, is walked at one point per torus orbit.  Level
n >= 2 is lifted from level n - 1.  Each x in P_n is x' + p^(n-1) y, with
x' in P_(n-1) and y over F_p, and a torus element maps the lifts of x'
onto those of its image, so x' runs over one class per torus orbit over
Z/p^(n-1) (with mixed valuations from n = 3 on), weighted by its orbit
size.  C(x') is eliminated once over Z/p^n, to diag(p^v_1 .. p^v_t) + Z
with every v_i <= n - 2 and Z = 0 mod p^(n-1) (linalg.partial_smith), and
the basis matrices C(e_i) are carried through the same row and column
operations to blocks K_i at Z's rows and columns.  As
C(x) = C(x') + p^(n-1) sum_i y_i C(e_i), the divisor profile of C(x)
over Z/p^n is v_1 .. v_t, then n - 1 as often as the rank over F_p of
the affine matrix K(y) = Z / p^(n-1) + sum_i y_i K_i, then n: every
cross term is a multiple of p^(2(n-1) - v), which is 0 mod p^n.  The
values of K over all y are K(0) plus the span of the K_i, each taken
equally often, so the level costs one elimination over Z/p^n per class and
one rank over F_p per value of K, each value one vector addition from the
last (an odometer over the span's coefficients).  When the span is all of
M_(r x c)(F_p), K runs over every r x c matrix once and nothing is ranked:
[c choose s]_p prod_(i < s) (p^r - p^i) of them have rank s.  The basis
matrices are carried only while the class can gain a valuation: each x
in P_n is primitive, so C(x) has at most r = ModuleRep.rank_bound
valuations below n, and a class with t = r pivots, where its elimination
stops, gives every lift the profile v_1 .. v_t, then n (level 1 also
stops at r pivots).

Rank distributions over F_q read no census: they count subspaces of the
kernels.  A j-dimensional subspace U of F_q^I with basis u_1 .. u_j lies
in Ker A(c) exactly when c C(U) = 0, where C(U) = [C(u_1) | .. | C(u_j)]
is B x jJ.  Its rank depends on U only, so q^(B - rank C(U)) elements
contain U, and the sum over U is the moment S_j = sum_c [k(c) choose j]_q,
k(c) = dim Ker A(c).  Gaussian-binomial inversion gives the number of c
with k(c) = k, and rank I - k, as
N_k = sum_(j >= k) (-1)^(j - k) q^((j - k)(j - k - 1)/2) [j choose k]_q S_j.
The free entry (r, c) of a reduced row-echelon basis carries the torus
weight a_c - a_(p_r), p_r the pivot of row r, and the torus keeps
rank C(U), so each orbit of subspaces costs one elimination: 16 of the 64
subspaces of F_5^3 for classic:sl:3, and 3,610 of the 56,632 of F_3^6 for
alpha:3.  The budget bounds the number of subspaces.

The certifiers eliminate each orbit of the torus of both reps' joint
incidence system once, and each elimination stops at the rep's rank bound,
since every point they check is primitive.  Over a field they visit one
point per orbit.  Over Z/p^n the report is that of seeded draws, but every
draw lies in a torus orbit, so when the torus has no more orbits than
draws (torus.Torus.orbit_count, which builds no point) the orbits are
walked first, one elimination each: if every orbit holds, so does every
draw, and nothing is drawn.  Only when an orbit fails, or the orbits
outnumber the draws, are seeded points drawn, in batches of SAMPLE_BATCH,
and keyed a batch at once (torus.Torus.keys): the batch is grouped by
valuation pattern, the cached per-coordinate terms are summed a column at
a time, and the characters are read once per distinct sum.  A draw whose
orbit was walked or drawn before reuses that orbit's profiles.  The
report still says mode "sample" with `checked` the number of draws, a
weaker claim than the walk has checked.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import prod
from typing import NamedTuple, Sequence

from . import torus
from .linalg import Mat, divisor_profile, partial_smith, profile_image_size, rank
from .linalg import image_size  # noqa: F401  (perfbench/tracing.py patches askzeta.image_size)
from .modrep import ModuleRep, ShapeMismatch
from .predictions import Prediction
from .rings import Ring

DEFAULT_BUDGET = 10**7
SAMPLE_BATCH = 256  # draws keyed at once: bounds the memory of a sampled check


class BudgetExceeded(Exception):
    pass


class AskResult(NamedTuple):
    value: Fraction
    method: str


def profile_census(rep: ModuleRep, ring: Ring, budget: int = DEFAULT_BUDGET) -> Counter:
    """Divisor profile of C(x) over ring -> the number of x in ring^I with
    it, once |ring|^I is within the budget.

    Only the primitive points P_n are visited: over a field one point per
    torus orbit weighted by the orbit size, over Z/p^n, n >= 2, lifted from
    the torus classes of P_(n-1) (_lifted_level_census).  x = 0 is counted
    once, and the points p^j P_(n-j) from the census of P_n reduced mod
    p^(n-j) and raised by j (see the module docstring).
    """
    dI, n = len(rep.I), ring.cap
    size = ring.cardinality() ** dI
    if size > budget:
        raise BudgetExceeded(f"{size} census points exceed budget {budget}")
    if n == 1:
        top = Counter()
        for x, m in torus.Torus(rep.weights, ring).orbits(dI, False):
            top[divisor_profile(rep.orbit_matrix_at(ring, x), rep.rank_bound)] += m
    else:
        top = _lifted_level_census(rep, ring)
    counts = Counter({(n,) * min(rep.rank, len(rep.J)): 1})
    for j in range(n):
        raised = Counter()
        for prof, m in top.items():
            raised[tuple(min(v + j, n) for v in prof)] += m
        for prof, m in raised.items():  # p^(j I) points of P_n reduce to each of P_(n-j)
            counts[prof] += m // ring.p ** (j * dI)
    return counts


def _lifted_level_census(rep: ModuleRep, ring: Ring) -> Counter:
    """The divisor profiles over ring = Z/p^k, k >= 2, of C(x) at the
    points of P_k, lifted from the torus classes of P_(k-1).

    The points of P_k are x = x' + p^(k-1) y, for x' in P_(k-1) (entries in
    [0, p^(k-1))) and y in F_p^I.  A torus element maps the lifts of x'
    onto those of its image, so one class x' per torus orbit over
    Z/p^(k-1), lifted by every y, stands for its whole orbit.  By the
    lifting identity (_class_lift) each class is eliminated once over
    Z/p^k, and each lift only takes the rank of a small matrix K(y) over
    F_p.  K(y) = K(0) + sum_i y_i K_i is affine in y, so its values are
    K(0) plus the span of the K_i over F_p, each taken by p^(I - dim span)
    lifts: each value is ranked once, and the values are walked by prefix
    sums of the span (_span_values).  A span of every (B - t) x (J - t)
    matrix is counted, not walked: _rank_count of its values have rank s.
    No point of P_k has more than r = rep.rank_bound valuations below k,
    so a class with t = r pivots gives every lift its valuations, then k:
    its elimination stops there, and nothing is carried or ranked.
    """
    p, k = ring.p, ring.cap
    residue, dI, dJ = ring.level(1), len(rep.I), len(rep.J)
    steps, bound = min(rep.rank, dJ), rep.rank_bound
    # C(e_i), the orbit matrix at each basis vector, carried by every class
    basis = [Mat(ring, rep.rank, dJ, tuple(ring.from_int(g[i][j])
                                           for g in rep.gens for j in range(dJ)))
             for i in range(dI)]
    counts = Counter()
    for x, n in torus.Torus(rep.weights, ring.level(k - 1)).orbits(dI, False):
        valuations, constant, linear = _class_lift(ring, rep.orbit_matrix_at(ring, x),
                                                   basis, bound)
        head, t = tuple(sorted(valuations)), len(valuations)
        if t == bound:  # no lift has another valuation below k
            counts[head + (k,) * (steps - t)] += n * p ** dI
            continue
        shape = (rep.rank - t, dJ - t)
        # the span of the K_i over F_p is the lattice of the K_i and the p e_j
        # mod p: the basis rows with a diagonal 1 (the others are p e_j)
        span = [h for j, h in enumerate(torus.echelon(linear, [p] * len(constant)))
                if h[j] == 1]
        share = n * p ** (dI - len(span))
        if len(span) == len(constant):  # K(y) runs over every matrix of the shape once
            for s in range(min(shape) + 1):
                counts[head + (k - 1,) * s + (k,) * (steps - t - s)] += (
                    share * _rank_count(*shape, s, p))
            continue
        for entries in _span_values(constant, span, p):
            s = rank(Mat(residue, *shape, entries))
            counts[head + (k - 1,) * s + (k,) * (steps - t - s)] += share
    return counts


def _span_values(constant: Sequence[int], span: Sequence[Sequence[int]], p: int):
    """constant + sum_j c_j span[j] mod p, as a tuple, once for each c in
    F_p^len(span).

    The c are walked as an odometer, lowest digit first.  A step that wraps
    digits 0 .. j - 1 (each from p - 1 to 0) and raises digit j adds
    -(p - 1) b_i = b_i mod p for each wrapped digit and b_j for the raised
    one: the prefix sum s_j = b_0 + .. + b_j, one vector addition per value.
    """
    prefix, total = [], [0] * len(constant)
    for b in span:
        total = [(x + y) % p for x, y in zip(total, b)]
        prefix.append(total)
    value = tuple(z % p for z in constant)
    yield value
    digits = [0] * len(span)
    for _ in range(p ** len(span) - 1):
        j = 0
        while digits[j] == p - 1:
            digits[j] = 0
            j += 1
        digits[j] += 1
        value = tuple([(x + y) % p for x, y in zip(value, prefix[j])])
        yield value


def _class_lift(level: Ring, cx: Mat, basis: Sequence[Mat], bound: int):
    """(valuations, constant, linear): the lifting identity for the class
    of x over Z/p^k, k >= 2, from cx = C(x), x in [0, p^(k-1))^I, and the
    basis matrices C(e_i).

    partial_smith takes C(x) over Z/p^k to diag(p^v_1 .. p^v_t) + Z, every
    v_i <= k - 2 and Z = 0 mod p^(k-1), and carries each C(e_i) through the
    same row and column operations to a block K_i at Z's rows and columns.
    For every y in F_p^I, C(x + p^(k-1) y) = C(x) + p^(k-1) sum_i y_i C(e_i)
    then has the divisor profile v_1 .. v_t, then k - 1 s times, then k,
    where s is the rank over F_p of the (B - t) x (J - t) matrix
    K(y) = Z / p^(k-1) + sum_i y_i K_i: clearing the rest of the carried
    terms against the pivots adds multiples of p^(2(k-1) - v), which are 0
    mod p^k.  constant holds the entries of K(0) and linear[i] those of
    K_i, mod p and row by row.  bound is the module's rank bound r: a lift
    x is primitive, so t + s <= r, and at t = r the elimination stops and
    carries nothing, and no K is read: constant and linear are empty.
    """
    p, k = level.p, level.cap
    valuations, (block, *blocks) = partial_smith(cx, k - 1, basis, bound)
    if len(valuations) == bound:
        return valuations, (), []
    constant = tuple(level.exact_div(z, k - 1) for row in block for z in row)
    linear = [tuple(z % p for row in b for z in row) for b in blocks]
    return valuations, constant, linear


def direct_profile_counts(rep: ModuleRep, ring: Ring,
                          budget: int = DEFAULT_BUDGET) -> Counter:
    """Divisor profile of the element A(c) = sum_b c_b a_b -> the number of
    coefficient tuples c in ring^B with it: the profile census of the
    module's dual, whose orbit matrix at c is A(c)."""
    return profile_census(rep.dual, ring, budget)


def _census_ask(counts: Counter, level: Ring, rows: int) -> Fraction:
    """The mean of |level|^rows / |image| over the census points, from a
    divisor-profile census over a ring whose level this is.

    Reducing mod p^k caps every Smith valuation at k, and each point over
    Z/p^k has the same number of lifts, which the mean cancels.  The image
    of C(x) need not divide |level|^rows, so each term is a Fraction.
    """
    space = level.cardinality() ** rows
    total = sum(Fraction(n * space, profile_image_size([min(v, level.cap) for v in prof], level))
                for prof, n in counts.items())
    return total / sum(counts.values())


def zeta_coefficients(rep: ModuleRep, ring: Ring, method: str = "orbit",
                      budget: int = DEFAULT_BUDGET) -> list[Fraction]:
    """[c_0, ..., c_n], n = ring.cap, with c_k = ask over ring.level(k)
    (c_0 = 1), every c_k read from one census over ring with the profiles
    capped at k: the census of C(x) for the orbit method (the level ring
    itself, lifted from the torus classes of the level below; see the
    module docstring), of the elements for the direct method.  The budget
    bounds |ring|^I, or |ring|^B for the direct method.
    """
    if method == "orbit":
        counts = profile_census(rep, ring, budget)
    elif method == "direct":
        counts = direct_profile_counts(rep, ring, budget)
    else:
        raise ValueError(f"unknown method {method!r}")
    return [Fraction(1)] + [_census_ask(counts, ring.level(k), len(rep.I))
                            for k in range(1, ring.cap + 1)]


def ask(rep: ModuleRep, ring: Ring, method: str = "orbit",
        budget: int = DEFAULT_BUDGET) -> AskResult:
    """ask over ring, the last of its zeta coefficients."""
    return AskResult(zeta_coefficients(rep, ring, method, budget)[-1], method)


def ask_orbit(rep: ModuleRep, ring: Ring, budget: int = DEFAULT_BUDGET) -> AskResult:
    """ask by the orbit method: sum over x in ring^I of 1/|image C(x)|."""
    return ask(rep, ring, "orbit", budget)


class CoefficientCheck(NamedTuple):
    n: int
    brute: Fraction
    predicted: Fraction
    match: bool


class VerifyReport(NamedTuple):
    prediction: str
    q: int
    coefficients: tuple[CoefficientCheck, ...]
    passed: bool


def verify_prediction(rep: ModuleRep, prediction: Prediction, ring: Ring,
                      method: str = "orbit",
                      budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Compare the zeta coefficients over the levels of ring, from one
    census, against the closed form at q = ring.residue_cardinality().  The
    census runs first, so one over the budget is refused before the closed
    form is expanded."""
    brute = zeta_coefficients(rep, ring, method, budget)
    q = ring.residue_cardinality()
    predicted = prediction.series(q, ring.cap)
    checks = tuple(CoefficientCheck(n, brute[n], predicted[n], brute[n] == predicted[n])
                   for n in range(ring.cap + 1))
    return VerifyReport(prediction.name, q, checks, all(c.match for c in checks))


class RankDistribution(NamedTuple):
    counts: dict[int, int]
    q: int

    def ask_value(self, rows: int) -> Fraction:
        """Recover ask from the census: sum_r count(r) q^{rows-r} / sum_r count(r)."""
        total = sum(self.counts.values())
        acc = sum(n * self.q ** (rows - r) for r, n in self.counts.items())
        return Fraction(acc, total)


def rank_distribution(rep: ModuleRep, field: Ring,
                      budget: int = DEFAULT_BUDGET) -> RankDistribution:
    """Rank r -> the number of c in F_q^B with rank A(c) = r, from the
    subspace moments (see the module docstring) of the kernel side, the one
    with fewer coordinates, d = min(I, J): when J < I the walk takes the
    transposed module, as A(c)^T has the rank of A(c).

    A subspace U is a reduced row-echelon basis: a pivot set, and a fill of
    the free entries (r, c).  A torus element t takes U to the subspace
    with the fill t^(a_c - a_(p_r)) x_(r, c), p_r the pivot of row r, and
    keeps rank C(U), as C(t.u) = diag(t^b) C(u) diag(t^c).  So the fills of
    each pivot set are walked one per orbit of those weights, weighted by
    its size, and the zero fill once.  The budget bounds the subspaces,
    sum_j [d choose j]_q.
    """
    if field.cap != 1:
        raise ValueError("rank distributions require a field")
    if len(rep.J) < len(rep.I):
        rep = ModuleRep(rep.labels, rep.J, rep.I, tuple(tuple(zip(*g)) for g in rep.gens))
    q, B, d = field.cardinality(), rep.rank, len(rep.I)
    subspaces = sum(_gaussian(d, j, q) for j in range(d + 1))
    if subspaces > budget:
        raise BudgetExceeded(f"{subspaces} subspaces exceed budget {budget}")
    # the linear conditions on c for v in F_q^I to lie in the left kernel of
    # A(c): the nonzero columns of the orbit matrix C(v) (B x J)
    @functools.cache
    def conditions(v):
        m = rep.orbit_matrix_at(field, v)
        columns = (m.entries[j::m.cols] for j in range(m.cols))
        return [col for col in columns if any(map(field.is_unit, col))]

    moments = [0] * (d + 1)
    for j in range(d + 1):
        for pivots in itertools.combinations(range(d), j):
            free = [(r, c) for r, p in enumerate(pivots)
                    for c in range(p + 1, d) if c not in pivots]
            group = torus.Torus([[w[c] - w[pivots[r]] for r, c in free] for w in rep.weights],
                                field)
            zero = ((field.zero,) * len(free), 1)
            for fill, m in itertools.chain([zero], group.orbits(len(free), False)):
                rows = [[field.one if c == p else field.zero for c in range(d)]
                        for p in pivots]
                for (r, c), x in zip(free, fill):
                    rows[r][c] = x
                stacked = [cond for row in rows for cond in conditions(tuple(row))]
                stacked = Mat(field, len(stacked), B, tuple(itertools.chain(*stacked)))
                moments[j] += m * q ** (B - rank(stacked))
    counts = {}
    for k in range(d + 1):
        n = sum((-1) ** (j - k) * q ** ((j - k) * (j - k - 1) // 2) * _gaussian(j, k, q)
                * moments[j] for j in range(k, d + 1))
        if n:
            counts[d - k] = n
    return RankDistribution(counts, q)


def _gaussian(n: int, k: int, q: int) -> int:
    """[n choose k]_q, the number of k-dimensional subspaces of F_q^n."""
    return (prod(q ** (n - i) - 1 for i in range(k))
            // prod(q ** (i + 1) - 1 for i in range(k)))


def _rank_count(r: int, c: int, s: int, q: int) -> int:
    """The number of r x c matrices of rank s over F_q: [c choose s]_q row
    spaces, each the row space of prod_(i < s) (q^r - q^i) of them."""
    return _gaussian(c, s, q) * prod(q ** r - q ** i for i in range(s))


# ---------------------------------------------------------------------------
# Constant-rank and orbital-equivalence certifiers.
# ---------------------------------------------------------------------------

class PointReport(NamedTuple):
    checked: int
    violations: tuple = ()
    mode: str = "exhaustive"
    passed: bool = True


def _coker_is_free_of_rank(profile: Sequence[int], cap: int, cols: int, l: int) -> bool:
    """Cokernel of the matrix is ring^l  <=>  no valuation strictly between
    0 and cap, and cols - #zeros = l."""
    zeros = sum(1 for v in profile if v == 0)
    middles = sum(1 for v in profile if 0 < v < cap)
    return middles == 0 and cols - zeros == l


def _sampled_points(ring: Ring, dim: int, samples: int, seed: int, all_units: bool):
    """`samples` seeded draws from ring^dim with every coordinate a unit
    (all_units) or, redrawn until so, some coordinate a unit, in lists of
    at most SAMPLE_BATCH.  random.Random(seed).choice picks one coordinate
    after another, and a redraw takes the next dim picks, so a list is the
    next picks cut into points, less those without a unit coordinate."""
    choice = random.Random(seed).choice
    pool = list(ring.units() if all_units else ring.elements())
    left = samples if dim or all_units else 0  # ring^0 has no unit coordinate
    while left:
        size, batch = min(left, SAMPLE_BATCH), []
        while len(batch) < size:
            need = size - len(batch)
            picks = map(choice, itertools.repeat(pool, need * dim))
            points = zip(*[picks] * dim) if dim else [()] * need
            batch += points if all_units else [x for x in points if any(map(ring.is_unit, x))]
        left -= size
        yield batch


def _certify(reps: Sequence[ModuleRep], ring: Ring, holds, all_units: bool,
             samples: int, seed: int, budget: int) -> PointReport:
    """The certifiers' one loop: a violation wherever holds(*profiles), the
    divisor profiles of C(x) for each rep, fails at a point x with every
    (all_units) or some coordinate a unit.  Such an x is primitive, so each
    elimination stops at the rep's rank bound.  A torus element t of the
    reps' joint incidence system keeps every profile, so each torus orbit is
    eliminated once.  Over F_q, within the budget on q^I, x runs over one
    point per orbit and certifies, or reports, the whole orbit.  Over
    Z/p^n, within the budget on |R| (the size of the log table behind the
    keys), the report is that of the seeded draws.  When the torus has at
    most `samples` orbits, x first runs over one point per orbit, up to the
    first that fails: if none fails, every draw holds, and the report is
    the draws' with nothing drawn.  Otherwise x runs over the draws, keyed
    a batch at a time by the characters of their orbits
    (torus.Torus.keys), and a draw whose orbit was walked or drawn before
    reuses that orbit's profiles.  The report keeps the first 10 violating
    points, in lexicographic order over a field and in draw order over
    Z/p^n, where the draws stop at the 10th and `checked` is still
    the number of draws.
    """
    dim = len(reps[0].I)
    draws = samples if dim or all_units else 0  # ring^0 has no unit coordinate
    group = torus.Torus(torus.weights(*reps), ring)

    def verdict(x):
        profiles = tuple(divisor_profile(rep.orbit_matrix_at(ring, x), rep.rank_bound)
                         for rep in reps)
        return holds(*profiles), profiles

    verdicts = {}  # Z/p^n: orbit key -> (holds, profiles)
    if ring.cap == 1:
        size = ring.cardinality() ** dim
        if size > budget:
            raise BudgetExceeded(f"{size} points exceed budget {budget}")
        # the walk meets each orbit once, so nothing is kept
        mode, points = "exhaustive", ((x, m, None) for x, m in group.orbits(dim, all_units))
    else:
        if ring.cardinality() > budget:
            raise BudgetExceeded(f"{ring.cardinality()} log-table entries exceed budget {budget}")
        if group.orbit_count(dim, all_units, samples) <= samples:
            walked = {}  # representative -> verdict, up to the first failing orbit
            for x, _ in group.orbits(dim, all_units):
                known = walked[x] = verdict(x)
                if not known[0]:
                    break
            else:  # every orbit holds, so every draw does
                return PointReport(draws, (), "sample", True)
            verdicts = dict(zip(group.keys(list(walked)), walked.values()))
        mode = "sample"
        points = ((x, 1, key) for batch in _sampled_points(ring, dim, samples, seed, all_units)
                  for x, key in zip(batch, group.keys(batch)))
    violations = []
    checked = 0
    for x, size, key in points:
        checked += size
        known = verdicts.get(key)
        if known is None:
            known = verdict(x)
            if key is not None:
                verdicts[key] = known
        passed, profiles = known
        if passed:
            continue
        if mode == "sample":
            violations.append((x,) + profiles)
            if len(violations) == 10:  # later draws change nothing but the count
                checked = draws
                break
        else:
            violations = heapq.nsmallest(10, violations + [(y,) + profiles
                                                           for y in group.orbit(x)])
    return PointReport(checked, tuple(violations), mode, not violations)


def constant_rank_check(rep: ModuleRep, ring: Ring, l: int, samples: int = 10**4,
                        seed: int = 0, budget: int = DEFAULT_BUDGET) -> PointReport:
    """Check coker C(x) = ring^l at every point with a unit coordinate (one
    point per torus orbit over a field; over Z/p^n, `samples` seeded draws,
    decided on every torus orbit when there are no more orbits than draws,
    and drawn only after an orbit fails)."""
    return _certify([rep], ring,
                    lambda prof: _coker_is_free_of_rank(prof, ring.cap, len(rep.J), l),
                    False, samples, seed, budget)


def orbital_equivalence_check(rep_big: ModuleRep, rep_sub: ModuleRep, ring: Ring,
                              samples: int = 10**4, seed: int = 0,
                              budget: int = DEFAULT_BUDGET) -> PointReport:
    """Equal divisor profiles of the two orbit matrices at every point with
    all coordinates units (over a field one point per orbit of the torus of
    both reps, standing for its whole orbit; over Z/p^n, `samples` seeded
    draws, decided on every torus orbit when there are no more orbits than
    draws, and drawn only after an orbit fails)."""
    if rep_big.I != rep_sub.I or rep_big.J != rep_sub.J:
        raise ShapeMismatch("representations must share index sets")
    return _certify([rep_big, rep_sub], ring, lambda pb, ps: pb == ps, True,
                    samples, seed, budget)
