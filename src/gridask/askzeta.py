"""Average kernel sizes, zeta-series coefficients, rank distributions,
and the numerical constant-rank / orbital-equivalence certifiers.

The average kernel size ("ask") of a module M of matrices is
(1/|M|) sum_{m in M} |Ker m|, kernels taken for the left row-vector
action.  It is computed two independent ways: directly, as the mean of
|Ker A(c)| over the module elements A(c) = sum_b c_b a_b, and through the
orbit matrix C(x), using the identity ask = sum over x in R^I of
1/|image of C(x)|.

Both read one census.  A(c) is the orbit matrix, at c, of the module's
dual (modrep.element_dual: basis I, shape B x J, generator i with entries
a_{bij}).  So profile_census, the number of points x in R^I with each
divisor profile of C(x), is the orbit census of the rep and, taken on the
dual, the direct census of its elements; _census_ask reads either as the
mean of |R|^I / |image| over the census points, which is
sum_x 1/|image C(x)| for the rep and the mean of |Ker A(c)| for its dual.

The census visits one point per torus orbit, level by level, by two exact
identities over R = Z/p^n (a field F_q has n = 1):

- the torus (gridask.torus): for integer weights a on I, b on the
  generators and c on J with a_i = b_g + c_j wherever gens[g][i][j] != 0,
  and any unit t, C(t.x) = diag(t^b) C(x) diag(t^c), where
  (t.x)_i = t^(a_i) x_i; so t.x has the divisor profile of x.  Unit
  scaling is the weight a = 1, b = 0, c = 1.  With the valuations v_i of
  x fixed and x_i = p^(v_i) u_i, the logs of the units u_i (to a primitive
  root mod p^2 for odd p; to -1 and 5 for p = 2, whose units are +-5^l;
  to a primitive element of F_q) move by the lattice L_S spanned by the
  weights on the support S and by ord_i e_i, ord_i the order of the unit
  group mod p^(n - v_i).  A triangular basis of L_S with diagonal h gives
  one point per orbit and the orbit size prod ord_i / prod h_i;
- level recursion: every x != 0 in R^I is p^(n-e) x' for one x' in P_e,
  the primitive points over Z/p^e (some coordinate a unit), and the
  divisor profile of p^(n-e) B over Z/p^n is that of B over Z/p^e with
  every entry raised by n - e.

So the census counts x = 0 once, with C(0) = 0, and then the profiles of
each level P_e, e = 1..n, raised by n - e, each level taken over one point
per torus orbit weighted by the orbit size.  One census over Z/p^n gives
ask over every Z/p^k, k <= n, with each valuation capped at k: the points
of Z/p^k each have the same number of lifts.

From level 2 on the level census is lifted from level k - 1.  Each x in
P_k is x' + p^(k-1) y, with x' in P_(k-1) and y over F_p, and a torus
element maps the lifts of x' onto those of its image, so x' runs over one
class per torus orbit over Z/p^(k-1) (with mixed valuations from k = 3
on), weighted by its orbit size.  C(x') is eliminated once over Z/p^k,
until P C(x') Q = diag(p^v_1 .. p^v_t) + Z with every v_i <= k - 2 and
Z = 0 mod p^(k-1) (linalg.partial_smith); with L, R the rows of P and the
columns of Q at Z, the divisor profile of C(x) over Z/p^k is v_1 .. v_t,
then k - 1 as often as the rank over F_p of the affine matrix
K(y) = Z / p^(k-1) + L C(y) R, then k.  Every cross term is a multiple of
p^(2(k-1) - v), which is 0 mod p^k.  The values of K over all y are K(0)
plus the image of its linear part, each taken equally often, so level k
costs one elimination over Z/p^k per class and one rank over F_p per
value of K.

The certifiers eliminate each orbit of the torus of both reps' joint
incidence system once: over a field they visit one point per orbit, and
over Z/p^n a seeded draw whose orbit was drawn before reuses that orbit's
profiles.
"""
from __future__ import annotations

import heapq
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from . import torus
from .linalg import Mat, divisor_profile, partial_smith, profile_image_size, rank
from .linalg import image_size  # noqa: F401  (perfbench/tracing.py patches askzeta.image_size)
from .modrep import ModuleRep, ShapeMismatch, element_dual
from .predictions import Prediction
from .rings import PadicQuotient, Ring

DEFAULT_BUDGET = 10**7


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class AskResult:
    value: Fraction
    method: str


def profile_census(rep: ModuleRep, ring: Ring, budget: int = DEFAULT_BUDGET) -> Counter:
    """Divisor profile of C(x) over ring -> the number of x in ring^I with
    it, once |ring|^I is within the budget.

    x = 0 is counted once.  Level 1 eliminates C(x) at one point x per
    torus orbit, weighted by the orbit size; each level k >= 2 is lifted
    from the torus classes of P_(k-1) (_lifted_level_census).  The profiles
    of level e are raised by n - e (see the module docstring).
    """
    dI, n = len(rep.I), ring.cap
    size = ring.cardinality() ** dI
    if size > budget:
        raise BudgetExceeded(f"{size} census points exceed budget {budget}")
    weights = torus.weights(rep)
    counts = Counter({(n,) * min(rep.rank, len(rep.J)): 1})
    first = ring if n == 1 else PadicQuotient(ring.p, 1)
    for x, m in torus.Torus(weights, first).orbits(dI, False):
        counts[tuple(v + n - 1 for v in divisor_profile(rep.orbit_matrix_at(first, x)))] += m
    for k in range(2, n + 1):
        for prof, m in _lifted_level_census(rep, weights, PadicQuotient(ring.p, k)).items():
            counts[tuple(v + n - k for v in prof)] += m
    return counts


def _lifted_level_census(rep: ModuleRep, weights, level: PadicQuotient) -> Counter:
    """The divisor profiles over Z/p^k, k >= 2, of C(x) at the points of
    P_k, lifted from the torus classes of P_(k-1).

    The points of P_k are x = x' + p^(k-1) y, for x' in P_(k-1) (entries in
    [0, p^(k-1))) and y in F_p^I.  A torus element maps the lifts of x'
    onto those of its image, so one class x' per torus orbit over
    Z/p^(k-1), lifted by every y, stands for its whole orbit.  By the
    lifting identity (_class_lift) each class is eliminated once over
    Z/p^k, and each lift only takes the rank of a small matrix K(y) over
    F_p.  K(y) = K(0) + M y is affine in y, so its values are K(0) plus the
    image of M over F_p, each taken by p^(I - rank M) lifts: each value is
    ranked once.
    """
    p, k, dI = level.p, level.cap, len(rep.I)
    residue = PadicQuotient(p)
    steps = min(rep.rank, len(rep.J))
    counts = Counter()
    for x, n in torus.Torus(weights, PadicQuotient(p, k - 1)).orbits(dI, False):
        valuations, forms = _class_lift(rep, level, x)
        head, t = tuple(sorted(valuations)), len(valuations)
        shape = (rep.rank - t, len(rep.J) - t)
        # the image of M over F_p is the lattice of M's columns and the p e_j
        # mod p: the basis rows with a diagonal 1 (the others are p e_j)
        image = [h for j, h in enumerate(torus.echelon(list(zip(*(f[1:] for f in forms))),
                                                       [p] * len(forms))) if h[j] == 1]
        share = n * p ** (dI - len(image))
        for coeffs in itertools.product(range(p), repeat=len(image)):
            entries = tuple((f[0] + sum(c * b[i] for c, b in zip(coeffs, image))) % p
                            for i, f in enumerate(forms))
            s = rank(Mat(residue, *shape, entries))
            counts[head + (k - 1,) * s + (k,) * (steps - t - s)] += share
    return counts


def _class_lift(rep: ModuleRep, level: PadicQuotient, x: Sequence[int]):
    """(valuations, forms): the lifting identity for the class of x over
    Z/p^k, k >= 2, with x in [0, p^(k-1))^I.

    partial_smith takes C(x) over Z/p^k to P C(x) Q = diag(p^v_1 .. p^v_t)
    + Z, every v_i <= k - 2 and Z = 0 mod p^(k-1); L and R are the rows of
    P and the columns of Q that belong to Z.  For every y in F_p^I,
    C(x + p^(k-1) y) = C(x) + p^(k-1) C(y) then has the divisor profile
    v_1 .. v_t, then k - 1 s times, then k, where s is the rank over F_p
    of the (B - t) x (J - t) matrix K(y) = Z / p^(k-1) + L C(y) R: every
    cross term is a multiple of p^(2(k-1) - v), which is 0 mod p^k.  The
    forms are K's entries, row by row, each as its coefficients mod p on
    (1, y_1, .., y_I).
    """
    p, k = level.p, level.cap
    valuations, left, right, block = partial_smith(rep.orbit_matrix_at(level, x), k - 1)
    # (L A_i)[r][j] = sum_b L[r][b] a_{bij}, then dotted with each column of R
    LA = [[[sum(l * g[i][j] for l, g in zip(row, rep.gens)) % p for j in range(len(rep.J))]
           for i in range(len(rep.I))] for row in left]
    forms = [(level.exact_div(z, k - 1),) + tuple(sum(map(mul, la_i, col)) % p for la_i in la)
             for la, zrow in zip(LA, block) for col, z in zip(right, zrow)]
    return valuations, forms


def direct_profile_counts(rep: ModuleRep, ring: Ring,
                          budget: int = DEFAULT_BUDGET) -> Counter:
    """Divisor profile of the element A(c) = sum_b c_b a_b -> the number of
    coefficient tuples c in ring^B with it: the profile census of the
    module's dual, whose orbit matrix at c is A(c)."""
    return profile_census(element_dual(rep), ring, budget)


def _census_ask(counts: Counter, level: Ring, rows: int) -> Fraction:
    """The mean of |level|^rows / |image| over the census points, from a
    divisor-profile census over level itself or, for level = Z/p^k, over
    any Z/p^n with n >= k.

    Reducing mod p^k caps every Smith valuation at k, and each point over
    Z/p^k has the same number of lifts, which the mean cancels.  The image
    of C(x) need not divide |level|^rows, so each term is a Fraction.
    """
    space = level.cardinality() ** rows
    total = sum(Fraction(n * space, profile_image_size([min(v, level.cap) for v in prof], level))
                for prof, n in counts.items())
    return total / sum(counts.values())


def ask_direct(rep: ModuleRep, ring: Ring, budget: int = DEFAULT_BUDGET) -> AskResult:
    """ask as the mean kernel size over every module element."""
    counts = direct_profile_counts(rep, ring, budget)
    return AskResult(_census_ask(counts, ring, len(rep.I)), "direct")


def ask_orbit(rep: ModuleRep, ring: Ring, budget: int = DEFAULT_BUDGET) -> AskResult:
    """ask via the orbit matrix: sum over x in R^I of 1/|image C(x)|, read
    from the profile census of C(x) (one point per torus orbit at level 1,
    each level k >= 2 lifted from the torus classes of level k - 1; see the
    module docstring).  R = Z/p^n, or F_q with n = 1.  The budget bounds
    |R|^I.
    """
    return AskResult(_census_ask(profile_census(rep, ring, budget), ring, len(rep.I)), "orbit")


def ask(rep: ModuleRep, ring: Ring, method: str = "orbit",
        budget: int = DEFAULT_BUDGET) -> AskResult:
    if method == "direct":
        return ask_direct(rep, ring, budget)
    if method == "orbit":
        return ask_orbit(rep, ring, budget)
    raise ValueError(f"unknown method {method!r}")


def zeta_coefficients(rep: ModuleRep, p: int, n_max: int, method: str = "orbit",
                      budget: int = DEFAULT_BUDGET) -> list[Fraction]:
    """[c_0, ..., c_{n_max}] with c_k = ask over Z/p^k (c_0 = 1), every c_k
    read from one census over Z/p^n_max with the profiles capped at k: the
    census of C(x) for the orbit method, of the elements for the direct
    method.
    """
    out = [Fraction(1)]
    if not n_max:
        return out
    top = PadicQuotient(p, n_max)
    if method == "orbit":
        counts = profile_census(rep, top, budget)
    elif method == "direct":
        counts = direct_profile_counts(rep, top, budget)
    else:
        raise ValueError(f"unknown method {method!r}")
    return out + [_census_ask(counts, PadicQuotient(p, k), len(rep.I))
                  for k in range(1, n_max + 1)]


@dataclass(frozen=True)
class CoefficientCheck:
    n: int
    brute: Fraction
    predicted: Fraction
    match: bool


@dataclass(frozen=True)
class VerifyReport:
    prediction: str
    q: int
    coefficients: tuple[CoefficientCheck, ...]
    passed: bool


def verify_prediction(rep: ModuleRep, prediction: Prediction, p: int, n_max: int,
                      method: str = "orbit",
                      budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Compare brute-force zeta coefficients over Z/p^k against the closed form at q = p."""
    predicted = prediction.series(p, n_max)
    brute = zeta_coefficients(rep, p, n_max, method, budget)
    checks = tuple(CoefficientCheck(n, brute[n], predicted[n], brute[n] == predicted[n])
                   for n in range(n_max + 1))
    return VerifyReport(prediction.name, p, checks, all(c.match for c in checks))


@dataclass(frozen=True)
class RankDistribution:
    counts: dict[int, int]
    q: int

    def ask_value(self, rows: int) -> Fraction:
        """Recover ask from the census: sum_r count(r) q^{rows-r} / sum_r count(r)."""
        total = sum(self.counts.values())
        acc = sum(n * self.q ** (rows - r) for r, n in self.counts.items())
        return Fraction(acc, total)


def rank_distribution(rep: ModuleRep, field: Ring,
                      budget: int = DEFAULT_BUDGET) -> RankDistribution:
    if field.cap != 1:
        raise ValueError("rank distributions require a field")
    counts = direct_profile_counts(rep, field, budget)
    by_rank: dict[int, int] = {}
    for prof, n in counts.items():
        r = sum(1 for v in prof if v == 0)
        by_rank[r] = by_rank.get(r, 0) + n
    return RankDistribution(by_rank, field.cardinality())


# ---------------------------------------------------------------------------
# Constant-rank and orbital-equivalence certifiers.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointReport:
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
    (all_units) or, redrawn until so, some coordinate a unit."""
    rng = random.Random(seed)
    units = list(ring.units())
    elems = list(ring.elements())
    for _ in range(samples if dim or all_units else 0):  # ring^0 has no unit coordinate
        if all_units:
            yield tuple(rng.choice(units) for _ in range(dim))
        else:
            x = tuple(rng.choice(elems) for _ in range(dim))
            while not any(ring.is_unit(c) for c in x):
                x = tuple(rng.choice(elems) for _ in range(dim))
            yield x


def _certify(reps: Sequence[ModuleRep], ring: Ring, holds, all_units: bool,
             samples: int, seed: int, budget: int) -> PointReport:
    """The certifiers' one loop: a violation wherever holds(*profiles), the
    divisor profiles of C(x) for each rep, fails at a point x with every
    (all_units) or some coordinate a unit.  A torus element t of the reps'
    joint incidence system keeps every profile, so each torus orbit is
    eliminated once.  Over F_q, within the budget on q^I, x runs over one
    point per orbit and certifies, or reports, the whole orbit.  Over Z/p^n,
    within the budget on |R| (the size of the log table behind the keys),
    x runs over seeded draws, and a draw whose orbit was drawn before reuses
    that orbit's profiles.  The report keeps the first 10 violating points,
    in lexicographic order over a field and in draw order over Z/p^n.
    """
    dim = len(reps[0].I)
    group = torus.Torus(torus.weights(*reps), ring)
    if ring.cap == 1:
        size = ring.cardinality() ** dim
        if size > budget:
            raise BudgetExceeded(f"{size} points exceed budget {budget}")
        mode, points = "exhaustive", group.orbits(dim, all_units)
    else:
        if ring.cardinality() > budget:
            raise BudgetExceeded(f"{ring.cardinality()} log-table entries exceed budget {budget}")
        mode = "sample"
        points = ((x, 1) for x in _sampled_points(ring, dim, samples, seed, all_units))
    profiles_of = {}  # Z/p^n: orbit key -> profiles
    violations = []
    checked = 0
    for x, size in points:
        checked += size
        # over F_q the walk meets each orbit once, so nothing is kept
        key = group.key(x) if mode == "sample" else None
        profiles = profiles_of.get(key)
        if profiles is None:
            profiles = tuple(divisor_profile(rep.orbit_matrix_at(ring, x)) for rep in reps)
            if key is not None:
                profiles_of[key] = profiles
        if holds(*profiles):
            continue
        if mode == "sample":
            violations = (violations + [(x,) + profiles])[:10]
        else:
            violations = heapq.nsmallest(10, violations + [(y,) + profiles
                                                           for y in group.orbit(x)])
    return PointReport(checked, tuple(violations), mode, not violations)


def constant_rank_check(rep: ModuleRep, ring: Ring, l: int, samples: int = 10**4,
                        seed: int = 0, budget: int = DEFAULT_BUDGET) -> PointReport:
    """Check coker C(x) = ring^l at every point with a unit coordinate (one
    point per torus orbit over a field, seeded samples over Z/p^n)."""
    return _certify([rep], ring,
                    lambda prof: _coker_is_free_of_rank(prof, ring.cap, len(rep.J), l),
                    False, samples, seed, budget)


def orbital_equivalence_check(rep_big: ModuleRep, rep_sub: ModuleRep, ring: Ring,
                              samples: int = 10**4, seed: int = 0,
                              budget: int = DEFAULT_BUDGET) -> PointReport:
    """Equal divisor profiles of the two orbit matrices at every point with
    all coordinates units (over a field one point per orbit of the torus of
    both reps, standing for its whole orbit; seeded samples over Z/p^n)."""
    if rep_big.I != rep_sub.I or rep_big.J != rep_sub.J:
        raise ShapeMismatch("representations must share index sets")
    return _certify([rep_big, rep_sub], ring, lambda pb, ps: pb == ps, True,
                    samples, seed, budget)


# ---------------------------------------------------------------------------
# Seeded helpers.
# ---------------------------------------------------------------------------

def random_unit_assignment(d: int, e: int, q: int, rng: random.Random):
    """Random unit matrix for F_q checks: entries uniform in 1..q-1."""
    from .colouring import UnitAssignment
    u = {(i, j): rng.randrange(1, q)
         for i in range(1, d + 1) for j in range(1, e + 1)}
    return UnitAssignment(d, e, u)
