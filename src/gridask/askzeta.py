"""Average kernel sizes, zeta-series coefficients, rank distributions,
and the numerical constant-rank / orbital-equivalence certifiers.

The average kernel size ("ask") of a module M of matrices is
(1/|M|) sum_{m in M} |Ker m|, kernels taken for the left row-vector
action.  It is computed two independent ways: directly, by enumerating
module elements, and through the orbit matrix C(x), using the identity
ask = sum over x in R^I of 1/|image of C(x)|.

Both enumerations visit one point per torus orbit, level by level (the
direct census only under the scalar weight, that is per unit orbit), by
two exact identities over R = Z/p^n (a field F_q has n = 1):

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
- level recursion: for x = p y over Z/p^k, |image_k C(x)| = |image_{k-1} C(y)|;
  and the divisor profile of p^s B over Z/p^n is that of B over Z/p^(n-s)
  with every entry raised by s.

The orbit sum, with C(0) = 0 contributing 1, is therefore

    ask = 1 + sum_{k=1..n} sum_{x in P_k} 1/|image_k C(x)|,

where P_k is the set of primitive points over Z/p^k (some coordinate a
unit), each level summed over one point per torus orbit weighted by the
orbit size.  The k-th term does not depend on n, so zeta_coefficients
computes each level once: c_k = c_{k-1} + (the k-th term).

From level 2 on the k-th term is lifted from level k - 1.  Each x in P_k
is x' + p^(k-1) y, with x' in P_(k-1) and y over F_p, and a torus element
maps the lifts of x' onto those of its image, so x' runs over one class
per torus orbit over Z/p^(k-1) (with mixed valuations from k = 3 on),
weighted by its orbit size.  C(x') is eliminated once over Z/p^k, until
P C(x') Q = diag(p^v_1 .. p^v_t) + Z with every v_i <= k - 2 and
Z = 0 mod p^(k-1) (linalg.partial_smith); with L, R the rows of P and the
columns of Q at Z, the divisor profile of C(x) over Z/p^k is v_1 .. v_t,
then k - 1 as often as the rank over F_p of the affine matrix
K(y) = Z / p^(k-1) + L C(y) R, then k.  Every cross term is a multiple of
p^(2(k-1) - v), which is 0 mod p^k.  The values of K over all y are K(0)
plus the image of its linear part, each taken equally often, so level k
costs one elimination over Z/p^k per class and one rank over F_p per
value of K.

The direct census counts the divisor profiles of all module elements
sum_b c_b gen_b by unit scaling: the zero tuple, then one primitive tuple
c over Z/p^e (e = 1..n) per unit orbit, standing for |(Z/p^e)^x| tuples,
with its profile over Z/p^e raised by n - e.  It runs the vectorised
kernel of fastcount over F_p and Z/p^n (numpy is imported only there) and
exact elimination over F_{p^f}, at one tuple per orbit of the scalar
weight (1, .., 1).  One census over Z/p^n also gives ask over every
Z/p^k, k <= n, with each valuation capped at k.
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
from .linalg import (Mat, divisor_profile, image_size, partial_smith, profile_image_size,
                     rank)
from .modrep import ModuleRep, ShapeMismatch
from .predictions import Prediction
from .rings import ExtField, PadicQuotient, Ring

DEFAULT_BUDGET = 10**7


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class AskResult:
    value: Fraction
    method: str


def direct_profile_counts(rep: ModuleRep, ring: Ring,
                          budget: int = DEFAULT_BUDGET) -> Counter:
    """Divisor-profile census over all coefficient tuples of the generators.

    Over F_p and Z/p^n the vectorised kernel (fastcount.profile_counts)
    runs; numpy cannot hold F_{p^f} elements, so there one element per
    orbit of the scalar weight (1, .., 1), that is per unit orbit, is
    formed and eliminated (see the module docstring).
    """
    k = rep.rank
    size = ring.cardinality() ** k
    if size > budget:
        raise BudgetExceeded(f"{size} module elements exceed budget {budget}")
    zero = (ring.cap,) * min(len(rep.I), len(rep.J))
    if k == 0 or not rep.I or not rep.J:
        return Counter({zero: size})
    if not isinstance(ring, ExtField):
        from .fastcount import profile_counts
        return profile_counts(rep.gens, ring.p, ring.cap)
    counts = Counter({zero: 1})
    for coeffs, n in torus.Torus(((1,) * k,), ring).orbits(k, False):
        counts[divisor_profile(rep.element(ring, coeffs))] += n
    return counts


def _census_ask(counts: Counter, level: Ring, rows: int) -> Fraction:
    """ask over level from a divisor-profile census over level itself or,
    for level = Z/p^k, over any Z/p^n with n >= k.

    Reducing mod p^k caps every Smith valuation at k, and each tuple over
    Z/p^k has the same number of lifts, which the Fraction cancels.
    """
    space = level.cardinality() ** rows
    ker_sum = sum(n * (space // profile_image_size([min(v, level.cap) for v in prof],
                                                   level))
                  for prof, n in counts.items())
    return Fraction(ker_sum, sum(counts.values()))


def ask_direct(rep: ModuleRep, ring: Ring, budget: int = DEFAULT_BUDGET) -> AskResult:
    """Brute-force ask by enumerating every module element."""
    counts = direct_profile_counts(rep, ring, budget)
    return AskResult(_census_ask(counts, ring, len(rep.I)), "direct")


def _orbit_level_sums(rep: ModuleRep, ring: Ring, budget: int):
    """sum_{x in P_k} 1/|image_k C(x)| for the levels Z/p^k, k = 1..n, of
    R = Z/p^n (the last level is ring itself, so F_q has one), P_k the
    primitive points over Z/p^k, once |R|^I is within the budget.

    Level 1 eliminates C(x) at one point x per torus orbit, weighted by the
    orbit size.  Each level k >= 2 is lifted from the torus classes of
    P_(k-1) (_lifted_level_sum).
    """
    dI = len(rep.I)
    size = ring.cardinality() ** dI
    if size > budget:
        raise BudgetExceeded(f"{size} orbit points exceed budget {budget}")
    weights = torus.weights(rep)
    first = ring if ring.cap == 1 else PadicQuotient(ring.p, 1)
    sizes = Counter()
    for x, n in torus.Torus(weights, first).orbits(dI, False):
        sizes[image_size(rep.orbit_matrix_at(first, x))] += n
    yield sum(Fraction(n, s) for s, n in sizes.items())
    for k in range(2, ring.cap + 1):
        yield _lifted_level_sum(rep, weights, PadicQuotient(ring.p, k))


def _lifted_level_sum(rep: ModuleRep, weights, level: PadicQuotient) -> Fraction:
    """Level k >= 2 of the orbit sum, lifted from the torus classes of P_(k-1).

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
    exponents = Counter()  # log_p |image_k C(x)| -> number of points x
    for x, n in torus.Torus(weights, PadicQuotient(p, k - 1)).orbits(dI, False):
        valuations, forms = _class_lift(rep, level, x)
        base = sum(k - v for v in valuations)
        shape = (rep.rank - len(valuations), len(rep.J) - len(valuations))
        # the image of M over F_p is the lattice of M's columns and the p e_j
        # mod p: the basis rows with a diagonal 1 (the others are p e_j)
        image = [h for j, h in enumerate(torus.echelon(list(zip(*(f[1:] for f in forms))),
                                                       [p] * len(forms))) if h[j] == 1]
        share = n * p ** (dI - len(image))
        for coeffs in itertools.product(range(p), repeat=len(image)):
            entries = tuple((f[0] + sum(c * b[i] for c, b in zip(coeffs, image))) % p
                            for i, f in enumerate(forms))
            exponents[base + rank(Mat(residue, *shape, entries))] += share
    return sum(Fraction(n, p**e) for e, n in exponents.items())


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


def ask_orbit(rep: ModuleRep, ring: Ring, budget: int = DEFAULT_BUDGET) -> AskResult:
    """ask via the orbit matrix: sum over x in R^I of 1/|image C(x)|.

    R = Z/p^n, or F_q with n = 1.  By the torus (C(t.x) =
    diag(t^b) C(x) diag(t^c)) and the level recursion
    (|image_k C(p y)| = |image_{k-1} C(y)|), the sum equals
    1 + sum_{k=1..n} sum_{x in P_k} 1/|image_k C(x)|, with P_k the primitive
    points over Z/p^k, each level summed over one point per torus orbit
    weighted by its size (see the module docstring).  The budget bounds
    |R|^I.  C(x) is eliminated at each orbit point of level 1; for k >= 2
    the points x' + p^(k-1) y of P_k are lifted from one class x' per
    torus orbit of P_(k-1): C(x') is eliminated once over Z/p^k, and each
    y adds the rank over F_p of a small matrix K(y) that is affine in y
    (the lifting identity).
    """
    value = Fraction(1) + sum(_orbit_level_sums(rep, ring, budget))  # x = 0: C(0) = 0
    return AskResult(value, "orbit")


def ask(rep: ModuleRep, ring: Ring, method: str = "orbit",
        budget: int = DEFAULT_BUDGET) -> AskResult:
    if method == "direct":
        return ask_direct(rep, ring, budget)
    if method == "orbit":
        return ask_orbit(rep, ring, budget)
    raise ValueError(f"unknown method {method!r}")


def zeta_coefficients(rep: ModuleRep, p: int, n_max: int, method: str = "orbit",
                      budget: int = DEFAULT_BUDGET) -> list[Fraction]:
    """[c_0, ..., c_{n_max}] with c_k = ask over Z/p^k (c_0 = 1).

    The orbit method sums each level once, c_k = c_{k-1} + (level k's sum);
    the direct method takes one census over Z/p^n_max and reads every c_k
    from it with the profiles capped at k.
    """
    out = [Fraction(1)]
    if not n_max:
        return out
    if method == "orbit":
        for level_sum in _orbit_level_sums(rep, PadicQuotient(p, n_max), budget):
            out.append(out[-1] + level_sum)
        return out
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    counts = direct_profile_counts(rep, PadicQuotient(p, n_max), budget)
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
