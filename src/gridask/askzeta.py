"""Average kernel sizes, zeta-series coefficients, rank distributions,
and the numerical constant-rank / orbital-equivalence certifiers.

The average kernel size ("ask") of a module M of matrices is
(1/|M|) sum_{m in M} |Ker m|, kernels taken for the left row-vector
action.  It is computed two independent ways: directly, by enumerating
module elements, and through the orbit matrix C(x), using the identity
ask = sum over x in R^I of 1/|image of C(x)|.

Both enumerations visit one point per unit orbit, level by level, by two
exact identities over R = Z/p^n (a field F_q has n = 1):

- unit scaling: for a unit u, C(u x) = u C(x) has the image size of C(x)
  and u A has the divisor profile of A, and units act freely on primitive
  points;
- level recursion: for x = p y over Z/p^k, |image_k C(x)| = |image_{k-1} C(y)|;
  and the divisor profile of p^s B over Z/p^n is that of B over Z/p^(n-s)
  with every entry raised by s.

The orbit sum, with C(0) = 0 contributing 1, is therefore

    ask = 1 + sum_{k=1..n} |(Z/p^k)^x| * sum_{x in N_k} 1/|image_k C(x)|,

where N_k is the set of normalised primitive points over Z/p^k: the
first unit coordinate is 1, every earlier one a non-unit.  The k-th term
does not depend on n, so zeta_coefficients computes each level once:
c_k = c_{k-1} + (the k-th term).

The direct census counts the divisor profiles of all module elements
sum_b c_b gen_b the same way: the zero tuple, then each c in N_e (e = 1..n)
standing for |(Z/p^e)^x| tuples, with its profile over Z/p^e raised by
n - e.  It runs the vectorised kernel of fastcount over F_p and Z/p^n
(numpy is imported only there) and exact elimination, element by element,
over F_{p^f}.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import divisor_profile, image_size, profile_image_size
from .modrep import ModuleRep, ShapeMismatch
from .predictions import Prediction
from .rings import ExtField, PadicQuotient, Ring

DEFAULT_BUDGET = 10**7


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class AskResult:
    value: Fraction
    module_size: int
    method: str


def direct_profile_counts(rep: ModuleRep, ring: Ring,
                          budget: int = DEFAULT_BUDGET) -> Counter:
    """Divisor-profile census over all coefficient tuples of the generators.

    Over F_p and Z/p^n the vectorised kernel (fastcount.profile_counts)
    runs; numpy cannot hold F_{p^f} elements, so there one element per
    unit orbit is formed and eliminated (see the module docstring).
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
    units = ring.cardinality() - 1
    counts = Counter({zero: 1})
    for coeffs in _normalised_primitive_points(ring, k):
        counts[divisor_profile(rep.element(ring, coeffs))] += units
    return counts


def ask_direct(rep: ModuleRep, ring: Ring, budget: int = DEFAULT_BUDGET) -> AskResult:
    """Brute-force ask by enumerating every module element."""
    counts = direct_profile_counts(rep, ring, budget)
    total = sum(counts.values())
    space = ring.cardinality() ** len(rep.I)
    ker_sum = sum(n * (space // profile_image_size(prof, ring))
                  for prof, n in counts.items())
    return AskResult(Fraction(ker_sum, total), total, "direct")


def _normalised_primitive_points(ring: Ring, dim: int):
    """One point of ring^dim per unit orbit of primitive points: the first
    unit coordinate is ring.one, earlier ones are non-units, later ones
    arbitrary."""
    elems = list(ring.elements())
    nonunits = [a for a in elems if not ring.is_unit(a)]
    one = (ring.one,)
    for j in range(dim):
        for head in itertools.product(nonunits, repeat=j):
            for tail in itertools.product(elems, repeat=dim - 1 - j):
                yield head + one + tail


def _orbit_level_sums(rep: ModuleRep, ring: Ring, budget: int):
    """|(Z/p^k)^x| * sum_{x in N_k} 1/|image_k C(x)| for the levels Z/p^k,
    k = 1..n, of R = Z/p^n (the last level is ring itself, so F_q has one),
    once |R|^I is within the budget."""
    dI = len(rep.I)
    size = ring.cardinality() ** dI
    if size > budget:
        raise BudgetExceeded(f"{size} orbit points exceed budget {budget}")
    for level in [PadicQuotient(ring.p, k) for k in range(1, ring.cap)] + [ring]:
        sizes = Counter(image_size(rep.orbit_matrix_at(level, x))
                        for x in _normalised_primitive_points(level, dI))
        q = level.cardinality()
        units = q - q // level.residue_cardinality()
        yield units * sum(Fraction(n, s) for s, n in sizes.items())


def ask_orbit(rep: ModuleRep, ring: Ring, budget: int = DEFAULT_BUDGET) -> AskResult:
    """ask via the orbit matrix: sum over x in R^I of 1/|image C(x)|.

    R = Z/p^n, or F_q with n = 1.  By unit scaling (C(u x) = u C(x), units
    acting freely on primitive points) and the level recursion
    (|image_k C(p y)| = |image_{k-1} C(y)|), the sum equals
    1 + sum_{k=1..n} |(Z/p^k)^x| * sum_{x in N_k} 1/|image_k C(x)|, with N_k
    the normalised primitive points over Z/p^k (see the module docstring).
    Only the points of the N_k are enumerated; the budget still bounds |R|^I.
    """
    value = Fraction(1) + sum(_orbit_level_sums(rep, ring, budget))  # x = 0: C(0) = 0
    return AskResult(value, ring.cardinality() ** rep.rank, "orbit")


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

    The orbit method sums each level once, c_k = c_{k-1} + (level k's sum).
    """
    out = [Fraction(1)]
    if method == "orbit":
        if n_max:
            for level_sum in _orbit_level_sums(rep, PadicQuotient(p, n_max), budget):
                out.append(out[-1] + level_sum)
        return out
    for k in range(1, n_max + 1):
        out.append(ask(rep, PadicQuotient(p, k), method, budget).value)
    return out


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

    def ask_value(self, rows: int, dim: int) -> Fraction:
        """Recover ask from the census: sum_r count(r) q^{rows-r} / q^dim."""
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


def _point_mode(ring: Ring, dim: int, budget: int) -> str:
    """The certifiers' mode, fixed by the ring: every point of a field
    (within the budget), seeded samples over Z/p^n."""
    if ring.cap != 1:
        return "sample"
    size = ring.cardinality() ** dim
    if size > budget:
        raise BudgetExceeded(f"{size} points exceed budget {budget}")
    return "exhaustive"


def _unit_coordinate_points(ring: Ring, dim: int, samples: int, seed: int,
                            all_units: bool):
    """Points x in ring^dim: exhaustive over fields, sampled over Z/p^n.

    all_units=True restricts every coordinate to units (non-degenerate
    points); otherwise at least one coordinate must be a unit.
    """
    if ring.cap == 1:
        for x in itertools.product(list(ring.elements()), repeat=dim):
            units = [ring.is_unit(c) for c in x]
            if all_units and all(units) or (not all_units and any(units)):
                yield x
    else:
        rng = random.Random(seed)
        units = [u for u in ring.units()]
        elems = [e for e in ring.elements()]
        for _ in range(samples):
            if all_units:
                yield tuple(rng.choice(units) for _ in range(dim))
            else:
                x = tuple(rng.choice(elems) for _ in range(dim))
                while not any(ring.is_unit(c) for c in x):
                    x = tuple(rng.choice(elems) for _ in range(dim))
                yield x


def constant_rank_check(rep: ModuleRep, ring: Ring, l: int, samples: int = 10**4,
                        seed: int = 0, budget: int = DEFAULT_BUDGET) -> PointReport:
    """Check coker C(x) = ring^l at every point with a unit coordinate
    (exhaustive over fields, seeded unit-coordinate samples over Z/p^n)."""
    dim = len(rep.I)
    mode = _point_mode(ring, dim, budget)
    violations = []
    checked = 0
    for x in _unit_coordinate_points(ring, dim, samples, seed, all_units=False):
        checked += 1
        prof = divisor_profile(rep.orbit_matrix_at(ring, x))
        if not _coker_is_free_of_rank(prof, ring.cap, len(rep.J), l):
            if len(violations) < 10:
                violations.append((x, prof))
    return PointReport(checked, tuple(violations), mode, not violations)


def orbital_equivalence_check(rep_big: ModuleRep, rep_sub: ModuleRep, ring: Ring,
                              samples: int = 10**4, seed: int = 0,
                              budget: int = DEFAULT_BUDGET) -> PointReport:
    """Equal divisor profiles of the two orbit matrices at every
    non-degenerate point (all coordinates non-zero over a field; all
    coordinates units over Z/p^n, sampled)."""
    if rep_big.I != rep_sub.I or rep_big.J != rep_sub.J:
        raise ShapeMismatch("representations must share index sets")
    dim = len(rep_big.I)
    mode = _point_mode(ring, dim, budget)
    violations = []
    checked = 0
    for x in _unit_coordinate_points(ring, dim, samples, seed, all_units=True):
        checked += 1
        pb = divisor_profile(rep_big.orbit_matrix_at(ring, x))
        ps = divisor_profile(rep_sub.orbit_matrix_at(ring, x))
        if pb != ps:
            if len(violations) < 10:
                violations.append((x, pb, ps))
    return PointReport(checked, tuple(violations), mode, not violations)


# ---------------------------------------------------------------------------
# Seeded helpers.
# ---------------------------------------------------------------------------

def random_unit_assignment(d: int, e: int, q: int, rng: random.Random):
    """Random unit matrix for F_q checks: entries uniform in 1..q-1."""
    from .colouring import UnitAssignment
    u = {(i, j): rng.randrange(1, q)
         for i in range(1, d + 1) for j in range(1, e + 1)}
    return UnitAssignment(d, e, u)
