"""Vectorised test oracles (numpy int64, exact modular arithmetic).

No library path imports this module: numpy is a test dependency only.  It
stays in the package because the benchmark's tracer (perfbench/tracing.py)
imports it and patches its functions by name.

Two oracles live here.  The census oracle (profile_counts over
batched_profiles) counts the divisor profiles of every element of a module
of matrices over F_p or Z/p^n, by an enumeration independent of the
library's census (askzeta.direct_profile_counts walks torus orbits of the
module's dual in pure Python).  It eliminates one coefficient tuple per
unit orbit, level by level, by two exact identities:

- unit scaling: u A has the divisor profile of A for a unit u, and units
  act freely on primitive tuples;
- level recursion: the profile of p^s B over Z/p^n is the profile of B
  over Z/p^(n-s) with every entry raised by s.

So the zero tuple has profile (n, ..., n), and every other tuple is
p^(n-e) u c for one normalised primitive c over Z/p^e (first unit
coordinate 1, earlier ones multiples of p) and one of the p^e - p^(e-1)
units u: the census runs batched_profiles over the normalised primitive
tuples of each level e = 1..n only, and counts profiles by a 1-D
multiset key instead of sorting the rows.

baer_orbit_count, the conjugation-orbit sweep for class-2 groups built
from alternating forms, checks the library's class counts, which are
p^l * ask (nilpotent.baer_group_cc).
All arithmetic stays in int64.  The largest intermediate of the census is
a sum of k products of two residues mod p^n, so profile_counts refuses k
generators unless k * (p^n - 1)^2 <= 2^63 - 1.
"""
from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

IntMatrix = Sequence[Sequence[int]]
INT64_MAX = 2**63 - 1


def _valuations(A: np.ndarray, p: int, n: int) -> np.ndarray:
    """Entrywise p-valuation capped at n (valuation of 0 is n)."""
    V = np.zeros(A.shape, dtype=np.int64)
    for v in range(1, n):
        V += (A % p**v == 0)
    V[A == 0] = n
    return V


def _unit_inverse(U: np.ndarray, p: int, n: int) -> np.ndarray:
    """Inverse of unit entries mod p^n by Euler's theorem (square/multiply)."""
    m = p**n
    exp = p ** (n - 1) * (p - 1) - 1
    out = np.ones_like(U)
    base = U % m
    e = exp
    while e:
        if e & 1:
            out = (out * base) % m
        base = (base * base) % m
        e >>= 1
    return out


def batched_profiles(A: np.ndarray, p: int, n: int) -> np.ndarray:
    """Divisor profiles of a batch of matrices over Z/p^n.

    A has shape (N, rows, cols), entries reduced mod p^n.  Returns an
    (N, min(rows, cols)) array of sorted valuation profiles.  Mirrors the
    pure elimination in linalg.divisor_profile: pick a minimal-valuation
    pivot, normalise its unit part, clear the column below; row residue
    clearing is implicit.
    """
    m = p**n
    A = A.copy() % m
    N, rows, cols = A.shape
    steps = min(rows, cols)
    profiles = np.full((N, steps), n, dtype=np.int64)
    for t in range(steps):
        sub = A[:, t:, t:]
        V = _valuations(sub, p, n)
        flat = V.reshape(N, -1)
        arg = np.argmin(flat, axis=1)
        best_v = flat[np.arange(N), arg]
        profiles[:, t] = best_v
        if np.all(best_v == n):
            break
        bi = arg // (cols - t) + t
        bj = arg % (cols - t) + t
        idx = np.arange(N)
        # swap pivot row/column into position t
        tmp = A[idx, t, :].copy()
        A[idx, t, :] = A[idx, bi, :]
        A[idx, bi, :] = tmp
        tmp = A[idx, :, t].copy()
        A[idx, :, t] = A[idx, :, bj]
        A[idx, :, bj] = tmp
        pivot = A[idx, t, t]
        pv = p**best_v
        unit = np.where(best_v < n, pivot // np.maximum(pv, 1), 1) % m
        unit = np.where(unit == 0, 1, unit)  # exhausted items: no-op
        inv = _unit_inverse(unit, p, n)
        A[idx, t, :] = (A[idx, t, :] * inv[:, None]) % m
        if t + 1 < rows:
            col = A[:, t + 1:, t]
            factor = (col // np.maximum(pv, 1)[:, None]) % m
            dead = (best_v == n)
            factor[dead] = 0
            A[:, t + 1:, :] = (A[:, t + 1:, :] - factor[:, :, None] * A[:, t:t + 1, :]) % m
    profiles.sort(axis=1)
    return profiles


def _level_matrices(garr: np.ndarray, p: int, e: int, chunk: int):
    """Chunks of sum_b c_b G_b mod p^e over the normalised primitive c in
    (Z/p^e)^k: the first unit coordinate is 1, every earlier one a multiple
    of p, every later one arbitrary."""
    q = p**e
    k, rows, cols = garr.shape
    G = garr % q
    for j in range(k):
        # heads p*d with d < p^(e-1) before position j, tails c < q after it
        bases = [q] * (k - 1 - j) + [q // p] * j
        coords = list(range(j + 1, k)) + list(range(j))
        total = (q // p) ** j * q ** (k - 1 - j)
        for start in range(0, total, chunk):
            rem = np.arange(start, min(start + chunk, total), dtype=np.int64)
            A = np.broadcast_to(G[j], (rem.size, rows, cols)).copy()
            for b, base in zip(coords, bases):
                digit = rem % base
                rem = rem // base
                if b < j:
                    digit *= p
                A += digit[:, None, None] * G[b]
            A %= q
            yield A


def _multiset_counts(profs: np.ndarray, e: int) -> list[tuple[tuple[int, ...], int]]:
    """(profile, count) for each distinct row of profs (values 0..e).

    A row is keyed by sum_i (steps+1)^v_i, which writes the number of
    entries equal to each value v in base steps+1: one integer per
    multiset, with no sort of the rows.  Where the keys could leave int64
    (many steps over a deep level), they are Python ints.
    """
    base = profs.shape[1] + 1
    wide = base ** (e + 1) > INT64_MAX
    powers = np.array([base**v for v in range(e + 1)],
                      dtype=object if wide else np.int64)
    keys = powers[profs].sum(axis=1)
    _, first, cnt = np.unique(keys, return_index=True, return_counts=True)
    return [(tuple(int(v) for v in profs[i]), int(c)) for i, c in zip(first, cnt)]


def profile_counts(gens: Sequence[IntMatrix], p: int, n: int,
                   chunk: int = 1 << 18) -> Counter:
    """Divisor-profile census of {sum_b c_b gen_b : c in (Z/p^n)^B}.

    Returns Counter{profile tuple: count} over all (p^n)^len(gens)
    coefficient tuples, eliminating one tuple per unit orbit at each level
    (see the module docstring).  Raises ValueError when the int64
    arithmetic could overflow.
    """
    m = p**n
    k = len(gens)
    if k == 0:
        raise ValueError("profile_counts needs at least one generator")
    if k * (m - 1) ** 2 > INT64_MAX:
        raise ValueError(f"{k} generators over Z/{m} exceed the exact int64 range "
                         f"of the census: {k}*({m}-1)^2 > 2^63-1")
    rows = len(gens[0])
    cols = len(gens[0][0]) if rows else 0
    garr = np.array(gens, dtype=np.int64).reshape(k, rows, cols)
    steps = min(rows, cols)
    counts: Counter = Counter({(n,) * steps: 1})
    for e in range(1, n + 1):
        units = p**e - p ** (e - 1)
        for A in _level_matrices(garr, p, e, chunk):
            for prof, c in _multiset_counts(batched_profiles(A, p, e), e):
                counts[tuple(v + n - e for v in prof)] += units * c
    return counts


# ---------------------------------------------------------------------------
# Conjugation-orbit sweep for class-2 groups from alternating forms.
# ---------------------------------------------------------------------------

def baer_orbit_count(forms: Sequence[IntMatrix], p: int) -> int:
    """Number of conjugacy classes of the group on (F_p)^d x (F_p)^l with
    multiplication (x,y)(x',y') = (x+x', y+y'+ (1/2) beta(x,x')), where
    beta is the vector of the given alternating forms.

    Brute force: build, for every standard generator g (unit vectors in
    both coordinates), the permutation h -> g^{-1} h g of all |G| element
    indices via two applications of the group law, then count orbits of
    the generated permutation group by iterative min-label propagation.
    A vectorised test oracle; no library path calls it.
    """
    d = len(forms[0]) if forms else 0
    l = len(forms)
    farr = np.array(forms, dtype=np.int64) % p  # (l, d, d)
    dim = d + l
    N = p**dim
    half = pow(2, -1, p)

    powers = p ** np.arange(dim, dtype=np.int64)
    idx = np.arange(N, dtype=np.int64)
    digits = (idx[:, None] // powers[None, :]) % p  # (N, dim)
    X = digits[:, :d]
    Y = digits[:, d:]

    def beta(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
        # (N,l): xa A_k xb^T for each form k
        out = np.zeros((xa.shape[0], l), dtype=np.int64)
        for k in range(l):
            out[:, k] = np.einsum("ni,ij,nj->n", xa, farr[k], xb) % p
        return out % p

    def law(xa, ya, xb, yb):
        x = (xa + xb) % p
        y = (ya + yb + half * beta(xa, xb)) % p
        return x, y

    def encode(x, y):
        dig = np.concatenate([x, y], axis=1)
        return (dig * powers[None, :]).sum(axis=1)

    perms = []
    for g_pos in range(dim):
        gx = np.zeros((1, d), dtype=np.int64)
        gy = np.zeros((1, l), dtype=np.int64)
        if g_pos < d:
            gx[0, g_pos] = 1
        else:
            gy[0, g_pos - d] = 1
        gx_b = np.broadcast_to(gx, X.shape)
        gy_b = np.broadcast_to(gy, Y.shape)
        ginv_x = (-gx_b) % p
        ginv_y = (-gy_b) % p  # beta(g,g) = 0, so (x,y)^{-1} = (-x,-y)
        tx, ty = law(X, Y, gx_b, gy_b)          # h g
        rx, ry = law(ginv_x, ginv_y, tx, ty)    # g^{-1} (h g)
        perm = encode(rx, ry)
        if not np.array_equal(perm, idx):
            perms.append(perm.astype(np.int64))
            perms.append(np.argsort(perm).astype(np.int64))

    labels = idx.copy()
    while True:
        changed = False
        for perm in perms:
            new = np.minimum(labels, labels[perm])
            if not np.array_equal(new, labels):
                labels = new
                changed = True
        if not changed:
            break
    return int(np.unique(labels).size)
