#!/usr/bin/env python3
"""Conjugacy-class counts of small unipotent groups over Z/p and Z/p^2,
counted through the average kernel size of the centre-restricted adjoint
module and compared with the closed-form catalog (c_1 and c_2).  Exits 1
after the table if any count differs from its closed form, and 3 on an
input error, such as a modulus that is not prime or a prime not above the
class, before any count.

Usage: python3 scripts/cc_table.py [PRIME ...]
"""
import sys

from gridask.cli import INPUT_ERRORS
from gridask.nilpotent import check_free_group, conjugacy_count_bch, free_nilpotent_lie
from gridask.predictions import predict
from gridask.rings import PadicQuotient

# c_2 of the free class-3 group on 3 generators walks |Z/p^2|^6 census
# points, beyond the default budget from p = 5 on
BUDGET = 10**15


# (name, generators, class, catalog entry, its parameters)
GROUPS = [("free class 2, 2 gens", 2, 2, "F2d_cc", {"d": 2}),
          ("free class 3, 2 gens", 2, 3, "F3d_cc", {"d": 2}),
          ("free class 3, 3 gens", 3, 3, "F3d_cc", {"d": 3}),
          ("free class 4, 2 gens", 2, 4, "F42_cc", {})]


def main() -> None:
    try:  # refused as by gridask cc, before any count
        primes = [int(a) for a in sys.argv[1:]] or [5, 7]
        for _, d, c, _, _ in GROUPS:
            for p in primes:
                check_free_group(d, c, PadicQuotient(p, 2), BUDGET)
    except INPUT_ERRORS as exc:  # exit 3, the gridask code of an input error
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(3) from None
    groups = [(name, free_nilpotent_lie(d, c), predict(entry, **params))
              for name, d, c, entry, params in GROUPS]
    mismatches = 0
    for name, alg, pred in groups:
        for p in primes:
            for n in (1, 2):
                counted = conjugacy_count_bch(alg, p, n, BUDGET)
                predicted = pred.coefficient(p, n)
                flag = "ok" if counted == predicted else "MISMATCH"
                mismatches += counted != predicted
                print(f"{name:>22}  p={p:3d}  c_{n}={counted:18d}  "
                      f"predicted={predicted}  {flag}")
    if mismatches:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
