#!/usr/bin/env python3
"""Conjugacy-class counts of small unipotent groups over Z/p and Z/p^2,
counted through the average kernel size of the centre-restricted adjoint
module and compared with the closed-form catalog (c_1 and c_2).  Exits 1
after the table if any count differs from its closed form.

Usage: python3 scripts/cc_table.py [PRIME ...]
"""
import sys

from gridask.nilpotent import conjugacy_count_bch, free_nilpotent_lie
from gridask.predictions import predict

# c_2 of the free class-3 group on 3 generators walks |Z/p^2|^6 census
# points, beyond the default budget from p = 5 on
BUDGET = 10**15


def main() -> None:
    primes = [int(a) for a in sys.argv[1:]] or [5, 7]
    groups = [("free class 2, 2 gens", free_nilpotent_lie(2, 2),
               predict("F2d_cc", d=2)),
              ("free class 3, 2 gens", free_nilpotent_lie(2, 3),
               predict("F3d_cc", d=2)),
              ("free class 3, 3 gens", free_nilpotent_lie(3, 3),
               predict("F3d_cc", d=3)),
              ("free class 4, 2 gens", free_nilpotent_lie(2, 4),
               predict("F42_cc"))]
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
