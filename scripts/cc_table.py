#!/usr/bin/env python3
"""Conjugacy-class counts of small unipotent groups, counted through the
average kernel size of the centre-restricted adjoint module and compared
with the closed-form catalog.

Usage: python3 scripts/cc_table.py [PRIME ...]
"""
import sys

from gridask.nilpotent import conjugacy_count_bch, free_nilpotent_lie
from gridask.predictions import predict


def main() -> None:
    primes = [int(a) for a in sys.argv[1:]] or [5, 7]
    groups = [("free class 2, 2 gens", free_nilpotent_lie(2, 2),
               predict("F2d_cc", d=2)),
              ("free class 3, 2 gens", free_nilpotent_lie(2, 3),
               predict("F3d_cc", d=2)),
              ("free class 3, 3 gens", free_nilpotent_lie(3, 3),
               predict("F3d_cc", d=3))]
    for name, alg, pred in groups:
        for p in primes:
            counted = conjugacy_count_bch(alg, p)
            predicted = pred.coefficient(p, 1)
            flag = "ok" if counted == predicted else "MISMATCH"
            print(f"{name:>22}  p={p:3d}  counted={counted:8d}  "
                  f"predicted={predicted}  {flag}")


if __name__ == "__main__":
    main()
