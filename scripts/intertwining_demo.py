#!/usr/bin/env python3
"""Show the split-quaternion intertwining identity concretely for the
conjugation-twisted generator tau2 *: print both monomial sides, the exponent
table of H and the two sides of H * B' = A' * H as tables of units w^x B^y,
then the checks.  Exits 1 if any printed check fails."""

import sys

from hadamard6.brep import b_rep, intertwining_tables, verify_intertwining
from hadamard6.elements import tau1, tau2star
from hadamard6.matrices import H6_PHASES
from hadamard6.monomial import MonomialBMatrix, b_pair_perm36


def print_table(title, rows, name):
    print(title)
    for row in rows:
        print("  " + " ".join(f"{name(x):>3}" for x in row))
    print()


def main() -> int:
    t2s = tau2star()
    rep = b_rep(t2s)
    print("element:", t2s)
    print("  first component  A' =", rep.a)
    print("  second component B' =", rep.b)
    print()
    print_table("H = w^k with exponents k =", H6_PHASES, str)
    lhs, rhs = intertwining_tables(rep)
    unit = MonomialBMatrix._names.__getitem__
    print_table("H * B' =", lhs, unit)
    print_table("A' * H =", rhs, unit)
    checks = {
        "H * B' == A' * H, unit by unit:": lhs == rhs,
        "verify_intertwining(tau2 *):    ": verify_intertwining(t2s),
        "verify_intertwining(tau1):      ": verify_intertwining(tau1()),
        "A' squared is the identity:     ": (b_pair_perm36(rep.a, rep.a) ** 2).is_identity(),
    }
    for text, ok in checks.items():
        print(text, ok)
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
