#!/usr/bin/env python3
"""Show the split-quaternion intertwining identity concretely: print both
monomial sides for the conjugation-twisted generator and check the matrix
equation H * B' * dagger(H) = 6 * A' entry by entry."""

from hadamard6.autgroup import star, tau1, tau2
from hadamard6.brep import b_rep, verify_intertwining
from hadamard6.eisenstein import SplitQuaternion
from hadamard6.matrices import ExactMatrix, h6


def main():
    t2s = tau2() * star()
    rep = b_rep(t2s)
    print("element:", t2s)
    print("  first component  A' =", rep.a)
    print("  second component B' =", rep.b)
    print()
    print("H =")
    print(h6())
    print()
    lhs = h6().to_split_quaternion() @ rep.b.to_matrix() @ h6().dagger().to_split_quaternion()
    rhs = rep.a.to_matrix().scaled(6)
    print("H * B' * dagger(H) == 6 * A':", lhs == rhs)
    print("verify_intertwining(tau2 *):", verify_intertwining(t2s))
    print("verify_intertwining(tau1):  ", verify_intertwining(tau1()))
    a = rep.a.to_matrix()
    print("A' squared is the identity: ", a @ a == ExactMatrix.identity(6, SplitQuaternion))


if __name__ == "__main__":
    main()
