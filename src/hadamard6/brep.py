"""The split-quaternion monomial representation of the Hadamard stabilizer and
the intertwining checks.

A stabilizer element (P, Q, eps) is represented by the pair of B-monomial
matrices (P * (B I)^eps, Q * (B I)^eps).  Since 6 * H^-1 equals dagger(H) over
the complex subfield, the intertwining relation

    H * rep.B * H^-1 = rep.A

is verified denominator-free as  H * rep.B * dagger(H) = 6 * rep.A  over the
exact split quaternions; no inverse is ever formed in the noncommutative ring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

from .autgroup import XElement, compute_aut_linear, compute_aut_star, star, tau1, tau2, tau2prime
from .eisenstein import E_ZERO, EisensteinRational, SplitQuaternion
from .matrices import ExactMatrix, h6, row_basis
from .monomial import MonomialBMatrix
from .report import Clause, Report, check


@dataclass(frozen=True)
class BRepElement:
    a: MonomialBMatrix
    b: MonomialBMatrix

    def __mul__(self, other: "BRepElement") -> "BRepElement":
        return BRepElement(self.a * other.a, self.b * other.b)

    def __str__(self):
        return f"({self.a}, {self.b})"


def b_rep(g: XElement) -> BRepElement:
    """Representation value of a stabilizer element; rejects non-members."""
    if not compute_aut_star().bsgs.contains(g.to_perm36()):
        raise ValueError("element does not stabilize the Hadamard matrix")
    with_beta = bool(g.eps)
    return BRepElement(
        MonomialBMatrix.from_monomial(g.p, with_beta),
        MonomialBMatrix.from_monomial(g.q, with_beta),
    )


@cache
def _h6_split() -> ExactMatrix:
    return h6().to_split_quaternion()


@cache
def _h6_dagger_split() -> ExactMatrix:
    return h6().dagger().to_split_quaternion()


def verify_intertwining(g: XElement) -> bool:
    """H * B' * dagger(H) == 6 * A' over the split quaternions."""
    rep = b_rep(g)
    lhs = _h6_split() @ rep.b.to_matrix() @ _h6_dagger_split()
    rhs = rep.a.to_matrix().scaled(6)
    return lhs == rhs


def _random_word(rng: random.Random, letters, length: int) -> XElement:
    g = XElement.identity()
    for _ in range(length):
        g = g * rng.choice(letters)
    return g


def commutant_dimension() -> int:
    """Dimension over Q(w) of the matrices commuting with every first
    component of the eps = 0 stabilizer generators; 1 means scalars only."""
    mats = [g.p.to_matrix() for g in compute_aut_linear().generators]
    n = 6
    unknowns = n * n
    rows: list[list[EisensteinRational]] = []
    for A in mats:
        a = A.entries
        for i in range(n):
            for j in range(n):
                row = [E_ZERO] * unknowns
                for k in range(n):
                    row[i * n + k] = row[i * n + k] + a[k * n + j]
                    row[k * n + j] = row[k * n + j] - a[i * n + k]
                rows.append(row)
    return unknowns - len(row_basis(rows))


def verify_theorem(seed: int = 0) -> Report:
    clauses: list[Clause] = []
    rng = random.Random(seed)
    t2s = tau2() * star()
    letters = [tau1(), t2s]

    hom_ok = True
    for _ in range(100):
        g = _random_word(rng, letters, 10)
        h = _random_word(rng, letters, 10)
        if b_rep(g * h) != b_rep(g) * b_rep(h):
            hom_ok = False
            break
    clauses.append(check("brep_homomorphism",
                         "representation is multiplicative on 100 random 10-letter words",
                         True, hom_ok))

    gens_ok = all(verify_intertwining(g) for g in (tau1(), t2s, XElement.identity()))
    words_ok = all(verify_intertwining(_random_word(rng, letters, 10)) for _ in range(100))
    clauses.append(check("intertwining", "H B' dagger(H) = 6 A' for generators and 100 random words",
                         True, gens_ok and words_ok))

    rhs = b_rep(t2s).a
    rhs_mat = rhs.to_matrix()
    involution = rhs_mat @ rhs_mat == ExactMatrix.identity(6, SplitQuaternion)
    clauses.append(check("rhs_involution", "the conjugated matrix squares to the identity",
                         True, involution))

    one = SplitQuaternion.one()
    units_ok = all(SplitQuaternion.unit(a, 1) * SplitQuaternion.unit(a, 1) == one for a in (0, 1, 2))
    clauses.append(check("beta_unit_squares", "(B w^a)^2 = 1 for every cube-root phase",
                         True, units_ok))

    ct1 = tau2prime().p.pi().cycle_type()
    ct2 = tau2prime().q.pi().cycle_type()
    clauses.append(check("cycle_types", "the two projections of tau2' have different cycle types",
                         "(2, 1, 1, 1, 1) vs (2, 2, 2)", f"{ct1} vs {ct2}"))

    clauses.append(check("commutant_dimension",
                         "commutant of the eps = 0 first components is scalars only",
                         1, commutant_dimension()))
    return Report("theorem", clauses)
