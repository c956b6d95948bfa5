"""The split-quaternion monomial representation of the Hadamard stabilizer and
the intertwining checks.

A stabilizer element (P, Q, eps) is represented by the pair of B-monomial
matrices (P * (B I)^eps, Q * (B I)^eps).  Since 6 * H^-1 equals dagger(H) over
the complex subfield, the intertwining relation

    H * rep.B * H^-1 = rep.A

reads  H * rep.B * dagger(H) = 6 * rep.A  denominator-free over the exact
split quaternions.  It is checked as  H * rep.B = rep.A * H, the same
identity since H dagger(H) = dagger(H) H = 6I (prop1's h6_hadamard), on two
6x6 tables of units (verify_intertwining): no matrix over the algebra is formed.

brep_homomorphism is proved on all of X by a row law: E(f(g)) = phi g phi,
with f = _b_rep_formula, E = b_pair_perm36 (injective and multiplicative)
and phi: (c, r) -> (-c, r) on both halves of the 36 points.  With D*K a
component, D = diag(w^d) and s = (-1)^eps, both sides act row by row:

  - XElement.__init__ sends (a, r) to (s * (a - d_r), r^K), so phi g phi
    sends (c, r) to (s * (c + d_r), r^K);
  - _b_rep_formula gives row r the unit w^x B^y with x = d_r and y = eps,
    b_pair_perm36 codes it as 12x + 6y + r^K, and _B_PAIR_TABLES sends
    (c, r) to ((-1)^y * (c + x), r^K).

So the law holds on X once it holds for each (d, eps) in Z3 x Z2, checked
on the six elements (dI, dI, eps), and for one K != 1, checked on tau1.
Conjugation by the involution phi is multiplicative, so f(g h) and
f(g) f(h) have one image under E and are equal: f is a homomorphism on X.
E and the unit tables rest on the unit law, so the clause conjoins its check.
intertwining follows by generator induction: if H B'(g) = A'(g) H and
H B'(h) = A'(h) H, then H B'(gh) = A'(g) H B'(h) = A'(gh) H, since B' and A'
are both multiplicative; so checking the generators proves every element.
"""

from __future__ import annotations

from collections import namedtuple

from .eisenstein import SQ_ONE, SplitQuaternion
from .elements import XElement, compute_aut_linear, stabilizer_span, tau1, tau2prime, tau2star
from .groups import _point_act, _schreier_search
from .matrices import H6_PHASES
from .monomial import MonomialBMatrix, MonomialMatrix, b_pair_perm36, unit_product
from .perms import Permutation
from .report import Clause, Report, check

# (a, r) -> (-a, r) on the row states 0..17 and on the column states 18..35
_PHI = Permutation(base + 6 * (-a % 3) + r for base in (0, 18) for a in range(3) for r in range(6))


class BRepElement(namedtuple("BRepElement", "a b")):
    """The pair (A', B') of B-monomial matrices representing an element."""

    __slots__ = ()

    def __str__(self):
        return f"({self.a}, {self.b})"


def b_rep(g: XElement) -> BRepElement:
    """Representation value of a stabilizer element; rejects non-members."""
    if not stabilizer_span().contains(g.to_perm36()):
        raise ValueError("element does not stabilize the Hadamard matrix")
    return _b_rep_formula(g)


def _b_rep_formula(g: XElement) -> BRepElement:
    with_beta = bool(g.eps)
    return BRepElement(
        MonomialBMatrix.from_monomial(g.p, with_beta),
        MonomialBMatrix.from_monomial(g.q, with_beta),
    )


def _encodes_phi_conjugate(g: XElement) -> bool:
    """E(b_rep's formula) = phi g phi."""
    rep = _b_rep_formula(g)
    return b_pair_perm36(rep.a, rep.b) == _PHI * g.perm * _PHI


_UNITS = tuple((x, y) for x in range(3) for y in range(2))  # w^x B^y as (x, y)


def _unit_law_holds() -> bool:
    """unit_product is the algebra's product on the six units, and the six
    are distinct, so a unit is its phase: 36 products of SplitQuaternions."""
    q = {u: SplitQuaternion.unit(*u) for u in _UNITS}
    return len(set(q.values())) == 6 and all(
        q[u] * q[v] == q[unit_product(u, v)] for u in _UNITS for v in _UNITS)


def intertwining_tables(rep: BRepElement) -> tuple:
    """H * B' and A' * H as 6x6 tables of unit phases (x, y), for w^x B^y.
    Column i^K of H * B' is column i of H times B's unit i on the right;
    row i of A' * H is A's unit i times row i^K of H on the left."""
    a, b = rep
    source = sorted(range(6), key=b.perm.images.__getitem__)
    lhs = tuple(tuple(unit_product((row[i], 0), b.phases[i]) for i in source) for row in H6_PHASES)
    rhs = tuple(tuple(unit_product(u, (x, 0)) for x in H6_PHASES[j]) for u, j in zip(a.phases, a.perm.images))
    return lhs, rhs


def verify_intertwining(g: XElement) -> bool:
    """H * B' == A' * H over the split quaternions, which is
    H * B' * dagger(H) == 6 * A' since H dagger(H) = dagger(H) H = 6I.
    H's entries are cube roots and B', A' are monomial, so each entry of
    either side is one product of two units, with no sum.  unit_product gives
    its phase once the unit law holds, and distinct phases are distinct units
    (both checked by _unit_law_holds): equal tables mean equal matrices."""
    lhs, rhs = intertwining_tables(b_rep(g))
    return lhs == rhs


def commutant_dimension() -> int:
    """Commutant dimension of the eps = 0 generators' first components; 1 means scalars only."""
    return _commutant_dimension([g.p for g in compute_aut_linear().generators])


def _commutant_dimension(components) -> int:
    """Dimension over Q(w) of the X with XP = PX for each P = D*K in components,
    D = diag(w^d), as an orbit count.  X[i^K][m^K] = w^(d_m - d_i) X[i][m], so the
    state 36a + 6i + m, for X[i][m] = w^a c, goes to (i^K, m^K, a + d_m - d_i); an
    orbit meeting an entry twice forces c = 0, as w^a = 1 only when 3 divides a."""
    lifts = [Permutation(36 * ((a + d[m] - d[i]) % 3) + 6 * k[i] + k[m]
                         for a in range(3) for i in range(6) for m in range(6))
             for d, k in ((p.phases, p.perm.images) for p in components)]
    unseen, dimension = set(range(36)), 0
    while unseen:
        orbit = _schreier_search(lifts, _point_act, {min(unseen): None})
        entries = {s % 36 for s in orbit}
        unseen -= entries
        dimension += len(entries) == len(orbit)
    return dimension


def verify_theorem() -> Report:
    clauses: list[Clause] = []
    t2s = tau2star()
    gens = (tau1(), t2s)

    # the row law's six (d, eps) cases, and both generators (tau1 has K != 1)
    diagonals = [XElement(MonomialMatrix.diagonal((d,) * 6), MonomialMatrix.diagonal((d,) * 6), eps)
                 for d in range(3) for eps in range(2)]
    hom_ok = _unit_law_holds() and all(map(_encodes_phi_conjugate, diagonals + list(gens)))
    clauses.append(check("brep_homomorphism",
                         "representation is multiplicative on all 2160 elements of <tau1, tau2 *>",
                         True, hom_ok))

    # the generators' checks prove every element only through the induction
    # in the module docstring, whose premise is that A' and B' are
    # multiplicative: so the clause conjoins hom_ok
    clauses.append(check("intertwining",
                         "H B' dagger(H) = 6 A' on all 2160 elements of <tau1, tau2 *>",
                         True, hom_ok and all(verify_intertwining(g) for g in gens)))

    # on the encoding, which is faithful and multiplicative by the unit law
    rhs = b_rep(t2s).a
    involution = (b_pair_perm36(rhs, rhs) ** 2).is_identity()
    clauses.append(check("rhs_involution", "the conjugated matrix squares to the identity",
                         True, involution))

    units_ok = all(SplitQuaternion.unit(a, 1) * SplitQuaternion.unit(a, 1) == SQ_ONE for a in (0, 1, 2))
    clauses.append(check("beta_unit_squares", "(B w^a)^2 = 1 for every cube-root phase",
                         True, units_ok))

    ct1 = tau2prime().p.perm.cycle_type()
    ct2 = tau2prime().q.perm.cycle_type()
    clauses.append(check("cycle_types", "the two projections of tau2' have different cycle types",
                         "(2, 1, 1, 1, 1) vs (2, 2, 2)", f"{ct1} vs {ct2}"))

    clauses.append(check("commutant_dimension",
                         "commutant of the eps = 0 first components is scalars only",
                         1, commutant_dimension()))
    return Report("theorem", clauses)
