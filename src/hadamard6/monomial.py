"""Monomial matrices over third roots of unity, and over the units w^a * B^b
of the split quaternions.

A monomial matrix is stored in its unique factorisation D*K: D diagonal with
unit entries (kept as exponents), K the permutation matrix with K[i][j] = 1
iff j = i^sigma, i.e. sigma permutes the columns of the identity as a right
action.  With that convention

    (d1, s1) * (d2, s2) = (d1 + d2 o s1, s1 s2),   (d2 o s1)[r] = d2[r^s1]

and the permutation parts multiply exactly like the matrices do.  B-valued
matrices have no product of their own: the unit law in MonomialBMatrix's
docstring encodes a pair of them as a 36-point permutation (b_pair_perm36),
and products are taken there.  The two kinds share one body: validation,
equality, hashing and text.  A kind sets only the name of each phase and how
its phases reduce.  A plain monomial matrix also multiplies a dense
ExactMatrix over Z[w], on either side, by moving and scaling its rows or
columns.
Text is output only, with no parser back: "[e1,...,en]" followed by the
cycles of K ("[1,w,w2,1,1,1](1,2)"); the B-form entries append a B suffix,
so the unit w^a * B prints as "wB", "w2B" or "B".
"""

from __future__ import annotations

from .eisenstein import OMEGA_POWERS, EisensteinRational
from .matrices import ExactMatrix
from .perms import Permutation

# Row r of a B-monomial component, with unit w^x B^y and image s, is coded
# 12x + 6y + s; _B_PAIR_TABLES[half][c] sends that code to the image of the
# point (c, r) in that half of the 36 points, by the unit law.
_B_PAIR_TABLES = tuple(
    tuple(bytes(base + 6 * ((c + x) * (-1) ** y % 3) + s
                for x in range(3) for y in range(2) for s in range(6)).ljust(256, b"\0")
          for c in range(3))
    for base in (0, 18))


class _Monomial:
    """D*K with D the diagonal of the units named by the phases and K the
    permutation matrix of perm.  A kind sets _names, and reduces its phases
    before they reach this __init__."""

    __slots__ = ("phases", "perm")

    def __init__(self, phases: tuple, perm: Permutation):
        if len(phases) != perm.degree:
            raise ValueError("phase vector length does not match degree")
        self.phases = phases
        self.perm = perm

    @property
    def degree(self) -> int:
        return len(self.phases)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.phases == other.phases and self.perm == other.perm

    def __hash__(self):
        return hash((self.phases, self.perm.images))

    def __str__(self):
        cyc = "" if self.perm.is_identity() else str(self.perm)
        return f"[{','.join(map(self._names.__getitem__, self.phases))}]{cyc}"

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


class MonomialMatrix(_Monomial):
    """D*K with D = diag(w^phases) and K the permutation matrix of perm."""

    __slots__ = ()
    _names = ("1", "w", "w2")

    def __init__(self, phases, perm: Permutation):
        super().__init__(tuple(p % 3 for p in phases), perm)

    def __matmul__(self, m):
        """(D K) M: row i is w^d_i times row i^K of M."""
        if not isinstance(m, ExactMatrix):
            return NotImplemented
        if m.rows != self.degree or m.ring is not EisensteinRational:
            raise ValueError("dimension or ring mismatch")
        c, e = m.cols, m.entries
        out = tuple(OMEGA_POWERS[d] * x for d, j in zip(self.phases, self.perm.images)
                    for x in e[j * c:(j + 1) * c])
        return ExactMatrix(m.rows, c, out)

    def __rmatmul__(self, m):
        """M (D K): column i^K is column i of M times w^d_i."""
        if not isinstance(m, ExactMatrix):
            return NotImplemented
        if m.cols != self.degree or m.ring is not EisensteinRational:
            raise ValueError("dimension or ring mismatch")
        n, e, d = m.cols, m.entries, self.phases
        source = sorted(range(n), key=self.perm.images.__getitem__)
        out = tuple(e[k + i] * OMEGA_POWERS[d[i]] for k in range(0, m.rows * n, n) for i in source)
        return ExactMatrix(m.rows, n, out)

    @classmethod
    def diagonal(cls, phases) -> "MonomialMatrix":
        phases = tuple(phases)
        return cls(phases, Permutation.identity(len(phases)))

    def __mul__(self, other):
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        s1 = self.perm.images
        d2 = other.phases
        phases = tuple((d1 + d2[s1[r]]) % 3 for r, d1 in enumerate(self.phases))
        return MonomialMatrix(phases, self.perm * other.perm)

    def inverse(self) -> "MonomialMatrix":
        inv = self.perm.inverse()
        ii = inv.images
        phases = tuple((-self.phases[ii[r]]) % 3 for r in range(self.degree))
        return MonomialMatrix(phases, inv)


class MonomialBMatrix(_Monomial):
    """Monomial matrix with unit entries w^a * B^b, phase (a, b); same D*K
    convention.

    The units multiply by w^a B^b * w^c B^d = w^(a + (-1)^b c) B^(b+d) and
    form a group isomorphic to S3, which acts faithfully on the phases c mod 3
    by c -> (-1)^b (c + a).  So a B-monomial matrix acts faithfully on the 18
    points (c, r) = 6c + r by

        (c, r)  ->  ((-1)^b_r * (c + a_r),  r^K)

    and b_pair_perm36 stacks two of them on 36 points.  The unit law
    (unit_product) defines that encoding, not a product: a product of
    B-monomial matrices is taken on the encoding, which the tests pin against
    dense split-quaternion products.  The theorem suite checks the law against
    the algebra on all 36 products of the six units.
    """

    __slots__ = ()
    _names = {(0, 0): "1", (1, 0): "w", (2, 0): "w2", (0, 1): "B", (1, 1): "wB", (2, 1): "w2B"}

    def __init__(self, phases, perm: Permutation):
        super().__init__(tuple((a % 3, b % 2) for a, b in phases), perm)

    @classmethod
    def from_monomial(cls, m: MonomialMatrix, with_beta: bool) -> "MonomialBMatrix":
        """m itself, or m * (B I); K commutes with the scalar B."""
        b = 1 if with_beta else 0
        return cls([(a, b) for a in m.phases], m.perm)


def unit_product(u: tuple, v: tuple) -> tuple:
    """The unit law on phases: w^a B^b * w^c B^d = w^(a + (-1)^b c) B^(b+d)."""
    (a, b), (c, d) = u, v
    return (a + (-1) ** b * c) % 3, (b + d) % 2


def b_pair_perm36(a: MonomialBMatrix, b: MonomialBMatrix) -> Permutation:
    """The pair's faithful 36-point image: a on points 0..17 and b on 18..35,
    each by the unit law in MonomialBMatrix's docstring.  It is injective and
    multiplicative, like XElement's image of (P, Q, eps)."""
    if a.degree != 6 or b.degree != 6:
        raise ValueError("the 36-point image needs two degree-6 components")
    out = []
    for m, tables in zip((a, b), _B_PAIR_TABLES):
        codes = bytes(12 * x + 6 * y + s for (x, y), s in zip(m.phases, m.perm.images))
        out += map(codes.translate, tables)
    return Permutation._raw(b"".join(out))
