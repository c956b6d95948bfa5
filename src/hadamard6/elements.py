"""The elements of the group X generated by two monomial pairs and
entrywise conjugation, acting on 6x6 matrices of cube roots of unity: the
element type with its faithful 36-point permutation image and the 18-point
row action, the named generators, and the two subgroups the theorem suite
reads.

Element (P, Q, eps) acts by H -> (P^-1 H Q), entrywise conjugated iff eps = 1.
A matrix of cube roots is its exponent table, entry (i, j) of H being
w^H[i][j], and act moves that table.  The composition law making the action
a right action is

    (P1, Q1, e1) * (P2, Q2, e2) = (P1 * conj^e1(P2), Q1 * conj^e1(Q2), e1 + e2)

An element is stored as its 36-point image alone, so X multiplies as that
image does; randomized tests pin the image against this law and the law
against the functional equation H^(g1 g2) = (H^g1)^g2.

Point labels are frozen by the stacking convention H, wH, w2H: row states
(a, r) are numbered 6a + r with r = 1..6 (1-based at the text boundary,
0-based in code), and an element with first component D*K, D = diag(w^d),
sends

    (a, r)  ->  ((-1)^eps * (a - d_r),  r^K)

Columns behave the same way on points 19..36 using the second component.
"""

from __future__ import annotations

from functools import cache

from .groups import BSGS, bsgs_build, commutator, orbit_stabilizer
from .monomial import MonomialMatrix
from .perms import Permutation

_new = object.__new__


class XElement:
    """An element (P, Q, eps) of X, stored as its faithful 36-point image:
    products, inverses and equality are those of the image, and P, Q and eps
    are read back off it on each access."""

    __slots__ = ("perm",)

    def __init__(self, p: MonomialMatrix, q: MonomialMatrix, eps: int):
        if p.degree != 6 or q.degree != 6:
            raise ValueError("X acts on 6x6 matrices: components must have degree 6")
        sign = -1 if eps % 2 else 1
        img = bytearray(36)
        for base, m in ((0, p), (18, q)):
            for r, (d, s) in enumerate(zip(m.phases, m.perm.images)):
                for a in range(3):
                    img[base + 6 * a + r] = base + 6 * (sign * (a - d) % 3) + s
        self.perm = Permutation._raw(bytes(img))

    @classmethod
    def _raw(cls, perm: Permutation) -> "XElement":
        # trusted internal path: perm is already the image of an element of X
        g = _new(cls)
        g.perm = perm
        return g

    @property
    def eps(self) -> int:
        """1 iff row state (1, 1) lands one phase below the image of (0, 1)."""
        img = self.perm.images
        return int((img[6] - img[0]) // 6 % 3 == 2)

    def _component(self, base: int) -> MonomialMatrix:
        # state (0, r) goes to (-d_r, r^K), negated when eps = 1
        sign = 1 if self.eps else -1
        a, s = zip(*(divmod(x - base, 6) for x in self.perm.images[base:base + 6]))
        return MonomialMatrix([sign * x for x in a], Permutation._raw(bytes(s)))

    @property
    def p(self) -> MonomialMatrix:
        return self._component(0)

    @property
    def q(self) -> MonomialMatrix:
        return self._component(18)

    def __mul__(self, other):
        if not isinstance(other, XElement):
            return NotImplemented
        return XElement._raw(self.perm * other.perm)

    def inverse(self) -> "XElement":
        return XElement._raw(self.perm.inverse())

    def is_identity(self) -> bool:
        return self.perm.is_identity()

    def act(self, table: tuple) -> tuple:
        """The exponent table of (P^-1 H Q), conjugated entrywise iff eps = 1,
        from the 6x6 exponent table of H.  With P^-1 = D K, row i of P^-1 H
        is row i^K of H plus d_i; with Q = E L, column i^L of (P^-1 H) Q is
        column i of P^-1 H plus e_i; conjugation negates every exponent."""
        p, q = self.p.inverse(), self.q
        s = -1 if self.eps else 1
        source = sorted(range(6), key=q.perm.images.__getitem__)
        return tuple(tuple(s * (d + table[k][i] + q.phases[i]) % 3 for i in source)
                     for d, k in zip(p.phases, p.perm.images))

    def to_perm36(self) -> Permutation:
        """Faithful image on 18 row states plus 18 column states."""
        return self.perm

    def to_perm18(self) -> Permutation:
        """The row-only action; its kernel on X has order 3^5."""
        return Permutation._raw(self.perm.images[:18])

    @classmethod
    def from_perm36(cls, perm: Permutation) -> "XElement":
        """The element whose image is perm; ValueError unless perm lies in
        the image of X, i.e. re-encoding its decoded parts gives it back."""
        if perm.degree != 36:
            raise ValueError("expected a 36-point permutation")
        g = cls._raw(perm)
        if cls(g.p, g.q, g.eps).perm != perm:
            raise ValueError("permutation is not in the image of X")
        return g

    def __eq__(self, other):
        if not isinstance(other, XElement):
            return NotImplemented
        return self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __str__(self):
        s = f"({self.p}, {self.q})"
        return s + "*" if self.eps else s

    def __repr__(self):
        return f"<XElement {self}>"


# ---------------------------------------------------------------------------
# named elements


@cache
def tau1() -> XElement:
    k = Permutation.parse("(2,3,4,5,6)", 6)
    return XElement(MonomialMatrix((0,) * 6, k), MonomialMatrix((0,) * 6, k), 0)


@cache
def tau2() -> XElement:
    return XElement(
        MonomialMatrix((0, 0, 1, 2, 2, 1), Permutation.parse("(1,2)", 6)),
        MonomialMatrix((0, 0, 2, 1, 1, 2), Permutation.parse("(1,2)(3,6)(4,5)", 6)),
        0,
    )


@cache
def star() -> XElement:
    return XElement(MonomialMatrix.diagonal((0,) * 6), MonomialMatrix.diagonal((0,) * 6), 1)


@cache
def tau2star() -> XElement:
    """tau2 *, which generates the stabilizer of H with tau1."""
    return tau2() * star()


@cache
def tau2prime() -> XElement:
    literal = XElement(
        MonomialMatrix((0,) * 6, Permutation.parse("(1,2)", 6)),
        MonomialMatrix((0,) * 6, Permutation.parse("(1,2)(3,6)(4,5)", 6)),
        0,
    )
    derived = commutator(tau2(), star()).inverse() * tau2()
    if derived != literal:
        raise AssertionError("derived value of tau2' disagrees with the literal one")
    return literal


# ---------------------------------------------------------------------------
# the stabilizer's span and its linear part


class Subgroup:
    """A subgroup of X: generators, and the chain of their 36-point images."""

    __slots__ = ("generators", "bsgs")

    def __init__(self, generators: tuple[XElement, ...], bsgs: BSGS):
        self.generators = generators
        self.bsgs = bsgs

    @property
    def order(self) -> int:
        return self.bsgs.order()


@cache
def stabilizer_span() -> BSGS:
    """Chain of <tau1, tau2 *>; prop2 proves it is the stabilizer of H."""
    return bsgs_build([tau1().to_perm36(), tau2star().to_perm36()])


@cache
def compute_aut_linear() -> Subgroup:
    """The eps = 0 subgroup of <tau1, tau2 *>, the stabilizer of H by prop2:
    Schreier generators of the conjugation flag's 2-state orbit."""
    flag = orbit_stabilizer((tau1().perm, tau2star().perm),
                            lambda f, g: (f + XElement._raw(g).eps) % 2, 0)
    gens = flag.stabilizer_generators
    return Subgroup(tuple(map(XElement._raw, gens)), bsgs_build(gens))
