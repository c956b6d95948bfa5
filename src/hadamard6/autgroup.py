"""The group X generated by two monomial pairs and entrywise conjugation,
acting on 6x6 matrices over Q(w), together with its faithful 36-point
permutation image, the 18-point row action, the stabilizer of the distinguished
Hadamard matrix, and mechanised structure verification.

Element (P, Q, eps) acts by H -> (P^-1 H Q), entrywise conjugated iff eps = 1.
The composition law making that a right action is

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
Commutators are [a, b] = a^-1 b^-1 a b and conjugation is a^b = b^-1 a b;
this choice is pinned by the frozen diagonal commutator values in the tests.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, product

from .groups import (
    BSGS,
    action_kernel_order,
    bsgs_build,
    commutator,
    conjugate,
    derived_subgroup,
    is_simple_small,
    normal_closure,
    orbit_stabilizer,
)
from .matrices import H6_PHASES, ExactMatrix, h6, orthogonal_exponents, row_basis
from .monomial import MonomialMatrix
from .perms import Permutation
from .report import Clause, Report, check

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

    def act(self, H: ExactMatrix) -> ExactMatrix:
        """(P^-1 H Q), conjugated entrywise iff eps = 1, by a row move and a
        column move; ValueError unless H is 6x6 over Q(w)."""
        m = self.p.inverse() @ H @ self.q
        if not self.eps:
            return m
        return ExactMatrix(6, 6, (x.conj() for x in m.entries))

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
    return XElement(MonomialMatrix.identity(6), MonomialMatrix.identity(6), 1)


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


@cache
def sylow_x() -> XElement:
    return XElement(
        MonomialMatrix((2, 0, 1, 1, 0, 2), Permutation.parse("(1,2,3)", 6)),
        MonomialMatrix((1, 0, 1, 0, 2, 2), Permutation.parse("(1,4,6)(2,3,5)", 6)),
        0,
    )


@cache
def sylow_y() -> XElement:
    return XElement(
        MonomialMatrix((1, 2, 0, 0, 2, 1), Permutation.parse("(4,5,6)", 6)),
        MonomialMatrix((1, 1, 1, 1, 1, 1), Permutation.parse("(1,4,6)(2,5,3)", 6)),
        0,
    )


@cache
def omega_pair() -> XElement:
    """(wI, wI): generates the center of the linear stabilizer."""
    return XElement(MonomialMatrix.diagonal((1,) * 6), MonomialMatrix.diagonal((1,) * 6), 0)


@cache
def n_element(k: int) -> XElement:
    """Diagonal pair whose first component is row k of the Hadamard matrix.

    n2 is the commutator of the second generator with conjugation; repeated
    conjugation by the first generator advances the row index by one.
    """
    if not 2 <= k <= 6:
        raise ValueError("k must be in 2..6")
    if k == 2:
        return commutator(tau2(), star())
    return conjugate(n_element(k - 1), tau1())


@cache
def x_generators() -> tuple[XElement, XElement, XElement]:
    return (tau1(), tau2(), star())


# ---------------------------------------------------------------------------
# permutation images and subgroup data


@cache
def x_bsgs() -> BSGS:
    chain = x0_bsgs().copy()
    chain.add(star().to_perm36())
    return chain


@cache
def x0_bsgs() -> BSGS:
    return bsgs_build([tau1().to_perm36(), tau2().to_perm36()])


@cache
def y_bsgs() -> BSGS:
    return bsgs_build([tau1().to_perm36(), tau2prime().to_perm36()])


@cache
def stabilizer_span() -> BSGS:
    """Chain of <tau1, tau2 *>; prop2 proves it is the stabilizer of h6()."""
    return bsgs_build([tau1().to_perm36(), (tau2() * star()).to_perm36()])


def _row_col_block(p: int) -> int:
    """Forget phases: each of the 12 blocks is one row or column index."""
    return p % 6 if p < 18 else 6 + (p - 18) % 6


def _row_restriction_block(p: int) -> int:
    """Row points stay themselves; all column points collapse to one block."""
    return p if p < 18 else 18


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
def n_subgroup() -> Subgroup:
    """The normal closure of n2 = [tau2, *] in <tau1, tau2>.

    n2 is a diagonal pair, so this lies in the kernel of the action of
    <tau1, tau2> on the 12 row/column blocks; prop1 proves it is the whole
    kernel by matching its order with |<tau1, tau2>| / |block image|.
    """
    chain = normal_closure([tau1().to_perm36(), tau2().to_perm36()], [n_element(2).to_perm36()])
    return Subgroup(tuple(map(XElement._raw, chain.strong_generators())), chain)


class Stabilizer(Subgroup):
    __slots__ = ("orbit_size",)

    def __init__(self, generators: tuple[XElement, ...], bsgs: BSGS, orbit_size: int):
        super().__init__(generators, bsgs)
        self.orbit_size = orbit_size


@cache
def _phase_map(images: bytes) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """H -> H^g on phase states.  A state is the exponent vector h of H:
    entry 6r + j of H is w^h[6r + j].  The map is read off the decoded
    (P, Q, eps) of g and cached on g's image bytes.  With P = D K, Q = E L
    and s = (-1)^eps, entry (r^K, j^L) of H^g = conj^eps(P^-1 H Q) has the
    exponent s * (h[6r + j] - d_r + e_j), so entry k of h^g is
    s * h[source[k]] + shift[k].  Images outside X raise ValueError."""
    g = XElement.from_perm36(Permutation(images))
    p, q, s = g.p, g.q, -1 if g.eps else 1
    source = [0] * 36
    shift = [0] * 36
    for r, (d, r2) in enumerate(zip(p.phases, p.perm.images)):
        for j, (e, j2) in enumerate(zip(q.phases, q.perm.images)):
            source[6 * r2 + j2] = 6 * r + j
            shift[6 * r2 + j2] = s * (e - d)
    return tuple(source), s, tuple(shift)


# the phase state of h6()
_H6_STATE = tuple(h for row in H6_PHASES for h in row)


def _phase_act(h: tuple, g: Permutation) -> tuple:
    """The exponent vector of H^g from that of H (see _phase_map)."""
    source, s, shift = _phase_map(g.images)
    return tuple((s * h[k] + c) % 3 for k, c in zip(source, shift))


def _difference(a: tuple, b: tuple) -> tuple[int, ...]:
    """a - b mod 3, entrywise."""
    return tuple((x - y) % 3 for x, y in zip(a, b))


def _translation(d, e) -> tuple[int, ...]:
    """How (diag(w^d), diag(w^e)) moves phase states (see _phase_map):
    entry 6r + j is e_j - d_r mod 3."""
    return tuple((x - y) % 3 for y in d for x in e)


def _coset_name(h: tuple) -> tuple:
    """The state naming the coset h + V, where V is the set of translations
    of the zero-sum diagonal pairs: h minus the one member of V that agrees
    with h on row 0 past its first entry and on column 0 in rows 1..4.  Adding
    one constant to d and e changes no translation, so take d_0 = 0: those 9
    entries fix e_1..e_5, then e_0 and d_1..d_4 by Sigma e = 0, and d_5 by
    Sigma d = 0.  So a member of V that is zero there is zero, and as
    |V| = 3^9, two states get one name exactly when they differ by V."""
    e = (-sum(h[1:6]),) + tuple(h[1:6])
    d = (0,) + tuple(e[0] - h[6 * r] for r in range(1, 5))
    return _difference(h, _translation(d + (-sum(d),), e))


def _untranslate(v: tuple) -> Permutation | None:
    """The zero-sum diagonal pair that translates phase states by -v, or None
    unless v is in V.  The candidate (d, e) has d_0 = 0 and agrees with v on
    row 0 and column 0; the sums of d and e mod 3 are the same for every pair
    with translation v, since those pairs differ by multiples of (1, 1)."""
    e = v[:6]
    d = tuple(v[0] - v[6 * r] for r in range(6))
    if sum(d) % 3 or sum(e) % 3 or _translation(d, e) != v:
        return None
    return _diag_pair([-x for x in d], [-x for x in e]).perm


# the 10 basis pairs of the zero-sum diagonal pairs
_UNITS = [tuple(int(k == i) - int(k == 5) for k in range(6)) for i in range(5)]
_ZERO_SUM_BASIS = [(u, (0,) * 6) for u in _UNITS] + [((0,) * 6, u) for u in _UNITS]


@cache
def compute_aut_star() -> Stabilizer:
    """Stabilizer of the Hadamard matrix under X, through the cosets h + V
    (see _coset_name).

    Z, the group of zero-sum diagonal pairs, is checked to lie in N, so in X.
    Conjugation by a monomial pair permutes and may negate the exponents of
    a diagonal pair, so Z is normal in X, and each generator's linear part
    h^g - 0^g is checked to map the translations of Z's basis into V: X
    permutes the cosets.  orbit_stabilizer on their names gives the orbit of
    h + V and Schreier generators s of Stab(h + V).  Each s is lifted to
    s * n, where n = _untranslate(h^s - h) is in Z, and the lift must fix h.

    Every generator of K = <nontrivial lifts, (wI, wI)> fixes h, so
    K <= Stab(h).  Z moves h through all of h + V, so Stab(h + V) = Stab(h)Z,
    and each s lies in KZ, so KZ = Stab(h)Z.  The members of Z that fix h
    have e_j = d_r for all r and j, so they are the powers of (wI, wI).  For
    x in Stab(h) write x = kn with k in K and n in Z; then n = k^-1 x fixes
    h, so it lies in K, and x is in K.  Hence K = Stab(h).  The orbit of h is
    the union of the cosets in the orbit of h + V, each of |V| = |Z| / 3 =
    3^9 states, and neither factor is taken from |X|.  Each returned
    generator must fix h6() under the exact matrix action."""
    H = h6()
    if not all(n_subgroup().bsgs.contains(_diag_pair(d, e).perm) for d, e in _ZERO_SUM_BASIS):
        raise AssertionError("N does not contain the zero-sum diagonal pairs")
    gens = [g.to_perm36() for g in x_generators()]
    zero = (0,) * 36
    if any(any(_coset_name(_difference(_phase_act(_translation(d, e), g), _phase_act(zero, g))))
           for g in gens for d, e in _ZERO_SUM_BASIS):
        raise AssertionError("X does not map the translations of N into V")
    orbit = orbit_stabilizer(gens, lambda s, g: _coset_name(_phase_act(s, g)), _coset_name(_H6_STATE))
    kept = []
    for s in orbit.stabilizer_generators:
        n = _untranslate(_difference(_phase_act(_H6_STATE, s), _H6_STATE))
        if n is None:
            raise AssertionError("a Schreier generator moves h6() off its coset")
        lift = s * n
        if _phase_act(_H6_STATE, lift) != _H6_STATE:
            raise AssertionError("a lifted Schreier generator does not fix h6()")
        if not lift.is_identity():
            kept.append(lift)
    kept.append(omega_pair().perm)
    generators = tuple(map(XElement._raw, kept))
    if any(g.act(H) != H for g in generators):
        raise AssertionError("a stabilizer generator does not fix h6()")
    return Stabilizer(generators, bsgs_build(kept), orbit.orbit_size * 3**9)


@cache
def compute_aut_linear() -> Subgroup:
    """The eps = 0 subgroup of <tau1, tau2 *>, the stabilizer of h6() by prop2:
    Schreier generators of the conjugation flag's 2-state orbit."""
    flag = orbit_stabilizer((tau1().perm, (tau2() * star()).perm),
                            lambda f, g: (f + XElement._raw(g).eps) % 2, 0)
    gens = flag.stabilizer_generators
    return Subgroup(tuple(map(XElement._raw, gens)), bsgs_build(gens))


# ---------------------------------------------------------------------------
# the zero-sum phase module


def m_vectors() -> list[tuple[int, ...]]:
    """The 3^5 unimodular diagonal phase vectors: exponent sum 0 mod 3."""
    return [v for v in product(range(3), repeat=6) if sum(v) % 3 == 0]


class _GF3(int):
    """An integer mod 3 for row_basis, which needs only -, * and bool."""

    def __new__(cls, x):
        return super().__new__(cls, x % 3)

    def __sub__(self, other):
        return _GF3(int(self) - other)

    def __mul__(self, other):
        return _GF3(int(self) * other)


def _gf3_span_size(vectors) -> int:
    return 3 ** len(row_basis(tuple(map(_GF3, v)) for v in vectors))


def submodule_closure_size(v) -> int:
    """Size of the smallest set containing v closed under coordinate
    permutations and componentwise addition: the span of v, grown by the
    images of its basis vectors under two generators of the symmetric group
    until both map every basis vector back into it."""
    gens = [Permutation.parse("(1,2)", 6), Permutation.parse("(1,2,3,4,5,6)", 6)]
    maps = [g.inverse().images for g in gens]
    basis = row_basis([tuple(map(_GF3, v))])
    done = 0
    while done < len(basis):
        w = basis[done]
        done += 1
        # the first `done` rows pass through row_basis unchanged
        basis = row_basis(basis + [tuple(w[i] for i in m) for m in maps])
    return 3 ** len(basis)


# ---------------------------------------------------------------------------
# verification reports


def _diag_pair(p_phases, q_phases) -> XElement:
    return XElement(MonomialMatrix.diagonal(p_phases), MonomialMatrix.diagonal(q_phases), 0)


def verify_prop1() -> Report:
    clauses: list[Clause] = []

    # Cube-root entries are unimodular, so H dagger(H) has 6 on its diagonal,
    # and it is 6I exactly when the 15 row pairs are orthogonal.  Multiplying
    # entry (i, j) by w^k moves one entry of the exponent difference of rows i
    # and i - 1 by k, and the difference then no longer holds each residue
    # twice.  The second row must differ from row i: a row's difference with
    # itself is 0 everywhere, which fails the count for any matrix.
    rows = H6_PHASES
    orthogonal = all(orthogonal_exponents(a, b) for a, b in combinations(rows, 2))
    mutations_fail = not any(
        orthogonal_exponents(rows[i][:j] + ((rows[i][j] + k) % 3,) + rows[i][j + 1:], rows[i - 1])
        for i, j, k in product(range(6), range(6), (1, 2))
    )
    clauses.append(
        check("h6_hadamard", "H dagger(H) = 6I exactly, and no single-entry change survives",
              True, orthogonal and mutations_fail)
    )

    clauses.append(check("order_X", "group order of <tau1, tau2, *>", 85_030_560, x_bsgs().order()))
    clauses.append(check("order_X0", "index-2 subgroup <tau1, tau2>", 42_515_280, x0_bsgs().order()))

    N = n_subgroup()
    clauses.append(check("order_N", "diagonal-pair kernel of the block action", 59_049, N.order))
    clauses.append(
        check("order_N_via_blocks", "kernel order from |X0| / |block image|",
              59_049, action_kernel_order(x0_bsgs(), _row_col_block))
    )

    xgens36 = [g.to_perm36() for g in x_generators()]
    normal = all(
        N.bsgs.contains(conjugate(n, g))
        for n in N.bsgs.strong_generators()
        for g in xgens36
    )
    clauses.append(check("n_normal_in_x", "N is normal in X", True, normal))

    diag = all(n.p.perm.is_identity() and n.q.perm.is_identity() for n in N.generators)
    rho1 = _gf3_span_size([n.p.phases for n in N.generators]) if diag else 0
    rho2 = _gf3_span_size([n.q.phases for n in N.generators]) if diag else 0
    clauses.append(check("n_rho1_projection", "first components of N span a group of order 3^5", 243, rho1))
    clauses.append(check("n_rho2_projection", "second components of N span a group of order 3^5", 243, rho2))

    clauses.append(check("order_Y", "permutation-pair subgroup <tau1, tau2'>", 720, y_bsgs().order()))

    # Y lies in X0, so the kernel of its block action is Y meet N
    clauses.append(check("y_meet_n", "Y intersects N trivially", 1,
                         action_kernel_order(y_bsgs(), _row_col_block)))

    s = (tau1() * tau2prime()).to_perm36()
    t = tau2prime().to_perm36()
    relators = (s**6, t**2, (s * t)**5, commutator(t, s**2)**2, commutator(t, s**3)**2)
    clauses.append(
        check("s6_presentation", "s^6 = t^2 = (st)^5 = [t,s^2]^2 = [t,s^3]^2 = 1",
              True, all(r.is_identity() for r in relators))
    )

    # det(D K) = sign(K) w^(sum of D's exponents), which is +-1 exactly when
    # that sum is 0 mod 3
    clauses.append(
        check("component_determinants", "generator components have determinant +-1", True,
              all(sum(m.phases) % 3 == 0 for g in (tau1(), tau2()) for m in (g.p, g.q)))
    )

    word = n_element(3) * n_element(4) * n_element(4) * n_element(5) * n_element(5)
    expected = _diag_pair((0, 0, 0, 0, 1, 2), (0, 0, 0, 0, 2, 1))
    clauses.append(check("n3_n4sq_n5sq", "the diagonal product lands on the stated pair",
                         str(expected), str(word)))
    conj_word = conjugate(word, tau2prime())
    conj_expected = _diag_pair((0, 0, 0, 0, 1, 2), (0, 0, 1, 2, 0, 0))
    clauses.append(check("n3_n4sq_n5sq_conj", "its tau2'-conjugate lands on the stated pair",
                         str(conj_expected), str(conj_word)))

    return Report("prop1", clauses)


def verify_prop2() -> Report:
    clauses: list[Clause] = []
    aut = compute_aut_star()
    clauses.append(check("autstar_order", "the stabilizer of H in X has order 3 * 720", 2160, aut.order))
    clauses.append(check("orbit_size", "orbit of H under X", 39_366, aut.orbit_size))
    clauses.append(
        check("orbit_stabilizer", "orbit size times stabilizer order is |X|",
              x_bsgs().order(), aut.orbit_size * aut.order)
    )

    span = stabilizer_span()
    clauses.append(check("span_order", "<tau1, tau2 *> has order 2160", 2160, span.order()))
    contained = all(span.contains(g.to_perm36()) for g in aut.generators)
    clauses.append(
        check("stabilizer_equals_span", "the stabilizer is exactly <tau1, tau2 *>",
              True, contained and span.order() == aut.order)
    )

    clauses.append(check("tau1_member", "tau1 fixes H", True, aut.bsgs.contains(tau1().to_perm36())))
    clauses.append(
        check("tau2star_member", "tau2 * fixes H", True,
              aut.bsgs.contains((tau2() * star()).to_perm36()))
    )
    clauses.append(check("star_not_member", "* itself does not fix H", False,
                         aut.bsgs.contains(star().to_perm36())))

    comm = commutator(tau2(), star())
    expected_comm = _diag_pair((0, 0, 1, 2, 2, 1), (0, 0, 2, 1, 1, 2))
    clauses.append(check("commutator_tau2_star", "[tau2, *] is the stated diagonal pair",
                         str(expected_comm), str(comm)))

    clauses.append(
        check("sylow_fix_h6", "the Sylow-3 generators x, y fix H", True,
              all(_phase_act(_H6_STATE, g.perm) == _H6_STATE for g in (sylow_x(), sylow_y())))
    )
    clauses.append(check("sylow_commutator", "[x, y] = (wI, wI)",
                         str(omega_pair()), str(commutator(sylow_x(), sylow_y()))))

    lin = compute_aut_linear()
    clauses.append(check("aut_order", "the eps = 0 subgroup has order 3 * 360", 1080, lin.order))

    derived = derived_subgroup([g.to_perm36() for g in lin.generators])
    clauses.append(check("aut_perfect", "it is perfect", 1080, derived.order()))

    # pi (the six-point projection g -> g.p.pi()) is a homomorphism.  Its
    # kernel has order |lin| / |pi(lin)| = 3, a prime, so it is <z> once z is
    # a nontrivial member that pi kills; z commutes with the generators, so
    # the kernel is central.  pi(lin) is simple of order 360, so nonabelian
    # with trivial center, and the center of lin lies in the kernel: Z = <z>.
    qgens = [g.p.pi() for g in lin.generators]
    qsize = bsgs_build(qgens).order()
    z = omega_pair()
    simple = is_simple_small(qgens)
    center_ok = (lin.order == 3 * qsize and lin.bsgs.contains(z.to_perm36())
                 and not z.is_identity() and z.p.pi().is_identity()
                 and all(z * g == g * z for g in lin.generators) and simple)
    clauses.append(check("center", "center has order 3, generated by (wI, wI)", True, center_ok))
    clauses.append(check("central_quotient_order", "quotient by the center has order 360", 360, qsize))
    clauses.append(check("central_quotient_simple", "that quotient is simple", True, simple))

    displays = {
        "perm18_tau1": (tau1(), "(2,3,4,5,6)(8,9,10,11,12)(14,15,16,17,18)"),
        "perm18_tau2": (tau2(), "(1,2)(3,15,9)(4,10,16)(5,11,17)(6,18,12)(7,8)(13,14)"),
        "perm18_star": (star(), "(7,13)(8,14)(9,15)(10,16)(11,17)(12,18)"),
    }
    for cid, (g, expected) in displays.items():
        clauses.append(check(cid, "18-point image printed canonically", expected, str(g.to_perm18())))

    clauses.append(
        check("kernel18", "kernel of the 18-point action has order 3^5", 243,
              action_kernel_order(x_bsgs(), _row_restriction_block))
    )
    return Report("prop2", clauses)


def verify_submodule() -> Report:
    vectors = m_vectors()
    # a coordinate permutation maps the module generated by v onto the one
    # generated by its image, so one vector per multiset of entries (one
    # S6-orbit, 10 in all) stands for its whole orbit
    orbits = Counter(tuple(sorted(v)) for v in vectors)
    sizes = {v: submodule_closure_size(v) for v in orbits}
    zero_ok = sizes[(0,) * 6] == 1
    const_ok = all(sizes[(c,) * 6] == 3 for c in (1, 2))
    full = sum(n for v, n in orbits.items() if len(set(v)) > 1 and sizes[v] == 243)
    clauses = [
        check("module_size", "the zero-sum phase module has 3^5 elements", 243, len(vectors)),
        check("zero_closure", "the zero vector generates the trivial module", True, zero_ok),
        check("constant_closures", "each nonzero constant generates the order-3 module", True, const_ok),
        check("nonconstant_closures", "all 240 non-constant vectors generate everything", 240, full),
        check("overall", "submodule check", True, zero_ok and const_ok and full == 240),
    ]
    return Report("submodule", clauses)
