"""The group X generated by two monomial pairs and entrywise conjugation,
acting on 6x6 matrices over Q(w), and its structure: the chains of X and
its subgroups, the stabilizer of the distinguished Hadamard matrix found
through the phase formula, and mechanised structure verification.  The
elements of X, their point labels and the named generators are in
elements.py.

Commutators are [a, b] = a^-1 b^-1 a b and conjugation is a^b = b^-1 a b;
this choice is pinned by the frozen diagonal commutator values in the tests.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, product

from .elements import Subgroup, XElement, compute_aut_linear, stabilizer_span, star, tau1, tau2, tau2prime
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
from .matrices import H6_PHASES, orthogonal_exponents
from .monomial import MonomialMatrix
from .perms import Permutation
from .report import Clause, Report, check


# ---------------------------------------------------------------------------
# named elements


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


def _row_col_block(p: int) -> int:
    """Forget phases: each of the 12 blocks is one row or column index."""
    return p % 6 if p < 18 else 6 + (p - 18) % 6


def _row_restriction_block(p: int) -> int:
    """Row points stay themselves; all column points collapse to one block."""
    return p if p < 18 else 18



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


# the phase state of H
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


def _zero_sum_pair(h: tuple) -> tuple[tuple, tuple]:
    """The zero-sum diagonal pair (d, e) with d_0 = 0 whose translation
    agrees with h on row 0 past its first entry and on column 0 in rows
    1..4.  Adding one constant to d and e changes no translation, so every
    zero-sum pair translates as one such pair does: those 9 entries fix
    e_1..e_5, then e_0 and d_1..d_4 by Sigma e = 0, and d_5 by Sigma d = 0."""
    e = (-sum(h[1:6]),) + tuple(h[1:6])
    d = (0,) + tuple(e[0] - h[6 * r] for r in range(1, 5))
    return d + (-sum(d),), e


def _coset_name(h: tuple) -> tuple:
    """The state naming the coset h + V, where V is the set of translations
    of the zero-sum diagonal pairs: h minus the translation of
    _zero_sum_pair(h), the one member of V that agrees with h on the 9
    entries that pair reads.  So two states get one name exactly when they
    differ by V."""
    return _difference(h, _translation(*_zero_sum_pair(h)))


def _untranslate(v: tuple) -> Permutation | None:
    """The zero-sum diagonal pair that translates phase states by -v, or None
    unless v is in V: the translation of _zero_sum_pair(v) is v exactly when
    v is in V."""
    d, e = _zero_sum_pair(v)
    if _translation(d, e) != v:
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
    generator must also fix H6_PHASES under XElement.act, which moves the
    exponent table by the decoded components and not by _phase_map."""
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
            raise AssertionError("a Schreier generator moves H off its coset")
        lift = s * n
        if _phase_act(_H6_STATE, lift) != _H6_STATE:
            raise AssertionError("a lifted Schreier generator does not fix H")
        if not lift.is_identity():
            kept.append(lift)
    kept.append(omega_pair().perm)
    generators = tuple(map(XElement._raw, kept))
    if any(g.act(H6_PHASES) != H6_PHASES for g in generators):
        raise AssertionError("a stabilizer generator does not fix H")
    return Stabilizer(generators, bsgs_build(kept), orbit.orbit_size * 3**9)



# ---------------------------------------------------------------------------
# the zero-sum phase module


def m_vectors() -> list[tuple[int, ...]]:
    """The 3^5 unimodular diagonal phase vectors: exponent sum 0 mod 3."""
    return [v for v in product(range(3), repeat=6) if sum(v) % 3 == 0]


def _gf3_span_size(rows, maps=()) -> int:
    """The size of the smallest GF(3) space that holds the rows (entries
    read mod 3) and that each coordinate map m, w -> (w[i] for i in m), maps
    into itself.  Against a basis row b with leading position lead, a row
    with a nonzero entry c there becomes b[lead] * row - c * b mod 3, so
    nothing divides.  A row that survives joins the basis, and its images
    join the rows to be read; the maps are linear, so the span is closed."""
    pending = [tuple(x % 3 for x in row) for row in rows]
    basis: list[tuple[int, tuple]] = []
    for row in pending:
        for lead, b in basis:
            c = row[lead]
            if c:
                p = b[lead]
                row = tuple((p * x - c * y) % 3 for x, y in zip(row, b))
        if any(row):
            basis.append((next(i for i, x in enumerate(row) if x), row))
            pending += [tuple(row[i] for i in m) for m in maps]
    return 3 ** len(basis)


def submodule_closure_size(v) -> int:
    """Size of the smallest set containing v closed under coordinate
    permutations and componentwise addition: the span of v closed under two
    generators of the symmetric group."""
    gens = [Permutation.parse("(1,2)", 6), Permutation.parse("(1,2,3,4,5,6)", 6)]
    return _gf3_span_size([v], [g.inverse().images for g in gens])


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
    # the stabilizer's generators lying in the span prove only that the
    # stabilizer is a subgroup of it; equal orders make the two equal, so the
    # clause conjoins the orders that span_order and autstar_order print
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

    # pi (the six-point projection g -> g.p.perm) is a homomorphism.  Its
    # kernel has order |lin| / |pi(lin)| = 3, a prime, so it is <z> once z is
    # a nontrivial member that pi kills; z commutes with the generators, so
    # the kernel is central.  pi(lin) is simple of order 360, so nonabelian
    # with trivial center, and the center of lin lies in the kernel: Z = <z>.
    qgens = [g.p.perm for g in lin.generators]
    qsize = bsgs_build(qgens).order()
    z = omega_pair()
    simple = is_simple_small(qgens)
    center_ok = (lin.order == 3 * qsize and lin.bsgs.contains(z.to_perm36())
                 and not z.is_identity() and z.p.perm.is_identity()
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
