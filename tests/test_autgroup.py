import random
from itertools import permutations

import pytest

from hadamard6 import autgroup
from hadamard6.brep import verify_theorem
from hadamard6.autgroup import (
    XElement,
    _gf3_span_size,
    _phase_act,
    compute_aut_linear,
    compute_aut_star,
    m_vectors,
    n_element,
    n_subgroup,
    omega_pair,
    star,
    submodule_closure_size,
    sylow_x,
    sylow_y,
    tau1,
    tau2,
    tau2prime,
    verify_prop1,
    verify_prop2,
    verify_submodule,
    x0_bsgs,
    x_bsgs,
    y_bsgs,
)
from hadamard6.eisenstein import E_ONE, E_ZERO, OMEGA_POWERS, EisensteinRational
from hadamard6.groups import BSGS, bsgs_build, center_of, closure, commutator, conjugate, orbit_stabilizer
from hadamard6.matrices import ExactMatrix, H6_PHASES, h6
from hadamard6.monomial import MonomialMatrix
from hadamard6.perms import Permutation


def random_word(rng, length=None):
    gens = [tau1(), tau2(), star()]
    g = XElement._raw(Permutation.identity(36))
    for _ in range(rng.randrange(0, 9) if length is None else length):
        g = g * rng.choice(gens)
    return g


def conj_entries_matrix(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(m.rows, m.cols, [e.conj() for e in m.entries])


# --- composition law and action --------------------------------------------


def test_composition_law_matches_the_action():
    # H^(g1 g2) == (H^g1)^g2; this pins the conj^eps twist in the product
    rng = random.Random(100)
    H = h6()
    for _ in range(150):
        g1, g2 = random_word(rng), random_word(rng)
        assert (g1 * g2).act(H) == g2.act(g1.act(H))


def test_act_matches_generic_matrix_computation():
    rng = random.Random(101)
    H = h6()
    for _ in range(60):
        g = random_word(rng)
        expected = g.p.inverse().to_matrix() @ H @ g.q.to_matrix()
        if g.eps:
            expected = conj_entries_matrix(expected)
        assert g.act(H) == expected


def test_act_general_path_on_non_unit_entries():
    # a zero entry: the action must not assume every entry is a unit
    H = ExactMatrix(6, 6, (EisensteinRational(0),) + h6().entries[1:])
    rng = random.Random(102)
    for _ in range(30):
        g = random_word(rng)
        expected = g.p.inverse().to_matrix() @ H @ g.q.to_matrix()
        if g.eps:
            expected = conj_entries_matrix(expected)
        assert g.act(H) == expected


def test_inverse_and_identity():
    rng = random.Random(103)
    e = XElement._raw(Permutation.identity(36))
    for _ in range(50):
        g = random_word(rng)
        assert g * g.inverse() == e
        assert g.inverse() * g == e
    assert (e * tau1()) == tau1()


def _conj(m):
    return MonomialMatrix([-d for d in m.phases], m.perm)


def _reference_product(a, b):
    # the composition law on components: conj^e1 negates the phases of P2, Q2
    (p1, q1, e1), (p2, q2, e2) = a, b
    if e1:
        p2, q2 = _conj(p2), _conj(q2)
    return p1 * p2, q1 * q2, (e1 + e2) % 2


def _reference_inverse(a):
    p, q, e = a
    pi, qi = p.inverse(), q.inverse()
    return (_conj(pi), _conj(qi), e) if e else (pi, qi, e)


def _parts(g):
    return g.p, g.q, g.eps


def test_product_of_images_follows_the_composition_law():
    # elements multiply as 36-point images; decoded, every prefix of a random
    # word and its inverse must match the law computed on the components
    rng = random.Random(107)
    gens = [tau1(), tau2(), star()]
    flags = set()
    for _ in range(100):
        g = XElement._raw(Permutation.identity(36))
        ref = _parts(g)
        for _ in range(rng.randrange(0, 9)):
            s = rng.choice(gens)
            g = g * s
            ref = _reference_product(ref, _parts(s))
            assert _parts(g) == ref
        assert _parts(g.inverse()) == _reference_inverse(ref)
        flags.add(g.eps)
    assert flags == {0, 1}


def test_components_must_have_degree_6():
    m5, m6 = MonomialMatrix.diagonal((0,) * 5), MonomialMatrix.diagonal((0,) * 6)
    for p, q in ((m5, m6), (m6, m5), (m5, m5)):
        with pytest.raises(ValueError):
            XElement(p, q, 0)


def test_products_and_inverses_carry_only_the_image():
    assert XElement.__slots__ == ("perm",)
    g = tau2() * star()
    for h in (g, g.inverse(), tau1(), XElement._raw(Permutation.identity(36))):
        assert not hasattr(h, "__dict__")
        assert type(h.perm) is Permutation and type(h.perm.images) is bytes


def test_star_relations():
    assert (star() * star()).is_identity()
    assert conjugate(tau1(), star()) == tau1()
    assert conjugate(tau2(), star()) == tau2().inverse()
    t2s = tau2() * star()
    assert (t2s * t2s).is_identity()


def test_fixed_points_of_the_action():
    H = h6()
    assert tau1().act(H) == H
    assert tau2().act(H) == conj_entries_matrix(H)
    assert (tau2() * star()).act(H) == H
    assert XElement._raw(Permutation.identity(36)).act(H) == H
    assert sylow_x().act(H) == H
    assert sylow_y().act(H) == H


# --- frozen element values ----------------------------------------------------


def test_commutator_of_tau2_and_star():
    c = commutator(tau2(), star())
    assert c.eps == 0
    assert c.p == MonomialMatrix.diagonal((0, 0, 1, 2, 2, 1))
    assert c.q == MonomialMatrix.diagonal((0, 0, 2, 1, 1, 2))


def test_tau2prime_value():
    t = tau2prime()
    assert t.p == MonomialMatrix((0,) * 6, Permutation.parse("(1,2)", 6))
    assert t.q == MonomialMatrix((0,) * 6, Permutation.parse("(1,2)(3,6)(4,5)", 6))
    assert t == commutator(tau2(), star()).inverse() * tau2()


def test_s_product_value():
    s = tau1() * tau2prime()
    assert str(s.p.perm) == "(1,2,3,4,5,6)"
    assert str(s.q.perm) == "(1,2,6)(3,5)"


def test_n_elements_carry_the_hadamard_rows():
    for k in range(2, 7):
        n = n_element(k)
        assert n.eps == 0
        assert n.p.perm.is_identity() and n.q.perm.is_identity()
        assert n.p.phases == H6_PHASES[k - 1]


def test_sylow_commutator_is_the_omega_pair():
    assert commutator(sylow_x(), sylow_y()) == omega_pair()


# --- permutation images -----------------------------------------------------


def test_perm18_generator_images():
    assert str(tau1().to_perm18()) == "(2,3,4,5,6)(8,9,10,11,12)(14,15,16,17,18)"
    assert str(tau2().to_perm18()) == "(1,2)(3,15,9)(4,10,16)(5,11,17)(6,18,12)(7,8)(13,14)"
    assert str(star().to_perm18()) == "(7,13)(8,14)(9,15)(10,16)(11,17)(12,18)"


def test_perm36_is_a_homomorphism():
    rng = random.Random(104)
    for _ in range(150):
        g, h = random_word(rng), random_word(rng)
        assert (g * h).to_perm36() == g.to_perm36() * h.to_perm36()


def test_perm36_is_faithful_on_diagonal_generators():
    for n in n_subgroup().generators:
        assert not n.to_perm36().is_identity()
    rng = random.Random(105)
    for _ in range(100):
        g = random_word(rng)
        assert g.to_perm36().is_identity() == g.is_identity()


def test_perm36_round_trip():
    rng = random.Random(106)
    for _ in range(100):
        g = random_word(rng)
        assert XElement.from_perm36(g.to_perm36()) == g


@pytest.mark.parametrize("eps", [0, 1])
def test_components_match_a_divmod_decode(eps):
    # point base + 6a + s of a block is (a, s); (0, r) goes to (-d_r, r^K),
    # negated when eps = 1
    rng = random.Random(109)
    sign = 1 if eps else -1
    for _ in range(100):
        g = random_word(rng)
        if g.eps != eps:
            g = g * star()
        for base, m in ((0, g.p), (18, g.q)):
            a, s = zip(*(divmod(x - base, 6) for x in g.perm.images[base:base + 6]))
            assert m.phases == tuple(sign * x % 3 for x in a)
            assert all(type(d) is int for d in m.phases)
            assert m.perm.images == bytes(s)


@pytest.mark.parametrize("cycles, degree", [("(1,19)", 36), ("(1,7)", 36), ("(1,2)", 36), ("(1,2)", 6)])
def test_from_perm36_rejects_foreign_permutations(cycles, degree):
    with pytest.raises(ValueError):
        XElement.from_perm36(Permutation.parse(cycles, degree))


def test_from_perm36_accepts_exactly_the_image_of_x():
    # random 36-point permutations, members of X, and members moved by one
    # transposition: from_perm36 raises ValueError exactly on non-members
    rng = random.Random(108)
    candidates = []
    for _ in range(60):
        images = list(range(36))
        rng.shuffle(images)
        member = random_word(rng).to_perm36()
        swap = list(range(36))
        i, j = rng.sample(range(36), 2)
        swap[i], swap[j] = j, i
        candidates += [Permutation(images), member, member * Permutation(swap)]
    verdicts = set()
    for p in candidates:
        inside = x_bsgs().contains(p)
        verdicts.add(inside)
        if inside:
            assert XElement.from_perm36(p).to_perm36() == p
        else:
            with pytest.raises(ValueError):
                XElement.from_perm36(p)
    assert verdicts == {True, False}


def test_embeddings_and_n_subgroup_yield_bytes_images():
    # a tuple passed to Permutation._raw would compare unequal to the same
    # permutation stored as bytes, without any error
    perms = []
    for g in (tau1(), tau2(), star()):
        perms += [g.to_perm36(), g.to_perm18(), g.p.perm, g.q.perm]
    N = n_subgroup()
    perms += N.bsgs.strong_generators()
    for n in N.generators:
        perms += [n.to_perm36(), n.p.perm, n.q.perm]
    for p in perms:
        assert type(p.images) is bytes


def _gf3_nullspace_basis(columns):
    # nullspace of the 6 x k matrix whose columns are the given vectors
    k = len(columns)
    rows = [[columns[c][r] for c in range(k)] for r in range(6)]
    # row reduce, tracking pivot columns
    pivots = {}
    rank = 0
    for c in range(k):
        pivot = next((r for r in range(rank, 6) if rows[r][c] % 3), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, 3)
        rows[rank] = [x * inv % 3 for x in rows[rank]]
        for r in range(6):
            if r != rank and rows[r][c] % 3:
                f = rows[r][c]
                rows[r] = [(x - f * y) % 3 for x, y in zip(rows[r], rows[rank])]
        pivots[c] = rank
        rank += 1
    basis = []
    for c in range(k):
        if c in pivots:
            continue
        vec = [0] * k
        vec[c] = 1
        for pc, pr in pivots.items():
            vec[pc] = (-rows[pr][c]) % 3
        basis.append(tuple(vec))
    return basis


def test_kernel_of_18_point_action_contains_trivial_first_components():
    # build an element of the diagonal subgroup with trivial first component
    # and nontrivial second, straight from the kernel generators
    gens = n_subgroup().generators
    combos = _gf3_nullspace_basis([g.p.phases for g in gens])
    found = None
    for combo in combos:
        g = XElement._raw(Permutation.identity(36))
        for c, n in zip(combo, gens):
            for _ in range(c):
                g = g * n
        if not g.is_identity():
            found = g
            break
    assert found is not None
    assert found.p == MonomialMatrix.diagonal((0,) * 6)
    assert found.q != MonomialMatrix.diagonal((0,) * 6)
    assert found.to_perm18().is_identity()
    assert not found.to_perm36().is_identity()


# --- orbits and stabilizers --------------------------------------------------


def test_small_orbits_of_h6():
    # the search runs on 36-point images; the matrix action reads the
    # element back off each one
    act = lambda H, g: XElement._raw(g).act(H)
    res1 = orbit_stabilizer([tau1().perm], act, h6())
    assert res1.orbit_size == 1
    # Lagrange: |orbit| * |stabilizer| = |group|
    stab1 = BSGS(res1.stabilizer_generators, 36)
    group1 = bsgs_build([tau1().to_perm36()])
    assert res1.orbit_size * stab1.order() == group1.order()

    res2 = orbit_stabilizer([star().perm], act, h6())
    assert res2.orbit_size == 2
    stab2 = BSGS(res2.stabilizer_generators, 36)
    assert res2.orbit_size * stab2.order() == 2


W = EisensteinRational(0, 1)
PHASES = {E_ONE: 0, W: 1, W * W: 2}


def phase_state(H):
    # the exponent vector: entry k = 6r + j of H is w^h[k]
    return tuple(PHASES[x] for x in H.entries)


def test_phase_action_matches_the_matrix_action():
    # the action read off the 36-point image agrees with XElement.act along a
    # random walk, so the states are h6() and the matrices reached from it
    rng = random.Random(102)
    H = h6()
    flags = set()
    for _ in range(240):
        g = random_word(rng, length=rng.randrange(1, 9))
        image = g.act(H)
        assert _phase_act(phase_state(H), g.to_perm36()) == phase_state(image)
        flags.add(g.eps)
        H = image if rng.random() < 0.7 else h6()
    assert flags == {0, 1}


def test_phase_states_are_exponents_fixed_by_the_identity():
    rng = random.Random(103)
    identity = Permutation.identity(36)
    state = phase_state(h6())
    for _ in range(100):
        state = _phase_act(state, random_word(rng, length=rng.randrange(1, 9)).to_perm36())
        assert len(state) == 36
        assert all(h in (0, 1, 2) for h in state)
        assert _phase_act(state, identity) == state


def test_phase_action_composes():
    # acting by g then by h is acting by g * h, on h6() and on states reached
    # by the walk, with words of both conjugation flags
    rng = random.Random(104)
    state = phase_state(h6())
    flags = set()
    for _ in range(200):
        g, h = (random_word(rng, length=rng.randrange(1, 9)) for _ in range(2))
        both = _phase_act(_phase_act(state, g.to_perm36()), h.to_perm36())
        assert both == _phase_act(state, (g * h).to_perm36())
        flags.update((g.eps, h.eps))
        state = both if rng.random() < 0.7 else phase_state(h6())
    assert flags == {0, 1}


def test_phase_action_is_affine_over_gf3():
    # compute_aut_star's check that X maps V into V and the proof that
    # K = Stab(h) take the linear part h -> h^g - 0^g to be additive mod 3,
    # for both conjugation flags
    rng = random.Random(106)
    zero = (0,) * 36
    flags = set()
    for _ in range(200):
        word = random_word(rng, length=rng.randrange(1, 9))
        g = word.to_perm36()
        h, v = (tuple(rng.randrange(3) for _ in range(36)) for _ in range(2))
        h_plus_v = tuple((x + y) % 3 for x, y in zip(h, v))
        lhs = [(x + y) % 3 for x, y in zip(_phase_act(h_plus_v, g), _phase_act(zero, g))]
        rhs = [(x + y) % 3 for x, y in zip(_phase_act(h, g), _phase_act(v, g))]
        assert lhs == rhs
        flags.add(word.eps)
    assert flags == {0, 1}


# (1,19) swaps a row state with a column state
@pytest.mark.parametrize("cycles, degree", [("(1,19)", 36), ("(1,7)", 36), ("(1,2)", 36), ("(1,2)", 6)])
def test_phase_action_rejects_permutations_outside_x(cycles, degree):
    with pytest.raises(ValueError):
        _phase_act(phase_state(h6()), Permutation.parse(cycles, degree))


def test_orbit_search_reference_matches_the_coset_route():
    # the reference: enumerate all 39,366 phase states of the orbit of h6()
    # under X and keep every distinct Schreier generator
    gens = [g.to_perm36() for g in (tau1(), tau2(), star())]
    result = orbit_stabilizer(gens, _phase_act, phase_state(h6()))
    assert result.orbit_size == 39_366
    reference = bsgs_build(result.stabilizer_generators)
    aut = compute_aut_star()
    assert reference.order() == aut.order == 2160
    assert all(aut.bsgs.contains(g) for g in result.stabilizer_generators)
    assert all(reference.contains(g.to_perm36()) for g in aut.generators)


def test_stabilizer_search_runs_only_on_two_cosets(monkeypatch):
    sizes = []
    search = autgroup.orbit_stabilizer

    def recording_search(*args, **kwargs):
        result = search(*args, **kwargs)
        sizes.append(result.orbit_size)
        return result

    monkeypatch.setattr(autgroup, "orbit_stabilizer", recording_search)
    aut = compute_aut_star.__wrapped__()
    assert sizes == [2]
    assert aut.orbit_size == 39_366 and aut.order == 2160


def test_stabilizer_generators_are_pinned():
    # freezes the coset search order: the three nontrivial lifted Schreier
    # generators, then (wI, wI)
    assert [str(g) for g in compute_aut_star().generators] == [
        "([1,1,1,1,1,1](2,3,4,5,6), [1,1,1,1,1,1](2,3,4,5,6))",
        "([1,1,w,w2,w2,w](1,2), [1,1,w2,w,w,w2](1,2)(3,6)(4,5))*",
        "([w2,1,w2,1,w,w](1,3,4,5,6), [w,1,w2,w2,1,w](1,6,5,4,3))",
        "([w,w,w,w,w,w], [w,w,w,w,w,w])",
    ]


def random_n(rng):
    g = Permutation.identity(36)
    for n in n_subgroup().generators:
        g = g * n.perm ** rng.randrange(3)
    return g


def test_translations_of_n_span_rank_9():
    zero = (0,) * 36
    translations = [_phase_act(zero, n.perm) for n in n_subgroup().generators]
    assert all(not any(autgroup._coset_name(t)) for t in translations)
    assert _gf3_span_size(translations) == 3**9


def test_kernel_of_n_on_phase_states_is_generated_by_the_omega_pair():
    # of the 3^10 zero-sum diagonal pairs, only the powers of (wI, wI) fix
    # every phase state
    zero_sum = m_vectors()
    fixing = [(d, e) for d in zero_sum for e in zero_sum if not any(autgroup._translation(d, e))]
    assert fixing == [((c,) * 6, (c,) * 6) for c in range(3)]
    assert omega_pair().p.phases == omega_pair().q.phases == (1,) * 6


def test_canon_is_constant_on_each_coset():
    rng = random.Random(105)
    seed = phase_state(h6())
    for state in (seed, _phase_act(seed, star().perm), _phase_act(seed, tau2().perm)):
        name = autgroup._coset_name(state)
        # the name lies in the coset it names
        assert autgroup._untranslate(autgroup._difference(name, state)) is not None
        for _ in range(40):
            assert autgroup._coset_name(_phase_act(state, random_n(rng))) == name


def test_canon_separates_the_two_cosets_of_the_orbit():
    seed = phase_state(h6())
    images = [_phase_act(seed, g.perm) for g in (tau1(), tau2(), star())]
    assert len({autgroup._coset_name(s) for s in [seed, *images]}) == 2
    for image in images:
        same = autgroup._coset_name(image) == autgroup._coset_name(seed)
        assert same == (autgroup._untranslate(autgroup._difference(image, seed)) is not None)


def test_untranslate_accepts_exactly_the_zero_sum_translations():
    # V sits inside the 11-dimensional space of translations of all diagonal
    # pairs; only pairs with both exponent sums 0 mod 3 translate into V
    rng = random.Random(107)
    units = [tuple(int(k == i) for k in range(6)) for i in range(6)] + [(0,) * 6]
    pairs = [(d, e) for d in units for e in units]
    pairs += [tuple(tuple(rng.randrange(3) for _ in range(6)) for _ in range(2)) for _ in range(200)]
    outcomes = set()
    for d, e in pairs:
        v = autgroup._translation(d, e)
        n = autgroup._untranslate(v)
        zero_sum = sum(d) % 3 == sum(e) % 3 == 0
        assert (n is not None) == zero_sum
        outcomes.add(zero_sum)
        if n is not None:
            assert n_subgroup().bsgs.contains(n)
            state = tuple(rng.randrange(3) for _ in range(36))
            assert _phase_act(state, n) == autgroup._difference(state, v)
    assert outcomes == {True, False}
    # a unit phase state is no diagonal pair's translation
    for k in range(36):
        assert autgroup._untranslate(tuple(int(i == k) for i in range(36))) is None


def test_act_error_cases():
    with pytest.raises(ValueError):
        tau1().act(h6().to_split_quaternion())
    with pytest.raises(ValueError):
        tau1().act(ExactMatrix.identity(5))


def test_stabilizer_membership_examples():
    aut = compute_aut_star()
    assert aut.bsgs.contains(tau1().to_perm36())
    assert aut.bsgs.contains((tau2() * star()).to_perm36())
    assert not aut.bsgs.contains(star().to_perm36())
    assert aut.bsgs.contains(sylow_x().to_perm36())
    assert aut.bsgs.contains(sylow_y().to_perm36())


def test_stabilizer_generators_fix_h6():
    H = h6()
    for g in compute_aut_star().generators:
        assert g.act(H) == H


def test_intertwining_over_the_complex_subfield():
    # eps = 0 stabilizer elements satisfy H Q = P H
    H = h6()
    for g in compute_aut_linear().generators:
        assert g.eps == 0
        assert H @ g.q.to_matrix() == g.p.to_matrix() @ H


def _sign(p: Permutation) -> int:
    return (-1) ** sum(len(c) - 1 for c in p.cycles())


def _leibniz_det(m: ExactMatrix):
    """The determinant of a 6x6 matrix over Q(w) by the Leibniz formula."""
    total = E_ZERO
    for sigma in permutations(range(6)):
        term = E_ONE
        for i, j in enumerate(sigma):
            term = term * m.entry(i, j)
        total = total + term * _sign(Permutation(sigma))
    return total


def test_component_determinants_are_signs():
    # verify_prop1 reads det(D K) = sign(K) w^(sum of D's exponents) as +-1
    # exactly when that sum is 0 mod 3; the rule is checked against the
    # dense determinant on the generators' components and on random ones
    rng = random.Random(5)
    components = [m for g in (tau1(), tau2()) for m in (g.p, g.q)]
    for m in components:
        assert sum(m.phases) % 3 == 0
    for _ in range(8):
        images = list(range(6))
        rng.shuffle(images)
        components.append(MonomialMatrix([rng.randrange(3) for _ in range(6)], Permutation(tuple(images))))
    for m in components:
        det = _leibniz_det(m.to_matrix())
        assert det == OMEGA_POWERS[sum(m.phases) % 3] * _sign(m.perm)
        assert (det in (E_ONE, -E_ONE)) == (sum(m.phases) % 3 == 0)


def test_component_determinants_fails_for_a_non_unimodular_component(monkeypatch):
    verify_prop1()  # cache the chains before tau2 is replaced
    monkeypatch.setattr(autgroup, "tau2", lambda: autgroup._diag_pair((1, 0, 0, 0, 0, 0), (0,) * 6))
    assert "component_determinants" in _failed_clauses(verify_prop1())


def test_group_orders():
    assert x_bsgs().order() == 85_030_560
    assert y_bsgs().order() == 720
    assert n_subgroup().order == 3**10
    assert compute_aut_star().order == 2160
    assert compute_aut_linear().order == 1080


def test_stabilizer_orders_against_brute_force_closure():
    # chain orders cross-checked by plain breadth-first enumeration
    aut = compute_aut_star()
    elements = closure([g.to_perm36() for g in aut.generators])
    assert len(elements) == 2160
    lin = compute_aut_linear()
    lin_elements = closure([g.to_perm36() for g in lin.generators])
    assert len(lin_elements) == 1080
    assert set(lin_elements) <= set(elements)


def test_six_point_projection_kernel_is_the_center():
    # reference for prop2's central quotient: enumerate the linear stabilizer
    # once, and read the kernel and image of g -> g.p.perm off every element
    lin = compute_aut_linear()
    gens36 = [g.to_perm36() for g in lin.generators]
    elements = [XElement.from_perm36(g) for g in closure(gens36)]
    assert len(elements) == 1080
    kernel = {g.to_perm36() for g in elements if g.p.perm.is_identity()}
    assert kernel == set(center_of(gens36))
    assert len({g.p.perm for g in elements}) == 360


def _failed_clauses(report):
    return {c.id for c in report.clauses if not c.passed}


def test_center_clauses_fail_for_a_generator_outside_the_kernel(monkeypatch):
    # x lies in the linear stabilizer but projects to a 3-cycle, so it does
    # not generate the kernel of the six-point projection; sylow_commutator
    # fails too, since it expects [x, y] to print as omega_pair()
    monkeypatch.setattr(autgroup, "omega_pair", sylow_x)
    assert _failed_clauses(verify_prop2()) == {"sylow_commutator", "center"}


def test_center_clause_needs_a_simple_quotient(monkeypatch):
    # without simplicity the center could be larger than the kernel
    monkeypatch.setattr(autgroup, "is_simple_small", lambda gens: False)
    assert _failed_clauses(verify_prop2()) == {"center", "central_quotient_simple"}


def test_s6_presentation_fails_for_tau2_in_place_of_tau2prime(monkeypatch):
    y_bsgs()  # cache the true Y before tau2prime is replaced
    monkeypatch.setattr(autgroup, "tau2prime", tau2)
    assert "s6_presentation" in _failed_clauses(verify_prop1())


def test_prop1_and_prop2_make_no_exact_products(monkeypatch):
    # prop1 reads H's rows and the determinants off exponents, and prop2's
    # one dense check is compute_aut_star's, which is cached here.  Run cold,
    # that check and the theorem multiply H only by monomial matrices, as row
    # and column moves: no product has two ExactMatrix operands
    compute_aut_star()
    calls, dense_pairs = [], []

    def counting(original):
        def wrapper(self, other):
            calls.append(original)
            return original(self, other)
        return wrapper

    matmul = ExactMatrix.__matmul__

    def counting_matmul(self, other):
        if isinstance(other, ExactMatrix):
            dense_pairs.append(other)
        return matmul(self, other)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counting_matmul)
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(EisensteinRational, name, counting(getattr(EisensteinRational, name)))
    assert verify_prop1().passed
    assert verify_prop2().passed
    assert calls == [] and dense_pairs == []
    assert compute_aut_star.__wrapped__().order == 2160
    assert verify_theorem().passed
    assert calls and dense_pairs == []


def test_y_order_against_brute_force_closure():
    assert len(closure([tau1().perm, tau2prime().perm])) == 720


def test_image_on_18_points_complements_the_kernel():
    gens18 = [g.to_perm18() for g in (tau1(), tau2(), star())]
    image = bsgs_build(gens18)
    assert image.order() * 243 == x_bsgs().order()


def test_n_order_complements_the_block_image():
    blocks = [Permutation.parse("(2,3,4,5,6)", 6), Permutation.parse("(1,2)", 6)]
    # the block action of <tau1, tau2> is the pair of 6-point projections,
    # which generate a group of order 720 on rows (and likewise on columns)
    row_image = bsgs_build([tau1().p.perm, tau2().p.perm])
    assert row_image.order() == 720
    assert n_subgroup().order * 720 == x0_bsgs().order()
    assert bsgs_build(blocks).order() == 720


def test_n_contains_every_n_element_and_fixes_every_block():
    N = n_subgroup()
    for k in range(2, 7):
        assert N.bsgs.contains(n_element(k).to_perm36())
    for g in N.bsgs.strong_generators():
        assert all(
            autgroup._row_col_block(g.images[p]) == autgroup._row_col_block(p)
            for p in range(36)
        )


# --- the zero-sum phase module ----------------------------------------------


def _closure_oracle(v):
    # literal closure under coordinate permutations and pairwise addition
    gens = [Permutation.parse("(1,2)", 6), Permutation.parse("(1,2,3,4,5,6)", 6)]
    maps = [g.inverse().images for g in gens]
    v = tuple(x % 3 for x in v)
    els = {v, tuple([0] * 6)}
    changed = True
    while changed:
        changed = False
        current = list(els)
        for w in current:
            for m in maps:
                u = tuple(w[m[i]] for i in range(6))
                if u not in els:
                    els.add(u)
                    changed = True
        current = list(els)
        for a in current:
            for b in current:
                s = tuple((x + y) % 3 for x, y in zip(a, b))
                if s not in els:
                    els.add(s)
                    changed = True
    return len(els)


# one vector per S6-orbit, the ten that verify_submodule spins
@pytest.mark.parametrize("vector", sorted({tuple(sorted(v)) for v in m_vectors()}))
def test_submodule_closure_against_brute_force(vector):
    assert submodule_closure_size(vector) == _closure_oracle(vector)


def test_submodule_spins_one_vector_per_orbit(monkeypatch):
    spun = []

    def counting(v):
        spun.append(v)
        return submodule_closure_size(v)

    monkeypatch.setattr(autgroup, "submodule_closure_size", counting)
    assert verify_submodule().passed
    assert len(spun) == 10
    assert len({tuple(sorted(v)) for v in spun}) == 10


def test_submodule_clauses_weight_each_orbit(monkeypatch):
    # one non-constant orbit (30 vectors) reported as a proper submodule
    def wrong(v):
        return 81 if sorted(v) == [0, 0, 0, 0, 1, 2] else submodule_closure_size(v)

    monkeypatch.setattr(autgroup, "submodule_closure_size", wrong)
    report = verify_submodule()
    assert _failed_clauses(report) == {"nonconstant_closures", "overall"}
    assert next(c for c in report.clauses if c.id == "nonconstant_closures").computed == "210"


def test_m_vectors_size():
    vectors = m_vectors()
    assert len(vectors) == 243
    assert all(sum(v) % 3 == 0 for v in vectors)
