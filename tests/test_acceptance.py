"""Acceptance criteria, one test per criterion, each printing a pass/fail
line (run with -s to see them).  All comparisons are exact."""

import random

from hadamard6.autgroup import (
    XElement,
    _gf3_span_size,
    _row_restriction_block,
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
    verify_prop2,
    x0_bsgs,
    x_bsgs,
    y_bsgs,
)
from hadamard6.brep import b_rep, commutant_dimension, verify_intertwining
from hadamard6.eisenstein import OMEGA_POWERS, SQ_ONE, SplitQuaternion
from hadamard6.groups import (
    action_kernel_order,
    bsgs_build,
    closure,
    commutator,
    conjugate,
)
from hadamard6.matrices import H6_PHASES, ExactMatrix
from hadamard6.monomial import MonomialMatrix
from hadamard6.outer import (
    all_synthemes,
    build_outer,
    compare_up_to_inner,
    is_inner,
    sylvester_totals,
    totals_outer,
)
from hadamard6.perms import Permutation

from conftest import h6, identity, to_matrix


def _report(cid: str, ok: bool, detail: str):
    print(f"{cid}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_a01_hadamard_identity(dense_hadamard):
    H = h6()
    ok = dense_hadamard(H)
    for i in range(6):
        for j in range(6):
            for k in (1, 2):
                entries = list(H.entries)
                entries[6 * i + j] *= OMEGA_POWERS[k]
                mutated = ExactMatrix(6, 6, entries)
                ok = ok and not dense_hadamard(mutated)
    _report("A01", ok, "H dagger(H) = 6I exactly; every single-entry mutation fails")


def test_a02_group_orders_and_presentation():
    ok = x_bsgs().order() == 85_030_560
    ok = ok and x0_bsgs().order() == 42_515_280
    ok = ok and n_subgroup().order == 59_049
    ok = ok and y_bsgs().order() == 720
    meet = sum(1 for y in map(XElement.from_perm36, closure([tau1().perm, tau2prime().perm]))
               if y.p.perm.is_identity() and y.q.perm.is_identity())
    ok = ok and meet == 1
    s = (tau1() * tau2prime()).to_perm36()
    t = tau2prime().to_perm36()
    relators = (s**6, t**2, (s * t)**5, commutator(t, s**2)**2, commutator(t, s**3)**2)
    ok = ok and all(r.is_identity() for r in relators)
    _report("A02", ok, "|X|, |X0|, |N|, |Y| exact; Y meets N trivially; S6 relations hold")


def test_a03_diagonal_subgroup_structure():
    N = n_subgroup()
    ok = all(n.p.perm.is_identity() and n.q.perm.is_identity() for n in N.generators)
    ok = ok and _gf3_span_size([n.p.phases for n in N.generators]) == 243
    ok = ok and _gf3_span_size([n.q.phases for n in N.generators]) == 243
    word = n_element(3) * n_element(4) * n_element(4) * n_element(5) * n_element(5)
    ok = ok and word == XElement(
        MonomialMatrix.diagonal((0, 0, 0, 0, 1, 2)),
        MonomialMatrix.diagonal((0, 0, 0, 0, 2, 1)),
        0,
    )
    ok = ok and conjugate(word, tau2prime()) == XElement(
        MonomialMatrix.diagonal((0, 0, 0, 0, 1, 2)),
        MonomialMatrix.diagonal((0, 0, 1, 2, 0, 0)),
        0,
    )
    _report("A03", ok, "both projections of N have order 3^5; displayed products match bit-for-bit")


def test_a04_submodule_check():
    vectors = m_vectors()
    nonconstant = [v for v in vectors if len(set(v)) > 1]
    ok = len(nonconstant) == 240
    ok = ok and all(submodule_closure_size(v) == 243 for v in nonconstant)
    ok = ok and all(submodule_closure_size((c,) * 6) == 3 for c in (1, 2))
    _report("A04", ok, "all 240 non-constant vectors generate M; constants generate order 3")


def test_a05_orbit_and_stabilizer():
    aut = compute_aut_star()
    ok = aut.orbit_size == 39_366
    ok = ok and aut.order == 2160
    span = bsgs_build([tau1().to_perm36(), (tau2() * star()).to_perm36()])
    ok = ok and span.order() == 2160
    ok = ok and all(span.contains(g.to_perm36()) for g in aut.generators)
    _report("A05", ok, "orbit of H has size 39366; Schreier generators give <tau1, tau2 *> of order 2160")


def test_a06_linear_stabilizer():
    lin = compute_aut_linear()
    ok = lin.order == 1080
    report = verify_prop2()
    by_id = {c.id: c for c in report.clauses}
    ok = ok and by_id["aut_perfect"].passed
    ok = ok and by_id["center"].passed
    ok = ok and by_id["central_quotient_order"].passed
    ok = ok and by_id["central_quotient_simple"].passed
    _report("A06", ok, "eps = 0 stabilizer: order 1080, perfect, center (wI, wI) of order 3, simple quotient of order 360")


def test_a07_commutator_values():
    c = commutator(tau2(), star())
    ok = c == XElement(
        MonomialMatrix.diagonal((0, 0, 1, 2, 2, 1)),
        MonomialMatrix.diagonal((0, 0, 2, 1, 1, 2)),
        0,
    )
    ok = ok and commutator(sylow_x(), sylow_y()) == omega_pair()
    H = H6_PHASES
    ok = ok and sylow_x().act(H) == H and sylow_y().act(H) == H
    _report("A07", ok, "[tau2, *] and [x, y] match the stated values; x, y fix H ([a,b] = a^-1 b^-1 a b)")


def test_a08_eighteen_point_action():
    ok = str(tau1().to_perm18()) == "(2,3,4,5,6)(8,9,10,11,12)(14,15,16,17,18)"
    ok = ok and str(tau2().to_perm18()) == "(1,2)(3,15,9)(4,10,16)(5,11,17)(6,18,12)(7,8)(13,14)"
    ok = ok and str(star().to_perm18()) == "(7,13)(8,14)(9,15)(10,16)(11,17)(12,18)"
    ok = ok and action_kernel_order(x_bsgs(), _row_restriction_block) == 243
    _report("A08", ok, "18-point generator images match character-for-character; kernel has order 3^5")


def test_a09_intertwining_theorem():
    t2s = tau2() * star()
    ok = verify_intertwining(t2s) and verify_intertwining(tau1())
    rhs = to_matrix(b_rep(t2s).a)
    ok = ok and rhs @ rhs == identity(6, SplitQuaternion)
    ok = ok and all(
        SplitQuaternion.unit(a, 1) * SplitQuaternion.unit(a, 1) == SQ_ONE for a in (0, 1, 2)
    )
    rng = random.Random(0)
    letters = [tau1(), t2s]
    for _ in range(100):
        g = XElement._raw(Permutation.identity(36))
        h = XElement._raw(Permutation.identity(36))
        for _ in range(10):
            g = g * rng.choice(letters)
            h = h * rng.choice(letters)
        rg, rh, rgh = b_rep(g), b_rep(h), b_rep(g * h)
        ok = ok and to_matrix(rgh.a) == to_matrix(rg.a) @ to_matrix(rh.a)
        ok = ok and to_matrix(rgh.b) == to_matrix(rg.b) @ to_matrix(rh.b)
        ok = ok and verify_intertwining(g)
    ok = ok and tau2prime().p.perm.cycle_type() == (2, 1, 1, 1, 1)
    ok = ok and tau2prime().q.perm.cycle_type() == (2, 2, 2)
    _report("A09", ok, "intertwining equation exact; involution; (B w^a)^2 = 1; 100 random words multiplicative; cycle types differ")


def test_a10_outer_automorphism():
    sigma = build_outer()
    ok = sigma.is_bijective() and sigma.is_multiplicative()
    ok = ok and str(sigma.apply(Permutation.parse("(1,2)", 6))) == "(1,2)(3,6)(4,5)"
    ok = ok and str(sigma.apply(Permutation.parse("(1,2,3,4,5,6)", 6))) == "(1,2,6)(3,5)"
    ok = ok and is_inner(sigma) is None
    ok = ok and is_inner(sigma.then(sigma)) is not None
    ok = ok and compare_up_to_inner(sigma, totals_outer()) is not None
    _report("A10", ok, "sigma is a bijective multiplicative table, outer, with inner square, conjugate to the totals map")


def test_a11_sylvester_totals():
    ok = len(all_synthemes()) == 15 and len(sylvester_totals()) == 6
    _report("A11", ok, "exactly 15 synthemes forming exactly 6 totals")


def test_a12_hexacode():
    from hadamard6.gf4 import h6_code

    code = h6_code()
    ok = code.parameters() == (6, 3, 4)
    ok = ok and all(code.puncture(c).parameters() == (5, 3, 3) for c in range(1, 7))
    _report("A12", ok, "row-span code is (6, 3, 4); all six punctures are (5, 3, 3)")


def test_a13_commutant():
    ok = commutant_dimension() == 1
    _report("A13", ok, "commutant of the eps = 0 representation generators is scalars only")
