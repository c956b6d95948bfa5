import random

import pytest

from hadamard6 import brep, groups, monomial
from hadamard6.autgroup import (
    XElement,
    compute_aut_linear,
    stabilizer_span,
    star,
    tau1,
    tau2,
    tau2prime,
    x_generators,
)
from hadamard6.brep import (
    BRepElement,
    _commutant_dimension,
    b_rep,
    commutant_dimension,
    verify_intertwining,
    verify_theorem,
)
from hadamard6.eisenstein import EisensteinRational, SplitQuaternion
from hadamard6.groups import BSGS
from hadamard6.matrices import ExactMatrix, h6
from hadamard6.monomial import MonomialBMatrix, MonomialMatrix, b_pair_perm36
from hadamard6.perms import Permutation

# (a, r) -> (-a, r) on both halves of the 36 points
PHI = Permutation([base + 6 * ((3 - a) % 3) + r for base in (0, 18) for a in range(3) for r in range(6)])


def encode(rep):
    return b_pair_perm36(rep.a, rep.b)


def stabilizer_word(rng, length=10):
    letters = [tau1(), tau2() * star()]
    g = XElement._raw(Permutation.identity(36))
    for _ in range(length):
        g = g * rng.choice(letters)
    return g


def test_b_rep_of_tau1_has_no_beta():
    rep = b_rep(tau1())
    k = Permutation.parse("(2,3,4,5,6)", 6)
    assert rep.a == MonomialBMatrix(((0, 0),) * 6, k)
    assert rep.b == MonomialBMatrix(((0, 0),) * 6, k)


def test_b_rep_of_identity():
    rep = b_rep(XElement._raw(Permutation.identity(36)))
    e = MonomialBMatrix(((0, 0),) * 6, Permutation.identity(6))
    assert rep.a == e
    assert rep.b == e


def test_b_rep_of_tau2_star_entry_pattern():
    # beta-left writing convention: each unit is written with B first and the
    # phase kept, so B w^c corresponds to the stored pair (c, 1)
    rep = b_rep(tau2() * star())
    assert rep.b.phases == tuple((c, 1) for c in (0, 0, 2, 1, 1, 2))
    assert rep.b.perm == Permutation.parse("(1,2)(3,6)(4,5)", 6)
    assert rep.a.phases == tuple((c, 1) for c in (0, 0, 1, 2, 2, 1))
    assert rep.a.perm == Permutation.parse("(1,2)", 6)


def test_b_rep_rejects_non_stabilizer_elements():
    with pytest.raises(ValueError):
        b_rep(star())
    with pytest.raises(ValueError):
        b_rep(tau2())


def test_b_rep_is_multiplicative():
    # against the split-quaternion matrices, independently of the encoding
    rng = random.Random(200)
    for _ in range(50):
        g, h = stabilizer_word(rng, 6), stabilizer_word(rng, 6)
        rg, rh, rgh = b_rep(g), b_rep(h), b_rep(g * h)
        assert rgh.a.to_matrix() == rg.a.to_matrix() @ rh.a.to_matrix()
        assert rgh.b.to_matrix() == rg.b.to_matrix() @ rh.b.to_matrix()


def test_encoding_of_the_formula_is_phi_conjugation_on_all_of_x():
    # random words over tau1, tau2 and *, so outside the stabilizer too
    assert brep._PHI == PHI
    rng = random.Random(201)
    letters = [tau1(), tau2(), star()]
    for _ in range(200):
        g = XElement._raw(Permutation.identity(36))
        for _ in range(rng.randrange(1, 16)):
            g = g * rng.choice(letters)
        assert encode(brep._b_rep_formula(g)) == PHI * g.perm * PHI


def test_row_law_holds_along_a_walk_through_x():
    # brep_homomorphism checks eight elements and claims the law on all of X:
    # every step of a 600-step walk over X's generators satisfies it, and
    # most steps lie outside the stabilizer
    rng = random.Random(202)
    g = XElement._raw(Permutation.identity(36))
    outside = 0
    for _ in range(600):
        g = g * rng.choice(x_generators())
        outside += not stabilizer_span().contains(g.perm)
        assert b_pair_perm36(*brep._b_rep_formula(g)) == brep._PHI * g.perm * brep._PHI
    assert outside > 500


def _b_pair_tables(law):
    # _B_PAIR_TABLES with the phase of (c, r) under the unit w^x B^y given by law
    return tuple(
        tuple(bytes(base + 6 * (law(c, x, y) % 3) + s
                    for x in range(3) for y in range(2) for s in range(6)).ljust(256, b"\0")
              for c in range(3))
        for base in (0, 18))


def test_b_pair_tables_follow_the_unit_law():
    assert monomial._B_PAIR_TABLES == _b_pair_tables(lambda c, x, y: (c + x) * (-1) ** y)


@pytest.mark.parametrize("law", [lambda c, x, y: (c - x) * (-1) ** y,
                                 lambda c, x, y: c * (-1) ** y + x],
                         ids=["c-x", "sign_on_c_only"])
def test_brep_homomorphism_clause_fails_on_a_sign_mutant_of_the_tables(monkeypatch, law):
    # the real encoder, run on tables whose sign is wrong, no longer gives
    # phi g phi on the row law's elements
    monkeypatch.setattr(monomial, "_B_PAIR_TABLES", _b_pair_tables(law))
    by_id = {c.id: c for c in verify_theorem().clauses}
    assert not by_id["brep_homomorphism"].passed
    assert not by_id["intertwining"].passed


def test_intertwining_for_generators():
    assert verify_intertwining(tau1())
    assert verify_intertwining(tau2() * star())
    assert verify_intertwining(XElement._raw(Permutation.identity(36)))


def dense_intertwining(g):
    # the reference for verify_intertwining's H B' = A' H: the clause's
    # H B' dagger(H) = 6 A' by dense products
    rep = b_rep(g)
    H = h6().to_split_quaternion()
    Hd = h6().dagger().to_split_quaternion()
    return H @ rep.b.to_matrix() @ Hd == rep.a.to_matrix().scaled(6)


def test_intertwining_equation_explicitly():
    # H B' dagger(H) = 6 A' with the conjugated second component on the left
    assert dense_intertwining(tau2() * star())
    assert dense_intertwining(tau1())


def _shift_first_unit(rep):
    (x, y), *rest = rep.a.phases
    return BRepElement(MonomialBMatrix(((x + 1, y), *rest), rep.a.perm), rep.b)


@pytest.mark.parametrize("element", [tau1, lambda: tau2() * star()], ids=["tau1", "tau2*"])
def test_intertwining_and_its_dense_reference_fail_on_a_shifted_unit(monkeypatch, element):
    g = element()
    assert verify_intertwining(g) and dense_intertwining(g)
    formula = brep._b_rep_formula
    monkeypatch.setattr(brep, "_b_rep_formula", lambda h: _shift_first_unit(formula(h)))
    assert not verify_intertwining(g)
    assert not dense_intertwining(g)


def test_rhs_is_an_involution():
    rhs = b_rep(tau2() * star()).a.to_matrix()
    assert rhs @ rhs == ExactMatrix.identity(6, SplitQuaternion)


def test_cycle_types_of_the_two_projections():
    assert tau2prime().p.perm.cycle_type() == (2, 1, 1, 1, 1)
    assert tau2prime().q.perm.cycle_type() == (2, 2, 2)


def test_commutant_is_one_dimensional():
    assert commutant_dimension() == 1


def _dense_commutant_rows(components):
    # the rows of XA - AX = 0 over Z[w], one per entry of X and dense matrix
    # A = to_matrix() of a component
    n = 6
    rows = []
    for m in components:
        a = m.to_matrix().entries
        for i in range(n):
            for j in range(n):
                row = [EisensteinRational(0)] * (n * n)
                for k in range(n):
                    row[i * n + k] = row[i * n + k] + a[k * n + j]
                    row[k * n + j] = row[k * n + j] - a[i * n + k]
                rows.append(tuple(row))
    return rows


def _random_monomial(rng):
    images = list(range(6))
    rng.shuffle(images)
    return MonomialMatrix([rng.randrange(3) for _ in range(6)], Permutation(images))


def test_commutant_orbit_count_matches_the_dense_commutator_rank(row_basis):
    swap = Permutation.parse("(1,2)", 6)
    cases = [
        ([g.p for g in compute_aut_linear().generators], 1),
        ([MonomialMatrix.diagonal((0,) * 6)], 36),
        ([MonomialMatrix((0,) * 6, Permutation.parse("(1,2,3,4,5,6)", 6))], 6),
        ([MonomialMatrix.diagonal((0, 1, 2, 0, 1, 2))], 12),
        # (1,2) alone has 26 orbits on the entries; with the phase w on row 1,
        # going once round 8 of them multiplies by w or w2, forcing X to 0 there
        ([MonomialMatrix((0,) * 6, swap)], 26),
        ([MonomialMatrix((1, 0, 0, 0, 0, 0), swap)], 18),
    ]
    rng = random.Random(31)
    cases += [([_random_monomial(rng) for _ in range(rng.randint(1, 3))], None) for _ in range(150)]
    dimensions = set()
    for components, expected in cases:
        dense = 36 - len(row_basis(_dense_commutant_rows(components)))
        assert _commutant_dimension(components) == dense
        assert expected in (None, dense)
        dimensions.add(dense)
    assert len(dimensions) > 5


def test_commutant_dimension_skips_zero_products(monkeypatch, row_basis):
    # row_basis forms no product with a zero entry: 912 products on the
    # generators' dense system, against 14,616 when every entry is
    # cross-multiplied
    rows = _dense_commutant_rows([g.p for g in compute_aut_linear().generators])
    calls = []
    mul = EisensteinRational.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(EisensteinRational, "__mul__", counting)
    assert 36 - len(row_basis(rows)) == 1
    assert len(calls) < 2000


def test_commutant_dimension_makes_no_eisenstein_values(monkeypatch):
    compute_aut_linear()
    made = []
    init = EisensteinRational.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(EisensteinRational, "__init__", counting)
    assert commutant_dimension() == 1
    assert made == []


def test_theorem_report_passes():
    report = verify_theorem()
    assert report.passed, [c.id for c in report.clauses if not c.passed]
    assert {c.id for c in report.clauses} >= {
        "brep_homomorphism",
        "intertwining",
        "rhs_involution",
        "beta_unit_squares",
        "cycle_types",
        "commutant_dimension",
    }


def _without_beta(rep):
    return BRepElement(*(MonomialBMatrix(tuple((a, 0) for a, _ in m.phases), m.perm)
                         for m in (rep.a, rep.b)))


def _swapped(rep):
    return BRepElement(rep.b, rep.a)


@pytest.mark.parametrize("wrong", [_without_beta, _swapped], ids=["without_B", "swapped"])
def test_brep_homomorphism_clause_fails_on_a_wrong_generator_image(monkeypatch, wrong):
    # tau2 * gets a wrong image, both from b_rep and inside the row law's
    # check, so its encoding is no longer phi (tau2 *) phi
    t2s = tau2() * star()
    formula = brep._b_rep_formula
    monkeypatch.setattr(brep, "_b_rep_formula",
                        lambda g: wrong(formula(g)) if g == t2s else formula(g))
    by_id = {c.id: c for c in verify_theorem().clauses}
    assert not by_id["brep_homomorphism"].passed
    assert not by_id["intertwining"].passed


def test_theorem_sifts_only_the_generators(monkeypatch):
    # the row law's elements go through b_rep's formula without a membership
    # test, so only intertwining's two generators and rhs_involution's element
    # are sifted
    calls = []
    contains = BSGS.contains

    def counting(self, g):
        calls.append(g)
        return contains(self, g)

    monkeypatch.setattr(BSGS, "contains", counting)
    assert verify_theorem().passed
    assert len(calls) == 3


def test_theorem_builds_no_closure(monkeypatch):
    # brep_homomorphism checks the row law on eight elements and lists none
    def no_closure(gens):
        raise AssertionError("theorem must not enumerate a group")

    checked = []
    encodes = brep._encodes_phi_conjugate

    def counting(g):
        checked.append(g)
        return encodes(g)

    monkeypatch.setattr(groups, "closure", no_closure)
    monkeypatch.setattr(brep, "_encodes_phi_conjugate", counting)
    assert "closure" not in vars(brep)
    assert verify_theorem().passed
    assert len(checked) == 8


@pytest.mark.parametrize("element", [tau1, lambda: tau2() * star()],
                         ids=["tau1", "tau2*"])
def test_intertwining_products_stay_on_integers(element):
    # the identity multiplies only cube roots of unity and small integers, so
    # no component of H * B' * dagger(H) may be a Fraction
    rep = b_rep(element())
    lhs = h6().to_split_quaternion() @ rep.b.to_matrix() @ h6().dagger().to_split_quaternion()
    for q in lhs.entries:
        for c in (q.z.a, q.z.b, q.v.a, q.v.b):
            assert type(c) is int
