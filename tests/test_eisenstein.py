from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hadamard6.eisenstein import (
    BETA,
    E_ONE,
    E_ZERO,
    OMEGA,
    OMEGA2,
    SQ_ONE,
    EisensteinRational,
    SplitQuaternion,
)

integers = st.integers(min_value=-50, max_value=50)
eisenstein = st.builds(EisensteinRational, integers, integers)
splitquat = st.builds(SplitQuaternion, eisenstein, eisenstein)


def test_omega_relations():
    assert OMEGA * OMEGA * OMEGA == E_ONE
    assert E_ONE + OMEGA + OMEGA * OMEGA == E_ZERO
    assert OMEGA * OMEGA == OMEGA2


def test_addition_examples():
    assert OMEGA + OMEGA * OMEGA == EisensteinRational(-1, 0)
    assert E_ZERO + OMEGA == OMEGA
    one_plus = EisensteinRational(1, 1)
    assert one_plus + one_plus == EisensteinRational(2, 2)


def test_multiplication_examples():
    assert OMEGA * OMEGA == EisensteinRational(-1, -1)
    assert OMEGA * OMEGA.conj() == E_ONE
    assert (-OMEGA2) * (-OMEGA) == E_ONE


def test_conjugation_examples():
    assert OMEGA.conj() == EisensteinRational(-1, -1)
    assert E_ONE.conj() == E_ONE
    x = EisensteinRational(2, 3)
    assert x.conj().conj() == x


@given(eisenstein, eisenstein, eisenstein)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(eisenstein, eisenstein)
def test_conj_is_an_automorphism(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()


def test_str_forms():
    assert str(E_ZERO) == "0"
    assert str(OMEGA) == "w"
    assert str(OMEGA2) == "-1-w"
    assert str(EisensteinRational(2, 3)) == "2+3*w"


# --- split quaternions -----------------------------------------------------


def _mul_by_expansion(p, q):
    # oracle: distribute (z1 + v1 B)(z2 + v2 B) using only B^2 = 1 and
    # B u = conj(u) B, term by term
    z1, v1, z2, v2 = p.z, p.v, q.z, q.v
    term_zz = z1 * z2                     # z1 z2
    term_zb = z1 * v2                     # z1 (v2 B) = (z1 v2) B
    term_bz = v1 * z2.conj()              # (v1 B) z2 = v1 conj(z2) B
    term_bb = v1 * v2.conj()              # (v1 B)(v2 B) = v1 conj(v2) B^2
    return SplitQuaternion(term_zz + term_bb, term_zb + term_bz)


@given(splitquat, splitquat)
def test_multiplication_law_frozen(p, q):
    assert p * q == _mul_by_expansion(p, q)


def test_beta_relations():
    assert BETA * BETA == SQ_ONE
    bw = BETA * SplitQuaternion(OMEGA)
    assert bw == SplitQuaternion(E_ZERO, OMEGA2)  # B w = conj(w) B
    assert bw * bw == SQ_ONE


@pytest.mark.parametrize("a", [0, 1, 2])
def test_beta_unit_order_two(a):
    u = SplitQuaternion.unit(a, 1)
    assert u * u == SQ_ONE


@given(splitquat, splitquat, splitquat)
def test_splitquat_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(splitquat)
def test_splitquat_unital(p):
    assert SQ_ONE * p == p
    assert p * SQ_ONE == p


@given(eisenstein, eisenstein)
def test_complex_subfield_embeds(x, y):
    px = SplitQuaternion(x)
    py = SplitQuaternion(y)
    assert px * py == SplitQuaternion(x * y)
    assert px + py == SplitQuaternion(x + y)


def test_splitquat_str():
    assert str(BETA) == "(0)+(1)*B"
    assert str(SplitQuaternion(OMEGA, OMEGA2)) == "(w)+(-1-w)*B"


# --- canonical form and the eq/hash contract ----------------------------------


@given(eisenstein, eisenstein)
def test_results_are_in_canonical_form(x, y):
    results = [x, x + y, x - y, x * y, -x, x.conj(), x + 1, 2 * x, 1 - x]
    for r in results:
        assert type(r.a) is int and type(r.b) is int, repr(r)


def test_construction_canonicalises_components():
    t = EisensteinRational(True, False)
    assert type(t.a) is int and type(t.b) is int and t == E_ONE


@pytest.mark.parametrize("bad", [1.0, "1", None, 1j, Fraction(1, 2)])
def test_non_rational_components_are_rejected(bad):
    with pytest.raises(TypeError):
        EisensteinRational(bad)
    with pytest.raises(TypeError):
        EisensteinRational(0, bad)


@given(integers)
def test_equal_values_hash_equal_across_routes(q):
    routes = [
        q,
        EisensteinRational(q),
        EisensteinRational(q, 0),
        SplitQuaternion(q),
        SplitQuaternion(EisensteinRational(q), E_ZERO),
    ]
    for x in routes:
        for y in routes:
            assert x == y
            assert hash(x) == hash(y)
    assert len(set(routes)) == 1


@given(eisenstein)
def test_complex_split_quaternions_hash_like_their_complex_part(x):
    p = SplitQuaternion(x)
    assert p == x and x == p
    assert hash(p) == hash(x)
