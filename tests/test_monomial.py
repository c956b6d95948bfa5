import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hadamard6.eisenstein import E_ONE, E_ZERO, OMEGA, SplitQuaternion
from hadamard6.matrices import ExactMatrix
from hadamard6.monomial import MonomialBMatrix, MonomialMatrix
from hadamard6.perms import Permutation


def random_monomial(rng, n=6):
    phases = tuple(rng.randrange(3) for _ in range(n))
    images = list(range(n))
    rng.shuffle(images)
    return MonomialMatrix(phases, Permutation(tuple(images)))


def test_to_matrix_of_pure_permutation():
    m = MonomialMatrix((0,) * 6, Permutation.parse("(2,3,4,5,6)", 6))
    mat = m.to_matrix()
    for i in range(6):
        for j in range(6):
            expected = E_ONE if j == m.perm.apply(i) else E_ZERO
            assert mat.entry(i, j) == expected


def test_to_matrix_places_phases_on_rows():
    m = MonomialMatrix((0, 0, 1, 2, 2, 1), Permutation.parse("(1,2)", 6))
    mat = m.to_matrix()
    assert mat.entry(0, 1) == E_ONE      # row 1 has its entry in column 2
    assert mat.entry(2, 2) == OMEGA      # row 3 keeps column 3, entry w
    assert sum(1 for e in mat.entries if e) == 6


def test_identity_to_matrix():
    assert MonomialMatrix.identity(6).to_matrix() == ExactMatrix.identity(6)


def test_compose_matches_matrix_product():
    rng = random.Random(1)
    for _ in range(100):
        a, b = random_monomial(rng), random_monomial(rng)
        assert (a * b).to_matrix() == a.to_matrix() @ b.to_matrix()


def test_pi_is_a_homomorphism():
    rng = random.Random(2)
    for _ in range(100):
        a, b = random_monomial(rng), random_monomial(rng)
        assert (a * b).pi() == a.pi() * b.pi()


def test_tau2_first_component_squared_is_diagonal():
    # brute force through the matrix product: the square has trivial
    # permutation part
    m = MonomialMatrix((0, 0, 1, 2, 2, 1), Permutation.parse("(1,2)", 6))
    sq = m * m
    assert sq.to_matrix() == m.to_matrix() @ m.to_matrix()
    assert sq.perm.is_identity()


def test_identity_law():
    rng = random.Random(8)
    e = MonomialMatrix.identity(6)
    for _ in range(20):
        m = random_monomial(rng)
        assert e * m == m
        assert m * e == m


def test_diagonal_inverse_pair():
    a = MonomialMatrix.diagonal((1,) * 6)
    b = MonomialMatrix.diagonal((2,) * 6)
    assert (a * b).is_identity()


def test_diagonal_accepts_a_generator():
    d = MonomialMatrix.diagonal(x for x in (1, 2, 0))
    assert d == MonomialMatrix.diagonal((1, 2, 0))
    assert d.perm.is_identity() and d.phases == (1, 2, 0)


def test_inverse():
    rng = random.Random(4)
    for _ in range(50):
        m = random_monomial(rng)
        assert (m * m.inverse()).is_identity()
        assert (m.inverse() * m).is_identity()
    k = MonomialMatrix((0,) * 6, Permutation.parse("(1,2,3)", 6))
    assert k.inverse() == MonomialMatrix((0,) * 6, Permutation.parse("(1,3,2)", 6))
    d = MonomialMatrix.diagonal((1, 0, 0, 0, 0, 0))
    assert d.inverse() == MonomialMatrix.diagonal((2, 0, 0, 0, 0, 0))


def test_degree_mismatch():
    with pytest.raises(ValueError):
        MonomialMatrix.identity(6) * MonomialMatrix.identity(5)


def test_text_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        m = random_monomial(rng)
        assert MonomialMatrix.parse(str(m), 6) == m
    assert str(MonomialMatrix.identity(6)) == "[1,1,1,1,1,1]"
    assert str(MonomialMatrix((0, 0, 1, 2, 2, 1), Permutation.parse("(1,2)", 6))) == "[1,1,w,w2,w2,w](1,2)"


def test_det():
    assert MonomialMatrix.identity(6).det() == E_ONE
    assert MonomialMatrix((0,) * 6, Permutation.parse("(1,2)", 6)).det() == -E_ONE
    assert MonomialMatrix.diagonal((1, 2, 0, 0, 0, 0)).det() == E_ONE
    assert MonomialMatrix.diagonal((1, 0, 0, 0, 0, 0)).det() == OMEGA


# --- B-monomial matrices ---------------------------------------------------


def random_bmonomial(rng, n=6):
    phases = tuple((rng.randrange(3), rng.randrange(2)) for _ in range(n))
    images = list(range(n))
    rng.shuffle(images)
    return MonomialBMatrix(phases, Permutation(tuple(images)))


def test_bmatrix_compose_matches_matrix_product():
    rng = random.Random(6)
    for _ in range(60):
        a, b = random_bmonomial(rng), random_bmonomial(rng)
        assert (a * b).to_matrix() == a.to_matrix() @ b.to_matrix()


def test_conjugated_b_matrix_is_an_involution():
    m = MonomialBMatrix(
        tuple((a, 1) for a in (0, 0, 1, 2, 2, 1)),
        Permutation.parse("(1,2)", 6),
    )
    assert (m * m).is_identity()
    assert m.to_matrix() @ m.to_matrix() == ExactMatrix.identity(6, SplitQuaternion)


def test_beta_identity_squares():
    beta_i = MonomialBMatrix.from_monomial(MonomialMatrix.identity(6), with_beta=True)
    assert (beta_i * beta_i).is_identity()


def test_bmatrix_identity_law():
    rng = random.Random(7)
    e = MonomialBMatrix.identity(6)
    for _ in range(20):
        a = random_bmonomial(rng)
        assert e * a == a
        assert a * e == a


bmonomial6 = st.builds(
    MonomialBMatrix,
    st.tuples(*[st.tuples(st.integers(0, 2), st.integers(0, 1))] * 6),
    st.permutations(range(6)).map(Permutation),
)


@given(bmonomial6)
def test_bmatrix_inverse_is_two_sided(m):
    assert (m * m.inverse()).is_identity()
    assert (m.inverse() * m).is_identity()
    assert m.to_matrix() @ m.inverse().to_matrix() == ExactMatrix.identity(6, SplitQuaternion)


def test_bmatrix_text():
    m = MonomialBMatrix(
        ((0, 1), (0, 1), (2, 1), (1, 1), (1, 1), (2, 1)),
        Permutation.parse("(1,2)(3,6)(4,5)", 6),
    )
    assert str(m) == "[B,B,w2B,wB,wB,w2B](1,2)(3,6)(4,5)"
