import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hadamard6.eisenstein import E_ONE, E_ZERO, OMEGA, SQ_ZERO, EisensteinRational, SplitQuaternion
from hadamard6.matrices import ExactMatrix
from hadamard6.monomial import MonomialBMatrix, MonomialMatrix, b_pair_perm36
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
            expected = E_ONE if j == m.perm.images[i] else E_ZERO
            assert mat.entry(i, j) == expected


def test_to_matrix_places_phases_on_rows():
    m = MonomialMatrix((0, 0, 1, 2, 2, 1), Permutation.parse("(1,2)", 6))
    mat = m.to_matrix()
    assert mat.entry(0, 1) == E_ONE      # row 1 has its entry in column 2
    assert mat.entry(2, 2) == OMEGA      # row 3 keeps column 3, entry w
    assert sum(1 for e in mat.entries if e) == 6


def test_identity_to_matrix():
    assert MonomialMatrix.diagonal((0,) * 6).to_matrix() == ExactMatrix.identity(6)


def test_compose_matches_matrix_product():
    rng = random.Random(1)
    for _ in range(100):
        a, b = random_monomial(rng), random_monomial(rng)
        assert (a * b).to_matrix() == a.to_matrix() @ b.to_matrix()


def test_pi_is_a_homomorphism():
    rng = random.Random(2)
    for _ in range(100):
        a, b = random_monomial(rng), random_monomial(rng)
        assert (a * b).perm == a.perm * b.perm


def test_tau2_first_component_squared_is_diagonal():
    # brute force through the matrix product: the square has trivial
    # permutation part
    m = MonomialMatrix((0, 0, 1, 2, 2, 1), Permutation.parse("(1,2)", 6))
    sq = m * m
    assert sq.to_matrix() == m.to_matrix() @ m.to_matrix()
    assert sq.perm.is_identity()


def test_identity_law():
    rng = random.Random(8)
    e = MonomialMatrix.diagonal((0,) * 6)
    for _ in range(20):
        m = random_monomial(rng)
        assert e * m == m
        assert m * e == m


def test_diagonal_inverse_pair():
    a = MonomialMatrix.diagonal((1,) * 6)
    b = MonomialMatrix.diagonal((2,) * 6)
    assert a * b == MonomialMatrix.diagonal((0,) * 6)


def test_diagonal_accepts_a_generator():
    d = MonomialMatrix.diagonal(x for x in (1, 2, 0))
    assert d == MonomialMatrix.diagonal((1, 2, 0))
    assert d.perm.is_identity() and d.phases == (1, 2, 0)


def test_inverse():
    rng = random.Random(4)
    for _ in range(50):
        m = random_monomial(rng)
        assert m * m.inverse() == MonomialMatrix.diagonal((0,) * 6)
        assert m.inverse() * m == MonomialMatrix.diagonal((0,) * 6)
    k = MonomialMatrix((0,) * 6, Permutation.parse("(1,2,3)", 6))
    assert k.inverse() == MonomialMatrix((0,) * 6, Permutation.parse("(1,3,2)", 6))
    d = MonomialMatrix.diagonal((1, 0, 0, 0, 0, 0))
    assert d.inverse() == MonomialMatrix.diagonal((2, 0, 0, 0, 0, 0))


def test_degree_mismatch():
    with pytest.raises(ValueError):
        MonomialMatrix.diagonal((0,) * 6) * MonomialMatrix.diagonal((0,) * 5)


def test_text_round_trip():
    assert str(MonomialMatrix.diagonal((0,) * 6)) == "[1,1,1,1,1,1]"
    assert str(MonomialMatrix((0, 0, 1, 2, 2, 1), Permutation.parse("(1,2)", 6))) == "[1,1,w,w2,w2,w](1,2)"


# --- B-monomial matrices ---------------------------------------------------


I6 = ExactMatrix.identity(6, SplitQuaternion)
UNITS = {SplitQuaternion.unit(a, b): (a, b) for a in range(3) for b in range(2)}


def bmonomial_of(mat):
    """Read a B-monomial matrix off a split-quaternion matrix that is one."""
    phases, images = [], []
    for i in range(6):
        (j, q), = [(j, mat.entry(i, j)) for j in range(6) if mat.entry(i, j) != SQ_ZERO]
        phases.append(UNITS[q])
        images.append(j)
    return MonomialBMatrix(phases, Permutation(images))


def decode_b_pair(perm):
    """Invert b_pair_perm36: row r's unit is read off the images of the
    states (0, r) and (1, r), which differ by +1 without B and by -1 with it."""
    pair = []
    for base in (0, 18):
        phases, images = [], []
        for r in range(6):
            t0, s = divmod(perm.images[base + r] - base, 6)
            t1 = (perm.images[base + 6 + r] - base) // 6
            b = 1 if (t1 - t0) % 3 == 2 else 0
            phases.append(((-t0 if b else t0) % 3, b))
            images.append(s)
        pair.append(MonomialBMatrix(phases, Permutation(images)))
    return tuple(pair)


def test_conjugated_b_matrix_is_an_involution():
    m = MonomialBMatrix(
        tuple((a, 1) for a in (0, 0, 1, 2, 2, 1)),
        Permutation.parse("(1,2)", 6),
    )
    e = b_pair_perm36(m, m)
    assert not e.is_identity() and (e * e).is_identity()
    assert m.to_matrix() @ m.to_matrix() == I6


def test_beta_identity_squares():
    beta_i = MonomialBMatrix.from_monomial(MonomialMatrix.diagonal((0,) * 6), with_beta=True)
    e = b_pair_perm36(beta_i, beta_i)
    assert not e.is_identity() and (e * e).is_identity()
    assert beta_i.to_matrix() @ beta_i.to_matrix() == I6


def test_bmatrix_identity_law():
    # the identity matrix encodes to the identity permutation, so with the
    # product law below it is a two-sided identity
    e = MonomialBMatrix(((0, 0),) * 6, Permutation.identity(6))
    assert e.to_matrix() == I6
    assert b_pair_perm36(e, e).is_identity()


bmonomial6 = st.builds(
    MonomialBMatrix,
    st.tuples(*[st.tuples(st.integers(0, 2), st.integers(0, 1))] * 6),
    st.permutations(range(6)).map(Permutation),
)


@given(bmonomial6)
def test_bmatrix_inverse_is_two_sided(m):
    # the inverse permutation decodes to the inverse matrix on both sides
    inv, _ = decode_b_pair(b_pair_perm36(m, m).inverse())
    assert m.to_matrix() @ inv.to_matrix() == I6
    assert inv.to_matrix() @ m.to_matrix() == I6


@given(bmonomial6, bmonomial6)
def test_b_pair_perm36_round_trip(a, b):
    # decoding recovers the pair, so the encoding is injective
    assert decode_b_pair(b_pair_perm36(a, b)) == (a, b)


@given(bmonomial6, bmonomial6, bmonomial6, bmonomial6)
def test_bmatrix_compose_matches_matrix_product(a1, a2, b1, b2):
    # the encoding of a pair multiplies like the pair's matrices
    c1 = bmonomial_of(a1.to_matrix() @ b1.to_matrix())
    c2 = bmonomial_of(a2.to_matrix() @ b2.to_matrix())
    assert c1.to_matrix() == a1.to_matrix() @ b1.to_matrix()
    assert b_pair_perm36(a1, a2) * b_pair_perm36(b1, b2) == b_pair_perm36(c1, c2)


def test_b_pair_perm36_pins_the_unit_law():
    # w B sends row state (c, 1) to (-(c + 1), 1^K); here K = (1,2)
    m = MonomialBMatrix(((1, 1),) + ((0, 0),) * 5, Permutation.parse("(1,2)", 6))
    e = b_pair_perm36(m, m)
    assert [e.images[6 * c] for c in range(3)] == [6 * 2 + 1, 6 * 1 + 1, 6 * 0 + 1]
    assert [e.images[18 + 6 * c + 2] for c in range(3)] == [18 + 2, 18 + 8, 18 + 14]


def random_bmonomial(rng):
    images = list(range(6))
    rng.shuffle(images)
    return MonomialBMatrix([(rng.randrange(3), rng.randrange(2)) for _ in range(6)],
                           Permutation(images))


def test_b_pair_perm36_follows_the_unit_law():
    # (c, r) -> ((-1)^b_r * (c + a_r), r^K) on each half, point by point
    rng = random.Random(24)
    for _ in range(200):
        a, b = random_bmonomial(rng), random_bmonomial(rng)
        expected = bytes(base + 6 * ((-1) ** y * (c + x) % 3) + m.perm.images[r]
                         for base, m in ((0, a), (18, b)) for c in range(3)
                         for r, (x, y) in enumerate(m.phases))
        assert b_pair_perm36(a, b).images == expected


def test_b_pair_perm36_degree_mismatch():
    m5 = MonomialBMatrix(((0, 0),) * 5, Permutation.identity(5))
    m6 = MonomialBMatrix(((0, 0),) * 6, Permutation.identity(6))
    with pytest.raises(ValueError):
        b_pair_perm36(m5, m6)


def test_bmatrix_text():
    m = MonomialBMatrix(
        ((0, 1), (0, 1), (2, 1), (1, 1), (1, 1), (2, 1)),
        Permutation.parse("(1,2)(3,6)(4,5)", 6),
    )
    assert str(m) == "[B,B,w2B,wB,wB,w2B](1,2)(3,6)(4,5)"


def random_dense(rng, rows, cols, ring):
    def entry():
        z = EisensteinRational(rng.randint(-3, 3), rng.randint(-3, 3))
        return z if ring is EisensteinRational else SplitQuaternion(z, EisensteinRational(rng.randint(-3, 3)))
    return ExactMatrix(rows, cols, [entry() for _ in range(rows * cols)])


@pytest.mark.parametrize("kind", ["cube roots", "split quaternion units"])
def test_monomial_products_are_the_dense_products(kind):
    # row and column moves against to_matrix products, on both sides and on
    # operands that are not square
    rng = random.Random(34)
    ring = EisensteinRational if kind == "cube roots" else SplitQuaternion
    make = random_monomial if kind == "cube roots" else random_bmonomial
    for _ in range(30):
        m = make(rng)
        left, right = random_dense(rng, 6, rng.randint(1, 7), ring), random_dense(rng, rng.randint(1, 7), 6, ring)
        assert m @ left == m.to_matrix() @ left
        assert right @ m == right @ m.to_matrix()


def test_inverse_then_dense_then_monomial_is_the_dense_triple_product():
    rng = random.Random(35)
    for _ in range(30):
        p, q = random_monomial(rng), random_monomial(rng)
        H = random_dense(rng, 6, 6, EisensteinRational)
        assert p.inverse() @ H @ q == p.inverse().to_matrix() @ H @ q.to_matrix()


def test_monomial_products_reject_a_wrong_degree_or_ring():
    rng = random.Random(36)
    m, mb = random_monomial(rng), random_bmonomial(rng)
    for mono, wrong_ring, ring in ((m, SplitQuaternion, EisensteinRational),
                                   (mb, EisensteinRational, SplitQuaternion)):
        for operand in (random_dense(rng, 6, 6, wrong_ring), random_dense(rng, 5, 5, ring)):
            with pytest.raises(ValueError):
                mono @ operand
            with pytest.raises(ValueError):
                operand @ mono
        with pytest.raises(TypeError):
            mono @ 3


@pytest.mark.parametrize("kind, ring, one, phases, text, shift", [
    (MonomialMatrix, EisensteinRational, 0, (0, 1, 2, 0, 0, 0), "[1,w,w2,1,1,1](1,2)", lambda p: p + 3),
    (MonomialBMatrix, SplitQuaternion, (0, 0), ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)),
     "[1,w,w2,B,wB,w2B](1,2)", lambda p: (p[0] - 3, p[1] + 2)),
], ids=["cube roots", "split quaternion units"])
def test_each_kind_keeps_its_ring_class_hash_and_unit_names(kind, ring, one, phases, text, shift):
    # the two kinds share one body; what it reads off the kind must differ
    k = Permutation.parse("(1,2)", 6)
    ones = kind((one,) * 6, k)
    assert ones.to_matrix().ring is ring
    assert repr(ones) == f"<{kind.__name__} [1,1,1,1,1,1](1,2)>"
    m = kind(phases, k)
    assert str(m) == text
    assert m.to_matrix().ring is ring
    twin = kind([shift(p) for p in phases], Permutation.parse("(1,2)", 6))
    assert twin is not m and twin == m and hash(twin) == hash(m)
    assert twin != ones
