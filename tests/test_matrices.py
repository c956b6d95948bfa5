import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadamard6.eisenstein import (
    BETA,
    E_ONE,
    E_ZERO,
    OMEGA,
    OMEGA2,
    OMEGA_POWERS,
    SQ_ONE,
    SQ_ZERO,
    EisensteinRational,
    SplitQuaternion,
)
from hadamard6.autgroup import _gf3_span_size
from hadamard6.matrices import H6_PHASES, ExactMatrix, orthogonal_exponents

from conftest import dagger, entry, h6, identity

integers = st.integers(min_value=-9, max_value=9)
eisenstein = st.builds(EisensteinRational, integers, integers)


def matrices(n):
    return st.lists(eisenstein, min_size=n * n, max_size=n * n).map(
        lambda e: ExactMatrix(n, n, e)
    )


def test_h6_entry_values():
    H = h6()
    assert entry(H, 0, 0) == E_ONE
    assert entry(H, 1, 2) == OMEGA      # row 2, column 3
    assert entry(H, 5, 1) == OMEGA      # row 6, column 2
    assert entry(H, 1, 3) == OMEGA2
    # symmetric with constant first row and column
    for i in range(6):
        assert entry(H, 0, i) == E_ONE
        assert entry(H, i, 0) == E_ONE
        for j in range(6):
            assert entry(H, i, j) == entry(H, j, i)


def test_h6_trailing_block_is_circulant():
    H = h6()
    for i in range(1, 6):
        for j in range(1, 6):
            ii = 1 + (i % 5)
            jj = 1 + (j % 5)
            assert entry(H, i, j) == entry(H, ii, jj)


def test_identity_product():
    H = h6()
    assert identity(6) @ H == H


def test_beta_diagonal_squares_to_identity():
    d = ExactMatrix(2, 2, [BETA, SQ_ZERO, SQ_ZERO, BETA])
    assert d @ d == identity(2, SplitQuaternion)


def test_dagger_examples():
    assert dagger(identity(6)) == identity(6)
    H = h6()
    assert dagger(dagger(H)) == H
    # symmetry: dagger is just entrywise conjugation here
    conj = ExactMatrix(6, 6, [e.conj() for e in H.entries])
    assert dagger(H) == conj


def test_dagger_rejected_for_split_quaternions():
    m = identity(2, SplitQuaternion)
    with pytest.raises(ValueError):
        dagger(m)


@settings(max_examples=30)
@given(matrices(3), matrices(3))
def test_dagger_antihomomorphism(a, b):
    assert dagger(a @ b) == dagger(b) @ dagger(a)


@settings(max_examples=30)
@given(matrices(2), matrices(2), matrices(2))
def test_matmul_associative(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)


def test_matmul_errors():
    a = identity(2)
    b = identity(3)
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a @ identity(2, SplitQuaternion)


def test_is_hadamard_true_and_false(dense_hadamard):
    assert dense_hadamard(h6())
    assert not dense_hadamard(identity(6))
    ones = ExactMatrix(6, 6, [E_ONE] * 36)
    assert not dense_hadamard(ones)


def _changed(H, i, j, value):
    """H with entry (i, j) replaced, built through the checked constructor."""
    entries = list(H.entries)
    entries[i * H.cols + j] = value
    return ExactMatrix(H.rows, H.cols, entries)


def test_is_hadamard_fails_for_every_single_entry_mutation(dense_hadamard):
    # the dense product and the exponent rows both refute each of the 72
    # changes verify_prop1 counts
    H = h6()
    for i in range(6):
        for j in range(6):
            for k in (1, 2):
                mutated = _changed(H, i, j, entry(H, i, j) * OMEGA_POWERS[k])
                assert not dense_hadamard(mutated)
                rows = [list(r) for r in H6_PHASES]
                rows[i][j] = (rows[i][j] + k) % 3
                assert not all(orthogonal_exponents(a, b) for a, b in combinations(rows, 2))


def test_orthogonal_exponents_matches_the_eisenstein_sum():
    # only a - b enters the inner product, so the 3^6 differences d, each
    # taken against two rows b, cover every pair of cube-root rows
    for d in product(range(3), repeat=6):
        zero_sum = not sum((OMEGA_POWERS[k] for k in d), E_ZERO)
        for b in ((0,) * 6, H6_PHASES[2]):
            a = tuple((x + y) % 3 for x, y in zip(d, b))
            assert orthogonal_exponents(a, b) == zero_sum


def test_mixed_ring_entries_rejected():
    with pytest.raises(ValueError):
        ExactMatrix(1, 2, [E_ONE, SQ_ONE])


def test_hash_and_canonical_bytes():
    H = h6()
    same = ExactMatrix(6, 6, list(H.entries))
    assert H == same and hash(H) == hash(same)
    other = _changed(H, 0, 0, OMEGA)
    assert H != other


def _span(rows, scalars, zero, length):
    """Every linear combination of rows, by enumeration."""
    return {
        tuple(sum((c * row[i] for c, row in zip(coeffs, rows)), zero) for i in range(length))
        for coeffs in product(scalars, repeat=len(rows))
    }


def _closure(vectors, maps):
    """The smallest set holding the vectors that is closed under entrywise
    addition mod 3 and the coordinate maps, by enumeration."""
    found = set()
    todo = list(vectors)
    while todo:
        x = todo.pop()
        if x not in found:
            found.add(x)
            todo += [tuple((a + b) % 3 for a, b in zip(x, y)) for y in found]
            todo += [tuple(x[i] for i in m) for m in maps]
    return found


@given(st.lists(st.tuples(*[st.integers(-4, 4)] * 4), max_size=4),
       st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=2))
@example([(1, 2, 0, 0)], [(1, 2, 3, 0)])
def test_gf3_span_size_matches_enumeration(rows, maps):
    # entries outside 0..2 too: the routine reads them mod 3
    span = {tuple(x % 3 for x in v) for v in _span(rows, range(3), 0, 4)}
    assert _gf3_span_size(rows) == len(span)
    assert _gf3_span_size(rows, maps) == len(_closure(span, maps))


def _rank_over_q(matrix) -> int:
    """Rank by Gaussian elimination with Fraction pivots: a reference that
    shares nothing with row_basis."""
    rows = [[Fraction(x) for x in r] for r in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _realify(rows):
    # a + b*w becomes the block [[a, b], [-b, a - b]] of multiplication by it
    # on the Q-basis (1, w), so the rank over Q doubles the rank over Q(w)
    return [row for r in rows
            for row in ([c for x in r for c in (x.a, x.b)],
                        [c for x in r for c in (-x.b, x.a - x.b)])]


def test_row_basis_rank_over_q_omega(row_basis):
    rng = random.Random(5)

    def element():
        return EisensteinRational(rng.randint(-5, 5), rng.randint(-5, 5))

    for rank in range(5):
        # echelon rows with nonzero pivots are independent; the rest are
        # combinations of them
        independent = [[E_ZERO] * i + [OMEGA] + [element() for _ in range(4 - i)]
                       for i in range(rank)]
        dependent = []
        for _ in range(3):
            coeffs = [element() for _ in independent]
            dependent.append([sum((c * row[j] for c, row in zip(coeffs, independent)), E_ZERO)
                              for j in range(5)])
        rows = independent + dependent
        rng.shuffle(rows)
        assert len(row_basis(rows)) == rank
    H = h6()
    rows = [H.entries[6 * i:6 * i + 6] for i in range(6)]
    assert len(row_basis(rows)) == 6
    assert len(row_basis(rows[:3] + [tuple(x - OMEGA2 * y for x, y in zip(rows[0], rows[2]))])) == 3
    for _ in range(40):
        small = [[EisensteinRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(5)]
                 for _ in range(rng.randint(1, 4))]
        rows = list(small)
        for _ in range(rng.randint(0, 3)):
            coeffs = [EisensteinRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in small]
            rows.append([sum((c * row[j] for c, row in zip(coeffs, small)), E_ZERO)
                         for j in range(5)])
        rng.shuffle(rows)
        basis = row_basis(rows)
        assert 2 * len(basis) == _rank_over_q(_realify(rows))
        # distinct leads, and a basis fed back in first comes back unchanged
        leads = [next(i for i, x in enumerate(b) if x) for b in basis]
        assert len(set(leads)) == len(leads)
        assert row_basis(basis + rows)[:len(basis)] == basis


def _row_basis_unskipped(rows):
    """row_basis with every entry of a reduced row formed as p * x - c * y,
    zero or not."""
    basis, leads = [], []
    for row in rows:
        row = tuple(row)
        for b, lead in zip(basis, leads):
            c = row[lead]
            if c:
                p = b[lead]
                row = tuple(p * x - c * y for x, y in zip(row, b))
        if any(row):
            leads.append(next(i for i, x in enumerate(row) if x))
            basis.append(row)
    return basis


_SPARSE_RINGS = {
    "Z[w]": (lambda rng: EisensteinRational(rng.randint(-2, 2), rng.randint(-2, 2)), E_ZERO),
}


@pytest.mark.parametrize("ring", list(_SPARSE_RINGS))
def test_row_basis_matches_unskipped_cross_multiplication(ring, row_basis):
    # sparse systems, so that a row and a basis row often have zeros in the
    # same and in different places, under pivots other than 1
    element, zero = _SPARSE_RINGS[ring]
    rng = random.Random(24)
    for _ in range(60):
        rows = [tuple(element(rng) if rng.random() < 0.4 else zero for _ in range(8))
                for _ in range(rng.randint(1, 9))]
        assert row_basis(rows) == _row_basis_unskipped(rows)
