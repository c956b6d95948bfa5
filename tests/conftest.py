from functools import cache

import pytest
from hypothesis import settings

from hadamard6.eisenstein import OMEGA_POWERS, EisensteinRational, SplitQuaternion
from hadamard6.matrices import H6_PHASES, ExactMatrix
from hadamard6.monomial import MonomialBMatrix

# deterministic property-test runs; every checked property is a theorem, so
# repeatability matters more than fresh randomness per run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


# --- dense references --------------------------------------------------------
# The verifier builds no dense matrix: it moves exponent tables and unit
# tables.  These build the dense values that the tests compare those moves
# against.


def from_exponents(table) -> ExactMatrix:
    """The dense matrix of cube roots whose entry (i, j) is w^table[i][j]."""
    return ExactMatrix(len(table), len(table[0]), (OMEGA_POWERS[k] for row in table for k in row))


@cache
def h6() -> ExactMatrix:
    """The distinguished matrix H over Z[w]."""
    return from_exponents(H6_PHASES)


def identity(n: int, ring=EisensteinRational) -> ExactMatrix:
    one, zero = ring(1), ring(0)
    return ExactMatrix(n, n, (one if i == j else zero for i in range(n) for j in range(n)))


def entry(m: ExactMatrix, i: int, j: int):
    return m.entries[i * m.cols + j]


def dagger(m: ExactMatrix) -> ExactMatrix:
    """Conjugate transpose; defined over Q(w) only."""
    if m.ring is not EisensteinRational:
        raise ValueError("dagger is not defined for split-quaternion matrices")
    return ExactMatrix(m.cols, m.rows, (entry(m, i, j).conj() for j in range(m.cols) for i in range(m.rows)))


def scaled(m: ExactMatrix, c: int) -> ExactMatrix:
    """Scale by an integer, which is central in both rings."""
    s = EisensteinRational(c)
    return ExactMatrix(m.rows, m.cols, (e * s for e in m.entries))


def to_split_quaternion(m: ExactMatrix) -> ExactMatrix:
    if m.ring is SplitQuaternion:
        raise ValueError("matrix already has split-quaternion entries")
    return ExactMatrix(m.rows, m.cols, map(SplitQuaternion, m.entries))


def to_matrix(m) -> ExactMatrix:
    """The dense D*K of a monomial matrix of either kind: w^a over Z[w], or
    the unit w^a B^b over the split quaternions."""
    if isinstance(m, MonomialBMatrix):
        ring, units = SplitQuaternion, [SplitQuaternion.unit(*phase) for phase in m.phases]
    else:
        ring, units = EisensteinRational, [OMEGA_POWERS[a] for a in m.phases]
    n = m.degree
    entries = [ring()] * (n * n)
    for i, (u, j) in enumerate(zip(units, m.perm.images)):
        entries[i * n + j] = u
    return ExactMatrix(n, n, entries)


def dense_act(g, H: ExactMatrix) -> ExactMatrix:
    """H^g for g = (P, Q, eps) in X: P^-1 H Q by dense products, conjugated
    entrywise iff eps = 1."""
    m = to_matrix(g.p.inverse()) @ H @ to_matrix(g.q)
    return ExactMatrix(m.rows, m.cols, (x.conj() for x in m.entries)) if g.eps else m


@pytest.fixture
def dense_hadamard():
    """The dense reference for verify_prop1's exponent test: H dagger(H) = 6I
    exactly, over Q(w)."""
    return lambda H: H @ dagger(H) == scaled(identity(6), 6)


def _row_basis(rows) -> list[tuple]:
    """Echelon basis of the row span over an integral domain whose elements
    support ``-``, ``*`` and ``bool``; nothing is divided.

    Rows are taken in order; each is reduced against the basis rows before it
    and kept, as reduced, if anything nonzero is left.  Against a basis row b
    with leading position lead, a row with a nonzero entry c there becomes
    b[lead] * row - c * b, entry by entry.  b[lead] is nonzero, so this keeps
    the span over the field of fractions, and with it the rank; over a field
    it keeps the span itself.  Where b's entry is zero the new entry is
    b[lead] * x, and where both entries are zero the zero is kept, so zero
    entries cost no product.  The leading positions of the basis rows are
    distinct, and a basis fed back in as the first rows comes back unchanged,
    since such a row is zero at every earlier lead and is never touched.

    Unlike Bareiss's elimination (Math. Comp. 22, 1968) nothing is divided out
    afterwards, so over a general domain entries can grow with each
    cross-multiplication; the tests pass it only small systems.
    """
    basis: list[tuple] = []
    leads: list[int] = []
    for row in rows:
        row = tuple(row)
        for b, lead in zip(basis, leads):
            c = row[lead]
            if c:
                p = b[lead]
                row = tuple(p * x - c * y if y else p * x if x else x for x, y in zip(row, b))
        if any(row):
            leads.append(next(i for i, x in enumerate(row) if x))
            basis.append(row)
    return basis


@pytest.fixture
def row_basis():
    """Division-free elimination over Z[w]: the dense reference for the
    commutant's orbit count, and the routine the Z[w] rank tests check."""
    return _row_basis
