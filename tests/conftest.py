import pytest
from hypothesis import settings

from hadamard6.matrices import ExactMatrix

# deterministic property-test runs; every checked property is a theorem, so
# repeatability matters more than fresh randomness per run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def dense_hadamard():
    """The dense reference for verify_prop1's exponent test: H dagger(H) = 6I
    exactly, over Q(w)."""
    return lambda H: H @ H.dagger() == ExactMatrix.identity(6).scaled(6)


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
