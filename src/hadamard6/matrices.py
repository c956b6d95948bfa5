"""Dense matrices over an exact ring (Z[w] or the split quaternions over it).

Matrices are immutable, row-major, and hashable through their canonical
entry forms; equality is entrywise exact.  Indices are 0-based in code and
1-based only in text/JSON surfaces.
"""

from __future__ import annotations

from functools import cache

from .eisenstein import OMEGA_POWERS, EisensteinRational, SplitQuaternion

_RINGS = (EisensteinRational, SplitQuaternion)


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries", "ring")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        if not entries:
            raise ValueError("empty matrix")
        ring = type(entries[0])
        if ring not in _RINGS:
            raise ValueError(f"unsupported entry type {ring.__name__}")
        if any(type(e) is not ring for e in entries):
            raise ValueError("mixed entry rings")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.ring = ring

    @classmethod
    def identity(cls, n: int, ring=EisensteinRational) -> "ExactMatrix":
        one, zero = ring(1), ring(0)
        return cls(n, n, (one if i == j else zero for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        if self.ring is not other.ring:
            raise ValueError("ring mismatch")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        zero = self.ring(0)
        out = []
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for j in range(m):
                acc = zero
                for t in range(k):
                    x = arow[t]
                    y = b[t * m + j]
                    if not x or not y:
                        continue
                    acc = acc + x * y
                out.append(acc)
        return ExactMatrix(n, m, out)

    def dagger(self) -> "ExactMatrix":
        """Conjugate transpose; defined over Q(w) only."""
        if self.ring is not EisensteinRational:
            raise ValueError("dagger is not defined for split-quaternion matrices")
        e = self.entries
        out = tuple(e[i * self.cols + j].conj() for j in range(self.cols) for i in range(self.rows))
        return ExactMatrix(self.cols, self.rows, out)

    def scaled(self, c: int) -> "ExactMatrix":
        """Scale by an integer, which is central in both rings."""
        if not isinstance(c, int):
            raise TypeError("scale factor must be int")
        s = EisensteinRational(c)
        return ExactMatrix(self.rows, self.cols, (e * s for e in self.entries))

    def to_split_quaternion(self) -> "ExactMatrix":
        if self.ring is SplitQuaternion:
            raise ValueError("matrix already has split-quaternion entries")
        out = tuple(SplitQuaternion.from_complex(e) for e in self.entries)
        return ExactMatrix(self.rows, self.cols, out)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.ring is other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"ExactMatrix({self.rows}, {self.cols}, <{self.ring.__name__} entries>)"

    def __str__(self):
        return "\n".join(" ".join(str(self.entry(i, j)) for j in range(self.cols)) for i in range(self.rows))


def row_basis(rows) -> list[tuple]:
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
    cross-multiplication; verify passes it only GF(3) and GF(4) rows.
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


# The distinguished 6x6 matrix: symmetric, first row and column all ones,
# trailing 5x5 block circulant with first row (1, w, w2, w2, w).
H6_PHASES = (
    (0, 0, 0, 0, 0, 0),
    (0, 0, 1, 2, 2, 1),
    (0, 1, 0, 1, 2, 2),
    (0, 2, 1, 0, 1, 2),
    (0, 2, 2, 1, 0, 1),
    (0, 1, 2, 2, 1, 0),
)


def orthogonal_exponents(a, b) -> bool:
    """Whether rows of cube roots with exponent vectors a and b are
    orthogonal.  Their inner product sum w^(a_k - b_k) is c0 + c1 w + c2 w^2,
    with c_r the number of k where a_k - b_k = r mod 3, and since
    1 + w + w^2 = 0 and 1, w are independent over Q it is 0 exactly when
    c0 = c1 = c2 (Butson, Proc. AMS 13, 1962)."""
    d = [(x - y) % 3 for x, y in zip(a, b)]
    return d.count(0) == d.count(1) == d.count(2)


@cache
def h6() -> ExactMatrix:
    entries = tuple(OMEGA_POWERS[k] for row in H6_PHASES for k in row)
    return ExactMatrix(6, 6, entries)
