"""The distinguished matrix H as its exponent table H6_PHASES, the
exponent-row orthogonality test, and dense matrices over Z[w] or over the
split quaternions.  No command builds a dense matrix: ExactMatrix is the
tests' dense reference, and the benchmark tracer times its product by name.

Matrices are immutable, row-major, and hashable through their canonical
entry forms; equality is entrywise exact.  Indices are 0-based in code and
1-based only in text/JSON surfaces.
"""

from __future__ import annotations

from .eisenstein import EisensteinRational, SplitQuaternion

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
        c, e = self.cols, self.entries
        return "\n".join(" ".join(map(str, e[k:k + c])) for k in range(0, len(e), c))


# The distinguished 6x6 matrix H as its exponent table: entry (i, j) of H is
# w^H6_PHASES[i][j].  H is symmetric, its first row and column are all ones,
# and its trailing 5x5 block is circulant with first row (1, w, w2, w2, w).
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
