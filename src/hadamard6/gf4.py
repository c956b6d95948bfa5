"""GF(4) arithmetic and the length-6 code spanned by the Hadamard rows.

Elements are 0, 1, x, x2 with x2 = x + 1; addition is XOR on the 2-bit
encoding 0, 1, 2, 3 and multiplication comes from a table.  The row span of
the Hadamard matrix under 1 -> 1, w -> x, w2 -> x2 is a (6, 3, 4) code; every
puncturing drops it to (5, 3, 3).
"""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property

from .matrices import H6_PHASES, row_basis

_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)
_NAMES = ("0", "1", "x", "x2")


class GF4:
    __slots__ = ("value",)

    def __init__(self, value: int):
        if value not in (0, 1, 2, 3):
            raise ValueError("GF(4) values are 0..3")
        self.value = value

    def __add__(self, other: "GF4") -> "GF4":
        return GF4(self.value ^ other.value)

    __sub__ = __add__

    def __mul__(self, other: "GF4") -> "GF4":
        return GF4(_MUL[self.value][other.value])

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if not isinstance(other, GF4):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"GF4(value={self.value!r})"

    def __str__(self):
        return _NAMES[self.value]


GF4_ZERO, GF4_ONE, GF4_X, GF4_X2 = GF4(0), GF4(1), GF4(2), GF4(3)
GF4_ALL = (GF4_ZERO, GF4_ONE, GF4_X, GF4_X2)


def _span(basis) -> list[int]:
    """The span of basis in product(GF4_ALL, repeat=k)'s coefficient order, as
    ints with coordinate i in bits 2i, 2i + 1, so a sum of words is XOR."""
    words = [0]
    for row in basis:
        scaled = [sum(_MUL[c][v.value] << 2 * i for i, v in enumerate(row)) for c in range(4)]
        words = [w ^ r for w in words for r in scaled]
    return words


class LinearCode:
    """Linear code over GF(4) given by generator rows (reduced internally),
    whose words _span enumerates once, as ints, on first use."""

    def __init__(self, length: int, rows):
        rows = [tuple(r) for r in rows]
        if any(len(r) != length for r in rows):
            raise ValueError("row length mismatch")
        self.length = length
        self.basis = row_basis(rows)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def _words(self) -> list[int]:
        return _span(self.basis)

    def codewords(self):
        for w in self._words:
            yield tuple(GF4_ALL[w >> 2 * i & 3] for i in range(self.length))

    def min_distance(self) -> int:
        if self.dimension == 0:
            raise ValueError("the zero code has no minimum distance")
        return min(filter(None, self.weight_distribution()))

    def weight_distribution(self) -> dict[int, int]:
        low = (4**self.length - 1) // 3  # the low bit of every coordinate
        return dict(sorted(Counter(((w | w >> 1) & low).bit_count() for w in self._words).items()))

    def parameters(self) -> tuple[int, int, int]:
        return (self.length, self.dimension, self.min_distance())

    def puncture(self, coord: int) -> "LinearCode":
        """Delete the given coordinate (1-based)."""
        if not 1 <= coord <= self.length:
            raise ValueError(f"coordinate {coord} out of range 1..{self.length}")
        i = coord - 1
        rows = [r[:i] + r[i + 1 :] for r in self.basis]
        return LinearCode(self.length - 1, rows)


_PHASE_TO_GF4 = {0: GF4_ONE, 1: GF4_X, 2: GF4_X2}
_PHASE_TO_GF4_ALT = {0: GF4_ONE, 1: GF4_X2, 2: GF4_X}


@cache
def h6_code(alternate_generator: bool = False) -> LinearCode:
    """The code spanned by the Hadamard rows; w maps to x (or to x2 with
    alternate_generator, which gives an equivalent code)."""
    table = _PHASE_TO_GF4_ALT if alternate_generator else _PHASE_TO_GF4
    rows = [tuple(table[k] for k in row) for row in H6_PHASES]
    return LinearCode(6, rows)


def verify_codes():
    from .report import Report, check

    code = h6_code()
    punctures_ok = all(code.puncture(c).parameters() == (5, 3, 3) for c in range(1, 7))
    clauses = [
        check("parameters", "the Hadamard row span is a (6, 3, 4) code", (6, 3, 4), code.parameters()),
        check("codewords", "it has 4^3 codewords", 64, sum(1 for _ in code.codewords())),
        check("punctures", "all six punctures have parameters (5, 3, 3)", True, punctures_ok),
        check("generator_choice", "both unit identifications give equal parameters",
              code.parameters(), h6_code(alternate_generator=True).parameters()),
    ]
    return Report("codes", clauses)
