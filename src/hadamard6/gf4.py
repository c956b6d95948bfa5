"""GF(4) arithmetic and the length-6 code spanned by the Hadamard rows.

Elements are the codes 0, 1, 2, 3 for 0, 1, x, x2 with x2 = x + 1; addition
is XOR and multiplication comes from a table.  A code word is one int with
coordinate i in bits 2i, 2i + 1, so a sum of words is XOR too.  The row span
of the Hadamard matrix under 1 -> 1, w -> x, w2 -> x2 is a (6, 3, 4) code;
every puncturing drops it to (5, 3, 3).
"""

from __future__ import annotations

from collections import Counter
from functools import cache

from .matrices import H6_PHASES

_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


class LinearCode:
    """Linear code over GF(4) spanned by rows of codes 0..3, kept as the set
    of its words."""

    def __init__(self, length: int, rows):
        self.length = length
        self.rows = rows = [tuple(r) for r in rows]
        words = {0}
        for r in rows:
            if len(r) != length or not all(v in (0, 1, 2, 3) for v in r):
                raise ValueError(f"not a row of {length} GF(4) codes 0..3: {r}")
            scaled = [sum(_MUL[c][v] << 2 * i for i, v in enumerate(r)) for c in range(4)]
            if scaled[1] not in words:  # otherwise r adds nothing to the span
                words = {w ^ s for w in words for s in scaled}
        self.words = words

    @property
    def dimension(self) -> int:
        return (len(self.words).bit_length() - 1) // 2

    def min_distance(self) -> int:
        if self.dimension == 0:
            raise ValueError("the zero code has no minimum distance")
        return min(filter(None, self.weight_distribution()))

    def weight_distribution(self) -> dict[int, int]:
        low = (4**self.length - 1) // 3  # the low bit of every coordinate
        return dict(sorted(Counter(((w | w >> 1) & low).bit_count() for w in self.words).items()))

    def parameters(self) -> tuple[int, int, int]:
        return (self.length, self.dimension, self.min_distance())

    def puncture(self, coord: int) -> "LinearCode":
        """Delete the given coordinate (1-based)."""
        if not 1 <= coord <= self.length:
            raise ValueError(f"coordinate {coord} out of range 1..{self.length}")
        i = coord - 1
        return LinearCode(self.length - 1, [r[:i] + r[i + 1 :] for r in self.rows])


@cache
def h6_code(alternate_generator: bool = False) -> LinearCode:
    """The code spanned by the Hadamard rows; w maps to x (or to x2 with
    alternate_generator, which gives an equivalent code)."""
    table = (1, 3, 2) if alternate_generator else (1, 2, 3)
    return LinearCode(6, [tuple(table[k] for k in row) for row in H6_PHASES])


def verify_codes():
    from .report import Report, check

    code = h6_code()
    punctures_ok = all(code.puncture(c).parameters() == (5, 3, 3) for c in range(1, 7))
    clauses = [
        check("parameters", "the Hadamard row span is a (6, 3, 4) code", (6, 3, 4), code.parameters()),
        check("codewords", "it has 4^3 codewords", 64, len(code.words)),
        check("punctures", "all six punctures have parameters (5, 3, 3)", True, punctures_ok),
        check("generator_choice", "both unit identifications give equal parameters",
              code.parameters(), h6_code(alternate_generator=True).parameters()),
    ]
    return Report("codes", clauses)
