"""Permutations on n <= 256 points with cycle-notation I/O.

Right action throughout: i^(g*h) = (i^g)^h, so g*h means "apply g, then h".
Points are 0-based internally; cycle notation is 1-based at the text boundary.
Printing uses disjoint cycles ordered by smallest moved point, fixed points
omitted, identity printed as "id"; parse(str(g)) == g.

The images are a bytes object of length n, so a product is one
bytes.translate call (a's images looked up in b's, padded to a 256-byte
table) and an inverse is one bytes.maketrans call; both fill the slot of a
bare object.__new__ instance, skipping __init__'s bijection check.
"""

from __future__ import annotations

import re

_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)", re.ASCII)
# what \s matches under re.ASCII; str.isspace and str.strip() also take
# Unicode spaces, which _CYCLE_RE rejects inside a cycle
_SPACE = " \t\n\r\f\v"
_IDENT = bytes(range(256))
_new = object.__new__


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images):
        # tuple() rejects an int, which bytes() would read as a length
        images = bytes(tuple(images))
        if sorted(images) != list(range(len(images))):
            raise ValueError("images do not form a bijection of 0..n-1")
        self.images = images

    @classmethod
    def _raw(cls, images) -> "Permutation":
        # trusted internal path: skips the bijection check
        p = _new(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if not 0 <= n <= 256:
            raise ValueError(f"degree {n} out of range 0..256")
        return cls._raw(_IDENT[:n])

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse "id" or a product of cycles like "(1,2)(3,6)(4,5)"."""
        text = text.strip(_SPACE)
        if text == "id":
            return cls.identity(degree)
        pos = 0
        img = list(range(degree))
        seen = set()
        matched_any = False
        while pos < len(text):
            if text[pos] in _SPACE:
                pos += 1
                continue
            m = _CYCLE_RE.match(text, pos)
            if m is None:
                raise ValueError(f"malformed cycle notation: {text!r}")
            matched_any = True
            points = [int(t) for t in m.group(1).split(",")]
            for p in points:
                if not 1 <= p <= degree:
                    raise ValueError(f"point {p} out of range 1..{degree}")
                if p in seen:
                    raise ValueError(f"point {p} repeated in {text!r}")
                seen.add(p)
            for a, b in zip(points, points[1:] + points[:1]):
                img[a - 1] = b - 1
            pos = m.end()
        if not matched_any:
            raise ValueError(f"malformed cycle notation: {text!r}")
        return cls(img)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        a = self.images
        b = other.images
        if len(a) != len(b):
            raise ValueError("degree mismatch")
        p = _new(Permutation)
        p.images = a.translate(b + _IDENT[len(a):])
        return p

    def inverse(self) -> "Permutation":
        a = self.images
        p = _new(Permutation)
        p.images = a.maketrans(a, _IDENT[: len(a)])[: len(a)]
        return p

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(len(self.images))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return self.images == _IDENT[: len(self.images)]

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles as 1-based tuples, fixed points omitted."""
        n = len(self.images)
        seen = [False] * n
        out = []
        for i in range(n):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(p + 1 for p in cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths, fixed points included as 1s, sorted descending."""
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (len(self.images) - sum(lengths))
        return tuple(sorted(lengths, reverse=True))

    def min_moved(self):
        for i, j in enumerate(self.images):
            if i != j:
                return i
        return None

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __str__(self):
        cyc = self.cycles()
        if not cyc:
            return "id"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cyc)

    def __repr__(self):
        return f"Permutation.parse({str(self)!r}, {len(self.images)})"
