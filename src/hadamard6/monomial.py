"""Monomial matrices over third roots of unity, and over the units w^a * B^b
of the split quaternions.

A monomial matrix is stored in its unique factorisation D*K: D diagonal with
unit entries (kept as exponents), K the permutation matrix with K[i][j] = 1
iff j = i^sigma, i.e. sigma permutes the columns of the identity as a right
action.  With that convention

    (d1, s1) * (d2, s2) = (d1 + d2 o s1, s1 s2),   (d2 o s1)[r] = d2[r^s1]

and the permutation parts multiply exactly like the matrices do.  Text format:
"[e1,...,en]" followed by the cycles of K ("[1,w,w2,1,1,1](1,2)"); the B-form
entries append a B suffix, so the unit w^a * B prints as "wB", "w2B" or "B".
"""

from __future__ import annotations

from .eisenstein import (
    E_ZERO,
    OMEGA_POWERS,
    SQ_ZERO,
    EisensteinRational,
    SplitQuaternion,
)
from .matrices import ExactMatrix
from .perms import Permutation

_ENTRY_NAMES = {0: "1", 1: "w", 2: "w2"}
_ENTRY_VALUES = {"1": 0, "w": 1, "w2": 2}


class MonomialMatrix:
    """D*K with D = diag(w^phases) and K the permutation matrix of perm."""

    __slots__ = ("phases", "perm")

    def __init__(self, phases, perm: Permutation):
        phases = tuple(p % 3 for p in phases)
        if len(phases) != perm.degree:
            raise ValueError("phase vector length does not match degree")
        self.phases = phases
        self.perm = perm

    @classmethod
    def identity(cls, n: int) -> "MonomialMatrix":
        return cls((0,) * n, Permutation.identity(n))

    @classmethod
    def diagonal(cls, phases) -> "MonomialMatrix":
        phases = tuple(phases)
        return cls(phases, Permutation.identity(len(phases)))

    @classmethod
    def parse(cls, text: str, degree: int) -> "MonomialMatrix":
        text = text.strip()
        if not text.startswith("["):
            raise ValueError(f"malformed monomial text: {text!r}")
        close = text.index("]")
        names = [t.strip() for t in text[1:close].split(",")]
        if len(names) != degree:
            raise ValueError("wrong number of diagonal entries")
        try:
            phases = tuple(_ENTRY_VALUES[n] for n in names)
        except KeyError as exc:
            raise ValueError(f"unknown diagonal entry {exc.args[0]!r}") from None
        rest = text[close + 1 :].strip()
        perm = Permutation.identity(degree) if not rest else Permutation.parse(rest, degree)
        return cls(phases, perm)

    @property
    def degree(self) -> int:
        return len(self.phases)

    def __mul__(self, other):
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        s1 = self.perm.images
        d2 = other.phases
        phases = tuple((d1 + d2[s1[r]]) % 3 for r, d1 in enumerate(self.phases))
        return MonomialMatrix(phases, self.perm * other.perm)

    def inverse(self) -> "MonomialMatrix":
        inv = self.perm.inverse()
        ii = inv.images
        phases = tuple((-self.phases[ii[r]]) % 3 for r in range(self.degree))
        return MonomialMatrix(phases, inv)

    def pi(self) -> Permutation:
        """The permutation part K; P -> K is a homomorphism."""
        return self.perm

    def to_matrix(self) -> ExactMatrix:
        n = self.degree
        entries = [E_ZERO] * (n * n)
        img = self.perm.images
        for i in range(n):
            entries[i * n + img[i]] = OMEGA_POWERS[self.phases[i]]
        return ExactMatrix._raw(n, n, tuple(entries), EisensteinRational)

    def det(self) -> EisensteinRational:
        val = OMEGA_POWERS[sum(self.phases) % 3]
        return val if self.perm.sign() == 1 else -val

    def is_identity(self) -> bool:
        return all(p == 0 for p in self.phases) and self.perm.is_identity()

    def __eq__(self, other):
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        return self.phases == other.phases and self.perm == other.perm

    def __hash__(self):
        return hash((self.phases, self.perm.images))

    def __str__(self):
        diag = ",".join(_ENTRY_NAMES[p] for p in self.phases)
        cyc = "" if self.perm.is_identity() else str(self.perm)
        return f"[{diag}]{cyc}"

    def __repr__(self):
        return f"MonomialMatrix.parse({str(self)!r}, {self.degree})"


class MonomialBMatrix:
    """Monomial matrix with unit entries w^a * B^b; same D*K convention.

    Entry units multiply by w^a B^b * w^c B^d = w^(a + (-1)^b c) B^(b+d).
    """

    __slots__ = ("phases", "perm")

    def __init__(self, phases, perm: Permutation):
        phases = tuple((a % 3, b % 2) for a, b in phases)
        if len(phases) != perm.degree:
            raise ValueError("phase vector length does not match degree")
        self.phases = phases
        self.perm = perm

    @classmethod
    def identity(cls, n: int) -> "MonomialBMatrix":
        return cls(((0, 0),) * n, Permutation.identity(n))

    @classmethod
    def from_monomial(cls, m: MonomialMatrix, with_beta: bool) -> "MonomialBMatrix":
        """m itself, or m * (B I); K commutes with the scalar B."""
        b = 1 if with_beta else 0
        return cls(tuple((a, b) for a in m.phases), m.perm)

    @property
    def degree(self) -> int:
        return len(self.phases)

    def __mul__(self, other):
        if not isinstance(other, MonomialBMatrix):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        s1 = self.perm.images
        d2 = other.phases
        phases = []
        for r, (a1, b1) in enumerate(self.phases):
            a2, b2 = d2[s1[r]]
            a = (a1 + (a2 if b1 == 0 else -a2)) % 3
            phases.append((a, (b1 + b2) % 2))
        return MonomialBMatrix(tuple(phases), self.perm * other.perm)

    def inverse(self) -> "MonomialBMatrix":
        inv = self.perm.inverse()  # w^a inverts to w^-a; w^a B is an involution
        phases = map(self.phases.__getitem__, inv.images)
        return MonomialBMatrix(tuple((a if b else -a, b) for a, b in phases), inv)

    def to_matrix(self) -> ExactMatrix:
        n = self.degree
        entries = [SQ_ZERO] * (n * n)
        img = self.perm.images
        for i in range(n):
            a, b = self.phases[i]
            entries[i * n + img[i]] = SplitQuaternion.unit(a, b)
        return ExactMatrix._raw(n, n, tuple(entries), SplitQuaternion)

    def is_identity(self) -> bool:
        return all(p == (0, 0) for p in self.phases) and self.perm.is_identity()

    def __eq__(self, other):
        if not isinstance(other, MonomialBMatrix):
            return NotImplemented
        return self.phases == other.phases and self.perm == other.perm

    def __hash__(self):
        return hash((self.phases, self.perm.images))

    def __str__(self):
        names = []
        for a, b in self.phases:
            if b == 0:
                names.append(_ENTRY_NAMES[a])
            else:
                names.append("B" if a == 0 else _ENTRY_NAMES[a] + "B")
        cyc = "" if self.perm.is_identity() else str(self.perm)
        return f"[{','.join(names)}]{cyc}"

    def __repr__(self):
        return f"<MonomialBMatrix {self}>"
