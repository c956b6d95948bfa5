"""Exact arithmetic in the Eisenstein integers Z[w], w a primitive complex cube
root of unity, and in the split-quaternion elements z + v*B with z, v in Z[w].

The defining relations are

    w^2 = -1 - w          (so w^3 = 1 and 1 + w + w^2 = 0)
    B^2 = 1,  B*u = conj(u)*B   for every u in Z[w]

from which the multiplication law of the B-extension follows once and is
frozen in the unit tests:

    (z1 + v1*B)(z2 + v2*B) = (z1*z2 + v1*conj(v2)) + (z1*v2 + v1*conj(z2))*B

Values are immutable and hashable.  Both components are exact ints: every
value the verifier needs lies in Z[w], and nothing here divides.  A value with
zero w-part (or B-part) equals and hashes like its integer (or complex) part.

Printing puts B on the right: the element obtained by multiplying B by w on the
right prints as it is stored, while "B then w" in left-to-right reading order
equals w2*B here.
"""

from __future__ import annotations


def _integer(x) -> int:
    """x as an exact int (a bool becomes one); anything else is rejected."""
    if isinstance(x, int):
        return int(x)
    raise TypeError("components must be int")


class EisensteinRational:
    """a + b*w with integer a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if type(a) is int else _integer(a)
        self.b = b if type(b) is int else _integer(b)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return EisensteinRational(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return EisensteinRational(-self.a, -self.b)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return EisensteinRational(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        # (a1 + b1 w)(a2 + b2 w) with w^2 = -1 - w
        return EisensteinRational(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)

    __rmul__ = __mul__

    def conj(self) -> "EisensteinRational":
        """Complex conjugation, w -> w^2."""
        return EisensteinRational(self.a - self.b, -self.b)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # equal to an integer -> hash like it (eq/hash contract)
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __repr__(self):
        return f"EisensteinRational({self.a!r}, {self.b!r})"

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if b == 1:
            w = "w"
        elif b == -1:
            w = "-w"
        else:
            w = f"{b}*w"
        if a == 0:
            return w
        sign = "+" if not w.startswith("-") else ""
        return f"{a}{sign}{w}"


def _coerce(x):
    if isinstance(x, EisensteinRational):
        return x
    if isinstance(x, int):
        return EisensteinRational(x)
    return NotImplemented


E_ZERO = EisensteinRational(0)
E_ONE = EisensteinRational(1)
OMEGA = EisensteinRational(0, 1)
OMEGA2 = EisensteinRational(-1, -1)
OMEGA_POWERS = (E_ONE, OMEGA, OMEGA2)


class SplitQuaternion:
    """z + v*B with z, v in Z[w]; B^2 = 1 and B inverts the complex subring."""

    __slots__ = ("z", "v")

    def __init__(self, z=E_ZERO, v=E_ZERO):
        self.z = z if isinstance(z, EisensteinRational) else EisensteinRational(z)
        self.v = v if isinstance(v, EisensteinRational) else EisensteinRational(v)

    @classmethod
    def unit(cls, a: int, b: int) -> "SplitQuaternion":
        """The unit w^a * B^b."""
        z = OMEGA_POWERS[a % 3]
        return cls(z, E_ZERO) if b % 2 == 0 else cls(E_ZERO, z)

    def __add__(self, other):
        if not isinstance(other, SplitQuaternion):
            return NotImplemented
        return SplitQuaternion(self.z + other.z, self.v + other.v)

    def __mul__(self, other):
        if isinstance(other, (EisensteinRational, int)):
            other = SplitQuaternion(other)
        if not isinstance(other, SplitQuaternion):
            return NotImplemented
        z1, v1, z2, v2 = self.z, self.v, other.z, other.v
        return SplitQuaternion(z1 * z2 + v1 * v2.conj(), z1 * v2 + v1 * z2.conj())

    def __bool__(self):
        return bool(self.z) or bool(self.v)

    def __eq__(self, other):
        if isinstance(other, (EisensteinRational, int)):
            other = SplitQuaternion(other)
        if not isinstance(other, SplitQuaternion):
            return NotImplemented
        return self.z == other.z and self.v == other.v

    def __hash__(self):
        return hash((self.z, self.v)) if self.v else hash(self.z)

    def __repr__(self):
        return f"SplitQuaternion({self.z!r}, {self.v!r})"

    def __str__(self):
        return f"({self.z})+({self.v})*B"


SQ_ZERO = SplitQuaternion(E_ZERO, E_ZERO)
SQ_ONE = SplitQuaternion(E_ONE, E_ZERO)
BETA = SplitQuaternion(E_ZERO, E_ONE)
