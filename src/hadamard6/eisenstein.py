"""Exact arithmetic in Q(w), w a primitive complex cube root of unity, and in
the split-quaternion elements z + v*B with z, v in Q(w).

The defining relations are

    w^2 = -1 - w          (so w^3 = 1 and 1 + w + w^2 = 0)
    B^2 = 1,  B*u = conj(u)*B   for every u in Q(w)

from which the multiplication law of the B-extension follows once and is
frozen in the unit tests:

    (z1 + v1*B)(z2 + v2*B) = (z1*z2 + v1*conj(v2)) + (z1*v2 + v1*conj(z2))*B

Values are immutable and hashable.  In canonical form each component is an
exact int when it is integral and otherwise a Fraction in lowest terms (never
one with denominator 1), so integral arithmetic stays on machine integers and
only inverse() divides.  A value with zero w-part (or B-part) equals and
hashes like its rational (or complex) part.

Printing puts B on the right: the element obtained by multiplying B by w on the
right prints as it is stored, while "B then w" in left-to-right reading order
equals w2*B here.
"""

from __future__ import annotations

from fractions import Fraction

_RAT = (int, Fraction)


def _rational(x):
    """x in canonical form: int if integral, else a reduced Fraction."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError("components must be int or Fraction")


class EisensteinRational:
    """a + b*w with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if type(a) is int else _rational(a)
        self.b = b if type(b) is int else _rational(b)

    @classmethod
    def zero(cls) -> "EisensteinRational":
        return E_ZERO

    @classmethod
    def one(cls) -> "EisensteinRational":
        return E_ONE

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

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def inverse(self) -> "EisensteinRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        # Fraction, not /: int / int would be a float
        return EisensteinRational(Fraction(self.a - self.b, n), Fraction(-self.b, n))

    def conj(self) -> "EisensteinRational":
        """Complex conjugation, w -> w^2."""
        return EisensteinRational(self.a - self.b, -self.b)

    def norm(self) -> int | Fraction:
        """x * conj(x) as a rational: an int when both components are ints;
        zero only for x = 0."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def times_omega_pow(self, k: int) -> "EisensteinRational":
        k %= 3
        if k == 0:
            return self
        a, b = self.a, self.b
        if k == 1:
            return EisensteinRational(-b, a - b)
        return EisensteinRational(b - a, -a)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # equal to a rational number -> hash like it (eq/hash contract)
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
    if isinstance(x, _RAT):
        return EisensteinRational(x)
    return NotImplemented


E_ZERO = EisensteinRational(0)
E_ONE = EisensteinRational(1)
OMEGA = EisensteinRational(0, 1)
OMEGA2 = EisensteinRational(-1, -1)
OMEGA_POWERS = (E_ONE, OMEGA, OMEGA2)


class SplitQuaternion:
    """z + v*B with z, v in Q(w); B^2 = 1 and B inverts the complex subfield."""

    __slots__ = ("z", "v")

    def __init__(self, z=0, v=0):
        self.z = z if isinstance(z, EisensteinRational) else EisensteinRational(z)
        self.v = v if isinstance(v, EisensteinRational) else EisensteinRational(v)

    @classmethod
    def from_complex(cls, z: EisensteinRational) -> "SplitQuaternion":
        return cls(z, E_ZERO)

    @classmethod
    def unit(cls, a: int, b: int) -> "SplitQuaternion":
        """The unit w^a * B^b."""
        z = OMEGA_POWERS[a % 3]
        return cls(z, E_ZERO) if b % 2 == 0 else cls(E_ZERO, z)

    @classmethod
    def zero(cls) -> "SplitQuaternion":
        return SQ_ZERO

    @classmethod
    def one(cls) -> "SplitQuaternion":
        return SQ_ONE

    def __add__(self, other):
        if not isinstance(other, SplitQuaternion):
            return NotImplemented
        return SplitQuaternion(self.z + other.z, self.v + other.v)

    def __neg__(self):
        return SplitQuaternion(-self.z, -self.v)

    def __sub__(self, other):
        if not isinstance(other, SplitQuaternion):
            return NotImplemented
        return SplitQuaternion(self.z - other.z, self.v - other.v)

    def __mul__(self, other):
        if isinstance(other, (EisensteinRational, int, Fraction)):
            other = SplitQuaternion(other)
        if not isinstance(other, SplitQuaternion):
            return NotImplemented
        z1, v1, z2, v2 = self.z, self.v, other.z, other.v
        return SplitQuaternion(z1 * z2 + v1 * v2.conj(), z1 * v2 + v1 * z2.conj())

    def __rmul__(self, other):
        if isinstance(other, (EisensteinRational, int, Fraction)):
            return SplitQuaternion(other) * self
        return NotImplemented

    def __bool__(self):
        return bool(self.z) or bool(self.v)

    def __eq__(self, other):
        if isinstance(other, (EisensteinRational, int, Fraction)):
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
