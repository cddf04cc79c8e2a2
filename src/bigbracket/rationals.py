"""Exact Gaussian-rational scalars, the coefficient field of the whole engine.

Every identity we verify is polynomial with rational or imaginary-rational
coefficients, so all arithmetic is exact; no floats enter the kernel.  A
scalar (p + q*i)/d is three ints in lowest terms (d > 0, gcd(p, q, d) == 1,
zero is (0, 0, 1)): equal scalars have equal triples, and an operation is a
few int products and one gcd.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


_FRACTION_ZERO = Fraction(0)
_new = object.__new__


class GaussianRational:
    """A number a + b*i with exact rational a, b and i^2 = -1, kept as (p + q*i)/d.

    `re` and `im` are read-only Fraction views; a zero part is one shared
    `Fraction(0)`.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, re=0, im=0):
        re = re if isinstance(re, (int, Fraction)) else Fraction(re)
        im = im if isinstance(im, (int, Fraction)) else Fraction(im)
        a, b = re.denominator, im.denominator
        g = gcd(a, b)
        self.p, self.q, self.d = re.numerator * (b // g), im.numerator * (a // g), a // g * b

    @property
    def re(self) -> Fraction:
        return Fraction(self.p, self.d) if self.p else _FRACTION_ZERO

    @property
    def im(self) -> Fraction:
        return Fraction(self.q, self.d) if self.q else _FRACTION_ZERO

    # -- constructors ------------------------------------------------------

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        d, f = self.d, o.d
        if d == f:
            return _reduced(self.p + o.p, self.q + o.q, d)
        return _reduced(self.p * f + o.p * d, self.q * f + o.q * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        z = _new(GaussianRational)
        z.p, z.q, z.d = -self.p, -self.q, self.d
        return z

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        d, f = self.d, o.d
        if d == f:
            return _reduced(self.p - o.p, self.q - o.q, d)
        return _reduced(self.p * f - o.p * d, self.q * f - o.q * d, d * f)

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        a, b, c, e = self.p, self.q, o.p, o.q
        if not b and not e:
            return _reduced(a * c, 0, self.d * o.d)
        return _reduced(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        return _quotient(self.p, self.q, self.d, o)

    def __rtruediv__(self, other):
        if type(other) is int:
            return _quotient(other, 0, 1, self)
        return GaussianRational.coerce(other) / self

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return self.p == other.p and self.q == other.q and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.q and self.p == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the equal int or Fraction, which == accepts
        if not self.q:
            return hash(self.p) if self.d == 1 else hash(Fraction(self.p, self.d))
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def _reduced(p, q, d):
    """The scalar (p + q*i)/d, for d > 0, in lowest terms."""
    z = _new(GaussianRational)
    g = gcd(p, q, d)
    if g == 1:
        z.p, z.q, z.d = p, q, d
    else:
        z.p, z.q, z.d = p // g, q // g, d // g
    return z


def _quotient(a, b, d, o):
    """(a + b*i)/d divided by the scalar o."""
    c, e, f = o.p, o.q, o.d
    if not e:
        if not c:
            raise ZeroDivisionError("division by zero Gaussian rational")
        if c < 0:
            c, f = -c, -f
        return _reduced(a * f, b * f, d * c)
    return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def _part(n, d) -> str:
    """The rational n/d as Fraction prints it."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def format_scalar(z: GaussianRational) -> str:
    """Deterministic text form: rationals as p/q, imaginary unit as i."""
    p, q, d = z.p, z.q, z.d
    if not q:
        return _part(p, d)
    unit = "i" if abs(q) == d else f"{_part(abs(q), d)}*i"
    if not p:
        return unit if q > 0 else f"-{unit}"
    return f"({_part(p, d)}{'+' if q > 0 else '-'}{unit})"
