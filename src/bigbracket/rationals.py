"""Exact Gaussian-rational scalars, the coefficient field of the whole engine.

Every identity we verify is polynomial with rational or imaginary-rational
coefficients, so all arithmetic is exact; no floats enter the kernel.
"""
from __future__ import annotations

from fractions import Fraction


_FRACTION_ZERO = Fraction(0)


class GaussianRational:
    """A number a + b*i with exact rational a, b and i^2 = -1.

    An operation on real operands computes the real part only, and a part
    left out is one shared `Fraction(0)`.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=_FRACTION_ZERO, im=_FRACTION_ZERO):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

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
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        if not self.im and not other.im:
            return GaussianRational(self.re + other.re)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        if not self.im:
            return GaussianRational(-self.re)
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        if not self.im and not other.im:
            return GaussianRational(self.re - other.re)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero Gaussian rational")
            if not self.im:
                return GaussianRational(self.re / other.re)
            return GaussianRational(self.re / other.re, self.im / other.re)
        n = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def format_scalar(z: GaussianRational) -> str:
    """Deterministic text form: rationals as p/q, imaginary unit as i."""
    if z.is_zero():
        return "0"
    if not z.im:
        return str(z.re)
    if not z.re:
        if z.im == 1:
            return "i"
        if z.im == -1:
            return "-i"
        return f"{z.im}*i"
    im = "i" if z.im == 1 else ("-i" if z.im == -1 else f"{abs(z.im)}*i")
    sign = "+" if z.im > 0 else "-"
    if z.im in (1, -1):
        return f"({z.re}{sign}i)"
    return f"({z.re}{sign}{abs(z.im)}*i)"
