"""Exact complex scalars with rational real and imaginary parts.

The series and jet solvers run either on Python ``complex`` (floating mode)
or on :class:`ComplexRational` (exact mode).  Both expose the same operator
surface, so the algebra above never branches on the mode.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExactnessError

# floating-mode slack when deciding that a value is a nonzero integer
RESONANCE_TOL = 1e-8


class ComplexRational:
    """A Gaussian rational a + b*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return ComplexRational(self.re, -self.im)

    # -- predicates and conversions ------------------------------------------

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def abs2(self):
        """|z|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    def __abs__(self):
        return self.abs2() ** 0.5

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}+{self.im}i)"


def _coerce(x):
    if isinstance(x, ComplexRational):
        return x
    if isinstance(x, (int, Fraction)):
        return ComplexRational(x, 0)
    return NotImplemented


def is_exact_scalar(x) -> bool:
    return isinstance(x, (ComplexRational, int, Fraction))


def to_exact(x) -> ComplexRational:
    """Coerce an exact representation to ComplexRational.

    Accepts int, Fraction, ComplexRational, strings like "3/4", pairs of
    those, and floats/complex whose components are integral.  Anything else
    raises ExactnessError.
    """
    if isinstance(x, ComplexRational):
        return x
    if isinstance(x, (int, Fraction)):
        return ComplexRational(x, 0)
    if isinstance(x, str):
        return ComplexRational(Fraction(x), 0)
    if isinstance(x, float):
        if x.is_integer():
            return ComplexRational(int(x), 0)
        raise ExactnessError(f"non-integral float {x!r} has no declared exact value")
    if isinstance(x, complex):
        return ComplexRational(to_exact(x.real).re, to_exact(x.imag).re)
    if isinstance(x, (tuple, list)) and len(x) == 2:
        return ComplexRational(to_exact(x[0]).re, to_exact(x[1]).re)
    raise ExactnessError(f"cannot interpret {x!r} as an exact complex rational")


def to_complex(x) -> complex:
    return complex(x)


def scalar_abs2(x):
    """|x|^2, exact Fraction in exact mode, float otherwise."""
    if isinstance(x, ComplexRational):
        return x.abs2()
    z = complex(x)
    return z.real * z.real + z.imag * z.imag


def nonzero_int(v, exact: bool):
    """The integer m with v == m != 0, or None.

    Exact mode demands equality; floating mode accepts the closed box
    |Re v - m| <= RESONANCE_TOL, |Im v| <= RESONANCE_TOL.
    """
    if exact:
        v = to_exact(v)
        if v.im != 0 or v.re.denominator != 1 or v.re == 0:
            return None
        return int(v.re)
    v = to_complex(v)
    m = round(v.real)
    if abs(v.imag) > RESONANCE_TOL or abs(v.real - m) > RESONANCE_TOL or m == 0:
        return None
    return m
