"""Exact complex scalars with rational real and imaginary parts.

The series and jet solvers run either on Python ``complex`` (floating mode)
or on :class:`ComplexRational` (exact mode), a Gaussian rational stored as
(a + b*i)/q in lowest terms.  Both expose the same operator surface, + - * /
(reflected too), unary -, ==, bool, hash, abs and complex(), and this module
owns everything that depends on the mode: the converter ``coerce``
(constants, inverses and inputs of a mode all pass through it), the zero
test ``zero_test`` (an exact decision never forms a float magnitude),
``magnitude`` for reporting, the resonance test ``nonzero_int``, and
``float_pair``, the one encoder of printed complex floats.  Code above
branches on the mode only where the method itself differs (exact
elimination against LAPACK, for instance).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ExactnessError, ValidationError

# floating-mode slack when deciding that a value is a nonzero integer
RESONANCE_TOL = 1e-8


class ComplexRational:
    """The Gaussian rational (a + b*i)/q in normal form: ints a, b, q with
    q > 0 and gcd(a, b, q) = 1, so equal values have equal fields.  ``re``
    and ``im`` are read-only Fraction views, for printing."""

    __slots__ = ("a", "b", "q")

    def __new__(cls, re=0, im=0):
        re = re if isinstance(re, (int, Fraction)) else Fraction(re)
        im = im if isinstance(im, (int, Fraction)) else Fraction(im)
        p, r = re.denominator, im.denominator
        return _reduced(re.numerator * r, im.numerator * p, p * r)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.q)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.q)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q, r = self.q, other.q
        return _reduced(self.a * r + other.a * q, self.b * r + other.b * q, q * r)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q, r = self.q, other.q
        return _reduced(self.a * r - other.a * q, self.b * r - other.b * q, q * r)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q, r = self.q, other.q
        return _reduced(other.a * q - self.a * r, other.b * q - self.b * r, q * r)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.q * other.q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (a + b*i)/q / ((c + e*i)/r) = r (a + b*i)(c - e*i) / (q (c^2 + e^2))
        a, b, c, e, r = self.a, self.b, other.a, other.b, other.q
        den = c * c + e * e
        if den == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return _reduced(r * (a * c + b * e), r * (b * c - a * e), self.q * den)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        # negation keeps q > 0 and gcd(a, b, q) = 1
        return _fields(-self.a, -self.b, self.q)

    # -- predicates and conversions ------------------------------------------

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.q == other.q

    def __hash__(self):
        return hash((self.re, self.im))

    def __abs__(self):
        return magnitude(self)

    def __complex__(self):
        try:
            return complex(self.a / self.q, self.b / self.q)
        except OverflowError:
            raise ValidationError("an exact value is beyond the float range") from None

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.b == 0:
            return str(self.re)
        return f"({self.re}+{self.im}i)"


def _fields(a: int, b: int, q: int) -> ComplexRational:
    """(a + b*i)/q from fields already in normal form."""
    z = object.__new__(ComplexRational)
    z.a, z.b, z.q = a, b, q
    return z


def _reduced(a: int, b: int, q: int) -> ComplexRational:
    """The normalizing constructor: (a + b*i)/q, for q > 0, in lowest terms."""
    g = math.gcd(a, b, q)
    return _fields(a // g, b // g, q // g)


def _coerce(x):
    if isinstance(x, ComplexRational):
        return x
    if isinstance(x, (int, Fraction)):
        # an int or Fraction is already in lowest terms with a positive denominator
        return _fields(x.numerator, 0, x.denominator)
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


def coerce(x, exact: bool):
    """x as a scalar of the mode: to_exact in exact mode, complex otherwise."""
    return to_exact(x) if exact else complex(x)


def scalar_abs2(x: ComplexRational) -> Fraction:
    """|x|^2 as an exact Fraction; a float |x|^2 would overflow where |x| does not."""
    return Fraction(x.a * x.a + x.b * x.b, x.q * x.q)


def magnitude(x) -> float:
    """|x| as a float: the root of the exact |x|^2 of a ComplexRational, else abs(complex(x)).

    An exact value whose modulus is beyond the float range raises
    ValidationError: it has no float to report.
    """
    try:
        return scalar_abs2(x) ** 0.5 if isinstance(x, ComplexRational) else abs(complex(x))
    except OverflowError:
        # an exact |x|^2 can overflow while |x| is still a float
        m = abs(complex(x))
    if m == math.inf:
        raise ValidationError("an exact magnitude is beyond the float range")
    return m


def _exact_zero(v) -> bool:
    is_zero = getattr(v, "is_zero", None)
    return v == 0 if is_zero is None else is_zero()


def zero_test(exact: bool, tol: float, scale=None):
    """The zero test of the mode, as a predicate on scalars and on objects
    with ``is_zero`` and ``max_abs`` (series, series matrices, polynomials).

    Exact mode asks v == 0 (or v.is_zero()) and forms no magnitude.
    Floating mode asks |v| <= tol * scale(), with |v| = abs(v) for scalars
    and v.max_abs() otherwise; the callable ``scale`` is evaluated once and
    only in floating mode.
    """
    if exact:
        return _exact_zero
    thr = tol if scale is None else tol * scale()

    def negligible(v) -> bool:
        max_abs = getattr(v, "max_abs", None)
        return (abs(v) if max_abs is None else max_abs()) <= thr

    return negligible


def float_pair(z) -> list:
    """[re, im] of a complex float as printed; + 0.0 turns -0.0 into 0.0,
    so equal values always print the same bytes."""
    z = complex(z)
    return [z.real + 0.0, z.imag + 0.0]


def nonzero_int(v, exact: bool):
    """The integer m with v == m != 0, or None.

    Exact mode demands equality; floating mode accepts the closed box
    |Re v - m| <= RESONANCE_TOL, |Im v| <= RESONANCE_TOL.
    """
    v = coerce(v, exact)
    if exact:
        return v.a if v.a and not v.b and v.q == 1 else None
    m = round(v.real)
    if abs(v.imag) > RESONANCE_TOL or abs(v.real - m) > RESONANCE_TOL or m == 0:
        return None
    return m
