"""Sparse multivariate polynomials over exact or floating complex scalars.

Exponent keys are tuples of length d; coefficients are ComplexRational in
exact mode and Python complex otherwise.  Zero coefficients are dropped on
construction, so ``not p.coeffs`` is the zero test.

The private module functions below are the one implementation of sparse
coefficient arithmetic: ``Poly`` and ``series.TruncatedSeries`` both work
through them on their ``{exponent tuple: scalar}`` dicts, and ``_matmul``
multiplies matrices of polynomials (series matrices sum their products
through ``series.dot``).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd

from .errors import ShapeError, ValidationError
from .scalars import ComplexRational, _fields, coerce, is_exact_scalar, magnitude, to_complex


# -- sparse coefficient kernel --------------------------------------------------


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, None)
        s = c if s is None else s + c
        if not s:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _mul(a: dict, b: dict, K: int) -> dict:
    """Product with every term of total degree above K dropped."""
    out: dict = {}
    for e1, c1 in a.items():
        d1 = sum(e1)
        for e2, c2 in b.items():
            if d1 + sum(e2) > K:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            v = c1 * c2
            s = out.get(e, None)
            s = v if s is None else s + v
            if not s:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _diff(c: dict, a: int) -> dict:
    """d/dx_a of c.  An exact (x + y i)/q times its exponent k is
    (x k/g + y k/g i)/(q/g) with g = gcd(k, q), already in normal form."""
    out: dict = {}
    for e, v in c.items():
        k = e[a]
        if k == 0:
            continue
        ne = list(e)
        ne[a] -= 1
        if type(v) is ComplexRational:
            g = gcd(k, v.q)
            out[tuple(ne)] = _fields(v.a * (k // g), v.b * (k // g), v.q // g)
        else:
            out[tuple(ne)] = v * k
    return out


def _eval(c: dict, pt, exact: bool):
    """Value at pt, whose entries are already in the scalar mode."""
    if exact:
        acc = ComplexRational(0)
        for e, term in c.items():
            for x, k in zip(pt, e):
                for _ in range(k):
                    term = term * x
            acc = acc + term
        return acc
    acc = 0j
    for e, v in c.items():
        term = to_complex(v)
        for x, k in zip(pt, e):
            if k:
                try:
                    term *= x ** k
                except OverflowError:
                    raise ValidationError("a polynomial value is beyond the float range") from None
        acc += term
    if not cmath.isfinite(acc):  # a complex x ** k can overflow to nan without raising
        raise ValidationError("a polynomial value is beyond the float range")
    return acc


def _shift(c: dict, center, one, K: int) -> dict:
    """Substitute x_a -> x_a + center_a, dropping total degree above K."""
    d = len(center)
    origin = (0,) * d
    linear = []
    for a, ca in enumerate(center):
        e = [0] * d
        e[a] = 1
        factor = {tuple(e): one}
        if ca != 0:
            factor[origin] = ca
        linear.append(factor)
    out: dict = {}
    for e, v in c.items():
        term = {origin: v}
        for a, k in enumerate(e):
            for _ in range(k):
                term = _mul(term, linear[a], K)
        out = _add(out, term)
    return out


def _max_abs(values) -> float:
    return max([0.0] + [magnitude(c) for c in values])


def _matmul(a: list, b: list) -> list:
    """Row-by-column product of matrices given as lists of rows."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = row[0] * b[0][j]
            for k in range(1, len(b)):
                acc = acc + row[k] * b[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


class Poly:
    __slots__ = ("d", "coeffs", "exact")

    def __init__(self, d: int, coeffs: dict | None = None, exact: bool = False):
        self.d = int(d)
        self.exact = bool(exact)
        self.coeffs = out = {}
        if coeffs:
            for exps, c in coeffs.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.d or any(e < 0 for e in exps):
                    raise ValidationError(f"bad exponent tuple {exps} for d={self.d}")
                c = coerce(c, self.exact)
                if c == 0:
                    continue
                if exps in out:
                    c = out[exps] + c
                    if c == 0:
                        del out[exps]
                        continue
                out[exps] = c

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def constant(d: int, value, exact: bool = False) -> "Poly":
        return Poly(d, {(0,) * d: value}, exact)

    @staticmethod
    def variable(d: int, a: int, exact: bool = False) -> "Poly":
        if not 0 <= a < d:
            raise ValidationError(f"variable index {a} out of range for d={d}")
        e = [0] * d
        e[a] = 1
        return Poly(d, {tuple(e): 1}, exact)

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=-1)

    def _like(self, coeffs: dict) -> "Poly":
        """A Poly of this shape and mode owning coeffs, which hold no zero."""
        p = Poly(self.d, None, self.exact)
        p.coeffs = coeffs
        return p

    def _check(self, other: "Poly"):
        if self.d != other.d:
            raise ShapeError(f"polynomials in {self.d} and {other.d} variables")
        if self.exact != other.exact:
            raise ShapeError("mixed exact and floating polynomials")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.d == other.d and self.coeffs == other.coeffs

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = ", ".join(f"{e}:{c}" for e, c in sorted(self.coeffs.items()))
        return f"Poly({terms})"

    # -- algebra ----------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.d, other, self.exact)
        self._check(other)
        return self._like(_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self._like({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.d, other, self.exact)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = coerce(other, self.exact)
            if c == 0:
                return self._like({})
            return self._like({e: v * c for e, v in self.coeffs.items()})
        self._check(other)
        return self._like(_mul(self.coeffs, other.coeffs, self.degree() + other.degree()))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValidationError("negative polynomial power")
        result = Poly.constant(self.d, 1, self.exact)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def diff(self, a: int) -> "Poly":
        return self._like(_diff(self.coeffs, a))

    def eval(self, point):
        """Evaluate at a point; exact when self and the point are exact."""
        if len(point) != self.d:
            raise ShapeError(f"point of length {len(point)} for d={self.d}")
        exact = self.exact and all(is_exact_scalar(x) for x in point)
        return _eval(self.coeffs, [coerce(x, exact) for x in point], exact)

    def max_abs(self) -> float:
        """Largest coefficient modulus; 0.0 for the zero polynomial."""
        return _max_abs(self.coeffs.values())

    def subs_univariate(self, curves: list["Poly"]) -> "Poly":
        """Compose with d univariate polynomials t -> (c_1(t), ..., c_d(t))."""
        if len(curves) != self.d:
            raise ShapeError("need one curve component per variable")
        for c in curves:
            if c.d != 1:
                raise ShapeError("curve components must be univariate")
            if c.exact != self.exact:
                raise ShapeError("mixed exact and floating composition")
        acc = Poly(1, None, self.exact)
        for e, coef in self.coeffs.items():
            term = Poly.constant(1, coef, self.exact)
            for comp, k in zip(curves, e):
                if k:
                    term = term * comp ** k
            acc = acc + term
        return acc

    def to_float(self) -> "Poly":
        if not self.exact:
            return self
        p = Poly(self.d, None, False)
        p.coeffs = {e: to_complex(c) for e, c in self.coeffs.items()}
        return p


def poly_from_terms(d: int, terms, exact: bool | None = None) -> Poly:
    """Build a Poly from [(exps, re, im), ...] or [{"exps":..,"re":..,"im":..}].

    Exactness is auto-detected: if every re/im is an int or a fraction
    string, the result is exact; any genuine float makes it floating.
    """
    norm, sawfloat = [], False
    for t in terms:
        if isinstance(t, dict):
            exps, re, im = t["exps"], t.get("re", 0), t.get("im", 0)
        else:
            exps, re, im = t
        sawfloat = sawfloat or any(isinstance(v, float) and not v.is_integer() for v in (re, im))
        norm.append((tuple(int(e) for e in exps), ComplexRational(Fraction(re), Fraction(im))))
    if exact is None:
        exact = not sawfloat
    coeffs: dict = {}
    for exps, c in norm:
        c = coerce(c, exact)
        coeffs[exps] = coeffs[exps] + c if exps in coeffs else c
    return Poly(d, coeffs, exact)
