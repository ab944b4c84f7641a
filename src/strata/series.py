"""Truncated multivariate power series and matrices of them.

A series lives in a SeriesRing fixing the number of variables d, the
expansion center, the truncation order K (all terms of total degree > K
are dropped), and the scalar mode (exact rational-complex or floating).
Each series also tracks ``valid``: the largest total degree up to which
its coefficients are meaningful.  Differentiation lowers ``valid`` by
one; sums and products take the minimum.  Consumers that assert on
coefficients above ``valid`` are reading noise, so the residual and
simplification routines slice by it.

Storage contract: ``coeffs`` maps exponent tuples to scalars, each one
nonzero and of total degree <= K.  Only this module reads it; the read API
is ``coeff``, ``constant_term`` and ``items`` (``coeffs`` stays readable
for perfbench and the tests).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotInvertibleError, ShapeError, ValidationError
from .polynomials import Poly, _add, _diff, _eval, _matmul, _max_abs, _mul, _shift
from .scalars import coerce, to_complex


@lru_cache(maxsize=None)
def exponents_of_degree(d: int, deg: int) -> tuple:
    """All exponent tuples of length d with total degree deg, lex sorted."""
    if d == 1:
        return ((deg,),)
    out = []
    for first in range(deg, -1, -1):
        for rest in exponents_of_degree(d - 1, deg - first):
            out.append((first,) + rest)
    return tuple(out)


def _bump(e: tuple, a: int, k: int = 1) -> tuple:
    t = list(e)
    t[a] += k
    return tuple(t)


def _support(e: tuple) -> list:
    return [a for a, k in enumerate(e) if k > 0]


def _leq(e: tuple, f: tuple) -> bool:
    return all(x <= y for x, y in zip(e, f))


def _sub_e(e: tuple, f: tuple) -> tuple:
    return tuple(x - y for x, y in zip(e, f))


class SeriesRing:
    """Shared context: dimension, center, truncation order, scalar mode."""

    __slots__ = ("d", "K", "center", "exact")

    def __init__(self, d: int, K: int, center, exact: bool = False):
        if d < 1:
            raise ValidationError("need at least one variable")
        if K < 0:
            raise ValidationError("truncation order must be nonnegative")
        if len(center) != d:
            raise ShapeError(f"center of length {len(center)} for d={d}")
        self.d = int(d)
        self.K = int(K)
        self.exact = bool(exact)
        self.center = tuple(coerce(x, self.exact) for x in center)

    def compatible(self, other: "SeriesRing") -> bool:
        return (
            self.d == other.d
            and self.K == other.K
            and self.exact == other.exact
            and self.center == other.center
        )

    def scalar(self, v):
        return coerce(v, self.exact)

    def zero_scalar(self):
        return coerce(0, self.exact)

    # -- element constructors --------------------------------------------------

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries(self, {})

    def const(self, v) -> "TruncatedSeries":
        v = self.scalar(v)
        if v == 0:
            return self.zero()
        return TruncatedSeries(self, {(0,) * self.d: v})

    def one(self) -> "TruncatedSeries":
        return self.const(1)

    def var(self, a: int) -> "TruncatedSeries":
        """The coordinate function x_a, expanded about the center."""
        if not 0 <= a < self.d:
            raise ValidationError(f"variable index {a} out of range")
        e = [0] * self.d
        e[a] = 1
        coeffs = {tuple(e): self.scalar(1)}
        if self.center[a] != 0:
            coeffs[(0,) * self.d] = self.center[a]
        return TruncatedSeries(self, coeffs)

    def from_poly(self, p: Poly) -> "TruncatedSeries":
        """Expand a polynomial in absolute coordinates about the center.

        The expansion is exact for polynomials of any degree; terms above
        K are discarded but ``valid`` stays K because a polynomial is
        globally known.
        """
        if p.d != self.d:
            raise ShapeError("polynomial dimension mismatch")
        coeffs = {e: self.scalar(c) for e, c in p.coeffs.items()}
        return TruncatedSeries(self, _shift(coeffs, self.center, self.scalar(1), self.K))

    def matrix(self, rows) -> "SeriesMatrix":
        return SeriesMatrix(rows)

    def zero_matrix(self, n: int) -> "SeriesMatrix":
        return SeriesMatrix([[self.zero() for _ in range(n)] for _ in range(n)])

    def identity_matrix(self, n: int) -> "SeriesMatrix":
        rows = [[self.one() if i == j else self.zero() for j in range(n)] for i in range(n)]
        return SeriesMatrix(rows)


class TruncatedSeries:
    __slots__ = ("ring", "coeffs", "valid")

    def __init__(self, ring: SeriesRing, coeffs: dict | None = None, valid: int | None = None):
        self.ring = ring
        items = coeffs.items() if coeffs else ()
        self.coeffs = {tuple(e): c for e, c in items if sum(e) <= ring.K and c != 0}
        self.valid = ring.K if valid is None else min(int(valid), ring.K)

    def _like(self, coeffs: dict, valid: int) -> "TruncatedSeries":
        """A series owning coeffs, which keep the storage contract: the results
        of +, *, - and diff do; other paths filter, as a float can underflow."""
        s = TruncatedSeries(self.ring, None, valid)
        s.coeffs = coeffs
        return s

    # -- access ------------------------------------------------------------------

    def coeff(self, exps) -> object:
        return self.coeffs.get(tuple(exps), self.ring.zero_scalar())

    def constant_term(self):
        return self.coeff((0,) * self.ring.d)

    def items(self, through: int | None = None):
        """Stored (exponent, coefficient) pairs of degree <= through; uncopied if unbounded."""
        if through is None or through >= self.ring.K:
            return self.coeffs.items()
        return [(e, c) for e, c in self.coeffs.items() if sum(e) <= through]

    def is_zero(self, through: int | None = None) -> bool:
        lim = self.valid if through is None else min(through, self.ring.K)
        return not self.items(lim)

    def max_abs(self, through: int | None = None) -> float:
        lim = self.valid if through is None else min(through, self.ring.K)
        return _max_abs(c for _, c in self.items(lim))

    def _check(self, other: "TruncatedSeries"):
        if not self.ring.compatible(other.ring):
            raise ShapeError("series from incompatible rings")

    def __repr__(self):
        head = ", ".join(
            f"{e}:{c}" for e, c in sorted(self.coeffs.items(), key=lambda t: (sum(t[0]), t[0]))[:6]
        )
        more = "..." if len(self.coeffs) > 6 else ""
        return f"TruncatedSeries(K={self.ring.K}, valid={self.valid}, {{{head}{more}}})"

    # -- ring operations -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = self.ring.const(other)
        self._check(other)
        return self._like(_add(self.coeffs, other.coeffs), min(self.valid, other.valid))

    __radd__ = __add__

    def __neg__(self):
        return self._like({e: -c for e, c in self.coeffs.items()}, self.valid)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, v) -> "TruncatedSeries":
        v = self.ring.scalar(v)
        if v == 0:
            return TruncatedSeries(self.ring, {}, self.valid)
        return TruncatedSeries(self.ring, {e: c * v for e, c in self.coeffs.items()}, self.valid)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._check(other)
        return self._like(_mul(self.coeffs, other.coeffs, self.ring.K), min(self.valid, other.valid))

    __rmul__ = scale

    def diff(self, a: int) -> "TruncatedSeries":
        """Partial derivative; the top coefficient level becomes unknown."""
        if not 0 <= a < self.ring.d:
            raise ValidationError(f"variable index {a} out of range")
        return self._like(_diff(self.coeffs, a), self.valid - 1)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; needs a nonzero value at the center."""
        c0 = self.constant_term()
        if c0 == 0:
            raise NotInvertibleError("series vanishes at the center")
        inv0 = self.ring.scalar(1) / c0
        neg_inv0 = -inv0
        d, K = self.ring.d, self.ring.K
        out = {(0,) * d: inv0}
        for deg in range(1, min(self.valid, K) + 1):
            for alpha in exponents_of_degree(d, deg):
                acc = None
                for gamma, bg in self.coeffs.items():
                    if sum(gamma) == 0 or not _leq(gamma, alpha):
                        continue
                    u = out.get(_sub_e(alpha, gamma))
                    if u is None:
                        continue
                    term = bg * u
                    acc = term if acc is None else acc + term
                if acc is not None and acc != 0:
                    out[alpha] = neg_inv0 * acc
        return TruncatedSeries(self.ring, out, self.valid)

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.invert()
        v = self.ring.scalar(other)
        if v == 0:
            raise NotInvertibleError("division by zero scalar")
        return self.scale(self.ring.scalar(1) / v)

    def eval(self, point):
        """Evaluate the truncated polynomial at an absolute point."""
        if len(point) != self.ring.d:
            raise ShapeError("point dimension mismatch")
        pt = [self.ring.scalar(x) - cx for x, cx in zip(point, self.ring.center)]
        return _eval(self.coeffs, pt, self.ring.exact)

    def to_float(self) -> "TruncatedSeries":
        if not self.ring.exact:
            return self
        ring = SeriesRing(self.ring.d, self.ring.K, [to_complex(c) for c in self.ring.center], False)
        return TruncatedSeries(ring, {e: to_complex(c) for e, c in self.coeffs.items()}, self.valid)


class SeriesMatrix:
    """Dense square or rectangular matrix with TruncatedSeries entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        if not rows or not rows[0]:
            raise ValidationError("empty matrix")
        width = len(rows[0])
        ring = rows[0][0].ring
        for r in rows:
            if len(r) != width:
                raise ShapeError("ragged matrix")
            for s in r:
                if not ring.compatible(s.ring):
                    raise ShapeError("matrix entries from incompatible rings")
        self.rows = [list(r) for r in rows]

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]))

    @property
    def ring(self) -> SeriesRing:
        return self.rows[0][0].ring

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def entry(self, i: int, j: int) -> TruncatedSeries:
        return self.rows[i][j]

    def map(self, fn) -> "SeriesMatrix":
        return SeriesMatrix([[fn(s) for s in r] for r in self.rows])

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        if self.shape != other.shape:
            raise ShapeError("matrix shape mismatch")
        return SeriesMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        if self.shape != other.shape:
            raise ShapeError("matrix shape mismatch")
        return SeriesMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "SeriesMatrix":
        return self.map(lambda s: -s)

    def scale(self, v) -> "SeriesMatrix":
        return self.map(lambda s: s.scale(v))

    def __matmul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        if self.shape[1] != other.shape[0]:
            raise ShapeError("matrix product shape mismatch")
        return SeriesMatrix(_matmul(self.rows, other.rows))

    def commutator(self, other: "SeriesMatrix") -> "SeriesMatrix":
        return self @ other - other @ self

    def diff(self, a: int) -> "SeriesMatrix":
        return self.map(lambda s: s.diff(a))

    def eval(self, point) -> list:
        return [[s.eval(point) for s in r] for r in self.rows]

    def max_abs(self, through: int | None = None) -> float:
        return max(s.max_abs(through) for r in self.rows for s in r)

    def min_valid(self) -> int:
        return min(s.valid for r in self.rows for s in r)

    def is_zero(self, through: int | None = None) -> bool:
        return all(s.is_zero(through) for r in self.rows for s in r)

    def to_float(self) -> "SeriesMatrix":
        return self.map(lambda s: s.to_float())

    def __repr__(self):
        n, m = self.shape
        return f"SeriesMatrix({n}x{m}, K={self.ring.K})"
