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

Products: both modes multiply through ``_dense_mul``.  A product with a
one-term operand c x^e is a shift and a scale: the other operand's terms
through degree K - |e|, moved by e and multiplied by c, with no table.
Every other product is multivariate Taylor arithmetic over one cached
table per (d, K) (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13): every pair of occupied slots
whose degrees sum to at most K is gathered at once, and each product
coefficient is summed in pair order.  Floating operands are scattered into
complex vectors over the table's monomials.  Exact operands are lifted to
Gaussian-integer numerators over one common denominator each, summed as
Python ints and brought to normal form once per coefficient.  Storage
stays the dict on both routes.  The sparse ``polynomials._mul`` stays the
product of a ring whose table would pass ``_MAX_PAIRS`` pairs, so the
table's memory stays bounded, and of an exact operand whose common
denominator passes ``_LIFT_SLACK`` bits beyond twice its longest single
denominator, where the rescaled numerators would outgrow the scalars' own.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from operator import sub

import numpy as np

from .errors import NotInvertibleError, ShapeError, ValidationError
from .polynomials import Poly, _add, _diff, _eval, _matmul, _max_abs, _mul, _shift
from .scalars import _reduced, coerce, to_complex


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


# Largest pair table _dense_mul builds: 3 int32 arrays of 2^18 entries (3 MB).
# d=3, K=8 has 3,003 pairs and d=3, K=20 has 230,230.
_MAX_PAIRS = 1 << 18

# An exact operand goes through the table only if its common denominator is
# at most this many bits longer than twice its longest single denominator.
# The solvers' and verifiers' operands stay below twice; 84 complex
# coefficients over unrelated 25-bit primes (a 4,200-bit denominator)
# multiply 7.8 times slower through the table than through _mul.
_LIFT_SLACK = 64


@lru_cache(maxsize=32)
def _monomials(d: int, K: int):
    """(monos, slot): the monomials of degree <= K, degree by degree in
    exponents_of_degree order, and the exponent -> slot index."""
    monos = [e for deg in range(K + 1) for e in exponents_of_degree(d, deg)]
    return monos, {e: i for i, e in enumerate(monos)}


@lru_cache(maxsize=32)
def _pair_table(d: int, K: int):
    """The product table of the ring shape (d, K).

    Returns (monos, slot, I, J, T): _monomials(d, K), and int32 arrays
    listing, sorted by (i, j), every slot pair whose degrees sum to at most
    K, with T the slot of the product monomial.
    """
    monos, slot = _monomials(d, K)
    n = len(monos)
    # slots are graded, so the partners of slot i are the first
    # C(K - deg_i + d, d) slots: those of degree <= K - deg_i
    below = np.array([math.comb(m + d, d) for m in range(K + 1)], dtype=np.int64)
    lens = below[K - np.array([sum(e) for e in monos], dtype=np.int64)]
    starts = np.cumsum(lens) - lens
    I = np.repeat(np.arange(n, dtype=np.int64), lens)
    J = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(starts, lens)
    E = np.array(monos, dtype=np.int64).reshape(n, d)
    T = _slots(E[I] + E[J], K)
    return monos, slot, I.astype(np.int32), J.astype(np.int32), T.astype(np.int32)


def _slots(E: np.ndarray, K: int) -> np.ndarray:
    """Table slots of the exponent rows E, by the combinatorial number system.

    With s_a the degree of e_a + ... + e_{d-1}, the monomials before e are
    sum_a C(s_a + d - a - 1, d - a): for a = 0 those of lower degree, for
    a > 0 those of e's degree that agree with e before index a - 1 and are
    larger there, which exponents_of_degree lists first.
    """
    n, d = E.shape
    tails = np.cumsum(E[:, ::-1], axis=1)[:, ::-1]
    weight = np.array([[math.comb(s + d - a - 1, d - a) for s in range(K + 1)]
                       for a in range(d)], dtype=np.int64)
    return weight[np.arange(d), tails].sum(axis=1)


def _lift(c: dict):
    """The exact values of c as Gaussian-integer numerators over their common
    denominator: (real numerators, imaginary numerators, denominator), or
    None if that denominator is more than _LIFT_SLACK bits longer than
    twice the longest single one."""
    values = c.values()
    dens = {v.q for v in values}
    den = math.lcm(*dens)
    if den.bit_length() > 2 * max(dens).bit_length() + _LIFT_SLACK:
        return None
    scale = {q: den // q for q in dens}
    return [v.a * scale[v.q] for v in values], [v.b * scale[v.q] for v in values], den


def _placed(values, at: list, n: int) -> list:
    """A list of n zeros with values placed at the slots at."""
    out = [0] * n
    for s, v in zip(at, values):
        out[s] = v
    return out


def _float_sum(x, xat, y, yat, i, j, t, monos: list) -> dict:
    """The product coefficients: each slot's sum of x_i y_j over the pairs
    (i, j, t) of occupied slots, in pair order, as complex floats."""
    n = len(monos)
    xv, yv = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    xv[xat], yv[yat] = x, y
    xr, xi, yr, yi = xv.real[i], xv.imag[i], yv.real[j], yv.imag[j]
    out = np.empty(n, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as Python makes them
        out.real = np.bincount(t, xr * yr - xi * yi, n)
        out.imag = np.bincount(t, xr * yi + xi * yr, n)
    keep = np.flatnonzero(out).tolist()
    return dict(zip(map(monos.__getitem__, keep), out[keep].tolist()))


def _exact_sum(x, xat, y, yat, i, j, t, monos: list) -> dict:
    """The product coefficients: each slot's sum of x_i y_j over the pairs
    (i, j, t) of occupied slots, in integers, over the product of the two
    denominators, brought to normal form once per coefficient."""
    n = len(monos)
    (xr, xi, dx), (yr, yi, dy) = x, y
    pairs = zip(i.tolist(), j.tolist(), t.tolist())
    re, im = [0] * n, [0] * n
    if any(xi) or any(yi):
        xr, xi = _placed(xr, xat, n), _placed(xi, xat, n)
        yr, yi = _placed(yr, yat, n), _placed(yi, yat, n)
        for p, q, s in pairs:
            a, b, c, e = xr[p], xi[p], yr[q], yi[q]
            re[s] += a * c - b * e
            im[s] += a * e + b * c
    else:  # real operands, as every problem with rational data has
        xr, yr = _placed(xr, xat, n), _placed(yr, yat, n)
        for p, q, s in pairs:
            re[s] += xr[p] * yr[q]
    den = dx * dy
    return {m: _reduced(u, v, den) for m, u, v in zip(monos, re, im) if u or v}


def _shift_mul(a: dict, b: dict, d: int, K: int) -> dict:
    """The product of two coefficient dicts, one of which holds the single
    term c x^e: the other's terms of degree <= K - |e|, moved by e and
    multiplied by c, in table order, with zero products dropped.  The
    factors keep their order, and each product slot gets one term, as on
    the table route, so floats agree with it up to the sign of a zero."""
    left = len(a) == 1
    ((e, c),) = (a if left else b).items()
    other = b if left else a
    keys = sorted(other, key=_monomials(d, K)[1].__getitem__)
    if any(e):
        keys = keys[:bisect_right(keys, K - sum(e), key=sum)]  # slots are graded
        moved = zip(*[[x + s for x in column] for column, s in zip(zip(*keys), e)])
    else:
        moved = keys
    values = [c * other[g] for g in keys] if left else [other[g] * c for g in keys]
    return {m: v for m, v in zip(moved, values) if v}


def _dense_mul(a: dict, b: dict, d: int, K: int, exact: bool):
    """The product of two coefficient dicts in table order, or None when an
    exact operand's lift is refused: {} if an operand is empty, _shift_mul
    if one holds a single term, and _table_mul otherwise."""
    if not a or not b:
        return {}
    if len(a) == 1 or len(b) == 1:
        return _shift_mul(a, b, d, K)
    return _table_mul(a, b, d, K, exact)


def _table_mul(a: dict, b: dict, d: int, K: int, exact: bool):
    """The product of two nonempty coefficient dicts through the (d, K)
    table, or None, before the table is read, when an exact operand's lift
    is refused.

    Both modes sum every (i, j) pair of occupied slots, in (i, j) order,
    into its product slot and return the nonzero slots in table order.
    Floats form the terms _mul forms, each in the same floating-point
    operations as Python's complex product, so operands stored in table
    order give _mul's floats; pairs with an empty slot are skipped, so no
    0 * inf term makes a NaN that _mul would not.  Exact terms sum in
    integers over one denominator per operand, which gives _mul's values.
    """
    if exact:
        x, y, total = _lift(a), _lift(b), _exact_sum
        if x is None or y is None:
            return None
    else:
        x, y, total = list(a.values()), list(b.values()), _float_sum
    monos, slot, I, J, T = _pair_table(d, K)
    n = len(monos)
    xat, yat = [slot[e] for e in a], [slot[e] for e in b]
    xon, yon = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    xon[xat], yon[yat] = True, True
    live = xon[I] & yon[J]
    return total(x, xat, y, yat, I[live], J[live], T[live], monos)


def _product_coeff(items, Q: dict, beta: tuple, acc):
    """acc plus the coefficient at beta of P * Q, for items the stored
    (exponent, coefficient) pairs of P: each P_g Q_{beta - g} with beta - g
    stored in Q is added in the order of items.  A difference with a
    negative entry is never a stored exponent, so it needs no test of its own."""
    for g, c in items:
        v = Q.get(tuple(map(sub, beta, g)))
        if v is not None:
            acc = acc + c * v
    return acc


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
        self.coeffs = {tuple(e): c for e, c in items if sum(e) <= ring.K and c}
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
        d, K = self.ring.d, self.ring.K
        coeffs = None
        if math.comb(2 * d + K, K) <= _MAX_PAIRS:
            coeffs = _dense_mul(self.coeffs, other.coeffs, d, K, self.ring.exact)
        if coeffs is None:
            coeffs = _mul(self.coeffs, other.coeffs, K)
        return self._like(coeffs, min(self.valid, other.valid))

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
        neg_inv0, zero = -inv0, self.ring.zero_scalar()
        d, K = self.ring.d, self.ring.K
        out = {(0,) * d: inv0}
        for deg in range(1, min(self.valid, K) + 1):
            for alpha in exponents_of_degree(d, deg):
                # out[alpha] is not stored yet, so the constant term adds nothing
                acc = _product_coeff(self.coeffs.items(), out, alpha, zero)
                if acc:
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
