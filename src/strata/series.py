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

Products: both modes multiply through ``_dot``.  A product with a
one-term operand c x^e is a shift and a scale: the other operand's terms
through degree K - |e|, moved by e and multiplied by c, with no table.
Every other product is multivariate Taylor arithmetic over one cached
table per (d, K) (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13): every slot pair whose degrees
sum to at most K is gathered at once, and each product coefficient is
summed in pair order.  Floating operands are scattered into complex
vectors over the table's monomials; a pair with an empty slot adds an
exact zero, and where an operand holds inf or NaN such terms are set to
zero outright, so no 0 * inf makes a NaN.  Exact operands are lifted to
Gaussian-integer numerators over one common denominator each, summed over
their occupied pairs as Python ints and brought to normal form once per
coefficient.  Storage stays the dict on both routes.  The sparse
``polynomials._mul`` stays the product of a ring whose table would pass
``_MAX_PAIRS`` pairs, so the table's memory stays bounded, and of an exact
operand whose common denominator passes ``_LIFT_SLACK`` bits beyond twice
its longest single denominator, where the rescaled numerators would
outgrow the scalars' own.

Sums of products: ``dot(terms)`` is the sum of P_l * Q_l over (P, Q)
pairs of one ring, the kernel of every matrix product and of the
verifiers' entries.  Pairs with an empty operand drop out; two or more
others go through one table pass, with operand l's slots moved to
l * n + slot, so each coefficient is formed once.  Floats sum each
coefficient's terms product by product in pair order and, within a
product, in the table's (i, j) order, in one ``np.bincount``: one
recursive sum, where adding separate products rounds each product's sum
before adding it.  Exact products are summed over the lcm of their
denominators (each product's over the product of its operands'), with one
normalization per coefficient.  The ``_LIFT_SLACK`` rule extends to that
combined denominator, measured against the longest product denominator,
and a pass is limited to ``_MAX_PAIRS`` pairs in all: past either, the
sum is the fold of its single products, each on its own route.  A sum is
valid through the least validity of its factors, as the fold is.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import chain
from operator import sub

import numpy as np

from .errors import NotInvertibleError, ShapeError, ValidationError
from .polynomials import Poly, _add, _diff, _eval, _max_abs, _mul, _shift
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


# Largest pair table _dot builds, 3 int32 arrays of 2^18 entries (3 MB),
# and the most pairs one of its passes reads, summed over its products.
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


@lru_cache(maxsize=32)
def _flat_pairs(d: int, K: int, m: int):
    """(i, j, t): the pairs of the (d, K) table once for each of m products,
    product by product, with product l's operand slots moved to l * n + slot
    for n monomials; as intp arrays, which numpy indexes without a cast."""
    monos, _, I, J, T = _pair_table(d, K)
    off = np.arange(m, dtype=np.intp)[:, None] * len(monos)
    ijt = (off + I).ravel(), (off + J).ravel(), np.tile(T.astype(np.intp), m)
    for a in ijt:
        a.flags.writeable = False  # shared by every caller of the cache
    return ijt


def _flat_slots(dicts: list, slot: dict, n: int) -> list:
    """The flat slots l * n + slot[e] of the exponents e of dicts[l], in order."""
    return [l * n + slot[e] for l, c in enumerate(dicts) for e in c]


def _float_sum(x, xat, y, yat, ijt, size: int, monos: list) -> dict:
    """The sum coefficients: each slot's sum of x_i y_j over the pairs
    ijt = (i, j, t), in pair order, as complex floats, for x and y placed at
    the flat slots xat and yat of two vectors of the given size.  A pair
    with an empty slot adds a zero, which changes no nonzero sum; if an
    operand holds inf or NaN, those terms are zeroed first, so no 0 * inf
    makes a NaN that _mul would not."""
    n, (i, j, t) = len(monos), ijt
    xv, yv = np.zeros(size, dtype=complex), np.zeros(size, dtype=complex)
    xv[xat], yv[yat] = x, y
    xr, xi, yr, yi = xv.real[i], xv.imag[i], yv.real[j], yv.imag[j]
    out = np.empty(n, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as Python makes them
        re, im = xr * yr - xi * yi, xr * yi + xi * yr
        if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
            empty = (xv == 0)[i] | (yv == 0)[j]
            re[empty], im[empty] = 0.0, 0.0
        out.real = np.bincount(t, re, n)
        out.imag = np.bincount(t, im, n)
    keep = np.flatnonzero(out).tolist()
    return dict(zip(map(monos.__getitem__, keep), out[keep].tolist()))


def _exact_sum(x, xat, y, yat, ijt, size: int, monos: list, den: int) -> dict:
    """The sum coefficients: each slot's sum of x_i y_j over the pairs
    ijt = (i, j, t) of occupied slots, in integers, for x and y (real,
    imaginary) numerator lists placed as in _float_sum and every x_i y_j
    over den; brought to normal form once per coefficient."""
    n, (xr, xi), (yr, yi), (i, j, t) = len(monos), x, y, ijt
    xon, yon = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
    xon[xat], yon[yat] = True, True
    live = xon[i] & yon[j]
    pairs = zip(i[live].tolist(), j[live].tolist(), t[live].tolist())
    re, im = [0] * n, [0] * n
    if any(xi) or any(yi):
        xr, xi = _placed(xr, xat, size), _placed(xi, xat, size)
        yr, yi = _placed(yr, yat, size), _placed(yi, yat, size)
        for p, q, s in pairs:
            a, b, c, e = xr[p], xi[p], yr[q], yi[q]
            re[s] += a * c - b * e
            im[s] += a * e + b * c
    else:  # real operands, as every problem with rational data has
        xr, yr = _placed(xr, xat, size), _placed(yr, yat, size)
        for p, q, s in pairs:
            re[s] += xr[p] * yr[q]
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


def _table_dot(pairs: list, d: int, K: int, exact: bool):
    """The sum of the products of the nonempty coefficient dicts in pairs
    through the (d, K) table, or None, before the table is read, when an
    exact operand's lift or the pairs' combined denominator is refused.

    Both modes take the table pairs of every product, product by product
    and in (i, j) order within each, sum each into its product slot and
    return the nonzero slots in table order.  Floats form the terms _mul
    forms, each in the same floating-point operations as Python's complex
    product, so one pair of operands stored in table order gives _mul's
    floats.  Exact terms of the occupied pairs sum in integers over the lcm
    of the products' denominators, which gives the values of the sum of
    _mul's products.
    """
    if exact:
        lifts = [(_lift(a), _lift(b)) for a, b in pairs]
        if any(p is None or q is None for p, q in lifts):
            return None
        dens = [p[2] * q[2] for p, q in lifts]
        den = math.lcm(*dens)
        if den.bit_length() > 2 * max(dens).bit_length() + _LIFT_SLACK:
            return None
        x, y = ([], []), ([], [])
        for (left, right), q in zip(lifts, dens):
            s = den // q  # carries the product's left numerators to den
            for part in (0, 1):
                x[part].extend(left[part] if s == 1 else [v * s for v in left[part]])
                y[part].extend(right[part])
    else:
        x = list(chain.from_iterable(a.values() for a, _ in pairs))
        y = list(chain.from_iterable(b.values() for _, b in pairs))
    monos, slot = _monomials(d, K)
    n, m = len(monos), len(pairs)
    xat = _flat_slots([a for a, _ in pairs], slot, n)
    yat = _flat_slots([b for _, b in pairs], slot, n)
    ijt = _flat_pairs(d, K, m)
    if exact:
        return _exact_sum(x, xat, y, yat, ijt, m * n, monos, den)
    return _float_sum(x, xat, y, yat, ijt, m * n, monos)


def _dot(pairs, d: int, K: int, exact: bool) -> dict:
    """The sum of the products of the coefficient dicts in pairs.  A pair
    with an empty operand adds nothing.  A lone pair with a one-term operand
    is a _shift_mul; the others go through one table pass when it reads at
    most _MAX_PAIRS table pairs.  A lone pair past that cap, or whose lift
    is refused, is a _mul; a sum that cannot take one pass is the fold of
    its single products, each on its own route."""
    pairs = [(a, b) for a, b in pairs if a and b]
    if len(pairs) == 1 and (len(pairs[0][0]) == 1 or len(pairs[0][1]) == 1):
        return _shift_mul(*pairs[0], d, K)
    if pairs and len(pairs) * math.comb(2 * d + K, K) <= _MAX_PAIRS:
        coeffs = _table_dot(pairs, d, K, exact)
        if coeffs is not None:
            return coeffs
    if len(pairs) == 1:
        return _mul(*pairs[0], K)
    out = {}
    for pair in pairs:
        p = _dot([pair], d, K, exact)
        out = _add(out, p) if out else p
    return out


def dot(terms) -> "TruncatedSeries":
    """The sum of P_l * Q_l over a nonempty list of (P, Q) series pairs
    from one ring, each coefficient formed once (see the module docstring),
    valid through the least validity of any factor."""
    first = terms[0][0]
    ring = first.ring
    for s in chain.from_iterable(terms):
        if s.ring is not ring:
            first._check(s)
    coeffs = _dot([(P.coeffs, Q.coeffs) for P, Q in terms], ring.d, ring.K, ring.exact)
    return first._like(coeffs, min(min(P.valid, Q.valid) for P, Q in terms))


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
        ring = self.ring
        coeffs = _dot([(self.coeffs, other.coeffs)], ring.d, ring.K, ring.exact)
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
        cols = list(zip(*other.rows))
        return SeriesMatrix([[dot(list(zip(row, col))) for col in cols] for row in self.rows])

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
