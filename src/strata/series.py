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
for perfbench and the tests).  It is never written after construction:
``__init__`` copies its input, ``_like`` takes a fresh dict, and nothing
assigns into it.  So a series keeps its table form, ``_pack`` of its
coefficients, from the first product that reads it on.

Products: both modes multiply through ``_dot``, and a product or a sum
of products forms its coefficients only through its own validity v, the
least validity of its factors: the terms above v would be noise, so none
is formed or stored, and a result valid nowhere (v < 0) is empty.  A
product with a one-term operand c x^e is a shift and a scale: the other
operand's terms through degree v - |e|, moved by e and multiplied by c,
with no table.  Every other product is multivariate Taylor arithmetic
over one cached table per (d, v) (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13): every slot pair whose degrees sum to at
most v is gathered at once, and each product coefficient is summed in
pair order.  Slots are graded, so the (d, v) table is the prefix of the
(d, K) one: its slots are the first slots of the ring's, and its pairs
are those of the (d, K) table that land in them, in the same order.  It
reads the operands' table forms, which are laid out over the ring's
(d, K) monomials, in place, and each coefficient through v sums the same
pairs in the same order as a product through K would.  A floating
operand's table form is a complex vector over the ring's monomials, and
a pass reads only the pairs of two occupied slots, so no 0 * inf makes a
NaN.  An exact operand's is its occupied slots and its Gaussian-integer
numerators over one common denominator, placed in lists of ints; products
sum them over their occupied pairs as Python ints and bring each
coefficient to normal form once.  Storage stays the dict on both routes.
The sparse ``polynomials._mul``, truncated at v, stays the product of a
ring whose (d, K) table would pass ``_MAX_PAIRS`` pairs, so the table's
memory stays bounded, and of an exact operand whose common denominator
passes ``_LIFT_SLACK`` bits beyond twice its longest single denominator,
where the rescaled numerators would outgrow the scalars' own; such an
operand's table form is None.  These route choices read the ring's
(d, K) shape, not v, so a bound v changes no route.

Sums of products: ``dot(terms)`` is the sum of P_l * Q_l over (P, Q)
pairs of one ring, the kernel of every matrix product and of the
verifiers' entries.  Pairs with an empty operand drop out; two or more
others go through one table pass, with operand l's slots moved to
l * n + slot for the ring's n monomials, so each coefficient is formed once.  Floats sum each
coefficient's terms product by product in pair order and, within a
product, in the table's (i, j) order, in one ``np.bincount``: one
recursive sum, where adding separate products rounds each product's sum
before adding it.  Exact products are summed over the lcm of their
denominators (each product's over the product of its operands'), with one
normalization per coefficient.  The ``_LIFT_SLACK`` rule extends to that
combined denominator, measured against the longest product denominator,
and a pass is limited to ``_MAX_PAIRS`` pairs in all: past either, the
sum is the fold of its single products, each on its own route.  A sum is
valid through the least validity of its factors, as the fold is, and is
formed through that degree only.
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

# The table form of a series not yet packed, a singleton that survives a copy
# (None is a refused pack).
_UNPACKED = False


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


def _pack(c: dict, ring):
    """The table form of the coefficient dict c of ring: float, c placed in
    a complex vector over the table's monomials; exact, (on, re, im, den),
    with on a byte per slot, 1 where c has a term, and c's Gaussian-integer
    numerators over their common denominator den placed in lists of ints
    (im None if every one is 0), or None if den is more than _LIFT_SLACK bits
    longer than twice the longest single denominator."""
    values, (monos, slot) = c.values(), _monomials(ring.d, ring.K)
    if ring.exact:
        dens = {v.q for v in values}
        den = math.lcm(*dens)
        if den.bit_length() > 2 * max(dens, default=1).bit_length() + _LIFT_SLACK:
            return None
    at, n = [slot[e] for e in c], len(monos)
    if not ring.exact:
        xv = np.zeros(n, dtype=complex)
        xv[at] = list(values)
        return xv
    on, re, im, scale = bytearray(n), [0] * n, [0] * n, {q: den // q for q in dens}
    for s, v in zip(at, values):
        f = scale[v.q]
        on[s], re[s], im[s] = 1, v.a * f, v.b * f
    return bytes(on), re, im if any(im) else None, den


@lru_cache(maxsize=128)  # a ring's products read one entry per validity v and count m
def _flat_pairs(d: int, v: int, m: int, stride: int):
    """(i, j, t): the pairs of the (d, v) table once for each of m products,
    product by product, with product l's operand slots moved to
    l * stride + slot, for operand forms of stride slots each; as intp
    arrays, which numpy indexes without a cast."""
    _, _, I, J, T = _pair_table(d, v)
    off = np.arange(m, dtype=np.intp)[:, None] * stride
    ijt = (off + I).ravel(), (off + J).ravel(), np.tile(T.astype(np.intp), m)
    for a in ijt:
        a.flags.writeable = False  # shared by every caller of the cache
    return ijt


def _float_sum(forms: list, ijt, monos: list) -> dict:
    """The sum coefficients: each slot's sum of x_i y_j over the pairs
    ijt = (i, j, t), in pair order, as complex floats, for x and y the
    vectors of the forms' left and right operands laid end to end.  A pair
    with an empty slot would add a zero, which changes no sum, so only the
    pairs of two occupied slots enter the pass, and no 0 * inf makes a NaN
    that _mul would not."""
    n = len(monos)
    xv, yv = (side[0] if len(side) == 1 else np.concatenate(side) for side in zip(*forms))
    live = (xv != 0)[ijt[0]] & (yv != 0)[ijt[1]]
    i, j, t = (a[live] for a in ijt)
    xr, xi, yr, yi = xv.real[i], xv.imag[i], yv.real[j], yv.imag[j]
    out = np.empty(n, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as Python makes them
        re, im = xr * yr - xi * yi, xr * yi + xi * yr
        out.real = np.bincount(t, re, n)
        out.imag = np.bincount(t, im, n)
    keep = np.flatnonzero(out).tolist()
    return dict(zip(map(monos.__getitem__, keep), out[keep].tolist()))


def _joined(forms: list, scales: list, imag: bool):
    """(on, re, im): the exact forms laid end to end, form l's numerators
    multiplied by scales[l]; im is None unless imag, and a real form's
    imaginary numerators are zeros."""
    on, re, im = [], [], []
    for (o, a, b, _), s in zip(forms, scales):
        on.append(o)
        re.append(a if s == 1 else [v * s for v in a])
        if imag:
            b = [0] * len(a) if b is None else b
            im.append(b if s == 1 else [v * s for v in b])
    on = np.frombuffer(b"".join(on), dtype=bool)
    if len(forms) == 1:
        return on, re[0], im[0] if imag else None
    return on, list(chain.from_iterable(re)), list(chain.from_iterable(im)) if imag else None


def _exact_sum(forms: list, dens: list, den: int, ijt, monos: list) -> dict:
    """The sum coefficients: each slot's sum of x_i y_j over the pairs
    ijt = (i, j, t) of occupied slots, in integers, for x and y the
    numerators of the forms' left and right operands laid end to end, the
    left ones carrying product l from its denominator dens[l] to den;
    brought to normal form once per coefficient."""
    n, (i, j, t) = len(monos), ijt
    imag = any(f[2] is not None for pair in forms for f in pair)
    xon, xr, xi = _joined([x for x, _ in forms], [den // q for q in dens], imag)
    yon, yr, yi = _joined([y for _, y in forms], [1] * len(forms), imag)
    live = xon[i] & yon[j]
    pairs = zip(i[live].tolist(), j[live].tolist(), t[live].tolist())
    re, im = [0] * n, [0] * n
    if imag:
        for p, q, s in pairs:
            a, b, c, e = xr[p], xi[p], yr[q], yi[q]
            re[s] += a * c - b * e
            im[s] += a * e + b * c
    else:  # real operands, as every problem with rational data has
        for p, q, s in pairs:
            re[s] += xr[p] * yr[q]
    return {m: _reduced(u, v, den) for m, u, v in zip(monos, re, im) if u or v}


def _shift_mul(a: dict, b: dict, d: int, K: int, v: int) -> dict:
    """The product through degree v of two coefficient dicts of the (d, K)
    ring, one of which holds the single term c x^e: the other's terms of
    degree <= v - |e|, moved by e and multiplied by c, in table order, with
    zero products dropped.  The factors keep their order, and each product
    slot gets one term, as on the table route, so floats agree with it up
    to the sign of a zero."""
    left = len(a) == 1
    ((e, c),) = (a if left else b).items()
    other = b if left else a
    keys = sorted(other, key=_monomials(d, K)[1].__getitem__)
    keys = keys[:bisect_right(keys, v - sum(e), key=sum)]  # slots are graded
    if any(e):
        moved = zip(*[[x + s for x in column] for column, s in zip(zip(*keys), e)])
    else:
        moved = keys
    values = [c * other[g] for g in keys] if left else [other[g] * c for g in keys]
    return {m: x for m, x in zip(moved, values) if x}


def _table_dot(pairs: list, ring, v: int):
    """The sum through degree v <= K of the products of the nonempty series
    pairs, through the (d, v) table, read from the operands' table forms
    over the ring's (d, K) monomials, or None, before the table is read,
    when an exact operand's pack or the pairs' combined denominator is
    refused.

    Both modes take the table pairs of every product, product by product
    and in (i, j) order within each, sum each into its product slot and
    return the nonzero slots in table order.  Floats form the terms _mul
    forms, each in the same floating-point operations as Python's complex
    product, so one pair of operands stored in table order gives _mul's
    floats.  Exact terms of the occupied pairs sum in integers over the lcm
    of the products' denominators, which gives the values of the sum of
    _mul's products.
    """
    d, K = ring.d, ring.K
    forms = [(P._table(), Q._table()) for P, Q in pairs]
    if ring.exact:
        if any(x is None or y is None for x, y in forms):
            return None
        dens = [x[3] * y[3] for x, y in forms]
        den = dens[0]  # one product's lcm, which the rule below cannot refuse
        if len(dens) > 1:
            den = math.lcm(*dens)
            if den.bit_length() > 2 * max(dens).bit_length() + _LIFT_SLACK:
                return None
    # slots are graded, so the (d, v) table is the prefix of the (d, K) one
    # and its slots index the forms in place
    monos, ijt = _monomials(d, v)[0], _flat_pairs(d, v, len(pairs), len(_monomials(d, K)[0]))
    if ring.exact:
        return _exact_sum(forms, dens, den, ijt, monos)
    return _float_sum(forms, ijt, monos)


def _dot(pairs, ring, v: int) -> dict:
    """The sum of the products of the series pairs through degree v <= K,
    the validity of the result, as a coefficient dict; {} for v < 0.  A
    pair with an empty operand adds nothing.  A lone pair with a one-term
    operand is a _shift_mul; the others go through one table pass when the
    ring's table times the pairs is at most _MAX_PAIRS table pairs.  A lone
    pair past that cap, or whose pack is refused, is a _mul; a sum that
    cannot take one pass is the fold of its single products, each on its
    own route."""
    d, K = ring.d, ring.K
    if v < 0:
        return {}
    pairs = [(P, Q) for P, Q in pairs if P.coeffs and Q.coeffs]
    if len(pairs) == 1:
        a, b = pairs[0][0].coeffs, pairs[0][1].coeffs
        if len(a) == 1 or len(b) == 1:
            return _shift_mul(a, b, d, K, v)
    if pairs and len(pairs) * math.comb(2 * d + K, K) <= _MAX_PAIRS:
        coeffs = _table_dot(pairs, ring, v)
        if coeffs is not None:
            return coeffs
    if len(pairs) == 1:
        return _mul(a, b, v)
    out = {}
    for pair in pairs:
        p = _dot([pair], ring, v)
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
    valid = min(min(P.valid, Q.valid) for P, Q in terms)
    return first._like(_dot(terms, ring, valid), valid)


def _product_coeff(P: "TruncatedSeries", Q: "TruncatedSeries", beta: tuple, acc):
    """acc plus the coefficient at beta of the stored terms of P times those
    of Q, whatever either's validity: each P_g Q_{beta - g} with beta - g
    stored in Q is added in P's storage order.  A difference with a negative
    entry is never a stored exponent, so it needs no test of its own."""
    q = Q.coeffs
    for g, c in P.coeffs.items():
        v = q.get(tuple(map(sub, beta, g)))
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
    __slots__ = ("ring", "coeffs", "valid", "_form")

    def __init__(self, ring: SeriesRing, coeffs: dict | None = None, valid: int | None = None):
        self.ring = ring
        items = coeffs.items() if coeffs else ()
        self.coeffs = {tuple(e): c for e, c in items if sum(e) <= ring.K and c}
        self.valid = ring.K if valid is None else min(int(valid), ring.K)
        self._form = _UNPACKED

    def _like(self, coeffs: dict, valid: int) -> "TruncatedSeries":
        """A series owning coeffs, which keep the storage contract: the results
        of +, *, - and diff do; other paths filter, as a float can underflow."""
        s = TruncatedSeries.__new__(TruncatedSeries)
        s.ring, s.valid, s._form = self.ring, valid, _UNPACKED
        s.coeffs = coeffs
        return s

    def _table(self):
        """The table form of this series, _pack of its coefficients: packed
        on first use and kept, as the storage is never written after."""
        if self._form is _UNPACKED:
            self._form = _pack(self.coeffs, self.ring)
        return self._form

    # -- access ------------------------------------------------------------------

    def coeff(self, exps) -> object:
        v = self.coeffs.get(tuple(exps))
        return self.ring.zero_scalar() if v is None else v

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
        valid = min(self.valid, other.valid)
        return self._like(_dot([(self, other)], self.ring, valid), valid)

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
        out = {(0,) * self.ring.d: inv0}
        for deg in range(1, self.valid + 1):
            # the terms below deg as one series, so the constant term adds nothing
            known, out = self._like(out, deg - 1), dict(out)
            for alpha in exponents_of_degree(self.ring.d, deg):
                acc = _product_coeff(self, known, alpha, zero)
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
