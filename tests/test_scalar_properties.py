"""ComplexRational against a Fraction-pair reference.

Every operator of the exact scalar is compared with ``Ref``, a Gaussian
rational kept as two Fractions, on drawn values that include 0, purely
imaginary and negative values, and numerators and denominators above 2^64.
After every operation the result is in normal form: (a + b*i)/q with ints
a, b, q, q > 0 and gcd(a, b, q) = 1.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata.errors import ValidationError
from strata.scalars import ComplexRational, nonzero_int
from strata.schemas import encode_scalar

PROPS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
BIG = 2 ** 80


class Ref:
    """re + im*i with Fraction parts: the reference arithmetic."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return Ref(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Ref(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Ref(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        den = o.re * o.re + o.im * o.im
        return Ref((self.re * o.re + self.im * o.im) / den, (self.im * o.re - self.re * o.im) / den)

    def __neg__(self):
        return Ref(-self.re, -self.im)


_numerators = st.just(0) | st.integers(-6, 6) | st.integers(-BIG, BIG)
_denominators = st.integers(1, 6) | st.integers(2 ** 64, BIG)
_parts = st.builds(Fraction, _numerators, _denominators)
# (real, imaginary): general, real, purely imaginary and zero values
_pairs = (st.tuples(_parts, _parts) | st.tuples(_parts, st.just(0))
          | st.tuples(st.just(0), _parts) | st.just((0, 0)))
_plain = st.integers(-BIG, BIG) | _parts

OPS = [operator.add, operator.sub, operator.mul, operator.truediv]
_ops = st.sampled_from(OPS)


def _normal(z) -> bool:
    a, b, q = z.a, z.b, z.q
    return (type(z) is ComplexRational and all(type(v) is int for v in (a, b, q))
            and q > 0 and math.gcd(a, b, q) == 1)


def _agrees(z, ref: Ref) -> bool:
    return _normal(z) and (z.re, z.im) == (ref.re, ref.im)


def _both(op, x, y):
    """op on the reference and on the scalar, or ZeroDivisionError from both."""
    try:
        want = op(x[1], y[1])
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(x[0], y[0])
        return None
    return op(x[0], y[0]), want


def _value(pair):
    return ComplexRational(*pair), Ref(*pair)


@PROPS
@given(_pairs, _pairs, _ops)
def test_binary_operators_match_the_reference(x, y, op):
    got = _both(op, _value(x), _value(y))
    if got is not None:
        assert _agrees(*got)


@PROPS
@given(_pairs, _plain, _ops)
def test_int_and_fraction_operands_on_either_side(x, v, op):
    (z, ref), plain = _value(x), (v, Ref(v))
    for left, right in [((z, ref), plain), (plain, (z, ref))]:
        got = _both(op, left, right)
        if got is not None:
            assert _agrees(*got)


@PROPS
@given(_pairs, _pairs)
def test_negation_equality_truth_and_hash(x, y):
    (z, ref), (w, wref) = _value(x), _value(y)
    assert _agrees(-z, -ref)
    assert (z == w) == ((ref.re, ref.im) == (wref.re, wref.im))
    assert bool(z) == (ref.re != 0 or ref.im != 0)
    # the same value reached along other paths has the same fields and hash
    for same in [ComplexRational(z.re, z.im), z + 0, z * 1, z - w + w]:
        assert same == z and (same.a, same.b, same.q) == (z.a, z.b, z.q)
        assert hash(same) == hash(z) == hash((ref.re, ref.im))
    if ref.im == 0:
        assert z == ref.re and ref.re == z
        if ref.re.denominator == 1:
            assert z == int(ref.re)


@PROPS
@given(_pairs)
def test_conversions_and_printing(x):
    z, ref = _value(x)
    assert complex(z) == complex(float(ref.re), float(ref.im))
    assert str(z) == (str(ref.re) if ref.im == 0 else f"({ref.re}+{ref.im}i)")
    assert repr(z) == f"ComplexRational({ref.re!r}, {ref.im!r})"
    assert encode_scalar(z) == [str(ref.re), str(ref.im)]
    m = int(ref.re) if ref.im == 0 and ref.re.denominator == 1 and ref.re != 0 else None
    assert nonzero_int(z, True) == m


@pytest.mark.parametrize("m", [-3, 1, BIG])
def test_nonzero_int_finds_integers(m):
    assert nonzero_int(ComplexRational(m), True) == m
    assert nonzero_int(ComplexRational(Fraction(m * BIG + 1, BIG)), True) is None
    assert nonzero_int(ComplexRational(m, Fraction(1, BIG)), True) is None


@pytest.mark.parametrize("zero", [0, Fraction(0), ComplexRational(0)], ids=["int", "Fraction", "exact"])
def test_division_by_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        ComplexRational(1, 2) / zero
    with pytest.raises(ZeroDivisionError):
        zero / ComplexRational(0)


@pytest.mark.parametrize("value", [ComplexRational(10 ** 400), ComplexRational(1, -10 ** 400),
                                   ComplexRational(Fraction(10 ** 800, 10 ** 400 + 1))])
def test_complex_beyond_the_float_range_raises(value):
    with pytest.raises(ValidationError):
        complex(value)
