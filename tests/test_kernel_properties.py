"""Properties tying Poly arithmetic to its Taylor expansion about a center.

SeriesRing.from_poly is a ring homomorphism onto the truncated series, it
commutes with differentiation below the truncation order, and for K at
least the degree it loses nothing: evaluation agrees with the polynomial
and expanding back to absolute coordinates returns the polynomial.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from strata.polynomials import Poly
from strata.scalars import ComplexRational
from strata.schemas import _series_to_absolute_poly
from strata.series import SeriesRing, exponents_of_degree

_parts = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_scalars = st.builds(ComplexRational, _parts, _parts)


@st.composite
def _case(draw):
    d = draw(st.integers(1, 3))
    monomials = [e for deg in range(4) for e in exponents_of_degree(d, deg)]

    def poly():
        return Poly(d, draw(st.dictionaries(st.sampled_from(monomials), _scalars, max_size=5)), True)

    p, q = poly(), poly()
    center = draw(st.lists(_scalars, min_size=d, max_size=d))
    point = draw(st.lists(_scalars, min_size=d, max_size=d))
    K = draw(st.integers(0, 4))
    return p, q, SeriesRing(d, K, center, exact=True), point


def _through(s, deg):
    return {e: c for e, c in s.coeffs.items() if sum(e) <= deg}


@settings(max_examples=60, deadline=None)
@given(_case())
def test_from_poly_is_a_truncated_ring_homomorphism(case):
    p, q, ring, _ = case
    assert ring.from_poly(p * q).coeffs == (ring.from_poly(p) * ring.from_poly(q)).coeffs
    assert ring.from_poly(p + q).coeffs == (ring.from_poly(p) + ring.from_poly(q)).coeffs


@settings(max_examples=60, deadline=None)
@given(_case(), st.data())
def test_from_poly_commutes_with_diff(case, data):
    p, _, ring, _ = case
    a = data.draw(st.integers(0, ring.d - 1))
    lhs = ring.from_poly(p.diff(a))
    rhs = ring.from_poly(p).diff(a)
    assert rhs.valid == ring.K - 1
    assert _through(lhs, ring.K - 1) == _through(rhs, ring.K - 1)


@settings(max_examples=60, deadline=None)
@given(_case())
def test_expansion_loses_nothing_when_K_covers_the_degree(case):
    p, _, ring, point = case
    if ring.K < p.degree():
        return
    s = ring.from_poly(p)
    assert s.eval(point) == p.eval(point)
    assert _series_to_absolute_poly(s) == p


def test_expansion_about_a_center_by_hand():
    # x^2 y about (1, -1/2): (u + 1)^2 (v - 1/2) with u = x - 1, v = y + 1/2
    x, y = Poly.variable(2, 0, True), Poly.variable(2, 1, True)
    ring = SeriesRing(2, 3, [1, Fraction(-1, 2)], exact=True)
    s = ring.from_poly(x * x * y)
    half = ComplexRational(Fraction(1, 2))
    assert s.coeffs == {
        (0, 0): -half, (1, 0): ComplexRational(-1), (2, 0): -half,
        (0, 1): ComplexRational(1), (1, 1): ComplexRational(2), (2, 1): ComplexRational(1),
    }
    assert _series_to_absolute_poly(s) == x * x * y
