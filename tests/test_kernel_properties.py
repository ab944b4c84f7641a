"""Properties tying Poly arithmetic to its Taylor expansion about a center.

SeriesRing.from_poly is a ring homomorphism onto the truncated series, it
commutes with differentiation below the truncation order, and for K at
least the degree it loses nothing: evaluation agrees with the polynomial
and expanding back to absolute coordinates returns the polynomial.
The results of series arithmetic keep the storage contract: no stored
zero and no stored degree above K, also where float products underflow;
and the solvers, the gauge ladder and the CLI never read that storage.
The jet recursion and the oracle read the multipliers of their unknowns
only through the engine's row builders, and never read its loaded series
or its store.
No module imports sympy, and the series kernel does not import fractions.
The dense float product agrees with the sparse reference ``_mul``: within
the rounding of a reordered sum everywhere, and bit for bit when both
operands are stored in table order.  The exact product through the same
table equals ``_mul``, and operands whose common denominator is too long,
or rings past the pair cap, never touch the table.  A product with a
one-term operand is a shift and a scale that reads no table: exact, it
equals ``_mul``; float, it equals the table route bit for bit up to the
sign of a zero; and it comes back in table order.  A sum of products
``series.dot`` equals the fold of its ``_mul`` products exactly and has
its validity, lies within the rounding of a reordered sum of the fold in
float mode, is the product itself for one pair, and folds its single
products where the combined denominator or the pair cap is passed.
Products and sums store no term above their validity; within it they
equal the fold exactly and the unbounded route bit for bit, and a result
valid nowhere is empty.  A single product coefficient, ``_product_coeff``,
reads the stored terms above their validity too and equals the fold's, and
a series times its inverse is one through its validity.
A series packs its table form once and keeps it, so nothing may write its
coefficients after construction: a kept form equals a fresh pack, a sum
over kept forms equals one over fresh operands (in float mode bit for bit,
and equal to the table-order sum), and a refused pack stays refused.
"""

import ast
import math
from collections import defaultdict
from fractions import Fraction
from itertools import chain
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata import darboux, polynomials, series
from strata.errors import ShapeError
from strata.polynomials import Poly, _mul
from strata.scalars import ComplexRational
from strata.schemas import _series_to_absolute_poly
from strata.series import SeriesRing, TruncatedSeries, exponents_of_degree

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


# float parts near 1e-200 multiply to 0.0, so products can underflow
_float_parts = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-200, -1e-200, 3e-201])
_float_scalars = st.builds(complex, _float_parts, _float_parts)
_zero_or_exact = st.just(ComplexRational(0)) | _scalars


@st.composite
def _series_pair(draw, exact):
    d = draw(st.integers(1, 3))
    K = draw(st.integers(0, 3))
    ring = SeriesRing(d, K, [0] * d, exact=exact)
    # degree K + 1 too: the constructor must drop it
    monomials = [e for deg in range(K + 2) for e in exponents_of_degree(d, deg)]
    scalars = _zero_or_exact if exact else _float_scalars

    def series():
        return TruncatedSeries(ring, draw(st.dictionaries(st.sampled_from(monomials), scalars,
                                                          max_size=6)))

    a, b = series(), series()
    # the negated part of a makes the sum cancel there
    keep = draw(st.sets(st.sampled_from(monomials)))
    b = b + TruncatedSeries(ring, {e: -c for e, c in a.coeffs.items() if e in keep})
    return a, b


def _keeps_contract(s):
    return all(c != 0 and sum(e) <= s.ring.K for e, c in s.coeffs.items())


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_arithmetic_results_keep_the_storage_contract(exact, data):
    a, b = data.draw(_series_pair(exact))
    results = [a, b, a + b, a - b, a - a, a * b, a * a, -a]
    results += [a.diff(i) for i in range(a.ring.d)]
    for s in results:
        assert _keeps_contract(s), s.coeffs
        assert list(s.items()) == list(s.coeffs.items())
        for t in range(-1, s.ring.K + 2):
            assert list(s.items(t)) == [(e, c) for e, c in s.coeffs.items() if sum(e) <= t]
    assert (a - a).is_zero() and not (a - a).coeffs


def test_solver_gauge_and_cli_code_never_read_series_storage():
    # series owns TruncatedSeries.coeffs; these modules read coeff, items
    # and constant_term
    src = Path(series.__file__).parent
    reads = [f"{name}:{n.lineno} {ast.unparse(n)}"
             for name in ("darboux.py", "gauge.py", "cli.py")
             for n in ast.walk(ast.parse((src / name).read_text()))
             if isinstance(n, ast.Attribute) and n.attr == "coeffs"]
    assert reads == []


def test_jet_solvers_read_multipliers_only_through_the_rows():
    # _Engine.de1_row, de2_row and de2_links own the multipliers of the
    # unknowns; the recursion and the oracle never read the data they are
    # formed from, nor the loaded series or the store, which _store writes
    tree = ast.parse(Path(darboux.__file__).read_text())
    engine = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Engine")
    solvers = [n for n in tree.body + engine.body if isinstance(n, ast.FunctionDef)
               and n.name in ("de_oracle_solve", "advance_level")]
    reads = [f"{f.name}:{n.lineno} {ast.unparse(n)}" for f in solvers for n in ast.walk(f)
             if isinstance(n, ast.Attribute)
             and n.attr in ("D", "d0", "kappa", "delta", "q1", "q2", "F", "dF", "FF", "C")]
    assert len(solvers) == 2 and reads == []


def _writes_into_coeffs(node) -> bool:
    """node stores into, deletes from or mutates the dict at some X.coeffs."""
    def at_coeffs(x):
        return isinstance(x, ast.Attribute) and x.attr == "coeffs"
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return at_coeffs(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in _DICT_MUTATORS and at_coeffs(node.func.value)
    return False


_DICT_MUTATORS = {"update", "pop", "popitem", "clear", "setdefault", "__setitem__", "__delitem__"}


def test_series_storage_is_written_only_at_construction():
    # a series keeps its table form from its first product on, so nothing
    # may write its coefficients after construction: no module, test or
    # benchmark writes into a .coeffs dict, and in series only __init__
    # (which copies its input) and _like (which takes a fresh dict) assign
    # the attribute; Poly assigns its own in its constructors
    root = Path(series.__file__).parents[2]
    paths = sorted(chain.from_iterable((root / d).glob("*.py") for d in ("src/strata", "tests", "perfbench")))
    writes = [f"{path.name}:{n.lineno} {ast.unparse(n)}" for path in paths
              for n in ast.walk(ast.parse(path.read_text())) if _writes_into_coeffs(n)]
    assert len(paths) > 30 and writes == []
    owners = sorted(f"{path.name}:{f.name}" for path in paths
                    for f in ast.walk(ast.parse(path.read_text())) if isinstance(f, ast.FunctionDef)
                    if any(isinstance(t, ast.Attribute) and t.attr == "coeffs"
                           for n in ast.walk(f) if isinstance(n, ast.Assign) for t in n.targets))
    assert owners == ["polynomials.py:__init__", "polynomials.py:_like", "polynomials.py:to_float",
                      "series.py:__init__", "series.py:_like"]


def _import_roots(node) -> list:
    if isinstance(node, ast.Import):
        return [a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module.split(".")[0]]
    return []


def test_no_module_imports_sympy():
    # numpy is the one runtime dependency; exact algebra is strata's own
    src = Path(series.__file__).parent
    imports = [f"{path.name}:{n.lineno} {ast.unparse(n)}"
               for path in sorted(src.glob("*.py"))
               for n in ast.walk(ast.parse(path.read_text()))
               if "sympy" in _import_roots(n)]
    assert imports == []


def test_series_does_not_import_fractions():
    # exact products sum the scalars' integer fields; Fraction arithmetic
    # belongs to the printing views of strata.scalars
    tree = ast.parse(Path(series.__file__).read_text())
    imports = [ast.unparse(n) for n in ast.walk(tree) if "fractions" in _import_roots(n)]
    assert imports == []


# -- the dense float product against the sparse reference ---------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("K", range(9))
def test_pair_table_lists_every_product_in_slot_order(d, K):
    monos, slot, I, J, T = series._pair_table(d, K)
    assert monos == [e for deg in range(K + 1) for e in exponents_of_degree(d, deg)]
    assert slot == {e: i for i, e in enumerate(monos)}
    pairs = [(i, j) for i in range(len(monos)) for j in range(len(monos))
             if sum(monos[i]) + sum(monos[j]) <= K]
    assert list(zip(I.tolist(), J.tolist())) == pairs
    assert len(pairs) == math.comb(2 * d + K, K)
    assert [monos[t] for t in T.tolist()] == [
        tuple(x + y for x, y in zip(monos[i], monos[j])) for i, j in pairs]
    assert I.dtype == J.dtype == T.dtype == np.int32


def test_pair_table_size_at_d3_k8():
    monos, _, I, _, _ = series._pair_table(3, 8)
    assert (len(monos), len(I)) == (165, 3003)


def _part(rnd):
    return rnd.choice([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, rnd.uniform(-4, 4), rnd.uniform(-4, 4)])


@st.composite
def _float_product(draw):
    """(ring, a, b): coefficient dicts of a float ring, each empty, sparse or
    dense and stored in a shuffled order; or a pair whose product cancels to
    an exact zero; either one may hold an infinite part."""
    d, K = draw(st.integers(1, 3)), draw(st.integers(0, 8))
    rnd = draw(st.randoms(use_true_random=True))
    monos = [e for deg in range(K + 1) for e in exponents_of_degree(d, deg)]
    kinds = draw(st.sampled_from(["empty", "sparse", "dense", "cancel"]))

    def operand(kind):
        support = {"empty": [], "sparse": rnd.sample(monos, min(len(monos), rnd.randint(1, 6))),
                   "dense": list(monos)}[kind]
        rnd.shuffle(support)
        return {e: complex(_part(rnd), _part(rnd)) for e in support}

    if kinds == "cancel":
        # (c + s m)(c - s m): the two products at m are negatives of each other
        m, c, v = rnd.choice(monos[1:] or monos), complex(_part(rnd), 1.0), complex(_part(rnd), 2.0)
        a, b = {(0,) * d: c, m: v}, {(0,) * d: c, m: -v}
    else:
        a = operand(kinds)
        b = operand(draw(st.sampled_from(["empty", "sparse", "dense"])))
    if a and draw(st.booleans()):
        e = rnd.choice(list(a))
        a[e] = complex(math.inf, a[e].imag) if rnd.random() < 0.5 else complex(a[e].real, -math.inf)
    ring = SeriesRing(d, K, [0] * d)
    return ring, TruncatedSeries(ring, a).coeffs, TruncatedSeries(ring, b).coeffs


def _terms(a, b, K):
    """The terms of each product coefficient, in the sparse loop's order."""
    terms = defaultdict(list)
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if sum(e1) + sum(e2) <= K:
                terms[tuple(x + y for x, y in zip(e1, e2))].append(c1 * c2)
    return terms


def _within_reordering(x, y, parts):
    """x and y are sums of the floats parts in two orders: equal where not
    finite, and within 2 gamma_(m-1) sum |parts| otherwise (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., section 4.2)."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return x == y or (math.isnan(x) and math.isnan(y))
    m = len(parts)
    gamma = (m - 1) * 2.0 ** -53 / (1 - (m - 1) * 2.0 ** -53)
    return abs(x - y) <= 2 * gamma * math.fsum(abs(t) for t in parts)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_float_product())
def test_dense_product_agrees_with_sparse(case):
    ring, a, b = case
    product = TruncatedSeries(ring, a) * TruncatedSeries(ring, b)
    assert _keeps_contract(product)
    dense = product.coeffs
    sparse = _mul(a, b, ring.K)
    terms = _terms(a, b, ring.K)
    assert set(dense) <= set(terms) and set(sparse) <= set(terms)
    for e, ts in terms.items():
        x, y = dense.get(e, 0j), sparse.get(e, 0j)
        assert _within_reordering(x.real, y.real, [t.real for t in ts]), (e, x, y)
        assert _within_reordering(x.imag, y.imag, [t.imag for t in ts]), (e, x, y)


def _bits(c: dict) -> dict:
    """Each coefficient's parts as exact hex strings; a zero part's sign is
    not counted, as == and the encoder do not count it."""
    return {e: ((z.real + 0.0).hex(), (z.imag + 0.0).hex()) for e, z in c.items()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_float_product())
def test_dense_product_is_bit_equal_in_table_order(case):
    ring, a, b = case
    monos = series._pair_table(ring.d, ring.K)[0]
    a, b = ({e: c[e] for e in monos if e in c} for c in (a, b))
    pair = (TruncatedSeries(ring, a), TruncatedSeries(ring, b))
    assert _bits(series._dot([pair], ring, ring.K)) == _bits(_mul(a, b, ring.K))


@st.composite
def _exact_product(draw):
    """(ring, a, b): exact coefficient dicts of every kind the route must
    keep apart: empty, single-term, integer-only (denominator 1), real,
    purely imaginary, general, and a pair whose product cancels to zero
    in one slot."""
    d, K = draw(st.integers(1, 3)), draw(st.integers(0, 8))
    monos = [e for deg in range(K + 1) for e in exponents_of_degree(d, deg)]
    ints = st.builds(ComplexRational, st.integers(-5, 5), st.integers(-5, 5))
    real = st.builds(ComplexRational, _parts)
    imaginary = st.builds(ComplexRational, st.just(0), _parts)
    kind = {"integer": ints, "real": real, "imaginary": imaginary, "general": _scalars}

    def operand():
        size = draw(st.sampled_from(["empty", "single", "sparse", "dense"]))
        support = {"empty": [], "single": [draw(st.sampled_from(monos))],
                   "sparse": draw(st.lists(st.sampled_from(monos), max_size=6)),
                   "dense": monos}[size]
        values = kind[draw(st.sampled_from(sorted(kind)))]
        return {e: draw(values) for e in support}

    if draw(st.booleans()):
        # (c + v m)(c - v m): the two terms at m cancel
        m = draw(st.sampled_from(monos[1:] or monos))
        c, v = (draw(_scalars.filter(bool)) for _ in range(2))
        a, b = {(0,) * d: c, m: v}, {(0,) * d: c, m: -v}
    else:
        a, b = operand(), operand()
    ring = SeriesRing(d, K, [0] * d, exact=True)
    return ring, TruncatedSeries(ring, a).coeffs, TruncatedSeries(ring, b).coeffs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_exact_product())
def test_exact_dense_product_equals_sparse(case):
    ring, a, b = case
    product = (TruncatedSeries(ring, a) * TruncatedSeries(ring, b)).coeffs
    assert product == _mul(a, b, ring.K)
    assert all(c != 0 and sum(e) <= ring.K for e, c in product.items())
    monos = series._pair_table(ring.d, ring.K)[0]
    assert list(product) == [e for e in monos if e in product]
    assert series._dot([(TruncatedSeries(ring, a), TruncatedSeries(ring, b))], ring, ring.K) == product


def _no_table(*args):
    raise AssertionError("the product used the dense table")


def _prime_series():
    """84 coefficients over distinct primes near 2^25: the common denominator
    has thousands of bits, past the lift's _LIFT_SLACK rule."""
    rnd = Random(7)
    primes = [p for p in range(2 ** 25 - 4000, 2 ** 25) if all(p % q for q in range(2, 5793))]
    ring = SeriesRing(3, 6, [0] * 3, exact=True)
    monos = [e for deg in range(7) for e in exponents_of_degree(3, deg)]
    return ring, TruncatedSeries(ring, {e: ComplexRational(Fraction(rnd.randrange(1, 2 ** 25), p))
                                        for e, p in zip(monos, rnd.sample(primes, len(monos)))})


def test_unrelated_denominators_multiply_sparsely(monkeypatch):
    # the pack refuses the common denominator before the table is read
    ring, s = _prime_series()
    assert len(s.coeffs) == 84 and series._pack(s.coeffs, ring) is None
    monkeypatch.setattr(series, "_pair_table", _no_table)
    assert (s * s).coeffs == _mul(s.coeffs, s.coeffs, ring.K)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_rings_beyond_the_pair_cap_multiply_sparsely(monkeypatch, exact):
    d, K = 10, 10
    assert math.comb(2 * d + K, K) > series._MAX_PAIRS
    monkeypatch.setattr(series, "_pair_table", _no_table)
    ring = SeriesRing(d, K, [0] * d, exact=exact)
    s = ring.var(0) + ring.var(9).scale(Fraction(5, 2))
    assert (s * s).coeffs == _mul(s.coeffs, s.coeffs, K)


# -- one-term operands: a shift and a scale ------------------------------------------


@st.composite
def _one_term_product(draw):
    """(ring, a, b): one operand a single term c x^e, with |e| up to K + 1
    and c often 1, and the other empty, single-term, sparse or dense, stored
    in a shuffled order, in either position; float operands may hold an
    infinite or NaN part."""
    exact = draw(st.booleans())
    d, K = draw(st.integers(1, 3)), draw(st.integers(0, 8))
    rnd = draw(st.randoms(use_true_random=True))
    monos = [e for deg in range(K + 1) for e in exponents_of_degree(d, deg)]
    e = draw(st.sampled_from([e for deg in range(K + 2) for e in exponents_of_degree(d, deg)]))

    def scalar():
        if exact:
            return draw(_scalars.filter(bool))
        return complex(_part(rnd), _part(rnd)) or 1j

    one = {e: (ComplexRational(1) if exact else 1 + 0j) if draw(st.booleans()) else scalar()}
    size = draw(st.sampled_from(["empty", "single", "sparse", "dense"]))
    support = {"empty": [], "single": [rnd.choice(monos)],
               "sparse": rnd.sample(monos, min(len(monos), rnd.randint(1, 6))),
               "dense": list(monos)}[size]
    rnd.shuffle(support)
    other = {g: scalar() for g in support}
    if not exact and draw(st.booleans()):
        target = draw(st.sampled_from(["one", "other"]))
        held = one if target == "one" or not other else other
        g = rnd.choice(list(held))
        bad = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        held[g] = complex(bad, held[g].imag) if rnd.random() < 0.5 else complex(held[g].real, bad)
    a, b = (one, other) if draw(st.booleans()) else (other, one)
    return SeriesRing(d, K, [0] * d, exact=exact), a, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_one_term_product())
def test_one_term_product_is_a_shift_and_scale(case):
    ring, a, b = case
    d, K = ring.d, ring.K
    monos = series._monomials(d, K)[0]
    # a degree K + 1 term is dropped when the operand is stored
    A, B = TruncatedSeries(ring, a), TruncatedSeries(ring, b)
    product = (A * B).coeffs
    assert _keeps_contract(A * B)
    assert list(product) == [e for e in monos if e in product]
    if ring.exact:
        assert product == _mul(a, b, K)
        return
    if A.coeffs and B.coeffs:
        table = series._table_dot([(A, B)], ring, (A * B).valid)
        assert list(product) == list(table)
        assert _bits(product) == _bits(table)
    else:
        assert product == {}


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_one_term_product_reads_no_table_and_no_lift(monkeypatch, exact):
    ring = SeriesRing(3, 4, [0] * 3, exact=exact)
    s = (ring.var(0) + ring.var(1).scale(Fraction(2, 3))) * ring.var(2) + ring.one()
    monkeypatch.setattr(series, "_pair_table", _no_table)
    monkeypatch.setattr(series, "_pack", _no_table)
    m = ring.var(1).scale(Fraction(-5, 7))
    for p in (m * s, s * m):
        assert p.coeffs == _mul(s.coeffs, m.coeffs, ring.K)


# -- sums of products: one table pass -------------------------------------------------


@st.composite
def _dot_case(draw, exact):
    """(ring, pairs): one to four (P, Q) pairs of a ring with d 1-3 and K
    0-8, each operand empty, single-term, sparse or dense, stored in a
    shuffled order and valid through a drawn degree; float operands may
    hold an infinite or NaN part."""
    d, K = draw(st.integers(1, 3)), draw(st.integers(0, 8))
    rnd = draw(st.randoms(use_true_random=True))
    ring = SeriesRing(d, K, [0] * d, exact=exact)
    monos = [e for deg in range(K + 1) for e in exponents_of_degree(d, deg)]

    def scalar():
        if exact:
            return draw(_scalars.filter(bool))
        return complex(_part(rnd), _part(rnd)) or 1j

    def operand():
        size = draw(st.sampled_from(["empty", "single", "sparse", "dense"]))
        support = {"empty": [], "single": [rnd.choice(monos)],
                   "sparse": rnd.sample(monos, min(len(monos), rnd.randint(1, 6))),
                   "dense": list(monos)}[size]
        rnd.shuffle(support)
        coeffs = {e: scalar() for e in support}
        if coeffs and not exact and draw(st.integers(0, 5)) == 0:
            e = rnd.choice(list(coeffs))
            bad = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
            coeffs[e] = complex(bad, coeffs[e].imag) if rnd.random() < 0.5 else complex(coeffs[e].real, bad)
        return TruncatedSeries(ring, coeffs, draw(st.integers(-1, K)))

    return ring, [(operand(), operand()) for _ in range(draw(st.integers(1, 4)))]


def _fold(pairs, K):
    """The sum of the sparse products _mul(P, Q), added in pair order."""
    out = {}
    for P, Q in pairs:
        out = polynomials._add(out, _mul(P.coeffs, Q.coeffs, K))
    return out


def _cut(coeffs: dict, v: int) -> dict:
    """The terms of coeffs of degree <= v."""
    return {e: c for e, c in coeffs.items() if sum(e) <= v}


def _in_table_order(ring, coeffs):
    monos = series._monomials(ring.d, ring.K)[0]
    return list(coeffs) == [e for e in monos if e in coeffs]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_dot_case(True))
def test_exact_dot_equals_the_fold_of_products(case):
    ring, pairs = case
    total = series.dot(pairs)
    assert total.coeffs == _cut(_fold(pairs, ring.K), total.valid)
    assert total.valid == sum((P * Q for P, Q in pairs[1:]), pairs[0][0] * pairs[0][1]).valid
    assert _keeps_contract(total) and _in_table_order(ring, total.coeffs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_dot_case(False))
def test_float_dot_is_a_reordered_fold(case):
    ring, pairs = case
    total = series.dot(pairs)
    assert total.valid == min(min(P.valid, Q.valid) for P, Q in pairs)
    assert _keeps_contract(total) and _in_table_order(ring, total.coeffs)
    fold = _cut(_fold(pairs, ring.K), total.valid)
    terms = defaultdict(list)
    for P, Q in pairs:
        for e, ts in _terms(P.coeffs, Q.coeffs, total.valid).items():
            terms[e] += ts
    assert set(total.coeffs) <= set(terms) and set(fold) <= set(terms)
    for e, ts in terms.items():
        x, y = total.coeffs.get(e, 0j), fold.get(e, 0j)
        assert _within_reordering(x.real, y.real, [t.real for t in ts]), (e, x, y)
        assert _within_reordering(x.imag, y.imag, [t.imag for t in ts]), (e, x, y)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([True, False]).flatmap(_dot_case))
def test_products_form_only_the_terms_within_their_validity(case):
    ring, pairs = case
    P, Q = pairs[0]
    for result, terms in ((P * Q, [(P, Q)]), (series.dot(pairs), pairs)):
        v = result.valid
        assert all(sum(e) <= v for e in result.coeffs)
        unbounded = _cut(series._dot(terms, ring, ring.K), v)
        if ring.exact:
            assert result.coeffs == unbounded == _cut(_fold(terms, ring.K), v)
        else:
            assert list(result.coeffs) == list(unbounded)
            assert _bits(result.coeffs) == _bits(unbounded)
    # a single coefficient reads the stored terms whatever their validity
    zero, fold = ring.zero_scalar(), _fold([(P, Q)], ring.K)
    for beta in series._monomials(ring.d, ring.K)[0]:
        if sum(beta) <= min(P.valid, Q.valid):
            continue
        got, want = series._product_coeff(P, Q, beta, zero), fold.get(beta, zero)
        assert got == want if ring.exact else _bits({beta: got}) == _bits({beta: want})


@settings(max_examples=80, deadline=None)
@given(_case(), st.data())
def test_a_series_times_its_inverse_is_one_through_its_validity(case, data):
    p, _, ring, _ = case
    s = ring.from_poly(p)
    s = TruncatedSeries(ring, dict((s if s.constant_term() else s + 1).items()),
                        data.draw(st.integers(0, ring.K)))
    inv = s.invert()
    assert inv.valid == s.valid and all(sum(e) <= s.valid for e, _ in inv.items())
    assert (s * inv - 1).is_zero()


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_products_valid_nowhere_form_nothing(monkeypatch, exact):
    ring = SeriesRing(2, 3, [0, 0], exact=exact)
    s = (ring.var(0) + ring.var(1).scale(Fraction(2, 3))) * ring.var(0) + ring.one()
    t = TruncatedSeries(ring, dict(s.items()), -1)
    monkeypatch.setattr(series, "_pair_table", _no_table)
    monkeypatch.setattr(series, "_pack", _no_table)
    for result in (s * t, t * s, series.dot([(s, s), (s, t)])):
        assert result.valid == -1 and result.coeffs == {}


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_sparse_routes_stop_at_the_validity(monkeypatch, exact):
    # a refused pack and a ring past the pair cap take _mul and the fold,
    # which stop at the validity too
    ring, s = _prime_series()
    cases = [(ring, [(s, TruncatedSeries(ring, dict(s.items()), 3))])] if exact else []
    ring = SeriesRing(10, 10, [0] * 10, exact=exact)
    s = ring.var(0) + ring.var(9).scale(Fraction(5, 2)) + ring.one()
    t = TruncatedSeries(ring, dict((s * s * s).items()), 2)
    cases += [(ring, [(s, t)]), (ring, [(s, t), (t, s), (s, s)])]
    monkeypatch.setattr(series, "_pair_table", _no_table)
    for ring, pairs in cases:
        total = series.dot(pairs)
        assert total.valid < ring.K and total.coeffs == _cut(_fold(pairs, ring.K), total.valid)
        assert max(map(sum, _fold(pairs, ring.K))) > total.valid


def _all_pairs_float_sum(forms, ijt, monos):
    """series._float_sum over every table pair, empty slots included: where
    an operand holds inf or NaN, the terms of pairs with an empty slot are
    zeroed after they are formed, so no 0 * inf makes a NaN."""
    n, (i, j, t) = len(monos), ijt
    xv, yv = (np.concatenate(side) for side in zip(*forms))
    xr, xi, yr, yi = xv.real[i], xv.imag[i], yv.real[j], yv.imag[j]
    out = np.empty(n, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        re, im = xr * yr - xi * yi, xr * yi + xi * yr
        if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
            empty = (xv == 0)[i] | (yv == 0)[j]
            re[empty], im[empty] = 0.0, 0.0
        out.real = np.bincount(t, re, n)
        out.imag = np.bincount(t, im, n)
    keep = np.flatnonzero(out).tolist()
    return dict(zip(map(monos.__getitem__, keep), out[keep].tolist()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_dot_case(False))
def test_float_pass_over_occupied_pairs_is_the_all_pairs_pass(case):
    # leaving out the pairs with an empty slot changes no bit of any sum,
    # the sign of a zero part included, with or without inf and NaN
    ring, pairs = case
    pairs = [(P, Q) for P, Q in pairs if P.coeffs and Q.coeffs]
    v = min([min(P.valid, Q.valid) for P, Q in pairs], default=-1)
    if v < 0:
        return
    forms = [(P._table(), Q._table()) for P, Q in pairs]
    monos = series._monomials(ring.d, v)[0]
    ijt = series._flat_pairs(ring.d, v, len(pairs), len(series._monomials(ring.d, ring.K)[0]))
    got, want = series._float_sum(forms, ijt, monos), _all_pairs_float_sum(forms, ijt, monos)
    assert list(got) == list(want)
    assert [(z.real.hex(), z.imag.hex()) for z in got.values()] == [
        (z.real.hex(), z.imag.hex()) for z in want.values()]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_dot_case(False))
def test_one_pair_float_dot_is_the_product(case):
    ring, pairs = case
    P, Q = pairs[0]
    one, product = series.dot([(P, Q)]), P * Q
    assert list(one.coeffs) == list(product.coeffs) and one.valid == product.valid
    assert _bits(one.coeffs) == _bits(product.coeffs)
    monos = series._pair_table(ring.d, ring.K)[0]
    a, b = ({e: c[e] for e in monos if e in c} for c in (P.coeffs, Q.coeffs))
    assert _bits(series.dot([(TruncatedSeries(ring, a), TruncatedSeries(ring, b))]).coeffs) == \
        _bits(_mul(a, b, ring.K))


def _prime_terms(count, seed):
    """count pairs (c/p x-terms, integer series) over distinct primes p near
    2^25: each operand's lift is accepted, and the products' denominators
    are pairwise coprime."""
    rnd = Random(seed)
    primes = [p for p in range(2 ** 25 - 4000, 2 ** 25) if all(p % q for q in range(2, 5793))]
    ring = SeriesRing(2, 4, [0, 0], exact=True)
    monos = [e for deg in range(5) for e in exponents_of_degree(2, deg)]
    pairs = []
    for p in rnd.sample(primes, count):
        P = TruncatedSeries(ring, {e: ComplexRational(Fraction(rnd.randrange(1, p), p))
                                   for e in rnd.sample(monos, 4)})
        Q = TruncatedSeries(ring, {e: ComplexRational(rnd.randrange(-9, 10), 1)
                                   for e in rnd.sample(monos, 5)})
        pairs.append((P, Q))
    return ring, pairs


@pytest.mark.parametrize("count, tabled", [(2, True), (8, False)])
def test_unrelated_product_denominators_fold_past_the_slack(count, tabled):
    # two products over 25-bit primes share a 50-bit denominator, within
    # twice 50 bits plus _LIFT_SLACK; eight share 200 bits, past it
    ring, pairs = _prime_terms(count, 11)
    assert (series._table_dot(pairs, ring, ring.K) is not None) == tabled
    assert series.dot(pairs).coeffs == _fold(pairs, ring.K)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_sums_past_the_pair_cap_fold_without_a_table(monkeypatch, exact):
    d, K = 10, 10
    monkeypatch.setattr(series, "_pair_table", _no_table)
    ring = SeriesRing(d, K, [0] * d, exact=exact)
    s, t = ring.var(0) + ring.var(9).scale(Fraction(5, 2)), ring.var(3) - ring.one()
    pairs = [(s, t), (t, t), (s, s)]
    assert series.dot(pairs).coeffs == _fold(pairs, K)


def test_dot_refuses_series_of_another_ring():
    ring, other = SeriesRing(2, 3, [0, 0], exact=True), SeriesRing(2, 3, [0, 1], exact=True)
    s = ring.var(0) + ring.one()
    with pytest.raises(ShapeError):
        series.dot([(s, s), (s, other.var(1))])


# -- table forms: each operand packed once -------------------------------------------


def _same_form(x, y) -> bool:
    """Two table forms are equal: float vectors bit for bit, exact forms (or
    a refused None) field by field."""
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.tobytes() == y.tobytes()
    return x == y


def _table_order_sum(pairs, ring) -> dict:
    """The float sum as one table pass forms it: the table pairs of every
    product, product by product and in (i, j) order within each, each term
    a Python complex product added into its slot, a pair with an empty slot
    adding nothing; the nonzero slots in table order."""
    monos, _, I, J, T = series._pair_table(ring.d, ring.K)
    re, im = [0.0] * len(monos), [0.0] * len(monos)
    for P, Q in pairs:
        if not (P.coeffs and Q.coeffs):
            continue
        for i, j, t in zip(I.tolist(), J.tolist(), T.tolist()):
            x, y = P.coeffs.get(monos[i]), Q.coeffs.get(monos[j])
            if x is not None and y is not None:
                z = x * y
                re[t] += z.real
                im[t] += z.imag
    return {e: complex(u, v) for e, u, v in zip(monos, re, im) if complex(u, v) != 0}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([True, False]).flatmap(_dot_case))
def test_packed_operands_sum_as_unpacked_ones(case):
    ring, pairs = case
    reused = pairs + [(Q, P) for P, Q in reversed(pairs)]  # each operand read twice
    fresh = [tuple(TruncatedSeries(ring, dict(s.items()), s.valid) for s in pair) for pair in reused]
    total = series.dot(reused)
    for s in chain.from_iterable(reused):
        assert s._table() is s._table()  # packed once, then kept
        assert _same_form(s._table(), series._pack(dict(s.items()), ring))
    again, unpacked = series.dot(reused), series.dot(fresh)
    assert list(again.coeffs) == list(total.coeffs) == list(unpacked.coeffs)
    if ring.exact:
        assert total.coeffs == again.coeffs == unpacked.coeffs == _cut(_fold(reused, ring.K), total.valid)
        return
    assert _bits(total.coeffs) == _bits(again.coeffs) == _bits(unpacked.coeffs)
    assert _bits(total.coeffs) == _bits(_cut(_table_order_sum(reused, ring), total.valid))


def test_a_refused_pack_stays_refused_and_folds(monkeypatch):
    ring, s = _prime_series()
    t = TruncatedSeries(ring, {(0, 0, 0): ComplexRational(1), (0, 1, 0): ComplexRational(2, 1)})
    packed = []
    pack = series._pack

    def counted(c, r):
        packed.append(c)
        return pack(c, r)

    monkeypatch.setattr(series, "_pack", counted)
    monkeypatch.setattr(series, "_pair_table", _no_table)
    for _ in range(2):
        assert (s * t).coeffs == _mul(s.coeffs, t.coeffs, ring.K)
        assert series.dot([(s, t), (t, s)]).coeffs == _fold([(s, t), (t, s)], ring.K)
    assert s._table() is None and len(packed) == 2 and packed[0] is s.coeffs
