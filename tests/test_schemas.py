"""JSON document encoding: exactness inference and round trips."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_solver_differential import _floated, _problems

from strata import schemas
from strata.darboux import DEProblem, de_solve_jet
from strata.errors import ShapeError, ValidationError
from strata.families import MatrixFamily
from strata.gauge import build_connection, connection_from_de, formal_simplify
from strata.polynomials import Poly
from strata.scalars import ComplexRational
from strata.series import SeriesMatrix, SeriesRing, TruncatedSeries, exponents_of_degree


def X(d, a):
    return Poly.variable(d, a, exact=True)


class TestScalars:
    def test_exact_round_trip(self):
        v = ComplexRational(Fraction(3, 7), Fraction(-1, 2))
        enc = schemas.encode_scalar(v)
        assert enc == ["3/7", "-1/2"]
        assert schemas.decode_scalar(enc) == v

    def test_int_and_fraction_promote_to_exact(self):
        assert schemas.encode_scalar(2) == ["2", "0"]
        assert schemas.encode_scalar(Fraction(1, 3)) == ["1/3", "0"]

    def test_float_stays_float(self):
        enc = schemas.encode_scalar(0.5 + 0.25j)
        assert enc == [0.5, 0.25]
        v = schemas.decode_scalar(enc)
        assert isinstance(v, complex) and v == 0.5 + 0.25j

    def test_bool_rejected(self):
        with pytest.raises(ValidationError):
            schemas.encode_scalar(True)

    def test_float_zero_prints_unsigned(self):
        assert json.dumps(schemas.encode_scalar(complex(-0.0, -0.0))) == "[0.0, 0.0]"
        assert json.dumps(schemas.encode_scalar(complex(-1.5, -0.0))) == "[-1.5, 0.0]"

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ShapeError):
            schemas.decode_const_matrix([[1, 2], [3]])

    def test_document_exactness_rule(self):
        assert schemas.document_is_exact({"a": ["1/2", "0"], "b": [1, 2]})
        assert not schemas.document_is_exact({"a": ["1/2", 0.5]})
        assert not schemas.document_is_exact([1, [2, [3.0]]])


class TestPolyDocuments:
    def test_exact_round_trip(self):
        p = X(2, 0) * X(2, 1) + Poly.constant(2, Fraction(1, 3), True)
        doc = schemas.encode_poly(p)
        q = schemas.decode_poly(doc, 2)
        assert q.exact and q == p

    def test_float_round_trip(self):
        p = (X(2, 0) + X(2, 1)).to_float()
        q = schemas.decode_poly(schemas.encode_poly(p), 2)
        assert not q.exact
        assert abs(q.eval([0.5, 0.25]) - 0.75) < 1e-15

    def test_zero_polynomial_has_no_float_leaf(self):
        # SCHEMAS.md, "Polynomial": [] decodes exact on its own
        doc = schemas.encode_poly(Poly(2, None, exact=False))
        assert doc == [] and schemas.decode_poly(doc, 2).exact

    def test_terms_sorted_deterministically(self):
        p = X(2, 1) + X(2, 0)
        doc1 = json.dumps(schemas.encode_poly(p))
        doc2 = json.dumps(schemas.encode_poly(X(2, 0) + X(2, 1)))
        assert doc1 == doc2


class TestSeriesDocuments:
    def test_series_round_trip(self):
        ring = SeriesRing(2, 3, ["0", "1"], exact=True)
        s = ring.var(0) * ring.var(1) + ring.one()
        doc = schemas.encode_series(s)
        t = schemas.decode_series(doc)
        assert t.ring.compatible(ring)
        assert (t - s).is_zero()

    def test_series_valid_preserved(self):
        ring = SeriesRing(1, 4, ["0"], exact=True)
        s = ring.var(0).diff(0)  # valid drops to 3
        t = schemas.decode_series(schemas.encode_series(s))
        assert t.valid == s.valid

    def test_matrix_round_trip(self):
        ring = SeriesRing(1, 3, ["2"], exact=True)
        m = ring.matrix([[ring.var(0), ring.one()], [ring.zero(), ring.var(0)]])
        doc = schemas.encode_series_matrix(m)
        m2 = schemas.decode_series_matrix(doc)
        assert (m2 - m).is_zero()


class TestFamilyDocuments:
    def test_round_trip_with_branches(self):
        x = X(1, 0)
        from strata.families import MatrixFamily

        fam = MatrixFamily(1, 2, [[x, Poly(1, None, True)], [Poly(1, None, True), x * x]],
                           [(x, 1), (x * x, 1)])
        doc = schemas.encode_matrix_family(fam)
        fam2 = schemas.decode_matrix_family(doc)
        assert fam2.d == 1 and fam2.n == 2
        assert fam2.entries[0][0] == x
        assert fam2.branches[0][0] == x and fam2.branches[1][1] == 1


class TestDEDocuments:
    def test_problem_round_trip(self):
        p = DEProblem(2, 2, ["0", "1"], [X(2, 0), X(2, 1)], ["0", "1/2"])
        F0 = [[0, Fraction(3, 2)], [Fraction(-2, 7), 0]]
        doc = schemas.encode_de_problem(p, F0)
        assert schemas.document_is_exact(doc)
        p2, F0b = schemas.decode_de_problem(doc)
        assert p2.d == 2 and p2.n == 2 and not p2.coalescent
        assert F0b[0][1] == ComplexRational(Fraction(3, 2), 0)
        jet1, _, _ = de_solve_jet(p, F0, 3)
        jet2, _, _ = de_solve_jet(p2, F0b, 3)
        assert (jet1.F - jet2.F).is_zero()

    def test_jet_round_trip(self):
        p = DEProblem(2, 2, ["0", "1"], [X(2, 0), X(2, 1)], ["0", "1/2"])
        jet, _, _ = de_solve_jet(p, [[0, 1], [1, 0]], 3)
        jet2 = schemas.decode_jet(schemas.encode_jet(jet))
        assert (jet.F - jet2.F).is_zero()


class TestConnectionDocuments:
    def test_framed_connection_round_trip(self):
        p = DEProblem(2, 2, ["0", "1"], [X(2, 0), X(2, 1)], ["0", "1/2"])
        jet, _, _ = de_solve_jet(p, [[0, Fraction(3, 2)], [Fraction(-2, 7), 0]], 5)
        conn = connection_from_de(p, jet)
        doc = schemas.encode_framed_connection(conn)
        conn2 = schemas.decode_framed_connection(doc)
        assert (conn2.L - conn.L).is_zero()
        assert (conn2.B - conn.B).is_zero()
        assert all((a - b).is_zero() for a, b in zip(conn2.omega, conn.omega))
        # simplification agrees across the round trip
        g1 = formal_simplify(conn, 3, mode="regular")
        g2 = formal_simplify(conn2, 3, mode="regular")
        assert all((a - b).is_zero() for a, b in zip(g1.F, g2.F))

    def test_gauge_series_round_trip(self):
        ring = SeriesRing(2, 4, ["0", "1"], exact=True)
        delta = SeriesMatrix([[ring.var(0), ring.zero()], [ring.zero(), ring.var(1)]])
        L = SeriesMatrix([[ring.zero(), ring.one()], [ring.one(), ring.zero()]])
        conn = build_connection(delta, ["0", "1/2"], L)
        gs = formal_simplify(conn, 4, mode="regular")
        gs2 = schemas.decode_gauge_series(schemas.encode_gauge_series(gs))
        assert len(gs2.F) == len(gs.F)
        assert all((a - b).is_zero() for a, b in zip(gs2.F, gs.F))


class TestPathDocuments:
    def test_path_round_trip(self):
        t = X(1, 0)
        path = [t, -t, Poly.constant(1, 1, True)]
        doc = schemas.encode_path(path)
        path2 = schemas.decode_path(doc, 3)
        assert all(a == b for a, b in zip(path, path2))

    def test_path_dimension_checked(self):
        t = X(1, 0)
        with pytest.raises(ValidationError):
            schemas.decode_path(schemas.encode_path([t, t]), 3)


class TestIntegerFields:
    @pytest.mark.parametrize("value", ["1", 1.0, 1.7, True, None, [1]])
    def test_only_json_integers_are_read(self, value):
        with pytest.raises(ValidationError):
            schemas._decode_int(value, "d")

    def test_lower_bound(self):
        assert schemas._decode_int(0, "an exponent", low=0) == 0
        with pytest.raises(ValidationError):
            schemas._decode_int(-1, "an exponent", low=0)


SRC = Path(__file__).resolve().parents[1] / "src" / "strata"


def _int_calls(path):
    """Calls of int(...) in a module outside schemas._decode_int; argparse's
    type=int names the builtin without calling it."""
    tree = ast.parse(path.read_text())
    reader = {id(n) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "_decode_int" for n in ast.walk(f)}
    return [f"{path.name}:{n.lineno} {ast.unparse(n)}" for n in ast.walk(tree)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "int"
            and id(n) not in reader]


def test_integer_fields_have_one_reader():
    assert [c for name in ("schemas.py", "cli.py") for c in _int_calls(SRC / name)] == []


# -- encode -> decode is the identity for every document type -----------------------
#
# Each document the encoders write, and each decode-only document (witness,
# 2x2 model) assembled from the encoders of its parts, decodes to the object
# it was written from and encodes back to the same document, in both modes.
# The subspace pair and the Pfaffian input are made of constant matrices and
# series matrices, whose round trips are checked here.

_FRACTIONS = st.fractions(-3, 3, max_denominator=4)
_FLOATS = st.floats(-1e3, 1e3, allow_nan=False)  # -0.0 and subnormals too
_SMALL_FLOATS = st.sampled_from([0.0, -0.0, 0.5, -1.25, 2.0, 0.1])


def _scalars(exact, small=False):
    if exact:
        return st.builds(ComplexRational, _FRACTIONS, _FRACTIONS)
    part = _SMALL_FLOATS if small else _FLOATS
    return st.builds(complex, part, part)


@st.composite
def _polys(draw, d, exact, small=False):
    """A polynomial of degree <= 3; a float one has a term, since an empty
    term list holds no float leaf and so reads as exact."""
    monos = [e for deg in range(4) for e in exponents_of_degree(d, deg)]
    terms = st.dictionaries(st.sampled_from(monos), _scalars(exact, small), max_size=4)
    return draw(terms.map(lambda c: Poly(d, c, exact)).filter(lambda p: exact or p.coeffs))


@st.composite
def _series_matrices(draw, exact, rows, cols):
    """A series matrix whose entries each have their own valid in -1..K."""
    d, K = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    ring = SeriesRing(d, K, draw(st.lists(_scalars(exact), min_size=d, max_size=d)), exact)
    monos = [e for deg in range(K + 1) for e in exponents_of_degree(d, deg)]
    terms = st.dictionaries(st.sampled_from(monos), _scalars(exact), max_size=4)
    return SeriesMatrix([[TruncatedSeries(ring, draw(terms), draw(st.integers(-1, K)))
                          for _ in range(cols)] for _ in range(rows)])


def _json(doc):
    return json.loads(json.dumps(doc))


def _round_trip(encode, decode, x):
    """decode(encode(x)) through JSON text, after checking that it encodes
    back to the same document."""
    doc = _json(encode(x))
    y = decode(doc)
    assert encode(y) == doc
    return y


def _same_series(a, b):
    return (a.ring.compatible(b.ring) and a.valid == b.valid
            and dict(a.items(a.valid)) == dict(b.items(b.valid)))


def _same_matrix(a, b):
    return a.shape == b.shape and all(
        _same_series(a[i, j], b[i, j]) for i in range(a.shape[0]) for j in range(a.shape[1]))


_MODES = pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
_IDENTITY = settings(max_examples=25, deadline=None, derandomize=True)


class TestEncodeDecodeIdentity:
    @_MODES
    @_IDENTITY
    @given(data=st.data())
    def test_scalar(self, exact, data):
        v = data.draw(_scalars(exact))
        w = _round_trip(schemas.encode_scalar, schemas.decode_scalar, v)
        assert w == v and type(w) is type(v)

    @_MODES
    @_IDENTITY
    @given(data=st.data())
    def test_polynomial_and_path(self, exact, data):
        d = data.draw(st.integers(1, 3))
        p = data.draw(_polys(d, exact))
        q = _round_trip(schemas.encode_poly, lambda doc: schemas.decode_poly(doc, d), p)
        assert q == p and q.exact == exact
        path = [data.draw(_polys(1, exact)) for _ in range(d)]
        assert _round_trip(schemas.encode_path, lambda doc: schemas.decode_path(doc, d), path) == path

    @_MODES
    @_IDENTITY
    @given(data=st.data())
    def test_series_and_series_matrix(self, exact, data):
        rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        m = data.draw(_series_matrices(exact, rows, cols))
        assert _same_matrix(_round_trip(schemas.encode_series_matrix,
                                        schemas.decode_series_matrix, m), m)
        s = m[rows - 1, cols - 1]
        assert _same_series(_round_trip(schemas.encode_series, schemas.decode_series, s), s)

    @_MODES
    @_IDENTITY
    @given(data=st.data())
    def test_constant_matrix(self, exact, data):
        rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        m = data.draw(st.lists(st.lists(_scalars(exact), min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))
        back = _round_trip(schemas.encode_const_matrix, schemas.decode_const_matrix, m)
        assert back == m and all(type(v) is type(m[0][0]) for row in back for v in row)

    @_MODES
    @_IDENTITY
    @given(data=st.data())
    def test_matrix_family_and_2x2_model(self, exact, data):
        d, n = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
        zero = Poly(d, None, exact)
        # upper triangular, so its eigenvalue branches are the diagonal, kept
        # apart by the constants 0, 3, 6
        diag = [data.draw(_polys(d, exact, small=True)) + 3 * i for i in range(n)]
        entries = [[diag[i] if i == j else data.draw(_polys(d, exact, small=True)) if i < j
                    else zero for j in range(n)] for i in range(n)]
        fam = MatrixFamily(d, n, entries, [(p, 1) for p in diag])
        back = _round_trip(schemas.encode_matrix_family, schemas.decode_matrix_family, fam)
        assert (back.d, back.n, back.entries, back.branches) == (d, n, fam.entries, fam.branches)
        model = [data.draw(_polys(d, exact)) for _ in range(4)]
        doc = _json({"d": d, **{k: schemas.encode_poly(p) for k, p in zip("ghlm", model)}})
        assert list(schemas.decode_2x2_model(doc)) == model

    @_MODES
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_solver_documents(self, exact, data):
        # problem, jet, framed connection, witness and gauge series of one problem
        problem, F0, K = data.draw(_problems(data.draw(st.integers(2, 3)), data.draw(st.booleans())))
        if not exact:
            problem, F0 = _floated(problem, F0)
        back, F0b = _round_trip(lambda x: schemas.encode_de_problem(*x),
                                schemas.decode_de_problem, (problem, F0))
        assert (back.d, back.n, back.x0, back.f, back.b, F0b) == (
            problem.d, problem.n, problem.x0, problem.f, problem.b, F0)
        assert back.exact == problem.exact == exact
        jet, _, _ = de_solve_jet(problem, F0, K)
        assert _same_matrix(_round_trip(schemas.encode_jet, schemas.decode_jet, jet).F, jet.F)
        conn = connection_from_de(problem, jet)
        conn2 = _round_trip(schemas.encode_framed_connection, schemas.decode_framed_connection,
                            conn)
        assert _same_matrix(conn2.L, conn.L) and list(conn2.b) == list(conn.b)
        frame = schemas.encode_framed_connection(conn)
        witness = _json({**{k: frame[k] for k in ("d", "n", "center", "K", "Delta0")},
                         "B": schemas.encode_series_matrix(conn.B)["entries"],
                         "varpi": [schemas.encode_series_matrix(w)["entries"] for w in conn.omega]})
        delta0, bmat, varpi = schemas.decode_witness(witness)
        assert all(_same_series(delta0[i, i], conn.f[i]) for i in range(conn.n))
        for m, m2 in [(conn.B, bmat), *zip(conn.omega, varpi)]:
            # a witness grid carries no valids, so its entries read through K
            assert [[dict(s.items(s.valid)) for s in r] for r in m.rows] == [
                [dict(s.items()) for s in r] for r in m2.rows]
        if problem.d <= 2:
            gs = formal_simplify(conn, min(K, 3), mode="coalescent" if problem.coalescent
                                 else "regular")
            gs2 = _round_trip(schemas.encode_gauge_series, schemas.decode_gauge_series, gs)
            assert len(gs2.F) == len(gs.F) and all(map(_same_matrix, gs2.F, gs.F))
