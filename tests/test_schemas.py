"""JSON document encoding: exactness inference and round trips."""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

from strata import schemas
from strata.darboux import DEProblem, de_solve_jet
from strata.errors import ShapeError, ValidationError
from strata.gauge import build_connection, connection_from_de, formal_simplify
from strata.polynomials import Poly
from strata.scalars import ComplexRational
from strata.series import SeriesMatrix, SeriesRing


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
