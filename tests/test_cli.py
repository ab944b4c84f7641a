"""Command-line interface: output contracts, error paths, determinism."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from strata import appendix, bundles, cli, darboux, families, gauge, schemas, subspaces
from strata.darboux import DEProblem, de_solve_jet
from strata.errors import ValidationError
from strata.families import MatrixFamily, jordanizability_report
from strata.gauge import build_connection, connection_from_de, formal_simplify
from strata.polynomials import Poly
from strata.series import SeriesRing


GOLDEN = Path(__file__).parent / "data" / "golden"


def X(d, a):
    return Poly.variable(d, a, exact=True)


def c(v):
    return Poly.constant(1, v, exact=True)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused(capsys, *argv):
    """Exit status 2, empty stdout and one JSON error line on stderr."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def refuse_constant(name):
    raise ValueError(f"non-finite constant {name} in stdout")


def golden_with(name, path, value):
    """The golden document name with its leaf at path, a sequence of keys
    and indices, set to value."""
    doc = json.loads((GOLDEN / name).read_text())
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return doc


@pytest.fixture(scope="module")
def de_fixture(tmp_path_factory):
    """Problem document (with F0), solved-jet document, connection document."""
    base = tmp_path_factory.mktemp("cli")
    p = DEProblem(2, 2, ["0", "1"], [X(2, 0), X(2, 1)], ["0", "1/2"])
    F0 = [[0, Fraction(3, 2)], [Fraction(-2, 7), 0]]
    prob = base / "prob.json"
    prob.write_text(json.dumps(schemas.encode_de_problem(p, F0)))
    jet, feasible, _ = de_solve_jet(p, F0, 5)
    assert feasible
    jetfile = base / "jet.json"
    jetfile.write_text(json.dumps(schemas.encode_jet(jet)))
    conn = connection_from_de(p, jet)
    connfile = base / "conn.json"
    connfile.write_text(json.dumps(schemas.encode_framed_connection(conn)))
    gs = formal_simplify(conn, 4, mode="regular")
    gsfile = base / "gs.json"
    gsfile.write_text(json.dumps(schemas.encode_gauge_series(gs)))
    return {"prob": str(prob), "jet": str(jetfile), "conn": str(connfile), "gs": str(gsfile)}


class TestPartitions:
    def test_count_reference_value(self, capsys):
        code, out, err = run(capsys, "partitions", "count", "--r", "2", "--n", "20")
        assert code == 0 and out == "318106\n" and err == ""

    def test_count_methods_agree(self, capsys):
        values = set()
        for method in ("auto", "sigma", "enumerate"):
            code, out, _ = run(capsys, "partitions", "count", "--r", "2", "--n", "8",
                               "--method", method)
            assert code == 0
            values.add(out)
        assert values == {"223\n"}

    def test_list_json(self, capsys):
        doc = run_json(capsys, "partitions", "list", "--n", "3")
        assert len(doc) == 6
        assert [[1], [1], [1]] in doc

    def test_list_text(self, capsys):
        code, out, _ = run(capsys, "partitions", "list", "--n", "2", "--format", "text")
        assert code == 0 and len(out.splitlines()) == 3

    def test_conjugate(self, capsys):
        doc = run_json(capsys, "partitions", "conjugate", "--symbol", "[[2,1],[1]]")
        assert doc == [[2, 1], [1]]


class TestBundles:
    def test_describe(self, capsys):
        doc = run_json(capsys, "bundles", "describe", "--symbol", "[[1,1,1,1]]")
        assert doc["dim"] == 1 and doc["n"] == 4

    def test_moves(self, capsys):
        doc = run_json(capsys, "bundles", "moves", "--symbol", "[[1],[1]]")
        assert doc == [{"kind": "I", "symbol": [[2]]}]

    def test_closure(self, capsys):
        doc = run_json(capsys, "bundles", "closure", "--a", "[[1,1,1,1]]",
                       "--b", "[[1],[1],[1],[1]]")
        assert doc["leq"] is True

    def test_hasse_json(self, capsys):
        doc = run_json(capsys, "bundles", "hasse", "--n", "4")
        assert len(doc["symbols"]) == 14
        assert sorted(set(doc["dims"]), reverse=True) == [16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 1]

    def test_hasse_dot(self, capsys):
        code, out, _ = run(capsys, "bundles", "hasse", "--n", "4", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph bundle_closure {")
        assert out.count("label=") == 14

    def test_classify(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps([[2, 1], [0, 2]]))
        doc = run_json(capsys, "bundles", "classify", "--input", str(f))
        assert doc["symbol"] == [[2]]

    @pytest.mark.parametrize("matrix", [[[2, 1], [0, 2]], [[3, 0], [0, 3]]])
    def test_classify_single_cluster_is_strict_json(self, capsys, tmp_path, matrix):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(matrix))
        code, out, err = run(capsys, "bundles", "classify", "--input", str(f))
        assert code == 0, err
        doc = json.loads(out, parse_constant=refuse_constant)
        assert doc["cluster_gap"] is None


class TestSegreData:
    """A cluster's Segre data come from the rank drops of as many powers of
    A - mu I as its multiplicity, A - mu I scaled to unit norm first; the
    symbol's weight always equals the matrix size."""

    def classify(self, cap, tmp_path, matrix):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(matrix))
        code, out, err = run(cap, "bundles", "classify", "--input", str(f))
        assert code == 0, err
        doc = json.loads(out, parse_constant=refuse_constant)
        assert sum(map(sum, doc["symbol"])) == len(matrix)
        return doc

    def test_powers_stay_in_float_range(self, capfd, tmp_path):
        # unscaled powers overflowed, and LAPACK wrote its complaint to fd 1
        self.classify(capfd, tmp_path, [[1e160, 0, 0, -1], [0.5, 1e160, 1, 0],
                                        [-1, 3, 0, 0], [3, 0, 0, 1e200]])

    def test_far_apart_clusters(self, capsys, tmp_path):
        doc = self.classify(capsys, tmp_path, [[1e200, 1, 0], [0, 1e200, 0], [0, 0, -1e200]])
        assert doc["ill_conditioned"] is False

    def test_inconsistent_cluster_reads_as_ones(self, capsys, tmp_path):
        doc = self.classify(capsys, tmp_path, [[1e8, -1e160, 0.5], [1e200, 1e8, 1e8], [3, 0, 1]])
        assert doc["ill_conditioned"] is True

    def test_gap_report_powers_to_branch_multiplicity(self, capsys, tmp_path):
        # x I + J2(-5) + J1(-5) + J2(-6) + J1(-6) + (5): seven powers of the
        # scaled A - mu I would push the other eigenvalues under the rank
        # cutoff; three, the branch multiplicity, do not
        x = X(1, 0)
        z = Poly(1, None, True)
        shifts = [-5, -5, -5, -6, -6, -6, 5]
        rows = [[x + c(s) if i == j else z for j in range(7)] for i, s in enumerate(shifts)]
        rows[0][1] = rows[3][4] = c(1)
        fam = MatrixFamily(1, 7, rows, [(x - c(5), 3), (x - c(6), 3), (x + c(5), 1)])
        f = tmp_path / "fam.json"
        f.write_text(json.dumps(schemas.encode_matrix_family(fam)))
        doc = run_json(capsys, "gap", "report", "--input", str(f), "--point", "[0]")
        assert doc["cond1"] is True and doc["verdict"] is True
        assert doc["branch_segres"] == [[2, 1], [2, 1], [1]]


class TestWeightCap:
    @pytest.mark.parametrize("argv", [
        ["bundles", "hasse", "--n", "1000000"],
        ["bundles", "hasse", "--n", "15", "--format", "dot"],
        ["partitions", "list", "--n", "15"],
        ["partitions", "count", "--r", "1", "--n", "15", "--method", "enumerate"],
        ["bundles", "closure", "--a", "[[15]]", "--b", "[[15]]"],
    ], ids=["hasse-huge", "hasse", "list", "count-enumerate", "closure"])
    def test_refused_above_cap(self, capsys, argv):
        start = time.perf_counter()
        obj = assert_refused(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert obj["error"] == "invalid-input"

    def test_cap_is_inclusive(self, capsys):
        code, out, _ = run(capsys, "partitions", "count", "--r", "1", "--n", "14",
                           "--method", "enumerate")
        assert code == 0 and out == "135\n"
        doc = run_json(capsys, "bundles", "closure", "--a", "[[14]]", "--b", "[[14]]")
        assert doc["leq"] is True

    def test_polynomial_counts_are_not_capped(self, capsys):
        counts = {run(capsys, "partitions", "count", "--r", "2", "--n", "40",
                      "--method", method)[1] for method in ("sigma", "product")}
        assert len(counts) == 1 and int(counts.pop()) > 0


class TestDegreeCap:
    """A document term's total degree is capped at schemas.MAX_DEGREE."""

    @pytest.mark.parametrize("name, exponent", [
        ("de_regular_float.json", 10**400),
        ("de_regular_exact.json", 10**6),
        ("de_regular_exact.json", schemas.MAX_DEGREE + 1),
    ], ids=["float-beyond-float-range", "exact-million", "exact-above-cap"])
    def test_refused_above_cap(self, capsys, tmp_path, name, exponent):
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(golden_with(name, ("f", 0, 0, "exps", 0), exponent)))
        start = time.perf_counter()
        obj = assert_refused(capsys, "de", "oracle", "--input", str(f), "--order", "3")
        assert time.perf_counter() - start < 1.0
        assert obj["error"] == "invalid-input"

    def test_cap_is_inclusive(self, capsys, tmp_path):
        f = tmp_path / "doc.json"
        doc = golden_with("de_regular_exact.json", ("f", 0, 0, "exps", 0), schemas.MAX_DEGREE)
        f.write_text(json.dumps(doc))
        assert run_json(capsys, "de", "oracle", "--input", str(f), "--order", "3")

    def test_cap_is_on_total_degree(self):
        half = schemas.MAX_DEGREE // 2
        assert schemas.decode_poly([{"exps": [half, schemas.MAX_DEGREE - half], "re": "1"}], 2)
        with pytest.raises(ValidationError, match="capped"):
            schemas.decode_poly([{"exps": [half, schemas.MAX_DEGREE - half + 1], "re": "1"}], 2)


class TestGap:
    def test_distance_exact_one(self, capsys, tmp_path):
        f = tmp_path / "pair.json"
        f.write_text(json.dumps({"a": [[1, 0]], "b": [[0, 1]]}))
        doc = run_json(capsys, "gap", "distance", "--input", str(f))
        assert abs(doc["distance"] - 1.0) <= 1e-12
        assert doc["dim_a"] == doc["dim_b"] == 1

    def test_distance_dimension_does_not_depend_on_scale(self, capsys, tmp_path):
        f = tmp_path / "pair.json"
        f.write_text(json.dumps({"a": [[1e-11, 0]], "b": [[0, 1]]}))
        doc = run_json(capsys, "gap", "distance", "--input", str(f))
        assert doc["dim_a"] == doc["dim_b"] == 1
        assert abs(doc["distance"] - 1.0) <= 1e-12

    def test_kernel(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps([[0, 1], [0, 0]]))
        doc = run_json(capsys, "gap", "kernel", "--input", str(f))
        assert doc["dim"] == 1
        assert abs(abs(doc["basis"][0][0][0]) - 1.0) <= 1e-12

    def test_report(self, capsys, tmp_path):
        x1, x2 = X(2, 0), X(2, 1)
        z = Poly(2, None, True)
        fam = MatrixFamily(
            2, 3,
            [[x1, z, x2], [z, x1, x2], [z, z, z]],
            [(x1, 2), (z, 1)],
        )
        f = tmp_path / "fam.json"
        f.write_text(json.dumps(schemas.encode_matrix_family(fam)))
        doc = run_json(capsys, "gap", "report", "--input", str(f), "--point", "[0, 1]")
        assert doc["verdict"] is False
        assert doc["cond3"] is False and all(doc["cond2"])

    def test_report_is_the_library_report(self, capsys):
        # the CLI's default tolerances are the library's, so both probe the same samples
        path = GOLDEN / "family_upper_3x3.json"
        family = schemas.decode_matrix_family(json.loads(path.read_text()))
        library = json.loads(json.dumps(jordanizability_report(family, [0]).to_dict()))
        doc = run_json(capsys, "gap", "report", "--input", str(path), "--point", "[0]")
        assert doc == library
        assert doc["cond2"] == [True, True] and doc["limit_dims"] == [1, 2]


class TestDE:
    def test_solve(self, capsys, de_fixture):
        doc = run_json(capsys, "de", "solve", "--input", de_fixture["prob"], "--order", "4")
        assert doc["feasible"] is True
        assert doc["residual"]["exact_zero"] is True

    def test_oracle_matches_solver(self, capsys, de_fixture):
        a = run_json(capsys, "de", "solve", "--input", de_fixture["prob"], "--order", "3")
        b = run_json(capsys, "de", "oracle", "--input", de_fixture["prob"], "--order", "3")
        assert a["jet"] == b["jet"]

    def test_residual_of_solved_jet(self, capsys, de_fixture):
        doc = run_json(capsys, "de", "residual", "--input", de_fixture["prob"],
                       "--jet", de_fixture["jet"], "--order", "4")
        assert doc["exact_zero"] is True


class TestGauge:
    def test_build(self, capsys, de_fixture):
        doc = run_json(capsys, "gauge", "build", "--input", de_fixture["conn"])
        assert doc["n"] == 2 and doc["coalescent_pairs"] == []

    def test_simplify_and_residual(self, capsys, de_fixture, tmp_path):
        gs = run_json(capsys, "gauge", "simplify", "--input", de_fixture["conn"],
                      "--order", "4")
        f = tmp_path / "gs.json"
        f.write_text(json.dumps(gs))
        doc = run_json(capsys, "gauge", "residual", "--input", de_fixture["conn"],
                       "--gauge", str(f))
        assert doc["determined_exact_zero"] is True

    @pytest.mark.parametrize("valids, worst", [(None, 8.0), ([[-1, -1], [-1, -1]], 0.0)])
    def test_residual_of_an_unchecked_gauge_is_not_zero(self, capsys, tmp_path, valids, worst):
        # Delta0 = (x, 1 - x), b = (0, 1/2), L = [[0, 1], [0, 0]]; F_1 should be L
        ring = SeriesRing(1, 2, ["0"], exact=True)
        enc = {v: schemas.encode_series(ring.const(v))["terms"] for v in (0, 1, 5)}
        conn = {
            "d": 1, "n": 2, "center": [["0", "0"]], "K": 2,
            "Delta0": [schemas.encode_poly(X(1, 0)), schemas.encode_poly(c(1) - X(1, 0))],
            "Bdiag": [["0", "0"], ["1/2", "0"]],
            "L": [[enc[0], enc[1]], [enc[0], enc[0]]],
        }
        F1 = {"d": 1, "n": 2, "center": [["0", "0"]], "K": 2,
              "entries": [[enc[0], enc[5]], [enc[0], enc[0]]]}
        if valids is not None:
            F1["valids"] = valids
        (tmp_path / "conn.json").write_text(json.dumps(conn))
        (tmp_path / "gs.json").write_text(json.dumps({"K": 1, "F": [F1]}))
        doc = run_json(capsys, "gauge", "residual", "--input", str(tmp_path / "conn.json"),
                       "--gauge", str(tmp_path / "gs.json"))
        assert doc["determined_max"] == worst
        assert doc["determined_exact_zero"] is False

    def test_witness(self, capsys, tmp_path):
        ring = SeriesRing(2, 4, ["0", "1"], exact=True)
        one = schemas.encode_series(ring.one())["terms"]
        zero = schemas.encode_series(ring.zero())["terms"]
        gap = schemas.encode_series(ring.var(1) - ring.var(0))["terms"]
        neg_one = schemas.encode_series(ring.const(-1))["terms"]
        doc = {
            "d": 2, "n": 2, "center": [["0", "0"], ["1", "0"]], "K": 4,
            "Delta0": [
                schemas.encode_poly(X(2, 0)),
                schemas.encode_poly(X(2, 1)),
            ],
            "B": [[zero, gap], [zero, zero]],
            "varpi": [
                [[zero, one], [zero, zero]],
                [[zero, neg_one], [zero, zero]],
            ],
        }
        f = tmp_path / "wit.json"
        f.write_text(json.dumps(doc))
        out = run_json(capsys, "gauge", "witness", "--input", str(f))
        assert out["ok"] is True and "L" in out

    def test_holcon_divergent(self, capsys, tmp_path):
        doc = run_json(capsys, "gauge", "holcon", *_holcon_args(tmp_path))
        assert doc["bounded"] is False


class TestAppendix:
    def test_pfaffian(self, capsys, tmp_path):
        ring = SeriesRing(1, 3, ["0"], exact=True)
        kjet = ring.matrix([
            [ring.var(0), ring.zero()],
            [ring.zero(), ring.var(0).scale(3)],
        ])
        doc = {
            "A0": [[1, 0], [0, 2]],
            "B0": [[5, 0], [0, 7]],
            "Kjet": schemas.encode_series_matrix(kjet),
        }
        f = tmp_path / "pf.json"
        f.write_text(json.dumps(doc))
        out = run_json(capsys, "appendix", "pfaffian", "--input", str(f))
        assert out["is_zero"] is True and out["max_abs"] == 0.0

    def test_curve(self, capsys):
        doc = run_json(capsys, "appendix", "curve", "--alpha0", "1", "--beta0", "1",
                       "--gamma0", "1", "--c", "2")
        assert doc["ok"] is True

    def test_families(self, capsys):
        doc = run_json(capsys, "appendix", "families", "--p", "1", "--q", "3")
        assert len(doc) == 2
        assert doc[0]["solves"] and doc[1]["solves"]

    def test_classify2x2(self, capsys, tmp_path):
        x = X(2, 0)
        l = (-x - x) * (-x - x) * Fraction(5, 3)
        doc = {
            "d": 2,
            "g": schemas.encode_poly(x),
            "h": [],
            "l": schemas.encode_poly(l),
            "m": schemas.encode_poly(-x),
        }
        f = tmp_path / "c2.json"
        f.write_text(json.dumps(doc))
        out = run_json(capsys, "appendix", "classify2x2", "--input", str(f))
        assert out["type"] == "I" and out["kappa"] == ["5/3", "0"]


class TestErrorContract:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "gap", "kernel", "--input", "/nonexistent.json")
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert obj["error"] == "invalid-input" and "detail" in obj

    def test_non_integer_symbol_part(self, capsys):
        obj = assert_refused(capsys, "bundles", "describe", "--symbol", '"x"')
        assert obj["error"] == "invalid-input"

    @pytest.mark.parametrize("argv", [
        ["bundles", "describe", "--symbol", "[[1],[]]"],
        ["bundles", "describe", "--symbol", "[[]]"],
        ["partitions", "conjugate", "--symbol", "[[2],[]]"],
        ["bundles", "moves", "--symbol", "[[],[1]]"],
        ["bundles", "closure", "--a", "[[1],[]]", "--b", "[[1]]"],
    ])
    def test_empty_symbol_member(self, capsys, argv):
        obj = assert_refused(capsys, *argv)
        assert obj["error"] == "invalid-input" and "nonempty" in obj["detail"]

    def test_ragged_matrix(self, capsys, tmp_path):
        f = tmp_path / "ragged.json"
        f.write_text(json.dumps([[1, 2], [3]]))
        obj = assert_refused(capsys, "bundles", "classify", "--input", str(f))
        assert obj["error"] == "shape-mismatch"

    def test_bad_symbol_json(self, capsys):
        code, _, err = run(capsys, "bundles", "describe", "--symbol", "not json")
        assert code == 2
        assert json.loads(err.strip())["error"] == "invalid-input"

    def test_resonant_error_code(self, capsys, tmp_path):
        p = DEProblem(2, 2, ["0", "0"], [X(2, 0), X(2, 1)], ["0", "2"])
        f = tmp_path / "res.json"
        f.write_text(json.dumps(schemas.encode_de_problem(p, [[0, 1], [1, 0]])))
        code, _, err = run(capsys, "de", "solve", "--input", str(f), "--order", "2")
        assert code == 2
        assert json.loads(err.strip())["error"] == "resonant"

    def test_negative_tol_rejected(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps([[0, 1], [0, 0]]))
        code, _, err = run(capsys, "gap", "kernel", "--input", str(f), "--tol", "-1")
        assert code == 2
        assert json.loads(err.strip())["error"] == "invalid-input"

    def test_exact_value_beyond_the_digit_limit(self, capsys, tmp_path):
        # f[0] holds x0^64, so at x0 = 1/77...7 (70 sevens) the order-1 jet has
        # a denominator of about 4,480 digits, past the 4,300 that Python prints
        doc = golden_with("de_regular_exact.json", ("x0", 0), "1/" + "7" * 70)
        doc["f"][0][0]["exps"][0] = 64
        f = tmp_path / "digits.json"
        f.write_text(json.dumps(doc))
        obj = assert_refused(capsys, "de", "oracle", "--input", str(f), "--order", "1")
        assert obj["error"] == "invalid-input" and "too long to print" in obj["detail"]


NAN_MATRIX = [[float("nan"), 1], [1, 1]]
CURVE = ["appendix", "curve", "--alpha0", "1", "--beta0", "1", "--gamma0", "1"]


class TestOutOfFloatRange:
    """Non-finite input is refused at decode; a computation pushed out of
    the float range by its input is refused where it happens; no
    non-finite number is printed."""

    @pytest.mark.parametrize("argv, doc", [
        (["bundles", "classify"], [[1e308, 1e308], [1e308, 1e308]]),
        (["bundles", "classify"], [[1e308, 0], [0, -1e308]]),
        (["bundles", "classify"], NAN_MATRIX),
        (["gap", "kernel"], NAN_MATRIX),
        (["gap", "distance"], {"a": [[1, float("inf")]], "b": [[0, 1]]}),
        (["bundles", "classify", "--tol", "nan"], [[1, 0], [0, 1]]),
        (["bundles", "classify", "--tol", "inf"], [[1, 0], [0, 1]]),
        (["gap", "kernel", "--tol", "-inf"], [[1, 0], [0, 1]]),
        (["gap", "report", "--point", "[0]", "--sep-tol", "nan"], None),
        (["gap", "report", "--point", "[0]", "--sep-tol", "0"], None),
        # an exact part beside a float one must convert to a float
        (["de", "solve", "--order", "3"],
         golden_with("de_regular_float.json", ("f", 0, 0, "im"), 10**400)),
        # f[2] holds x0^2, which overflows at x0 = 1e308 i
        (["de", "oracle", "--order", "3"],
         golden_with("de_regular_exact.json", ("x0", 0), ["0", 1e308])),
    ], ids=["classify-huge", "classify-huge-shift", "classify-nan", "kernel-nan",
            "distance-inf", "tol-nan", "tol-inf", "tol-minus-inf", "sep-tol-nan",
            "sep-tol-zero", "de-huge-integer-part", "de-f-beyond-float-range"])
    def test_document_refused(self, capsys, tmp_path, argv, doc):
        if doc is None:
            x = X(1, 0)
            doc = schemas.encode_matrix_family(MatrixFamily(1, 1, [[x]], [(x, 1)]))
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(doc))
        obj = assert_refused(capsys, *argv, "--input", str(f))
        assert obj["error"] == "invalid-input"

    @pytest.mark.parametrize("extra", [
        ["--c", "1e308", "--tmax", "1e3"],
        ["--c", "2", "--tmax", "200", "--points", "3"],
        ["--c", "nan"],
        ["--c", "1e400"],
        ["--c", "2", "--tmax", "inf"],
        ["--c", "2", "--tmax", "1e308"],
    ], ids=["huge-c", "nan-residual", "nan-c", "inf-c", "inf-tmax", "huge-tmax"])
    def test_curve_refused(self, capsys, extra):
        obj = assert_refused(capsys, *CURVE, *extra)
        assert obj["error"] == "invalid-input"

    @pytest.mark.parametrize("cmd", ["solve", "oracle"])
    def test_differential_whose_square_overflows(self, capsys, tmp_path, cmd):
        # f_0 - f_1 = (1e160 + 1e160 i - 1) x: |D|^2 overflows, |D| does not,
        # and the pair is regular with distinct differentials
        terms = [[{"exps": [1], "re": 1e160, "im": 1e160}], [{"exps": [1], "re": 1.0, "im": 0.0}]]
        doc = {"d": 1, "n": 2, "x0": [[1.0, 0.0]], "f": terms, "b": [[0.0, 0.0], [0.5, 0.0]],
               "F0": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
        f = tmp_path / "huge.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "de", cmd, "--input", str(f), "--order", "3")
        assert code == 0 and err == ""
        assert json.loads(out, parse_constant=refuse_constant)["jet"]["K"] == 3

    def test_complex_power_beyond_the_float_range(self, capsys, tmp_path):
        # (1e160 (1 + i))^2 is nan+nanj in Python, where a real square raises
        # OverflowError; f is refused at the base point, before any solve
        doc = {"d": 1, "n": 2, "x0": [[1e160, 1e160]],
               "f": [[{"exps": [2], "re": 1.0, "im": 0.0}], [{"exps": [1], "re": 1.0, "im": 0.0}]],
               "b": [[0.0, 0.0], [0.5, 0.0]],
               "F0": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
        f = tmp_path / "nan.json"
        f.write_text(json.dumps(doc))
        obj = assert_refused(capsys, "de", "solve", "--input", str(f), "--order", "2")
        assert obj == {"error": "invalid-input", "detail": "a polynomial value is beyond the float range"}

    def test_env_tol_must_be_finite(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "m.json"
        f.write_text(json.dumps([[1, 0], [0, 1]]))
        monkeypatch.setenv("STRATA_TOL", "nan")
        obj = assert_refused(capsys, "bundles", "classify", "--input", str(f))
        assert obj["error"] == "invalid-input"

    def test_printed_zeros_are_unsigned(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps([[1, 2, 3], [2, 4, 6], [1, 1, 1]]))
        code, out, _ = run(capsys, "gap", "kernel", "--input", str(f))
        assert code == 0 and json.loads(out)["dim"] == 1
        assert "-0.0" not in out
        code, out, _ = run(capsys, *CURVE, "--c", "-0.0", "--tmax", "-0.0", "--points", "2")
        assert code == 0 and json.loads(out)["t"] == [0.0, 0.0]
        assert "-0.0" not in out


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["bundles", "hasse", "--n", "x"],
        ["de", "solve"],
        ["partitions", "count", "--r", "2"],
        ["bundles", "nope"],
        [],
    ], ids=["bad-int", "missing-flags", "missing-flag", "bad-command", "empty"])
    def test_usage_error_is_invalid_input(self, capsys, argv):
        obj = assert_refused(capsys, *argv)
        assert obj["error"] == "invalid-input"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bundles", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: strata bundles")


class TestCommandTable:
    ROWS = [(group, row[0]) for group, (_, rows) in cli.COMMANDS.items() for row in rows]

    @pytest.mark.parametrize("group,cmd", ROWS)
    def test_every_command_has_help(self, capsys, group, cmd):
        with pytest.raises(SystemExit) as exc:
            cli.main([group, cmd, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: strata {group} {cmd}")

    def test_main_reuses_the_parser(self, capsys, monkeypatch):
        def rebuild():
            raise AssertionError("main built a second parser")

        monkeypatch.setattr(cli, "build_parser", rebuild)
        code, out, _ = run(capsys, "partitions", "count", "--r", "2", "--n", "5")
        assert code == 0 and int(out) > 0

    def test_usage_error_leaves_no_state(self, capsys):
        argv = ("bundles", "hasse", "--n", "3")
        before = run(capsys, *argv)
        assert_refused(capsys, "bundles", "hasse", "--format", "dot", "--n", "x")
        assert run(capsys, *argv) == before
        assert before[0] == 0 and json.loads(before[1])["n"] == 3


class TestTolerancePrecedence:
    MATRIX = [[1e-6, 0], [0, 1.0]]

    def kernel_dim(self, capsys, tmp_path, *extra, env=None, monkeypatch=None):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(self.MATRIX))
        if env is not None:
            monkeypatch.setenv("STRATA_TOL", env)
        doc = run_json(capsys, "gap", "kernel", "--input", str(f), *extra)
        return doc["dim"]

    def test_default(self, capsys, tmp_path):
        assert self.kernel_dim(capsys, tmp_path) == 0

    def test_env_overrides_default(self, capsys, tmp_path, monkeypatch):
        assert self.kernel_dim(capsys, tmp_path, env="1e-3", monkeypatch=monkeypatch) == 1

    def test_flag_wins_over_env(self, capsys, tmp_path, monkeypatch):
        assert self.kernel_dim(capsys, tmp_path, "--tol", "1e-3",
                               env="1e-12", monkeypatch=monkeypatch) == 1

    def test_invalid_env_rejected(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(self.MATRIX))
        monkeypatch.setenv("STRATA_TOL", "banana")
        code, _, err = run(capsys, "gap", "kernel", "--input", str(f))
        assert code == 2
        assert json.loads(err.strip())["error"] == "invalid-input"


def _holcon_args(tmp_path):
    """The input arguments of a gauge holcon run on a two-point coalescence."""
    ring = SeriesRing(2, 2, ["0", "0"], exact=True)
    delta = ring.matrix([[ring.var(0), ring.zero()], [ring.zero(), ring.var(1)]])
    L = ring.matrix([[ring.zero(), ring.one()], [ring.one(), ring.zero()]])
    cf, pf = tmp_path / "conn.json", tmp_path / "path.json"
    cf.write_text(json.dumps(schemas.encode_framed_connection(build_connection(delta, ["0", "0"], L))))
    half = Poly.constant(1, Fraction(1, 2), True)
    pf.write_text(json.dumps(schemas.encode_path([X(1, 0) * half, -(X(1, 0) * half)])))
    return ["--input", str(cf), "--pair", "0", "1", "--path", str(pf)]


class TestLibraryTolerances:
    """A command whose default tolerance is a library constant hands the
    library that constant, read when the command runs."""

    @staticmethod
    def spy(monkeypatch, owner, name, seen):
        inner = getattr(owner, name)

        def wrapped(*args, tol, **kwargs):
            seen.append(tol)
            return inner(*args, tol=tol, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    def test_de_solve_passes_the_feasibility_tolerance(self, capsys, de_fixture, monkeypatch):
        seen = []
        monkeypatch.delenv("STRATA_TOL", raising=False)
        monkeypatch.setattr(darboux, "_FEASIBLE_TOL", 2.5e-7)
        self.spy(monkeypatch, cli, "de_solve_jet", seen)
        run_json(capsys, "de", "solve", "--input", de_fixture["prob"], "--order", "2")
        run_json(capsys, "de", "solve", "--input", de_fixture["prob"], "--order", "2",
                 "--tol", "1e-6")
        assert seen == [2.5e-7, 1e-6]

    def test_classify2x2_passes_the_fit_tolerance(self, capsys, tmp_path, monkeypatch):
        x = X(2, 0)
        doc = {"d": 2, "g": schemas.encode_poly(x), "h": [],
               "l": schemas.encode_poly(x * x), "m": schemas.encode_poly(-x)}
        f = tmp_path / "c2.json"
        f.write_text(json.dumps(doc))
        seen = []
        monkeypatch.delenv("STRATA_TOL", raising=False)
        monkeypatch.setattr(appendix, "_FIT_TOL", 2.5e-7)
        self.spy(monkeypatch, appendix, "classify_2x2", seen)
        run_json(capsys, "appendix", "classify2x2", "--input", str(f))
        assert seen == [2.5e-7]

    def test_appendix_curve_passes_the_curve_tolerance(self, capsys, monkeypatch):
        seen = []
        monkeypatch.delenv("STRATA_TOL", raising=False)
        monkeypatch.setattr(appendix, "_CURVE_TOL", 2.5e-7)
        self.spy(monkeypatch, appendix, "nonversal_curve", seen)
        run_json(capsys, *CURVE, "--c", "2")
        assert seen == [2.5e-7]

    def test_commands_pass_the_coalescence_tolerance(self, capsys, de_fixture, tmp_path,
                                                     monkeypatch):
        conn = schemas.decode_framed_connection(json.loads(Path(de_fixture["conn"]).read_text()))
        doc = schemas.encode_framed_connection(conn)
        del doc["Bdiag"], doc["L"]
        doc["B"] = schemas.encode_series_matrix(conn.B)["entries"]
        doc["varpi"] = [schemas.encode_series_matrix(w)["entries"] for w in conn.omega]
        witness = tmp_path / "wit.json"
        witness.write_text(json.dumps(doc))
        seen = []
        monkeypatch.delenv("STRATA_TOL", raising=False)
        monkeypatch.setattr(darboux, "_COALESCE_TOL", 2.5e-7)
        self.spy(monkeypatch, schemas, "decode_de_problem", seen)
        self.spy(monkeypatch, schemas, "decode_framed_connection", seen)
        self.spy(monkeypatch, cli, "dv_witness", seen)
        run_json(capsys, "de", "oracle", "--input", de_fixture["prob"], "--order", "2")
        run_json(capsys, "gauge", "build", "--input", de_fixture["conn"])
        run_json(capsys, "gauge", "witness", "--input", str(witness))
        assert seen == [2.5e-7] * 3

    # (command, module and name of the library default, owner and name of the
    # function the command hands it to, input document or input arguments)
    DEFAULTS = [
        (["bundles", "classify"], bundles, "_CLASSIFY_TOL", cli, "classify_matrix_detailed",
         [[2, 1], [0, 2]]),
        (["gap", "distance"], subspaces, "_SV_TOL", subspaces.Subspace, "from_spanning",
         {"a": [[1, 0]], "b": [[0, 1]]}),
        (["gap", "kernel"], subspaces, "_SV_TOL", cli, "kernel_subspace", [[0, 1], [0, 0]]),
        (["gap", "report", "--point", "[0]"], families, "_GAP_TOL", cli, "jordanizability_report",
         GOLDEN / "family_upper_3x3.json"),
        (["gauge", "holcon"], gauge, "_HOLCON_TOL", cli, "holcon_check", _holcon_args),
    ]

    @pytest.mark.parametrize("argv, module, const, owner, name, doc", DEFAULTS,
                             ids=[" ".join(case[0][:2]) for case in DEFAULTS])
    def test_command_passes_the_library_default(self, capsys, tmp_path, monkeypatch,
                                                argv, module, const, owner, name, doc):
        if callable(doc):
            extra = doc(tmp_path)
        else:
            if not isinstance(doc, Path):
                content, doc = doc, tmp_path / "doc.json"
                doc.write_text(json.dumps(content))
            extra = ["--input", str(doc)]
        seen = []
        monkeypatch.delenv("STRATA_TOL", raising=False)
        monkeypatch.setattr(module, const, 2.5e-7)
        self.spy(monkeypatch, owner, name, seen)
        run_json(capsys, *argv, *extra)
        run_json(capsys, *argv, *extra, "--tol", "1e-6")
        calls = len(seen) // 2
        assert calls and seen == [2.5e-7] * calls + [1e-6] * calls


class TestDeterminism:
    def test_hasse_bytes_stable(self, capsys):
        _, out1, _ = run(capsys, "bundles", "hasse", "--n", "4", "--format", "dot")
        _, out2, _ = run(capsys, "bundles", "hasse", "--n", "4", "--format", "dot")
        assert out1 == out2

    def test_solve_bytes_stable(self, capsys, de_fixture):
        _, out1, _ = run(capsys, "de", "solve", "--input", de_fixture["prob"], "--order", "4")
        _, out2, _ = run(capsys, "de", "solve", "--input", de_fixture["prob"], "--order", "4")
        assert out1 == out2
