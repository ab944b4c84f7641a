"""CLI fuzzer: every input either succeeds with strict JSON or is refused.

Scalars are drawn from integers (also beyond the float range), fraction
strings and the float edge cases ±0.0, ±1e308, 1e-320, NaN and ±Infinity,
and placed in matrix documents and in numeric flags.  The contract is
exit status 0 with strict-JSON stdout, or exit status 2 with empty stdout
and one JSON line on stderr; a printed classification of an n x n matrix
has a symbol of weight n.  `bundles hasse --n` is also drawn up to 10^6,
where the weight cap must refuse it at once.
The runs are derandomized, so the suite draws the same cases every time.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from strata import cli

FUZZ = settings(derandomize=True, deadline=None, max_examples=60, database=None)

EDGE_FLOATS = [0.0, -0.0, 1e308, -1e308, 1e-320, float("nan"), float("inf"), float("-inf")]

fractions = st.fractions(max_denominator=10**6).map(str) | st.just("1/0")
json_scalars = st.one_of(
    st.integers(),
    st.sampled_from([10**400, -10**400]),
    fractions,
    st.sampled_from(EDGE_FLOATS),
)
# flags take text; small values keep partition counts cheap
flag_scalars = st.one_of(
    st.integers(-3, 6).map(str),
    st.fractions(-6, 6, max_denominator=7).map(str),
    st.sampled_from(EDGE_FLOATS).map(repr),
)


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 2), (argv, code, err)
    if code == 0:
        return json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert "error" in json.loads(lines[0], parse_constant=_reject_constant)


def matrices(rows, cols):
    return st.lists(st.lists(json_scalars, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


square = st.integers(1, 3).flatmap(lambda n: matrices(n, n))


@st.composite
def span_pairs(draw):
    n = draw(st.integers(1, 3))
    return {"a": draw(matrices(draw(st.integers(1, 2)), n)),
            "b": draw(matrices(draw(st.integers(1, 2)), n))}


def write(path, doc):
    # json.dumps writes NaN and Infinity tokens, which json.load reads back
    path.write_text(json.dumps(doc))
    return str(path)


@FUZZ
@given(doc=square)
def test_bundles_classify(tmp_path_factory, doc):
    f = write(tmp_path_factory.getbasetemp() / "classify.json", doc)
    out = check_contract(["bundles", "classify", "--input", f])
    if out is not None:
        assert sum(map(sum, out["symbol"])) == len(doc)


@FUZZ
@given(doc=square)
def test_gap_kernel(tmp_path_factory, doc):
    f = write(tmp_path_factory.getbasetemp() / "kernel.json", doc)
    check_contract(["gap", "kernel", "--input", f])


@FUZZ
@given(doc=span_pairs())
def test_gap_distance(tmp_path_factory, doc):
    f = write(tmp_path_factory.getbasetemp() / "distance.json", doc)
    check_contract(["gap", "distance", "--input", f])


@FUZZ
@given(values=st.lists(flag_scalars, min_size=7, max_size=7))
def test_appendix_curve(values):
    argv = ["appendix", "curve"]
    flags = ["--alpha0", "--beta0", "--gamma0", "--c", "--tmax", "--points", "--tol"]
    for flag, v in zip(flags, values):
        argv += [flag, v]
    check_contract(argv)


@FUZZ
@given(n=flag_scalars | st.integers(-3, 10**6).map(str))
def test_bundles_hasse(n):
    check_contract(["bundles", "hasse", "--n", n])


@FUZZ
@given(r=flag_scalars, n=flag_scalars,
       method=st.sampled_from(["auto", "enumerate", "sigma", "product"]))
def test_partitions_count(r, n, method):
    check_contract(["partitions", "count", "--r", r, "--n", n, "--method", method])
