"""Golden CLI outputs: fixed documents in tests/data/golden and their stdout.

Each case runs one command on committed input documents and compares its
stdout with the recorded ``<case>.out`` byte for byte, in both modes:
every printed float goes through ``scalars.float_pair``, which prints
zeros unsigned, so a float stdout is as byte-stable as an exact one.

A float case and the exact case of the same command run one problem in the
two modes, so each recorded float output must also lie within the float
bound of SCHEMAS.md of its exact output.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from test_solver_differential import FLOAT_EXACT_BOUND

from strata import cli

GOLDEN = Path(__file__).parent / "data" / "golden"

# (case name, argv); argv entries ending in .json name
# documents in GOLDEN
CASES = [
    ("de_solve_coalescent_exact",
     ["de", "solve", "--input", "de_coalescent_exact.json", "--order", "3"]),
    ("de_oracle_coalescent_exact",
     ["de", "oracle", "--input", "de_coalescent_exact.json", "--order", "3"]),
    ("de_residual_coalescent_exact",
     ["de", "residual", "--input", "de_coalescent_exact.json",
      "--jet", "jet_coalescent_exact.json", "--order", "2"]),
    ("de_solve_regular_exact",
     ["de", "solve", "--input", "de_regular_exact.json", "--order", "3"]),
    ("de_oracle_regular_exact",
     ["de", "oracle", "--input", "de_regular_exact.json", "--order", "3"]),
    ("de_solve_coalescent_float",
     ["de", "solve", "--input", "de_coalescent_float.json", "--order", "3"]),
    ("de_oracle_coalescent_float",
     ["de", "oracle", "--input", "de_coalescent_float.json", "--order", "3"]),
    ("de_residual_coalescent_float",
     ["de", "residual", "--input", "de_coalescent_float.json",
      "--jet", "jet_coalescent_float.json", "--order", "2"]),
    ("de_solve_regular_float",
     ["de", "solve", "--input", "de_regular_float.json", "--order", "3"]),
    ("de_oracle_regular_float",
     ["de", "oracle", "--input", "de_regular_float.json", "--order", "3"]),
    ("gauge_build_coalescent_exact",
     ["gauge", "build", "--input", "conn_coalescent_exact.json"]),
    ("gauge_build_pnr_exact",
     ["gauge", "build", "--input", "conn_pnr_exact.json"]),
    ("gauge_build_coalescent_float",
     ["gauge", "build", "--input", "conn_coalescent_float.json"]),
    ("gauge_simplify_coalescent_exact",
     ["gauge", "simplify", "--input", "conn_coalescent_exact.json",
      "--order", "3", "--mode", "coalescent"]),
    ("gauge_simplify_regular_exact",
     ["gauge", "simplify", "--input", "conn_regular_exact.json", "--order", "3"]),
    ("gauge_simplify_coalescent_float",
     ["gauge", "simplify", "--input", "conn_coalescent_float.json",
      "--order", "3", "--mode", "coalescent"]),
    ("gauge_residual_coalescent_exact",
     ["gauge", "residual", "--input", "conn_coalescent_exact.json",
      "--gauge", "gauge_coalescent_exact.json"]),
    ("gauge_residual_coalescent_float",
     ["gauge", "residual", "--input", "conn_coalescent_float.json",
      "--gauge", "gauge_coalescent_float.json"]),
    ("bundles_classify_semisimple_distinct",
     ["bundles", "classify", "--input", "matrix_semisimple_distinct.json"]),
    ("bundles_classify_semisimple_repeated",
     ["bundles", "classify", "--input", "matrix_semisimple_repeated.json"]),
    ("bundles_classify_jordan_block",
     ["bundles", "classify", "--input", "matrix_jordan_block.json"]),
    ("bundles_classify_two_blocks",
     ["bundles", "classify", "--input", "matrix_two_blocks.json"]),
    ("gap_report_upper_3x3",
     ["gap", "report", "--input", "family_upper_3x3.json", "--point", "[0]"]),
]


def run_case(argv) -> str:
    """Stdout of one case, with document names resolved in GOLDEN."""
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("name, argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv):
    assert run_case(argv) == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


PAIRS = [name[:-6] for name, _ in CASES
         if name.endswith("_float") and name[:-6] + "_exact" in {c[0] for c in CASES}]
# report fields that only exact arithmetic can set
MODE_FLAGS = {"exact", "exact_zero", "determined_exact_zero"}


def _leaves(doc, path=()):
    """(path, leaf) for every leaf of an output document.  A term list gives
    one complex leaf per exponent tuple, and a fraction string its value."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(doc, list) and doc and isinstance(doc[0], dict) and "exps" in doc[0]:
        for t in doc:
            yield path + (tuple(t["exps"]),), complex(*(Fraction(t[p]) for p in ("re", "im")))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _leaves(v, path + (i,))
    else:
        yield path, Fraction(doc) if isinstance(doc, str) else doc


def _is_number(v):
    return isinstance(v, (float, complex, Fraction))


@pytest.mark.parametrize("base", PAIRS)
def test_float_golden_tracks_its_exact_golden(base):
    f, e = ({k: v for k, v in _leaves(json.loads((GOLDEN / f"{base}_{m}.out").read_text()))
             if k[-1] not in MODE_FLAGS} for m in ("float", "exact"))
    # the same structure; a term may be absent in one mode only, where it is 0
    structure = [{k: v for k, v in x.items() if not _is_number(v)} for x in (f, e)]
    assert structure[0] == structure[1]
    assert {k for k in f if not isinstance(k[-1], tuple)} == {
        k for k in e if not isinstance(k[-1], tuple)}
    scale = max([1.0] + [abs(v) for v in e.values() if _is_number(v)])
    worst = max(abs(complex(f.get(k, 0j)) - complex(e.get(k, 0j)))
                for k in set(f) | set(e) if _is_number(f.get(k, 0j)) and _is_number(e.get(k, 0j)))
    assert worst <= FLOAT_EXACT_BOUND * scale
