"""Golden CLI outputs: fixed documents in tests/data/golden and their stdout.

Each case runs one command on committed input documents and compares its
stdout with the recorded ``<case>.out``.  Exact-mode outputs must match
byte for byte.  Floating-mode outputs are compared as parsed JSON with
``==``, because an equivalent rearrangement of float arithmetic may flip
the sign of a zero component (``-c`` and ``0j - c`` differ there).
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from strata import cli

GOLDEN = Path(__file__).parent / "data" / "golden"

# (case name, exact output, argv); argv entries ending in .json name
# documents in GOLDEN
CASES = [
    ("de_solve_coalescent_exact", True,
     ["de", "solve", "--input", "de_coalescent_exact.json", "--order", "3"]),
    ("de_oracle_coalescent_exact", True,
     ["de", "oracle", "--input", "de_coalescent_exact.json", "--order", "3"]),
    ("de_residual_coalescent_exact", True,
     ["de", "residual", "--input", "de_coalescent_exact.json",
      "--jet", "jet_coalescent_exact.json", "--order", "2"]),
    ("de_solve_regular_exact", True,
     ["de", "solve", "--input", "de_regular_exact.json", "--order", "3"]),
    ("de_oracle_regular_exact", True,
     ["de", "oracle", "--input", "de_regular_exact.json", "--order", "3"]),
    ("de_solve_coalescent_float", False,
     ["de", "solve", "--input", "de_coalescent_float.json", "--order", "3"]),
    ("de_oracle_coalescent_float", False,
     ["de", "oracle", "--input", "de_coalescent_float.json", "--order", "3"]),
    ("de_residual_coalescent_float", False,
     ["de", "residual", "--input", "de_coalescent_float.json",
      "--jet", "jet_coalescent_float.json", "--order", "2"]),
    ("de_solve_regular_float", False,
     ["de", "solve", "--input", "de_regular_float.json", "--order", "3"]),
    ("de_oracle_regular_float", False,
     ["de", "oracle", "--input", "de_regular_float.json", "--order", "3"]),
    ("gauge_build_coalescent_exact", True,
     ["gauge", "build", "--input", "conn_coalescent_exact.json"]),
    ("gauge_build_pnr_exact", True,
     ["gauge", "build", "--input", "conn_pnr_exact.json"]),
    ("gauge_build_coalescent_float", False,
     ["gauge", "build", "--input", "conn_coalescent_float.json"]),
    ("gauge_simplify_coalescent_exact", True,
     ["gauge", "simplify", "--input", "conn_coalescent_exact.json",
      "--order", "3", "--mode", "coalescent"]),
    ("gauge_simplify_regular_exact", True,
     ["gauge", "simplify", "--input", "conn_regular_exact.json", "--order", "3"]),
    ("gauge_simplify_coalescent_float", False,
     ["gauge", "simplify", "--input", "conn_coalescent_float.json",
      "--order", "3", "--mode", "coalescent"]),
    ("gauge_residual_coalescent_exact", True,
     ["gauge", "residual", "--input", "conn_coalescent_exact.json",
      "--gauge", "gauge_coalescent_exact.json"]),
    ("gauge_residual_coalescent_float", False,
     ["gauge", "residual", "--input", "conn_coalescent_float.json",
      "--gauge", "gauge_coalescent_float.json"]),
    ("bundles_classify_semisimple_distinct", False,
     ["bundles", "classify", "--input", "matrix_semisimple_distinct.json"]),
    ("bundles_classify_semisimple_repeated", False,
     ["bundles", "classify", "--input", "matrix_semisimple_repeated.json"]),
    ("bundles_classify_jordan_block", False,
     ["bundles", "classify", "--input", "matrix_jordan_block.json"]),
    ("bundles_classify_two_blocks", False,
     ["bundles", "classify", "--input", "matrix_two_blocks.json"]),
    ("gap_report_upper_3x3", False,
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


@pytest.mark.parametrize("name, exact, argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, exact, argv):
    out = run_case(argv)
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    if exact:
        assert out == expected
    else:
        assert json.loads(out) == json.loads(expected)
