"""The scalar mode's one owner: exact decisions never pass through a float.

Each exact-mode case below differs from an accepted input by a term far
below the float range (10^-200) or carries a coefficient whose square is
beyond it (10^200), so a decision made on float magnitudes gets it wrong.
"""

import json
import math
from fractions import Fraction

import pytest

from strata import cli
from strata.appendix import classify_2x2
from strata.errors import ValidationError
from strata.gauge import dv_witness
from strata.polynomials import Poly
from strata.scalars import ComplexRational, coerce, float_pair, magnitude, zero_test
from strata.series import SeriesRing

TINY = Fraction(1, 10**200)


def test_classify_2x2_sees_a_tiny_structure_residual():
    x = Poly.variable(1, 0, exact=True)
    zero = Poly(1, None, True)
    # without the x^3 term this is type I with kappa = 3
    assert classify_2x2(x * 2, zero, x * x * 3, x).kind == "I"
    res = classify_2x2(x * 2, zero, x * x * 3 + x * x * x * TINY, x)
    assert res.kind == "not-integrable"
    assert "structure" in res.reason


def test_dv_witness_sees_a_tiny_inconsistency():
    ring = SeriesRing(2, 4, ["0", "1"], exact=True)
    z = ring.zero()
    delta = ring.matrix([[ring.var(0), z], [z, ring.var(1)]])
    B = ring.matrix([[z, ring.var(1) - ring.var(0)], [z, z]])

    def varpi(eps):
        return [ring.matrix([[z, ring.one() + ring.var(0).scale(eps)], [z, z]]),
                ring.matrix([[z, ring.const(-1)], [z, z]])]

    assert dv_witness(delta, B, varpi(0)).ok
    rep = dv_witness(delta, B, varpi(TINY))
    assert not rep.ok and rep.L is None
    assert [p for p, _ in rep.obstructions] == [(0, 1)]


def test_de_solve_with_a_huge_exact_coefficient(tmp_path, capsys):
    big = str(10**200)
    doc = {
        "d": 1, "n": 2, "x0": [["0", "0"]],
        "f": [[{"exps": [1], "re": big, "im": "0"}], [{"exps": [0], "re": "1", "im": "0"}]],
        "b": [["0", "0"], ["1/2", "0"]],
        "F0": [[["0", "0"], ["1", "0"]], [["1/3", "0"], ["0", "0"]]],
    }
    f = tmp_path / "big.json"
    f.write_text(json.dumps(doc))
    code = cli.main(["de", "solve", "--input", str(f), "--order", "3"])
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads(out)
    assert result["feasible"] and result["residual"]["exact_zero"]


class TestScalars:
    def test_coerce(self):
        assert coerce("3/4", True) == ComplexRational(Fraction(3, 4))
        assert coerce(2, False) == 2 + 0j and isinstance(coerce(2, False), complex)
        assert coerce(ComplexRational(1, 2), False) == 1 + 2j

    def test_zero_test_exact_forms_no_magnitude(self):
        is_zero = zero_test(True, 1.0, scale=lambda: pytest.fail("scale called in exact mode"))
        assert is_zero(ComplexRational(0)) and not is_zero(ComplexRational(TINY))
        assert is_zero(Poly(1, None, True)) and not is_zero(Poly.constant(1, TINY, True))

    def test_zero_test_float_keeps_its_threshold(self):
        is_zero = zero_test(False, 1e-3, scale=lambda: 10.0)
        assert is_zero(0.01) and not is_zero(0.011)
        assert is_zero(Poly.constant(1, 0.01)) and not is_zero(Poly.constant(1, 0.02))

    def test_magnitude(self):
        assert magnitude(3 + 4j) == 5.0
        assert magnitude(ComplexRational(10**200)) == 1e200
        with pytest.raises(ValidationError):
            magnitude(ComplexRational(10**400))
        with pytest.raises(ValidationError):
            Poly.constant(1, 10**400, True).max_abs()

    def test_float_pair_is_unsigned(self):
        pair = float_pair(complex(-0.0, -0.0))
        assert pair == [0.0, 0.0] and all(math.copysign(1.0, v) == 1.0 for v in pair)
