"""Appendix verifiers: Pfaffian residual, non-versality model, 2x2 classifier."""

from fractions import Fraction

import pytest

from strata.appendix import (
    axis_curves,
    classify_2x2,
    malgrange_pfaffian_residual,
    nonversal_curve,
    rational_c_families,
)
from strata.errors import ValidationError
from strata.polynomials import Poly
from strata.series import SeriesRing


@pytest.fixture
def ring():
    return SeriesRing(1, 4, ["0"], exact=True)


class TestMalgrangeResidual:
    def test_zero_jet_trivial(self, ring):
        z = ring.zero()
        k0 = ring.matrix([[z, z], [z, z]])
        rep = malgrange_pfaffian_residual([[1, 0], [0, 2]], [[0, 0], [0, 0]], k0)
        assert rep.is_zero() and rep.max_abs() == 0.0
        assert rep.A.entry(0, 0).constant_term() == 1
        assert rep.A.entry(1, 1).constant_term() == 2

    def test_diagonal_jet_commutes(self, ring):
        t, z = ring.var(0), ring.zero()
        kdiag = ring.matrix([[t, z], [z, t.scale(3)]])
        rep = malgrange_pfaffian_residual([[1, 0], [0, 2]], [[5, 0], [0, 7]], kdiag)
        assert rep.is_zero()

    def test_e12_jet_does_not_commute(self, ring):
        t, z = ring.var(0), ring.zero()
        k12 = ring.matrix([[z, t], [z, z]])
        rep = malgrange_pfaffian_residual([[1, 0], [0, 2]], [[0, 0], [0, 0]], k12)
        assert not rep.is_zero() and rep.max_abs() > 0
        w0 = rep.omega[0]
        assert w0.entry(0, 1).constant_term() == -1
        assert w0.entry(1, 0).is_zero()

    def test_nonvanishing_jet_rejected(self, ring):
        z = ring.zero()
        with pytest.raises(ValidationError):
            malgrange_pfaffian_residual(
                [[1, 0], [0, 2]], [[0, 0], [0, 0]],
                ring.matrix([[ring.one(), z], [z, z]]),
            )


class TestNonversalCurve:
    def test_unit_data_exact_cancellation(self):
        rep = nonversal_curve(1, 1, 1, 2)
        assert rep.ok and rep.max_residual <= 1e-10

    def test_zero_data(self):
        rep = nonversal_curve(0, 0, 0, 3.5 + 1j)
        assert rep.ok and rep.max_residual == 0.0

    def test_perturbed_exponent_detected(self):
        rep = nonversal_curve(1, 1, 1, 2, exponents=(1, 1 - 2 + 0.1, 1 + 2))
        assert not rep.ok
        w1max = max(abs(row[0]) for row in rep.residuals)
        w2max = max(abs(row[1]) for row in rep.residuals)
        w3max = max(abs(row[2]) for row in rep.residuals)
        # the beta exponent enters the first and third forms only
        assert w1max > 1e-3 and w3max > 1e-3
        assert w2max <= 1e-10

    def test_complex_data_and_custom_grid(self):
        rep = nonversal_curve(2 - 1j, 0.5, 1j, -0.75 + 0.25j, tgrid=[k / 7 for k in range(8)])
        assert rep.ok

    def test_report_dict(self):
        d = nonversal_curve(1, 1, 1, 2).to_dict()
        assert d["ok"] is True
        assert len(d["residuals"]) == len(d["t"]) == len(d["samples"])

    def test_non_finite_residual_is_not_ok(self):
        # at t = 200, gamma ~ 1e260 and alpha ~ 1e86: w2 = inf - inf = nan
        rep = nonversal_curve(1, 1, 1, 2, tgrid=[0, 100, 200])
        assert rep.max_residual == float("inf") and not rep.ok

    def test_overflow_is_refused(self):
        with pytest.raises(ValidationError):
            nonversal_curve(1, 1, 1, 1e308, tgrid=[0, 1000])


class TestRationalFamilies:
    def test_regime_below_minus_one(self):
        fams = rational_c_families(-2, 1)
        assert len(fams) == 1
        f = fams[0]
        assert (f.alpha_exp, f.beta_exp, f.gamma_exp) == (1, 3, None)
        assert f.solves

    def test_regime_middle(self):
        fams = rational_c_families(1, 2)
        assert len(fams) == 1
        assert (fams[0].alpha_exp, fams[0].beta_exp, fams[0].gamma_exp) == (2, 1, 3)
        assert fams[0].solves

    def test_regime_above_one(self):
        fams = rational_c_families(2, 1)
        assert len(fams) == 1
        assert (fams[0].alpha_exp, fams[0].beta_exp, fams[0].gamma_exp) == (1, None, 3)
        assert fams[0].solves

    def test_half_family_when_sum_even(self):
        fams = rational_c_families(1, 3)
        assert len(fams) == 2
        half = fams[1]
        assert (half.alpha_exp, half.beta_exp, half.gamma_exp) == (None, 1, 2)
        assert all(f.solves for f in fams)
        fams = rational_c_families(-3, 5)
        assert len(fams) == 2
        assert (fams[1].beta_exp, fams[1].gamma_exp) == (4, 1)
        assert all(f.solves for f in fams)

    def test_degenerate_c_rejected(self):
        for p, q in ((1, 1), (-1, 1)):
            with pytest.raises(ValidationError):
                rational_c_families(p, q)
        with pytest.raises(ValidationError):
            rational_c_families(2, 4)

    def test_axis_curves(self):
        axes = axis_curves()
        assert all(f.solves for f in axes)
        assert [f.tangent for f in axes] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_family_dict_exact_residuals(self):
        d = rational_c_families(1, 2)[0].to_dict()
        # no coordinate vanishes in the middle regime; residuals are exact zeros
        assert d["zero_flags"] == [False, False, False]
        assert d["residuals"] == ["0", "0", "0"]
        d = rational_c_families(-2, 1)[0].to_dict()
        assert d["zero_flags"] == [False, False, True]


class TestClassify2x2:
    x = Poly.variable(2, 0, exact=True)
    y = Poly.variable(2, 1, exact=True)
    zero = Poly(2, None, True)

    def test_type_i(self):
        g, m = self.x, -self.x
        kappa = Fraction(5, 3)
        l = (m - g) * (m - g) * kappa
        res = classify_2x2(g, self.zero, l, m)
        assert res.kind == "I" and res.integrable
        assert res.kappa == kappa
        assert res.diagonalization_residual == 0.0
        assert res.A[0][1].is_zero() and res.A[1][0] == l * 2

    def test_type_i_zero_kappa(self):
        res = classify_2x2(self.x, self.zero, self.zero, -self.x)
        assert res.kind == "I" and res.kappa == 0

    def test_type_ii(self):
        s = self.x + self.y
        res = classify_2x2(s, self.zero, self.zero, s)
        assert res.kind == "II" and res.integrable

    def test_type_iii(self):
        s = self.x + self.y
        res = classify_2x2(s, self.x, self.zero, s)
        assert res.kind == "III" and res.integrable

    def test_structure_violation(self):
        res = classify_2x2(self.x, self.y, self.x * self.x, -self.x)
        assert res.kind == "not-integrable"
        assert "structure" in res.reason

    def test_lower_entry_not_proportional(self):
        res = classify_2x2(self.x, self.zero, self.x, -self.x)
        assert res.kind == "not-integrable"

    def test_degenerate_equal_diagonal(self):
        res = classify_2x2(self.x, self.zero, self.y, self.x)
        assert res.kind == "not-integrable"
        assert "normal form" in res.reason

    def test_h_with_distinct_diagonal(self):
        res = classify_2x2(self.x, self.x, self.zero, -self.x)
        assert res.kind == "not-integrable"

    def test_float_mode(self):
        gf, mf = self.x.to_float(), (-self.x).to_float()
        lf = ((mf - gf) * (mf - gf)) * (0.25 + 0.5j)
        res = classify_2x2(gf, self.zero.to_float(), lf, mf)
        assert res.kind == "I"
        assert abs(res.kappa - (0.25 + 0.5j)) < 1e-12
        assert res.diagonalization_residual <= 1e-9

    def test_nonvanishing_entry_rejected(self):
        with pytest.raises(ValidationError):
            classify_2x2(self.x + 1, self.zero, self.zero, self.x)

    def test_dict_round_trip(self):
        g, m = self.x, -self.x
        l = (m - g) * (m - g) * Fraction(5, 3)
        d = classify_2x2(g, self.zero, l, m).to_dict()
        assert d["type"] == "I"
        assert d["kappa"] == ["5/3", "0"]
