"""Order-by-order solver for the generalized Darboux-Egoroff system."""

from fractions import Fraction

import pytest

from strata.darboux import (
    DEJet,
    DEProblem,
    _exact_eliminate,
    _exact_sparse_solve,
    de_closed_form_n2,
    de_oracle_solve,
    de_residual,
    de_solve_jet,
)
from strata.errors import OracleError, ResonanceError, ValidationError
from strata.gauge import connection_from_de
from strata.polynomials import Poly
from strata.scalars import ComplexRational, nonzero_int
from strata.series import SeriesMatrix, SeriesRing


def X(d, a):
    return Poly.variable(d, a, exact=True)


def jets_agree(j1, j2, K=None):
    K = K if K is not None else j1.F.ring.K
    n = j1.n
    for k in range(n):
        for h in range(n):
            c1, c2 = j1.F.entry(k, h).coeffs, j2.F.entry(k, h).coeffs
            for e in set(c1) | set(c2):
                if sum(e) > K:
                    continue
                if c1.get(e, 0) != c2.get(e, 0):
                    return False
    return True


class TestProblemValidation:
    def test_coalescent_flag(self):
        p = DEProblem(3, 3, ["0", "0", "1"], [X(3, 0), X(3, 1), X(3, 2)], ["0", "0", "0"])
        assert p.coalescent
        assert p.is_coalescent(0, 1) and not p.is_coalescent(0, 2)
        q = DEProblem(2, 2, ["0", "1"], [X(2, 0), X(2, 1)], ["0", "0"])
        assert not q.coalescent

    @pytest.mark.parametrize("exact", [True, False])
    def test_pairs_agree_with_connection(self, exact):
        # b_1 - b_0 = 1 at the coalescent pair (0, 1): a PNR violation
        if exact:
            p = DEProblem(3, 3, ["0", "0", "1"], [X(3, 0), X(3, 1), X(3, 2)], ["0", "1", "3/4"])
        else:
            f = [X(3, a).to_float() for a in range(3)]
            p = DEProblem(3, 3, [0.0, 0.0, 1.0], f, [0.0, 1.0, 0.75])
        jet, _, _ = de_solve_jet(p, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], 2)
        conn = connection_from_de(p, jet)
        assert p.coalescent == set(conn.coalescent_pairs) == {(0, 1), (1, 0)}
        assert p.pnr_violations == conn.pnr_violations == [(0, 1, -1), (1, 0, 1)]

    def test_shape_errors(self):
        with pytest.raises(Exception):
            DEProblem(2, 2, ["0"], [X(2, 0), X(2, 1)], ["0", "0"])
        with pytest.raises(Exception):
            DEProblem(2, 2, ["0", "1"], [X(2, 0)], ["0", "0"])


class TestSolver:
    def test_zero_seed_gives_zero_jet(self):
        p = DEProblem(2, 2, ["0", "1"], [X(2, 0), X(2, 1)], ["0", "0"])
        jet, feasible, rep = de_solve_jet(p, [[0, 0], [0, 0]], 4)
        assert jet.F.is_zero()
        assert feasible and rep.exact_zero
        assert de_oracle_solve(p, [[0, 0], [0, 0]], 4).F.is_zero()

    def test_constant_jet_residual_magnitude(self):
        # n=2, b=(0,0), F = offdiag ones: DE2 residual is the constant 1
        p = DEProblem(2, 2, ["0", "1"], [X(2, 0), X(2, 1)], ["0", "0"])
        ring = SeriesRing(2, 1, ["0", "1"], exact=True)
        one, z = ring.one(), ring.zero()
        jet = DEJet(SeriesMatrix([[z, one], [one, z]]))
        rep = de_residual(p, jet, 0)
        assert rep.de2[0] == 1.0
        assert rep.de1[0] == 0.0

    def test_n2_closed_form_and_oracle_k6(self):
        p = DEProblem(2, 2, ["0", "1"], [X(2, 0), X(2, 1)], ["0", "1/2"])
        F0 = [[0, Fraction(3, 2)], [Fraction(-2, 7), 0]]
        jet, feasible, rep = de_solve_jet(p, F0, 6)
        assert feasible and rep.exact_zero
        assert jets_agree(jet, de_closed_form_n2(p, F0, 6))
        assert jets_agree(jet, de_oracle_solve(p, F0, 6))
        # binomial spot check: coefficient of (x1 - 0)^1 in F_12
        assert jet.F.entry(0, 1).coeff((1, 0)) == Fraction(3, 4)

    def test_series_f_refused(self):
        ring = SeriesRing(2, 3, ["0", "1"], exact=True)
        with pytest.raises(ValidationError):
            DEProblem(2, 2, ["0", "1"], [X(2, 0), ring.var(1)], ["0", "1/2"])

    def test_closed_form_requires_regular_base(self):
        p = DEProblem(2, 2, ["0", "0"], [X(2, 0), X(2, 1)], ["0", "1/2"])
        with pytest.raises(ValidationError):
            de_closed_form_n2(p, [[0, 1], [1, 0]], 3)

    def test_coalescent_infeasible_seed_flagged(self):
        p = DEProblem(2, 2, ["0", "0"], [X(2, 0), X(2, 1)], ["0", "0"])
        jet, feasible, rep = de_solve_jet(p, [[0, 1], [1, 0]], 3)
        assert not feasible
        assert rep.max_abs > 0.5

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_resonance_raised_by_both_routes(self, exact):
        # b[1] - b[0] = 2 at a coalescent pair: the degree-1 system is singular
        f = [Poly.variable(2, a, exact=exact) for a in range(2)]
        p = DEProblem(2, 2, ["0", "0"], f, ["0", "2"])
        assert p.exact == exact
        with pytest.raises(ResonanceError) as solver:
            de_solve_jet(p, [[0, 1], [1, 0]], 2)
        with pytest.raises(ResonanceError) as oracle:
            de_oracle_solve(p, [[0, 1], [1, 0]], 2)
        assert str(oracle.value) == str(solver.value)

    def test_oracle_reports_inconsistent_seed(self):
        # F0 violates the degree-0 constraint at the coalescent pair and no
        # b difference is resonant, so the oracle's system is inconsistent
        p = DEProblem(2, 2, ["0", "0"], [X(2, 0), X(2, 1)], ["0", "1/2"])
        with pytest.raises(OracleError, match="inconsistent linear system at degree 1"):
            de_oracle_solve(p, [[0, 1], [1, 0]], 2)

    def test_coalescent_feasible_seed(self):
        f3 = [X(3, 0), X(3, 1), X(3, 2)]
        p = DEProblem(3, 3, ["0", "0", "1"], f3, ["0", "0", "0"])
        a, b_, c, d_ = Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5), Fraction(1, 7)
        F0 = [[0, -a * d_, a], [-c * b_, 0, c], [b_, d_, 0]]
        jet, feasible, rep = de_solve_jet(p, F0, 4)
        assert feasible and rep.exact_zero
        assert jets_agree(jet, de_oracle_solve(p, F0, 4))

    def test_regular_polynomial_branchpoints(self):
        f = [X(2, 0) + X(2, 1) * X(2, 1), X(2, 1), X(2, 0) * X(2, 1)]
        p = DEProblem(2, 3, ["2", "3"], f, ["1/3", "0", "-1/2"])
        F0 = [
            [0, Fraction(1, 2), Fraction(-1, 3)],
            [Fraction(2, 7), 0, Fraction(1, 5)],
            [Fraction(-3, 4), Fraction(1, 6), 0],
        ]
        jet, feasible, rep = de_solve_jet(p, F0, 4)
        assert feasible and rep.exact_zero
        assert jets_agree(jet, de_oracle_solve(p, F0, 4))

    def test_float_mode_tracks_exact_mode(self):
        f = [X(2, 0) + X(2, 1) * X(2, 1), X(2, 1), X(2, 0) * X(2, 1)]
        p = DEProblem(2, 3, ["2", "3"], f, ["1/3", "0", "-1/2"])
        F0 = [
            [0, Fraction(1, 2), Fraction(-1, 3)],
            [Fraction(2, 7), 0, Fraction(1, 5)],
            [Fraction(-3, 4), Fraction(1, 6), 0],
        ]
        jet, _, _ = de_solve_jet(p, F0, 4)
        pf = DEProblem(2, 3, [2.0, 3.0], [fi.to_float() for fi in f], [1 / 3, 0.0, -0.5])
        F0f = [[0, 0.5, -1 / 3], [2 / 7, 0, 0.2], [-0.75, 1 / 6, 0]]
        jf, feasible, _ = de_solve_jet(pf, F0f, 4)
        assert feasible
        worst = 0.0
        for k in range(3):
            for h in range(3):
                for e, cv in jet.F.entry(k, h).coeffs.items():
                    worst = max(worst, abs(complex(cv) - complex(jf.F.entry(k, h).coeff(e))))
        assert worst < 1e-9


class TestResidualReport:
    def test_report_dict_shape(self):
        p = DEProblem(2, 2, ["0", "1"], [X(2, 0), X(2, 1)], ["0", "1/2"])
        jet, _, rep = de_solve_jet(p, [[0, 1], [1, 0]], 3)
        d = rep.to_dict()
        assert set(d) >= {"order", "DE1", "DE2", "max_abs", "exact", "exact_zero"}
        assert d["exact"] is True and d["exact_zero"] is True

    def test_independent_residual_on_truncation(self):
        # dropping the top-degree terms must leave residuals zero below it
        p = DEProblem(2, 2, ["0", "1"], [X(2, 0), X(2, 1)], ["0", "1/2"])
        jet, _, _ = de_solve_jet(p, [[0, 1], [1, 0]], 4)
        rep = de_residual(p, jet, 2)
        assert rep.exact_zero


def Q(v):
    return ComplexRational(Fraction(v))


class TestExactElimination:
    def test_square_solution(self):
        rows = [[Q(2), Q(1)], [Q(1), Q(3)]]
        assert _exact_eliminate(rows, [Q(3), Q(5)], 2) == [Q("4/5"), Q("7/5")]

    def test_singular(self):
        rows = [[Q(1), Q(2)], [Q(2), Q(4)]]
        assert _exact_eliminate(rows, [Q(1), Q(2)], 2) == "singular"
        assert _exact_eliminate([], [], 1) == "singular"

    def test_inconsistent(self):
        rows = [[Q(1), Q(1)], [Q(1), Q(-1)], [Q(2), Q(0)]]
        assert _exact_eliminate(rows, [Q(2), Q(0), Q(3)], 2) == "inconsistent"

    def test_overdetermined_consistent(self):
        rows = [[Q(1), Q(1)], [Q(1), Q(-1)], [Q(2), Q(0)]]
        assert _exact_eliminate(rows, [Q(2), Q(0), Q(2)], 2) == [Q(1), Q(1)]

    def test_sparse_rows(self):
        # rows read sum(coeff * u) + const = 0; u0 comes from a unit row,
        # u1 and u2 from the coupled core
        rows = [
            ({0: Q(2)}, Q(-4)),
            ({0: Q(1), 1: Q(1), 2: Q(1)}, Q(-6)),
            ({1: Q(1), 2: Q(-1)}, Q(0)),
        ]
        assert _exact_sparse_solve(rows, 3) == [Q(2), Q(2), Q(2)]
        assert _exact_sparse_solve(rows[:2], 3) == "singular"
        assert _exact_sparse_solve(rows + [({0: Q(1)}, Q(0))], 3) == "inconsistent"
        assert _exact_sparse_solve(rows + [({}, Q(1))], 3) == "inconsistent"


class TestNonzeroInt:
    def test_exact(self):
        assert nonzero_int(Q(3), True) == 3
        assert nonzero_int(Q(-2), True) == -2
        assert nonzero_int(Q(0), True) is None
        assert nonzero_int(Q("1/2"), True) is None
        assert nonzero_int(ComplexRational(1, 1), True) is None

    def test_float_box(self):
        assert nonzero_int(2.0 + 0j, False) == 2
        assert nonzero_int(2.0 + 5e-9 + 5e-9j, False) == 2
        assert nonzero_int(2.0 + 2e-8, False) is None
        assert nonzero_int(2.0 + 2e-8j, False) is None
        assert nonzero_int(1e-9 + 0j, False) is None
