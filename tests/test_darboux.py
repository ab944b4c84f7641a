"""Order-by-order solver for the generalized Darboux-Egoroff system."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from test_solver_differential import FLOAT_EXACT_BOUND

from strata import darboux
from strata.darboux import (
    DEJet,
    DEProblem,
    _exact_solve,
    _solve,
    de_closed_form_n2,
    de_oracle_solve,
    de_residual,
    de_solve_jet,
)
from strata.errors import OracleError, ResonanceError, ValidationError
from strata.gauge import connection_from_de
from strata.polynomials import Poly
from strata.scalars import ComplexRational, nonzero_int, to_complex
from strata.schemas import decode_de_problem
from strata.series import SeriesMatrix, SeriesRing, TruncatedSeries, exponents_of_degree

GOLDEN = Path(__file__).parent / "data" / "golden"


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

    @pytest.mark.parametrize("tol", [float("nan"), -1, 0, float("inf")])
    def test_tol_must_be_finite_and_positive(self, tol):
        # a bad tol would classify the coalescent pair (0, 1) as regular
        with pytest.raises(ValidationError, match="tol must be a finite positive number"):
            DEProblem(3, 3, ["0", "0", "1"], [X(3, 0), X(3, 1), X(3, 2)], ["0", "0", "0"], tol=tol)

    def test_only_inexact_data_switches_to_float(self, monkeypatch):
        # an input that cannot be made exact (1.5, 1+2.5j, nan, ...) selects
        # float mode; any other error in the exact coercion surfaces
        args = (2, 2, [0, 1], [X(2, 0), X(2, 1)], [0, Fraction(1, 2)])
        p, real = DEProblem(*args), darboux.coerce
        assert p.exact and not DEProblem(2, 2, ["0", 1.5], *args[3:]).exact

        def broken(v, exact):
            if exact:
                raise RuntimeError("coercion bug")
            return real(v, exact)

        monkeypatch.setattr(darboux, "coerce", broken)
        with pytest.raises(RuntimeError, match="coercion bug"):
            DEProblem(*args)
        with pytest.raises(RuntimeError, match="coercion bug"):
            de_solve_jet(p, [[0, 1], [1, 0]], 2)


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

    def test_float_feasibility_scales_with_the_jet(self):
        # n = 2 is linear in F0, so the jet and its rounding residual scale
        # with F0 alike; at 1e6 the residual passes 1e-9 in absolute terms
        x = [Poly.variable(2, a, exact=False) for a in range(2)]
        f = [x[0] + x[1] * x[1] * 0.5, x[1] - x[0] * x[0] * 0.25]
        p = DEProblem(2, 2, [1 / 3, -0.4], f, [1 / 3, 0.5])
        for s in (1.0, 1e6):
            jet, feasible, rep = de_solve_jet(p, [[0, s * (1 + 1j / 3)], [-s / 7, 0]], 6)
            assert feasible and not jet.F.ring.exact
        assert rep.max_abs > 1e-9
        # an inadmissible float seed is still flagged
        q = DEProblem(2, 2, [0, 0], x, [0, 0])
        assert not de_solve_jet(q, [[0, 1], [1, 0]], 3)[1]

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

    def test_order_zero_judges_the_base_point(self):
        # a K = 0 jet is F0 itself, and its report holds the degree-0 constraint
        p = DEProblem(2, 2, ["0", "0"], [X(2, 0), X(2, 1)], ["0", "1/2"])
        jet, feasible, rep = de_solve_jet(p, [[0, 1], [1, 0]], 0)
        assert jet.order == 0 and not feasible and rep.order == -1 and rep.max_abs > 0
        assert de_solve_jet(p, [[0, 0], [0, 0]], 0)[1]
        with pytest.raises(OracleError, match="inconsistent linear system at degree 0"):
            de_oracle_solve(p, [[0, 1], [1, 0]], 0)
        assert de_oracle_solve(p, [[0, 0], [0, 0]], 0).order == 0

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_oracle_reports_inconsistent_seed(self, exact):
        # F0 violates the degree-0 constraint at the coalescent pair and no
        # b difference is resonant, so the oracle's system is inconsistent
        f = [Poly.variable(2, a, exact=exact) for a in range(2)]
        p = DEProblem(2, 2, [0, 0], f, [0, Fraction(1, 2)])
        assert p.exact == exact
        with pytest.raises(OracleError, match="inconsistent linear system at degree 1"):
            de_oracle_solve(p, [[0, 1], [1, 0]], 2)

    @pytest.mark.parametrize("name", ["de_coalescent_exact.json", "de_coalescent_float.json"])
    def test_oracle_builds_no_row_without_unknowns(self, name, monkeypatch):
        # the base-point constraint is judged once by base_point_residual,
        # and every row handed to the linear solver names an unknown
        solve, base = darboux._solve, darboux._Engine.base_point_residual
        calls = {"rows": 0, "empty": 0, "base": 0}

        def counted_solve(rows, ncols, exact):
            calls["rows"] += len(rows)
            calls["empty"] += sum(not entries for entries, _ in rows)
            return solve(rows, ncols, exact)

        def counted_base(eng):
            calls["base"] += 1
            return base(eng)

        monkeypatch.setattr(darboux, "_solve", counted_solve)
        monkeypatch.setattr(darboux._Engine, "base_point_residual", counted_base)
        p, F0 = decode_de_problem(json.loads((GOLDEN / name).read_text()))
        assert p.coalescent
        de_oracle_solve(p, F0, 3)
        assert calls["rows"] > 0 and calls["empty"] == 0 and calls["base"] == 1

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


def _gap_problem(gap, exact: bool):
    """A d = 2, n = 3 problem coalescent in (0, 1) at the origin, whose
    differential gap there is D = (1, gap), and an admissible F0."""
    x = [X(2, a) for a in range(2)]
    f = [x[1] + x[0] * x[0] * Fraction(1, 2),
         x[0] + (1 + gap) * x[1] + x[0] * x[1] * Fraction(1, 3),
         1 + 2 * x[0] - x[1] - x[1] * x[1] * Fraction(1, 4)]
    b = [Fraction(0), Fraction(1, 3), Fraction(-1, 2)]
    F0 = [[0, 0, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [Fraction(3, 5), Fraction(1, 4), 0]]
    for k, h in ((0, 1), (1, 0)):
        # the degree-0 constraint, f_2 - f_k = 1 at the origin
        F0[k][h] = F0[k][2] * F0[2][h] / (b[h] - b[k] - 1)
    if exact:
        return DEProblem(2, 3, [0, 0], f, b), F0
    return (DEProblem(2, 3, [0.0, 0.0], [fi.to_float() for fi in f], [float(v) for v in b]),
            [[float(v) for v in row] for row in F0])


def _coeffs(jet):
    return {(k, h): {e: to_complex(c) for e, c in jet.entry(k, h).items()}
            for k in range(jet.n) for h in range(jet.n) if k != h}


def _relative_distance(want, got):
    """The largest coefficient distance, relative to max(1, max |want coefficient|)."""
    scale = max([1.0] + [abs(c) for cs in want.values() for c in cs.values()])
    return max(abs(got[kh].get(e, 0j) - want[kh].get(e, 0j))
               for kh in want for e in set(got[kh]) | set(want[kh])) / scale


class TestOracleOrder:
    """The oracle solves each degree as one system per pair, in that pair's
    own columns, the regular pairs first so the coalescent ones read their values."""

    @staticmethod
    def systems(name, monkeypatch, K=3):
        """(degree, pairs with rows in it, ncols) of each system the oracle solves."""
        E, solve, state, systems = darboux._Engine, darboux._solve, {"pairs": set()}, []
        load, de1_row, de2_row = E.load, E.de1_row, E.de2_row

        def spy_load(eng, m):
            state["m"] = m
            return load(eng, m)

        def spy_de1_row(eng, i, j, kh, beta):
            state["pairs"].add(kh)
            return de1_row(eng, i, j, kh, beta)

        def spy_de2_row(eng, i, kh, e):
            state["pairs"].add(kh)
            return de2_row(eng, i, kh, e)

        def spy_solve(rows, ncols, exact):
            systems.append((state["m"], state["pairs"], ncols))
            state["pairs"] = set()
            return solve(rows, ncols, exact)

        for attr, spy in (("load", spy_load), ("de1_row", spy_de1_row), ("de2_row", spy_de2_row)):
            monkeypatch.setattr(E, attr, spy)
        monkeypatch.setattr(darboux, "_solve", spy_solve)
        p, F0 = decode_de_problem(json.loads((GOLDEN / name).read_text()))
        de_oracle_solve(p, F0, K)
        return p, systems

    @pytest.mark.parametrize("name", ["de_coalescent_exact.json", "de_coalescent_float.json",
                                      "de_regular_exact.json"])
    def test_one_system_per_pair(self, name, monkeypatch):
        p, systems = self.systems(name, monkeypatch)
        pairs = [(k, h) for k in range(p.n) for h in range(p.n) if k != h]
        regular = [kh for kh in pairs if not p.is_coalescent(*kh)]
        coalescent = [kh for kh in pairs if p.is_coalescent(*kh)]
        assert regular and bool(coalescent) == ("coalescent" in name)
        # each system's columns are the degree-m unknowns of its one pair
        assert systems == [(m, {kh}, len(exponents_of_degree(p.d, m)))
                           for m in (1, 2, 3) for kh in regular + coalescent]

    @pytest.mark.parametrize("scale", [1e3, 1e4])
    def test_one_pairs_scale_leaves_another_pairs_system_regular(self, scale):
        # every pair is regular; the pairs' differentials differ in size by
        # about scale, which made a system holding all of them singular
        x = [Poly.variable(2, a, exact=False) for a in range(2)]
        f = [scale * x[0], Poly.constant(2, 2e-10, exact=False) + scale * x[0] + x[1],
             Poly.constant(2, 0.5, exact=False) + x[1]]
        with pytest.warns(UserWarning, match="near-coalescent"):
            p = DEProblem(2, 3, [0.0, 0.0], f, [0.0, 0.3, -0.45])
        F0 = [[0, 0.5, 0.7], [0.2, 0, 0.3], [0.4, 0.1, 0]]
        assert not p.coalescent
        jet, feasible, _ = de_solve_jet(p, F0, 3)
        assert feasible
        assert _relative_distance(_coeffs(jet), _coeffs(de_oracle_solve(p, F0, 3))) <= FLOAT_EXACT_BOUND

    def test_links_between_coalescent_pairs_are_left_out(self):
        # the branch values 0, 9e-11 and 1.8e-10 agree within tol in (0, 1)
        # and (1, 2) but not in (0, 2), so four links join coalescent pairs
        x = [Poly.variable(2, a, exact=False) for a in range(2)]
        f = [x[0], Poly.constant(2, 9e-11, exact=False) + x[1],
             Poly.constant(2, 1.8e-10, exact=False) + x[0] + 2 * x[1]]
        with pytest.warns(UserWarning, match="near-coalescent"):
            p = DEProblem(2, 3, [0.0, 0.0], f, [0.0, 1.0, 2.0])
        F0 = [[0, 0.5, 0], [0, 0, 0.3], [0.4, 0, 0]]
        assert p.coalescent == {(0, 1), (1, 0), (1, 2), (2, 1)}
        eng = darboux._Engine(p, 4, False, F0)
        links = {(kh, pair) for i in range(2) for kh in p.coalescent
                 for pair, _ in eng.links[i, kh] if pair in p.coalescent}
        assert len(links) == 4
        jet, feasible, _ = de_solve_jet(p, F0, 4)
        oracle = de_oracle_solve(p, F0, 4)
        assert feasible and darboux._feasible(de_residual(p, oracle, 3), oracle)
        # the near-coalescent regular pair (0, 2) is ill-conditioned
        assert _relative_distance(_coeffs(jet), _coeffs(oracle)) <= 1e-9


class TestCoalescentSweep:
    """The recursion reaches each coalescent coefficient by one row and one
    division: it solves no linear system, and ignores no multiplier."""

    @pytest.mark.parametrize("name", ["de_coalescent_exact.json", "de_coalescent_float.json"])
    def test_solver_calls_no_linear_solve(self, name, monkeypatch):
        calls, solve = [], darboux._solve
        monkeypatch.setattr(darboux, "_solve", lambda *args: calls.append(args) or solve(*args))
        p, F0 = decode_de_problem(json.loads((GOLDEN / name).read_text()))
        assert p.coalescent
        assert de_solve_jet(p, F0, 3)[1] and calls == []
        de_oracle_solve(p, F0, 3)
        assert calls

    @pytest.mark.parametrize("gap", [Fraction(1, 10**13), Fraction(5, 10**11)],
                             ids=["1e-13", "5e-11"])
    def test_a_tiny_differential_gap_is_not_ignored(self, gap):
        # both gaps lie below the coalescence tolerance, 1e-10 of D_j0 = 1; the
        # DE1 rows name them as multipliers of already stored coefficients
        want = _coeffs(de_solve_jet(*_gap_problem(gap, True), 5)[0])
        scale = max([1.0] + [abs(c) for cs in want.values() for c in cs.values()])
        p, F0 = _gap_problem(gap, False)
        jet, feasible, _ = de_solve_jet(p, F0, 5)
        assert feasible and not jet.F.ring.exact
        got = _coeffs(jet)
        for other in (want, _coeffs(de_oracle_solve(p, F0, 5))):
            worst = max(abs(got[kh].get(e, 0j) - other[kh].get(e, 0j))
                        for kh in got for e in set(got[kh]) | set(other[kh]))
            assert worst <= FLOAT_EXACT_BOUND * scale


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


def _dense(rows, rhs):
    """rows * x = rhs as the sparse rows sum(coeff * u) + const = 0."""
    return [(dict(enumerate(r)), -v) for r, v in zip(rows, rhs)]


class TestExactElimination:
    def test_square_solution(self):
        rows = [[Q(2), Q(1)], [Q(1), Q(3)]]
        assert _exact_solve(_dense(rows, [Q(3), Q(5)]), 2) == [Q("4/5"), Q("7/5")]

    def test_singular(self):
        rows = [[Q(1), Q(2)], [Q(2), Q(4)]]
        assert _exact_solve(_dense(rows, [Q(1), Q(2)]), 2) == "singular"
        assert _exact_solve([], 1) == "singular"

    def test_inconsistent(self):
        rows = [[Q(1), Q(1)], [Q(1), Q(-1)], [Q(2), Q(0)]]
        assert _exact_solve(_dense(rows, [Q(2), Q(0), Q(3)]), 2) == "inconsistent"

    def test_overdetermined_consistent(self):
        rows = [[Q(1), Q(1)], [Q(1), Q(-1)], [Q(2), Q(0)]]
        assert _exact_solve(_dense(rows, [Q(2), Q(0), Q(2)]), 2) == [Q(1), Q(1)]

    def test_sparse_rows(self):
        # rows read sum(coeff * u) + const = 0; u0 comes from a unit row,
        # u1 and u2 from the coupled core
        rows = [
            ({0: Q(2)}, Q(-4)),
            ({0: Q(1), 1: Q(1), 2: Q(1)}, Q(-6)),
            ({1: Q(1), 2: Q(-1)}, Q(0)),
        ]
        assert _exact_solve(rows, 3) == [Q(2), Q(2), Q(2)]
        assert _exact_solve(rows[:2], 3) == "singular"
        assert _exact_solve(rows + [({0: Q(1)}, Q(0))], 3) == "inconsistent"
        assert _exact_solve(rows + [({}, Q(1))], 3) == "inconsistent"
        # zero coefficients are dropped, not pivoted on
        assert _exact_solve([({0: Q(1), 1: Q(0)}, Q(-1)), ({1: Q(1)}, Q(-2))], 2) == [Q(1), Q(2)]
        assert _exact_solve([({0: Q(0)}, Q(1))], 1) == "inconsistent"


def _block_system(scales, shapes, extra_cols=0, seed=7, real=False):
    """A float block-diagonal system, block i of shape shapes[i] scaled by
    scales[i], with its rows and columns shuffled and extra_cols columns no
    row names: the sparse rows of _solve, the assembled matrix and its
    right-hand side, and the column count.  The blocks are real when real
    is set; the right-hand side is always complex."""
    rng = np.random.default_rng(seed)
    m, n = (sum(s[i] for s in shapes) for i in (0, 1))
    A = np.zeros((m, n + extra_cols), dtype=complex)
    r = c = 0
    for scale, (bm, bn) in zip(scales, shapes):
        A[r:r + bm, c:c + bn] = scale * (rng.standard_normal((bm, bn))
                                         + (0 if real else 1j) * rng.standard_normal((bm, bn)))
        r, c = r + bm, c + bn
    A = A[rng.permutation(m)][:, rng.permutation(n + extra_cols)]
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    rows = [({j: A[i, j] for j in np.flatnonzero(A[i])}, -b[i]) for i in range(m)]
    return rows, A, b, n + extra_cols


class TestFloatSolve:
    @pytest.mark.parametrize("case", ["blocks", "scaled-block", "untouched-column"])
    def test_block_split(self, case):
        if case == "blocks":
            rows, A, b, ncols = _block_system([1.0, 3.0, 0.5], [(7, 3), (5, 4), (6, 2)])
            # a row with no entries leaves the least-squares solution as it is
            rows.append(({}, 1.0))
            A, b = np.vstack([A, np.zeros(ncols)]), np.append(b, -1.0)
            want = np.linalg.lstsq(A, b, rcond=None)[0]
            got = np.array(_solve(rows, ncols, False))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        elif case == "scaled-block":
            # each block is well conditioned on its own, but the whole
            # system's smallest singular value is below _RANK_TOL of its largest
            for scale, singular in ((1e-14, True), (1e-10, False)):
                rows, _, _, ncols = _block_system([1.0, scale], [(4, 3), (4, 3)])
                assert (_solve(rows, ncols, False) == "singular") == singular
        else:
            for extra in (0, 1):
                rows, _, _, ncols = _block_system([1.0, 1.0], [(4, 3), (4, 3)], extra_cols=extra)
                assert (_solve(rows, ncols, False) == "singular") == bool(extra)

    @pytest.mark.parametrize("real, dtype", [(True, np.float64), (False, np.complex128)])
    def test_one_qr_per_system(self, monkeypatch, real, dtype):
        # a real system is factored in real arithmetic, with the real and
        # imaginary parts of its right-hand side as two columns
        rows, A, b, ncols = _block_system([1.0, 3.0], [(9, 4), (6, 3)], real=real)
        seen = []
        qr = np.linalg.qr

        def spy(a, *args, **kwargs):
            seen.append(a.dtype)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        got = np.array(_solve(rows, ncols, False))
        assert seen == [dtype]
        want = np.linalg.lstsq(A, b, rcond=None)[0]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


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


# -- single faults in the jet ----------------------------------------------------------


def _faulted(jet, k, h, e):
    """jet with 1 added at exponent e of F[k][h], validities kept."""
    s = jet.F.entry(k, h)
    coeffs = dict(s.items())
    coeffs[e] = coeffs.get(e, s.ring.zero_scalar()) + 1
    rows = [[jet.F.entry(p, q) for q in range(jet.n)] for p in range(jet.n)]
    rows[k][h] = TruncatedSeries(s.ring, coeffs, s.valid)
    return DEJet(SeriesMatrix(rows))


# -- the multipliers of the rows ---------------------------------------------------------


def _row_keys(eng, kh, m):
    """Every row the recursion or the oracle builds for pair kh at level m:
    (i, j, beta) for DE1 at degree m - 1 and each ordered pair of directions,
    (i, e) for DE2 at degree m - 1 (regular pair) or m (coalescent pair)."""
    d = eng.d
    de1 = [(i, j, beta) for i in range(d) for j in range(d) if i != j
           for beta in exponents_of_degree(d, m - 1)]
    de2 = [(i, e) for i in range(d) for e in exponents_of_degree(d, m if eng.coalescent[kh] else m - 1)]
    return de1 + de2


def _row(eng, kh, key):
    """The row at key and its coefficient as the evaluator reads it now."""
    if len(key) == 3:
        i, j, beta = key
        return eng.de1_row(i, j, kh, beta), eng.de1_coeff(i, j, kh, beta)
    i, e = key
    return eng.de2_row(i, kh, e), eng.de2_coeff(i, kh, e)


class TestRowMultipliers:
    # a unit at one of pair kh's own degree-m unknowns changes each row's
    # coefficient by exactly the multiplier the row states for it, and a row
    # that lists no multiplier for it does not change
    @pytest.mark.parametrize("name, count", [("de_coalescent_exact.json", 4758),
                                             ("de_regular_exact.json", 480)])
    def test_unit_unknown_changes_each_coefficient_by_its_multiplier(self, name, count):
        K = 3
        p, F0 = decode_de_problem(json.loads((GOLDEN / name).read_text()))
        F0s, exact = darboux._coerce_initial(p, F0)
        eng = darboux._Engine(p, K, exact, F0s)
        assert exact
        one, checked = eng.ring.scalar(1), 0
        for m in range(1, K + 1):
            unknowns = exponents_of_degree(p.d, m)
            for kh in eng.pairs:
                eng.load(m)
                rows = {key: _row(eng, kh, key)[0] for key in _row_keys(eng, kh, m)}
                for key, (mults, const) in rows.items():
                    assert set(mults) <= set(unknowns) and const == _row(eng, kh, key)[1], key
                for u in unknowns:
                    assert u not in eng.C[kh]
                    eng.C[kh][u] = one
                    eng.load(m)
                    for key, (mults, const) in rows.items():
                        change = _row(eng, kh, key)[1] - const
                        assert change == mults.get(u, eng.zero), (kh, key, u)
                        checked += 1
                    del eng.C[kh][u]
            eng.advance_level(m)
        assert checked == count

    def test_unit_unknown_of_another_pair_changes_coalescent_de2_by_its_link(self):
        # a coalescent pair's DE2 coefficient at degree m also names other
        # pairs' degree-m unknowns, through F_kl F_lh; de2_links states them
        K = 3
        p, F0 = decode_de_problem(json.loads((GOLDEN / "de_coalescent_exact.json").read_text()))
        F0s, exact = darboux._coerce_initial(p, F0)
        eng = darboux._Engine(p, K, exact, F0s)
        one, checked, linked = eng.ring.scalar(1), 0, 0
        for m in range(1, K + 1):
            exps = exponents_of_degree(p.d, m)
            eng.load(m)
            rows = {(kh, i, e): (eng.de2_links(i, kh, e), eng.de2_coeff(i, kh, e))
                    for kh in eng.pairs if eng.coalescent[kh] for i in range(p.d) for e in exps}
            for pair in eng.pairs:
                for u in exps:
                    eng.C[pair][u] = one
                    eng.load(m)
                    for (kh, i, e), (links, const) in rows.items():
                        if kh != pair:
                            change = eng.de2_coeff(i, kh, e) - const
                            assert change == links.get((pair, u), eng.zero), (kh, i, e, pair, u)
                            checked, linked = checked + 1, linked + ((pair, u) in links)
                    del eng.C[pair][u]
            eng.advance_level(m)
        assert (checked, linked) == (4350, 152)


class TestLoadedStore:
    # load(m) holds the store as series of the engine ring valid through
    # m, and the kernel forms each F_kl F_lh through degree m only
    @pytest.mark.parametrize("name", ["de_coalescent_exact.json", "de_regular_exact.json"])
    def test_loaded_series_stop_at_the_level(self, name):
        K = 4
        p, F0 = decode_de_problem(json.loads((GOLDEN / name).read_text()))
        F0s, exact = darboux._coerce_initial(p, F0)
        eng = darboux._Engine(p, K, exact, F0s)
        cut = 0
        for m in range(K + 1):
            eng.load(m)
            assert all(s.ring is eng.ring and s.valid == m for s in eng.F.values())
            jet = eng.to_jet()
            for (k, l, h), FF in eng.FF.items():
                full = list((jet.entry(k, l) * jet.entry(l, h)).items())
                assert FF.valid == m and list(FF.items()) == [(e, c) for e, c in full if sum(e) <= m]
                cut += any(sum(e) > m for e, _ in full)
            if m:
                eng.advance_level(m)
        assert cut > 0

    def test_the_recursion_loads_once_per_level(self, monkeypatch):
        # the coalescent rows read the regular pairs' new coefficients
        # through de2_links, so no level is loaded twice
        K = 4
        p, F0 = decode_de_problem(json.loads((GOLDEN / "de_coalescent_exact.json").read_text()))
        levels, load = [], darboux._Engine.load

        def counted(eng, m):
            levels.append(m)
            return load(eng, m)

        monkeypatch.setattr(darboux._Engine, "load", counted)
        de_solve_jet(p, F0, K)
        assert levels == list(range(1, K + 1))


class TestResidualFaultDetection:
    # every +1 at an off-diagonal jet coefficient of degree 0..K changes
    # some DE1 or DE2 coefficient of degree <= K - 1
    @pytest.mark.parametrize("name, count", [("de_coalescent_exact.json", 120),
                                             ("de_regular_exact.json", 60)])
    def test_every_off_diagonal_fault_is_detected(self, name, count):
        K = 3
        p, F0 = decode_de_problem(json.loads((GOLDEN / name).read_text()))
        jet, feasible, _ = de_solve_jet(p, F0, K)
        assert feasible and de_residual(p, jet, K - 1).exact_zero
        faults = [(k, h, e) for k in range(p.n) for h in range(p.n) if k != h
                  for deg in range(K + 1) for e in exponents_of_degree(p.d, deg)]
        missed = [f for f in faults if de_residual(p, _faulted(jet, *f), K - 1).exact_zero]
        assert (len(faults), missed) == (count, [])

    def test_diagonal_fault_is_refused(self):
        p, F0 = decode_de_problem(json.loads((GOLDEN / "de_regular_exact.json").read_text()))
        jet, _, _ = de_solve_jet(p, F0, 3)
        rows = [[jet.F.entry(k, h) for h in range(p.n)] for k in range(p.n)]
        rows[1][1] = rows[1][1] + 1
        with pytest.raises(ValidationError, match="diagonal"):
            DEJet(SeriesMatrix(rows))
