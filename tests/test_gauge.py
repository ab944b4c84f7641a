"""Framed connections, integrability, formal gauge simplification, holcon.

gauge_residual evaluates each Laurent coefficient entry by entry from the
frame's structure.  It is held against the full-matrix expansion it
replaced, kept here as a reference: on the golden frames and on the drawn
problems of test_solver_differential, exact coefficients agree through the
reference's validity, no validity falls below the reference's, terms added
to the gauge above its validity change nothing within the report's, and
float twins stay within the SCHEMAS.md bound.  A sweep of single +1 faults in the
gauge terms checks that only free data goes undetected, and one in the
frame of a solved jet that integrability_residual misses only faults above
omega's validity.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_solver_differential import FLOAT_EXACT_BOUND, _problems

from strata import schemas, series
from strata.darboux import DEProblem, de_solve_jet
from strata.errors import CoalescencePathError, GenericityError, ResonanceError
from strata.gauge import (
    GaugeSeries,
    build_connection,
    connection_from_de,
    dv_witness,
    formal_simplify,
    gauge_residual,
    holcon_check,
    integrability_residual,
)
from strata.polynomials import Poly
from strata.scalars import to_complex
from strata.series import SeriesMatrix, SeriesRing, TruncatedSeries, exponents_of_degree

GOLDEN = Path(__file__).parent / "data" / "golden"


def X(d, a):
    return Poly.variable(d, a, exact=True)


def diag_matrix(ring, entries):
    n = len(entries)
    rows = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for i, e in enumerate(entries):
        rows[i][i] = e
    return SeriesMatrix(rows)


@pytest.fixture(scope="module")
def ring2():
    return SeriesRing(2, 6, ["0", "1"], exact=True)


@pytest.fixture(scope="module")
def delta2(ring2):
    return diag_matrix(ring2, [ring2.var(0), ring2.var(1)])


@pytest.fixture(scope="module")
def conn_de_regular():
    p = DEProblem(2, 2, ["0", "1"], [X(2, 0), X(2, 1)], ["0", "1/2"])
    jet, feasible, _ = de_solve_jet(p, [[0, Fraction(3, 2)], [Fraction(-2, 7), 0]], 6)
    assert feasible
    return connection_from_de(p, jet)


@pytest.fixture(scope="module")
def conn_de_coalescent():
    p = DEProblem(
        3, 3, ["0", "0", "1"],
        [X(3, 0), X(3, 1), X(3, 2)],
        ["0", "1/3", "3/4"],
    )
    k01 = Fraction(1, 3) - 1
    k10 = Fraction(-1, 3) - 1
    F0 = [
        [0, Fraction(1, 4) / k01, 1],
        [Fraction(1, 3) * Fraction(1, 2) / k10, 0, Fraction(1, 3)],
        [Fraction(1, 2), Fraction(1, 4), 0],
    ]
    jet, feasible, _ = de_solve_jet(p, F0, 6)
    assert feasible
    return connection_from_de(p, jet)


class TestBuildConnection:
    def test_zero_l_is_normal_form(self, ring2, delta2):
        conn = build_connection(delta2, ["0", "1/2"], ring2.zero_matrix(2))
        assert (conn.B - conn.bdiag_matrix).is_zero()
        assert all(W.is_zero() for W in conn.omega)
        gs = formal_simplify(conn, 4, mode="regular")
        assert all(M.is_zero() for M in gs.F)
        rep = gauge_residual(conn, gs)
        assert rep.is_zero_determined() and rep.max_abs_tail() == 0.0

    def test_commutator_expansion(self, ring2, delta2):
        c = Fraction(3, 7)
        L = SeriesMatrix([[ring2.zero(), ring2.const(c)], [ring2.zero(), ring2.zero()]])
        conn = build_connection(delta2, ["0", "1/2"], L)
        assert (conn.B.entry(0, 1) - (ring2.var(1) - ring2.var(0)).scale(c)).is_zero()
        assert (conn.omega[0].entry(0, 1) - ring2.const(c)).is_zero()
        assert (conn.omega[1].entry(0, 1) + ring2.const(c)).is_zero()

    def test_restriction_evaluates_at_center(self, ring2, delta2):
        c = Fraction(3, 7)
        L = SeriesMatrix([[ring2.zero(), ring2.const(c)], [ring2.zero(), ring2.zero()]])
        conn = build_connection(delta2, ["0", "1/2"], L)
        d0c, Bc = conn.restriction()
        assert d0c[0][0] == 0 and d0c[1][1] == 1
        assert Bc[0][1] == c and Bc[1][0] == 0


@pytest.fixture(scope="module")
def scalar_frame():
    ring = SeriesRing(1, 4, ["0"], exact=True)
    x = ring.var(0)
    d1, d2 = Fraction(2), Fraction(1)
    delta = diag_matrix(ring, [x, x])
    B = SeriesMatrix([
        [ring.const(d1), x.scale(d1 - d2)],
        [ring.zero(), ring.const(d2)],
    ])
    varpi = [SeriesMatrix([[ring.zero(), ring.one()], [ring.zero(), ring.zero()]])]
    return ring, delta, B, varpi


class TestIntegrability:
    def test_scalar_diagonal_is_integrable(self, scalar_frame):
        ring, delta, B, varpi = scalar_frame
        assert integrability_residual(delta, B, varpi).is_zero()

    def test_constant_shift_stays_integrable(self, scalar_frame):
        ring, delta, B, varpi = scalar_frame
        x = ring.var(0)
        B2 = SeriesMatrix([
            [ring.const(Fraction(2)), x + ring.one()],
            [ring.zero(), ring.const(Fraction(1))],
        ])
        assert integrability_residual(delta, B2, varpi).is_zero()

    def test_lower_perturbation_breaks_eq2(self, scalar_frame):
        ring, delta, B, varpi = scalar_frame
        x = ring.var(0)
        B_bad = SeriesMatrix([
            [ring.const(Fraction(2)), x],
            [ring.one(), ring.const(Fraction(1))],
        ])
        rep = integrability_residual(delta, B_bad, varpi)
        assert not rep.is_zero()
        assert rep.to_dict()["eq2_max"] > 0.5

    def test_de_frame_is_integrable(self, conn_de_regular):
        rep = integrability_residual(
            conn_de_regular.delta0, conn_de_regular.B, conn_de_regular.omega
        )
        assert rep.is_zero()


def _bumped(M, i, j, e):
    """M with 1 added at exponent e of entry (i, j), validities kept."""
    s = M.entry(i, j)
    coeffs = dict(s.items())
    coeffs[e] = coeffs.get(e, s.ring.zero_scalar()) + 1
    rows = [[M.entry(p, q) for q in range(M.shape[1])] for p in range(M.shape[0])]
    rows[i][j] = TruncatedSeries(s.ring, coeffs, s.valid)
    return SeriesMatrix(rows)


class TestIntegrabilityFaultDetection:
    # a +1 at any coefficient of B, or of an omega_a entry within its
    # validity K - 1, leaves some flatness residual nonzero; only a +1 at
    # degree K of omega_a, above its validity, passes
    @pytest.mark.parametrize("name, K, count, passed", [("de_coalescent_exact.json", 2, 360, 162),
                                                        ("de_regular_exact.json", 3, 270, 72)])
    def test_only_faults_above_omega_validity_pass(self, name, K, count, passed):
        p, F0 = schemas.decode_de_problem(json.loads((GOLDEN / name).read_text()))
        jet, feasible, _ = de_solve_jet(p, F0, K)
        conn = connection_from_de(p, jet)
        delta0, B, omega = conn.delta0, conn.B, conn.omega
        assert feasible and integrability_residual(delta0, B, omega).is_zero()
        assert B.min_valid() == K and all(W.min_valid() == K - 1 for W in omega)
        exps = [e for deg in range(K + 1) for e in exponents_of_degree(p.d, deg)]
        faults = [(None, i, j, e) for i in range(p.n) for j in range(p.n) for e in exps]
        faults += [(a, i, j, e) for a in range(p.d) for i in range(p.n) for j in range(p.n) for e in exps]
        missed = []
        for a, i, j, e in faults:
            if a is None:
                rep = integrability_residual(delta0, _bumped(B, i, j, e), omega)
            else:
                rep = integrability_residual(delta0, B, [_bumped(W, i, j, e) if b == a else W
                                                         for b, W in enumerate(omega)])
            if rep.is_zero():
                missed.append((a, i, j, e))
        assert (len(faults), len(missed)) == (count, passed)
        assert all(a is not None and sum(e) == K for a, _, _, e in missed)


class TestDvWitness:
    def test_obstruction_located(self):
        ring = SeriesRing(1, 4, ["0"], exact=True)
        x = ring.var(0)
        delta = diag_matrix(ring, [x, x])
        B = SeriesMatrix([
            [ring.const(Fraction(2)), x],
            [ring.zero(), ring.const(Fraction(1))],
        ])
        varpi = [SeriesMatrix([[ring.zero(), ring.one()], [ring.zero(), ring.zero()]])]
        rep = dv_witness(delta, B, varpi)
        assert not rep.ok and rep.L is None
        assert [p for (p, _) in rep.obstructions] == [(0, 1)]

    def test_trivial_witness(self):
        ring = SeriesRing(1, 4, ["0"], exact=True)
        delta = diag_matrix(ring, [ring.var(0), ring.var(0)])
        rep = dv_witness(delta, ring.zero_matrix(2), [ring.zero_matrix(2)])
        assert rep.ok and rep.L.is_zero()

    def test_witness_round_trip(self, ring2, delta2):
        B = SeriesMatrix([
            [ring2.zero(), ring2.var(1) - ring2.var(0)],
            [ring2.zero(), ring2.zero()],
        ])
        varpi = [
            SeriesMatrix([[ring2.zero(), ring2.one()], [ring2.zero(), ring2.zero()]]),
            SeriesMatrix([[ring2.zero(), ring2.const(-1)], [ring2.zero(), ring2.zero()]]),
        ]
        rep = dv_witness(delta2, B, varpi)
        assert rep.ok
        assert (rep.L.entry(0, 1) - ring2.one()).is_zero()
        back = build_connection(delta2, ["0", "0"], rep.L)
        assert ((back.B - back.bdiag_matrix) - B).is_zero()
        assert all((back.omega[a] - varpi[a]).is_zero() for a in range(2))


class TestFormalSimplify:
    def test_first_order_term_is_l(self, ring2, delta2):
        L = SeriesMatrix([[ring2.zero(), ring2.one()], [ring2.one(), ring2.zero()]])
        conn = build_connection(delta2, ["0", "1/2"], L)
        gs = formal_simplify(conn, 6, mode="regular")
        for i in range(2):
            for j in range(2):
                if i != j:
                    assert (gs.F[0].entry(i, j) - L.entry(i, j)).is_zero()

    def test_dz_residual_vanishes_dx_survives(self, ring2, delta2):
        # constant L is not integrable: only the dz ladder can be killed
        L = SeriesMatrix([[ring2.zero(), ring2.one()], [ring2.one(), ring2.zero()]])
        conn = build_connection(delta2, ["0", "1/2"], L)
        gs = formal_simplify(conn, 6, mode="regular")
        dz_det, dx_det = gauge_residual(conn, gs).determined()
        assert all(M.is_zero() for M in dz_det.values())
        assert not all(M.is_zero() for p in dx_det for M in p.values())

    def test_modes_agree_at_regular_center(self, ring2, delta2):
        L = SeriesMatrix([[ring2.zero(), ring2.one()], [ring2.one(), ring2.zero()]])
        conn = build_connection(delta2, ["0", "1/2"], L)
        gs_r = formal_simplify(conn, 6, mode="regular")
        gs_c = formal_simplify(conn, 6, mode="coalescent")
        assert all((a - b).is_zero() for a, b in zip(gs_r.F, gs_c.F))

    def test_zero_gauge_leaves_pole_commutator(self, ring2, delta2):
        L = SeriesMatrix([[ring2.zero(), ring2.one()], [ring2.one(), ring2.zero()]])
        conn = build_connection(delta2, ["0", "1/2"], L)
        rep = gauge_residual(conn, GaugeSeries([ring2.zero_matrix(2)]))
        expect = -(L.commutator(delta2))
        assert (rep.dz[-1] - expect).is_zero()

    def test_de_regular_frame_full_residual(self, conn_de_regular):
        gs = formal_simplify(conn_de_regular, 5, mode="regular")
        rep = gauge_residual(conn_de_regular, gs)
        assert rep.is_zero_determined()

    def test_de_coalescent_frame_full_residual(self, conn_de_coalescent):
        conn = conn_de_coalescent
        assert conn.coalescent_pairs == ((0, 1), (1, 0))
        assert conn.pnr_violations == []
        with pytest.raises(GenericityError):
            formal_simplify(conn, 3, mode="regular")
        gs = formal_simplify(conn, 4, mode="coalescent")
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert (gs.F[0].entry(i, j) - conn.L.entry(i, j)).is_zero()
        rep = gauge_residual(conn, gs)
        assert rep.is_zero_determined()

    def test_resonance_injection(self):
        ring = SeriesRing(2, 4, ["0", "0"], exact=True)
        conn = build_connection(
            diag_matrix(ring, [ring.var(0), ring.var(1)]),
            ["0", "1"],
            ring.zero_matrix(2),
        )
        assert (0, 1, -1) in conn.pnr_violations
        assert (1, 0, 1) in conn.pnr_violations
        with pytest.raises(ResonanceError) as exc:
            formal_simplify(conn, 2, mode="coalescent")
        assert "(0,1)" in str(exc.value)

    def test_equal_gradients_rejected(self, ring2):
        conn = build_connection(
            diag_matrix(ring2, [ring2.var(0), ring2.var(0)]),
            ["0", "1/2"],
            ring2.zero_matrix(2),
        )
        with pytest.raises(GenericityError):
            formal_simplify(conn, 2, mode="coalescent")

    def test_n1_gauge_is_identity(self):
        ring = SeriesRing(1, 3, ["0"], exact=True)
        conn = build_connection(
            diag_matrix(ring, [ring.var(0)]), ["1/2"], ring.zero_matrix(1)
        )
        gs = formal_simplify(conn, 3, mode="regular")
        assert all(M.is_zero() for M in gs.F)


class TestResidualReport:
    def test_report_dict_keys(self, conn_de_regular):
        gs = formal_simplify(conn_de_regular, 3, mode="regular")
        d = gauge_residual(conn_de_regular, gs).to_dict()
        assert set(d) >= {
            "K", "dz", "dx", "determined_max", "determined_exact_zero",
            "tail_dz", "tail_dx",
        }
        assert d["determined_exact_zero"] is True


class TestHolcon:
    def test_de_frame_bounded_along_coalescence_path(self, conn_de_coalescent):
        rep = holcon_check(conn_de_coalescent, (0, 1), lambda t: (t, -t, 1.0))
        assert rep.bounded

    def test_constant_l_diverges(self):
        ring = SeriesRing(2, 2, ["0", "0"], exact=True)
        delta = diag_matrix(ring, [ring.var(0), ring.var(1)])
        L = SeriesMatrix([[ring.zero(), ring.one()], [ring.one(), ring.zero()]])
        conn = build_connection(delta, ["0", "0"], L)
        rep = holcon_check(conn, (0, 1), lambda t: (t / 2, -t / 2))
        assert not rep.bounded

    def test_endpoint_off_locus_rejected(self):
        ring = SeriesRing(2, 2, ["0", "0"], exact=True)
        delta = diag_matrix(ring, [ring.var(0), ring.var(1)])
        L = SeriesMatrix([[ring.zero(), ring.one()], [ring.one(), ring.zero()]])
        conn = build_connection(delta, ["0", "0"], L)
        with pytest.raises(CoalescencePathError):
            holcon_check(conn, (0, 1), lambda t: (t / 2 + 1.0, -t / 2))

    def test_zero_l_trivially_bounded(self):
        ring = SeriesRing(2, 4, ["0", "0"], exact=True)
        conn = build_connection(
            diag_matrix(ring, [ring.var(0), ring.var(1)]),
            ["0", "1"],
            ring.zero_matrix(2),
        )
        rep = holcon_check(conn, (0, 1), lambda t: (t, -t))
        assert rep.bounded
        assert max(abs(v) for v in rep.ratios) == 0.0


# -- the verifier against its full-matrix expansion ----------------------------------


def _laurent_mul(A: dict, B: dict) -> dict:
    out: dict = {}
    for ma, MA in A.items():
        for mb, MB in B.items():
            P = MA @ MB
            m = ma + mb
            out[m] = out[m] + P if m in out else P
    return out


def _laurent_acc(out: dict, m: int, M: SeriesMatrix, sign: int = 1):
    M = M if sign > 0 else -M
    out[m] = out[m] + M if m in out else M


def _reference_residual(conn, gs):
    """(dz, dx) of dPhi + Omega Phi - Phi Omega_nf, expanded as products of
    whole series matrices: the identity Phi_0, Delta0 and diag(b) included."""
    n, ring, K = conn.n, conn.ring, gs.K
    phi = {0: ring.identity_matrix(n)}
    for k in range(1, K + 1):
        phi[-k] = gs.F[k - 1]
    dz = _laurent_mul({0: -conn.delta0, -1: -conn.B}, phi)
    for m, M in _laurent_mul(phi, {0: -conn.delta0, -1: -conn.bdiag_matrix}).items():
        _laurent_acc(dz, m, M, sign=-1)
    for k in range(1, K + 1):
        _laurent_acc(dz, -k - 1, gs.F[k - 1].scale(-k))
    dx = []
    for a in range(conn.d):
        da = conn.delta0.diff(a)
        ra = _laurent_mul({1: -da, 0: conn.omega[a]}, phi)
        for m, M in _laurent_mul(phi, {1: -da}).items():
            _laurent_acc(ra, m, M, sign=-1)
        for k in range(1, K + 1):
            _laurent_acc(ra, -k, gs.F[k - 1].diff(a))
        dx.append(ra)
    return dz, dx


def _entries(parts):
    """(order, i, j, series) over every matrix of a list of Laurent dicts."""
    for part in parts:
        for m, M in part.items():
            n = M.shape[0]
            for i in range(n):
                for j in range(n):
                    yield m, i, j, M.entry(i, j)


def _check_against_reference(conn, gs):
    rep = gauge_residual(conn, gs)
    ref_dz, ref_dx = _reference_residual(conn, gs)
    got, want = [rep.dz] + rep.dx, [ref_dz] + ref_dx
    assert [list(p) for p in got] == [list(p) for p in want]
    for (m, i, j, g), (_, _, _, w) in zip(_entries(got), _entries(want)):
        assert g.valid >= w.valid, (m, i, j)
        assert dict(g.items(w.valid)) == dict(w.items(w.valid)), (m, i, j)


def _check_validity_is_sound(conn, gs):
    """Terms added to every F_k entry above its validity change no residual
    coefficient within the validity the report gives it."""
    ring = conn.ring
    noisy = []
    for M in gs.F:
        rows = []
        for row in M.rows:
            rows.append([])
            for s in row:
                coeffs = dict(s.items())
                for deg in range(s.valid + 1, ring.K + 1):
                    for e in exponents_of_degree(ring.d, deg):
                        coeffs[e] = coeffs.get(e, ring.zero_scalar()) + Fraction(deg, 7)
                rows[-1].append(TruncatedSeries(ring, coeffs, s.valid))
        noisy.append(SeriesMatrix(rows))
    rep, other = gauge_residual(conn, gs), gauge_residual(conn, GaugeSeries(noisy))
    for (m, i, j, g), (_, _, _, h) in zip(_entries([rep.dz] + rep.dx),
                                         _entries([other.dz] + other.dx)):
        assert h.valid == g.valid and dict(g.items(g.valid)) == dict(h.items(g.valid)), (m, i, j)


def _floated(conn):
    return build_connection(conn.delta0.to_float(), [to_complex(v) for v in conn.b],
                            conn.L.to_float(), tol=conn.tol)


def _check_float_twin(conn, gs):
    exact = gauge_residual(conn, gs)
    fl = gauge_residual(_floated(conn), gs.to_float())
    pairs = list(zip(_entries([exact.dz] + exact.dx), _entries([fl.dz] + fl.dx)))
    scale = max([1.0] + [e.max_abs() for (_, _, _, e), _ in pairs])
    for (m, i, j, e), (_, _, _, f) in pairs:
        assert f.valid == e.valid, (m, i, j)
        want = {g: to_complex(c) for g, c in e.items()}
        got = dict(f.items())
        worst = max([0.0] + [abs(got.get(g, 0j) - want.get(g, 0j))
                             for g in set(got) | set(want) if sum(g) <= e.valid])
        assert worst <= FLOAT_EXACT_BOUND * scale, (m, i, j, worst)


def _golden_conn(name):
    return schemas.decode_framed_connection(json.loads((GOLDEN / name).read_text()))


def _gauges(conn, K):
    """Gauge series that solve nothing, so the residual has nonzero
    coefficients, and, where the frame has no resonance, the ladder and a
    multiple of it."""
    out = [GaugeSeries([conn.L.scale(k) + conn.B.diff(0) for k in range(1, K + 1)]),
           GaugeSeries([conn.L.diff(k % conn.d) for k in range(K)])]
    if not conn.pnr_violations:
        mode = "coalescent" if conn.coalescent_pairs else "regular"
        gs = formal_simplify(conn, K, mode=mode)
        out += [gs, GaugeSeries([M.scale(2) for M in gs.F])]
    return out


@pytest.fixture(scope="module", params=["conn_coalescent_exact.json", "conn_regular_exact.json",
                                        "conn_pnr_exact.json"])
def golden_conn(request):
    return _golden_conn(request.param)


class TestResidualAgainstReference:
    def test_golden_frames_match(self, golden_conn):
        for K in (0, 1, 3):
            for gs in _gauges(golden_conn, K):
                _check_against_reference(golden_conn, gs)
                _check_validity_is_sound(golden_conn, gs)

    def test_recorded_gauge_matches(self):
        conn = _golden_conn("conn_coalescent_exact.json")
        gs = schemas.decode_gauge_series(json.loads(
            (GOLDEN / "gauge_coalescent_exact.json").read_text()))
        _check_against_reference(conn, gs)
        _check_validity_is_sound(conn, gs)
        _check_float_twin(conn, gs)

    def test_golden_float_twins_track(self, golden_conn):
        for gs in _gauges(golden_conn, 3):
            _check_float_twin(golden_conn, gs)

    @pytest.mark.parametrize("n, coalescent", [(2, False), (3, False), (2, True), (3, True)])
    def test_drawn_problems_match(self, n, coalescent):
        def check(case):
            problem, F0, K = case
            jet, feasible, _ = de_solve_jet(problem, F0, K)
            assert feasible
            conn = connection_from_de(problem, jet)
            gs = formal_simplify(conn, min(K, 3), mode="coalescent" if coalescent else "regular")
            for g in (gs, GaugeSeries([M.scale(2) for M in gs.F])):
                _check_against_reference(conn, g)
                _check_validity_is_sound(conn, g)
                _check_float_twin(conn, g)

        settings(max_examples=6, deadline=None, derandomize=True)(
            given(_problems(n, coalescent))(check))()


class TestResidualArithmetic:
    def test_each_entry_is_one_sum_of_products(self, monkeypatch):
        # the n(n - 1) differences f_j - f_i are the only dict sums, and no
        # product is formed on its own: every entry is one series.dot
        calls = {"add": 0, "mul": 0}
        add, mul = series._add, TruncatedSeries.__mul__

        def counted_add(a, b):
            calls["add"] += 1
            return add(a, b)

        def counted_mul(self, other):
            calls["mul"] += 1
            return mul(self, other)

        conn = _golden_conn("conn_coalescent_exact.json")
        gs = schemas.decode_gauge_series(json.loads(
            (GOLDEN / "gauge_coalescent_exact.json").read_text()))
        monkeypatch.setattr(series, "_add", counted_add)
        monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
        rep = gauge_residual(conn, gs)
        monkeypatch.undo()
        assert calls == {"add": conn.n * (conn.n - 1), "mul": 0}
        assert rep.is_zero_determined()

    def test_each_operand_is_packed_once(self, monkeypatch):
        # a series is packed into its table form on the first table pass
        # that reads it and never again, however many entries' sums read it
        packed, read = [], []  # holding every dict keeps the ids distinct
        pack, table_dot = series._pack, series._table_dot

        def counted_pack(c, ring):
            packed.append(c)
            return pack(c, ring)

        def counted_table_dot(pairs, ring):
            read.extend(s.coeffs for pair in pairs for s in pair)
            return table_dot(pairs, ring)

        conn = _golden_conn("conn_coalescent_exact.json")
        gs = schemas.decode_gauge_series(json.loads(
            (GOLDEN / "gauge_coalescent_exact.json").read_text()))
        monkeypatch.setattr(series, "_pack", counted_pack)
        monkeypatch.setattr(series, "_table_dot", counted_table_dot)
        rep = gauge_residual(conn, gs)
        monkeypatch.undo()
        assert len({id(c) for c in packed}) == len(packed)
        assert {id(c) for c in packed} == {id(c) for c in read}
        assert (len(packed), len(read)) == (172, 684)
        assert rep.is_zero_determined()


# -- single faults in the gauge terms --------------------------------------------------


def _perturbed(gs, k, i, j, e):
    """gs with 1 added at exponent e of F_k[i][j], validities kept."""
    F = list(gs.F)
    F[k - 1] = _bumped(F[k - 1], i, j, e)
    return GaugeSeries(F)


def _undetected(conn, gs, terms):
    """(count, undetected faults) over every +1 at a monomial within the
    validity of an entry of F_k, k in terms."""
    count, missed = 0, []
    for k in terms:
        M = gs.F[k - 1]
        for i in range(conn.n):
            for j in range(conn.n):
                valid = M.entry(i, j).valid
                for e in (e for deg in range(valid + 1)
                          for e in exponents_of_degree(conn.d, deg)):
                    count += 1
                    if gauge_residual(conn, _perturbed(gs, k, i, j, e)).is_zero_determined():
                        missed.append((k, i, j, e))
    return count, missed


class TestFaultDetection:
    def test_known_blind_spot_is_detected(self):
        # the +1 at (3,0,0) of F_2[0][2] sits within its validity 3; the
        # full-matrix expansion read that entry only through validity 2
        conn = _golden_conn("conn_coalescent_exact.json")
        gs = formal_simplify(conn, 2, mode="coalescent")
        assert gauge_residual(conn, gs).is_zero_determined()
        assert gs.F[1].entry(0, 2).valid == 3
        assert not gauge_residual(conn, _perturbed(gs, 2, 0, 2, (3, 0, 0))).is_zero_determined()

    def test_only_free_diagonal_faults_pass_at_K2(self):
        # diag(F_K) is free until F_{K+1} exists; every other fault is caught
        conn = _golden_conn("conn_coalescent_exact.json")
        gs = formal_simplify(conn, 2, mode="coalescent")
        count, missed = _undetected(conn, gs, (1, 2))
        assert count == 320 and len(missed) == 40
        assert all(k == 2 and i == j for k, i, j, _ in missed)

    def test_only_free_diagonal_faults_pass_in_the_last_term_at_K3(self):
        conn = _golden_conn("conn_coalescent_exact.json")
        gs = formal_simplify(conn, 3, mode="coalescent")
        count, missed = _undetected(conn, gs, (3,))
        assert count == 66 and len(missed) == 18
        assert all(i == j for _, i, j, _ in missed)
