"""Differential checks of the exact solver stack on drawn problems.

The routes that compute one jet independently must agree on small random
exact problems: the order-by-order solver, the stacked per-degree oracle
and, for n = 2 at a regular base point, the closed form.  The residual
substitutes the solver's jet back into both equation families, and the
gauge ladder built from that jet must leave no determined residual.

Problems have n <= 3, d <= 3 and order K <= 4.  One draw in four is
coalescent in the pair (0, 1), with a non-integer b_1 - b_0 there so that
no order is resonant, and an F0 that meets the degree-0 constraint
kappa_kh F_kh = sum_l (f_l - f_k)(x_o) F_kl F_lh of that pair.  Draws with
complex data take Gaussian rational f values and gradients and, when
coalescent, a non-real b_1 - b_0, so both solvers meet complex row
multipliers and, at n = 3, complex links between coalescent and regular
pairs.

The same problems in float mode must track the exact jet within the float
bound that SCHEMAS.md states, and so must regular problems whose F0 has
Gaussian rational entries.  With F0 nudged off the degree-0 constraint,
the oracle must reject F0 exactly when the solver calls it infeasible.
On both exact routes, the order-(K + 1) jet through degree K is the
order-K jet.

A fourth route states the paper's theorem at jet level: every jet is the
jet of the universal problem (d = n, f_i = u_i) at u_o = f(x_o), with the
same b and F0, composed with f - f(x_o).  So is every gauge ladder entry,
through its validity, and in float mode within the float bound.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata.darboux import DEProblem, de_closed_form_n2, de_oracle_solve, de_residual, de_solve_jet
from strata.errors import OracleError
from strata.gauge import connection_from_de, formal_simplify, gauge_residual
from strata.polynomials import Poly
from strata.scalars import ComplexRational, to_complex
from strata.series import SeriesRing, exponents_of_degree

# SCHEMAS.md, "Float mode against exact mode": the largest float/exact
# coefficient distance, relative to max(1, max |exact coefficient|)
FLOAT_EXACT_BOUND = 1e-12

_SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
_NONZERO = _SMALL.filter(bool)
_GAUSSIAN = st.builds(ComplexRational, _SMALL, _SMALL)


@st.composite
def _problems(draw, n: int, coalescent: bool, gaussian: bool = False, max_order: int = 4,
              complex_data: bool = False):
    d = draw(st.integers(1, 3))
    K = draw(st.integers(1, max_order))
    x0 = draw(st.lists(_SMALL, min_size=d, max_size=d))
    data = _GAUSSIAN if complex_data else _SMALL
    if coalescent:
        v = draw(data)
        values = [v, v] + draw(st.lists(data.filter(lambda w: w != v), min_size=n - 2,
                                        max_size=n - 2))
    else:
        values = draw(st.lists(data, min_size=n, max_size=n, unique=True))
    grads = draw(st.lists(st.tuples(*[data] * d), min_size=n, max_size=n, unique=True))
    shifted = [Poly.variable(d, a, exact=True) - x0[a] for a in range(d)]
    f = []
    for i in range(n):
        fi = values[i] + sum((g * y for g, y in zip(grads[i], shifted)), Poly(d, exact=True))
        a, c = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        f.append(fi + draw(_SMALL) * shifted[a] * shifted[c])
    b = draw(st.lists(_SMALL, min_size=n, max_size=n))
    if coalescent:
        num = draw(st.integers(-7, 7))
        den = draw(st.integers(2, 4))
        if num % den == 0:
            num += 1
        b[1] = b[0] + Fraction(num, den)
        if complex_data:
            b[1] += ComplexRational(0, draw(_NONZERO))

    def entry():
        return ComplexRational(draw(_SMALL), draw(_NONZERO)) if gaussian else draw(_NONZERO)

    F0 = [[Fraction(0) if i == j else entry() for j in range(n)] for i in range(n)]
    if coalescent:
        for k, h in ((0, 1), (1, 0)):
            kappa = b[h] - b[k] - 1
            F0[k][h] = sum((values[l] - values[k]) * F0[k][l] * F0[l][h]
                           for l in range(2, n)) / kappa
    problem = DEProblem(d, n, x0, f, b)
    assert problem.exact and bool(problem.coalescent) == coalescent
    return problem, F0, K


def _coeffs(jet):
    n = jet.n
    return {(k, h): dict(jet.entry(k, h).items()) for k in range(n) for h in range(n) if k != h}


def _check(case):
    problem, F0, K = case
    jet, feasible, _ = de_solve_jet(problem, F0, K)
    assert feasible
    assert _coeffs(jet) == _coeffs(de_oracle_solve(problem, F0, K))
    assert de_residual(problem, jet, K - 1).exact_zero
    if problem.n == 2 and not problem.coalescent:
        assert _coeffs(jet) == _coeffs(de_closed_form_n2(problem, F0, K))
    if problem.d <= 2:
        conn = connection_from_de(problem, jet)
        mode = "coalescent" if problem.coalescent else "regular"
        gs = formal_simplify(conn, min(K, 3), mode=mode)
        assert gauge_residual(conn, gs).is_zero_determined()


@pytest.mark.parametrize("n, coalescent, examples",
                         [(2, False, 12), (3, False, 12), (2, True, 4), (3, True, 4)])
def test_exact_routes_agree(n, coalescent, examples):
    run = settings(max_examples=examples, deadline=None, derandomize=True)(
        given(_problems(n, coalescent))(_check))
    run()


# draws with Gaussian rational f values and gradients, and a non-real
# b_1 - b_0 at coalescent ones
COMPLEX_CASES = [(2, False, 6), (3, False, 6), (2, True, 4), (3, True, 4)]


@pytest.mark.parametrize("n, coalescent, examples", COMPLEX_CASES)
def test_exact_routes_agree_on_complex_data(n, coalescent, examples):
    run = settings(max_examples=examples, deadline=None, derandomize=True)(
        given(_problems(n, coalescent, complex_data=True))(_check))
    run()


def _powers(ws, ring):
    """The products w^beta of the series ws of ring through degree ring.K,
    formed by repeated products."""
    n, K = len(ws), ring.K
    powers = {(0,) * n: ring.one()}
    for deg in range(1, K + 1):
        for beta in exponents_of_degree(n, deg):
            a = next(a for a, e in enumerate(beta) if e)
            powers[beta] = powers[beta[:a] + (beta[a] - 1,) + beta[a + 1:]] * ws[a]
    return powers


def _compose(s, powers, ring):
    """The series s of the universal ring composed with the series ws of
    _powers: each term g_beta (u - u_o)^beta through s's validity becomes
    g_beta w^beta.  Each w_a has no constant term, so the terms through
    degree v give the composition through v, and it keeps s's validity."""
    total = ring.zero()
    for beta, g in s.items(s.valid):
        total = total + powers[beta].scale(g)
    return total


def _universal_frame(problem, K, shift=0):
    """The universal problem (d = n, f_i = u_i) at u_o = f(x_o), in
    problem's mode, with problem's b and b_0 moved by shift; the _powers of
    w = f - f(x_o) and problem's order-K ring that holds them."""
    ring = SeriesRing(problem.d, K, problem.x0, problem.exact)
    fs = problem.f_series(ring)
    n, uo = problem.n, [s.constant_term() for s in fs]
    u = [Poly.variable(n, i, exact=problem.exact) for i in range(n)]
    universal = DEProblem(n, n, uo, u, [problem.b[0] + shift] + list(problem.b[1:]))
    return universal, _powers([s - c for s, c in zip(fs, uo)], ring), ring


def _universal(problem, F0, K, shift=0):
    """The jet of the universal problem at u_o = f(x_o), with problem's b
    and F0 and b_0 moved by shift, composed with f - f(x_o)."""
    universal, powers, ring = _universal_frame(problem, K, shift)
    G = de_solve_jet(universal, F0, K)[0]
    return {kh: dict(_compose(G.entry(*kh), powers, ring).items()) for kh in _coeffs(G)}


def _check_universal(case):
    # the paper's universality at jet level: DE1 and DE2 are the pullbacks
    # along f of the universal system, and the jet is unique given F0
    problem, F0, K = case
    jet = _coeffs(de_solve_jet(problem, F0, K)[0])
    assert _universal(problem, F0, K) == jet
    if any(jet.values()):
        assert _universal(problem, F0, K, Fraction(1, 7)) != jet


@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n, coalescent", [(2, False), (3, False), (2, True), (3, True)])
def test_every_jet_is_the_universal_jet_composed_with_f(n, coalescent, complex_data):
    """Exact equality through K, and a universal b_0 moved by 1/7 breaks it.

    The n = 2 coalescent draws have F0 = 0: the degree-0 constraint at the
    pair (0, 1) has no third index to sum over.  So their jets vanish, and
    only the regular and the n = 3 draws can tell a moved b_0 apart.
    """
    run = settings(max_examples=6, deadline=None, derandomize=True)(
        given(_problems(n, coalescent, complex_data=complex_data))(_check_universal))
    run()


def _ladders(problem, F0, K):
    """(entry, composed entry, lesser validity) for each entry of the gauge
    ladder of problem's frame to order min(K, 3): the composed entry is the
    same entry of the universal frame's ladder composed with f - f(x_o)."""
    universal, powers, ring = _universal_frame(problem, K)
    mode = "coalescent" if problem.coalescent else "regular"
    entries = []
    for p in (problem, universal):
        conn = connection_from_de(p, de_solve_jet(p, F0, K)[0])
        gs = formal_simplify(conn, min(K, 3), mode=mode)
        entries.append([s for M in gs.F for row in M.rows for s in row])
    return [(s, _compose(t, powers, ring), min(s.valid, t.valid)) for s, t in zip(*entries)]


def _check_universal_ladder(case):
    # the ladder reads only Delta0 = diag(f), b and the jet, each of them the
    # universal one composed with f - f(x_o); so is each ladder entry
    problem, F0, K = case
    pairs = [(dict(s.items(v)), dict(t.items(v))) for s, t, v in _ladders(problem, F0, K)]
    assert all(a == b for a, b in pairs)
    scale = max([1.0] + [abs(to_complex(c)) for a, _ in pairs for c in a.values()])
    for s, t, v in _ladders(*_floated(problem, F0), K):
        a, b = dict(s.items(v)), dict(t.items(v))
        assert max([0.0] + [abs(a.get(e, 0j) - b.get(e, 0j)) for e in set(a) | set(b)]) \
            <= FLOAT_EXACT_BOUND * scale


@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n, coalescent", [(2, False), (3, False), (2, True), (3, True)])
def test_every_ladder_is_the_universal_ladder_composed_with_f(n, coalescent, complex_data):
    """Exact equality through the lesser validity of the two ladders, and
    the float ladders within the float bound of each other.

    In coalescent mode the two ladders divide along pivot coordinates of
    different spaces, an x_h on one side and a u_h on the other, and still
    agree.
    """
    run = settings(max_examples=6, deadline=None, derandomize=True)(
        given(_problems(n, coalescent, complex_data=complex_data))(_check_universal_ladder))
    run()


def _check_prefix(case):
    problem, F0, K = case
    for solve in (lambda k: de_solve_jet(problem, F0, k)[0], lambda k: de_oracle_solve(problem, F0, k)):
        low, high = solve(K), solve(K + 1)
        assert _coeffs(low) == {kh: dict(high.entry(*kh).items(K)) for kh in _coeffs(low)}


@pytest.mark.parametrize("n, coalescent", [(2, False), (3, False), (2, True), (3, True)])
def test_a_longer_jet_extends_the_shorter_one(n, coalescent):
    # the degree-K rows read f's weights at degree K, which an order-K
    # engine must hold as an order-(K + 1) one does
    run = settings(max_examples=8, deadline=None, derandomize=True)(
        given(_problems(n, coalescent, max_order=3))(_check_prefix))
    run()


def _floated(problem, F0):
    """The problem and F0 with every scalar rounded to a complex float."""
    p = DEProblem(problem.d, problem.n, [to_complex(x) for x in problem.x0],
                  [f.to_float() for f in problem.f], [to_complex(b) for b in problem.b])
    return p, [[to_complex(v) for v in row] for row in F0]


def _check_float(case):
    problem, F0, K = case
    exact, _, _ = de_solve_jet(problem, F0, K)
    want = {kh: {e: to_complex(c) for e, c in cs.items()} for kh, cs in _coeffs(exact).items()}
    scale = max([1.0] + [abs(c) for cs in want.values() for c in cs.values()])
    fproblem, fF0 = _floated(problem, F0)
    jet, feasible, _ = de_solve_jet(fproblem, fF0, K)
    assert feasible and not jet.F.ring.exact
    for got in (_coeffs(jet), _coeffs(de_oracle_solve(fproblem, fF0, K))):
        worst = max([0.0] + [abs(got[kh].get(e, 0j) - want[kh].get(e, 0j))
                             for kh in want for e in set(got[kh]) | set(want[kh])])
        assert worst <= FLOAT_EXACT_BOUND * scale


# the last two draw F0 with Gaussian rational entries, so the float
# systems get complex right-hand sides and solutions (their matrices,
# built from the real f, stay real); the other ids name real-data cases
FLOAT_CASES = [(2, False, 12, False), (3, False, 12, False), (2, True, 4, False),
               (3, True, 4, False), (2, False, 12, True), (3, False, 12, True)]


@pytest.mark.parametrize("n, coalescent, examples, gaussian", FLOAT_CASES,
                         ids=["-".join(map(str, c[:3])) + ("-gaussian" if c[3] else "")
                              for c in FLOAT_CASES])
def test_float_routes_track_exact(n, coalescent, examples, gaussian):
    run = settings(max_examples=examples, deadline=None, derandomize=True)(
        given(_problems(n, coalescent, gaussian))(_check_float))
    run()


@pytest.mark.parametrize("n, coalescent, examples", COMPLEX_CASES)
def test_float_routes_track_exact_on_complex_data(n, coalescent, examples):
    run = settings(max_examples=examples, deadline=None, derandomize=True)(
        given(_problems(n, coalescent, complex_data=True))(_check_float))
    run()


@st.composite
def _nudged(draw, n: int):
    """A coalescent draw with one entry of F0 at the pair (0, 1) moved by 0,
    by 1e-13 (admissible in float mode only) or by 1/5 (admissible in neither)."""
    problem, F0, K = draw(_problems(n, True))
    k, h = draw(st.sampled_from([(0, 1), (1, 0)]))
    F0[k][h] += draw(st.sampled_from([Fraction(1, 5), Fraction(1, 10**13), Fraction(0)]))
    return problem, F0, K


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("n", [2, 3])
def test_oracle_rejects_what_the_solver_calls_infeasible(n, exact):
    def check(case):
        problem, F0, K = case
        if not exact:
            problem, F0 = _floated(problem, F0)
        feasible = de_solve_jet(problem, F0, 0)[1]
        try:
            de_oracle_solve(problem, F0, K)
        except OracleError:
            assert not feasible
        else:
            assert feasible

    settings(max_examples=12, deadline=None, derandomize=True)(given(_nudged(n))(check))()
