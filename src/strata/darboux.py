"""Initial-value jet solvers for the generalized Darboux-Egoroff system.

The system couples n(n-1) unknown functions F_kh of d variables through
two families of first-order PDEs built from n scalar functions f_i and
n constants b_i.  Writing Df = f_h - f_k for a pair (k, h), they are

  DE1:  (d_j Df) d_i F_kh - (d_i Df) d_j F_kh
          = sum_l [(d_i f_l - d_i f_k)(d_j f_h - d_j f_l)
                   - (d_j f_l - d_j f_k)(d_i f_h - d_i f_l)] F_kl F_lh
  DE2:  Df d_i F_kh
          = (b_h - b_k - 1)(d_i Df) F_kh
            + sum_l (d_i f_l - d_i f_k)(f_h - f_l) F_kl F_lh
            - sum_l (f_l - f_k)(d_i f_h - d_i f_l) F_kl F_lh

Under the genericity condition (pairwise distinct differentials of the
f_i at the base point) the Taylor jet of a solution at the base point is
uniquely determined by its value there.  de_solve_jet reproduces that
recursion order by order; de_oracle_solve independently solves a stacked
linear system per degree; de_residual substitutes any jet back into both
families.  Indices are 0-based throughout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GenericityError,
    OracleError,
    ResonanceError,
    ShapeError,
    ValidationError,
)
from .polynomials import Poly
from .scalars import ComplexRational, coerce, magnitude, nonzero_int, scalar_abs2, zero_test
from .series import SeriesMatrix, SeriesRing, TruncatedSeries, exponents_of_degree
from .series import _bump, _leq, _sub_e, _support
from .subspaces import _cutoff_rank

_NEAR_COALESCENT = 1e-6
_RANK_TOL = 1e-12  # a float linear system is singular when s_min <= _RANK_TOL * s_max


def _fscale(values) -> float:
    """max(1, |v|) over branch values: the scale of coalescence tolerances."""
    return max([1.0] + [scalar_abs2(v) ** 0.5 for v in values])


def _pivot(diffs, what: str) -> int:
    """The pivot coordinate of a branch pair whose differentials differ by
    diffs at the center: the first a of largest |diffs[a]|^2."""
    mags = [scalar_abs2(v) for v in diffs]
    best = max(mags)
    if best == 0:
        raise GenericityError(f"{what} has equal differentials at the center")
    return mags.index(best)


def _coalescent_pairs(values, b, exact: bool, tol: float):
    """Coalescent ordered pairs of branch values and the PNR violations.

    (i, j) is coalescent when values i and j agree: exactly in exact mode,
    within tol * _fscale(values) in floating mode.  Returns the sorted
    tuple of pairs and the list of (i, j, m) for the coalescent pairs
    whose b_i - b_j is a nonzero integer m.
    """
    n = len(values)
    agree = zero_test(exact, tol, lambda: _fscale(values))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j and agree(values[i] - values[j])]
    violations = []
    for i, j in pairs:
        m = nonzero_int(b[i] - b[j], exact)
        if m is not None:
            violations.append((i, j, m))
    return tuple(pairs), violations


class DEProblem:
    """Base-point data for the system: dimensions, f_i, b_i, x_o.

    f entries are Poly (any mode).
    Exact mode is used when every ingredient converts exactly; otherwise
    everything is coerced to complex floating point.  Pair routing
    (coalescent vs regular) is decided by _coalescent_pairs on the f values
    at x_o.
    """

    def __init__(self, d: int, n: int, x0, f, b, tol: float = 1e-10):
        if d < 1 or n < 2:
            raise ValidationError("need d >= 1 and n >= 2")
        if len(x0) != d:
            raise ShapeError(f"base point of length {len(x0)} for d={d}")
        if len(f) != n or len(b) != n:
            raise ShapeError("need exactly n functions and n constants")
        self.d = int(d)
        self.n = int(n)
        self.tol = float(tol)
        self.f = list(f)
        for i, fi in enumerate(self.f):
            if not isinstance(fi, Poly):
                raise ValidationError(f"f[{i}] must be Poly")
            if fi.d != d:
                raise ShapeError(f"f[{i}] has {fi.d} variables, expected {d}")
        self.exact = self._probe_exact(x0, b)
        self.x0 = tuple(coerce(v, self.exact) for v in x0)
        self.b = tuple(coerce(v, self.exact) for v in b)
        self._classify_pairs()

    def _probe_exact(self, x0, b) -> bool:
        if not all(fi.exact for fi in self.f):
            return False
        try:
            for v in tuple(x0) + tuple(b):
                coerce(v, True)
        except Exception:
            return False
        return True

    def _f_value_and_gradient(self, i):
        fi = self.f[i]
        src = fi if self.exact else fi.to_float()
        val = src.eval(self.x0)
        grad = [src.diff(a).eval(self.x0) for a in range(self.d)]
        return coerce(val, self.exact), [coerce(g, self.exact) for g in grad]

    def _classify_pairs(self):
        vals, grads = [], []
        for i in range(self.n):
            v, g = self._f_value_and_gradient(i)
            vals.append(v)
            grads.append(g)
        pairs, self.pnr_violations = _coalescent_pairs(vals, self.b, self.exact, self.tol)
        self.coalescent = set(pairs)
        flat = zero_test(self.exact, self.tol,
                         lambda: max(1.0, max(scalar_abs2(g) ** 0.5 for gr in grads for g in gr)))
        for k in range(self.n):
            for h in range(k + 1, self.n):
                if not self.exact and (k, h) not in self.coalescent:
                    # exact mode has no near-coalescence: values agree or not
                    mag = abs(vals[h] - vals[k])
                    if mag < _NEAR_COALESCENT * _fscale(vals):
                        warnings.warn(
                            f"pair ({k},{h}) is near-coalescent at the base point "
                            f"(|f[{h}]-f[{k}]| = {mag:.3e}); treating it as regular",
                            stacklevel=3,
                        )
                if all(flat(grads[h][a] - grads[k][a]) for a in range(self.d)):
                    raise GenericityError(
                        f"functions {k} and {h} have equal differentials at the base point"
                    )

    def is_coalescent(self, k: int, h: int) -> bool:
        return (k, h) in self.coalescent

    def f_series(self, ring: SeriesRing) -> list:
        """Taylor series of each f_i about x_o in ring, through ring.K."""
        return [ring.from_poly(fi) for fi in self.f]


@dataclass
class DEJet:
    """Off-diagonal matrix of truncated series centered at the base point."""

    F: SeriesMatrix

    def __post_init__(self):
        n, m = self.F.shape
        if n != m:
            raise ShapeError("jet matrix must be square")
        for i in range(n):
            if not self.F.entry(i, i).is_zero(self.F.ring.K):
                raise ValidationError("jet diagonal must vanish identically")

    @property
    def n(self) -> int:
        return self.F.shape[0]

    @property
    def order(self) -> int:
        return self.F.ring.K

    def entry(self, k: int, h: int) -> TruncatedSeries:
        return self.F.entry(k, h)

    def to_float(self) -> "DEJet":
        return DEJet(self.F.to_float())


@dataclass
class DEResidualReport:
    """Max coefficient magnitude per equation family and total degree."""

    order: int
    de1: list = field(default_factory=list)
    de2: list = field(default_factory=list)
    exact: bool = False
    exact_zero: bool = False

    @property
    def max_abs(self) -> float:
        vals = list(self.de1) + list(self.de2)
        return max(vals) if vals else 0.0

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "DE1": list(self.de1),
            "DE2": list(self.de2),
            "max_abs": self.max_abs,
            "exact": self.exact,
            "exact_zero": self.exact_zero,
        }


def _coerce_initial(problem: DEProblem, F0):
    """F0 as a scalar matrix in the working mode; returns (matrix, exact)."""
    rows = [list(r) for r in F0]
    n = problem.n
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ShapeError(f"initial matrix must be {n}x{n}")
    exact = problem.exact
    if exact:
        try:
            rows = [[coerce(v, True) for v in r] for r in rows]
        except Exception:
            exact = False
    if not exact:
        rows = [[coerce(v, False) for v in r] for r in rows]
    for i in range(n):
        if rows[i][i] != 0:
            raise ValidationError("initial matrix must have zero diagonal")
    return rows, exact


class _Engine:
    """Coefficient store plus single-coefficient evaluators for DE1/DE2.

    Every equation coefficient is linear in the top-degree jet
    coefficients, so the level recursions read one equation coefficient
    with selected unknowns masked (`exclude`) and divide by the known
    multiplier of the remaining unknown.
    """

    def __init__(self, problem: DEProblem, K: int, exact: bool, F0):
        self.p = problem
        self.K = int(K)
        self.exact = exact
        self.d, self.n = problem.d, problem.n
        self.ring = SeriesRing(problem.d, self.K, problem.x0, exact)
        self.zero = self.ring.zero_scalar()
        self.fc = problem.f_series(self.ring)
        self.dfc = [[f.diff(a) for a in range(self.d)] for f in self.fc]
        self.b = [self.ring.scalar(v) for v in problem.b]
        self.pairs = [(k, h) for k in range(self.n) for h in range(self.n) if k != h]
        self.delta, self.ddelta, self.D, self.kappa, self.bdiff = {}, {}, {}, {}, {}
        self.j0, self.zero_dirs, self.coalescent = {}, {}, {}
        one = self.ring.scalar(1)
        for kh in self.pairs:
            k, h = kh
            self.delta[kh] = self.fc[h] - self.fc[k]
            self.ddelta[kh] = [self.dfc[h][a] - self.dfc[k][a] for a in range(self.d)]
            D = [dd.constant_term() for dd in self.ddelta[kh]]
            self.D[kh] = D
            self.bdiff[kh] = self.b[h] - self.b[k]
            self.kappa[kh] = self.bdiff[kh] - one
            self.coalescent[kh] = problem.is_coalescent(k, h)
            j0 = self.j0[kh] = _pivot(D, f"pair ({k},{h})")
            flat = zero_test(exact, problem.tol, lambda: max(1.0, scalar_abs2(D[j0]) ** 0.5))
            self.zero_dirs[kh] = {a for a in range(self.d) if flat(D[a])}
        self.C = {}
        for kh in self.pairs:
            k, h = kh
            v = F0[k][h]
            self.C[kh] = {} if v == 0 else {(0,) * self.d: v}
        self._products = {}

    # -- coefficient products of the quadratic terms, cached by name and indices ---

    def _w(self, i: int, j: int, l: int, k: int, h: int) -> TruncatedSeries:
        key = ("w", i, j, l, k, h)
        got = self._products.get(key)
        if got is None:
            df = self.dfc
            w = (df[l][i] - df[k][i]) * (df[h][j] - df[l][j])
            got = self._products[key] = w - (df[l][j] - df[k][j]) * (df[h][i] - df[l][i])
        return got

    def _p1(self, i: int, l: int, k: int, h: int) -> TruncatedSeries:
        key = ("p1", i, l, k, h)
        got = self._products.get(key)
        if got is None:
            got = self._products[key] = (self.dfc[l][i] - self.dfc[k][i]) * (self.fc[h] - self.fc[l])
        return got

    def _p2(self, i: int, l: int, k: int, h: int) -> TruncatedSeries:
        key = ("p2", i, l, k, h)
        got = self._products.get(key)
        if got is None:
            got = self._products[key] = (self.fc[l] - self.fc[k]) * (self.dfc[h][i] - self.dfc[l][i])
        return got

    # -- single-coefficient evaluators ---------------------------------------------

    def _conv_dF(self, P: TruncatedSeries, kh, a: int, beta: tuple, exclude) -> object:
        """Coefficient at beta of P * d_a F_kh from the current store."""
        acc = self.zero
        store = self.C[kh]
        for g, c in P.items():
            if not _leq(g, beta):
                continue
            delta = _sub_e(beta, g)
            target = _bump(delta, a)
            if (kh, target) in exclude:
                continue
            v = store.get(target)
            if v is None:
                continue
            acc = acc + c * v * (delta[a] + 1)
        return acc

    def _conv_F(self, P: TruncatedSeries, kh, beta: tuple, exclude) -> object:
        acc = self.zero
        store = self.C[kh]
        for g, c in P.items():
            if not _leq(g, beta):
                continue
            target = _sub_e(beta, g)
            if (kh, target) in exclude:
                continue
            v = store.get(target)
            if v is None:
                continue
            acc = acc + c * v
        return acc

    def _conv_FF(self, P: TruncatedSeries, kl, lh, beta: tuple, exclude) -> object:
        acc = self.zero
        A, B = self.C[kl], self.C[lh]
        for g1, c1 in P.items():
            if not _leq(g1, beta):
                continue
            rem = _sub_e(beta, g1)
            for g2, v2 in A.items():
                if not _leq(g2, rem) or (kl, g2) in exclude:
                    continue
                g3 = _sub_e(rem, g2)
                if (lh, g3) in exclude:
                    continue
                v3 = B.get(g3)
                if v3 is None:
                    continue
                acc = acc + c1 * v2 * v3
        return acc

    def de1_coeff(self, i: int, j: int, k: int, h: int, beta: tuple, exclude=frozenset()):
        kh = (k, h)
        acc = self._conv_dF(self.ddelta[kh][j], kh, i, beta, exclude)
        acc = acc - self._conv_dF(self.ddelta[kh][i], kh, j, beta, exclude)
        for l in range(self.n):
            if l == k or l == h:
                continue
            acc = acc - self._conv_FF(self._w(i, j, l, k, h), (k, l), (l, h), beta, exclude)
        return acc

    def de2_coeff(self, i: int, k: int, h: int, beta: tuple, exclude=frozenset()):
        kh = (k, h)
        acc = self._conv_dF(self.delta[kh], kh, i, beta, exclude)
        acc = acc - self.kappa[kh] * self._conv_F(self.ddelta[kh][i], kh, beta, exclude)
        for l in range(self.n):
            if l == k or l == h:
                continue
            acc = acc - self._conv_FF(self._p1(i, l, k, h), (k, l), (l, h), beta, exclude)
            acc = acc + self._conv_FF(self._p2(i, l, k, h), (k, l), (l, h), beta, exclude)
        return acc

    # -- base point constraint -------------------------------------------------------

    def base_point_residual(self):
        """Degree-0 DE2 coefficients at coalescent pairs: pure constraints on F0."""
        zexp = (0,) * self.d
        worst, exact_zero = 0.0, True
        for kh in self.pairs:
            if not self.coalescent[kh]:
                continue
            k, h = kh
            for i in range(self.d):
                r = self.de2_coeff(i, k, h, zexp)
                if r != 0:
                    exact_zero = False
                worst = max(worst, magnitude(r))
        return worst, exact_zero

    # -- level recursion ---------------------------------------------------------------

    def _store(self, kh, alpha: tuple, value):
        if value != 0:
            self.C[kh][alpha] = value

    def _resonance_guard(self, kh, level: int):
        target = level + 1
        if nonzero_int(self.bdiff[kh], self.exact) == target:
            k, h = kh
            raise ResonanceError(
                f"pair ({k},{h}) is resonant at degree {level}: b[{h}]-b[{k}] = {target}"
            )

    def advance_level(self, level: int):
        exps = exponents_of_degree(self.d, level)
        for kh in self.pairs:
            if self.coalescent[kh]:
                continue
            k, h = kh
            d0 = self.delta[kh].constant_term()
            for alpha in exps:
                a = _support(alpha)[0]
                beta = _bump(alpha, a, -1)
                val = self.de2_coeff(a, k, h, beta)
                self._store(kh, alpha, -val / (d0 * alpha[a]))
        for kh in self.pairs:
            if not self.coalescent[kh]:
                continue
            self._resonance_guard(kh, level)
            k, h = kh
            j0, D = self.j0[kh], self.D[kh]
            zset = self.zero_dirs[kh]
            for alpha in exps:
                supp = _support(alpha)
                flat = [a for a in supp if a in zset]
                if flat:
                    a = flat[0]
                    beta = _bump(alpha, a, -1)
                    exclude = {(kh, alpha), (kh, _bump(beta, j0))}
                    val = self.de1_coeff(a, j0, k, h, beta, exclude)
                    self._store(kh, alpha, -val / (D[j0] * alpha[a]))
                else:
                    self._solve_w_system(kh, alpha, level)

    def _solve_w_system(self, kh, alpha: tuple, level: int):
        """One small linear solve per multi-index, coupling alpha with its
        pivot-direction swaps alpha - e_c + e_j0."""
        k, h = kh
        j0, D = self.j0[kh], self.D[kh]
        supp = _support(alpha)
        i_star = supp[0]
        cs = [c for c in supp if c != j0]
        keys = [alpha] + [_bump(_bump(alpha, c, -1), j0) for c in cs]
        col = {key: idx for idx, key in enumerate(keys)}
        exclude = {(kh, key) for key in keys}
        rows, rhs = [], []
        for c in cs:
            beta = _bump(alpha, c, -1)
            row = [self.zero] * len(keys)
            row[0] = D[j0] * alpha[c]
            row[col[_bump(beta, j0)]] = row[col[_bump(beta, j0)]] - D[c] * (alpha[j0] + 1)
            rows.append(row)
            rhs.append(-self.de1_coeff(c, j0, k, h, beta, exclude))
        delta_e = _bump(_bump(alpha, i_star, -1), j0)
        row = [self.zero] * len(keys)
        for c in _support(delta_e):
            tau = _bump(_bump(delta_e, c, -1), i_star)
            coeff = D[c] * (delta_e[i_star] - (1 if c == i_star else 0) + 1)
            row[col[tau]] = row[col[tau]] + coeff
        row[col[delta_e]] = row[col[delta_e]] - self.kappa[kh] * D[i_star]
        rows.append(row)
        rhs.append(-self.de2_coeff(i_star, k, h, delta_e, exclude))
        sol = self._solve_dense(rows, rhs)
        if sol is None:
            raise ResonanceError(
                f"singular linear step for pair ({k},{h}) at degree {level}"
            )
        self._store(kh, alpha, sol[0])

    def _solve_dense(self, rows, rhs):
        if not self.exact:
            A = np.array([[complex(v) for v in r] for r in rows], dtype=complex)
            b = np.array([complex(v) for v in rhs], dtype=complex)
            if _cutoff_rank(np.linalg.svd(A, compute_uv=False), _RANK_TOL) < len(rhs):
                return None
            return list(np.linalg.solve(A, b))
        sol = _exact_eliminate(rows, rhs, len(rows))
        return None if isinstance(sol, str) else sol

    def to_jet(self) -> DEJet:
        entries = []
        for k in range(self.n):
            row = []
            for h in range(self.n):
                if k == h:
                    row.append(self.ring.zero())
                else:
                    row.append(TruncatedSeries(self.ring, self.C[(k, h)]))
            entries.append(row)
        return DEJet(SeriesMatrix(entries))


def de_residual(problem: DEProblem, jet, order: int) -> DEResidualReport:
    """Substitute a jet into both equation families.

    Reports the maximum coefficient magnitude per family and total
    degree 0..order.  Degrees above jet validity minus one are noise
    (differentiation consumes a degree), hence the precondition.
    """
    F = jet.F if isinstance(jet, DEJet) else jet
    if not isinstance(F, SeriesMatrix):
        raise ValidationError("jet must be a DEJet or SeriesMatrix")
    n, m = F.shape
    if n != m or n != problem.n:
        raise ShapeError(f"jet must be {problem.n}x{problem.n}")
    order = int(order)
    if order < 0:
        raise ValidationError("residual order must be nonnegative")
    usable = min(F.ring.K, F.min_valid())
    if usable < order + 1:
        raise ValidationError(
            f"residual to degree {order} needs jet coefficients through degree "
            f"{order + 1}, have {usable}"
        )
    if F.ring.exact and not problem.exact:
        F = F.to_float()
    ring = F.ring
    exact = ring.exact
    same = zero_test(exact, 1e-12)
    if not all(same(a - ring.scalar(c)) for a, c in zip(ring.center, problem.x0)):
        raise ValidationError("jet is centered away from the problem base point")

    fs = problem.f_series(ring)
    dfs = [[s.diff(a) for a in range(problem.d)] for s in fs]
    b = [ring.scalar(v) for v in problem.b]
    one = ring.scalar(1)

    de1 = [0.0] * (order + 1)
    de2 = [0.0] * (order + 1)
    exact_zero = exact

    def absorb(series: TruncatedSeries, sink: list):
        nonlocal exact_zero
        for e, c in series.items(order):
            exact_zero = False
            sink[sum(e)] = max(sink[sum(e)], magnitude(c))

    d = problem.d
    for k in range(n):
        for h in range(n):
            if k == h:
                continue
            Fkh = F.entry(k, h)
            dF = [Fkh.diff(i) for i in range(d)]
            delta = fs[h] - fs[k]
            ddelta = [dfs[h][i] - dfs[k][i] for i in range(d)]
            kappa = b[h] - b[k] - one
            others = [l for l in range(n) if l != k and l != h]
            G = {l: F.entry(k, l) * F.entry(l, h) for l in others}
            for i in range(d):
                r = delta * dF[i] - (ddelta[i] * Fkh).scale(kappa)
                for l in others:
                    r = r - (dfs[l][i] - dfs[k][i]) * (fs[h] - fs[l]) * G[l]
                    r = r + (fs[l] - fs[k]) * (dfs[h][i] - dfs[l][i]) * G[l]
                absorb(r, de2)
            for i in range(d):
                for j in range(i + 1, d):
                    r = ddelta[j] * dF[i] - ddelta[i] * dF[j]
                    for l in others:
                        w = (dfs[l][i] - dfs[k][i]) * (dfs[h][j] - dfs[l][j])
                        w = w - (dfs[l][j] - dfs[k][j]) * (dfs[h][i] - dfs[l][i])
                        r = r - w * G[l]
                    absorb(r, de1)
    return DEResidualReport(order, de1, de2, exact, exact_zero)


def de_solve_jet(problem: DEProblem, F0, K: int, tol: float = 1e-9):
    """Taylor jet of the solution with value F0 at the base point.

    Returns (jet, feasible, residual report).  The jet always exists and
    is unique given F0; feasibility records whether F0 is admissible,
    which fails exactly when some residual survives (for example the
    degree-0 constraint at a coalescent pair).  Raises ResonanceError
    when b_h - b_k hits {2, ..., K+1} at a coalescent pair.
    """
    K = int(K)
    if K < 0:
        raise ValidationError("jet order must be nonnegative")
    F0s, exact = _coerce_initial(problem, F0)
    eng = _Engine(problem, K, exact, F0s)
    base_worst, base_exact_zero = eng.base_point_residual()
    for level in range(1, K + 1):
        eng.advance_level(level)
    jet = eng.to_jet()
    if K >= 1:
        report = de_residual(problem, jet, K - 1)
    else:
        report = DEResidualReport(-1, [], [], exact, base_exact_zero)
        report.de2 = [base_worst] if base_worst else []
    feasible = report.exact_zero if exact else report.max_abs <= tol
    return jet, feasible, report


def de_closed_form_n2(problem: DEProblem, F0, K: int) -> DEJet:
    """Closed-form jet for n=2 at a regular base point.

    With no third index the quadratic sums vanish and DE2 integrates to
    F_kh = F0_kh * (Df / Df(x_o))^(b_h - b_k - 1); the binomial series of
    that power is exact in exact mode.
    """
    if problem.n != 2:
        raise ValidationError("closed form needs n = 2")
    if problem.is_coalescent(0, 1):
        raise ValidationError("closed form needs a regular base point")
    K = int(K)
    F0s, exact = _coerce_initial(problem, F0)
    ring = SeriesRing(problem.d, K, problem.x0, exact)
    fs = problem.f_series(ring)
    delta = fs[1] - fs[0]
    u = delta / delta.constant_term() - ring.one()

    b0, b1 = ring.scalar(problem.b[0]), ring.scalar(problem.b[1])
    one = ring.scalar(1)

    def binom_power(c):
        acc = ring.one()
        term = ring.one()
        for k in range(1, K + 1):
            term = term * u
            term = term.scale((c - (k - 1) * one) / (k * one))
            acc = acc + term
        return acc

    f01 = binom_power(b1 - b0 - one).scale(F0s[0][1])
    f10 = binom_power(b0 - b1 - one).scale(F0s[1][0])
    z = ring.zero()
    return DEJet(SeriesMatrix([[z, f01], [f10, z]]))


def _exact_eliminate(rows, rhs, ncols: int):
    """Exact Gauss-Jordan solve of rows * x = rhs in ncols unknowns.

    rows is a list of coefficient lists of length ncols, possibly more
    rows than unknowns; the pivot is the first nonzero entry at or below
    the diagonal.  Returns the values list, "singular" when some unknown
    has no pivot, or "inconsistent" when a row reduced to zero keeps a
    nonzero right-hand side.
    """
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    for colj in range(ncols):
        piv = next((r for r in range(colj, len(m)) if m[r][colj] != 0), None)
        if piv is None:
            return "singular"
        m[colj], m[piv] = m[piv], m[colj]
        inv = ComplexRational(1) / m[colj][colj]
        m[colj] = [v * inv for v in m[colj]]
        for r in range(len(m)):
            if r != colj and m[r][colj] != 0:
                factor = m[r][colj]
                m[r] = [v - factor * w for v, w in zip(m[r], m[colj])]
    if any(row[-1] != 0 for row in m[ncols:]):
        return "inconsistent"
    return [row[-1] for row in m[:ncols]]


def _exact_sparse_solve(rows, ncols: int):
    """Solve sum(coeff * u) + const = 0 rows exactly.

    rows: list of (dict col->ComplexRational, const).  Returns the values
    list, or the strings "singular" / "inconsistent".  Unit rows are
    propagated first, which resolves regular-pair blocks immediately and
    leaves only small coupled cores for _exact_eliminate.
    """
    rows = [(dict(e), c) for e, c in rows]
    values = [None] * ncols
    col_rows = {}
    for rid, (entries, _) in enumerate(rows):
        for colj in entries:
            col_rows.setdefault(colj, set()).add(rid)

    queue = [rid for rid, (e, _) in enumerate(rows) if len(e) == 1]
    while queue:
        rid = queue.pop()
        entries, const = rows[rid]
        if len(entries) != 1:
            continue
        # colj has no value yet: assigning one removes it from every row
        colj, coeff = next(iter(entries.items()))
        val = -const / coeff
        values[colj] = val
        for other in list(col_rows.get(colj, ())):
            oe, oc = rows[other]
            if colj in oe:
                oc = oc + oe.pop(colj) * val
                rows[other] = (oe, oc)
                if len(oe) == 1:
                    queue.append(other)
        col_rows.pop(colj, None)
    if any(not entries and const != 0 for entries, const in rows):
        return "inconsistent"
    # every row holding an unknown was reached when that unknown got its
    # value, so the rows left with entries involve only live columns
    live_cols = [c for c in range(ncols) if values[c] is None]
    if live_cols:
        index = {c: i for i, c in enumerate(live_cols)}
        dense, rhs = [], []
        for entries, const in rows:
            if entries:
                row = [ComplexRational(0)] * len(live_cols)
                for colj, coeff in entries.items():
                    row[index[colj]] = coeff
                dense.append(row)
                rhs.append(-const)
        sol = _exact_eliminate(dense, rhs, len(live_cols))
        if isinstance(sol, str):
            return sol
        for colj, v in zip(live_cols, sol):
            values[colj] = v
    return values


def de_oracle_solve(problem: DEProblem, F0, K: int) -> DEJet:
    """Degree-by-degree stacked linear solve for the same jet.

    For each degree m the coefficient equations of DE1/DE2 at total
    degree m-1 (plus, at coalescent pairs, the degree-m DE2 coefficients,
    which are the only equations reaching their pure pivot coefficients)
    form one linear system in all degree-m jet coefficients.  It must have a
    unique solution: exact mode solves it exactly, floating mode by least
    squares after checking its numerical rank.  A singular system raises
    ResonanceError at a resonant coalescent pair and OracleError otherwise.
    """
    K = int(K)
    if K < 0:
        raise ValidationError("jet order must be nonnegative")
    F0s, exact = _coerce_initial(problem, F0)
    eng = _Engine(problem, K, exact, F0s)
    d, n = problem.d, problem.n
    zexp = (0,) * d
    for m in range(1, K + 1):
        exps_m = exponents_of_degree(d, m)
        exps_prev = exponents_of_degree(d, m - 1)
        cols = [(kh, a) for kh in eng.pairs for a in exps_m]
        col_index = {key: idx for idx, key in enumerate(cols)}
        rows = []

        def add_row(entries: dict, const):
            clean = {c: v for c, v in entries.items() if v != 0}
            rows.append((clean, const))

        for kh in eng.pairs:
            k, h = kh
            D = eng.D[kh]
            d0 = eng.delta[kh].constant_term()
            for i in range(d):
                for j in range(i + 1, d):
                    for beta in exps_prev:
                        entries = {
                            col_index[(kh, _bump(beta, i))]: D[j] * (beta[i] + 1),
                            col_index[(kh, _bump(beta, j))]: -D[i] * (beta[j] + 1),
                        }
                        add_row(entries, eng.de1_coeff(i, j, k, h, beta))
            for i in range(d):
                for beta in exps_prev:
                    entries = {}
                    if d0 != 0:
                        entries[col_index[(kh, _bump(beta, i))]] = d0 * (beta[i] + 1)
                    add_row(entries, eng.de2_coeff(i, k, h, beta))
            if eng.coalescent[kh]:
                kappa = eng.kappa[kh]
                for i in range(d):
                    for delta_e in exps_m:
                        entries = {}
                        for c in _support(delta_e):
                            tau = _bump(_bump(delta_e, c, -1), i)
                            cidx = col_index[(kh, tau)]
                            entries[cidx] = entries.get(cidx, eng.zero) + D[c] * (
                                delta_e[i] - (1 if c == i else 0) + 1
                            )
                        cidx = col_index[(kh, delta_e)]
                        entries[cidx] = entries.get(cidx, eng.zero) - kappa * D[i]
                        for l in range(n):
                            if l == k or l == h:
                                continue
                            p10 = eng._p1(i, l, k, h).constant_term()
                            p20 = eng._p2(i, l, k, h).constant_term()
                            fkl0 = eng.C[(k, l)].get(zexp, eng.zero)
                            flh0 = eng.C[(l, h)].get(zexp, eng.zero)
                            if p10 != 0:
                                ci = col_index[((k, l), delta_e)]
                                entries[ci] = entries.get(ci, eng.zero) - p10 * flh0
                                ci = col_index[((l, h), delta_e)]
                                entries[ci] = entries.get(ci, eng.zero) - p10 * fkl0
                            if p20 != 0:
                                ci = col_index[((k, l), delta_e)]
                                entries[ci] = entries.get(ci, eng.zero) + p20 * flh0
                                ci = col_index[((l, h), delta_e)]
                                entries[ci] = entries.get(ci, eng.zero) + p20 * fkl0
                        add_row(entries, eng.de2_coeff(i, k, h, delta_e))

        if exact:
            sol = _exact_sparse_solve(rows, len(cols))
            failure = sol if isinstance(sol, str) else None
        else:
            A = np.zeros((len(rows), len(cols)), dtype=complex)
            bvec = np.zeros(len(rows), dtype=complex)
            for rid, (entries, const) in enumerate(rows):
                for cidx, v in entries.items():
                    A[rid, cidx] = complex(v)
                bvec[rid] = -complex(const)
            sol, _, _, sv = np.linalg.lstsq(A, bvec, rcond=None)
            failure = "singular" if _cutoff_rank(sv, _RANK_TOL) < len(cols) else None
        if failure:
            for kh in eng.pairs:
                if eng.coalescent[kh]:
                    eng._resonance_guard(kh, m)
            raise OracleError(f"{failure} linear system at degree {m}")
        for (kh, a), v in zip(cols, sol):
            if v != 0:
                eng.C[kh][a] = v
    return eng.to_jet()
