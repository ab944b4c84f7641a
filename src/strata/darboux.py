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
recursion order by order; de_oracle_solve independently solves stacked
linear systems per degree; de_residual substitutes any jet back into both
families.  Indices are 0-based throughout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import (
    ExactnessError,
    GenericityError,
    OracleError,
    ResonanceError,
    ShapeError,
    ValidationError,
)
from .polynomials import Poly
from .scalars import ComplexRational, coerce, magnitude, nonzero_int, scalar_abs2, zero_test
from .series import (
    SeriesMatrix,
    SeriesRing,
    TruncatedSeries,
    _product_coeff,
    dot,
    exponents_of_degree,
)
from .subspaces import _cutoff_rank, _lapack

_NEAR_COALESCENT = 1e-6
_RANK_TOL = 1e-12  # a float linear system is singular when s_min <= _RANK_TOL * s_max
_FEASIBLE_TOL = 1e-9  # float residual bound, relative to max(1, largest jet coefficient)
_COALESCE_TOL = 1e-10  # float branch values agree within this share of _fscale


def _bump(e: tuple, a: int, k: int = 1) -> tuple:
    t = list(e)
    t[a] += k
    return tuple(t)


def _support(e: tuple) -> list:
    return [a for a, k in enumerate(e) if k > 0]


def _fscale(values) -> float:
    """max(1, |v|) over branch values: the scale of coalescence tolerances."""
    return max([1.0] + [magnitude(v) for v in values])


def _pivot(diffs, what: str) -> int:
    """The pivot coordinate of a branch pair whose differentials differ by
    diffs at the center: the first a of largest |diffs[a]|, compared exactly in exact mode."""
    mags = [scalar_abs2(v) if isinstance(v, ComplexRational) else magnitude(v) for v in diffs]
    best = max(mags)
    if best == 0:
        raise GenericityError(f"{what} has equal differentials at the center")
    return mags.index(best)


def _check_tol(tol) -> float:
    """tol itself, when it is a finite positive real."""
    if not (isinstance(tol, Real) and 0 < tol < np.inf):
        raise ValidationError(f"tol must be a finite positive number, got {tol!r}")
    return tol


def _coalescent_pairs(values, b, exact: bool, tol: float):
    """Coalescent ordered pairs of branch values and the PNR violations.

    (i, j) is coalescent when values i and j agree: exactly in exact mode,
    within tol * _fscale(values) in floating mode.  Returns the sorted
    tuple of pairs and the list of (i, j, m) for the coalescent pairs
    whose b_i - b_j is a nonzero integer m.  tol must be a finite positive real.
    """
    n = len(values)
    agree = zero_test(exact, _check_tol(tol), lambda: _fscale(values))
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

    def __init__(self, d: int, n: int, x0, f, b, tol: float = _COALESCE_TOL):
        if d < 1 or n < 2:
            raise ValidationError("need d >= 1 and n >= 2")
        if len(x0) != d:
            raise ShapeError(f"base point of length {len(x0)} for d={d}")
        if len(f) != n or len(b) != n:
            raise ShapeError("need exactly n functions and n constants")
        self.d = int(d)
        self.n = int(n)
        self.tol = tol
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
        except (ExactnessError, ValueError, ZeroDivisionError):
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
                         lambda: max(1.0, max(magnitude(g) for gr in grads for g in gr)))
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


def _feasible(report: DEResidualReport, jet: DEJet, tol: float = _FEASIBLE_TOL) -> bool:
    """Whether report admits jet's F0: all residuals exactly zero, or in floating mode
    none above tol * max(1, largest jet coefficient), as rounding grows with the jet."""
    return report.exact_zero if report.exact else report.max_abs <= tol * max(1.0, jet.F.max_abs())


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
        except (ExactnessError, ValueError, ZeroDivisionError):
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
    coefficients.  At level m, load holds the store as series valid through
    m, which hold none of the unknowns the level solves for, and each
    equation coefficient is read as a row: de1_row and de2_row return the
    multipliers of pair kh's own unknowns, keyed by exponent, and the
    coefficient read from the loaded series, de1_coeff or de2_coeff, which
    is the row's value with those unknowns at zero.  They and de2_links, whose
    weights F0 fixes at construction, are the only source of multipliers, for
    the recursion and the oracle alike:

      DE1 at beta:  D_j (beta_i + 1) at beta + e_i, -D_i (beta_j + 1) at beta + e_j;
      DE2 at e, regular pair:  d0 (e_i + 1) at e + e_i, with d0 = Df at the base point;
      DE2 at e, coalescent pair:  D_c (e_i - [c = i] + 1) at e - e_c + e_i
          for each c in supp(e), and -kappa D_i at e.

    Here D = d(Df) at the base point and kappa = b_h - b_k - 1.  The rows
    that name the degree-m unknowns are DE1 and a regular pair's DE2 at
    degree m - 1, and a coalescent pair's DE2 at degree m, which also names
    other pairs' degree-m unknowns through de2_links.  Both solvers call load
    once per level, store the regular pairs first and read a coalescent DE2
    row through de2_known_row; the recursion also reads de1_known_row, which
    folds the unknowns it has stored into the value, and divides.
    """

    def __init__(self, problem: DEProblem, K: int, exact: bool, F0):
        self.K = int(K)
        self.exact = exact
        self.d, self.n = problem.d, problem.n
        self.ring = SeriesRing(problem.d, self.K, problem.x0, exact)
        self.zero = self.ring.zero_scalar()
        # the rows read f's first derivatives through degree K, so f is expanded
        # once, through K + 1, and it and its derivatives held in the engine ring
        fs = problem.f_series(SeriesRing(self.d, self.K + 1, problem.x0, exact))
        fc = [TruncatedSeries(self.ring, dict(f.items())) for f in fs]
        df = [[TruncatedSeries(self.ring, dict(f.diff(a).items())) for a in range(self.d)] for f in fs]
        self.b = [self.ring.scalar(v) for v in problem.b]
        self.pairs = [(k, h) for k in range(self.n) for h in range(self.n) if k != h]
        self.delta, self.d0, self.ddelta, self.D, self.kappa, self.bdiff = {}, {}, {}, {}, {}, {}
        self.j0, self.coalescent = {}, {}
        one = self.ring.scalar(1)
        for kh in self.pairs:
            k, h = kh
            self.delta[kh] = fc[h] - fc[k]
            self.d0[kh] = self.delta[kh].constant_term()
            self.ddelta[kh] = [df[h][a] - df[k][a] for a in range(self.d)]
            D = [dd.constant_term() for dd in self.ddelta[kh]]
            self.D[kh] = D
            self.bdiff[kh] = self.b[h] - self.b[k]
            self.kappa[kh] = self.bdiff[kh] - one
            self.coalescent[kh] = problem.is_coalescent(k, h)
            self.j0[kh] = _pivot(D, f"pair ({k},{h})")
        # coefficients of F_kl F_lh: q1[i, j, l, k, h] in DE1, q2[i, l, k, h] in DE2, and the
        # de2_links weights, fixed by F0: -q2(x_o) times F_lh(x_o) for F_kl, F_kl(x_o) for F_lh
        self.q1, self.q2 = {}, {}
        self.links = {(i, kh): [] for i in range(self.d) for kh in self.pairs}
        for k, h in self.pairs:
            for l in range(self.n):
                if l == k or l == h:
                    continue
                kl, lh = self.ddelta[k, l], self.ddelta[l, h]
                for i in range(self.d):
                    p1 = kl[i] * self.delta[l, h]
                    self.q2[i, l, k, h] = p1 - self.delta[k, l] * lh[i]
                    q0 = self.q2[i, l, k, h].constant_term()
                    if q0 != 0:
                        self.links[i, (k, h)] += [((k, l), self.zero - q0 * F0[l][h]),
                                                  ((l, h), self.zero - q0 * F0[k][l])]
                    for j in range(i + 1, self.d):
                        w = kl[i] * lh[j] - kl[j] * lh[i]
                        self.q1[i, j, l, k, h], self.q1[j, i, l, k, h] = w, -w
        self.C = {(k, h): {} if F0[k][h] == 0 else {(0,) * self.d: F0[k][h]} for k, h in self.pairs}

    # -- loaded store and single-coefficient evaluator --------------------------------

    def load(self, m: int):
        """The store as series valid through degree m, the highest an
        evaluator reads at level m: each F_kh, its partials, and each
        F_kl F_lh, which the kernel forms through degree m."""
        self.F = {kh: TruncatedSeries(self.ring, c, m) for kh, c in self.C.items()}
        self.dF = {kh: [s.diff(a) for a in range(self.d)] for kh, s in self.F.items()}
        self.FF = {(k, l, h): self.F[k, l] * self.F[l, h]
                   for k, h in self.pairs for l in range(self.n) if l != k and l != h}

    def de1_coeff(self, i: int, j: int, kh, beta: tuple):
        k, h, zero = *kh, self.zero
        acc = _product_coeff(self.ddelta[kh][j], self.dF[kh][i], beta, zero)
        acc = acc - _product_coeff(self.ddelta[kh][i], self.dF[kh][j], beta, zero)
        for l in range(self.n):
            if l != k and l != h:
                acc = acc - _product_coeff(self.q1[i, j, l, k, h], self.FF[k, l, h], beta, zero)
        return acc

    def de2_coeff(self, i: int, kh, beta: tuple):
        k, h, zero = *kh, self.zero
        acc = _product_coeff(self.delta[kh], self.dF[kh][i], beta, zero)
        acc = acc - self.kappa[kh] * _product_coeff(self.ddelta[kh][i], self.F[kh], beta, zero)
        for l in range(self.n):
            if l != k and l != h:
                acc = acc - _product_coeff(self.q2[i, l, k, h], self.FF[k, l, h], beta, zero)
        return acc

    def de1_row(self, i: int, j: int, kh, beta: tuple):
        """(multipliers, de1_coeff) of the DE1 coefficient at beta."""
        D = self.D[kh]
        mults = {_bump(beta, i): D[j] * (beta[i] + 1), _bump(beta, j): -D[i] * (beta[j] + 1)}
        return mults, self.de1_coeff(i, j, kh, beta)

    def de2_row(self, i: int, kh, e: tuple):
        """(multipliers, de2_coeff) of the DE2 coefficient at e."""
        if self.coalescent[kh]:
            D, mults = self.D[kh], {}
            for c in _support(e):
                mults[_bump(_bump(e, c, -1), i)] = D[c] * (e[i] - (1 if c == i else 0) + 1)
            mults[e] = mults.get(e, self.zero) - self.kappa[kh] * D[i]
        else:
            mults = {_bump(e, i): self.d0[kh] * (e[i] + 1)}
        return mults, self.de2_coeff(i, kh, e)

    def de2_links(self, i: int, kh, e: tuple):
        """The multipliers of other pairs' unknowns in a coalescent pair's DE2
        coefficient at e, keyed by (pair, e): F_kl F_lh names F_kl's and F_lh's
        coefficients at e, weighted by q2 and the other factor at the base point.
        de2_known_row folds in the links to regular pairs; the oracle keeps the rest as columns."""
        return {(pair, e): w for pair, w in self.links[i, kh]}

    def de1_known_row(self, i: int, j: int, kh, beta: tuple):
        """de1_row, its value plus each multiplier times pair kh's coefficient
        that the recursion has stored."""
        mults, val = self.de1_row(i, j, kh, beta)
        for t, w in mults.items():
            if t in self.C[kh]:
                val = val + w * self.C[kh][t]
        return mults, val

    def de2_known_row(self, i: int, kh, e: tuple):
        """de2_row of a coalescent pair, its value plus each de2_links multiplier
        times the linked regular pair's coefficient, which the solver has stored.  A link
        to a coalescent pair (float values within tol, not bit-equal) is left out."""
        mults, val = self.de2_row(i, kh, e)
        for (pair, t), w in self.de2_links(i, kh, e).items():
            if not self.coalescent[pair] and t in self.C[pair]:
                val = val + w * self.C[pair][t]
        return mults, val

    # -- base point constraint -------------------------------------------------------

    def base_point_residual(self) -> DEResidualReport:
        """Order -1 residual report of F0: the degree-0 DE2 coefficients at
        coalescent pairs, which both solvers judge by _feasible."""
        zexp = (0,) * self.d
        worst, exact_zero = 0.0, self.exact
        self.load(0)
        for kh in filter(self.coalescent.get, self.pairs):
            for i in range(self.d):
                r = self.de2_coeff(i, kh, zexp)
                if r != 0:
                    exact_zero = False
                worst = max(worst, magnitude(r))
        return DEResidualReport(-1, [], [worst] if worst else [], self.exact, exact_zero)

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
        """Store the degree-level coefficients, one row and one division each.
        A coalescent pair is swept in decreasing alpha[j0]: level e_j0 from
        its DE2 row (multiplier D_j0 (level - kappa), nonzero by
        _resonance_guard), any other alpha from the DE1 row (c, j0) at
        alpha - e_c, c in supp(alpha) - {j0} (multiplier D_j0 alpha_c)."""
        exps = exponents_of_degree(self.d, level)
        self.load(level)
        for kh in self.pairs:
            if not self.coalescent[kh]:
                for alpha in exps:
                    a = _support(alpha)[0]
                    mults, val = self.de2_row(a, kh, _bump(alpha, a, -1))
                    self._store(kh, alpha, -val / mults[alpha])
        for kh in filter(self.coalescent.get, self.pairs):
            self._resonance_guard(kh, level)
            j0 = self.j0[kh]
            # the DE1 row also names alpha - e_c + e_j0, which is stored already
            for alpha in sorted(exps, key=lambda e: -e[j0]):
                c = next((a for a in _support(alpha) if a != j0), None)
                if c is None:
                    mults, val = self.de2_known_row(j0, kh, alpha)
                else:
                    mults, val = self.de1_known_row(c, j0, kh, _bump(alpha, c, -1))
                self._store(kh, alpha, -val / mults[alpha])

    def to_jet(self) -> DEJet:
        return DEJet(SeriesMatrix([[self.ring.zero() if k == h else TruncatedSeries(self.ring, self.C[k, h])
                                    for h in range(self.n)] for k in range(self.n)]))


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
            # per third index l: f_l - f_k, f_l - f_h, d(f_l - f_k), d(f_h - f_l)
            lk = {l: fs[l] - fs[k] for l in others}
            lh = {l: fs[l] - fs[h] for l in others}
            up = {l: [dfs[l][i] - dfs[k][i] for i in range(d)] for l in others}
            down = {l: [dfs[h][i] - dfs[l][i] for i in range(d)] for l in others}
            for i in range(d):
                w = {l: dot([(lk[l], down[l][i]), (up[l][i], lh[l])]) for l in others}
                r = dot([(delta, dF[i]), (ddelta[i].scale(-kappa), Fkh)]
                        + [(w[l], G[l]) for l in others])
                absorb(r, de2)
            for i in range(d):
                for j in range(i + 1, d):
                    w = {l: dot([(up[l][j], down[l][i]), (-up[l][i], down[l][j])]) for l in others}
                    r = dot([(ddelta[j], dF[i]), (-ddelta[i], dF[j])]
                            + [(w[l], G[l]) for l in others])
                    absorb(r, de1)
    return DEResidualReport(order, de1, de2, exact, exact_zero)


def de_solve_jet(problem: DEProblem, F0, K: int, tol: float = _FEASIBLE_TOL):
    """Taylor jet of the solution with value F0 at the base point.

    Returns (jet, feasible, residual report).  feasible records whether F0
    is admissible, which fails exactly when some residual survives (for
    example the degree-0 constraint at a coalescent pair); _feasible states
    the float rule.  When F0 is admissible the jet is the solution's, unique
    given F0.  When it is not, no solution exists, and the jet is the one
    that _Engine.advance_level's rows give.  Raises ResonanceError when
    b_h - b_k hits {2, ..., K+1} at a coalescent pair.
    """
    K = int(K)
    if K < 0:
        raise ValidationError("jet order must be nonnegative")
    F0s, exact = _coerce_initial(problem, F0)
    eng = _Engine(problem, K, exact, F0s)
    for level in range(1, K + 1):
        eng.advance_level(level)
    jet = eng.to_jet()
    report = de_residual(problem, jet, K - 1) if K else eng.base_point_residual()
    return jet, _feasible(report, jet, tol), report


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


def _eliminate(rows):
    """Exact sparse Gauss-Jordan elimination of the rows sum(coeff * u) + const = 0.

    rows: list of (dict col->ComplexRational, const); zero coefficients are
    dropped.  Rows are taken shortest first, the fewest-entries pivot order
    of Markowitz, so a unit row pins its unknown before any coupled row is
    pivoted.  Each row has the known pivots substituted; its lowest
    remaining unknown becomes a new pivot, which is then eliminated from
    the earlier pivot rows.  Returns {pivot: {col: coeff, None: const}},
    u_pivot = sum(coeff * u_col) + const over the columns that are no
    pivot (the free columns), or "inconsistent" when a row reduces to a
    nonzero constant.
    """

    def add(dst: dict, a, src: dict):
        for c, w in src.items():
            dst[c] = dst[c] + a * w if c in dst else a * w

    exprs = {}
    for entries, const in sorted(rows, key=lambda r: len(r[0])):
        row = {None: const}
        for col, v in entries.items():
            if v:
                add(row, v, exprs.get(col, {col: 1}))
        unknowns = [c for c, v in row.items() if c is not None and v]
        if not unknowns:
            if row[None]:
                return "inconsistent"
            continue
        p = min(unknowns)
        inv = ComplexRational(-1) / row.pop(p)
        expr = {c: v * inv for c, v in row.items() if v or c is None}
        for e in exprs.values():
            a = e.pop(p, None)
            if a is not None:
                add(e, a, expr)
        exprs[p] = expr
    return exprs


def _exact_solve(rows, ncols: int):
    """The values list of _eliminate's rows in the unknowns u_0 .. u_{ncols-1},
    "inconsistent", or "singular" when some unknown has no pivot."""
    exprs = _eliminate(rows)
    if exprs == "inconsistent":
        return exprs
    if len(exprs) < ncols:
        return "singular"
    return [exprs[c][None] for c in range(ncols)]


def _blocks(rows, ncols: int):
    """The connected blocks of the rows: a list of (columns, rows).

    Two columns are connected when one row's entries name both (union-find
    over the named columns).  A block holds its columns in ascending order
    and the rows that touch them in their given order.  A row with no
    entries belongs to no block, and neither does a column no row names.
    """
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    rows = [row for row in rows if row[0]]
    for entries, _ in rows:
        root = find(next(iter(entries)))
        for c in entries:
            parent[find(c)] = root
    roots = [find(c) for c in range(ncols)]
    blocks = {}
    for row in rows:
        blocks.setdefault(roots[next(iter(row[0]))], ([], []))[1].append(row)
    for c, root in enumerate(roots):
        if root in blocks:
            blocks[root][0].append(c)
    return list(blocks.values())


def _solve(rows, ncols: int, exact: bool):
    """Solve the rows sum(coeff * u) + const = 0 of _exact_solve for u: the
    oracle's linear solve, as the recursion only divides.

    Exact mode eliminates exactly.  Floating mode splits the system into
    _blocks and solves each block A x = b by least squares on its own, with
    one QR of [A | b], or of [Re A | Re b | Im b] in real arithmetic when A
    is real: the leading n x n triangle R11 has A's singular values, and
    x = R11^-1 R12 (Golub & Van Loan, Matrix Computations, 5.3).  A row with
    no entries cannot change the solution and is dropped.  The rank rule is
    the whole system's: its singular values are the union of its blocks',
    and it is singular when fewer than ncols of them exceed _RANK_TOL times
    the largest.  A block with fewer rows than columns, or a column that no
    row names, therefore makes it singular.  The oracle solves a degree as
    two systems, so the rule holds per system.  Returns the values list or
    the failure string.
    """
    if exact:
        return _exact_solve(rows, ncols)
    tris, svs = [], [np.zeros(0)]
    for cols, brows in _blocks(rows, ncols):
        n, local = len(cols), {c: i for i, c in enumerate(cols)}
        if len(brows) < n:
            return "singular"
        M = np.zeros((len(brows), n + 1), dtype=complex)
        for rid, (entries, const) in enumerate(brows):
            for cidx, v in entries.items():
                M[rid, local[cidx]] = complex(v)
            M[rid, n] = -complex(const)
        if not M[:, :n].imag.any():
            M = np.column_stack((M.real, M[:, n].imag))
        R = _lapack(np.linalg.qr, M, mode="r", what="the linear system")
        svs.append(_lapack(np.linalg.svd, R[:n, :n], compute_uv=False, what="the linear system"))
        tris.append((cols, R[:n, :n], R[:n, n:]))
    if _cutoff_rank(np.sort(np.concatenate(svs))[::-1], _RANK_TOL) < ncols:
        return "singular"
    sol = np.zeros(ncols, dtype=complex)
    for cols, R11, R12 in tris:
        x = _lapack(np.linalg.solve, R11, R12, what="the linear system")
        sol[cols] = x[:, 0] + 1j * x[:, 1] if x.shape[1] == 2 else x[:, 0]
    return list(sol)


def de_oracle_solve(problem: DEProblem, F0, K: int) -> DEJet:
    """Degree-by-degree stacked linear solve for the same jet.

    Degree m is solved as two systems, as only the coalescent pairs' rows
    name other pairs' degree-m unknowns (de2_links).  First the regular
    pairs' DE1 and DE2 rows at degree m-1, in their own columns: each
    unknown alpha has a DE2 row naming it alone, with multiplier
    d0 alpha_i != 0, so this system has full column rank.  Then the
    coalescent pairs' DE1 rows at degree m-1 and DE2 rows at degree m (the
    only equations reaching their pure pivot coefficients), read by
    de2_known_row with the regular values stored; a link between coalescent
    pairs (float values within tol, not bit-equal) stays a column.  The two
    are singular exactly when the stacked system is.  The degree-0 DE2
    coefficients at coalescent pairs name no unknown; base_point_residual
    and _feasible judge them as de_solve_jet does, and a violation makes
    degree 1 inconsistent, or degree 0 when K = 0.  Exact mode solves
    exactly, floating mode by least squares after a numerical rank check
    per system.  A singular or inconsistent system raises ResonanceError at
    a resonant coalescent pair, else OracleError.
    """
    K = int(K)
    if K < 0:
        raise ValidationError("jet order must be nonnegative")
    F0s, exact = _coerce_initial(problem, F0)
    eng = _Engine(problem, K, exact, F0s)
    admissible = _feasible(eng.base_point_residual(), eng.to_jet())
    if K == 0 and not admissible:
        raise OracleError("inconsistent linear system at degree 0")
    d = problem.d
    for m in range(1, K + 1):
        eng.load(m)
        exps_m = exponents_of_degree(d, m)
        exps_prev = exponents_of_degree(d, m - 1)
        for coalescent in sorted(set(eng.coalescent.values())):  # the regular pairs first
            group = [kh for kh in eng.pairs if eng.coalescent[kh] == coalescent]
            cols = [(kh, a) for kh in group for a in exps_m]
            col_index = {key: idx for idx, key in enumerate(cols)}
            rows = []
            for kh in group:
                own = {a: col_index[kh, a] for a in exps_m}
                keyed = [(eng.de1_row(i, j, kh, beta), {})
                         for i in range(d) for j in range(i + 1, d) for beta in exps_prev]
                keyed += [(eng.de2_known_row(i, kh, e), eng.de2_links(i, kh, e)) if coalescent
                          else (eng.de2_row(i, kh, e), {})
                          for i in range(d) for e in (exps_m if coalescent else exps_prev)]
                for (mults, val), links in keyed:
                    entries = {own[t]: v for t, v in mults.items()}
                    # val holds the links to regular pairs; those to coalescent pairs are columns
                    entries.update((col_index[key], v) for key, v in links.items() if key in col_index)
                    rows.append((entries, val))
            sol = _solve(rows, len(cols), exact) if admissible or m > 1 else "inconsistent"
            if isinstance(sol, str):
                for kh in filter(eng.coalescent.get, eng.pairs):
                    eng._resonance_guard(kh, m)
                raise OracleError(f"{sol} linear system at degree {m}")
            for (kh, a), v in zip(cols, sol):
                eng._store(kh, a, v)
    return eng.to_jet()
