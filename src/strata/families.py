"""Holomorphic matrix families and the Jordanizability checker.

A family is an n x n matrix of polynomials in d variables, optionally
with declared eigenvalue branches (polynomial, multiplicity).  The
checker probes three conditions at a point:

  1. a holomorphic Jordan form exists: each branch's Segre symbol is
     constant off the coalescence locus, and at the center the Segre
     symbol of each merged eigenvalue equals the multiset union of the
     symbols of the branches that merge there.  Segre data come from the
     rank drops of the first m powers of A - lambda I, m the branch's
     (or merged branches') multiplicity, so the other eigenvalues never
     fall below the rank cutoff;
  2. the generalized eigenspace of each branch has a gap-metric limit
     along every probed path, and the limits agree across paths;
  3. the limits form a direct sum decomposition of C^n.

Condition 2 is probed on finitely many polynomial paths with geometric
sample schedules; the exact kernel-sheaf value of a univariate family
gives an independent check of each path limit.  That value at x0 is

  V_N = { v_0 : v(t) = v_0 + ... + v_{N-1} t^{N-1}, A(x0 + t) v(t) = 0 mod t^N }

for N = n deg A + 1 (the bound is proved at _order_bound), computed by
the exact elimination of darboux over ComplexRational.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CoalescencePathError,
    ExactnessError,
    GenericityError,
    ShapeError,
    ValidationError,
)
from .darboux import _eliminate
from .partitions import SegreSymbol, forgetful
from .polynomials import Poly, _matmul
from .scalars import ComplexRational, coerce, float_pair, to_complex, to_exact
from .subspaces import Subspace, _clusters, _lapack, _numerical_rank, _root_space, _segre, gap_distance

DEFAULT_SEP_TOL = 1e-12
# deepest sample 2^-30: small enough for gap-Cauchy tests at 1e-8, large
# enough that rank gaps of order t in powered matrices stay resolvable
DEEP_SAMPLES = tuple(2.0 ** -j for j in range(6, 31))
SHALLOW_SAMPLES = tuple(2.0 ** -j for j in range(3, 13))
PATH_RANK_TOL = 1e-12
# random points, and relative tolerance, of the declared-branch spectrum check
_BRANCH_CHECK_POINTS = 20
_BRANCH_CHECK_TOL = 1e-6
# tolerance of the Segre rank sequences in jordanizability_report
_SEGRE_TOL = 1e-8
_GAP_TOL = 1e-8  # jordanizability_report's default gap tolerance of the path limits


class MatrixFamily:
    """Polynomial matrix family with optional declared eigenvalue branches."""

    __slots__ = ("d", "n", "entries", "branches", "exact")

    def __init__(self, d: int, n: int, entries, branches=None, validate: bool = True):
        self.d = int(d)
        self.n = int(n)
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ShapeError(f"entries must be {n}x{n}")
        for row in entries:
            for p in row:
                if not isinstance(p, Poly):
                    raise ValidationError("entries must be polynomials")
                if p.d != d:
                    raise ShapeError("entry polynomial has wrong variable count")
        self.entries = [list(r) for r in entries]
        self.exact = all(p.exact for r in self.entries for p in r)
        if branches is not None:
            branches = [(p, int(m)) for p, m in branches]
            for p, m in branches:
                if p.d != d:
                    raise ShapeError("branch polynomial has wrong variable count")
                if m < 1:
                    raise ValidationError("branch multiplicity must be >= 1")
            if sum(m for _, m in branches) != n:
                raise ValidationError("branch multiplicities must sum to n")
        self.branches = branches
        if validate and branches is not None:
            self._validate_branches()

    def _validate_branches(self):
        rng = np.random.default_rng(1234)
        for _ in range(_BRANCH_CHECK_POINTS):
            x = rng.standard_normal(self.d) + 1j * rng.standard_normal(self.d)
            a = self.eval(x)
            eig = np.sort_complex(_lapack(np.linalg.eigvals, a, what="the family at a sample point"))
            declared = []
            for p, m in self.branches:
                declared.extend([complex(p.eval(x))] * m)
            declared = np.sort_complex(np.array(declared))
            scale = max(1.0, float(np.max(np.abs(a))))
            if np.max(np.abs(eig - declared)) > _BRANCH_CHECK_TOL * scale:
                raise ValidationError(
                    "declared branches do not match the spectrum at a sample point"
                )

    # -- evaluation -------------------------------------------------------------

    def eval(self, point) -> np.ndarray:
        pt = [to_complex(x) for x in point]
        a = np.empty((self.n, self.n), dtype=complex)
        for i in range(self.n):
            for j in range(self.n):
                a[i, j] = to_complex(self.entries[i][j].eval(pt))
        return a

    def branch_values(self, point) -> list:
        if self.branches is None:
            raise ValidationError("family has no declared branches")
        pt = [to_complex(x) for x in point]
        return [complex(p.eval(pt)) for p, _ in self.branches]

    def is_coalescence_point(self, point, sep_tol: float = DEFAULT_SEP_TOL) -> bool:
        """Whether two declared branches collide at the point, that is, link
        in the single-linkage clustering of their values at sep_tol."""
        vals = self.branch_values(point)
        return len(_clusters(vals, sep_tol)[0]) < len(vals)

    # -- restriction -------------------------------------------------------------

    def restrict_to_path(self, curves: list) -> "MatrixFamily":
        """Compose with a polynomial curve t -> x(t), giving a d=1 family."""
        if len(curves) != self.d:
            raise ShapeError("need one curve component per variable")
        exact = self.exact and all(c.exact for c in curves)
        cs = list(curves) if exact else [c.to_float() for c in curves]

        def compose(p: Poly) -> Poly:
            return (p if exact else p.to_float()).subs_univariate(cs)

        rows = [[compose(p) for p in r] for r in self.entries]
        br = None if self.branches is None else [(compose(p), m) for p, m in self.branches]
        return MatrixFamily(1, self.n, rows, br, validate=False)


def segre_at_eigenvalue(a: np.ndarray, mu: complex, multiplicity: int, tol: float = 1e-8):
    """Block-size partition of an eigenvalue of known algebraic multiplicity.

    A weakly decreasing tuple of block sizes from the rank drops of the
    first multiplicity powers of a - mu I, or None when the drops are
    numerically inconsistent (subspaces._segre).
    """
    return _segre(a, mu, multiplicity, tol)


# -- exact kernel-sheaf value for univariate families ---------------------------


def _order_bound(family: MatrixFamily) -> int:
    """n deg A + 1: the truncation order N at which V_N is the sheaf value.

    Over the discrete valuation ring of germs at x0, A(x0 + t) has a Smith
    form U diag(t^e_1, .., t^e_r, 0, .., 0) V with U and V invertible and r
    the generic rank.  With w = V v, A v = 0 mod t^N asks w_i = 0 mod
    t^(N - e_i) for i <= r and nothing of the other w_i; so once N > max e_i,
    V_N = V(0)^-1 {w : w_i = 0 for i <= r}, the value of the kernel sheaf
    V^-1 {w : w_i = 0 for i <= r}.  And max e_i <= e_1 + .. + e_r, the order
    at x0 of the gcd of the r x r minors, which is at most the order, so
    the degree, of any nonzero r x r minor: r deg A <= n deg A.
    """
    deg = max(p.degree() for row in family.entries for p in row)
    return family.n * max(deg, 0) + 1


def _truncated_values(family: MatrixFamily, x0: ComplexRational, order: int) -> list:
    """An exactly independent basis of V_order at x0, as coordinate lists.

    The unknowns are the coefficients v_0 .. v_{order-1} of v(t) and the
    equations the coefficients sum_{j <= m} A_{m-j} v_j = 0 of t^m, m < order,
    in A(x0 + t) v(t).  The free columns of their elimination span the
    solutions; the v_0 parts of those span V_order, and a second
    elimination of them as rows leaves one independent row per pivot.
    """
    n = family.n
    shift = [Poly.constant(1, x0, True) + Poly.variable(1, 0, True)]
    taylor = [[p.subs_univariate(shift).coeffs for p in row] for row in family.entries]
    zero = ComplexRational(0)
    # v_j's coordinate k is column n (order - 1 - j) + k: the elimination
    # pivots on the lowest column of a row, so the later coefficients are
    # pivoted before v_0, which keeps the fill-in (and the time) ~5x smaller
    rows = [
        ({n * (order - 1 - j) + k: taylor[i][k][(m - j,)]
          for j in range(m + 1) for k in range(n) if (m - j,) in taylor[i][k]}, zero)
        for m in range(order)
        for i in range(n)
    ]
    exprs = _eliminate(rows)
    v0 = range(n * (order - 1), n * order)
    values = [
        ({i: exprs[c].get(f, zero) if c in exprs else ComplexRational(int(c == f))
          for i, c in enumerate(v0)}, zero)
        for f in range(n * order)
        if f not in exprs
    ]
    basis = _eliminate(values)
    return [
        [ComplexRational(1) if i == p else -basis[p].get(i, zero) for i in range(n)]
        for p in sorted(basis)
    ]


def kernel_sheaf_value_1d(family: MatrixFamily, x0) -> Subspace:
    """Value at x0 of the kernel sheaf of a univariate polynomial matrix.

    V_N at the order N of _order_bound, from exact (rational complex)
    coefficients.  Its basis from _truncated_values holds an identity block
    on the pivot coordinates, so its smallest singular value is at least 1
    and no cutoff decides the dimension.
    """
    if family.d != 1:
        raise ShapeError("kernel sheaf value requires a one-variable family")
    if not family.exact:
        raise ExactnessError(
            "kernel sheaf values need exact rational coefficients; floating input is refused"
        )
    basis = _truncated_values(family, to_exact(x0), _order_bound(family))
    return Subspace.from_spanning(np.array(basis, dtype=complex).reshape(-1, family.n).T, tol=0.0)


def _branch(family: MatrixFamily, branch_index: int):
    """The declared (branch, multiplicity) at branch_index."""
    if family.branches is None:
        raise ValidationError("family has no declared branches")
    if not 0 <= branch_index < len(family.branches):
        raise ValidationError("branch index out of range")
    return family.branches[branch_index]


def kernel_sheaf_limit(family: MatrixFamily, branch_index: int, curves: list) -> Subspace:
    """K[(A - lam_i)^n ; 0] along the polynomial path x(t), exact route."""
    _branch(family, branch_index)
    restricted = family.restrict_to_path(curves)
    lam, _ = restricted.branches[branch_index]
    n = family.n
    rows = [
        [restricted.entries[i][j] - lam if i == j else restricted.entries[i][j] for j in range(n)]
        for i in range(n)
    ]
    power = rows
    for _ in range(n - 1):
        power = _matmul(power, rows)
    powered = MatrixFamily(1, n, power, None, validate=False)
    return kernel_sheaf_value_1d(powered, 0)


# -- path limits ------------------------------------------------------------------


def _point_on_path(curves: list, t: float) -> list:
    return [complex(c.to_float().eval([t])) for c in curves]


def _probe_path(family: MatrixFamily, branch_index: int, path: list, samples: list,
                tol: float, sep_tol: float):
    """Sample a branch's generalized eigenspace along a path, shallow first.

    The space at a sample is the kernel of (A - mu I)^m, m the branch's
    multiplicity: the other branches lie only ~t away, and at power n their
    t^n would fall below the rank cutoff at deep samples.
    samples are positive and decreasing, at least four of them (a subset
    of DEEP_SAMPLES).  Stops as soon as three consecutive gap distances
    settle below tol plus a capped numerical-noise allowance, returning
    that sample's subspace; walking deeper only trades truncation error
    for SVD noise.
    Returns (limit or None, final consecutive gap).
    """
    _, m = _branch(family, branch_index)
    window = 3
    spaces, noises, gaps, settled = [], [], [], []
    for t in samples:
        pt = _point_on_path(path, t)
        if family.is_coalescence_point(pt, sep_tol):
            raise CoalescencePathError(f"sample t={t!r} lies on the coalescence locus")
        a = family.eval(pt)
        mu = family.branch_values(pt)[branch_index]
        sp, s, r = _root_space(a, mu, m, PATH_RANK_TOL)
        spaces.append(sp)
        # eps * sigma_max / sigma_r bounds the rotation of the computed
        # kernel caused by SVD backward error; it grows as the rank gap of
        # the powered matrix closes, which is exactly the regime where
        # consecutive samples stop being comparable at fixed tolerance
        noises.append(float(np.finfo(float).eps * s[0] / s[r - 1]) if r > 0 else 0.0)
        if len(spaces) >= 2:
            g = gap_distance(spaces[-2], spaces[-1])
            gaps.append(g)
            allowance = min(1e-5, 10.0 * (noises[-2] + noises[-1]))
            settled.append(g < tol + allowance)
            if len(settled) >= window and all(settled[-window:]):
                return spaces[-1], gaps[-1]
    return None, (gaps[-1] if gaps else float("nan"))


def limit_along_path(family: MatrixFamily, branch_index: int, path: list):
    """Gap-metric limit of a branch's generalized eigenspace along a path.

    The path is a list of d univariate polynomials with x(0) the probed
    center.  It is sampled at DEEP_SAMPLES, each sample checked to be off
    the coalescence locus (DEFAULT_SEP_TOL).  Returns the final subspace
    when consecutive gap distances settle below 1e-8, otherwise None.
    """
    limit, _ = _probe_path(family, branch_index, path, list(DEEP_SAMPLES), 1e-8, DEFAULT_SEP_TOL)
    return limit


def default_paths(d: int, x0) -> list:
    """Coordinate rays and the diagonal ray from x0, as polynomial curves."""
    exact = all(_is_exactable(c) for c in x0)
    t = Poly.variable(1, 0, exact)

    def ray(direction):
        curves = []
        for a in range(d):
            c0 = Poly.constant(1, coerce(x0[a], exact), exact)
            curves.append(c0 + t * direction[a] if direction[a] else c0)
        return curves

    paths = []
    for a in range(d):
        e = [0] * d
        e[a] = 1
        paths.append(ray(e))
    if d > 1:
        paths.append(ray([1] * d))
    return paths


def _is_exactable(c) -> bool:
    try:
        to_exact(c)
        return True
    except ExactnessError:
        return False


@dataclass
class PathProbe:
    path_index: int
    branch_index: int
    used_samples: int
    limit_dim: int | None
    final_gap: float | None
    converged: bool


@dataclass
class JordanizabilityReport:
    cond1: bool
    cond2: list
    cond3: bool
    verdict: bool
    branch_segres: list
    center_segres: list
    limits: list
    probes: list = field(default_factory=list)
    skipped_paths: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "cond1": self.cond1,
            "cond2": list(self.cond2),
            "cond3": self.cond3,
            "verdict": self.verdict,
            "branch_segres": [list(s) if s else None for s in self.branch_segres],
            "center_segres": [
                {"value": float_pair(v), "actual": list(a), "expected": list(e)}
                for v, a, e in self.center_segres
            ],
            "limit_dims": [s.dim if s is not None else None for s in self.limits],
            "probes": [
                {
                    "path": p.path_index,
                    "branch": p.branch_index,
                    "samples": p.used_samples,
                    "limit_dim": p.limit_dim,
                    "final_gap": p.final_gap,
                    "converged": p.converged,
                }
                for p in self.probes
            ],
            "skipped_paths": list(self.skipped_paths),
            "notes": list(self.notes),
        }


def jordanizability_report(
    family: MatrixFamily,
    x0,
    paths=None,
    tol: float = _GAP_TOL,
    sep_tol: float = DEFAULT_SEP_TOL,
) -> JordanizabilityReport:
    """Probe the three holomorphic-Jordanizability conditions at a point.

    Paths default to default_paths(d, x0) and are sampled at DEEP_SAMPLES.
    """
    if family.branches is None:
        raise ValidationError("jordanizability check requires declared branches")
    d, n = family.d, family.n
    if len(list(x0)) != d:
        raise ShapeError("probe point has wrong dimension")
    if paths is None:
        paths = default_paths(d, list(x0))
    r = len(family.branches)
    notes = []

    # drop paths that live inside the coalescence locus
    usable, skipped = [], []
    for pi, path in enumerate(paths):
        offs = [t for t in DEEP_SAMPLES if not family.is_coalescence_point(_point_on_path(path, t), sep_tol)]
        if len(offs) >= 4:
            usable.append((pi, path, offs))
        else:
            skipped.append(pi)
    if not usable:
        raise GenericityError("no off-coalescence sample found on any probe path")

    # condition 1a: per-branch Segre symbols constant off the locus
    shallow_points = []
    for pi, path, _ in usable:
        for t in SHALLOW_SAMPLES:
            pt = _point_on_path(path, t)
            if not family.is_coalescence_point(pt, sep_tol):
                shallow_points.append(pt)
    branch_segres = []
    cond1 = True
    for bi, (bp, bm) in enumerate(family.branches):
        seen = set()
        for pt in shallow_points:
            a = family.eval(pt)
            mu = family.branch_values(pt)[bi]
            s = segre_at_eigenvalue(a, mu, bm, _SEGRE_TOL)
            if s is not None:
                seen.add(s)
        if len(seen) != 1:
            cond1 = False
            branch_segres.append(None)
            notes.append(f"branch {bi}: off-locus Segre symbols {sorted(seen)}")
        else:
            branch_segres.append(next(iter(seen)))

    # condition 1b: at the center, each merged eigenvalue's Segre symbol
    # is the multiset union of the symbols of the branches merging there
    center_segres = []
    pt0 = [to_complex(c) for c in x0]
    a0 = family.eval(pt0)
    vals0 = family.branch_values(pt0)
    groups, _ = _clusters(vals0, 1e-9)
    for g in groups:
        mult = sum(family.branches[bi][1] for bi in g)
        actual = segre_at_eigenvalue(a0, vals0[g[0]], mult, _SEGRE_TOL)
        if actual is None:
            cond1 = False
            notes.append("center Segre symbol numerically inconsistent")
            continue
        if any(branch_segres[bi] is None for bi in g):
            continue
        expected = forgetful(SegreSymbol([branch_segres[bi] for bi in g])).parts
        center_segres.append((vals0[g[0]], actual, expected))
        if actual != expected:
            cond1 = False

    # condition 2: path limits per branch
    cond2 = []
    limits = []
    probes = []
    for bi in range(r):
        branch_limits = []
        ok = True
        for pi, path, offs in usable:
            lim, final_gap = _probe_path(family, bi, path, offs, tol, sep_tol)
            converged = lim is not None
            probes.append(
                PathProbe(
                    path_index=pi,
                    branch_index=bi,
                    used_samples=len(offs),
                    limit_dim=lim.dim if lim is not None else None,
                    final_gap=final_gap,
                    converged=converged,
                )
            )
            if not converged:
                ok = False
            else:
                branch_limits.append(lim)
        if not branch_limits:
            ok = False
        if ok:
            base = branch_limits[0]
            for other in branch_limits[1:]:
                if gap_distance(base, other) > max(tol, 1e-6):
                    ok = False
                    notes.append(f"branch {bi}: path limits disagree")
                    break
        cond2.append(ok)
        limits.append(branch_limits[0] if ok and branch_limits else None)

    # condition 3: the limits decompose C^n; the rank cutoff adapts to the
    # accuracy the path limits actually reached, since dependence below
    # that resolution is indistinguishable from exact dependence
    if all(cond2) and all(s is not None for s in limits):
        total = sum(s.dim for s in limits)
        worst_gap = max((p.final_gap for p in probes if p.converged), default=0.0)
        cutoff = min(1e-3, max(1e-10, 20.0 * (worst_gap + tol)))
        stacked = np.hstack([s.basis for s in limits]) if limits else np.zeros((n, 0))
        rank = _numerical_rank(stacked, cutoff) if stacked.shape[1] else 0
        cond3 = total == n and rank == n
    else:
        cond3 = False
        notes.append("condition 3 not evaluated: missing limits")

    verdict = bool(cond1 and all(cond2) and cond3)
    return JordanizabilityReport(
        cond1=bool(cond1),
        cond2=[bool(c) for c in cond2],
        cond3=bool(cond3),
        verdict=verdict,
        branch_segres=branch_segres,
        center_segres=center_segres,
        limits=limits,
        probes=probes,
        skipped_paths=skipped,
        notes=notes,
    )
