"""Connection frames with a rank-one irregular pole and their formal gauge
reduction to normal form.

A frame consists of a diagonal series matrix Delta0 = diag(f_1, ..., f_n),
a constant diagonal matrix diag(b_1, ..., b_n), and an off-diagonal series
matrix L.  The derived data are

    B       = diag(b) + [L, Delta0],
    omega_a = [d_a Delta0, L]            (one matrix per coordinate),

and the frame's connection form is

    Omega = -(Delta0 + B / z) dz - z dDelta0 + omega.

The normal form is Omega_nf = -d(z Delta0) - diag(b) dz / z.  A gauge series
Phi = Id + F_1 z^{-1} + ... + F_K z^{-K} reduces Omega to Omega_nf exactly
when the ladder identities

    [Delta0, F_{k+1}] + B F_k - F_k diag(b) + k F_k = 0,          k >= 0,
    d F_k = [F_1, dDelta0] F_k + [dDelta0, F_{k+1}],              k >= 0,

hold with F_0 = Id.  formal_simplify builds the F_k order by order, each
off-diagonal entry on its own as one numerator times one inverse: (B F_k -
F_k diag(b) + k F_k)_ij / (f_j - f_i), and at the pairs whose branches of
Delta0 coalesce at the center the derivative identity

    (F_{k+1})_ij = ([F_1, d_h Delta0] F_k - d_h F_k)_ij / (d_h f_j - d_h f_i)

along a pivot coordinate h with separating differentials.  gauge_residual
re-evaluates the defining gauge equation independently, as a Laurent
polynomial in z, so the solver and the verifier share no code path.  It
forms only the products the frame's structure can make nonzero: entry by
entry, each entry one sum of products, with Delta0 read through its
diagonal, the diagonals of B and omega known to be diag(b) and 0, and
F_0 = Id never multiplied as a matrix.  Each residual entry is then valid
as far as the products it forms are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import (
    CoalescencePathError,
    GenericityError,
    ResonanceError,
    ShapeError,
    ValidationError,
)
from .darboux import _COALESCE_TOL, _check_tol, _coalescent_pairs, _fscale, _pivot
from .scalars import float_pair, to_complex, zero_test
from .series import SeriesMatrix, dot

_HOLCON_FLOOR = 1e-8
_HOLCON_TOL = 1e-8  # holcon_check's endpoint tolerance
_HOLCON_SAMPLES = tuple(2.0 ** -m for m in range(1, 13))


def _check_diagonal(delta0: SeriesMatrix) -> int:
    """The size n of a square, strictly diagonal Delta0."""
    n, m = delta0.shape
    if n != m:
        raise ShapeError("diagonal part must be square")
    for i in range(n):
        for j in range(n):
            if i != j and not delta0.entry(i, j).is_zero():
                raise ShapeError(f"diagonal part has a nonzero entry at ({i},{j})")
    return n


def _check_frame(delta0: SeriesMatrix, B: SeriesMatrix, varpi) -> int:
    """Shape and ring checks of frame data (Delta0, B, varpi); returns n."""
    n = _check_diagonal(delta0)
    ring = delta0.ring
    if B.shape != (n, n) or not B.ring.compatible(ring):
        raise ShapeError("deformation matrix does not match the diagonal part")
    if len(varpi) != ring.d:
        raise ShapeError(f"one-form has {len(varpi)} components, expected {ring.d}")
    for W in varpi:
        if W.shape != (n, n) or not W.ring.compatible(ring):
            raise ShapeError("one-form component does not match the diagonal part")
    return n


class FramedConnection:
    """Frame data (Delta0, diag(b), L) with the derived matrices B and omega.

    Delta0 must be strictly diagonal and L strictly off-diagonal, over a
    common series ring, so B has diagonal diag(b) and each omega_a has zero
    diagonal: [L, Delta0] and [d_a Delta0, L] vanish there as L does.
    gauge_residual relies on both.  Pairs of branches whose center values
    agree are recorded as coalescent (ordered pairs, both orientations);
    nonzero integer differences b_i - b_j at coalescent pairs are recorded
    in pnr_violations without raising.
    """

    def __init__(self, delta0: SeriesMatrix, bdiag, L: SeriesMatrix, tol: float = _COALESCE_TOL):
        n = _check_diagonal(delta0)
        nl, ml = L.shape
        if (nl, ml) != (n, n):
            raise ShapeError(f"off-diagonal part has shape {(nl, ml)}, expected {(n, n)}")
        if not delta0.ring.compatible(L.ring):
            raise ShapeError("diagonal and off-diagonal parts live in different series rings")
        if len(bdiag) != n:
            raise ShapeError(f"exponent diagonal has length {len(bdiag)}, expected {n}")
        for i in range(n):
            if not L.entry(i, i).is_zero():
                raise ShapeError(f"off-diagonal part has a nonzero diagonal entry at ({i},{i})")

        ring = delta0.ring
        self.delta0 = delta0
        self.L = L
        self.ring = ring
        self.n = n
        self.d = ring.d
        self.exact = ring.exact
        self.center = ring.center
        self.tol = tol
        self.b = tuple(ring.scalar(v) for v in bdiag)
        self.f = [delta0.entry(i, i) for i in range(n)]

        rows = [[ring.zero() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            rows[i][i] = ring.const(self.b[i])
        self.bdiag_matrix = SeriesMatrix(rows)
        self.B = self.bdiag_matrix + L.commutator(delta0)
        self.omega = [delta0.diff(a).commutator(L) for a in range(self.d)]

        fvals = [f.constant_term() for f in self.f]
        self.coalescent_pairs, self.pnr_violations = _coalescent_pairs(
            fvals, self.b, self.exact, self.tol
        )

    def is_coalescent(self, i: int, j: int) -> bool:
        return (i, j) in self.coalescent_pairs

    def pivot(self, i: int, j: int) -> int:
        """Coordinate with the first largest |d_a f_j - d_a f_i| at the center."""
        units = [tuple(int(b == a) for b in range(self.d)) for a in range(self.d)]
        diffs = [self.f[j].coeff(e) - self.f[i].coeff(e) for e in units]
        return _pivot(diffs, f"coalescent pair ({i},{j})")

    def restriction(self):
        """The pair (Delta0, B) evaluated at the center, as constant matrices."""
        return self.delta0.eval(self.center), self.B.eval(self.center)


def build_connection(delta0: SeriesMatrix, bdiag, L: SeriesMatrix, tol: float = _COALESCE_TOL) -> FramedConnection:
    return FramedConnection(delta0, bdiag, L, tol=tol)


def connection_from_de(problem, jet) -> FramedConnection:
    """Frame whose off-diagonal datum is a Darboux-Egoroff jet.

    Delta0 is the diagonal of the problem's branch functions expanded in the
    jet's ring, diag(b) is the problem's exponent tuple, and L is the jet
    matrix itself; the coalescence tolerance is the problem's.
    """
    ring = jet.F.ring
    fs = problem.f_series(ring)
    n = problem.n
    rows = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = fs[i]
    delta0 = SeriesMatrix(rows)
    return FramedConnection(delta0, list(problem.b), jet.F, tol=problem.tol)


@dataclass
class GaugeSeries:
    """Truncated gauge transform Phi = Id + F_1 z^{-1} + ... + F_K z^{-K}."""

    F: list

    def __post_init__(self):
        for k, M in enumerate(self.F):
            n, m = M.shape
            if n != m:
                raise ShapeError(f"gauge term {k + 1} is not square")
            if not M.ring.compatible(self.F[0].ring):
                raise ShapeError("gauge terms live in different series rings")
            if M.shape != self.F[0].shape:
                raise ShapeError("gauge terms have mismatched sizes")

    @property
    def K(self) -> int:
        return len(self.F)

    def term(self, k: int) -> SeriesMatrix:
        if not 1 <= k <= len(self.F):
            raise ValidationError(f"gauge term index {k} out of range 1..{len(self.F)}")
        return self.F[k - 1]

    def to_float(self) -> "GaugeSeries":
        return GaugeSeries([M.to_float() for M in self.F])


def formal_simplify(conn: FramedConnection, K: int, mode: str = "regular") -> GaugeSeries:
    """Gauge terms F_1..F_K reducing the frame to normal form.

    One recursion serves every frame.  F_1'' = L, since the first ladder
    rung reads B_ij = (f_j - f_i) L_ij off the diagonal.  Each later
    off-diagonal entry is its numerator times 1/(f_j - f_i) at pairs that
    stay separated at the center, and at coalescent pairs that of the
    pivot-derivative identity.  A numerator's products are the dots that
    SeriesMatrix.__matmul__ forms for entry (i, j), a row i against a
    column j, so values and validities are those of the matrix form; the
    bracket [F_1, d_h Delta0] is the one matrix product, once per pivot.
    The resonance error is raised when b_i - b_j + k + 1 vanishes for a
    coalescent pair at a computed order.  Diagonal entries come from the
    next ladder rung.  At a regular center both modes give the same terms;
    regular mode refuses a coalescent one.
    """
    if mode not in ("regular", "coalescent"):
        raise ValidationError(f"unknown mode {mode!r}, expected 'regular' or 'coalescent'")
    if not isinstance(K, int) or K < 0:
        raise ValidationError("truncation order must be a nonnegative integer")
    n, ring = conn.n, conn.ring
    if mode == "regular" and conn.coalescent_pairs:
        raise GenericityError(
            f"center has coalescent branch pairs {list(conn.coalescent_pairs)}; "
            "regular mode needs pairwise distinct f_i"
        )
    pivots = {(i, j): conn.pivot(i, j) for (i, j) in conn.coalescent_pairs}

    inv = {}  # (i, j) -> 1/(f_j - f_i), or 1/(d_h f_j - d_h f_i) at a pivot h
    for i, j in permutations(range(n), 2):
        h = pivots.get((i, j))
        gap = conn.f[j] - conn.f[i] if h is None else conn.f[j].diff(h) - conn.f[i].diff(h)
        inv[(i, j)] = gap.invert()

    terms = []
    brackets = {}  # pivot h -> rows of [F_1, d_h Delta0], built at its first use
    bcols = list(zip(*conn.bdiag_matrix.rows))
    Fk = ring.identity_matrix(n)
    for k in range(K):
        for i, j, m in conn.pnr_violations:  # F_{k+1} there needs b_i - b_j + k + 1 != 0
            if m == -(k + 1):
                raise ResonanceError(f"coalescent pair ({i},{j}) is resonant at gauge order "
                                     f"{k + 1}: b[{i}]-b[{j}] = {m}")
        rows = [[ring.zero() for _ in range(n)] for _ in range(n)]
        cols = list(zip(*Fk.rows))
        for (i, j), inv_ij in inv.items():
            h = pivots.get((i, j))
            if k == 0:
                rows[i][j] = conn.L.entry(i, j)
            elif h is None:
                rows[i][j] = (dot(list(zip(conn.B.rows[i], cols[j])))
                              - dot(list(zip(Fk.rows[i], bcols[j])))
                              + Fk.entry(i, j).scale(k)) * inv_ij
            else:
                if h not in brackets:
                    brackets[h] = terms[0].commutator(conn.delta0.diff(h)).rows
                rows[i][j] = (dot(list(zip(brackets[h][i], cols[j])))
                              - Fk.entry(i, j).diff(h)) * inv_ij
        for i in range(n):
            pairs = [(conn.B.entry(i, l), rows[l][i]) for l in range(n) if l != i]
            rows[i][i] = (dot(pairs) if pairs else ring.zero()).scale(Fraction(-1, k + 1))
        Fk = SeriesMatrix(rows)
        terms.append(Fk)
    return GaugeSeries(terms)


@dataclass
class GaugeResidualReport:
    """Laurent coefficients of dPhi + Omega Phi - Phi Omega_nf.

    dz maps a z-order to its matrix coefficient; dx holds one such map per
    coordinate.  Orders down to -K (dz) and -(K-1) (dx) are fully determined
    by F_1..F_K; the single deeper order in each part involves the absent
    F_{K+1} and is reported as the tail, never asserted.  Each entry is
    valid as far as the products gauge_residual forms for it.
    """

    K: int
    dz: dict
    dx: list

    def _split(self, tail: bool):
        """(dz, dx) restricted to the tail orders, or to the determined ones."""
        cuts = [(self.dz, -self.K)] + [(p, -(self.K - 1)) for p in self.dx]
        parts = [{m: M for m, M in part.items() if (m < cut) == tail} for part, cut in cuts]
        return parts[0], parts[1:]

    def _max_abs(self, tail: bool) -> float:
        dz, dx = self._split(tail)
        return max((M.max_abs() for p in [dz] + dx for M in p.values()), default=0.0)

    def determined(self):
        return self._split(False)

    def tail(self):
        return self._split(True)

    def max_abs_determined(self) -> float:
        return self._max_abs(False)

    def max_abs_tail(self) -> float:
        return self._max_abs(True)

    def is_zero_determined(self) -> bool:
        """Every determined coefficient is checked and zero; a matrix with
        validity below 0 has no checked coefficient, so it is not zero."""
        dz, dx = self.determined()
        mats = list(dz.values()) + [M for p in dx for M in p.values()]
        return all(M.min_valid() >= 0 and M.is_zero() for M in mats)

    def to_dict(self) -> dict:
        dz, dx = self.determined()
        tz, tx = self.tail()
        return {
            "K": self.K,
            "dz": {str(m): dz[m].max_abs() for m in sorted(dz, reverse=True)},
            "dx": [
                {str(m): p[m].max_abs() for m in sorted(p, reverse=True)} for p in dx
            ],
            "determined_max": self.max_abs_determined(),
            "determined_exact_zero": self.is_zero_determined(),
            "tail_dz": {str(m): tz[m].max_abs() for m in sorted(tz, reverse=True)},
            "tail_dx": [
                {str(m): p[m].max_abs() for m in sorted(p, reverse=True)} for p in tx
            ],
        }


def gauge_residual(conn: FramedConnection, gs: GaugeSeries) -> GaugeResidualReport:
    """Evaluate the gauge equation on the K = gs.K terms of gs.

    The residual dPhi + Omega Phi - Phi Omega_nf is a Laurent polynomial in
    z with series-matrix coefficients.  FramedConnection builds B with
    diagonal diag(b) and each omega_a with zero diagonal, since [L, Delta0]
    and [d_a Delta0, L] vanish there as L does.  So, with F_0 = Id, entry
    (i, j) of each coefficient is

        dz at z^-k:    (f_j - f_i) F_k[i][j] - sum_{l != i} B[i][l] F_{k-1}[l][j]
                       + (b_j - b_i - (k - 1)) F_{k-1}[i][j],
        dx_a at z^-k:  (d_a f_j - d_a f_i) F_{k+1}[i][j]
                       + sum_{l != i} omega_a[i][l] F_k[l][j] + d_a F_k[i][j],

    and it is evaluated entry by entry from these sums, independently of
    the recursion that produced gs.  Each entry is one series.dot, so each
    of its coefficients is formed once: the scalar term enters as a
    constant series times F_{k-1}[i][j], d_a F_k[i][j] as 1 times itself,
    and F_0 = Id as 1, never as a matrix.  Each difference f_j - f_i is
    formed once and Delta0 is read only through conn.f.  An entry's
    validity is the least over the factors of its products; a term these
    sums leave out is an exact zero (0 * X), which knows every coefficient.
    """
    K = gs.K
    if K > 0 and not gs.F[0].ring.compatible(conn.ring):
        raise ShapeError("gauge series and frame live in different series rings")
    if K > 0 and gs.F[0].shape != (conn.n, conn.n):
        raise ShapeError("gauge series size does not match the frame")
    n, ring, b = conn.n, conn.ring, conn.b
    F = [None] + gs.F  # F[k] is F_k for k >= 1
    one = ring.one()
    gap = {(i, j): conn.f[j] - conn.f[i] for i in range(n) for j in range(n) if i != j}
    minus_B = (-conn.B).rows

    def matrix(entry, k):
        return SeriesMatrix([[entry(k, i, j) for j in range(n)] for i in range(n)])

    def row_times(M, k, i, j):
        """The pairs of sum_{l != i} M[i][l] F_k[l][j]: M[i][j] * 1 off the
        diagonal for F_0 = Id."""
        if k == 0:
            return [(M[i][j], one)] if i != j else []
        return [(M[i][l], F[k].entry(l, j)) for l in range(n) if l != i]

    def total(terms):
        return dot(terms) if terms else ring.zero()

    def dz_entry(k, i, j):
        terms = [(gap[i, j], F[k].entry(i, j))] if i != j and 1 <= k <= K else []
        if k >= 1:
            terms += row_times(minus_B, k - 1, i, j)
        if k >= 2:
            terms.append((ring.const(b[j] - b[i] - (k - 1)), F[k - 1].entry(i, j)))
        return total(terms)

    dz = {-k: matrix(dz_entry, k) for k in range(K + 2)}

    dx = []
    for a in range(conn.d):
        dgap = {ij: g.diff(a) for ij, g in gap.items()}
        omega = conn.omega[a].rows

        def dx_entry(k, i, j):
            terms = [(dgap[i, j], F[k + 1].entry(i, j))] if i != j and 0 <= k < K else []
            if k >= 0:
                terms += row_times(omega, k, i, j)
            if k >= 1:
                terms.append((one, F[k].entry(i, j).diff(a)))
            return total(terms)

        dx.append({-k: matrix(dx_entry, k) for k in range(-1, K + 1)})
    return GaugeResidualReport(K=K, dz=dz, dx=dx)


@dataclass
class IntegrabilityReport:
    """Residuals of the four flatness identities of a deformation frame.

    eq1 and eq2 are 1-forms (one matrix per coordinate); eq3 and eq4 are
    2-forms keyed by coordinate pairs (a, b) with a < b.  Each residual is
    read through its own validity.
    """

    eq1: list
    eq2: list
    eq3: dict
    eq4: dict

    def _all(self):
        for M in self.eq1:
            yield M
        for M in self.eq2:
            yield M
        for M in self.eq3.values():
            yield M
        for M in self.eq4.values():
            yield M

    def max_abs(self) -> float:
        return max([M.max_abs() for M in self._all()] + [0.0])

    def is_zero(self) -> bool:
        return all(M.is_zero() for M in self._all())

    def to_dict(self) -> dict:
        def fam(ms):
            return max([M.max_abs() for M in ms] + [0.0])

        return {
            "eq1_max": fam(self.eq1),
            "eq2_max": fam(self.eq2),
            "eq3_max": fam(self.eq3.values()),
            "eq4_max": fam(self.eq4.values()),
            "max": self.max_abs(),
            "exact_zero": self.is_zero(),
        }


def integrability_residual(delta0: SeriesMatrix, B: SeriesMatrix, varpi) -> IntegrabilityReport:
    """Residuals of the flatness conditions for the frame (Delta0, B, varpi).

        eq1: [dDelta0, B] + [Delta0, varpi]
        eq2: dB - [B, varpi]
        eq3: dDelta0 ^ varpi + varpi ^ dDelta0
        eq4: dvarpi + varpi ^ varpi

    varpi is a list with one series matrix per coordinate.  eq3 and eq4 are
    empty in one variable.
    """
    _check_frame(delta0, B, varpi)
    ring = delta0.ring
    dparts = [delta0.diff(a) for a in range(ring.d)]
    eq1 = [dparts[a].commutator(B) + delta0.commutator(varpi[a]) for a in range(ring.d)]
    eq2 = [B.diff(a) - B.commutator(varpi[a]) for a in range(ring.d)]
    eq3, eq4 = {}, {}
    for a in range(ring.d):
        for b in range(a + 1, ring.d):
            eq3[(a, b)] = (
                dparts[a] @ varpi[b]
                - dparts[b] @ varpi[a]
                + varpi[a] @ dparts[b]
                - varpi[b] @ dparts[a]
            )
            eq4[(a, b)] = varpi[b].diff(a) - varpi[a].diff(b) + varpi[a].commutator(varpi[b])
    return IntegrabilityReport(eq1=eq1, eq2=eq2, eq3=eq3, eq4=eq4)


@dataclass
class DvWitnessReport:
    """Outcome of solving B'' = [L, Delta0], varpi'' = [dDelta0, L] for L.

    L is None exactly when obstructions is nonempty; each obstruction names
    an off-diagonal pair (0-based) and the reason division or consistency
    failed there.
    """

    L: SeriesMatrix | None
    obstructions: list
    max_inconsistency: float

    @property
    def ok(self) -> bool:
        return not self.obstructions

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "obstructions": [
                {"pair": list(p), "reason": r} for (p, r) in self.obstructions
            ],
            "max_inconsistency": self.max_inconsistency,
        }


def dv_witness(delta0: SeriesMatrix, B: SeriesMatrix, varpi, tol: float = _COALESCE_TOL) -> DvWitnessReport:
    """Extract L with B'' = [L, Delta0] and varpi'' = [dDelta0, L], if any.

    Where f_j - f_i is invertible at the center, L_ij = B_ij / (f_j - f_i)
    and the one-form consistency varpi_a,ij = (d_a f_i - d_a f_j) L_ij is
    verified.  Where it is not invertible, solvability requires B_ij and all
    varpi_a,ij to vanish identically; otherwise the pair is reported as an
    obstruction.  Only off-diagonal data are consulted.  tol must be a
    finite positive real.
    """
    n = _check_frame(delta0, B, varpi)
    tol = _check_tol(tol)
    ring = delta0.ring
    f = [delta0.entry(i, i) for i in range(n)]
    fvals = [s.constant_term() for s in f]
    negligible = zero_test(ring.exact, tol, lambda: _fscale(fvals))
    rows = [[ring.zero() for _ in range(n)] for _ in range(n)]
    obstructions = []
    worst = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            diff = f[j] - f[i]
            if not negligible(diff.constant_term()):
                lij = B.entry(i, j) * diff.invert()
                bad = []
                for a in range(ring.d):
                    wij = varpi[a].entry(i, j)
                    resid = wij - lij * (f[i].diff(a) - f[j].diff(a))
                    consistent = zero_test(ring.exact, tol,
                                           lambda: max(1.0, lij.max_abs(), wij.max_abs()))
                    if not consistent(resid):
                        bad.append(resid.max_abs())
                if bad:
                    worst = max([worst] + bad)
                    obstructions.append(
                        ((i, j), "one-form part inconsistent with the division witness")
                    )
                else:
                    rows[i][j] = lij
            else:
                data = [B.entry(i, j)] + [varpi[a].entry(i, j) for a in range(ring.d)]
                if all(negligible(s) for s in data):
                    continue
                worst = max(worst, max(s.max_abs() for s in data))
                obstructions.append(
                    ((i, j), "branch difference is not invertible at the center "
                     "but the off-diagonal data do not vanish")
                )
    if obstructions:
        return DvWitnessReport(L=None, obstructions=obstructions, max_inconsistency=worst)
    return DvWitnessReport(L=SeriesMatrix(rows), obstructions=[], max_inconsistency=0.0)


@dataclass
class HolconReport:
    """Samples of the coalescence-compatibility ratio for one branch pair.

    lhs holds (b_j - b_i - 1) L_ij - sum_l (f_l - f_i) L_il L_lj at each
    sample; ratios divide by f_i - f_j.  bounded reports whether the last
    four ratios stay within a ten percent spread (or keep shrinking), the
    executable reading of lhs = O(f_i - f_j).
    """

    pair: tuple
    ts: list
    lhs: list
    ratios: list
    spread: float
    bounded: bool

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "ts": [float(t) for t in self.ts],
            "lhs": [float_pair(v) for v in self.lhs],
            "ratios": [float_pair(v) for v in self.ratios],
            "spread": self.spread,
            "bounded": self.bounded,
        }


def holcon_check(conn: FramedConnection, pair, path, tol: float = _HOLCON_TOL) -> HolconReport:
    """Ratio test for the frame's compatibility with a coalescence point.

    path maps t to a parameter point with f_i = f_j at t = 0 and separated
    branches for t > 0; it is sampled at the dyadic points 2^-1 .. 2^-12.  The
    verdict is computed from the last four ratios: bounded when they are all
    tiny, vary by at most ten percent, or decrease in magnitude; divergence
    otherwise.  tol, the endpoint's share of max(1, |f_i|, |f_j|), must be a
    finite positive real.
    """
    i, j = pair
    if not (0 <= i < conn.n and 0 <= j < conn.n) or i == j:
        raise ValidationError(f"pair {pair!r} is not an off-diagonal index pair")
    tol = _check_tol(tol)
    fF = [s.to_float() for s in conn.f]
    LF = conn.L.to_float()
    bF = [to_complex(v) for v in conn.b]

    x0 = tuple(path(0.0))
    fi0, fj0 = fF[i].eval(x0), fF[j].eval(x0)
    scale = max(1.0, abs(fi0), abs(fj0))
    if abs(fi0 - fj0) > tol * scale:
        raise CoalescencePathError(
            f"path endpoint is off the coalescence locus for pair ({i},{j}): "
            f"|f_{i}-f_{j}| = {abs(fi0 - fj0):.3e}"
        )

    ts, lhs_vals, ratios = [], [], []
    for t in _HOLCON_SAMPLES:
        x = tuple(path(t))
        fv = [s.eval(x) for s in fF]
        den = fv[i] - fv[j]
        if abs(den) <= 1e-15 * scale:
            raise CoalescencePathError(
                f"path interior touches the coalescence locus at t = {t}"
            )
        lv = [[LF.entry(p, q).eval(x) for q in range(conn.n)] for p in range(conn.n)]
        acc = (bF[j] - bF[i] - 1.0) * lv[i][j]
        for l in range(conn.n):
            if l != i:
                acc -= (fv[l] - fv[i]) * lv[i][l] * lv[l][j]
        ts.append(t)
        lhs_vals.append(acc)
        ratios.append(acc / den)

    last = ratios[-4:]
    maxr = max(abs(v) for v in last)
    spread = max(abs(a - b) for a in last for b in last)
    if maxr <= _HOLCON_FLOOR:
        bounded = True
    elif spread <= max(0.1 * maxr, _HOLCON_FLOOR):
        bounded = True
    else:
        bounded = all(
            abs(last[m + 1]) <= abs(last[m]) + _HOLCON_FLOOR for m in range(len(last) - 1)
        )
    return HolconReport(
        pair=(i, j), ts=ts, lhs=lhs_vals, ratios=ratios, spread=spread, bounded=bounded
    )
