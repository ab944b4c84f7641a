"""Executable verifiers for three families of rank-2 deformation models.

Three groups of checks, all for meromorphic connections in one pole variable
with a constant residue pair (A0, B0) and a deformation jet K:

* Pfaffian residual: a matrix jet K vanishing at the center defines an
  integrable deformation with pole part A = A0 + K + [K, B0] exactly when
  omega = [A, dK] vanishes.  ``malgrange_pfaffian_residual`` evaluates that
  bracket one coordinate at a time and reports the reconstructed A.

* Non-versality model: for B0 = diag(c, 0) with c outside {-1, 1} and a
  traceless pole part with entries (alpha, beta, gamma), integrability is the
  Pfaffian system

      omega1 = (1-c) beta  d alpha - alpha d beta,
      omega2 = (1+c) gamma d alpha - alpha d gamma,
      omega3 = (1+c) gamma d beta  - (1-c) beta d gamma.

  ``nonversal_curve`` samples the exponential integral curve
  (alpha0 e^t, beta0 e^((1-c)t), gamma0 e^((1+c)t)) and evaluates the three
  residuals along its tangent.  ``rational_c_families`` emits, for rational
  c = p/q in lowest terms, the monomial solution families of each sign
  regime, with the residual coefficients cancelled exactly in rational
  arithmetic.  ``axis_curves`` returns the three coordinate lines through
  the origin; their tangents span three independent directions, which is the
  computational witness that no single two-dimensional family induces all
  integral curves.

* Resonant classifier: for B0 = diag(1, 0), whose eigenvalue gap is the
  resonant integer 1, the jet K = [[g, h], [l, m]] (entries vanishing at the
  base point) is integrable exactly when

      l dh = 0,    (g - m) dh = 0,    (m - g) dl - 2 l d(m - g) = 0,

  and every solution falls in exactly one of three normal forms.
  ``classify_2x2`` checks the structure equations as polynomial identities
  and returns the normal form: type I means h = 0 and l = kappa (m - g)^2
  with g, m distinct, diagonalized by M = [[1, 0], [2 kappa (g - m), 1]];
  type II means h = 0, l = 0, g = m; type III means h nonzero, which forces
  l = 0 and g = m.  Inputs failing the structure equations, and the
  degenerate shape (g = m, h = 0, l nonzero) that matches no normal form,
  are reported as not integrable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ShapeError, ValidationError
from .polynomials import Poly
from .scalars import ComplexRational, coerce, float_pair, zero_test
from .series import SeriesMatrix, SeriesRing

_CURVE_TOL = 1e-10
_FIT_TOL = 1e-9


def _const_matrix(ring: SeriesRing, data, n: int) -> SeriesMatrix:
    rows = list(data)
    if len(rows) != n or any(len(list(r)) != n for r in rows):
        raise ShapeError(f"expected a {n}x{n} constant matrix")
    return ring.matrix([[ring.const(v) for v in row] for row in rows])


# -- Pfaffian residual --------------------------------------------------------


@dataclass
class MalgrangeReport:
    """Bracket residual omega_a = [A, dK/dx_a] per coordinate, plus A."""

    order: int
    A: SeriesMatrix
    omega: list

    def max_abs(self, through: int | None = None) -> float:
        through = self.order if through is None else through
        return max((w.max_abs(through) for w in self.omega), default=0.0)

    def is_zero(self, through: int | None = None) -> bool:
        through = self.order if through is None else through
        return all(w.is_zero(through) for w in self.omega)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "max_abs": self.max_abs(),
            "is_zero": self.is_zero(),
            "per_coordinate": [w.max_abs(self.order) for w in self.omega],
        }


def malgrange_pfaffian_residual(A0, B0, kjet: SeriesMatrix, order: int | None = None) -> MalgrangeReport:
    """Evaluate omega = [A0 + K + [K, B0], dK] coordinatewise for a jet K.

    A0 and B0 are constant square matrices; kjet is a series matrix whose
    entries vanish at the center.  The derivative drops one jet order, so the
    residual is determined through order ring.K - 1; ``order`` may lower the
    reporting threshold but not raise it.
    """
    ring = kjet.ring
    n = kjet.shape[0]
    if kjet.shape[1] != n:
        raise ShapeError("deformation jet must be square")
    vanishes = zero_test(ring.exact, 1e-12)
    for i in range(n):
        for j in range(n):
            if not vanishes(kjet.entry(i, j).constant_term()):
                raise ValidationError(f"deformation jet entry ({i},{j}) does not vanish at the center")
    determined = ring.K - 1
    if order is None:
        order = determined
    order = min(int(order), determined)
    if order < 0:
        raise ValidationError("jet order is too small to determine any residual coefficient")
    a0 = _const_matrix(ring, A0, n)
    b0 = _const_matrix(ring, B0, n)
    amat = a0 + kjet + kjet.commutator(b0)
    omega = [amat.commutator(kjet.diff(a)) for a in range(ring.d)]
    return MalgrangeReport(order=order, A=amat, omega=omega)


# -- non-versality model: exponential curve ----------------------------------


@dataclass
class CurveReport:
    """Samples of the exponential integral curve and pf-system residuals."""

    c: complex
    exponents: tuple
    tgrid: list
    samples: list
    residuals: list
    tol: float

    @property
    def max_residual(self) -> float:
        """Largest |residual|; inf when some residual is not finite."""
        mags = [abs(r) for row in self.residuals for r in row]
        if not all(math.isfinite(m) for m in mags):
            return math.inf
        return max(mags, default=0.0)

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tol

    def to_dict(self) -> dict:
        return {
            "c": float_pair(self.c),
            "exponents": [float_pair(e) for e in self.exponents],
            "t": [t + 0.0 for t in self.tgrid],
            "samples": [[float_pair(v) for v in s] for s in self.samples],
            "residuals": [[abs(r) for r in row] for row in self.residuals],
            "max_residual": self.max_residual,
            "ok": self.ok,
        }


def nonversal_curve(alpha0, beta0, gamma0, c, tgrid=None, exponents=None, tol: float = _CURVE_TOL) -> CurveReport:
    """Sample (alpha0 e^t, beta0 e^((1-c)t), gamma0 e^((1+c)t)) and test pf residuals.

    ``exponents`` overrides the three exponential rates (default
    (1, 1-c, 1+c)); a perturbed rate makes the matching residual nonzero,
    which is the negative control.
    """
    a0, b0, g0, cc = complex(alpha0), complex(beta0), complex(gamma0), complex(c)
    if tgrid is None:
        tgrid = [k / 10 for k in range(11)]
    tgrid = [complex(t) for t in tgrid]
    if exponents is None:
        exponents = (1 + 0j, 1 - cc, 1 + cc)
    ea, eb, eg = (complex(e) for e in exponents)
    samples = []
    residuals = []
    for t in tgrid:
        try:
            al = a0 * cmath.exp(ea * t)
            bt = b0 * cmath.exp(eb * t)
            gm = g0 * cmath.exp(eg * t)
        except OverflowError:
            at = t.real if t.imag == 0 else t
            raise ValidationError(f"the curve leaves the float range at t = {at}") from None
        dal, dbt, dgm = ea * al, eb * bt, eg * gm
        w1 = (1 - cc) * bt * dal - al * dbt
        w2 = (1 + cc) * gm * dal - al * dgm
        w3 = (1 + cc) * gm * dbt - (1 - cc) * bt * dgm
        samples.append((al, bt, gm))
        residuals.append((w1, w2, w3))
    return CurveReport(c=cc, exponents=(ea, eb, eg), tgrid=[t.real if t.imag == 0 else t for t in tgrid],
                       samples=samples, residuals=residuals, tol=tol)


# -- non-versality model: monomial families -----------------------------------


@dataclass
class MonomialFamily:
    """One monomial solution family (alpha, beta, gamma) = (a0 t^A, b0 t^B, g0 t^G).

    A ``None`` exponent means that coordinate is identically zero.  The three
    residual coefficients are the exact rational factors multiplying the
    single surviving monomial of each pf-system equation; the family solves
    the system exactly when all three are zero.
    """

    regime: str
    alpha_exp: int | None
    beta_exp: int | None
    gamma_exp: int | None
    residuals: tuple
    tangent: tuple | None = None

    @property
    def zero_flags(self) -> tuple:
        return (self.alpha_exp is None, self.beta_exp is None, self.gamma_exp is None)

    @property
    def solves(self) -> bool:
        return all(r == 0 for r in self.residuals)

    def to_dict(self) -> dict:
        def enc(e):
            return None if e is None else (int(e) if Fraction(e).denominator == 1 else str(Fraction(e)))
        out = {
            "regime": self.regime,
            "alpha_exp": enc(self.alpha_exp),
            "beta_exp": enc(self.beta_exp),
            "gamma_exp": enc(self.gamma_exp),
            "zero_flags": list(self.zero_flags),
            "residuals": [str(Fraction(r)) for r in self.residuals],
            "solves": self.solves,
        }
        if self.tangent is not None:
            out["tangent"] = list(self.tangent)
        return out


def _family_residuals(a, b, g, c: Fraction) -> tuple:
    """Exact residual coefficients of the pf system on a monomial family.

    On (a0 t^a, b0 t^b, g0 t^g) each equation collapses to one monomial whose
    coefficient must cancel; a ``None`` exponent kills both terms of the
    equations involving that coordinate.
    """
    w1 = Fraction(0) if a is None or b is None else (1 - c) * Fraction(a) - Fraction(b)
    w2 = Fraction(0) if a is None or g is None else (1 + c) * Fraction(a) - Fraction(g)
    w3 = Fraction(0) if b is None or g is None else (1 + c) * Fraction(b) - (1 - c) * Fraction(g)
    return (w1, w2, w3)


def rational_c_families(p: int, q: int) -> list:
    """Monomial solution families for rational c = p/q in lowest terms.

    Regimes: c < -1 gives (t^q, t^(q-p), 0); -1 < c < 1 gives
    (t^q, t^(q-p), t^(p+q)) plus the half-exponent family
    (0, t^((q-p)/2), t^((p+q)/2)) when p + q is even; c > 1 gives
    (t^q, 0, t^(p+q)).  The integer values c = -1, 1 fall outside this case
    analysis and are rejected.
    """
    p, q = int(p), int(q)
    if q <= 0:
        raise ValidationError("denominator q must be a positive integer")
    if math.gcd(abs(p), q) != 1:
        raise ValidationError(f"p/q = {p}/{q} is not in lowest terms")
    c = Fraction(p, q)
    if c == 1 or c == -1:
        raise ValidationError("c in {-1, 1} has no monomial family case analysis here")
    out = []
    if c < -1:
        out.append(MonomialFamily("c<-1", q, q - p, None, _family_residuals(q, q - p, None, c)))
    elif c > 1:
        out.append(MonomialFamily("c>1", q, None, p + q, _family_residuals(q, None, p + q, c)))
    else:
        out.append(MonomialFamily("-1<c<1", q, q - p, p + q, _family_residuals(q, q - p, p + q, c)))
        if (p + q) % 2 == 0:
            hb, hg = (q - p) // 2, (p + q) // 2
            out.append(MonomialFamily("-1<c<1 half", None, hb, hg, _family_residuals(None, hb, hg, c)))
    return out


def axis_curves() -> list:
    """The three coordinate lines through the origin, each an integral curve.

    Every pf-system equation has both terms proportional to a product of two
    distinct coordinates, so a line with a single nonzero coordinate solves
    the system for every c.  The tangents are the three standard basis
    directions; no two-dimensional surface contains all three lines.
    """
    z3 = (Fraction(0), Fraction(0), Fraction(0))
    return [
        MonomialFamily("axis-alpha", 1, None, None, z3, tangent=(1, 0, 0)),
        MonomialFamily("axis-beta", None, 1, None, z3, tangent=(0, 1, 0)),
        MonomialFamily("axis-gamma", None, None, 1, z3, tangent=(0, 0, 1)),
    ]


# -- resonant 2x2 classifier ---------------------------------------------------


@dataclass
class Classification2x2:
    """Normal-form verdict for a 2x2 resonant deformation jet.

    kind is one of "I", "II", "III", "not-integrable".  For type I, kappa is
    the modulus with l = kappa (m - g)^2, A is the reconstructed pole part
    [[g, 0], [2 l, m]], M is the unipotent matrix conjugating A to
    diag(g, m), and diagonalization_residual is the largest coefficient of
    M^-1 A M - diag(g, m) (zero when the witness checks out).
    """

    kind: str
    kappa: object | None = None
    reason: str | None = None
    structure_residual: float = 0.0
    fit_residual: float = 0.0
    diagonalization_residual: float = 0.0
    A: list | None = None
    M: list | None = None

    @property
    def integrable(self) -> bool:
        return self.kind != "not-integrable"

    def to_dict(self) -> dict:
        out = {
            "type": self.kind,
            "structure_residual": self.structure_residual,
            "fit_residual": self.fit_residual,
            "diagonalization_residual": self.diagonalization_residual,
        }
        if self.kappa is not None:
            if isinstance(self.kappa, ComplexRational):
                out["kappa"] = [str(self.kappa.re), str(self.kappa.im)]
            else:
                out["kappa"] = float_pair(self.kappa)
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _classify_inputs(g, h, l, m, tol):
    polys = []
    for name, p in (("g", g), ("h", h), ("l", l), ("m", m)):
        if not isinstance(p, Poly):
            raise ValidationError(f"entry {name} must be a polynomial")
        polys.append(p)
    g, h, l, m = polys
    for other in (h, l, m):
        g._check(other)
    vanishes = zero_test(g.exact, tol)
    for name, p in (("g", g), ("h", h), ("l", l), ("m", m)):
        c0 = p.coeffs.get((0,) * p.d)
        if c0 is not None and not vanishes(c0):
            raise ValidationError(f"entry {name} does not vanish at the base point")
    return g, h, l, m


def _fit_kappa(l: Poly, diff: Poly):
    """Fit l = kappa * diff^2 with constant kappa; return (kappa, l - kappa diff^2)."""
    q = diff * diff
    if l.is_zero():
        return coerce(0, l.exact), l
    if l.exact:
        pivot = max(q.coeffs)
        kappa = l.coeffs.get(pivot, coerce(0, True)) / q.coeffs[pivot]
    else:
        num = sum(l.coeffs.get(e, 0j) * q.coeffs[e].conjugate() for e in q.coeffs)
        den = sum(abs(c) ** 2 for c in q.coeffs.values())
        kappa = num / den
    return kappa, l - q * kappa


def classify_2x2(g, h, l, m, tol: float = _FIT_TOL) -> Classification2x2:
    """Classify the jet K = [[g, h], [l, m]] against the three normal forms.

    The structure equations l dh = 0, (g - m) dh = 0,
    (m - g) dl - 2 l d(m - g) = 0 are checked coefficientwise per coordinate.
    Exact polynomials use exact zero tests and exact division for kappa;
    floating polynomials use ``tol`` for zero tests and a least-squares kappa
    with the same residual threshold.
    """
    g, h, l, m = _classify_inputs(g, h, l, m, tol)
    d = g.d
    gm = g - m
    negligible = zero_test(g.exact, tol)
    equations = []
    for a in range(d):
        dh = h.diff(a)
        r3 = (-gm) * l.diff(a) - (l * gm.diff(a)) * (-2)
        equations += [l * dh, gm * dh, r3]
    structure = max([0.0] + [r.max_abs() for r in equations])
    if not all(negligible(r) for r in equations):
        return Classification2x2(
            kind="not-integrable",
            reason="structure equations fail on the given entries",
            structure_residual=structure,
        )
    h_zero = negligible(h)
    gm_zero = negligible(gm)
    l_zero = negligible(l)
    if not h_zero:
        if l_zero and gm_zero:
            return Classification2x2(kind="III", structure_residual=structure,
                                     A=[[g, Poly(d, None, g.exact)], [Poly(d, None, g.exact), g]])
        return Classification2x2(
            kind="not-integrable",
            reason="nonzero upper entry requires l = 0 and g = m",
            structure_residual=structure,
        )
    if gm_zero:
        if l_zero:
            return Classification2x2(kind="II", structure_residual=structure,
                                     A=[[g, Poly(d, None, g.exact)], [Poly(d, None, g.exact), g]])
        return Classification2x2(
            kind="not-integrable",
            reason="equal diagonal with nonzero lower entry matches no normal form",
            structure_residual=structure,
        )
    kappa, fit_poly = _fit_kappa(l, -gm)
    fit = fit_poly.max_abs()
    if not negligible(fit_poly):
        return Classification2x2(
            kind="not-integrable",
            reason="lower entry is not a constant multiple of the squared diagonal gap",
            structure_residual=structure,
            fit_residual=fit,
        )
    zero = Poly(d, None, g.exact)
    amat = [[g, zero], [l * 2, m]]
    two_kgm = gm * (kappa * 2)
    mmat = [[Poly.constant(d, 1, g.exact), zero], [two_kgm, Poly.constant(d, 1, g.exact)]]
    # M^-1 A M - diag(g, m) with unipotent M: only the (2,1) entry can survive,
    # and it equals 2 l + w (m - g) for w = 2 kappa (g - m).
    resid21 = l * 2 - two_kgm * gm
    diag_res = resid21.max_abs()
    return Classification2x2(
        kind="I",
        kappa=kappa,
        structure_residual=structure,
        fit_residual=fit,
        diagonalization_residual=diag_res,
        A=amat,
        M=mmat,
    )
