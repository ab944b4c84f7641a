"""JSON encoding and decoding for every document type the CLI consumes.

Scalar convention: a complex number is a two-element list [re, im].  Exact
values carry their parts as fraction strings ("3/7", "-2"); floating values
carry JSON numbers.  A bare number or string is accepted on input as a real
scalar.  A document is decoded exactly when every scalar leaf in it is a
string or an integer; one floating leaf switches the whole document to
floating arithmetic, so mixed documents stay well typed.

Document shapes:

* polynomial: [{"exps": [int; d], "re": ..., "im": ...}], terms sorted by
  exponent for deterministic output.
* series: {"d", "center": [scalar; d], "K", "terms": [...]} plus an optional
  "valid" when the series is trustworthy only below the ring order.
* series matrix: {"d", "n", "center", "K", "entries": [[terms]]} plus an
  optional "valids" grid.
* matrix family: {"d", "n", "entries": [[polynomial]],
  "branches": [{"poly", "multiplicity"}]} with branches optional.
* flat-system problem: {"d", "n", "x0": [scalar], "f": [polynomial; n],
  "b": [scalar; n], "F0": [[scalar]]} with F0 optional.
* framed connection: {"d", "n", "center", "K", "Delta0": [polynomial; n],
  "Bdiag": [scalar; n], "L": [[terms]]} with L the off-diagonal entry grid.
* witness: the framed-connection ring and Delta0 with "B": [[terms]] and
  "varpi": [[[terms]]; d] in place of "Bdiag" and "L".
* gauge series: {"K", "F": [series matrix]}.
* path: [polynomial; d] in one parameter.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .darboux import DEJet, DEProblem
from .errors import ShapeError, ValidationError
from .families import MatrixFamily
from .gauge import FramedConnection, GaugeSeries, build_connection
from .polynomials import Poly, _shift
from .scalars import ComplexRational, coerce, float_pair
from .series import SeriesMatrix, SeriesRing, TruncatedSeries


# -- scalars -------------------------------------------------------------------


def encode_scalar(v) -> list:
    if isinstance(v, ComplexRational):
        return [str(v.re), str(v.im)]
    if isinstance(v, bool):
        raise ValidationError("booleans are not scalars")
    if isinstance(v, (int, Fraction)):
        return [str(Fraction(v)), "0"]
    return float_pair(v)


def _decode_part(v):
    """One scalar part; returns (value, is_exact)."""
    if isinstance(v, bool):
        raise ValidationError("booleans are not scalar parts")
    if isinstance(v, str):
        try:
            return Fraction(v), True
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad fraction string {v!r}") from exc
    if isinstance(v, int):
        return Fraction(v), True
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValidationError(f"non-finite scalar part {v!r}")
        return v, False
    raise ValidationError(f"bad scalar part {v!r}")


def decode_scalar(obj):
    """[re, im] pair, or a bare number or fraction string."""
    if isinstance(obj, (list, tuple)):
        if len(obj) != 2:
            raise ValidationError("complex scalar must be a [re, im] pair")
        re, re_exact = _decode_part(obj[0])
        im, im_exact = _decode_part(obj[1])
        if re_exact and im_exact:
            return ComplexRational(re, im)
        return complex(re, im)
    re, re_exact = _decode_part(obj)
    return ComplexRational(re) if re_exact else complex(re, 0.0)


def _leaf_floats(obj) -> bool:
    if isinstance(obj, float):
        return True
    if isinstance(obj, (list, tuple)):
        return any(_leaf_floats(v) for v in obj)
    if isinstance(obj, dict):
        return any(_leaf_floats(v) for v in obj.values())
    return False


def document_is_exact(obj) -> bool:
    """True when no scalar leaf anywhere in the document is a JSON float."""
    return not _leaf_floats(obj)


# -- polynomials ----------------------------------------------------------------


def _encode_terms(items) -> list:
    out = []
    for exps, c in sorted(items, key=lambda t: t[0]):
        re, im = encode_scalar(c)
        out.append({"exps": list(exps), "re": re, "im": im})
    return out


def encode_poly(p: Poly) -> list:
    return _encode_terms(p.coeffs.items())


def _decode_terms(obj, d: int, exact: bool) -> dict:
    coeffs = {}
    for term in obj:
        if not isinstance(term, dict) or "exps" not in term:
            raise ValidationError("each term needs an exps list")
        exps = tuple(int(e) for e in term["exps"])
        if len(exps) != d:
            raise ShapeError(f"term exponents {exps} do not match d={d}")
        c = decode_scalar([term.get("re", 0), term.get("im", 0)])
        coeffs[exps] = coerce(c, exact)
    return coeffs


def decode_poly(obj, d: int, exact: bool | None = None) -> Poly:
    if exact is None:
        exact = document_is_exact(obj)
    return Poly(d, _decode_terms(obj, d, exact), exact)


# -- truncated series and matrices ----------------------------------------------


def encode_series(s: TruncatedSeries) -> dict:
    ring = s.ring
    out = {
        "d": ring.d,
        "center": [encode_scalar(c) for c in ring.center],
        "K": ring.K,
        "terms": _encode_terms(s.items(s.valid)),
    }
    if s.valid != ring.K:
        out["valid"] = s.valid
    return out


def _ring_from_doc(obj, exact: bool) -> SeriesRing:
    d = int(obj["d"])
    center = [coerce(decode_scalar(c), exact) for c in obj["center"]]
    if len(center) != d:
        raise ShapeError("center length must equal d")
    return SeriesRing(d, int(obj["K"]), center, exact)


def decode_series(obj, ring: SeriesRing | None = None) -> TruncatedSeries:
    exact = document_is_exact(obj) if ring is None else ring.exact
    if ring is None:
        ring = _ring_from_doc(obj, exact)
    coeffs = _decode_terms(obj["terms"], ring.d, ring.exact)
    valid = int(obj.get("valid", ring.K))
    return TruncatedSeries(ring, coeffs, valid)


def encode_series_matrix(m: SeriesMatrix) -> dict:
    ring = m.ring
    n = m.shape[0]
    out = {
        "d": ring.d,
        "n": n,
        "center": [encode_scalar(c) for c in ring.center],
        "K": ring.K,
        "entries": [[_encode_terms(s.items(s.valid)) for s in row] for row in m.rows],
    }
    valids = [[s.valid for s in row] for row in m.rows]
    if any(v != ring.K for row in valids for v in row):
        out["valids"] = valids
    return out


def decode_series_matrix(obj, ring: SeriesRing | None = None) -> SeriesMatrix:
    exact = document_is_exact(obj) if ring is None else ring.exact
    if ring is None:
        ring = _ring_from_doc(obj, exact)
    entries = obj["entries"]
    n = int(obj.get("n", len(entries)))
    if len(entries) != n:
        raise ShapeError("entry grid does not match n")
    valids = obj.get("valids")
    rows = []
    for i, row in enumerate(entries):
        if len(row) != len(entries[0]):
            raise ShapeError("entry grid must be rectangular")
        out_row = []
        for j, terms in enumerate(row):
            valid = int(valids[i][j]) if valids is not None else ring.K
            out_row.append(TruncatedSeries(ring, _decode_terms(terms, ring.d, ring.exact), valid))
        rows.append(out_row)
    return SeriesMatrix(rows)


# -- constant matrices -----------------------------------------------------------


def encode_const_matrix(m) -> list:
    return [[encode_scalar(v) for v in row] for row in m]


def decode_const_matrix(obj, exact: bool | None = None) -> list:
    if exact is None:
        exact = document_is_exact(obj)
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ValidationError("matrix must be a list of rows")
    if any(len(r) != len(obj[0]) for r in obj):
        raise ShapeError("matrix rows must all have the same length")
    return [[coerce(decode_scalar(v), exact) for v in row] for row in obj]


# -- matrix families --------------------------------------------------------------


def encode_matrix_family(fam: MatrixFamily) -> dict:
    out = {
        "d": fam.d,
        "n": fam.n,
        "entries": [[encode_poly(p) for p in row] for row in fam.entries],
    }
    if fam.branches is not None:
        out["branches"] = [
            {"poly": encode_poly(p), "multiplicity": m} for p, m in fam.branches
        ]
    return out


def decode_matrix_family(obj) -> MatrixFamily:
    exact = document_is_exact(obj)
    d, n = int(obj["d"]), int(obj["n"])
    entries = [[decode_poly(t, d, exact) for t in row] for row in obj["entries"]]
    branches = None
    if obj.get("branches") is not None:
        branches = [
            (decode_poly(b["poly"], d, exact), int(b["multiplicity"]))
            for b in obj["branches"]
        ]
    return MatrixFamily(d, n, entries, branches)


# -- flat-system problems ----------------------------------------------------------


def encode_de_problem(problem: DEProblem, F0=None) -> dict:
    out = {
        "d": problem.d,
        "n": problem.n,
        "x0": [encode_scalar(c) for c in problem.x0],
        "f": [encode_poly(p) for p in problem.f],
        "b": [encode_scalar(c) for c in problem.b],
    }
    if F0 is not None:
        out["F0"] = encode_const_matrix(F0)
    return out


def decode_de_problem(obj, tol: float = 1e-10):
    """Returns (problem, F0) with F0 None when the document has none."""
    exact = document_is_exact(obj)
    d, n = int(obj["d"]), int(obj["n"])
    x0 = [coerce(decode_scalar(c), exact) for c in obj["x0"]]
    f = [decode_poly(t, d, exact) for t in obj["f"]]
    b = [coerce(decode_scalar(c), exact) for c in obj["b"]]
    problem = DEProblem(d, n, x0, f, b, tol=tol)
    f0 = None
    if obj.get("F0") is not None:
        f0 = decode_const_matrix(obj["F0"], exact)
    return problem, f0


def encode_jet(jet: DEJet) -> dict:
    return encode_series_matrix(jet.F)


def decode_jet(obj) -> DEJet:
    return DEJet(decode_series_matrix(obj))


# -- framed connections -------------------------------------------------------------


def encode_framed_connection(conn: FramedConnection) -> dict:
    ring = conn.ring
    n = conn.n
    return {
        "d": ring.d,
        "n": n,
        "center": [encode_scalar(c) for c in ring.center],
        "K": ring.K,
        "Delta0": [encode_poly(_series_to_absolute_poly(conn.f[i])) for i in range(n)],
        "Bdiag": [encode_scalar(c) for c in conn.b],
        "L": encode_series_matrix(conn.L)["entries"],
    }


def _series_to_absolute_poly(s: TruncatedSeries) -> Poly:
    """Expand a centered series into a polynomial in the absolute variables."""
    ring = s.ring
    coeffs = dict(s.items(s.valid))
    top = max((sum(e) for e in coeffs), default=0)
    return Poly(ring.d, _shift(coeffs, [-c for c in ring.center], ring.scalar(1), top), ring.exact)


def _decode_frame(obj):
    """The series ring and the diagonal matrix Delta0 of a framed document,
    with a reader for its entry grids."""
    exact = document_is_exact(obj)
    d, n = int(obj["d"]), int(obj["n"])
    ring = _ring_from_doc(obj, exact)
    fpolys = [decode_poly(t, d, exact) for t in obj["Delta0"]]
    if len(fpolys) != n:
        raise ShapeError("Delta0 must list one diagonal polynomial per row")
    zero = ring.zero()
    delta0 = ring.matrix(
        [[ring.from_poly(fpolys[i]) if i == j else zero for j in range(n)] for i in range(n)]
    )

    def grid(entries) -> SeriesMatrix:
        return decode_series_matrix({"n": n, "entries": entries}, ring)

    return ring, delta0, grid


def decode_framed_connection(obj, tol: float = 1e-10) -> FramedConnection:
    ring, delta0, grid = _decode_frame(obj)
    bdiag = [coerce(decode_scalar(c), ring.exact) for c in obj["Bdiag"]]
    return build_connection(delta0, bdiag, grid(obj["L"]), tol=tol)


def decode_witness(obj):
    """Returns (Delta0, B, varpi) of a witness document."""
    ring, delta0, grid = _decode_frame(obj)
    bmat = grid(obj["B"])
    varpi = [grid(g) for g in obj["varpi"]]
    if len(varpi) != ring.d:
        raise ValidationError("varpi must list one matrix per coordinate")
    return delta0, bmat, varpi


# -- gauge series ----------------------------------------------------------------------


def encode_gauge_series(gs: GaugeSeries) -> dict:
    return {"K": gs.K, "F": [encode_series_matrix(fk) for fk in gs.F]}


def decode_gauge_series(obj) -> GaugeSeries:
    mats = [decode_series_matrix(m) for m in obj["F"]]
    if len(mats) != int(obj.get("K", len(mats))):
        raise ValidationError("gauge series K does not match the number of terms")
    return GaugeSeries(mats)


# -- paths -----------------------------------------------------------------------------


def encode_path(curves) -> list:
    return [encode_poly(p) for p in curves]


def decode_path(obj, d: int | None = None) -> list:
    exact = document_is_exact(obj)
    curves = [decode_poly(t, 1, exact) for t in obj]
    if d is not None and len(curves) != d:
        raise ShapeError(f"path must have {d} coordinate curves")
    return curves
