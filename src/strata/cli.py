"""Command-line front end.

One subcommand per library operation, grouped by module:

    strata partitions {list,count,conjugate}
    strata bundles    {describe,moves,closure,hasse,classify}
    strata gap        {distance,kernel,report}
    strata de         {residual,solve,oracle}
    strata gauge      {build,residual,simplify,witness,holcon}
    strata appendix   {pfaffian,curve,families,classify2x2}

Inputs are JSON documents in the shapes described in ``schemas``; outputs are
JSON on stdout (DOT text for ``bundles hasse --format dot``).  Exit status is
0 on success and 2 on any validation or usage failure, with a one-line
``{"error": code, "detail": text}`` object on stderr.  The STRATA_TOL
environment variable overrides built-in tolerance defaults; explicit --tol
flags win over the environment.  Output is deterministic byte for byte for
identical inputs and flags.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

import numpy as np

from . import appendix as appendix_mod
from . import schemas
from .bundles import (
    classify_matrix_detailed,
    closure_leq,
    describe,
    elementary_moves,
    hasse_diagram,
)
from .darboux import de_oracle_solve, de_residual, de_solve_jet
from .errors import StrataError, ValidationError
from .families import jordanizability_report
from .gauge import dv_witness, formal_simplify, gauge_residual, holcon_check
from .partitions import (
    SegreSymbol,
    conjugate_symbol,
    count_double_partitions_sigma,
    count_fold_partitions,
    enumerate_double_partitions,
    enumerate_partitions,
    mu_string,
)
from .scalars import float_pair
from .subspaces import Subspace, gap_distance, kernel_subspace


def _emit(obj) -> None:
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"the result holds a non-finite number: {exc}") from None
    sys.stdout.write(text + "\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _parse_json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc


def _parse_symbol(text: str) -> SegreSymbol:
    data = _parse_json_arg(text, "symbol")
    return SegreSymbol.from_lists(data)


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text)
    except ValueError as exc:
        raise ValidationError(f"bad complex literal {text!r}") from exc
    if not cmath.isfinite(value):
        raise ValidationError(f"non-finite number {text!r}")
    return value


def _positive(value: float, what: str) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{what} must be a finite positive number, got {value!r}")
    return value


def _tol(args, default: float) -> float:
    flag = getattr(args, "tol", None)
    if flag is not None:
        return _positive(flag, "--tol")
    env = os.environ.get("STRATA_TOL")
    if env is None:
        return default
    try:
        value = float(env)
    except ValueError as exc:
        raise ValidationError(f"STRATA_TOL={env!r} is not a number") from exc
    return _positive(value, "STRATA_TOL")


# the enumerating commands refuse larger weights; their cost doubles per unit
MAX_WEIGHT = 14


def _weight(n: int, what: str) -> int:
    if n > MAX_WEIGHT:
        raise ValidationError(f"{what} is {n}; enumeration is capped at weight {MAX_WEIGHT}")
    return n


# the counting recursions cost about r * n^2 steps; larger inputs are refused
MAX_COUNT_COST = 500_000


def _pairs(items) -> list:
    return [list(p) for p in items]


# -- partitions ------------------------------------------------------------------


def _cmd_partitions_list(args) -> int:
    symbols = enumerate_double_partitions(_weight(args.n, "--n"))
    if args.format == "text":
        for s in symbols:
            sys.stdout.write(mu_string(s) + "\n")
    else:
        _emit([s.to_lists() for s in symbols])
    return 0


def _cmd_partitions_count(args) -> int:
    r, n = args.r, args.n
    if args.method == "enumerate":
        _weight(n, "--n")
        if r == 1:
            value = len(enumerate_partitions(n))
        elif r == 2:
            value = len(enumerate_double_partitions(n))
        else:
            raise ValidationError("enumeration is implemented for r in {1, 2}")
    elif r * n * n > MAX_COUNT_COST:
        raise ValidationError(f"r * n^2 is {r * n * n}; counting is capped at {MAX_COUNT_COST}")
    elif args.method == "sigma":
        if r != 2:
            raise ValidationError("the sigma recursion is specific to r = 2")
        value = count_double_partitions_sigma(n)
    else:
        value = count_fold_partitions(r, n)
    sys.stdout.write(f"{value}\n")
    return 0


def _cmd_partitions_conjugate(args) -> int:
    _emit(conjugate_symbol(_parse_symbol(args.symbol)).to_lists())
    return 0


# -- bundles ----------------------------------------------------------------------


def _cmd_bundles_describe(args) -> int:
    d = describe(_parse_symbol(args.symbol))
    _emit({
        "symbol": d.symbol.to_lists(),
        "label": d.label,
        "n": d.n,
        "codim": d.codim,
        "dim": d.dim,
        "is_regular": d.is_regular,
        "is_diagonalizable": d.is_diagonalizable,
    })
    return 0


def _cmd_bundles_moves(args) -> int:
    moves = elementary_moves(_parse_symbol(args.symbol))
    _emit([{"kind": kind, "symbol": t.to_lists()} for kind, t in moves])
    return 0


def _cmd_bundles_closure(args) -> int:
    a = _parse_symbol(args.a)
    b = _parse_symbol(args.b)
    _weight(max(a.weight, b.weight), "the symbol weight")
    _emit({"leq": closure_leq(a, b)})
    return 0


def _cmd_bundles_hasse(args) -> int:
    h = hasse_diagram(_weight(args.n, "--n"))
    if args.format == "dot":
        sys.stdout.write(h.to_dot() + "\n")
        return 0
    _emit({
        "n": h.n,
        "symbols": [s.to_lists() for s in h.symbols],
        "labels": [mu_string(s) for s in h.symbols],
        "dims": h.dims(),
        "edges": _pairs(h.edges),
    })
    return 0


def _cmd_bundles_classify(args) -> int:
    doc = _load_json(args.input)
    mat = schemas.decode_const_matrix(doc, exact=False)
    result = classify_matrix_detailed(np.array(mat, dtype=complex), tol=_tol(args, 1e-8))
    _emit({
        "symbol": result.symbol.to_lists(),
        "label": mu_string(result.symbol),
        "eigenvalues": [float_pair(z) for z in result.eigenvalues],
        "ill_conditioned": result.ill_conditioned,
        "cluster_gap": result.cluster_gap,
    })
    return 0


# -- gap ---------------------------------------------------------------------------


def _vectors_to_subspace(doc, tol: float) -> Subspace:
    mat = schemas.decode_const_matrix(doc, exact=False)
    if not mat:
        raise ValidationError("empty spanning set needs an ambient dimension; give at least one vector")
    return Subspace.from_spanning(np.array(mat, dtype=complex).T, tol=tol)


def _cmd_gap_distance(args) -> int:
    doc = _load_json(args.input)
    tol = _tol(args, 1e-10)
    a = _vectors_to_subspace(doc["a"], tol)
    b = _vectors_to_subspace(doc["b"], tol)
    _emit({"distance": gap_distance(a, b), "dim_a": a.dim, "dim_b": b.dim})
    return 0


def _cmd_gap_kernel(args) -> int:
    doc = _load_json(args.input)
    mat = schemas.decode_const_matrix(doc, exact=False)
    sub = kernel_subspace(np.array(mat, dtype=complex), tol=_tol(args, 1e-10))
    basis = [[float_pair(z) for z in sub.basis[:, k]] for k in range(sub.dim)]
    _emit({"dim": sub.dim, "basis": basis})
    return 0


def _cmd_gap_report(args) -> int:
    family = schemas.decode_matrix_family(_load_json(args.input))
    point = [schemas.decode_scalar(v) for v in _parse_json_arg(args.point, "point")]
    paths = None
    if args.paths is not None:
        paths = [schemas.decode_path(p, family.d) for p in _load_json(args.paths)]
    report = jordanizability_report(
        family, point, paths=paths, tol=_tol(args, 1e-8),
        sep_tol=_positive(args.sep_tol, "--sep-tol"),
    )
    _emit(report.to_dict())
    return 0


# -- de ----------------------------------------------------------------------------


def _de_inputs(args, need_f0: bool):
    problem, f0 = schemas.decode_de_problem(_load_json(args.input), tol=_tol(args, 1e-10))
    if need_f0 and f0 is None:
        raise ValidationError("the problem document must carry an F0 initial value")
    return problem, f0


def _cmd_de_solve(args) -> int:
    problem, f0 = _de_inputs(args, need_f0=True)
    jet, feasible, report = de_solve_jet(problem, f0, args.order, tol=_tol(args, 1e-9))
    _emit({
        "feasible": feasible,
        "jet": schemas.encode_jet(jet),
        "residual": report.to_dict(),
    })
    return 0


def _cmd_de_oracle(args) -> int:
    problem, f0 = _de_inputs(args, need_f0=True)
    jet = de_oracle_solve(problem, f0, args.order)
    out = {"jet": schemas.encode_jet(jet)}
    if args.order >= 1:
        out["residual"] = de_residual(problem, jet, args.order - 1).to_dict()
    _emit(out)
    return 0


def _cmd_de_residual(args) -> int:
    problem, _ = _de_inputs(args, need_f0=False)
    jet = schemas.decode_jet(_load_json(args.jet))
    _emit(de_residual(problem, jet, args.order).to_dict())
    return 0


# -- gauge --------------------------------------------------------------------------


def _connection(args):
    return schemas.decode_framed_connection(_load_json(args.input), tol=_tol(args, 1e-10))


def _cmd_gauge_build(args) -> int:
    conn = _connection(args)
    _emit({
        "d": conn.d,
        "n": conn.n,
        "K": conn.ring.K,
        "coalescent_pairs": _pairs(conn.coalescent_pairs),
        "pnr_violations": _pairs(conn.pnr_violations),
        "B": schemas.encode_series_matrix(conn.B),
        "omega": [schemas.encode_series_matrix(w) for w in conn.omega],
    })
    return 0


def _cmd_gauge_simplify(args) -> int:
    conn = _connection(args)
    gs = formal_simplify(conn, args.order, mode=args.mode)
    _emit(schemas.encode_gauge_series(gs))
    return 0


def _cmd_gauge_residual(args) -> int:
    conn = _connection(args)
    gs = schemas.decode_gauge_series(_load_json(args.gauge))
    _emit(gauge_residual(conn, gs).to_dict())
    return 0


def _cmd_gauge_witness(args) -> int:
    delta0, bmat, varpi = schemas.decode_witness(_load_json(args.input))
    report = dv_witness(delta0, bmat, varpi, tol=_tol(args, 1e-10))
    out = report.to_dict()
    if report.L is not None:
        out["L"] = schemas.encode_series_matrix(report.L)
    _emit(out)
    return 0


def _cmd_gauge_holcon(args) -> int:
    conn = _connection(args)
    curves = [p.to_float() for p in schemas.decode_path(_load_json(args.path), conn.d)]

    def path(t):
        return tuple(c.eval([t]) for c in curves)

    report = holcon_check(conn, tuple(args.pair), path, tol=_tol(args, 1e-8))
    _emit(report.to_dict())
    return 0


# -- appendix -------------------------------------------------------------------------


def _cmd_appendix_pfaffian(args) -> int:
    doc = _load_json(args.input)
    a0 = schemas.decode_const_matrix(doc["A0"])
    b0 = schemas.decode_const_matrix(doc["B0"])
    kjet = schemas.decode_series_matrix(doc["Kjet"])
    report = appendix_mod.malgrange_pfaffian_residual(a0, b0, kjet, order=args.order)
    out = report.to_dict()
    out["A"] = schemas.encode_series_matrix(report.A)
    _emit(out)
    return 0


def _cmd_appendix_curve(args) -> int:
    if args.points < 1:
        raise ValidationError("need at least one grid point")
    if not math.isfinite(args.tmax):
        raise ValidationError(f"--tmax must be finite, got {args.tmax!r}")
    tgrid = [args.tmax * k / max(args.points - 1, 1) for k in range(args.points)]
    report = appendix_mod.nonversal_curve(
        _parse_complex(args.alpha0),
        _parse_complex(args.beta0),
        _parse_complex(args.gamma0),
        _parse_complex(args.c),
        tgrid=tgrid,
        tol=_tol(args, 1e-10),
    )
    _emit(report.to_dict())
    return 0


def _cmd_appendix_families(args) -> int:
    _emit([f.to_dict() for f in appendix_mod.rational_c_families(args.p, args.q)])
    return 0


def _cmd_appendix_classify2x2(args) -> int:
    doc = _load_json(args.input)
    exact = schemas.document_is_exact(doc)
    d = int(doc["d"])
    entries = [schemas.decode_poly(doc[name], d, exact) for name in ("g", "h", "l", "m")]
    result = appendix_mod.classify_2x2(*entries, tol=_tol(args, 1e-9))
    _emit(result.to_dict())
    return 0


# -- parser ----------------------------------------------------------------------------


def _add_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None, help="tolerance override (also STRATA_TOL)")


class _Parser(argparse.ArgumentParser):
    """A usage error is an invalid-input error, not a SystemExit; --help
    still prints and exits."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="strata", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="group", required=True)

    g = top.add_parser("partitions", help="double partitions and counting").add_subparsers(
        dest="cmd", required=True
    )
    p = g.add_parser("list", help="all symbols of weight n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_partitions_list)
    p = g.add_parser("count", help="count r-fold partitions of n")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("auto", "enumerate", "sigma", "product"), default="auto")
    p.set_defaults(func=_cmd_partitions_count)
    p = g.add_parser("conjugate", help="memberwise conjugate of a symbol")
    p.add_argument("--symbol", required=True, help='JSON, e.g. "[[2,1],[1]]"')
    p.set_defaults(func=_cmd_partitions_conjugate)

    g = top.add_parser("bundles", help="matrix-bundle strata").add_subparsers(
        dest="cmd", required=True
    )
    p = g.add_parser("describe", help="dimension data of a bundle")
    p.add_argument("--symbol", required=True)
    p.set_defaults(func=_cmd_bundles_describe)
    p = g.add_parser("moves", help="single elementary degenerations")
    p.add_argument("--symbol", required=True)
    p.set_defaults(func=_cmd_bundles_moves)
    p = g.add_parser("closure", help="closure order test a <= b")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_bundles_closure)
    p = g.add_parser("hasse", help="closure diagram for weight n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_bundles_hasse)
    p = g.add_parser("classify", help="Segre symbol of a constant matrix")
    p.add_argument("--input", required=True, help="JSON matrix file")
    _add_tol(p)
    p.set_defaults(func=_cmd_bundles_classify)

    g = top.add_parser("gap", help="gap metric on subspaces").add_subparsers(
        dest="cmd", required=True
    )
    p = g.add_parser("distance", help="gap distance between two spans")
    p.add_argument("--input", required=True, help='JSON {"a": [vectors], "b": [vectors]}')
    _add_tol(p)
    p.set_defaults(func=_cmd_gap_distance)
    p = g.add_parser("kernel", help="kernel subspace of a matrix")
    p.add_argument("--input", required=True, help="JSON matrix file")
    _add_tol(p)
    p.set_defaults(func=_cmd_gap_kernel)
    p = g.add_parser("report", help="holomorphic Jordanizability test")
    p.add_argument("--input", required=True, help="JSON matrix-family file")
    p.add_argument("--point", required=True, help="JSON list of coordinates")
    p.add_argument("--paths", default=None, help="JSON file with probe paths")
    p.add_argument("--sep-tol", type=float, default=1e-8)
    _add_tol(p)
    p.set_defaults(func=_cmd_gap_report)

    g = top.add_parser("de", help="flat-system jets").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("solve", help="order-by-order jet from F0")
    p.add_argument("--input", required=True, help="JSON problem file with F0")
    p.add_argument("--order", type=int, required=True)
    _add_tol(p)
    p.set_defaults(func=_cmd_de_solve)
    p = g.add_parser("oracle", help="degreewise linear-system solve")
    p.add_argument("--input", required=True, help="JSON problem file with F0")
    p.add_argument("--order", type=int, required=True)
    _add_tol(p)
    p.set_defaults(func=_cmd_de_oracle)
    p = g.add_parser("residual", help="equation residuals of a given jet")
    p.add_argument("--input", required=True, help="JSON problem file")
    p.add_argument("--jet", required=True, help="JSON jet file")
    p.add_argument("--order", type=int, required=True)
    _add_tol(p)
    p.set_defaults(func=_cmd_de_residual)

    g = top.add_parser("gauge", help="framed connections and formal gauges").add_subparsers(
        dest="cmd", required=True
    )
    p = g.add_parser("build", help="derived frame data of a connection")
    p.add_argument("--input", required=True, help="JSON framed-connection file")
    _add_tol(p)
    p.set_defaults(func=_cmd_gauge_build)
    p = g.add_parser("simplify", help="formal gauge ladder to a given order")
    p.add_argument("--input", required=True, help="JSON framed-connection file")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--mode", choices=("regular", "coalescent"), default="regular")
    _add_tol(p)
    p.set_defaults(func=_cmd_gauge_simplify)
    p = g.add_parser("residual", help="gauge residual of a computed ladder")
    p.add_argument("--input", required=True, help="JSON framed-connection file")
    p.add_argument("--gauge", required=True, help="JSON gauge-series file")
    _add_tol(p)
    p.set_defaults(func=_cmd_gauge_residual)
    p = g.add_parser("witness", help="solve the frame data for a single L")
    p.add_argument("--input", required=True, help="JSON witness file with Delta0, B, varpi")
    _add_tol(p)
    p.set_defaults(func=_cmd_gauge_witness)
    p = g.add_parser("holcon", help="boundedness ratios along a coalescence path")
    p.add_argument("--input", required=True, help="JSON framed-connection file")
    p.add_argument("--pair", type=int, nargs=2, required=True, metavar=("I", "J"))
    p.add_argument("--path", required=True, help="JSON path file")
    _add_tol(p)
    p.set_defaults(func=_cmd_gauge_holcon)

    g = top.add_parser("appendix", help="rank-2 model verifiers").add_subparsers(
        dest="cmd", required=True
    )
    p = g.add_parser("pfaffian", help="bracket residual of a deformation jet")
    p.add_argument("--input", required=True, help="JSON file with A0, B0, Kjet")
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=_cmd_appendix_pfaffian)
    p = g.add_parser("curve", help="exponential integral curve residuals")
    p.add_argument("--alpha0", required=True)
    p.add_argument("--beta0", required=True)
    p.add_argument("--gamma0", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--tmax", type=float, default=1.0)
    p.add_argument("--points", type=int, default=11)
    _add_tol(p)
    p.set_defaults(func=_cmd_appendix_curve)
    p = g.add_parser("families", help="monomial families for rational c = p/q")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_appendix_families)
    p = g.add_parser("classify2x2", help="normal-form classification of a 2x2 jet")
    p.add_argument("--input", required=True, help="JSON file with d, g, h, l, m")
    _add_tol(p)
    p.set_defaults(func=_cmd_appendix_classify2x2)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except StrataError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "detail": str(exc)}) + "\n")
        return 2
    except (KeyError, TypeError, IndexError) as exc:
        sys.stderr.write(json.dumps({"error": "invalid-input", "detail": repr(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
