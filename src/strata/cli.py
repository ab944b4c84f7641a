"""Command-line front end.

One subcommand per library operation, grouped by module:

    strata partitions {list,count,conjugate}
    strata bundles    {describe,moves,closure,hasse,classify}
    strata gap        {distance,kernel,report}
    strata de         {residual,solve,oracle}
    strata gauge      {build,residual,simplify,witness,holcon}
    strata appendix   {pfaffian,curve,families,classify2x2}

``COMMANDS`` declares every group, command and flag once.  A handler only
computes: it returns a JSON-able result, or text, and ``main`` alone writes
stdout.

Inputs are JSON documents in the shapes described in ``schemas``; outputs are
JSON on stdout (DOT text for ``bundles hasse --format dot``).  Exit status is
0 on success and 2 on any validation or usage failure, with a one-line
``{"error": code, "detail": text}`` object on stderr, which holds nothing
else: ``main`` keeps Python warnings off it.  The STRATA_TOL
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
import warnings

import numpy as np

from . import appendix as appendix_mod
from . import bundles, darboux, families, gauge, schemas, subspaces
from .bundles import (
    classify_matrix_detailed,
    closure_leq,
    describe,
    elementary_moves,
    hasse_diagram,
)
from .darboux import de_oracle_solve, de_residual, de_solve_jet
from .errors import StrataError, ValidationError
from .families import DEFAULT_SEP_TOL, jordanizability_report
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


def _cmd_partitions_list(args):
    symbols = enumerate_double_partitions(_weight(args.n, "--n"))
    if args.format == "text":
        return "".join(mu_string(s) + "\n" for s in symbols)
    return [s.to_lists() for s in symbols]


def _cmd_partitions_count(args):
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
    return f"{value}\n"


def _cmd_partitions_conjugate(args):
    return conjugate_symbol(_parse_symbol(args.symbol)).to_lists()


# -- bundles ----------------------------------------------------------------------


def _cmd_bundles_describe(args):
    d = describe(_parse_symbol(args.symbol))
    return {
        "symbol": d.symbol.to_lists(),
        "label": d.label,
        "n": d.n,
        "codim": d.codim,
        "dim": d.dim,
        "is_regular": d.is_regular,
        "is_diagonalizable": d.is_diagonalizable,
    }


def _cmd_bundles_moves(args):
    moves = elementary_moves(_parse_symbol(args.symbol))
    return [{"kind": kind, "symbol": t.to_lists()} for kind, t in moves]


def _cmd_bundles_closure(args):
    a = _parse_symbol(args.a)
    b = _parse_symbol(args.b)
    _weight(max(a.weight, b.weight), "the symbol weight")
    return {"leq": closure_leq(a, b)}


def _cmd_bundles_hasse(args):
    h = hasse_diagram(_weight(args.n, "--n"))
    if args.format == "dot":
        return h.to_dot() + "\n"
    return {
        "n": h.n,
        "symbols": [s.to_lists() for s in h.symbols],
        "labels": [mu_string(s) for s in h.symbols],
        "dims": h.dims(),
        "edges": _pairs(h.edges),
    }


def _cmd_bundles_classify(args):
    doc = _load_json(args.input)
    mat = schemas.decode_const_matrix(doc, exact=False)
    result = classify_matrix_detailed(np.array(mat, dtype=complex), tol=_tol(args, bundles._CLASSIFY_TOL))
    return {
        "symbol": result.symbol.to_lists(),
        "label": mu_string(result.symbol),
        "eigenvalues": [float_pair(z) for z in result.eigenvalues],
        "ill_conditioned": result.ill_conditioned,
        "cluster_gap": result.cluster_gap,
    }


# -- gap ---------------------------------------------------------------------------


def _vectors_to_subspace(doc, tol: float) -> Subspace:
    mat = schemas.decode_const_matrix(doc, exact=False)
    if not mat:
        raise ValidationError("empty spanning set needs an ambient dimension; give at least one vector")
    return Subspace.from_spanning(np.array(mat, dtype=complex).T, tol=tol)


def _cmd_gap_distance(args):
    doc = _load_json(args.input)
    tol = _tol(args, subspaces._SV_TOL)
    a = _vectors_to_subspace(doc["a"], tol)
    b = _vectors_to_subspace(doc["b"], tol)
    return {"distance": gap_distance(a, b), "dim_a": a.dim, "dim_b": b.dim}


def _cmd_gap_kernel(args):
    doc = _load_json(args.input)
    mat = schemas.decode_const_matrix(doc, exact=False)
    sub = kernel_subspace(np.array(mat, dtype=complex), tol=_tol(args, subspaces._SV_TOL))
    basis = [[float_pair(z) for z in sub.basis[:, k]] for k in range(sub.dim)]
    return {"dim": sub.dim, "basis": basis}


def _cmd_gap_report(args):
    family = schemas.decode_matrix_family(_load_json(args.input))
    point = [schemas.decode_scalar(v) for v in _parse_json_arg(args.point, "point")]
    paths = None
    if args.paths is not None:
        paths = [schemas.decode_path(p, family.d) for p in _load_json(args.paths)]
    report = jordanizability_report(
        family, point, paths=paths, tol=_tol(args, families._GAP_TOL),
        sep_tol=_positive(args.sep_tol, "--sep-tol"),
    )
    return report.to_dict()


# -- de ----------------------------------------------------------------------------


def _de_inputs(args, need_f0: bool):
    problem, f0 = schemas.decode_de_problem(_load_json(args.input),
                                            tol=_tol(args, darboux._COALESCE_TOL))
    if need_f0 and f0 is None:
        raise ValidationError("the problem document must carry an F0 initial value")
    return problem, f0


def _cmd_de_solve(args):
    problem, f0 = _de_inputs(args, need_f0=True)
    jet, feasible, report = de_solve_jet(problem, f0, args.order,
                                         tol=_tol(args, darboux._FEASIBLE_TOL))
    return {
        "feasible": feasible,
        "jet": schemas.encode_jet(jet),
        "residual": report.to_dict(),
    }


def _cmd_de_oracle(args):
    problem, f0 = _de_inputs(args, need_f0=True)
    jet = de_oracle_solve(problem, f0, args.order)
    out = {"jet": schemas.encode_jet(jet)}
    if args.order >= 1:
        out["residual"] = de_residual(problem, jet, args.order - 1).to_dict()
    return out


def _cmd_de_residual(args):
    problem, _ = _de_inputs(args, need_f0=False)
    jet = schemas.decode_jet(_load_json(args.jet))
    return de_residual(problem, jet, args.order).to_dict()


# -- gauge --------------------------------------------------------------------------


def _connection(args):
    return schemas.decode_framed_connection(_load_json(args.input),
                                            tol=_tol(args, darboux._COALESCE_TOL))


def _cmd_gauge_build(args):
    conn = _connection(args)
    return {
        "d": conn.d,
        "n": conn.n,
        "K": conn.ring.K,
        "coalescent_pairs": _pairs(conn.coalescent_pairs),
        "pnr_violations": _pairs(conn.pnr_violations),
        "B": schemas.encode_series_matrix(conn.B),
        "omega": [schemas.encode_series_matrix(w) for w in conn.omega],
    }


def _cmd_gauge_simplify(args):
    conn = _connection(args)
    gs = formal_simplify(conn, args.order, mode=args.mode)
    return schemas.encode_gauge_series(gs)


def _cmd_gauge_residual(args):
    conn = _connection(args)
    gs = schemas.decode_gauge_series(_load_json(args.gauge))
    return gauge_residual(conn, gs).to_dict()


def _cmd_gauge_witness(args):
    delta0, bmat, varpi = schemas.decode_witness(_load_json(args.input))
    report = dv_witness(delta0, bmat, varpi, tol=_tol(args, darboux._COALESCE_TOL))
    out = report.to_dict()
    if report.L is not None:
        out["L"] = schemas.encode_series_matrix(report.L)
    return out


def _cmd_gauge_holcon(args):
    conn = _connection(args)
    curves = [p.to_float() for p in schemas.decode_path(_load_json(args.path), conn.d)]

    def path(t):
        return tuple(c.eval([t]) for c in curves)

    report = holcon_check(conn, tuple(args.pair), path, tol=_tol(args, gauge._HOLCON_TOL))
    return report.to_dict()


# -- appendix -------------------------------------------------------------------------


def _cmd_appendix_pfaffian(args):
    doc = _load_json(args.input)
    a0 = schemas.decode_const_matrix(doc["A0"])
    b0 = schemas.decode_const_matrix(doc["B0"])
    kjet = schemas.decode_series_matrix(doc["Kjet"])
    report = appendix_mod.malgrange_pfaffian_residual(a0, b0, kjet, order=args.order)
    out = report.to_dict()
    out["A"] = schemas.encode_series_matrix(report.A)
    return out


def _cmd_appendix_curve(args):
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
        tol=_tol(args, appendix_mod._CURVE_TOL),
    )
    return report.to_dict()


def _cmd_appendix_families(args):
    return [f.to_dict() for f in appendix_mod.rational_c_families(args.p, args.q)]


def _cmd_appendix_classify2x2(args):
    entries = schemas.decode_2x2_model(_load_json(args.input))
    result = appendix_mod.classify_2x2(*entries, tol=_tol(args, appendix_mod._FIT_TOL))
    return result.to_dict()


# -- command table ---------------------------------------------------------------------

_TOL = ("--tol", dict(type=float, default=None, help="tolerance override (also STRATA_TOL)"))
_ORDER = ("--order", dict(type=int, required=True))
_CONN = ("--input", dict(required=True, help="JSON framed-connection file"))
_F0_PROBLEM = ("--input", dict(required=True, help="JSON problem file with F0"))

# group -> (help, commands); each command is (name, handler, help, flags), and each
# flag is (flag, add_argument keywords), added in the order listed
COMMANDS = {
    "partitions": ("double partitions and counting", [
        ("list", _cmd_partitions_list, "all symbols of weight n", [
            ("--n", dict(type=int, required=True)),
            ("--format", dict(choices=("json", "text"), default="json")),
        ]),
        ("count", _cmd_partitions_count, "count r-fold partitions of n", [
            ("--r", dict(type=int, required=True)), ("--n", dict(type=int, required=True)),
            ("--method", dict(choices=("auto", "enumerate", "sigma", "product"), default="auto")),
        ]),
        ("conjugate", _cmd_partitions_conjugate, "memberwise conjugate of a symbol", [
            ("--symbol", dict(required=True, help='JSON, e.g. "[[2,1],[1]]"')),
        ]),
    ]),
    "bundles": ("matrix-bundle strata", [
        ("describe", _cmd_bundles_describe, "dimension data of a bundle", [
            ("--symbol", dict(required=True)),
        ]),
        ("moves", _cmd_bundles_moves, "single elementary degenerations", [
            ("--symbol", dict(required=True)),
        ]),
        ("closure", _cmd_bundles_closure, "closure order test a <= b", [
            ("--a", dict(required=True)), ("--b", dict(required=True)),
        ]),
        ("hasse", _cmd_bundles_hasse, "closure diagram for weight n", [
            ("--n", dict(type=int, required=True)),
            ("--format", dict(choices=("json", "dot"), default="json")),
        ]),
        ("classify", _cmd_bundles_classify, "Segre symbol of a constant matrix", [
            ("--input", dict(required=True, help="JSON matrix file")), _TOL,
        ]),
    ]),
    "gap": ("gap metric on subspaces", [
        ("distance", _cmd_gap_distance, "gap distance between two spans", [
            ("--input", dict(required=True, help='JSON {"a": [vectors], "b": [vectors]}')), _TOL,
        ]),
        ("kernel", _cmd_gap_kernel, "kernel subspace of a matrix", [
            ("--input", dict(required=True, help="JSON matrix file")), _TOL,
        ]),
        ("report", _cmd_gap_report, "holomorphic Jordanizability test", [
            ("--input", dict(required=True, help="JSON matrix-family file")),
            ("--point", dict(required=True, help="JSON list of coordinates")),
            ("--paths", dict(default=None, help="JSON file with probe paths")),
            ("--sep-tol", dict(type=float, default=DEFAULT_SEP_TOL)), _TOL,
        ]),
    ]),
    "de": ("flat-system jets", [
        ("solve", _cmd_de_solve, "order-by-order jet from F0", [_F0_PROBLEM, _ORDER, _TOL]),
        ("oracle", _cmd_de_oracle, "degreewise linear-system solve", [_F0_PROBLEM, _ORDER, _TOL]),
        ("residual", _cmd_de_residual, "equation residuals of a given jet", [
            ("--input", dict(required=True, help="JSON problem file")),
            ("--jet", dict(required=True, help="JSON jet file")), _ORDER, _TOL,
        ]),
    ]),
    "gauge": ("framed connections and formal gauges", [
        ("build", _cmd_gauge_build, "derived frame data of a connection", [_CONN, _TOL]),
        ("simplify", _cmd_gauge_simplify, "formal gauge ladder to a given order", [
            _CONN, _ORDER, ("--mode", dict(choices=("regular", "coalescent"), default="regular")),
            _TOL,
        ]),
        ("residual", _cmd_gauge_residual, "gauge residual of a computed ladder", [
            _CONN, ("--gauge", dict(required=True, help="JSON gauge-series file")), _TOL,
        ]),
        ("witness", _cmd_gauge_witness, "solve the frame data for a single L", [
            ("--input", dict(required=True, help="JSON witness file with Delta0, B, varpi")), _TOL,
        ]),
        ("holcon", _cmd_gauge_holcon, "boundedness ratios along a coalescence path", [
            _CONN, ("--pair", dict(type=int, nargs=2, required=True, metavar=("I", "J"))),
            ("--path", dict(required=True, help="JSON path file")), _TOL,
        ]),
    ]),
    "appendix": ("rank-2 model verifiers", [
        ("pfaffian", _cmd_appendix_pfaffian, "bracket residual of a deformation jet", [
            ("--input", dict(required=True, help="JSON file with A0, B0, Kjet")),
            ("--order", dict(type=int, default=None)),
        ]),
        ("curve", _cmd_appendix_curve, "exponential integral curve residuals", [
            ("--alpha0", dict(required=True)), ("--beta0", dict(required=True)),
            ("--gamma0", dict(required=True)), ("--c", dict(required=True)),
            ("--tmax", dict(type=float, default=1.0)), ("--points", dict(type=int, default=11)),
            _TOL,
        ]),
        ("families", _cmd_appendix_families, "monomial families for rational c = p/q", [
            ("--p", dict(type=int, required=True)), ("--q", dict(type=int, required=True)),
        ]),
        ("classify2x2", _cmd_appendix_classify2x2, "normal-form classification of a 2x2 jet", [
            ("--input", dict(required=True, help="JSON file with d, g, h, l, m")), _TOL,
        ]),
    ]),
}


# -- parser and entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error is an invalid-input error, not a SystemExit; --help
    still prints and exits."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="strata", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, commands) in COMMANDS.items():
        sub = top.add_parser(group, help=group_help).add_subparsers(dest="cmd", required=True)
        for name, func, cmd_help, flags in commands:
            p = sub.add_parser(name, help=cmd_help)
            for flag, kwargs in flags:
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=func)
    return parser


# parsing keeps no state in the parser, so one tree serves every call of main
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        with warnings.catch_warnings():
            # stderr holds the one error line or nothing
            warnings.simplefilter("ignore")
            result = args.func(args)
        if isinstance(result, str):
            sys.stdout.write(result)
        else:
            _emit(result)
        return 0
    except StrataError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "detail": str(exc)}) + "\n")
        return 2
    except (KeyError, TypeError, IndexError) as exc:
        sys.stderr.write(json.dumps({"error": "invalid-input", "detail": repr(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
