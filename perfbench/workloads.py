"""The four benchmark workloads: seeded inputs, the ops that consume them and
the per-op correctness checks.

``build(name, seed, workdir)`` is the set-up phase: it decodes the generated
documents (and, for cli-mix, writes them to ``workdir`` through the
``strata.schemas`` encoders) and returns a pool of rounds.  A round is the
workload's fixed unit of work, a list of ops; the runner repeats rounds in
order until its time is up.

An op returns a dict of observables for the traced run (``series``: series
matrices whose coefficient height is read, ``float_residual``) and raises on
a failed check.  Library calls go through module attributes (``darboux.``,
``gauge.``) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen
from strata import cli, darboux, families, gauge, partitions, schemas, series
from strata.errors import StrataError
from strata.polynomials import Poly

# Float-mode residuals, oracle disagreement included, must stay within this
# share of the largest |coefficient| of the solved jet (at least 1).  The
# seed-state worst case on pipeline-float is about 1e-13.
FLOAT_REL_BOUND = 1e-9

# cli-mix failures that are known I/O-contract breaches (ROADMAP item 4): op
# name -> the start of the failure reason the breach gives.  They still count
# as failures; they only do not make the run incorrect.  Any other reason,
# from these ops too, is unexpected.
KNOWN_DEFECTS = {
    "bundles classify single-eigenvalue": "CheckFailed: stdout: Infinity is not strict JSON",
    "bundles describe bad-symbol": "ValueError: ",
    "bundles classify ragged": "ValueError: ",
    "bundles classify huge": "LinAlgError: ",
    "appendix curve huge-c": "OverflowError: ",
}


def known_defect(name: str, reason: str) -> bool:
    return name in KNOWN_DEFECTS and reason.startswith(KNOWN_DEFECTS[name])


class CheckFailed(Exception):
    """An op completed but its output is wrong."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    name: str
    run: Callable[[], dict]


@dataclass
class Workload:
    build: Callable[[int, Path], list]
    tail_pct: float   # percentile reported as op_tail_ms


# -- flat-system pipelines ------------------------------------------------------------


def same_jet(a, b) -> bool:
    n = a.F.shape[0]
    return all(a.F.entry(k, h).coeffs == b.F.entry(k, h).coeffs for k in range(n) for h in range(n))


def jet_distance(a, b) -> float:
    worst = 0.0
    for k in range(a.F.shape[0]):
        for h in range(a.F.shape[1]):
            ca, cb = a.F.entry(k, h).coeffs, b.F.entry(k, h).coeffs
            for e in set(ca) | set(cb):
                worst = max(worst, abs(complex(ca.get(e, 0)) - complex(cb.get(e, 0))))
    return worst


def pipeline_op(problem, F0, K: int, order: int) -> Op:
    """Solve, verify, build the framed connection, run the gauge ladder and
    verify it: the paper's main computation end to end."""
    def run():
        jet, feasible, _ = darboux.de_solve_jet(problem, F0, K)
        res = darboux.de_residual(problem, jet, K - 1)
        oracle = darboux.de_oracle_solve(problem, F0, K)
        conn = gauge.connection_from_de(problem, jet)
        gs = gauge.formal_simplify(conn, order, mode="coalescent")
        gres = gauge.gauge_residual(conn, gs)
        out = {"series": [jet.F] + list(gs.F)}
        if problem.exact:
            check(feasible, "solver reports F0 infeasible")
            check(res.exact_zero, "de_residual is not exactly zero")
            check(same_jet(jet, oracle), "solver and oracle jets differ")
            check(gres.is_zero_determined(), "determined gauge residual is not zero")
            return out
        worst = max(res.max_abs, gres.max_abs_determined())
        allowed = FLOAT_REL_BOUND * max(1.0, jet.F.max_abs())
        check(worst <= allowed, f"float residual {worst:.3e} above {allowed:.3e}")
        check(jet_distance(jet, oracle) <= allowed, "float solver and oracle jets differ")
        out["float_residual"] = worst
        return out
    return Op("pipeline", run)


def _pipelines(exact: bool, K: int, order: int, pool: int):
    def build(seed: int, workdir: Path) -> list:
        rng = random.Random(seed)
        rounds = []
        for _ in range(pool):
            problem, F0 = schemas.decode_de_problem(gen.coalescent_de(rng, exact))
            rounds.append([pipeline_op(problem, F0, K, order)])
        return rounds
    return build


# -- many small problems -----------------------------------------------------------------


def jets_op(kind: str, problem, F0, K: int) -> Op:
    def run():
        jet, feasible, rep = darboux.de_solve_jet(problem, F0, K)
        check(feasible and rep.exact_zero, "solver residual is not exactly zero")
        check(darboux.de_residual(problem, jet, K - 1).exact_zero, "de_residual is not exactly zero")
        check(same_jet(jet, darboux.de_oracle_solve(problem, F0, K)), "solver and oracle jets differ")
        if problem.n == 2:
            closed = darboux.de_closed_form_n2(problem, F0, K)
            check(same_jet(jet, closed), "n=2 closed form and solver differ")
        return {"series": [jet.F]}
    return Op(f"jets {kind} n={problem.n} d={problem.d} K={K}", run)


def regular_problem(rng: random.Random, n: int, d: int):
    """Criterion 5's rejection loop: redraw until the program accepts the
    problem and its base point is regular."""
    while True:
        try:
            problem, F0 = schemas.decode_de_problem(gen.regular_de(rng, n, d))
        except StrataError:
            continue
        if not problem.coalescent:
            return problem, F0


def _jets_batch(seed: int, workdir: Path, pool: int = 6) -> list:
    rng = random.Random(seed)
    rounds = []
    for _ in range(pool):
        ops = []
        for kind, n, d, K in gen.JETS_ROUND:
            if kind == "regular":
                problem, F0 = regular_problem(rng, n, d)
            elif kind == "coalescent":
                problem, F0 = schemas.decode_de_problem(gen.coalescent_de(rng))
            else:
                problem, F0 = schemas.decode_de_problem(gen.closed_form_de(rng))
            ops.append(jets_op(kind, problem, F0, K))
        rounds.append(ops)
    return rounds


# -- command-line mix ----------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(argv: list) -> tuple:
    """strata.cli.main in process; returns (status, stdout, stderr).  Any
    exception other than SystemExit propagates and fails the op."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            raise CheckFailed(f"SystemExit({exc.code}) raised out of cli.main") from None
    return code, out.getvalue(), err.getvalue()


def cli_op(name: str, argv: list, verify: Callable[[object], None] | None = None) -> Op:
    """A command that must succeed with strict-JSON stdout."""
    def run():
        code, out, err = run_cli(argv)
        check(code == 0, f"exit status {code}: {err.strip()[:160]}")
        try:
            doc = strict_json(out)
        except ValueError as exc:
            raise CheckFailed(f"stdout: {exc}") from None
        if verify is not None:
            verify(doc)
        return {}
    return Op(name, run)


def refused_op(name: str, argv: list) -> Op:
    """Malformed input: the contract is exit status 2, empty stdout and a
    one-line JSON error on stderr."""
    def run():
        code, out, err = run_cli(argv)
        check(code == 2, f"exit status {code}, expected 2")
        check(out == "", "stdout is not empty")
        lines = err.strip().splitlines()
        check(len(lines) == 1 and "error" in strict_json(lines[0]), "stderr is not one JSON error line")
        return {}
    return Op(name, run)


def _write(workdir: Path, name: str, doc) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc, allow_nan=False))
    return str(path)


def _var(d: int, a: int) -> Poly:
    return Poly.variable(d, a, exact=True)


def _const(d: int, v) -> Poly:
    return Poly.constant(d, v, exact=True)


def _symbol_arg(sym) -> str:
    return json.dumps(sym.to_lists())


def _de_documents(rng: random.Random):
    """An n=2, d=1 regular problem with its order-3 jet, framed connection
    and order-2 gauge; redrawn until every stage accepts it."""
    while True:
        problem, F0 = regular_problem(rng, 2, 1)
        try:
            jet, feasible, _ = darboux.de_solve_jet(problem, F0, 3)
            conn = gauge.connection_from_de(problem, jet)
            gs = gauge.formal_simplify(conn, 2, mode="regular")
        except StrataError:
            continue
        if feasible:
            return problem, F0, jet, conn, gs


def cli_round(rng: random.Random, workdir: Path, tag: str) -> list:
    """One pass over all six command groups, with every document written
    through the strata.schemas encoders."""
    def w(name, doc):
        return _write(workdir, f"{tag}-{name}.json", doc)

    def expect(pred, what):
        def verify(doc):
            check(pred(doc), what)
        return verify

    ops = []

    # partitions: the three counting methods must agree
    n = rng.randint(5, 7)
    m = rng.randint(8, 9)
    counts = {}

    def count_op(method):
        def verify(doc):
            counts[method] = doc
            if method == "product":
                # cleared so that a failed count is missing, not stale, next round
                seen = [counts.pop(k, None) for k in ("enumerate", "sigma", "product")]
                check(len(set(seen)) == 1, f"counting methods disagree: {seen}")
        return cli_op(f"partitions count {method}",
                      ["partitions", "count", "--r", "2", "--n", str(m), "--method", method], verify)

    ops.append(cli_op("partitions list", ["partitions", "list", "--n", str(n)],
                      expect(lambda doc: len(doc) == partitions.count_double_partitions_sigma(n),
                             "list length differs from the sigma count")))
    ops += [count_op(method) for method in ("enumerate", "sigma", "product")]
    symbols = partitions.enumerate_double_partitions(n)
    a, b = rng.sample(symbols, 2)
    ops.append(cli_op("partitions conjugate", ["partitions", "conjugate", "--symbol", _symbol_arg(a)]))

    # bundles
    ops.append(cli_op("bundles describe", ["bundles", "describe", "--symbol", _symbol_arg(a)],
                      expect(lambda doc: doc["n"] == n, "bundle size differs from the symbol weight")))
    ops.append(cli_op("bundles moves", ["bundles", "moves", "--symbol", _symbol_arg(b)]))
    ops.append(cli_op("bundles closure", ["bundles", "closure", "--a", _symbol_arg(a), "--b", _symbol_arg(b)]))
    ops.append(cli_op("bundles hasse", ["bundles", "hasse", "--n", "6"],
                      expect(lambda doc: len(doc["symbols"]) == partitions.count_double_partitions_sigma(6),
                             "Hasse vertex count differs from the sigma count")))
    for kind, mat in gen.classify_matrices(rng).items():
        size = len(mat)
        path = w(f"classify-{kind}", schemas.encode_const_matrix(mat))
        ops.append(cli_op(f"bundles classify {kind}", ["bundles", "classify", "--input", path],
                          expect(lambda doc, size=size: sum(map(sum, doc["symbol"])) == size,
                                 "symbol weight differs from the matrix size")))

    # gap
    vec = lambda: [rng.randint(-3, 3) for _ in range(4)]  # noqa: E731
    pair = {"a": schemas.encode_const_matrix([vec(), vec()]), "b": schemas.encode_const_matrix([vec()])}
    ops.append(cli_op("gap distance", ["gap", "distance", "--input", w("pair", pair)],
                      expect(lambda doc: 0.0 <= doc["distance"] <= 1.0 + 1e-12, "gap outside [0, 1]")))
    r1, r2 = vec(), vec()
    kernel_mat = [r1, r2, [x + y for x, y in zip(r1, r2)]]
    ops.append(cli_op("gap kernel", ["gap", "kernel", "--input", w("kernel", schemas.encode_const_matrix(kernel_mat))]))
    shift, sep = gen.rq(rng), gen.rq(rng, nonzero=True)
    x = _var(1, 0)
    zero = Poly(1, None, True)
    fam = families.MatrixFamily(1, 2, [[x + _const(1, shift), zero], [zero, x + _const(1, shift + sep)]],
                                [(x + _const(1, shift), 1), (x + _const(1, shift + sep), 1)])
    ops.append(cli_op("gap report", ["gap", "report", "--input", w("family", schemas.encode_matrix_family(fam)),
                                     "--point", json.dumps([str(gen.rq(rng))])],
                      expect(lambda doc: doc["verdict"] is True, "single-bundle family not Jordanizable")))

    # de and gauge, on one small regular problem
    problem, F0, jet, conn, gs = _de_documents(rng)
    prob = w("problem", schemas.encode_de_problem(problem, F0))
    jetfile = w("jet", schemas.encode_jet(jet))
    connfile = w("conn", schemas.encode_framed_connection(conn))
    gsfile = w("gauge", schemas.encode_gauge_series(gs))
    solved = {}

    def keep_jet(doc):
        check(doc["feasible"] and doc["residual"]["exact_zero"], "solve residual is not exactly zero")
        solved["jet"] = doc["jet"]

    ops.append(cli_op("de solve", ["de", "solve", "--input", prob, "--order", "2"], keep_jet))
    ops.append(cli_op("de oracle", ["de", "oracle", "--input", prob, "--order", "2"],
                      expect(lambda doc: doc["jet"] == solved.pop("jet", None), "oracle and solver jets differ")))
    ops.append(cli_op("de residual", ["de", "residual", "--input", prob, "--jet", jetfile, "--order", "2"],
                      expect(lambda doc: doc["exact_zero"], "residual of the solved jet is not zero")))
    ops.append(cli_op("gauge build", ["gauge", "build", "--input", connfile]))
    ops.append(cli_op("gauge simplify", ["gauge", "simplify", "--input", connfile, "--order", "2"]))
    ops.append(cli_op("gauge residual", ["gauge", "residual", "--input", connfile, "--gauge", gsfile],
                      expect(lambda doc: doc["determined_exact_zero"], "determined gauge residual is not zero")))

    ring = series.SeriesRing(2, rng.choice((3, 4)), ["0", "1"], exact=True)
    terms = lambda s: schemas.encode_series(s)["terms"]  # noqa: E731
    zs = terms(ring.zero())
    witness = {
        "d": 2, "n": 2, "center": [["0", "0"], ["1", "0"]], "K": ring.K,
        "Delta0": [schemas.encode_poly(_var(2, 0)), schemas.encode_poly(_var(2, 1))],
        "B": [[zs, terms(ring.var(1) - ring.var(0))], [zs, zs]],
        "varpi": [[[zs, terms(ring.one())], [zs, zs]], [[zs, terms(ring.const(-1))], [zs, zs]]],
    }
    ops.append(cli_op("gauge witness", ["gauge", "witness", "--input", w("witness", witness)],
                      expect(lambda doc: doc["ok"] is True, "witness not found")))
    ring0 = series.SeriesRing(2, 2, ["0", "0"], exact=True)
    delta = ring0.matrix([[ring0.var(0), ring0.zero()], [ring0.zero(), ring0.var(1)]])
    flat = ring0.matrix([[ring0.zero(), ring0.one()], [ring0.one(), ring0.zero()]])
    coal = gauge.build_connection(delta, ["0", "0"], flat)
    s = _const(1, Fraction(1, rng.randint(2, 5)))
    t = _var(1, 0)
    ops.append(cli_op("gauge holcon", ["gauge", "holcon", "--input", w("coal", schemas.encode_framed_connection(coal)),
                                       "--pair", "0", "1", "--path", w("path", schemas.encode_path([t * s, -(t * s)]))],
                      expect(lambda doc: doc["bounded"] is False, "constant-L frame reported bounded")))

    # appendix
    ring1 = series.SeriesRing(1, 3, ["0"], exact=True)
    p, q = rng.randint(1, 4), rng.randint(1, 4)
    kjet = ring1.matrix([[ring1.var(0).scale(p), ring1.zero()], [ring1.zero(), ring1.var(0).scale(q)]])
    pf = {
        "A0": schemas.encode_const_matrix([[rng.randint(1, 3), 0], [0, rng.randint(4, 6)]]),
        "B0": schemas.encode_const_matrix([[rng.randint(1, 3), 0], [0, rng.randint(4, 6)]]),
        "Kjet": schemas.encode_series_matrix(kjet),
    }
    ops.append(cli_op("appendix pfaffian", ["appendix", "pfaffian", "--input", w("pfaffian", pf)],
                      expect(lambda doc: doc["is_zero"] is True, "commuting jet has a bracket residual")))
    ops.append(cli_op("appendix curve", ["appendix", "curve", "--alpha0", str(rng.randint(1, 3)),
                                         "--beta0", str(rng.randint(1, 3)), "--gamma0", str(rng.randint(1, 3)),
                                         "--c", str(rng.randint(2, 4))],
                      expect(lambda doc: doc["ok"] is True, "exponential curve does not solve the system")))
    fp, fq = rng.choice([(1, 2), (-2, 1), (2, 1), (1, 3), (-3, 5), (2, 3)])
    ops.append(cli_op("appendix families", ["appendix", "families", "--p", str(fp), "--q", str(fq)],
                      expect(lambda doc: all(f["solves"] for f in doc), "a monomial family does not solve")))
    kappa = Fraction(rng.randint(1, 5), rng.randint(1, 4))
    x2 = _var(2, 0)
    c2 = {"d": 2, "g": schemas.encode_poly(x2), "h": [],
          "l": schemas.encode_poly((-x2 - x2) * (-x2 - x2) * kappa), "m": schemas.encode_poly(-x2)}
    ops.append(cli_op("appendix classify2x2", ["appendix", "classify2x2", "--input", w("classify2x2", c2)],
                      expect(lambda doc: doc["type"] == "I" and doc["kappa"] == [str(kappa), "0"],
                             "type-I jet misclassified")))

    # malformed inputs of ROADMAP item 4: the contract is a clean refusal
    ops.append(refused_op("bundles describe bad-symbol", ["bundles", "describe", "--symbol", '"x"']))
    ops.append(refused_op("bundles classify ragged",
                          ["bundles", "classify", "--input", w("ragged", schemas.encode_const_matrix([[1, 2], [3]]))]))
    huge = schemas.encode_const_matrix([[1e308, 1e308], [1e308, 1e308]])
    ops.append(refused_op("bundles classify huge", ["bundles", "classify", "--input", w("huge", huge)]))
    ops.append(refused_op("appendix curve huge-c", ["appendix", "curve", "--alpha0", "1", "--beta0", "1",
                                                    "--gamma0", "1", "--c", "1e308", "--tmax", "1e3"]))
    return ops


def _cli_mix(seed: int, workdir: Path, pool: int = 4) -> list:
    rng = random.Random(seed)
    return [cli_round(rng, workdir, f"r{i}") for i in range(pool)]


WORKLOADS = {
    # d=3, n=3 coalescent, K=5, gauge order 4, exact
    "pipeline-exact": Workload(_pipelines(exact=True, K=5, order=4, pool=8), tail_pct=75.0),
    # the same pipeline on float input, K=8, gauge order 6
    "pipeline-float": Workload(_pipelines(exact=False, K=8, order=6, pool=8), tail_pct=75.0),
    "jets-batch": Workload(_jets_batch, tail_pct=80.0),
    "cli-mix": Workload(_cli_mix, tail_pct=90.0),
}
