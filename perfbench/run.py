"""Benchmark runner for strata: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload pipeline-exact --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--workload all`` runs every
workload in turn, each in its own process.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported, so numpy does not contend
# with the client for the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ["pipeline-exact", "pipeline-float", "jets-batch", "cli-mix"]
# Set-up is measured this many times per run: once in this process and the
# rest in fresh interpreters, each importing strata cold.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120
# During the timed phase a wall-clock timer runs the reference loop every
# PROBE_EVERY_S; NOMINAL_REFERENCE_S is the loop's CPU time at the nominal
# machine speed (see README.md, "End-to-end metrics").
PROBE_EVERY_S = 0.25
NOMINAL_REFERENCE_S = 0.025
# A timed phase whose wall-clock length exceeds its CPU time by more than
# this factor gets a warning: work done outside the measured process, or
# time spent waiting, is not in the metrics.
WALL_CPU_WARN = 1.5


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def coeff_bits(matrices) -> int:
    """Largest numerator or denominator bit length among exact coefficients."""
    best = 0
    for m in matrices:
        rows, cols = m.shape
        for i in range(rows):
            for j in range(cols):
                for c in m.entry(i, j).coeffs.values():
                    for part in (getattr(c, "re", None), getattr(c, "im", None)):
                        if part is not None:
                            best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


def reference_seconds() -> float:
    """CPU time of a fixed loop in benchmark code that does the same kinds
    of work as the series kernels: exact Fraction and complex float products
    summed into dicts.  No change to strata can move it, so it measures the
    machine's current speed."""
    t0 = time.process_time()
    exact: dict = {}
    floats: dict = {}
    for i in range(1, 110):
        for j in range(1, 12):
            key = (i * j) % 47
            exact[key] = exact.get(key, Fraction(0)) + Fraction(i, j + 1) * Fraction(j, i % 7 + 1)
    for i in range(1, 1400):
        for j in range(1, 12):
            key = (i, j % 5)
            floats[key] = floats.get(key, 0j) + complex(i, j) * complex(j, -i) / (i + j)
    return time.process_time() - t0


class SpeedProbe:
    """Samples the machine's speed while ops run.

    A SIGALRM handler times the reference loop every PROBE_EVERY_S of wall
    time, so the samples spread over the ops however long each op is.  The
    timer is a wall-clock one: an armed CPU-time timer (ITIMER_PROF) makes
    Linux advance the process CPU clock only at scheduler ticks.  The CPU
    time the probe takes is kept in ``spent`` and left out of every op and
    round time.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            took = reference_seconds()
            self.samples.append(took)
            self.spent += took
        finally:
            self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


# -- set-up -----------------------------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path):
    """Import strata, generate and decode the inputs; returns (rounds, CPU seconds)."""
    t0 = spans.cpu_clock()
    sys.path.insert(0, str(SRC))
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    rounds = workloads.WORKLOADS[workload].build(seed, workdir)
    return rounds, spans.cpu_clock() - t0


def has_child_processes() -> bool:
    """True if this process has a child, running or exited but not waited
    for: its CPU time is not in ``spans.cpu_clock``."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def child_setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-only", str(workdir)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# -- the closed loop ----------------------------------------------------------------------


class Tally:
    """Per-op latencies and per-round times (CPU seconds of this process and
    its waited-for children), failures and observables of one timed phase."""

    def __init__(self):
        self.latencies: list = []
        self.round_seconds: list = []
        self.failures: Counter = Counter()
        self.observed: list = []
        self.wall_seconds = 0.0
        self.reference: list = []
        self.probe_seconds = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_round(ops, tally: Tally, keep: bool, probe: SpeedProbe | None = None) -> None:
    def clock():
        return spans.cpu_clock() - (probe.spent if probe else 0.0)

    start = clock()
    for op in ops:
        t0 = clock()
        try:
            out = op.run()
        except Exception as exc:  # a failed op is counted, never fatal
            out = None
            tally.failures[(op.name, f"{type(exc).__name__}: {str(exc)[:160]}")] += 1
        tally.latencies.append(clock() - t0)
        if keep and out:
            tally.observed.append(out)
    tally.round_seconds.append(clock() - start)


def run_for(pool, seconds: float) -> Tally:
    """Repeat the pool's rounds in order until `seconds` have elapsed."""
    tally = Tally()
    start = time.perf_counter()
    i = 0
    with SpeedProbe() as probe:
        while i == 0 or time.perf_counter() - start < seconds:
            run_round(pool[i % len(pool)], tally, keep=False, probe=probe)
            i += 1
    tally.wall_seconds = time.perf_counter() - start
    tally.reference = probe.samples or [reference_seconds()]
    tally.probe_seconds = probe.spent
    return tally


def run_paired(pool, seconds: float):
    """Each round untraced, then again traced, until `seconds` have elapsed.

    Pairing runs both passes on the same inputs close together in time, so
    their difference is the tracing overhead and not machine drift.
    """
    untraced, traced, rec = Tally(), Tally(), spans.Recorder()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        ops = pool[i % len(pool)]
        run_round(ops, untraced, keep=False)
        rec.install()
        try:
            run_round(ops, traced, keep=True)
        finally:
            rec.restore()
        i += 1
    return untraced, traced, rec


# -- reporting ------------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def speed_scale(tally: Tally) -> float:
    """Factor that converts this run's CPU times to the nominal machine speed.

    The mean, not the median, of the samples: an op's CPU time sums its work
    over the stretches of fast and slow machine it ran through, and the mean
    sample time weighs those stretches the same way."""
    return NOMINAL_REFERENCE_S / statistics.mean(tally.reference)


def end_to_end(tally: Tally, setup_s: float, tail_pct: float) -> dict:
    """Medians over ops and over rounds, so that a stretch of the run in
    which the machine ran slow moves them less than it would move means."""
    scale = speed_scale(tally)
    ms = [x * 1000.0 * scale for x in tally.latencies]
    round_s = statistics.median(tally.round_seconds) * scale
    return {
        "setup_s": metric(setup_s * scale, "s"),
        "round_cpu_s": metric(round_s, "s"),
        "ops_per_s": metric(tally.attempted / len(tally.round_seconds) / round_s, "1/s"),
        "op_p50_ms": metric(statistics.median(ms), "ms"),
        "op_tail_ms": metric(percentile(ms, tail_pct), "ms"),
        "success_rate": metric((tally.attempted - tally.failed) / tally.attempted, "fraction"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(untraced: Tally, traced: Tally, rec, ops: int) -> dict:
    selfs = spans.self_times(rec.spans)
    calls = rec.span_counts()
    cpu = sum(traced.latencies)
    out = {}
    for name in ("scalars.mul", "scalars.add", "scalars.div"):
        out[f"{name}_calls"] = metric(rec.counts.get(name, 0) / ops, "count")
    for name in ("series.mul", "series.matmul", "polynomials.mul"):
        out[f"{name}_calls"] = metric(calls.get(name, 0) / ops, "count")
    for name in ("series.mul", "series.matmul", "series.invert", "series.diff", "polynomials.mul",
                 "darboux.solve", "darboux.residual", "darboux.oracle", "darboux.closed_form",
                 "gauge.connection", "gauge.simplify", "gauge.residual", "gauge.holcon", "gauge.witness",
                 "schemas.decode", "schemas.encode", "cli.main",
                 "partitions", "bundles", "subspaces", "families", "appendix"):
        # a whole-module layer's span is named after the module: "partitions.self_s"
        out[f"{name}_self_s" if "." in name else f"{name}.self_s"] = metric(selfs.get(name, 0.0) / ops, "s")
    out["series.max_coeff_bits"] = metric(
        coeff_bits(m for o in traced.observed for m in o.get("series", [])), "bits")
    out["gauge.float_residual_max"] = metric(
        max((o.get("float_residual", 0.0) for o in traced.observed), default=0.0), "abs")
    out["trace.cpu_s"] = metric(cpu / ops, "s")
    out["trace.remainder_s"] = metric((cpu - sum(selfs.values())) / ops, "s")
    out["trace.overhead_s"] = metric((cpu - sum(untraced.latencies)) / ops, "s")
    out["trace.spans"] = metric(len(rec.spans) / ops, "count")
    return out


# -- entry points -------------------------------------------------------------------------------


def run_workload(args) -> int:
    if not (SRC / "strata" / "__init__.py").is_file():
        print(f"perfbench: no strata sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work"
    workdir = work / f"{args.workload}-{os.getpid()}"
    try:
        samples = [child_setup_seconds(args.workload, args.seed, workdir.with_name(workdir.name + f"-s{k}"))
                   for k in range(SETUP_SAMPLES - 1)]
        pool, own = setup(args.workload, args.seed, workdir)
        samples.append(own)
        import workloads

        spec = workloads.WORKLOADS[args.workload]
        if args.trace:
            untraced, traced, rec = run_paired(pool, args.seconds / 2)
            rec.write(work / f"spans-{args.workload}-seed{args.seed}.jsonl")
            tallies = [untraced, traced]
            metrics = per_layer(untraced, traced, rec, traced.attempted)
        else:
            tally = run_for(pool, args.seconds)
            tallies = [tally]
            metrics = end_to_end(tally, statistics.median(samples), spec.tail_pct)
    finally:
        for path in work.glob(f"{args.workload}-{os.getpid()}*"):
            shutil.rmtree(path, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failures = sum((t.failures for t in tallies), Counter())
    failed = sum(failures.values())
    stray_children = has_child_processes()
    correct = not stray_children and all(workloads.known_defect(*key) for key in failures)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, {failed} failed, "
          f"{len(tallies[-1].round_seconds)} rounds")
    for (name, reason), count in sorted(failures.items()):
        tag = "known defect" if workloads.known_defect(name, reason) else "UNEXPECTED"
        print(f"failure [{tag}] {name} x{count}: {reason}")
    if stray_children:
        print("UNEXPECTED child processes outlived the timed phase; their CPU time is not measured")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        tally, scale = tallies[0], speed_scale(tallies[0])
        beyond = sum(1 for x in tally.latencies if x * 1000.0 * scale > metrics["op_tail_ms"]["value"])
        print(f"  op_tail_ms is p{spec.tail_pct:g} of {tally.attempted} ops ({beyond} beyond it)")
        cpu = sum(tally.round_seconds)
        print(f"  timed phase: {tally.wall_seconds:.3f} s wall clock, {cpu:.3f} s CPU in ops, "
              f"{tally.probe_seconds:.3f} s CPU in the probe; set-up samples "
              f"{', '.join(f'{s:.3f}' for s in samples)} s CPU; times above are scaled by "
              f"{scale:.6f} from {len(tally.reference)} reference samples")
        cpu += tally.probe_seconds
        if tally.wall_seconds > WALL_CPU_WARN * cpu:
            print(f"warning wall_exceeds_cpu: the timed phase took {tally.wall_seconds:.3f} s wall clock "
                  f"for {cpu:.3f} s CPU; waiting, or work outside this process and its waited-for "
                  f"children, is not in the metrics")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        last = done.stdout.strip().splitlines()[-1:] or ["{}"]
        if done.returncode != 0 or not json.loads(last[0]).get("correct"):
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        workdir = Path(args.setup_only)
        try:
            print(setup(args.workload, args.seed, workdir)[1])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
