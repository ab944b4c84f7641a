"""Self-tests for the benchmark; run from the repository root with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# Largest share of the traced ops' CPU time left outside every span; at the
# seed it is below 1% on every workload.
REMAINDER_SHARE = 0.05


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 8]
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["c", 6.0, 8.0, 2],
        ["a", 11.0, 12.0, -1],
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({"root": 3.0, "a": 4.0, "b": 2.0, "c": 2.0})
    # self times of all spans add up to the time covered by root spans
    assert sum(selfs.values()) == pytest.approx(11.0)


def _documents(seed: int) -> str:
    rng = random.Random(seed)
    docs = [gen.coalescent_de(rng, exact) for exact in (True, False)]
    docs += [gen.regular_de(rng, n, d) for n, d, _ in gen.REGULAR_SHAPES]
    docs.append(gen.closed_form_de(rng))
    docs.append(gen.classify_matrices(rng))
    return json.dumps(docs)


def test_generators_are_seeded():
    assert _documents(7) == _documents(7)
    assert _documents(7) != _documents(8)


def test_cli_documents_are_seeded(tmp_path):
    def written(seed, sub):
        out = tmp_path / sub
        out.mkdir()
        workloads.cli_round(random.Random(seed), out, "t")
        return {p.name: p.read_text() for p in sorted(out.iterdir())}

    first = written(3, "a")
    assert first == written(3, "b")
    assert first != written(4, "c")


def test_recorder_restores_every_patched_attribute():
    from strata import cli, darboux, gauge, scalars, series

    before = (cli.formal_simplify, gauge.formal_simplify, darboux.de_solve_jet,
              series.TruncatedSeries.__mul__, scalars.ComplexRational.__rmul__)
    rec = spans.Recorder()
    rec.install()
    try:
        assert cli.formal_simplify is gauge.formal_simplify is not before[1]
        assert scalars.ComplexRational.__mul__ is scalars.ComplexRational.__rmul__
        scalars.ComplexRational(1, 2) * scalars.ComplexRational(3)
    finally:
        rec.restore()
    after = (cli.formal_simplify, gauge.formal_simplify, darboux.de_solve_jet,
             series.TruncatedSeries.__mul__, scalars.ComplexRational.__rmul__)
    assert all(a is b for a, b in zip(before, after))
    assert rec.counts["scalars.mul"] == 1


def test_known_defects_match_on_name_and_reason():
    assert workloads.known_defect("bundles classify huge", "LinAlgError: SVD did not converge")
    assert workloads.known_defect("bundles classify single-eigenvalue",
                                  "CheckFailed: stdout: Infinity is not strict JSON")
    # the same op failing for another reason is unexpected
    assert not workloads.known_defect("bundles classify huge", "TypeError: bad operand")
    assert not workloads.known_defect("bundles classify single-eigenvalue",
                                      "CheckFailed: symbol weight differs from the matrix size")
    assert not workloads.known_defect("gap distance", "ValueError: x")


def _declared() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in bench["workloads"]],
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def test_benchmark_json_lists_every_workload():
    assert _declared()["workloads"] == run.WORKLOAD_NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_exactly_the_declared_metrics(workload, trace):
    """A tiny run of each workload: correct, and every metric it prints is
    declared in BENCHMARK.json with the same unit, and none is missing."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "0.01", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared()[trace]
    if workload != "cli-mix":
        assert result["failed"] == 0
    if trace:
        # Root spans nest inside the ops' CPU time, so the untraced remainder
        # is never negative; a negative one means overlapping or double-counted
        # spans.  It is benchmark code (checks, comparisons), a small share.
        m = {name: v["value"] for name, v in result["metrics"].items()}
        assert 0.0 <= m["trace.remainder_s"] <= REMAINDER_SHARE * m["trace.cpu_s"]
