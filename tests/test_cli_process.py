"""The I/O contract at the process level: `python -m strata.cli` in a subprocess.

In-process checks capture ``sys.stdout`` and ``sys.stderr`` and let pytest
collect warnings, so they cannot see bytes that numpy or LAPACK write
straight to the file descriptors.  Here each command runs in its own
process and the contract is checked on its raw output: stdout is empty or
strict JSON (plain text for `partitions count`), exit status 0 leaves
stderr empty, and exit status 2 leaves exactly one JSON line on stderr.
The inputs are a fixed sample of the kinds the CLI fuzzer draws, plus
documents with a malformed integer field, which must exit 2.
"""

import json
import os
import resource
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = Path(__file__).parent / "data" / "golden"

# matrix documents, written to files; NaN and Infinity are JSON tokens here
DOCS = {
    "huge_diag": "[[1e308, 0], [0, -1e308]]",
    "huge_same": "[[1e308, 1], [0, 1e308]]",
    "nan": "[[NaN, 0], [0, 1]]",
    "inf": "[[1, Infinity], [0, 1]]",
    "bigint": "[[1" + "0" * 400 + ", 0], [0, 1]]",
    "denormal": "[[1e-320, 0], [0, -0.0]]",
    "bad_fraction": '[["1/0", 0], [0, 1]]',
    "ragged": "[[1, 2], [3]]",
    "jordan": '[[2, 1, 0], [0, 2, 0], [0, 0, "1/3"]]',
    "pair": '{"a": [[1, 0]], "b": [[0, 1]]}',
    "pair_nan": '{"a": [[NaN, 0]], "b": [[0, 1]]}',
    "huge_rank_one": "[[1e308, 1e308], [1e308, 1e308]]",
    "huge_scalar": "[[1e308, 0], [0, 1e308]]",
    # the family diag(1e308 x, -1e308 x); its value at a sample point overflows
    "huge_family": json.dumps({"d": 1, "n": 2, "entries": [
        [[{"exps": [1], "re": 1e308, "im": 0.0}], []],
        [[], [{"exps": [1], "re": -1e308, "im": 0.0}]]], "branches": [
        {"poly": [{"exps": [1], "re": 1e308, "im": 0.0}], "multiplicity": 1},
        {"poly": [{"exps": [1], "re": -1e308, "im": 0.0}], "multiplicity": 1}]}),
}


def _term(exps, re="1"):
    return {"exps": exps, "re": re, "im": "0"}


def _de_doc(d=1, exps=(1,)):
    f = [[_term(list(exps))], [_term([0]), _term([1], "2")]]
    return json.dumps({"d": d, "n": 2, "x0": ["0"], "f": f, "b": ["0", "1/2"],
                       "F0": [["0", "1"], ["1", "0"]]})


# documents with a malformed integer field: each must be refused with exit 2
BAD_INTS = {
    "de_d_string": _de_doc(d="x"),
    "de_d_bool": _de_doc(d=True),
    "de_exps_string": _de_doc(exps=["a"]),
    "de_exps_float": _de_doc(exps=[1.7]),
    "de_exps_bool": _de_doc(exps=[True]),
    "family_multiplicity_string": json.dumps({"d": 1, "n": 2, "entries": [
        [[_term([1])], []], [[], [_term([1], "-1")]]], "branches": [
        {"poly": [_term([1])], "multiplicity": "one"},
        {"poly": [_term([1], "-1")], "multiplicity": 1}]}),
    # a d=1 frame whose L holds x^-1
    "frame_negative_exponent": json.dumps({"d": 1, "n": 2, "center": ["0"], "K": 2,
        "Delta0": [[_term([1])], [_term([0]), _term([1], "2")]], "Bdiag": ["0", "1/2"],
        "L": [[[], [_term([-1])]], [[], []]]}),
    "model_d_float": json.dumps({"d": 1.0, "g": [_term([1])], "h": [], "l": [],
                                 "m": [_term([1], "-1")]}),
}
DOCS.update(BAD_INTS)

CASES = [
    ["partitions", "count", "--r", "100000", "--n", "3"],
    ["bundles", "classify", "--input", "huge_diag"],
    ["bundles", "classify", "--input", "huge_same"],
    ["bundles", "classify", "--input", "nan"],
    ["bundles", "classify", "--input", "inf"],
    ["bundles", "classify", "--input", "bigint"],
    ["bundles", "classify", "--input", "denormal"],
    ["bundles", "classify", "--input", "bad_fraction"],
    ["bundles", "classify", "--input", "ragged"],
    ["bundles", "classify", "--input", "jordan"],
    ["gap", "kernel", "--input", "huge_diag"],
    ["gap", "kernel", "--input", "denormal"],
    ["gap", "kernel", "--input", "huge_rank_one"],
    ["gap", "report", "--input", "huge_family", "--point", "[0]"],
    ["bundles", "classify", "--input", "huge_scalar"],
    ["gap", "distance", "--input", "pair"],
    ["gap", "distance", "--input", "pair_nan"],
    ["bundles", "hasse", "--n", "1000000"],
    ["bundles", "hasse", "--n", "-3"],
    ["partitions", "count", "--r", "2", "--n", "40", "--method", "product"],
    ["partitions", "count", "--r", "inf", "--n", "3"],
    ["partitions", "count", "--r", "3", "--n", "5", "--method", "sigma"],
    ["partitions", "count", "--r", "2", "--n", "1e308"],
    ["appendix", "curve", "--alpha0", "nan", "--beta0", "1", "--gamma0", "1", "--c", "1"],
    ["appendix", "curve", "--alpha0", "1", "--beta0", "1", "--gamma0", "1", "--c", "1e308"],
    *[["de", "solve", "--input", name, "--order", "2"] for name in BAD_INTS
      if name.startswith("de_")],
    ["gap", "report", "--input", "family_multiplicity_string", "--point", "[0]"],
    ["gauge", "build", "--input", "frame_negative_exponent"],
    ["appendix", "classify2x2", "--input", "model_d_float"],
]


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def _run(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "strata.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60)


def _breach(argv, proc):
    """Why a finished process breaks the contract, or None."""
    out, err = proc.stdout, proc.stderr
    if proc.returncode == 0 and any(Path(a).stem in BAD_INTS for a in argv):
        return "exit 0 on a malformed integer field"
    if proc.returncode == 0:
        if err:
            return f"exit 0 with stderr {err!r}"
        if argv[:2] == ["partitions", "count"]:
            return None if out.strip().isdigit() else f"count printed {out!r}"
        try:
            json.loads(out, parse_constant=_reject_constant)
        except ValueError as exc:
            return f"stdout is not strict JSON ({exc}): {out[:200]!r}"
        return None
    if proc.returncode != 2:
        return f"exit {proc.returncode}: {err[-400:]!r}"
    if out:
        return f"exit 2 with stdout {out!r}"
    lines = err.splitlines()
    if len(lines) != 1:
        return f"exit 2 with {len(lines)} stderr lines: {err[:400]!r}"
    if "error" not in json.loads(lines[0], parse_constant=_reject_constant):
        return f"stderr line is not an error document: {lines[0]!r}"
    return None


@pytest.fixture
def argvs(tmp_path):
    for name, text in DOCS.items():
        (tmp_path / f"{name}.json").write_text(text)
    return [[str(tmp_path / f"{a}.json") if a in DOCS else a for a in argv] for argv in CASES]


def test_every_command_keeps_the_contract(argvs):
    # two processes at a time keep the test short without loading the machine
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(_run, argvs))
    breaches = [(argv, why) for argv, proc in zip(argvs, procs)
                if (why := _breach(argv, proc)) is not None]
    assert breaches == []


def _child_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_fold_count_beyond_the_budget_is_refused_at_once():
    before = _child_cpu_s()
    proc = _run(["partitions", "count", "--r", "100000", "--n", "3"])
    # CPU time, not wall time, so that a busy machine does not fail the test
    assert _child_cpu_s() - before < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert json.loads(proc.stderr)["error"] == "invalid-input"


def test_overflowing_shift_writes_one_stderr_line(tmp_path):
    f = tmp_path / "huge.json"
    f.write_text(DOCS["huge_diag"])
    proc = _run(["bundles", "classify", "--input", str(f)])
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [json.dumps(
        {"error": "invalid-input", "detail": "the shifted matrix is beyond the float range"})]


def test_huge_entries_give_the_true_answer_or_a_refusal(tmp_path):
    argvs = []
    for cmd, name in [(["gap", "kernel"], "huge_rank_one"), (["bundles", "classify"], "huge_scalar")]:
        (tmp_path / f"{name}.json").write_text(DOCS[name])
        argvs.append([*cmd, "--input", str(tmp_path / f"{name}.json")])
    with ThreadPoolExecutor(max_workers=2) as pool:
        kernel, classify = pool.map(_run, argvs)
    # rank 1: its singular values overflow, so the SVD runs on the matrix times 2^-1024
    assert kernel.returncode == 0, kernel.stderr
    (v,) = json.loads(kernel.stdout)["basis"]
    assert abs(v[0][0] + v[1][0]) < 1e-15 and abs(abs(v[0][0]) - 0.5 ** 0.5) < 1e-15
    assert classify.returncode == 0, classify.stderr
    doc = json.loads(classify.stdout)
    assert (doc["symbol"], doc["eigenvalues"]) == ([[1, 1]], [[1e308, 0.0]])


def test_a_library_warning_stays_off_stderr(tmp_path):
    # at x0 = (1e-9, 0, 1) the pair (0, 1) is near-coalescent, and DEProblem
    # warns before it treats the pair as regular; a process shows the warning
    # on every run, where an in-process run shows it only once
    doc = json.loads((GOLDEN / "de_coalescent_float.json").read_text())
    doc["x0"][0] = [1e-9, 0.0]
    argvs = []
    for name, F0 in (("good", doc["F0"]), ("bad", "bad")):
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(doc, F0=F0)))
        argvs.append(["de", "solve", "--input", str(tmp_path / f"{name}.json"), "--order", "3"])
    with ThreadPoolExecutor(max_workers=2) as pool:
        good, bad = pool.map(_run, argvs)
    assert (good.returncode, bad.returncode) == (0, 2)
    assert [_breach(argv, proc) for argv, proc in zip(argvs, (good, bad))] == [None, None]
