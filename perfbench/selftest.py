#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Usage, from the root of a checkout (all tests, or the ones named):

    python3 perfbench/selftest.py
    python3 perfbench/selftest.py sweep_count corrupted_witness

* ``spec``: BENCHMARK.json names exactly the metrics run.py and tracer.py
  print, and only workloads that workloads.py defines.
* ``corrupted_witness``: a run whose witnesses are corrupted reports failed
  queries, and the same run uncorrupted reports none.
* ``sweep_count``: traced around ``scripts/random_sweep.py --count 60
  --seed 1``, the tracer counts exactly 627 ``lp.solve_lp`` calls.
* ``traced_counts_repeat``: two traced runs of every workload give identical
  counts, and convert makes no LP call.
* ``bare_directory``: with only BENCHMARK.json and perfbench/ present, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SWEEP_LP_SOLVES = 627
RUN_TIMEOUT_S = 180


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def test_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    expect(e2e == run.END_TO_END, f"end_to_end {e2e} != run.END_TO_END")
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(layer == tracing.per_layer_spec(), "per_layer differs from tracer.per_layer_spec()")
    names = [w["name"] for w in spec["workloads"]]
    expect(set(names) <= set(workloads.WORKLOADS), f"workloads {names}")


def _certify_run(corrupt: bool) -> dict:
    """A run of a small certify corpus, optionally with every strict witness
    negated (outside the dual cone unless the cone is a subspace)."""
    build, size = workloads.build, workloads.CERTIFY_PROBLEMS

    def corrupted_build(name, seed):
        w = build(name, seed)
        if corrupt:
            real = w.lib.vlp.scalarize_witness
            w.lib.vlp.scalarize_witness = lambda P, u: -real(P, u)
        return w

    workloads.build, workloads.CERTIFY_PROBLEMS = corrupted_build, 30
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return run.run("certify", 7, 0, False)
    finally:
        workloads.build, workloads.CERTIFY_PROBLEMS = build, size


def test_corrupted_witness():
    clean = _certify_run(corrupt=False)
    expect(clean["failed"] == 0 and clean["correct"], f"clean run failed {clean['failed']}")
    bad = _certify_run(corrupt=True)
    share = bad["failed"] / bad["attempted"]
    expect(share > 0 and not bad["correct"], "corrupted witnesses went unnoticed")
    print(f"  failed_share clean 0, corrupted {share:.3f} ({bad['failed']} of {bad['attempted']})")


def test_sweep_count():
    lib = workloads.load_library()
    tr = tracing.Tracer(lib)
    with tr, contextlib.redirect_stdout(io.StringIO()):
        sweep = runpy.run_path(str(ROOT / "scripts" / "random_sweep.py"), run_name="sweep")
        code = sweep["main"](["--count", "60", "--seed", "1"])
    expect(code == 0, f"sweep exited {code}")
    calls = tr.calls["lp.solve_lp"]
    expect(calls == SWEEP_LP_SOLVES, f"counted {calls} LP solves, expected {SWEEP_LP_SOLVES}")
    print(f"  lp.solve_lp.calls = {calls}")


def _traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    expect(proc.returncode == 0, f"{workload} traced run exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(result["correct"], f"{workload} traced run failed {result['failed']} queries")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "bits")}


def test_traced_counts_repeat():
    for workload in workloads.WORKLOADS:
        first, second = _traced_counts(workload), _traced_counts(workload)
        diff = sorted(k for k in first if first[k] != second[k])
        expect(not diff, f"{workload}: counts differ between traced runs: {diff}")
        print(f"  {workload}: {len(first)} counts repeat, lp.solve_lp.calls = "
              f"{first['lp.solve_lp.calls']}")
        if workload == "convert":
            expect(first["lp.solve_lp.calls"] == 0, "convert made LP calls")


def test_bare_directory():
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cmd = spec["command"] + ["--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    expect(proc.returncode != 0, "benchmark succeeded without the library sources")
    expect('"correct"' not in proc.stdout, "benchmark printed a result without the library")
    print(f"  exit code {proc.returncode}: {proc.stderr.strip().splitlines()[-1]}")


TESTS = {
    "spec": test_spec,
    "corrupted_witness": test_corrupted_witness,
    "sweep_count": test_sweep_count,
    "traced_counts_repeat": test_traced_counts_repeat,
    "bare_directory": test_bare_directory,
}


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(TESTS)
    unknown = [n for n in names if n not in TESTS]
    if unknown:
        print(f"unknown tests: {unknown}; choose from {list(TESTS)}", file=sys.stderr)
        return 2
    failures = 0
    for name in names:
        print(f"{name} ...", flush=True)
        try:
            TESTS[name]()
        except SelfTestFailure as exc:
            failures += 1
            print(f"  FAIL: {exc}")
        else:
            print("  ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
