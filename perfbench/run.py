#!/usr/bin/env python3
"""Run one gpolyvlp benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 90210 --seconds 36 --trace 0
    python3 perfbench/run.py --workload solve --record-reference

Load model: a closed loop with one client, one process and one thread.  The
run sets up the workload several times (import gpolyvlp, generate the
corpus, select the queries) and reports the median set-up time.  It then
runs whole passes over the workload's fixed query list, as many as bring the
timed wall time closest to ``--seconds``; each pass queries fresh problem
objects, so every pass pays the library's lazy builds as a new user would.
Every query is timed from the call to its return.

After timing, each distinct query's output goes through the independent
checks in checks.py, with tracing off, and later passes must reproduce the
first pass's output digests.  On a workload's default seed the digests must
also match reference.json.  A query fails if it raises, if a check rejects
it, or if a digest differs.

With ``--trace 1`` one more pass runs under the span tracer and the run
reports per-layer metrics instead of the end-to-end ones; spans are written
to ``.perfbench_out/``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0 when
the run completed, whatever the checks found, and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE.parent / ".perfbench_out"
SETUP_REPEATS = 3

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class Failure:
    """The output slot of a query that raised."""

    def __init__(self, exc: BaseException):
        self.reason = f"raised {type(exc).__name__}: {exc}"
        self.trace = traceback.format_exc()


def environment(w) -> dict:
    """What a result depends on besides the code: recorded with every run."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": w.name,
        "seed": w.seed,
        "backend": type(w.lib.exact.ONE).__name__,
        "python": platform.python_version(),
        "nproc": nproc,
    }


def run_pass(w, tracer=None):
    """One pass over the query list: (wall seconds, latencies, outputs)."""
    latencies, outputs = [], []
    current = problem = None
    start = perf_counter()
    for qid, query in enumerate(w.queries):
        if tracer is not None:
            tracer.query = qid
        t0 = perf_counter()
        try:
            if query.problem != current:
                problem, current = w.fresh(query.problem), query.problem
            out = w.execute(problem, query)
        except Exception as exc:  # a query that raises is a failed query; keep going
            out = Failure(exc)
        latencies.append(perf_counter() - t0)
        outputs.append(out)
    return perf_counter() - start, latencies, outputs


def output_digest(out) -> str:
    return "raised" if isinstance(out, Failure) else workloads.digest(out)


def check_outputs(w, outputs) -> list:
    """The reason each query failed its independent check, '' where it passed."""
    reasons = [out.reason if isinstance(out, Failure) else "" for out in outputs]
    index = copy = None  # one check copy per problem shares its lazy builds
    for i, (q, out) in enumerate(zip(w.queries, outputs)):
        if reasons[i]:
            continue
        if q.problem != index:
            index, copy = q.problem, w.fresh(q.problem)
        if q.kind.startswith("solve"):
            reasons[i] = checks.check_solve(w.lib, copy, out, q.kind == "solve-weak")
        else:
            reasons[i] = checks.check(w.lib, copy, q, out)
    if w.name == "solve":
        # each problem's two queries are adjacent, efficient set first
        for e in range(0, len(outputs), 2):
            if not reasons[e] and not reasons[e + 1]:
                reasons[e] = reasons[e + 1] = checks.check_containment(outputs[e], outputs[e + 1])
    return reasons


def reference_digests(w):
    """The pinned digests when the run uses the workload's default seed."""
    if w.seed != workloads.DEFAULT_SEEDS[w.name]:
        return None
    ref = json.loads(REFERENCE.read_text())[w.name]
    if ref["seed"] != w.seed:
        raise ValueError(f"reference.json holds seed {ref['seed']} for {w.name}")
    return ref["digests"]


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        w = workloads.build(name, seed)
        setups.append(perf_counter() - t0)
    print("env " + json.dumps(environment(w)), flush=True)

    # Closed loop: whole passes over fresh problems, as many as bring the
    # timed wall time closest to `seconds`.  A pass cut at a deadline would
    # make the timed mix depend on machine speed; whole passes time the same
    # queries on every run of a seed.
    wall, latencies, pass_digests = 0.0, [], []
    checked = None
    while not pass_digests or wall + wall / len(pass_digests) / 2 < seconds:
        pass_wall, lat, outputs = run_pass(w)
        wall += pass_wall
        latencies += lat
        pass_digests.append([output_digest(o) for o in outputs])
        if checked is None:
            checked = outputs
    ops_per_s = len(latencies) / wall

    traced = None
    if trace:
        tr = tracing.Tracer(w.lib)
        with tr:
            traced_wall, _, outputs = run_pass(w, tr)
        pass_digests.append([output_digest(o) for o in outputs])
        traced = tr.metrics()
        traced["trace.overhead_ratio"] = len(w.queries) / traced_wall / ops_per_s
        tr.write_spans(OUT_DIR / f"spans-{name}-{seed}.jsonl")
        del tr, outputs

    reasons = check_outputs(w, checked)
    expected = pass_digests[0]
    pinned = reference_digests(w)
    if pinned is not None and len(pinned) != len(expected):
        raise ValueError(f"reference.json pins {len(pinned)} queries, the run has {len(expected)}")
    failed = 0
    for digests in pass_digests:
        for i, d in enumerate(digests):
            reason = reasons[i]
            if not reason and d != expected[i]:
                reason = "output changed between passes"
            if not reason and pinned is not None and d != pinned[i]:
                reason = "output digest differs from reference.json"
            if reason:
                failed += 1
                if failed <= 5:
                    print(f"failed query {i} {w.queries[i].kind}: {reason}", file=sys.stderr)
                    if isinstance(checked[i], Failure):
                        print(checked[i].trace, file=sys.stderr)
    attempted = sum(len(d) for d in pass_digests)

    q = statistics.quantiles(latencies, n=10)
    values = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * q[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(latencies)
    beyond = sum(1 for x in latencies if 1e3 * x > values["op_p90_ms"])
    notes = {
        "ops_per_s": f"{n} queries in {n // len(w.queries)} passes, {wall:.2f} s timed",
        "op_p50_ms": f"samples={n}",
        "op_p90_ms": f"samples={n}, beyond={beyond}",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "peak_rss_mb": "ru_maxrss",
    }
    for metric, unit in END_TO_END:
        print(f"{name:8s} {metric:14s} {values[metric]:12.4f} {unit:5s} {notes[metric]}")
    print(f"{name:8s} {'failed_share':14s} {failed / attempted:12.4f} {'1':5s} {failed} of {attempted}")

    if trace:
        spec = tracing.per_layer_spec()
        for metric, unit, _ in spec:
            print(f"{name:8s} {metric:48s} {traced[metric]:14.6g} {unit}")
        metrics = {m: {"value": traced[m], "unit": u} for m, u, _ in spec}
    else:
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_reference(name: str) -> int:
    """Pin the default seed's output digests, after the independent checks
    pass on every query."""
    w = workloads.build(name, workloads.DEFAULT_SEEDS[name])
    _, _, outputs = run_pass(w)
    bad = [(i, r) for i, r in enumerate(check_outputs(w, outputs)) if r]
    for i, reason in bad[:5]:
        print(f"query {i} {w.queries[i].kind}: {reason}", file=sys.stderr)
    if bad:
        print(f"{len(bad)} queries failed their checks; nothing recorded", file=sys.stderr)
        return 1
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref[name] = {
        "seed": w.seed,
        "backend": environment(w)["backend"],
        "digests": [output_digest(o) for o in outputs],
    }
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(outputs)} digests for {name} at seed {w.seed}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, help="default: the workload's pinned seed")
    ap.add_argument("--seconds", type=float, default=10.0, help="minimum timed wall time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-reference", action="store_true",
        help="check one pass at the default seed and pin its output digests",
    )
    args = ap.parse_args(argv)
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    try:
        if args.record_reference:
            return record_reference(args.workload)
        result = run(args.workload, seed, args.seconds, bool(args.trace))
    except (workloads.LibraryMissing, OSError, ValueError, KeyError) as exc:
        print(f"error: cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
