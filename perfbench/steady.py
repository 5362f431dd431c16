#!/usr/bin/env python3
"""Repeat benchmark runs and report each metric's median and quartiles.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --runs 10 --out .perfbench_out/steady.json
    python3 perfbench/steady.py --compare before.json after.json

A repeat set runs ``perfbench/run.py`` once per seed (first-seed, first-seed
+ 1, ...) in a fresh process, so set-up and peak memory are measured as
they would be in a single run.  For every workload and metric it prints the
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and the spread: the distance between the quartiles as a share of the
median.  With ``--trace 0`` each spread is set against the metric's bound in
BENCHMARK.json.  The set is saved with the run environment (scalar backend,
Python version, nproc, seeds), and ``--compare`` refuses two sets whose
environments differ in backend, because the gmpy2 and Fraction backends
differ by about eight times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return {"env": env, "result": json.loads(lines[-1])}


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def repeat(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in names:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            runs.append(run_once(workload, seed, seconds, args.trace))
            r = runs[-1]["result"]
            print(f"# {workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", flush=True)
        envs = {(r["env"]["backend"], r["env"]["python"], r["env"]["nproc"]) for r in runs}
        if len(envs) != 1:
            print(f"error: runs of {workload} differ in environment: {envs}", file=sys.stderr)
            return 2
        metrics = {}
        for name, entry in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarize(values), unit=entry["unit"], values=values)
        report["workloads"][workload] = {
            "env": {k: runs[0]["env"][k] for k in ("backend", "python", "nproc")},
            "seeds": [r["env"]["seed"] for r in runs],
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            line = (f"{workload:8s} {name:48s} median {m['median']:12.6g} "
                    f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} spread {m['spread']:7.4f}")
            if name in bounds:
                line += f"  bound {bounds[name]:.2f}"
                if name != "setup_s":
                    worst = max(worst, m["spread"] / bounds[name])
            print(line)
    if args.trace == 0:
        print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


def compare(paths: list) -> int:
    """Second median against the first, per metric, in units of the bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    status = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        if wa["env"]["backend"] != wb["env"]["backend"]:
            print(f"error: {workload}: backends differ ({wa['env']['backend']} vs "
                  f"{wb['env']['backend']}); the runs cannot be compared", file=sys.stderr)
            return 2
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"][name]
            if not ma["median"]:
                continue
            change = (mb["median"] - ma["median"]) / ma["median"]
            worse = change if better.get(name) == "lower" else -change
            verdict = ""
            if name in bounds:
                verdict = "worse beyond bound" if worse > bounds[name] else "within bound"
                status |= worse > bounds[name]
            print(f"{workload:8s} {name:48s} {ma['median']:12.6g} -> {mb['median']:12.6g} "
                  f"({change:+.2%}) {verdict}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", help="default: those in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="save the repeat set as JSON")
    ap.add_argument("--compare", nargs=2, metavar="SET", help="compare two saved repeat sets")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(args.compare)
    return repeat(args)


if __name__ == "__main__":
    sys.exit(main())
