#!/usr/bin/env python3
"""Run every workload, print every metric by name and unit, save a result set.

    python3 benchmarks/suite.py --seeds 7 --label baseline
    python3 benchmarks/suite.py --seeds 1 2 3 4 5 6 7 8 9 10 --no-trace --label spread

For each seed, each workload runs once untraced (benchmarks/run.py --trace 0);
then, unless --no-trace, each workload runs once traced at the first seed.
Per workload the table shows the median of the end-to-end metrics over the
seeds and, with two seeds or more, their spread: the distance between the
first and third quartile as a share of the median. The traced run's
per-layer metrics follow, with the share of traced wall time each workload
is chosen to put on DTW or training. The result set, with the machine record
and the load average at the start and end of the set, is written to
benchmarks/results/<label>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# Share of traced wall time each workload must spend where it is meant to.
STRESS = {
    "s2-fixture": [("dtw.s", 0.25), ("models.train_s", 0.25)],
    "s2-attention": [("models.train_s+models.fine_tune_s", 0.60)],
    "audit-long": [("dtw.s", 0.75)],
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    machine = next(json.loads(l[len("machine "):]) for l in lines if l.startswith("machine "))
    return {"workload": workload, "seed": seed, "trace": trace, "machine": machine,
            "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out |= {"q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    return out


def span_summary(workload: str, seed: int) -> dict[str, dict]:
    """Per-sample mean of calls, total and self seconds per span name."""
    with open(os.path.join(ROOT, ".bench_work", "traces", f"{workload}-seed{seed}.json")) as fh:
        rows = json.load(fh)["spans"]
    runs = defaultdict(list)
    for run_id, *span in rows:
        runs[run_id].append(span)
    merged: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for spans in runs.values():
        for name, row in tracing.span_table(spans).items():
            for key, value in row.items():
                merged[name][key] += value / len(runs)
    return {name: dict(row) for name, row in sorted(merged.items())}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--label", default=time.strftime("%Y%m%dT%H%M%S"))
    args = parser.parse_args()

    loadavg_start = list(os.getloadavg())
    runs = [run_once(w, s, args.seconds, 0) for s in args.seeds for w in names]
    if not args.no_trace:
        runs += [run_once(w, args.seeds[0], args.seconds, 1) for w in names]
    record = {
        "label": args.label,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "machine": runs[0]["machine"] | {"loadavg_start": loadavg_start, "loadavg_end": list(os.getloadavg())},
        "runs": runs,
        "end_to_end": {},
        "per_layer": {},
    }

    ok = all(r["result"]["correct"] for r in runs)
    for m in bench["end_to_end"]:
        print(f"\n{m['name']} ({m['unit']}, {m['better']} is better, bound {m['bound']})")
        for w in names:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs if r["workload"] == w and not r["trace"]]
            s = record["end_to_end"].setdefault(w, {})[m["name"]] = spread(values)
            tail = f"  spread {s['spread']:.4f}" if "spread" in s else ""
            print(f"  {w:<13} median {s['median']:<12.6g} n {s['n']}{tail}")
    for r in runs:
        if not r["trace"]:
            continue
        w, metrics = r["workload"], r["result"]["metrics"]
        layer = record["per_layer"][w] = {k: v["value"] for k, v in metrics.items()}
        layer["spans"] = span_summary(w, r["seed"])
        print(f"\n{w} traced, seed {r['seed']}")
        for m in bench["per_layer"]:
            print(f"  {m['name']:<30} {metrics[m['name']]['value']:<14.6g} {m['unit']}")
        for terms, floor in STRESS[w]:
            share = sum(metrics[t]["value"] for t in terms.split("+")) / metrics["trace.wall_s"]["value"]
            ok &= share >= floor
            print(f"  share of traced wall_s in {terms}: {share:.3f} (at least {floor})")
    print(f"\nall runs correct and every workload stresses its layer: {ok}")

    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    path = os.path.join(BENCH, "results", f"{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
