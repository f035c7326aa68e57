#!/usr/bin/env python3
"""imputeaudit benchmark: one workload at one seed, a closed loop with one client.

    python3 benchmarks/run.py --workload s2-fixture --seed 7 --seconds 30 --trace 0

Workloads (their reasons and input sizes are in BENCHMARK.json):

  s2-fixture    imputeaudit scenario2 on configs/scenario2_fixture.json
  s2-attention  the same pipeline with attention imputers (benchmarks/s2_attention.json)
  audit-long    imputeaudit attack, then imputeaudit metrics, on models and
                candidates made during set-up (benchmarks/audit_long.json)

Every sample is a fresh interpreter (benchmarks/child.py) that calls
``imputeaudit.cli.main``; the next sample starts when the previous one has
exited, until ``--seconds`` have passed. BLAS runs one thread per process.

The host's speed drifts by tens of percent over minutes (CPU time tracks
wall time, so it is not scheduling), more than any run can average out. So
each sample also times a fixed reference computation (``reference_work`` in
child.py) just before and after the CLI calls, and ``wall_rel`` and
``cpu_rel`` are the calls' wall and CPU time over the reference's time in the
same process. The raw seconds are printed and, in traced runs, reported as
``run.wall_s``, ``run.cpu_s`` and ``run.reference_s``. ``setup_s`` is raw:
interpreter start and imports of each sample, plus, on audit-long, the median
of three preparations, each a fresh process that generates the corpus, trains
both models and writes the inputs.
Every sample's output files are hashed: at the pinned seed they must match
benchmarks/pins.json (a run at that seed prints the digests to pin), at any
other seed they must match the run's first sample. On s2-fixture at the
pinned seed the report must also meet the headline bounds (LBRM AUROC at
least 0.65 and at least 0.10 above naive).

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` every other sample runs under the span tracer
(benchmarks/tracing.py) and the result carries the per-layer metrics, the
medians over traced samples. A traced sample fails when a query count is off
(queries = 2 x candidates x repeats = DTW pairs; parity queries = 2 x |test|)
or when a wrapped function the workload should call recorded no call. Spans
are written to .bench_work/traces/. The last line printed is the result JSON.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
BLAS_THREADS = "1"
PREP_REPEATS = 3
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 120

SCENARIO_SPANS = {
    "cli.main", "harness.config_from_file", "harness.run_experiment", "harness.run_scenario2",
    "harness.write_outputs", "data.generate", "data.split", "core.zscore", "models.train",
    "models.fine_tune", "models.parity_check", "models.impute", "attack.run_attack",
    "attack.lbrm_score", "core.mask", "dtw.dtw_distance", "metrics.summary",
}
AUDIT_SPANS = {
    "cli.main", "models.load_model", "data.load_csv", "core.zscore", "attack.run_attack",
    "attack.lbrm_score", "core.mask", "models.impute", "dtw.dtw_distance", "metrics.summary",
}
PREP_SPANS = {"data.generate", "data.split", "core.zscore", "models.train", "models.save_model", "data.save_csv"}


class SampleError(RuntimeError):
    pass


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    """The CLI calls, output files and exact counts of one workload at one seed."""

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.name, self.seed, self.workdir = name, seed, workdir
        out = os.path.join(workdir, "out")
        if name == "audit-long":
            self.params = _load(os.path.join(BENCH, "audit_long.json"))
            count = self.params["data"]["count"]
            test = count - 2 * ((2 * count) // 5)
            self.candidates = self.params["members"] + test
            self.repeats = self.params["attack"]["repeats"]
            self.parity_queries = 0
            self.spans = AUDIT_SPANS
            self.prep = os.path.join(workdir, "prep0")
            scores, summary = os.path.join(out, "scores.json"), os.path.join(out, "summary.json")
            self.calls = [
                ["attack", "--target", self._prep("target.json"), "--reference", self._prep("reference.json"),
                 "--candidates", self._prep("candidates.csv"), "--config", self._prep("attack.json"),
                 "--out", scores, "--seed", str(seed)],
                ["metrics", "--scores", scores, "--labels", self._prep("labels.json"), "--out", summary],
            ]
            self.outputs = {"scores.json": scores, "summary.json": summary}
        else:
            config = "configs/scenario2_fixture.json" if name == "s2-fixture" else "benchmarks/s2_attention.json"
            doc = _load(os.path.join(ROOT, config))
            count = doc["data"]["count"]
            private, test = count // 5, count - (3 * count) // 5 - count // 5
            self.candidates = private + test
            self.repeats = doc["attack"]["repeats"]
            self.parity_queries = 2 * test
            self.spans = SCENARIO_SPANS
            self.prep = None
            self.calls = [["scenario2", "--config", os.path.join(ROOT, config), "--seed", str(seed), "--out", out]]
            self.outputs = {f: os.path.join(out, f) for f in ("report.json", "scores.json")}

    def _prep(self, name: str) -> str:
        return os.path.join(self.prep, name)

    def aurocs(self) -> tuple[float, float]:
        if self.name == "audit-long":
            doc = _load(self.outputs["summary.json"])
            return doc["lbrm"]["auroc"], doc["naive"]["auroc"]
        doc = _load(self.outputs["report.json"])["methods"]
        return doc["lbrm"]["auroc"], doc["naive"]["auroc"]


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("IMPUTEAUDIT_OUT", None)
    env.pop("PYTHONPATH", None)
    return env


def spawn(spec: dict) -> dict:
    """Run one child process; return its SAMPLE record plus parent-side times."""
    spec = {"root": ROOT, "calls": [], "trace": None, "prepare": None, **spec}
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), json.dumps(spec)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample exceeded {SAMPLE_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("SAMPLE "):
        raise SampleError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rec = json.loads(lines[-1][len("SAMPLE "):])
    if any(rec["codes"]):
        raise SampleError(f"imputeaudit exited {rec['codes']}: {proc.stderr.strip()[-2000:]}")
    rec["setup_s"] = rec["imported"] - started
    rec["wall_s"] = rec["end"] - rec["ready"]
    return rec


def prepare(w: Workload, trace: bool) -> tuple[list[float], list[dict]]:
    """Make the audit-long inputs PREP_REPEATS times in fresh processes.

    Returns the time of each preparation (interpreter start, imports and the
    work, without the reference computation) and, when tracing, its derived
    set-up metrics. Every preparation must write byte-identical files.
    """
    walls, setup_metrics, digests = [], [], []
    for i in range(PREP_REPEATS):
        target = os.path.join(w.workdir, f"prep{i}")
        os.makedirs(target)
        spans = os.path.join(w.workdir, f"prep{i}-spans.json") if trace else None
        rec = spawn({"prepare": target, "params": w.params, "seed": w.seed, "trace": spans})
        walls.append(rec["setup_s"] + rec["wall_s"])
        digests.append({f: _sha256(os.path.join(target, f)) for f in sorted(os.listdir(target))})
        if trace:
            recorded = _load(spans)
            _require_spans(recorded, PREP_SPANS)
            setup_metrics.append(tracing.derive_setup(recorded))
    if any(d != digests[0] for d in digests):
        raise SampleError("workload preparation is not deterministic")
    return walls, setup_metrics


def _require_spans(spans: list[list], names: set[str]) -> None:
    seen = {s[0] for s in spans}
    missing = sorted(names - seen)
    if missing:
        raise SampleError(f"wrapped functions recorded no calls: {', '.join(missing)}")


def check_trace(w: Workload, spans: list[list]) -> dict[str, float]:
    _require_spans(spans, w.spans)
    m = tracing.derive(spans)
    queries = 2 * w.candidates * w.repeats
    expected = {"attack.queries": queries, "dtw.calls": queries, "models.parity_queries": w.parity_queries}
    for name, want in expected.items():
        if m[name] != want:
            raise SampleError(f"{name} = {m[name]}, expected {want}")
    return m


def check_outputs(w: Workload, digests: dict[str, str], expected: dict[str, str] | None, pins: dict) -> None:
    if w.seed == pins["seed"]:
        expected = pins["digests"].get(w.name)
    if expected is not None and digests != expected:
        raise SampleError(f"output digests {digests} differ from {expected}")
    if w.name == "s2-fixture" and w.seed == pins["seed"]:
        lbrm, naive = w.aurocs()
        if not (lbrm >= 0.65 and lbrm >= naive + 0.10):
            raise SampleError(f"headline bounds missed: LBRM AUROC {lbrm} vs naive {naive}")


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "loadavg_start": list(os.getloadavg()),
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run(w: Workload, seconds: float, trace: bool) -> tuple[dict, int, int]:
    pins = _load(os.path.join(BENCH, "pins.json"))
    failed = attempted = 0
    prep_walls: list[float] = []
    setup_metrics: list[dict] = []
    if w.prep:
        try:
            prep_walls, setup_metrics = prepare(w, trace)
        except SampleError as exc:
            print(f"error: set-up: {exc}", file=sys.stderr)
            return {}, 1, 1
    os.makedirs(os.path.join(w.workdir, "out"))

    records, traced, layer_metrics, spans_out = [], [], [], []
    first_digests = None
    lbrm = naive = 0.0
    begin = last = time.perf_counter()
    # Start a sample only if one more, as long as the last, still fits.
    while attempted < MIN_SAMPLES or 2 * time.perf_counter() - last - begin <= seconds:
        last = time.perf_counter()
        span_file = os.path.join(w.workdir, f"spans-{attempted}.json") if trace and attempted % 2 else None
        attempted += 1
        try:
            rec = spawn({"calls": w.calls, "trace": span_file})
            digests = {name: _sha256(path) for name, path in w.outputs.items()}
            check_outputs(w, digests, first_digests, pins)
            first_digests = first_digests or digests
            if span_file:
                spans = _load(span_file)
                layer_metrics.append(check_trace(w, spans))
                run_id = f"{w.name}/{w.seed}/{attempted - 1}"
                spans_out.extend([run_id, *s] for s in spans)
        except SampleError as exc:
            failed += 1
            print(f"error: sample {attempted - 1}: {exc}", file=sys.stderr)
            continue
        lbrm, naive = w.aurocs()
        (traced if span_file else records).append(rec)

    print(f"samples: {attempted} attempted, {failed} failed, {len(records)} untraced ok")
    for key in ("wall_s", "cpu_s", "reference_s"):
        print(f"{key} by sample: " + " ".join(f"{r[key]:.4f}" for r in records))
    for name, path in w.outputs.items():
        if os.path.exists(path):
            print(f"digest {w.name} seed {w.seed} {name} {_sha256(path)}")
    print(f"lbrm_auroc {lbrm!r} naive_auroc {naive!r}")
    if trace:
        metrics = {k: median([m[k] for m in layer_metrics]) for k in tracing.derive([])}
        for k in tracing.derive_setup([]):
            metrics[k] = median([m[k] for m in setup_metrics])
        metrics["setup.s"] = median(prep_walls)
        metrics["metrics.lbrm_auroc"] = lbrm
        metrics["run.wall_s"] = median([r["wall_s"] for r in records])
        metrics["run.cpu_s"] = median([r["cpu_s"] for r in records])
        metrics["run.reference_s"] = median([r["reference_s"] for r in records])
        metrics["trace.wall_s"] = median([r["wall_s"] for r in traced])
        # Traced minus untraced wall time, each taken relative to its own
        # reference and put back in seconds at the run's median reference.
        metrics["trace.overhead_s"] = metrics["run.reference_s"] * (
            median([r["wall_s"] / r["reference_s"] for r in traced])
            - median([r["wall_s"] / r["reference_s"] for r in records]))
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        with open(os.path.join(WORK, "traces", f"{w.name}-seed{w.seed}.json"), "w") as fh:
            json.dump({"columns": ["run", "name", "start", "end", "parent", "units"], "spans": spans_out}, fh)
    else:
        print(f"raw medians: wall {median([r['wall_s'] for r in records])!r} s, "
              f"cpu {median([r['cpu_s'] for r in records])!r} s, "
              f"reference {median([r['reference_s'] for r in records])!r} s")
        metrics = {
            "wall_rel": median([r["wall_s"] / r["reference_s"] for r in records]),
            "cpu_rel": median([r["cpu_s"] / r["reference_s"] for r in records]),
            "setup_s": median([r["setup_s"] for r in records]) + median(prep_walls),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in records]),
            "ok_frac": (attempted - failed) / attempted,
        }
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("s2-fixture", "s2-attention", "audit-long"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=_load(os.path.join(ROOT, "BENCHMARK.json"))["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "imputeaudit", "cli.py")):
        print(f"error: no imputeaudit sources under {ROOT}/src", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    info = machine()
    try:
        w = Workload(args.workload, args.seed, workdir)
        metrics, attempted, failed = run(w, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["loadavg_end"] = list(os.getloadavg())
    print("machine " + json.dumps(info, sort_keys=True))
    declared = _load(os.path.join(ROOT, "BENCHMARK.json"))["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if metrics and set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 2
    for name, unit in units.items():
        print(f"{name} {metrics.get(name, 0.0)!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
