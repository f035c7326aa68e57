"""Outside-in span tracing for the benchmark's traced runs.

The tracer wraps the public functions of each imputeaudit layer from outside
the package, at the name each calling module binds: ``imputeaudit.harness.train``
is wrapped separately from ``imputeaudit.models.train`` because the harness
imported its own reference. Spans stay in memory as
``[name, start, end, parent, units]`` rows and are written out once, when the
sample ends; ``derive`` turns one sample's spans into the per-layer metrics.
"""
from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from collections import defaultdict


def _train_steps(fn):
    """Gradient steps a train/fine_tune call will take, from its arguments."""
    sig = inspect.signature(fn)

    def count(args, kwargs) -> int:
        bound = sig.bind(*args, **kwargs).arguments
        data = bound.get("dataset", bound.get("private"))
        cfg = bound["cfg"]
        return cfg.epochs * math.ceil(len(data) / cfg.batch_size)

    return count


# (module or "module:Class", attribute, span name, unit counter or None).
# Span names are "<layer>.<operation>"; the layer is the part before the dot.
SITES = [
    ("imputeaudit.cli", "main", "cli.main", None),
    ("imputeaudit.harness", "config_from_file", "harness.config_from_file", None),
    ("imputeaudit.harness", "run_experiment", "harness.run_experiment", None),
    ("imputeaudit.harness", "run_scenario2", "harness.run_scenario2", None),
    ("imputeaudit.harness", "write_experiment_outputs", "harness.write_outputs", None),
    ("imputeaudit.harness", "generate_synthetic", "data.generate", None),
    ("imputeaudit.data", "generate_synthetic", "data.generate", None),
    ("imputeaudit.harness", "split_scenario2", "data.split", None),
    ("imputeaudit.data", "split_scenario1", "data.split", None),
    ("imputeaudit.data", "load_csv", "data.load_csv", None),
    ("imputeaudit.data", "save_csv", "data.save_csv", None),
    ("imputeaudit.harness", "zscore_normalize", "core.zscore", None),
    ("imputeaudit.cli", "zscore_normalize", "core.zscore", None),
    ("imputeaudit.core", "zscore_normalize", "core.zscore", None),
    ("imputeaudit.attack", "single_unit_mask", "core.mask", None),
    ("imputeaudit.harness", "train", "models.train", _train_steps),
    ("imputeaudit.models", "train", "models.train", _train_steps),
    ("imputeaudit.harness", "fine_tune", "models.fine_tune", _train_steps),
    ("imputeaudit.harness", "parity_check", "models.parity_check", None),
    ("imputeaudit.models:TrainedImputer", "impute", "models.impute", None),
    ("imputeaudit.models", "load_model", "models.load_model", None),
    ("imputeaudit.models", "save_model", "models.save_model", None),
    ("imputeaudit.harness", "run_attack", "attack.run_attack", None),
    ("imputeaudit.attack", "run_attack", "attack.run_attack", None),
    ("imputeaudit.attack", "lbrm_score", "attack.lbrm_score", None),
    ("imputeaudit.attack", "dtw_distance", "dtw.dtw_distance", None),
    ("imputeaudit.harness", "metrics_from_report", "metrics.summary", None),
    ("imputeaudit.cli", "headline_summary", "metrics.summary", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            units = counter(args, kwargs) if counter else 0
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, units])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return traced

    def install(self) -> None:
        for where, attr, name, make_counter in SITES:
            module, _, cls = where.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            fn = getattr(owner, attr)
            setattr(owner, attr, self._wrap(fn, name, make_counter(fn) if make_counter else None))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _under(spans: list[list], idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _per(total: float, count: int, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def span_table(spans: list[list]) -> dict[str, dict]:
    """Calls, total seconds and self seconds per span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0})
    for (name, start, end, _, units), inner in zip(spans, child_time):
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - inner
        row["units"] += units
    return dict(table)


def derive(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced sample (see BENCHMARK.json per_layer)."""
    t = span_table(spans)

    def total(name: str) -> float:
        return t.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return t.get(name, {}).get("calls", 0)

    def layer_self(layer: str) -> float:
        return sum((row["self_s"] for name, row in t.items() if name.split(".", 1)[0] == layer), 0.0)

    impute = [i for i, s in enumerate(spans) if s[0] == "models.impute"]
    attack_queries = sum(_under(spans, i, "attack.run_attack") for i in impute)
    candidates = sum(_under(spans, i, "attack.run_attack") for i, s in enumerate(spans) if s[0] == "attack.lbrm_score")
    train_steps = t.get("models.train", {}).get("units", 0)
    return {
        "dtw.calls": calls("dtw.dtw_distance"),
        "dtw.s": total("dtw.dtw_distance"),
        "dtw.pair_us": _per(total("dtw.dtw_distance"), calls("dtw.dtw_distance"), 1e6),
        "models.train_s": total("models.train"),
        "models.train_steps": train_steps,
        "models.train_step_us": _per(total("models.train"), train_steps, 1e6),
        "models.fine_tune_s": total("models.fine_tune"),
        "models.parity_s": total("models.parity_check"),
        "models.parity_queries": sum(_under(spans, i, "models.parity_check") for i in impute),
        "models.impute_calls": len(impute),
        "models.impute_us": _per(total("models.impute"), len(impute), 1e6),
        "models.load_s": total("models.load_model"),
        "attack.s": total("attack.run_attack"),
        "attack.self_s": layer_self("attack"),
        "attack.queries": attack_queries,
        "attack.queries_per_candidate": _per(attack_queries, candidates),
        "core.mask_calls": calls("core.mask"),
        "core.mask_s": total("core.mask"),
        "core.zscore_s": total("core.zscore"),
        "data.generate_s": total("data.generate"),
        "data.split_s": total("data.split"),
        "data.load_csv_s": total("data.load_csv"),
        "metrics.s": layer_self("metrics"),
        "harness.self_s": layer_self("harness"),
        "harness.write_s": total("harness.write_outputs"),
        "cli.self_s": layer_self("cli"),
    }


def derive_setup(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced workload preparation."""
    t = span_table(spans)
    train = t.get("models.train", {"total_s": 0.0, "units": 0})
    return {
        "setup.train_s": train["total_s"],
        "setup.train_step_us": _per(train["total_s"], train["units"], 1e6),
        "setup.save_csv_s": t.get("data.save_csv", {}).get("total_s", 0.0),
    }
