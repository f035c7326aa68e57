"""Every function the benchmark's span tracer wraps must still exist under the name it wraps.

The tracer (benchmarks/tracing.py) replaces each ``SITES`` entry by name, so a
renamed or deleted function would otherwise fail every traced benchmark
sample instead of this test. The audit-long workload's bytes are pinned here
too, so a change to the model-file, scores or labels readers that moves them
fails the suite before it fails a benchmark sample.
"""
from __future__ import annotations

import hashlib
import importlib
import json
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_traced_site_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    unresolved = []
    for where, attr, _, _ in tracing.SITES:
        module, _, cls = where.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            unresolved.append(f"{where}.{attr}")
    assert tracing.SITES
    assert unresolved == []


def test_attack_makes_one_dtw_call_and_one_impute_call_per_query(monkeypatch, tiny_corpus, fresh_model):
    # The traced benchmark counts wrapped calls: DTW pairs = queries = 2 x candidates x repeats.
    # A batched DTW or query path has to fail here before it fails a traced sample, and so
    # does a run that stops calling attack's own single_unit_mask (a traced run needs its
    # core.mask span).
    from imputeaudit import attack, models

    counts = {"dtw": 0, "impute": 0, "mask": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(attack, "dtw_distance", counted(attack.dtw_distance, "dtw"))
    monkeypatch.setattr(models.TrainedImputer, "impute", counted(models.TrainedImputer.impute, "impute"))
    monkeypatch.setattr(attack, "single_unit_mask", counted(attack.single_unit_mask, "mask"))
    cfg = attack.AttackConfig(repeats=3, block_length=2)
    attack.run_attack(fresh_model, fresh_model, list(tiny_corpus), cfg)
    assert counts["dtw"] == counts["impute"] == 2 * len(tiny_corpus) * cfg.repeats
    assert counts["mask"] == len(tiny_corpus) * cfg.repeats


def test_audit_long_path_reproduces_its_pinned_bytes(monkeypatch, tmp_path):
    # The benchmark's audit-long calls (benchmarks/run.py) at its pinned seed: save two models,
    # then load them, score the candidates and summarize the scores against the labels.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    child = importlib.import_module("child")
    from imputeaudit.cli import main

    pins = json.loads((BENCHMARKS / "pins.json").read_text())
    seed = pins["seed"]
    prep = tmp_path / "prep"
    prep.mkdir()
    child.prepare_audit_long(str(prep), json.loads((BENCHMARKS / "audit_long.json").read_text()), seed)
    scores, summary = tmp_path / "scores.json", tmp_path / "summary.json"
    assert main(["attack", "--target", str(prep / "target.json"), "--reference", str(prep / "reference.json"),
                 "--candidates", str(prep / "candidates.csv"), "--config", str(prep / "attack.json"),
                 "--out", str(scores), "--seed", str(seed)]) == 0
    assert main(["metrics", "--scores", str(scores), "--labels", str(prep / "labels.json"),
                 "--out", str(summary)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (scores, summary)}
    assert digests == pins["digests"]["audit-long"]


def test_s2_attention_run_reproduces_its_pinned_bytes(tmp_path):
    # The benchmark's s2-attention call (benchmarks/run.py) at its pinned seed: the only
    # workload that trains and queries the attention imputer.
    from imputeaudit.cli import main

    pins = json.loads((BENCHMARKS / "pins.json").read_text())
    assert main(["scenario2", "--config", str(BENCHMARKS / "s2_attention.json"), "--seed", str(pins["seed"]),
                 "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("report.json", "scores.json")}
    assert digests == pins["digests"]["s2-attention"]
