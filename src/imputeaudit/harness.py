"""End-to-end experiment pipelines: train, parity-gate, attack, report.

Both scenarios share one backbone: build a normalized corpus, split it, train
a target and a reference imputer, check they are of comparable skill, then
score private (member) and test (nonmember) series with the ratio attack and
the naive-loss baseline over identical mask schedules. Every stage seed is
derived from the master seed, and a run reads no clock and nothing set
outside its config, so every output file is a pure function of
(config, master seed).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import ClassVar

from .attack import AttackConfig, AttackReport, StdRule, report_to_dict, run_attack
from .core import TimeSeries, _load, _read, _to_dict, _write_json, derive_seed, zscore_normalize
from .data import (
    ScenarioSplit,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    split_scenario1,
    split_scenario2,
)
from .metrics import LabeledScores, RocCurve, headline_summary, roc_curve, write_roc_csv
from .models import ARCHITECTURE_FIELDS, ImputerConfig, ParityReport, TrainedImputer, fine_tune, parity_check, train

__all__ = [
    "CsvSource",
    "ExperimentConfig",
    "ExperimentReport",
    "ParityError",
    "config_from_dict",
    "config_from_file",
    "config_to_dict",
    "run_scenario1",
    "run_scenario2",
    "run_experiment",
    "metrics_from_report",
    "report_json_dict",
    "write_experiment_outputs",
]


class ParityError(RuntimeError):
    """Target and reference skill differ too much for the ratio to mean anything."""


@dataclass(frozen=True)
class CsvSource:
    TAG: ClassVar[tuple[str, str]] = ("source", "csv")

    path: str


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: int
    data: SyntheticConfig | CsvSource
    target_model: ImputerConfig
    reference_model: ImputerConfig
    master_seed: int = 0
    attack: AttackConfig = field(default_factory=AttackConfig)
    fine_tune: ImputerConfig | None = None
    parity_tolerance: float = 0.1
    parity_fraction: float = 0.2
    output_dir: str = "out"
    override_parity: bool = False
    independent_reference: bool = False

    def __post_init__(self) -> None:
        if self.scenario not in (1, 2):
            raise ValueError(f"scenario must be 1 or 2, got {self.scenario}")
        if self.scenario == 1 and self.fine_tune is not None:
            raise ValueError("fine_tune is for scenario 2 only: scenario 1 trains its target from target_model")
        if self.scenario == 1 and self.independent_reference:
            raise ValueError("independent_reference is for scenario 2 only: scenario 1 always trains its own reference")
        if self.scenario == 2 and self.fine_tune is None:
            raise ValueError("scenario 2 requires a fine_tune config")
        if self.scenario == 2 and replace(self.target_model, seed=self.reference_model.seed) != self.reference_model:
            raise ValueError(
                "scenario 2 fine-tunes the reference base into the target, so target_model must equal "
                "reference_model in every field but seed"
            )
        # Checked here, before the base model trains, as well as by fine_tune itself.
        if self.fine_tune is not None:
            for name in ARCHITECTURE_FIELDS:
                if getattr(self.fine_tune, name) != getattr(self.reference_model, name):
                    raise ValueError(f"fine-tune config changes architecture field {name!r} of reference_model")
        if not 0 < self.parity_tolerance < math.inf:  # NaN fails too
            raise ValueError(f"parity_tolerance must be finite and positive, got {self.parity_tolerance}")
        if not 0.0 < self.parity_fraction < 1.0:
            raise ValueError("parity_fraction must be in (0, 1)")


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    config: ExperimentConfig
    parity: ParityReport
    attack_report: AttackReport
    labels: tuple[bool, ...]
    lbrm_metrics: dict[str, float]
    naive_metrics: dict[str, float]
    lbrm_curve: RocCurve
    naive_curve: RocCurve


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse the documented JSON schema (see README) into an ExperimentConfig.

    An unknown key, at the top level or in any nested block, or a value of the
    wrong type raises ValueError naming the key and where it is, so a misspelt
    key cannot run a different audit.
    """
    return _read(ExperimentConfig, doc, "the experiment config")


def config_from_file(path: str) -> ExperimentConfig:
    return _load(ExperimentConfig, path)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical echo of the config for reports (JSON-safe, deterministic): the
    schema ``config_from_dict`` reads, with every field filled in."""
    return _to_dict(cfg)


def _load_corpus(cfg: ExperimentConfig) -> list[TimeSeries]:
    if isinstance(cfg.data, SyntheticConfig):
        corpus = generate_synthetic(replace(cfg.data, seed=derive_seed(cfg.master_seed, "data")))
    else:
        corpus = load_csv(cfg.data.path)
    steps, dims = corpus[0].shape  # every series of a corpus has one shape
    shape = f"a {steps}x{dims} series"
    # The parity mask hides round(fraction * steps * dims) entries (core.random_missing_mask).
    if round(cfg.parity_fraction * steps * dims) == 0:
        raise ValueError(f"parity_fraction {cfg.parity_fraction} hides no entry of {shape}")
    if cfg.attack.dim >= dims:
        raise ValueError(f"attack.dim {cfg.attack.dim} is not a dimension of {shape}")
    if cfg.attack.block_length >= steps:
        raise ValueError(f"attack.block_length {cfg.attack.block_length} covers all of {shape}")
    return [zscore_normalize(s)[0] for s in corpus]


def metrics_from_report(report: AttackReport, labels: list[bool]):
    """Headline metric blocks for both methods, straight from the score record.

    The naive baseline is a projection of the same record (target loss only):
    no additional oracle queries are ever made for it. Theta never enters.
    """
    if len(labels) != len(report.scores):
        raise ValueError(f"{len(labels)} labels for {len(report.scores)} scores")
    lbrm = LabeledScores([s.r for s in report.scores], labels)
    naive = LabeledScores([s.l_t for s in report.scores], labels)
    return headline_summary(lbrm), headline_summary(naive), roc_curve(lbrm), roc_curve(naive)


def _finish(cfg: ExperimentConfig, split: ScenarioSplit, target: TrainedImputer, reference: TrainedImputer) -> ExperimentReport:
    parity = parity_check(
        target,
        reference,
        list(split.test),
        cfg.parity_tolerance,
        fraction=cfg.parity_fraction,
        seed=derive_seed(cfg.master_seed, "parity"),
    )
    if not parity.passed and not cfg.override_parity:
        raise ParityError(
            f"model parity failed: target MAE {parity.mae_target:.4f} vs reference MAE "
            f"{parity.mae_reference:.4f} (gap {parity.gap:.4f} > tolerance {parity.tolerance})"
        )

    candidates = list(split.private) + list(split.test)
    labels = [True] * len(split.private) + [False] * len(split.test)
    attack_cfg = replace(cfg.attack, seed=derive_seed(cfg.master_seed, "attack"))
    nonmembers = list(split.test) if isinstance(attack_cfg.theta_rule, StdRule) else None
    report = run_attack(target, reference, candidates, attack_cfg, known_nonmembers=nonmembers)

    lbrm_metrics, naive_metrics, lbrm_curve, naive_curve = metrics_from_report(report, labels)
    return ExperimentReport(
        config=cfg,
        parity=parity,
        attack_report=report,
        labels=tuple(labels),
        lbrm_metrics=lbrm_metrics,
        naive_metrics=naive_metrics,
        lbrm_curve=lbrm_curve,
        naive_curve=naive_curve,
    )


def run_scenario1(cfg: ExperimentConfig) -> ExperimentReport:
    """Target trained on the private split only; reference on the public split."""
    corpus = _load_corpus(cfg)
    split = split_scenario1(corpus, derive_seed(cfg.master_seed, "split"))
    target = train(list(split.private), replace(cfg.target_model, seed=derive_seed(cfg.master_seed, "target")))
    reference = train(list(split.public), replace(cfg.reference_model, seed=derive_seed(cfg.master_seed, "reference")))
    return _finish(cfg, split, target, reference)


def run_scenario2(cfg: ExperimentConfig) -> ExperimentReport:
    """Base model trained on public data, then fine-tuned on private data.

    The reference is the un-fine-tuned base itself (cheapest skill-matched
    benchmark); set independent_reference to train a separate one instead.
    """
    corpus = _load_corpus(cfg)
    split = split_scenario2(corpus, derive_seed(cfg.master_seed, "split"))
    base = train(list(split.public), replace(cfg.reference_model, seed=derive_seed(cfg.master_seed, "reference")))
    if cfg.independent_reference:
        reference = train(
            list(split.public),
            replace(cfg.reference_model, seed=derive_seed(cfg.master_seed, "reference-independent")),
        )
    else:
        reference = base
    assert cfg.fine_tune is not None  # enforced by ExperimentConfig
    target = fine_tune(base, list(split.private), replace(cfg.fine_tune, seed=derive_seed(cfg.master_seed, "fine-tune")))
    return _finish(cfg, split, target, reference)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    return run_scenario1(cfg) if cfg.scenario == 1 else run_scenario2(cfg)


def report_json_dict(report: ExperimentReport) -> dict:
    """The report.json payload; two runs with the same config and seed
    serialize byte-identically. A std_rule report also says how many of the
    nonmembers theta was calibrated on were candidates too (``calibration``);
    the scenario pipelines calibrate on the test split they score, so there it
    is all of them."""
    members = sum(report.labels)
    attack_doc = report_to_dict(report.attack_report)
    del attack_doc["per_candidate"]  # theta, theta_rule and, for std_rule, calibration stay
    return {
        "scenario": report.config.scenario,
        "master_seed": report.config.master_seed,
        "config": config_to_dict(report.config),
        "parity": {**_to_dict(report.parity), "gap": report.parity.gap},
        **attack_doc,
        "candidates": {"members": members, "nonmembers": len(report.labels) - members},
        "methods": {"lbrm": report.lbrm_metrics, "naive": report.naive_metrics},
        "roc_files": {"lbrm": "roc_lbrm.csv", "naive": "roc_naive.csv"},
    }


def write_experiment_outputs(report: ExperimentReport, out_dir: str | None = None) -> str:
    """Write report.json, scores.json and both ROC CSVs atomically into
    ``out_dir``, or else the config's output_dir, and return that directory."""
    resolved = out_dir or report.config.output_dir
    os.makedirs(resolved, exist_ok=True)
    _write_json(report_json_dict(report), os.path.join(resolved, "report.json"))
    _write_json(report_to_dict(report.attack_report), os.path.join(resolved, "scores.json"))
    write_roc_csv(report.lbrm_curve, os.path.join(resolved, "roc_lbrm.csv"))
    write_roc_csv(report.naive_curve, os.path.join(resolved, "roc_naive.csv"))
    return resolved
