"""Command-line entry point.

Subcommands cover the pieces individually (generate / train / attack /
metrics) and the two full pipelines (scenario1 / scenario2). Everything is
seeded; rerunning a command with the same inputs reproduces its outputs
byte for byte.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import replace

from . import attack as attack_mod
from . import data as data_mod
from . import harness, models
from .core import _load, _read, _write_json, zscore_normalize
from .metrics import LabeledScores, headline_summary


def _normalized_corpus(path: str):
    return [zscore_normalize(s)[0] for s in data_mod.load_csv(path)]


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = _load(data_mod.SyntheticConfig, args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    data_mod.save_csv(data_mod.generate_synthetic(cfg), args.out)
    print(f"wrote {cfg.count} series to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load(models.ImputerConfig, args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    corpus = _normalized_corpus(args.data)
    model = models.train(corpus, cfg)
    models.save_model(model, args.out)
    print(f"trained {cfg.architecture} on {len(corpus)} series; final loss {model.history[-1]:.6f}; saved to {args.out}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    cfg = _load(attack_mod.AttackConfig, args.config) if args.config else attack_mod.AttackConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    target = models.load_model(args.target)
    reference = models.load_model(args.reference)
    candidates = _normalized_corpus(args.candidates)
    nonmembers = _normalized_corpus(args.known_nonmembers) if args.known_nonmembers else None
    report = attack_mod.run_attack(target, reference, candidates, cfg, known_nonmembers=nonmembers)
    _write_json(attack_mod.report_to_dict(report), args.out)
    flagged = sum(report.is_member)
    print(f"scored {len(candidates)} candidates; theta={report.theta:.6g}; {flagged} flagged as members")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    report = attack_mod.report_from_dict(_load(dict, args.scores))
    label_map = _load(dict, args.labels)
    labels = []
    for score in report.scores:
        if score.candidate_id not in label_map:
            raise ValueError(f"labels file has no entry for candidate {score.candidate_id!r}")
        labels.append(_read(bool, label_map[score.candidate_id], f"the label of candidate {score.candidate_id!r} in {args.labels}"))
    lbrm = headline_summary(LabeledScores([s.r for s in report.scores], labels))
    naive = headline_summary(LabeledScores([s.l_t for s in report.scores], labels))
    summary = {"lbrm": lbrm, "naive": naive}
    if args.out:
        _write_json(summary, args.out)
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    cfg = harness.config_from_file(args.config)
    expected = int(args.scenario)
    if cfg.scenario != expected:
        raise ValueError(f"config declares scenario {cfg.scenario}, but the {'scenario%d' % expected} command was invoked")
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.override_parity:
        cfg = replace(cfg, override_parity=True)
    started = time.monotonic()
    report = harness.run_experiment(cfg)
    elapsed = time.monotonic() - started
    out_dir = harness.write_experiment_outputs(report, args.out)
    print(
        f"scenario {cfg.scenario} done in {elapsed:.1f}s: "
        f"LBRM AUROC {report.lbrm_metrics['auroc']:.3f} vs naive {report.naive_metrics['auroc']:.3f}; "
        f"outputs in {out_dir}"
    )
    return 0


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="imputeaudit", description="Membership-inference audit for time-series imputers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic corpus to CSV")
    p.add_argument("--config", required=True, help="SyntheticConfig JSON")
    p.add_argument("--out", required=True, help="corpus CSV path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train an imputer on a CSV corpus")
    p.add_argument("--data", required=True, help="corpus CSV path")
    p.add_argument("--config", required=True, help="ImputerConfig JSON")
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("attack", help="score candidates against target and reference models")
    p.add_argument("--target", required=True, help="target model file")
    p.add_argument("--reference", required=True, help="reference model file")
    p.add_argument("--candidates", required=True, help="candidates CSV path")
    p.add_argument("--config", default=None, help="AttackConfig JSON (defaults apply if omitted)")
    p.add_argument("--known-nonmembers", default=None, help="CSV of known nonmembers (std_rule calibration; an error with any other rule)")
    p.add_argument("--out", required=True, help="scores JSON path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("metrics", help="recompute headline metrics from a scores file")
    p.add_argument("--scores", required=True, help="scores JSON (attack output)")
    p.add_argument("--labels", required=True, help="JSON mapping candidate id -> is_member")
    p.add_argument("--out", default=None, help="optional summary JSON path")
    p.set_defaults(func=_cmd_metrics)

    for n in (1, 2):
        p = sub.add_parser(f"scenario{n}", help=f"run the full scenario-{n} pipeline")
        p.add_argument("--config", required=True, help="ExperimentConfig JSON")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--override-parity", action="store_true", help="run even if the parity gate fails")
        p.set_defaults(func=_cmd_scenario, scenario=n)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
