from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import CountingOracle

from imputeaudit.attack import AttackConfig, FixedTheta, StdRule, TopPercentRule, report_from_dict, run_attack
from imputeaudit import harness
from imputeaudit.cli import main
from imputeaudit.core import derive_seed
from imputeaudit.data import SyntheticConfig, generate_synthetic, save_csv
from imputeaudit.harness import (
    CsvSource,
    ExperimentConfig,
    ParityError,
    config_from_dict,
    config_from_file,
    config_to_dict,
    metrics_from_report,
    report_json_dict,
    run_experiment,
    run_scenario1,
    run_scenario2,
    write_experiment_outputs,
)
from imputeaudit.models import ImputerConfig

MINI_DATA = SyntheticConfig(count=40, length=32, seed=0, amplitude_range=(0.3, 3.0), noise_scale=0.7, ar_coeff=0.5)
MINI_MODEL = ImputerConfig(architecture="autoencoder", hidden=16, latent=8, epochs=30, batch_size=8,
                           learning_rate=0.05, momentum=0.9, mask_fraction=0.2)
MINI_TUNE = ImputerConfig(architecture="autoencoder", hidden=16, latent=8, epochs=20, batch_size=4,
                          learning_rate=0.01, momentum=0.9, mask_fraction=0.2)


def mini_config(scenario, **overrides):
    base = dict(
        scenario=scenario,
        master_seed=5,
        data=MINI_DATA,
        target_model=MINI_MODEL,
        reference_model=MINI_MODEL,
        attack=AttackConfig(repeats=4, theta_rule=TopPercentRule(25.0)),
        fine_tune=MINI_TUNE if scenario == 2 else None,
        parity_tolerance=0.5,
        output_dir="out-mini",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def scenario2_report():
    return run_scenario2(mini_config(2))


def test_scenario2_report_shape(scenario2_report):
    report = scenario2_report
    assert sum(report.labels) == 8 and report.labels.count(False) == 8
    assert len(report.attack_report.is_member) == 16
    assert set(report.lbrm_metrics) == {"auroc", "tpr_at_0_1", "tpr_at_top25"}
    assert set(report.naive_metrics) == {"auroc", "tpr_at_0_1", "tpr_at_top25"}


def test_scenario2_target_differs_from_base(scenario2_report):
    # the fine-tuned target moved away from the reference/base parameters
    echo = config_to_dict(scenario2_report.config)
    assert echo["fine_tune"] is not None
    scores = scenario2_report.attack_report.scores
    assert any(s.r != 1.0 for s in scores)


def test_scenario1_runs_and_pools_match():
    report = run_scenario1(mini_config(1))
    assert sum(report.labels) == 16 and report.labels.count(False) == 8
    assert len(report.labels) == 24
    assert sum(report.labels) == 16


def test_scenario_requires_fine_tune_config():
    with pytest.raises(ValueError):
        mini_config(2, fine_tune=None)


def test_scenario2_rejects_a_target_model_it_would_ignore():
    with pytest.raises(ValueError, match="target_model"):
        mini_config(2, target_model=MINI_TUNE)
    # the seed is re-derived per stage, so a different one is no contradiction
    assert mini_config(2, target_model=replace(MINI_MODEL, seed=99)).target_model.seed == 99
    # scenario 1 trains the target from target_model, so it may differ freely
    assert mini_config(1, target_model=MINI_TUNE).target_model == MINI_TUNE


@pytest.mark.parametrize("field, value", [("hidden", 12), ("latent", 4), ("architecture", "attention")])
def test_config_rejects_a_fine_tune_that_changes_the_architecture(field, value):
    # Caught when the config is read, before the base model trains, with the field named.
    with pytest.raises(ValueError, match=f"^fine-tune config changes architecture field '{field}' of reference_model$"):
        mini_config(2, fine_tune=replace(MINI_TUNE, **{field: value}))
    doc = config_to_dict(mini_config(2))
    doc["fine_tune"][field] = value
    with pytest.raises(ValueError, match=f"^the experiment config: fine-tune config changes architecture field '{field}'"):
        config_from_dict(doc)


@pytest.mark.parametrize("field, value", [("fine_tune", MINI_TUNE), ("independent_reference", True)])
def test_scenario1_rejects_a_block_it_would_ignore(field, value):
    with pytest.raises(ValueError, match=f"^{field} is for scenario 2 only"):
        mini_config(1, **{field: value})
    doc = config_to_dict(mini_config(1))
    doc[field] = config_to_dict(mini_config(2))[field] if field == "fine_tune" else value
    with pytest.raises(ValueError, match=f"^the experiment config: {field} is for scenario 2 only"):
        config_from_dict(doc)


def test_independent_reference_is_trained_apart_from_the_base(scenario2_report):
    report = run_scenario2(mini_config(2, independent_reference=True))
    assert report_json_dict(report)["config"]["independent_reference"] is True
    assert report.parity.mae_reference != scenario2_report.parity.mae_reference
    with pytest.raises(ParityError):
        run_scenario2(mini_config(2, independent_reference=True, parity_tolerance=1e-9))


def test_run_experiment_dispatch():
    report = run_experiment(mini_config(1))
    assert report.config.scenario == 1


def test_parity_gate_aborts_and_override_runs():
    strict = mini_config(2, parity_tolerance=1e-9)
    with pytest.raises(ParityError):
        run_scenario2(strict)
    forced = mini_config(2, parity_tolerance=1e-9, override_parity=True)
    report = run_scenario2(forced)
    assert not report.parity.passed


def test_report_json_deterministic_and_excludes_wall_clock():
    a = run_scenario2(mini_config(2))
    b = run_scenario2(mini_config(2))
    payload_a = json.dumps(report_json_dict(a), sort_keys=True)
    payload_b = json.dumps(report_json_dict(b), sort_keys=True)
    assert payload_a == payload_b
    assert "wall_clock" not in payload_a


def test_outputs_written(tmp_path, scenario2_report):
    out = write_experiment_outputs(scenario2_report, str(tmp_path / "run"))
    for name in ("report.json", "scores.json", "roc_lbrm.csv", "roc_naive.csv"):
        assert (tmp_path / "run" / name).exists()
    doc = json.loads((tmp_path / "run" / "report.json").read_text())
    assert doc["scenario"] == 2
    assert set(doc["methods"]) == {"lbrm", "naive"}
    # scores.json round-trips through the attack-report codec
    report_from_dict(json.loads((tmp_path / "run" / "scores.json").read_text()))


def test_output_dir_defaults_to_the_config_not_a_variable(tmp_path, monkeypatch, scenario2_report):
    # No variable of the process names it: the directory is the caller's or the config's.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("IMPUTEAUDIT_OUT", str(tmp_path / "env-out"))
    assert write_experiment_outputs(scenario2_report) == "out-mini"
    assert (tmp_path / "out-mini" / "report.json").exists()
    assert not (tmp_path / "env-out").exists()


def test_metrics_command_agrees_with_the_run_report(tmp_path, scenario2_report):
    # harness.metrics_from_report and `imputeaudit metrics` each rank LBRM by r and naive by l_t.
    out = Path(write_experiment_outputs(scenario2_report, str(tmp_path / "run")))
    labels = {s.candidate_id: member for s, member in zip(scenario2_report.attack_report.scores, scenario2_report.labels)}
    assert len(labels) == len(scenario2_report.labels)
    (tmp_path / "labels.json").write_text(json.dumps(labels))
    assert main(["metrics", "--scores", str(out / "scores.json"), "--labels", str(tmp_path / "labels.json"),
                 "--out", str(tmp_path / "summary.json")]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary == json.loads((out / "report.json").read_text())["methods"]


def test_theta_rules_do_not_change_headline_metrics(scenario2_report):
    report = scenario2_report.attack_report
    labels = list(scenario2_report.labels)
    blocks = []
    for rule in (StdRule(1.0), StdRule(2.0), TopPercentRule(25.0), FixedTheta(1.0)):
        lbrm, naive, _, _ = metrics_from_report(report, labels)
        blocks.append(json.dumps({"lbrm": lbrm, "naive": naive}, sort_keys=True))
    assert len(set(blocks)) == 1


def test_metrics_from_report_label_mismatch(scenario2_report):
    with pytest.raises(ValueError):
        metrics_from_report(scenario2_report.attack_report, [True])


def test_naive_is_projection_of_lbrm_record(scenario2_report):
    report = scenario2_report.attack_report
    labels = list(scenario2_report.labels)
    _, naive_metrics, _, naive_curve = metrics_from_report(report, labels)
    # recompute naive AUROC from the l_t column alone
    from imputeaudit.metrics import LabeledScores, auroc, roc_curve

    direct = auroc(roc_curve(LabeledScores([s.l_t for s in report.scores], labels)))
    assert naive_metrics["auroc"] == pytest.approx(direct, abs=1e-15)


def test_config_json_round_trip(tmp_path):
    doc = {
        "scenario": 2,
        "master_seed": 9,
        "data": {"source": "synthetic", "family": "A", "count": 40, "length": 32,
                 "components": [1, 2], "amplitude_range": [0.5, 1.5], "noise_scale": 0.4, "ar_coeff": 0.3},
        "target_model": {"architecture": "autoencoder", "hidden": 16, "latent": 8, "epochs": 5},
        "reference_model": {"architecture": "autoencoder", "hidden": 16, "latent": 8, "epochs": 5},
        "fine_tune": {"architecture": "autoencoder", "hidden": 16, "latent": 8, "epochs": 3},
        "attack": {"repeats": 2, "theta_rule": {"kind": "std_rule", "n": 1.5}},
        "parity_tolerance": 0.3,
        "output_dir": "somewhere",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = config_from_file(str(path))
    assert cfg.scenario == 2
    assert isinstance(cfg.data, SyntheticConfig)
    assert cfg.data.components == (1, 2)
    assert cfg.attack.theta_rule == StdRule(1.5)
    echo = config_to_dict(cfg)
    assert echo["data"]["components"] == [1, 2]
    assert echo["attack"]["theta_rule"] == {"kind": "std_rule", "n": 1.5}


def test_config_csv_source(tmp_path):
    doc = {
        "scenario": 1,
        "data": {"source": "csv", "path": "corpus.csv"},
        "target_model": {"epochs": 1},
        "reference_model": {"epochs": 1},
    }
    cfg = config_from_dict(doc)
    assert cfg.data == CsvSource(path="corpus.csv")


def test_config_rejects_unknown_keys_by_name():
    doc = {"scenario": 1, "data": {"source": "csv", "path": "corpus.csv"},
           "target_model": {"epochs": 1}, "reference_model": {"epochs": 1}}
    assert config_from_dict(doc).parity_tolerance == ExperimentConfig.parity_tolerance
    with pytest.raises(ValueError, match="'parity_tolerence'"):
        config_from_dict({**doc, "parity_tolerence": 5})
    with pytest.raises(ValueError, match="'delimiter'"):
        config_from_dict({**doc, "data": {"source": "csv", "path": "corpus.csv", "delimiter": ";"}})
    # A required key left out is named too, not the dataclass constructor's TypeError.
    with pytest.raises(ValueError, match="missing key 'scenario' in the experiment config"):
        config_from_dict({k: v for k, v in doc.items() if k != "scenario"})
    with pytest.raises(ValueError, match="missing key 'path' in the csv data block"):
        config_from_dict({**doc, "data": {"source": "csv"}})


@pytest.mark.parametrize("block, where, key", [
    ("data", "the synthetic data block", "nosie_scale"),
    ("attack", "the attack block", "repeat"),
    ("target_model", "the target_model block", "epoch"),
    ("reference_model", "the reference_model block", "hiden"),
    ("fine_tune", "the fine_tune block", "learning_rte"),
])
def test_config_rejects_unknown_keys_in_nested_blocks_by_name(block, where, key):
    # A dataclass would raise TypeError; a caller catching ValueError for a bad config must see this one too.
    root = Path(__file__).resolve().parent.parent
    doc = json.loads((root / "configs/scenario2_fixture.json").read_text())
    doc[block] = {**doc[block], key: 1}
    with pytest.raises(ValueError, match=f"unknown key '{key}' in {where}"):
        config_from_dict(doc)


@pytest.mark.parametrize("path, value, match", [
    (["override_parity"], "false", "'override_parity' in the experiment config"),
    (["master_seed"], 7.9, "'master_seed' in the experiment config"),
    (["master_seed"], True, "'master_seed' in the experiment config"),
    (["target_model", "hidden"], True, "'hidden' in the target_model block"),
    (["fine_tune", "epochs"], 500.0, "'epochs' in the fine_tune block"),
    (["data", "components"], 3, "'components' in the synthetic data block"),
    (["attack"], None, "the attack block"),
    (["attack", "theta_rule", "percnt"], 10, "unknown key 'percnt' in the top_percent theta_rule block"),
    (["parity_tolerance"], json.loads("Infinity"), "'parity_tolerance' in the experiment config must be a finite float"),
    (["parity_tolerance"], json.loads("1e400"), "'parity_tolerance' in the experiment config must be a finite float"),
    (["parity_tolerance"], json.loads("NaN"), "'parity_tolerance' in the experiment config must be a finite float"),
    (["target_model", "learning_rate"], json.loads("NaN"), "'learning_rate' in the target_model block of the experiment config must be a finite float"),
    pytest.param(["fine_tune", "momentum"], 10**400, "'momentum' in the fine_tune block of the experiment config must be a finite float",
                 id="int_past_float"),
    pytest.param(["data", "components"], [1, 2, 3],
                 r"'components' in the synthetic data block of the experiment config must be a list of 2, got \[1, 2, 3\]",
                 id="tuple_of_the_wrong_length"),
])
def test_config_rejects_mistyped_values_by_name(path, value, match):
    # Each of these once parsed to a different audit: "false" as True, 7.9 as 7, true as 1, an infinite
    # tolerance as a parity gate that always passes, and so on; an integer past float's range raised OverflowError.
    root = Path(__file__).resolve().parent.parent
    doc = json.loads((root / "configs/scenario2_fixture.json").read_text())
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    with pytest.raises(ValueError, match=match):
        config_from_dict(doc)


@pytest.mark.parametrize("path, value, message", [
    (["fine_tune", "learning_rate"], -1.0,
     "the fine_tune block of the experiment config: learning_rate must be finite and nonnegative, got -1.0"),
    (["attack", "repeats"], 0, "the attack block of the experiment config: repeats must be >= 1"),
    (["data", "count"], 0,
     "the synthetic data block of the experiment config: count >= 1, length >= 2 and dims >= 1 required"),
    (["parity_tolerance"], -1.0, "the experiment config: parity_tolerance must be finite and positive, got -1.0"),
    (["scenario"], 3, "the experiment config: scenario must be 1 or 2, got 3"),
    (["parity_fraction"], 0.0, "the experiment config: parity_fraction must be in (0, 1)"),
    (["parity_fraction"], 1.0, "the experiment config: parity_fraction must be in (0, 1)"),
], ids=["fine_tune", "attack", "data", "top_level", "scenario", "parity_fraction_0", "parity_fraction_1"])
def test_config_names_the_block_of_a_value_out_of_range(path, value, message):
    # The class's own range check once gave only its text: three blocks of one config could hold a learning_rate.
    root = Path(__file__).resolve().parent.parent
    doc = json.loads((root / "configs/scenario2_fixture.json").read_text())
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_from_dict(doc)


def _echoes(given, echo) -> bool:
    """Every key of a config file is in the echo with the value the file gave."""
    if isinstance(given, dict):
        return isinstance(echo, dict) and all(k in echo and _echoes(v, echo[k]) for k, v in given.items())
    return given == echo


@pytest.mark.parametrize("path", ["configs/scenario1_fixture.json", "configs/scenario2_fixture.json",
                                  "benchmarks/s2_attention.json"])
def test_shipped_configs_parse_to_what_they_say(path):
    root = Path(__file__).resolve().parent.parent
    doc = json.loads((root / path).read_text())
    cfg = config_from_dict(doc)
    assert _echoes(doc, config_to_dict(cfg))
    assert config_from_dict(config_to_dict(cfg)) == cfg


def no_training(*args, **kwargs):
    raise AssertionError("trained before the config was checked")


def test_parity_fraction_that_hides_no_entry_is_rejected_before_training(monkeypatch):
    monkeypatch.setattr(harness, "train", no_training)
    doc = json.loads((Path(__file__).resolve().parent.parent / "configs/scenario2_fixture.json").read_text())
    # 0.005 * 64 steps * 1 dim rounds to no hidden entry, and 0.995 * 64 to all 64, which would
    # compare the models on blank views. The fraction next to each, which hides one entry or leaves
    # one observed, passes the check and reaches training.
    for rejected, accepted, match in [(0.005, 0.5 / 64 + 1e-9, "parity_fraction 0.005 hides no entry of a 64x1 series"),
                                      (0.995, 0.99, "parity_fraction 0.995 hides every entry of a 64x1 series")]:
        with pytest.raises(ValueError, match=match):
            harness.run_experiment(config_from_dict({**doc, "parity_fraction": rejected}))
        with pytest.raises(AssertionError, match="trained before"):
            harness.run_experiment(config_from_dict({**doc, "parity_fraction": accepted}))


@pytest.mark.parametrize("attack, match", [
    (AttackConfig(dim=1), "attack.dim 1 is not a dimension of a 32x1 series"),
    (AttackConfig(block_length=32), "attack.block_length 32 covers all of a 32x1 series"),
], ids=["dim", "block_length"])
def test_attack_block_outside_a_synthetic_series_is_rejected_before_training(monkeypatch, attack, match):
    monkeypatch.setattr(harness, "train", no_training)
    with pytest.raises(ValueError, match=match):
        harness.run_experiment(mini_config(1, attack=attack))
    # The largest block and dim that fit pass the check and reach training; the config itself
    # is checked against the corpus only once the run has loaded it, whatever its source.
    with pytest.raises(AssertionError, match="trained before"):
        harness.run_experiment(mini_config(1, attack=AttackConfig(dim=0, block_length=31)))
    assert mini_config(1, data=CsvSource("corpus.csv"), attack=attack).attack == attack


def _mini_corpus_csv(tmp_path) -> CsvSource:
    """The mini synthetic corpus, saved with the seed a run derives for its data."""
    path = str(tmp_path / "mini.csv")
    save_csv(generate_synthetic(replace(MINI_DATA, seed=derive_seed(mini_config(1).master_seed, "data"))), path)
    return CsvSource(path)


@pytest.mark.parametrize("fields, match", [
    ({"attack": AttackConfig(dim=1)}, "attack.dim 1 is not a dimension of a 32x1 series"),
    ({"attack": AttackConfig(block_length=32)}, "attack.block_length 32 covers all of a 32x1 series"),
    ({"parity_fraction": 0.0004}, "parity_fraction 0.0004 hides no entry of a 32x1 series"),
    ({"parity_fraction": 0.99}, "parity_fraction 0.99 hides every entry of a 32x1 series"),
], ids=["dim", "block_length", "parity_fraction", "parity_fraction_every_entry"])
def test_a_csv_config_that_misfits_its_corpus_is_rejected_before_training(monkeypatch, tmp_path, fields, match):
    monkeypatch.setattr(harness, "train", no_training)
    with pytest.raises(ValueError, match=match):
        harness.run_experiment(mini_config(1, data=_mini_corpus_csv(tmp_path), **fields))


def test_a_csv_source_run_scores_the_bytes_of_its_synthetic_run(tmp_path):
    # The same corpus, read from a file, gives the same scores.json byte for byte.
    runs = {"csv": mini_config(1, data=_mini_corpus_csv(tmp_path)), "synthetic": mini_config(1)}
    scores = {name: Path(write_experiment_outputs(run_experiment(cfg), str(tmp_path / name)), "scores.json").read_bytes()
              for name, cfg in runs.items()}
    assert scores["csv"] == scores["synthetic"]


NAN, INF = float("nan"), float("inf")


def scenario1(**fields):
    return mini_config(1, **fields)


@pytest.mark.parametrize("build, field, value", [
    (ImputerConfig, "learning_rate", NAN),
    (ImputerConfig, "momentum", INF),
    (ImputerConfig, "momentum", NAN),
    (scenario1, "parity_tolerance", NAN),
    (scenario1, "parity_tolerance", INF),
    (AttackConfig, "epsilon", NAN),
    (AttackConfig, "epsilon", INF),
    (StdRule, "n", NAN),
    (FixedTheta, "theta", NAN),
    (FixedTheta, "theta", INF),
    (SyntheticConfig, "noise_scale", NAN),
    (SyntheticConfig, "noise_scale", INF),
    (SyntheticConfig, "amplitude_range", (0.5, INF)),
])
def test_configs_built_in_python_reject_nan_and_infinity(build, field, value):
    # core._read rejects these in JSON; a config built in Python must name the field as well.
    with pytest.raises(ValueError, match=f"^{field} must"):
        build(**{field: value})


def test_a_three_dim_scenario1_run_completes():
    # Every width of candidate goes through one DTW path, so a multivariate audit runs to its report.
    report = run_experiment(mini_config(1, data=replace(MINI_DATA, dims=3)))
    scores = report.attack_report.scores
    assert len(scores) == 24 and all(np.isfinite(s.r) for s in scores)


def test_config_rejects_unknown_source():
    with pytest.raises(ValueError):
        config_from_dict({"scenario": 1, "data": {"source": "parquet"},
                          "target_model": {}, "reference_model": {}})


def test_std_rule_scenario_resolves_theta_from_test_split():
    cfg = mini_config(2, attack=AttackConfig(repeats=2, theta_rule=StdRule(1.0)))
    report = run_scenario2(cfg)
    assert np.isfinite(report.attack_report.theta)
    # Theta is calibrated on the test split, which is also scored: report.json says so.
    nonmembers = report.labels.count(False)
    assert report_json_dict(report)["calibration"] == {"nonmembers": nonmembers, "also_candidates": nonmembers}


def test_top_percent_report_has_no_calibration_block(scenario2_report):
    assert "calibration" not in report_json_dict(scenario2_report)


def test_std_rule_scenario_queries_each_candidate_once(monkeypatch):
    counted = []

    def counting_attack(target, reference, candidates, cfg, known_nonmembers=None):
        oracles = CountingOracle(target), CountingOracle(reference)
        counted.append((oracles, len(candidates), cfg.repeats))
        return run_attack(*oracles, candidates, cfg, known_nonmembers=known_nonmembers)

    monkeypatch.setattr(harness, "run_attack", counting_attack)
    run_scenario2(mini_config(2, attack=AttackConfig(repeats=2, theta_rule=StdRule(1.0))))
    (target, reference), candidates, repeats = counted[0]
    assert target.calls + reference.calls == 2 * candidates * repeats
