from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import imputeaudit
from imputeaudit.cli import main
from imputeaudit.core import TimeSeries
from imputeaudit.data import load_csv, save_csv
from imputeaudit.metrics import LabeledScores, auroc, roc_curve
from imputeaudit.models import ImputerConfig, load_model, save_model, train


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "data.json").write_text(json.dumps({
        "family": "A", "count": 12, "length": 24, "dims": 1, "seed": 2,
        "noise_scale": 0.4, "amplitude_range": [0.5, 2.0],
    }))
    (tmp_path / "model.json").write_text(json.dumps({
        "architecture": "autoencoder", "hidden": 12, "latent": 6,
        "epochs": 10, "batch_size": 6, "learning_rate": 0.05, "momentum": 0.9,
    }))
    return tmp_path


def experiment_config(tmp_path, out_dir):
    return {
        "scenario": 2,
        "master_seed": 5,
        "data": {"source": "synthetic", "family": "A", "count": 40, "length": 32,
                 "amplitude_range": [0.3, 3.0], "noise_scale": 0.7, "ar_coeff": 0.5},
        "target_model": {"architecture": "autoencoder", "hidden": 16, "latent": 8, "epochs": 30,
                         "batch_size": 8, "learning_rate": 0.05, "momentum": 0.9},
        "reference_model": {"architecture": "autoencoder", "hidden": 16, "latent": 8, "epochs": 30,
                            "batch_size": 8, "learning_rate": 0.05, "momentum": 0.9},
        "fine_tune": {"architecture": "autoencoder", "hidden": 16, "latent": 8, "epochs": 20,
                      "batch_size": 4, "learning_rate": 0.01, "momentum": 0.9},
        "attack": {"repeats": 4, "theta_rule": {"kind": "top_percent", "percent": 25}},
        "parity_tolerance": 0.5,
        "output_dir": str(out_dir),
    }


def test_generate_then_load(workdir, capsys):
    out = workdir / "corpus.csv"
    assert main(["generate", "--config", str(workdir / "data.json"), "--out", str(out)]) == 0
    corpus = load_csv(str(out))
    assert len(corpus) == 12
    assert "wrote 12 series" in capsys.readouterr().out
    # --seed replaces the config's seed (2): the corpus is the one a config with that seed writes.
    doc = json.loads((workdir / "data.json").read_text())
    (workdir / "seed7.json").write_text(json.dumps({**doc, "seed": 7}))
    assert main(["generate", "--config", str(workdir / "data.json"), "--out", str(workdir / "flag.csv"), "--seed", "7"]) == 0
    assert main(["generate", "--config", str(workdir / "seed7.json"), "--out", str(workdir / "seed7.csv")]) == 0
    assert (workdir / "flag.csv").read_bytes() == (workdir / "seed7.csv").read_bytes() != out.read_bytes()


def test_train_and_attack_pipeline(workdir, capsys):
    corpus = workdir / "corpus.csv"
    main(["generate", "--config", str(workdir / "data.json"), "--out", str(corpus)])

    model_t = workdir / "target.model.json"
    model_r = workdir / "reference.model.json"
    assert main(["train", "--data", str(corpus), "--config", str(workdir / "model.json"),
                 "--out", str(model_t), "--seed", "1"]) == 0
    assert main(["train", "--data", str(corpus), "--config", str(workdir / "model.json"),
                 "--out", str(model_r), "--seed", "2"]) == 0
    assert load_model(str(model_t)).config.seed == 1

    scores = workdir / "scores.json"
    scores.write_text("stale " * 10_000)
    assert main(["attack", "--target", str(model_t), "--reference", str(model_r),
                 "--candidates", str(corpus), "--out", str(scores)]) == 0
    doc = json.loads(scores.read_text())
    assert not [p for p in workdir.iterdir() if ".tmp-" in p.name]
    assert len(doc["per_candidate"]) == 12
    assert {"id", "l_t", "l_r", "r", "is_member"} == set(doc["per_candidate"][0])


def test_attack_scores_a_subset_of_candidates_as_the_full_run_does(workdir, capsys):
    # A candidate's l_t, l_r, r and degenerate depend on it, the two models and the attack config only;
    # theta and is_member depend on the whole candidate set, so they are left out.
    corpus = workdir / "corpus.csv"
    main(["generate", "--config", str(workdir / "data.json"), "--out", str(corpus)])
    for role, seed in (("target", "1"), ("reference", "2")):
        main(["train", "--data", str(corpus), "--config", str(workdir / "model.json"),
              "--out", str(workdir / f"{role}.json"), "--seed", seed])
    (workdir / "attack.json").write_text(json.dumps(
        {"block_length": 2, "repeats": 3, "theta_rule": {"kind": "top_percent", "percent": 25}}))
    series = load_csv(str(corpus))
    # A CSV holds one series per id, so the duplicate is a copy under a new id.
    save_csv([*reversed(series[2:7]), TimeSeries("copy-of-3", series[3].values)], str(workdir / "subset.csv"))

    def scores(candidates):
        out = workdir / f"scores-{candidates}.json"
        assert main(["attack", "--target", str(workdir / "target.json"), "--reference", str(workdir / "reference.json"),
                     "--candidates", str(workdir / candidates), "--config", str(workdir / "attack.json"),
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["per_candidate"]
        return {row["id"]: ([float.hex(row[k]) for k in ("l_t", "l_r", "r")], row.get("degenerate", False)) for row in rows}

    full, subset = scores("corpus.csv"), scores("subset.csv")
    assert len(full) == 12 and len(subset) == 6
    assert subset.pop("copy-of-3") == full[series[3].id]
    assert subset == {sid: full[sid] for sid in subset}


def _known_nonmembers_run(workdir, rule):
    """Train a target and a reference on the corpus; attack series 2-6 with ``rule``, calibrating on series 5-9."""
    corpus = workdir / "corpus.csv"
    main(["generate", "--config", str(workdir / "data.json"), "--out", str(corpus)])
    for role, seed in (("target", "1"), ("reference", "2")):
        main(["train", "--data", str(corpus), "--config", str(workdir / "model.json"),
              "--out", str(workdir / f"{role}.json"), "--seed", seed])
    series = load_csv(str(corpus))
    save_csv(series[2:7], str(workdir / "candidates.csv"))
    save_csv(series[5:10], str(workdir / "nonmembers.csv"))
    (workdir / "attack.json").write_text(json.dumps({"repeats": 3, "theta_rule": rule}))
    out = workdir / "scores.json"
    code = main(["attack", "--target", str(workdir / "target.json"), "--reference", str(workdir / "reference.json"),
                 "--candidates", str(workdir / "candidates.csv"), "--config", str(workdir / "attack.json"),
                 "--known-nonmembers", str(workdir / "nonmembers.csv"), "--out", str(out)])
    return code, out, series


def test_attack_std_rule_calibrates_on_known_nonmembers(workdir, capsys):
    code, out, series = _known_nonmembers_run(workdir, {"kind": "std_rule", "n": 1.0})
    assert code == 0
    doc = json.loads(out.read_text())
    # Series 5 and 6 are candidates too: their scores are reused, and the calibration counts them.
    assert doc["calibration"] == {"nonmembers": 5, "also_candidates": 2}
    # A candidate's ratio depends only on it, the models and the config's masking fields, so a run over
    # every series gives the five nonmembers' ratios; theta is their mean plus one population std.
    (workdir / "fixed.json").write_text(json.dumps({"repeats": 3, "theta_rule": {"kind": "fixed", "theta": 1.0}}))
    assert main(["attack", "--target", str(workdir / "target.json"), "--reference", str(workdir / "reference.json"),
                 "--candidates", str(workdir / "corpus.csv"), "--config", str(workdir / "fixed.json"),
                 "--out", str(workdir / "all.json")]) == 0
    ratios = {row["id"]: row["r"] for row in json.loads((workdir / "all.json").read_text())["per_candidate"]}
    nonmember_ratios = np.array([ratios[s.id] for s in series[5:10]])
    assert doc["theta"] == pytest.approx(nonmember_ratios.mean() + nonmember_ratios.std(), rel=1e-12)


@pytest.mark.parametrize("rule", [{"kind": "top_percent", "percent": 25}, {"kind": "fixed", "theta": 1.0}], ids=["top_percent", "fixed"])
def test_attack_rejects_known_nonmembers_for_a_rule_that_ignores_them(workdir, capsys, rule):
    code, out, _ = _known_nonmembers_run(workdir, rule)
    assert code == 1
    assert f"error: known nonmembers calibrate std_rule only, but the theta rule is {rule['kind']}" in capsys.readouterr().err
    assert not out.exists()


def test_audit_calls_do_not_import_numpy_ma(workdir):
    """np.unique imports numpy.ma; the black-box audit's two calls must not pay for it."""
    corpus = workdir / "corpus.csv"
    main(["generate", "--config", str(workdir / "data.json"), "--out", str(corpus)])
    for role, seed in (("target", "1"), ("reference", "2")):
        main(["train", "--data", str(corpus), "--config", str(workdir / "model.json"),
              "--out", str(workdir / f"{role}.json"), "--seed", seed])
    ids = [s.id for s in load_csv(str(corpus))]
    (workdir / "labels.json").write_text(json.dumps({sid: i % 2 == 0 for i, sid in enumerate(ids)}))
    attack = ["attack", "--target", str(workdir / "target.json"), "--reference", str(workdir / "reference.json"),
              "--candidates", str(corpus), "--out", str(workdir / "scores.json")]
    metrics = ["metrics", "--scores", str(workdir / "scores.json"), "--labels", str(workdir / "labels.json")]
    script = (f"import sys; from imputeaudit.cli import main; "
              f"assert main({attack!r}) == 0 and main({metrics!r}) == 0; "
              f"print('numpy.ma' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(imputeaudit.__file__)))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_metrics_command_matches_hand_auroc(tmp_path, capsys):
    scores_doc = {
        "theta": 1.0,
        "theta_rule": {"kind": "fixed", "theta": 1.0},
        "per_candidate": [
            {"id": "a", "l_t": 0.2, "l_r": 1.0, "r": 0.2, "is_member": True},
            {"id": "b", "l_t": 0.6, "l_r": 1.0, "r": 0.6, "is_member": True},
            {"id": "c", "l_t": 0.5, "l_r": 1.0, "r": 0.5, "is_member": False},
            {"id": "d", "l_t": 0.9, "l_r": 1.0, "r": 0.9, "is_member": False},
        ],
    }
    (tmp_path / "scores.json").write_text(json.dumps(scores_doc))
    (tmp_path / "labels.json").write_text(json.dumps({"a": True, "b": True, "c": False, "d": False}))

    assert main(["metrics", "--scores", str(tmp_path / "scores.json"),
                 "--labels", str(tmp_path / "labels.json"),
                 "--out", str(tmp_path / "summary.json")]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())

    expected = auroc(roc_curve(LabeledScores([0.2, 0.6, 0.5, 0.9], [True, True, False, False])))
    # hand check: pairs (0.2,0.5),(0.2,0.9),(0.6,0.9) ordered correctly, (0.6,0.5) not -> 3/4
    assert expected == pytest.approx(0.75)
    assert summary["lbrm"]["auroc"] == pytest.approx(0.75)


def test_output_files_are_replaced_whole(tmp_path, monkeypatch, capsys):
    (tmp_path / "scores.json").write_text(json.dumps({
        "theta": 1.0, "theta_rule": {"kind": "fixed", "theta": 1.0},
        "per_candidate": [
            {"id": "a", "l_t": 0.2, "l_r": 1.0, "r": 0.2, "is_member": True},
            {"id": "b", "l_t": 0.6, "l_r": 1.0, "r": 0.6, "is_member": False},
        ],
    }))
    (tmp_path / "labels.json").write_text(json.dumps({"a": True, "b": False}))
    out = tmp_path / "summary.json"
    out.write_text("stale " * 10_000)
    argv = ["metrics", "--scores", str(tmp_path / "scores.json"), "--labels", str(tmp_path / "labels.json"),
            "--out", str(out)]

    assert main(argv) == 0
    assert out.read_text() == capsys.readouterr().out
    assert not [p for p in tmp_path.iterdir() if ".tmp-" in p.name]

    written = out.read_bytes()

    def interrupted(doc, fh, **kwargs):
        fh.write("{")
        raise KeyboardInterrupt

    monkeypatch.setattr(json, "dump", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert out.read_bytes() == written
    assert not [p for p in tmp_path.iterdir() if ".tmp-" in p.name]


def test_metrics_command_missing_label_errors(tmp_path, capsys):
    (tmp_path / "scores.json").write_text(json.dumps({
        "theta": 1.0, "theta_rule": {"kind": "fixed", "theta": 1.0},
        "per_candidate": [{"id": "a", "l_t": 0.2, "l_r": 1.0, "r": 0.2, "is_member": True}],
    }))
    (tmp_path / "labels.json").write_text(json.dumps({}))
    assert main(["metrics", "--scores", str(tmp_path / "scores.json"),
                 "--labels", str(tmp_path / "labels.json")]) == 1
    assert "no entry for candidate" in capsys.readouterr().err
    # A quoted "false" once read as a member; a label must be a JSON boolean.
    (tmp_path / "labels.json").write_text(json.dumps({"a": "false"}))
    assert main(["metrics", "--scores", str(tmp_path / "scores.json"),
                 "--labels", str(tmp_path / "labels.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "candidate 'a'" in err[0]


def test_scenario2_cli_runs_twice_byte_identical(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(experiment_config(tmp_path, tmp_path / "ignored")))

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["scenario2", "--config", str(cfg_path), "--seed", "7", "--out", str(out_a)]) == 0
    assert main(["scenario2", "--config", str(cfg_path), "--seed", "7", "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "scores.json").read_bytes() == (out_b / "scores.json").read_bytes()
    # The command times the run itself; the run's outputs hold no time.
    methods = json.loads((out_a / "report.json").read_text())["methods"]
    result = f"LBRM AUROC {methods['lbrm']['auroc']:.3f} vs naive {methods['naive']['auroc']:.3f}; outputs in "
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    for text, out in zip(printed, (out_a, out_b)):
        assert re.fullmatch(r"scenario 2 done in \d+\.\ds: " + re.escape(result + str(out)), text)


def test_scenario2_cli_parity_override(tmp_path, capsys):
    doc = experiment_config(tmp_path, tmp_path / "o")
    doc["parity_tolerance"] = 1e-9
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(doc))

    assert main(["scenario2", "--config", str(cfg_path), "--out", str(tmp_path / "strict")]) == 1
    assert "parity" in capsys.readouterr().err

    assert main(["scenario2", "--config", str(cfg_path), "--out", str(tmp_path / "forced"),
                 "--override-parity"]) == 0
    report = json.loads((tmp_path / "forced" / "report.json").read_text())
    assert report["parity"]["passed"] is False


def test_scenario_command_checks_declared_scenario(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(experiment_config(tmp_path, tmp_path / "o")))
    assert main(["scenario1", "--config", str(cfg_path)]) == 1
    assert "declares scenario 2" in capsys.readouterr().err


def test_train_rejects_an_unknown_config_key_by_name(tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({"epoch": 1}))
    assert main(["train", "--data", str(tmp_path / "none.csv"), "--config", str(tmp_path / "bad.json"),
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "unknown key 'epoch'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "attack"])
def test_a_csv_with_one_value_per_series_is_an_error_naming_the_series(workdir, capsys, command):
    save_csv([TimeSeries("s0", [1.0]), TimeSeries("s1", [2.0])], str(workdir / "short.csv"))
    csv = str(workdir / "short.csv")
    if command == "train":
        args = ["train", "--data", csv, "--config", str(workdir / "model.json"), "--out", str(workdir / "m.json")]
    else:
        model = str(workdir / "m.json")
        save_model(train([TimeSeries(f"s{i}", [0.0, 1.0, 2.0]) for i in range(2)], ImputerConfig(epochs=1)), model)
        args = ["attack", "--target", model, "--reference", model, "--candidates", csv, "--out", str(workdir / "scores.json")]
    assert main(args) == 1
    assert "series 's0': need at least 2 values to normalize" in capsys.readouterr().err


def test_missing_config_file_reports_path(capsys):
    assert main(["scenario2", "--config", "/nonexistent/cfg.json"]) == 1
    assert "/nonexistent/cfg.json" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scenario2", "generate", "train", "attack", "metrics"])
def test_malformed_json_input_reports_path(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": }')
    args = {
        "scenario2": ["--config", str(bad)],
        "generate": ["--config", str(bad), "--out", str(tmp_path / "c.csv")],
        "train": ["--data", str(tmp_path / "c.csv"), "--config", str(bad), "--out", str(tmp_path / "m.json")],
        "attack": ["--target", str(bad), "--reference", str(bad), "--candidates", str(tmp_path / "c.csv"),
                   "--out", str(tmp_path / "s.json")],
        "metrics": ["--scores", str(bad), "--labels", str(bad)],
    }[command]
    assert main([command, *args]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad} is not valid JSON")


def _json_inputs(workdir):
    """For each kind of JSON input: a valid document, a CLI call that reads it from {path}, and one of its keys."""
    corpus, model = str(workdir / "corpus.csv"), str(workdir / "model-file.json")
    main(["generate", "--config", str(workdir / "data.json"), "--out", corpus])
    main(["train", "--data", corpus, "--config", str(workdir / "model.json"), "--out", model])
    scores = {"theta": 1.0, "theta_rule": {"kind": "fixed", "theta": 1.0},
              "per_candidate": [{"id": "a", "l_t": 0.2, "l_r": 1.0, "r": 0.2, "is_member": True}]}
    (workdir / "scores.json").write_text(json.dumps(scores))
    out = ["--out", str(workdir / "out.json")]
    return {
        "experiment_config": (experiment_config(workdir, workdir / "o"), ["scenario2", "--config", "{path}"], "master_seed"),
        "synthetic_config": (json.loads((workdir / "data.json").read_text()), ["generate", "--config", "{path}", *out], "seed"),
        "model_config": (json.loads((workdir / "model.json").read_text()),
                         ["train", "--data", corpus, "--config", "{path}", *out], "epochs"),
        "attack_config": ({"repeats": 2}, ["attack", "--target", model, "--reference", model, "--candidates", corpus,
                                           "--config", "{path}", *out], "repeats"),
        "model_file": (json.loads(Path(model).read_text()),
                       ["attack", "--target", "{path}", "--reference", model, "--candidates", corpus, *out], "n_steps"),
        "scores": (scores, ["metrics", "--scores", "{path}", "--labels", str(workdir / "labels.json")], "theta"),
        "labels": ({"a": True}, ["metrics", "--scores", str(workdir / "scores.json"), "--labels", "{path}"], "a"),
    }


@pytest.mark.parametrize("kind", ["experiment_config", "synthetic_config", "model_config", "attack_config", "model_file",
                                  "scores", "labels"])
def test_a_key_repeated_in_a_json_input_is_an_error_naming_it(workdir, capsys, kind):
    doc, argv, key = _json_inputs(workdir)[kind]
    # The valid document with ``key`` given once more, first: json.load alone keeps the last value.
    bad = workdir / f"repeated-{kind}.json"
    bad.write_text(f"{{{json.dumps(key)}: {json.dumps(doc[key])}, " + json.dumps(doc)[1:])
    capsys.readouterr()
    assert main([arg.format(path=bad) for arg in argv]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: key {key!r} appears more than once in one object"]


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert main(["generate", "--config", "x.json", "--out", "y.csv", "--bogus"]) == 2
