from __future__ import annotations

import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from imputeaudit.attack import AttackConfig
from imputeaudit.core import (
    DegenerateMaskError,
    MaskedSeries,
    NormParams,
    OracleError,
    TimeSeries,
    _load,
    _query,
    apply_mask,
    derive_seed,
    random_missing_mask,
    single_unit_mask,
    zscore_denormalize,
    zscore_normalize,
)
from imputeaudit.data import SyntheticConfig, save_csv
from imputeaudit.harness import ExperimentConfig
from imputeaudit.metrics import LabeledScores, RocCurve, roc_curve, write_roc_csv
from imputeaudit.models import ImputerConfig, TrainedImputer, _build_net, save_model


def test_time_series_promotes_1d_and_freezes():
    s = TimeSeries("a", [1.0, 2.0, 3.0])
    assert s.shape == (3, 1)
    with pytest.raises(ValueError):
        s.values[0, 0] = 9.0


def test_time_series_rejects_nonfinite_and_empty():
    with pytest.raises(ValueError):
        TimeSeries("bad", [1.0, np.nan])
    with pytest.raises(ValueError):
        TimeSeries("bad", np.empty((0, 1)))
    with pytest.raises(ValueError, match="series values must be 1-D or 2-D, got ndim=3"):
        TimeSeries("bad", np.zeros((2, 2, 2)))


def test_masked_series_rejects_a_mask_that_is_not_bool_or_not_of_the_series_shape():
    series = TimeSeries("a", np.zeros((1, 2)))
    # A 0/1 int array is not a mask either, nor is a bool array of another shape, a 1-D one included.
    for bad in ([[0, 2]], [[0.5, 1.0]], [[-1, 1]], [[np.nan, 1.0]], [[0, 1]], [[False], [True]], [False, True], [[[False, True]]]):
        bad = np.array(bad)
        with pytest.raises(ValueError, match=re.escape(f"bool array of shape (1, 2), got {bad.dtype} of shape {bad.shape}")):
            MaskedSeries(series, bad)
    view = MaskedSeries(TimeSeries("a", np.zeros((2, 2))), np.array([[False, True], [True, False]]))
    assert view.missing.dtype == np.bool_
    assert view.missing.tolist() == [[False, True], [True, False]]


def test_single_unit_mask_one_point():
    x = TimeSeries("a", np.arange(10.0))
    masked = single_unit_mask(x, 4, 1)
    assert int(masked.missing.sum()) == 1
    assert masked.missing[4, 0]


def test_single_unit_mask_block_in_one_dim():
    x = TimeSeries("a", np.arange(16.0).reshape(8, 2))
    masked = single_unit_mask(x, 2, 2, dim=1)
    assert int(masked.missing.sum()) == 2
    assert not masked.missing[:, 0].any()
    assert np.array_equal(masked.missing.nonzero()[0], [2, 3])


def test_single_unit_mask_degenerate():
    x = TimeSeries("a", [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateMaskError):
        single_unit_mask(x, 0, 3)


def test_single_unit_mask_out_of_range():
    x = TimeSeries("a", np.arange(10.0))
    with pytest.raises(ValueError):
        single_unit_mask(x, 8, 2 + 1)
    with pytest.raises(ValueError):
        single_unit_mask(x, -1, 1)
    with pytest.raises(ValueError):
        single_unit_mask(x, 0, 1, dim=5)


def test_single_unit_mask_hides_its_block_and_checks_every_call():
    x = TimeSeries("a", np.arange(16.0).reshape(8, 2))
    y = TimeSeries("b", -np.arange(16.0).reshape(8, 2))
    block = np.zeros((8, 2), dtype=bool)
    block[2:5, 1] = True
    first, again, other = single_unit_mask(x, 2, 3, dim=1), single_unit_mask(x, 2, 3, dim=1), single_unit_mask(y, 2, 3, 1)
    # Each view holds its own read-only mask.
    for view in (first, again, other):
        assert np.array_equal(view.missing, block) and not view.missing.flags.writeable
    assert not np.shares_memory(first.missing, again.missing)
    assert not np.array_equal(single_unit_mask(x, 2, 3, dim=0).missing, first.missing)
    assert np.array_equal(other.series.values[:, 1], [-1.0, -3.0, 0.0, 0.0, 0.0, -11.0, -13.0, -15.0])
    for bad in [(6, 3, 1), (-1, 3, 1), (2, 3, 2), (2, 0, 1)]:
        with pytest.raises(ValueError):
            single_unit_mask(x, *bad)
    with pytest.raises(DegenerateMaskError):
        single_unit_mask(x, 0, 8, 1)


def test_mask_views_are_read_only():
    x = TimeSeries("a", np.arange(10.0))
    for missing in (single_unit_mask(x, 3).missing, random_missing_mask(x.shape, 0.3, seed=3),
                    apply_mask(x, random_missing_mask(x.shape, 0.3, seed=3)).missing):
        with pytest.raises(ValueError):
            missing[0, 0] = not missing[0, 0]
    assert single_unit_mask(x, 3).missing.tolist() == [[i == 3] for i in range(10)]


def test_a_view_keeps_its_mask_when_the_callers_array_changes():
    x = TimeSeries("a", np.arange(10.0))
    hidden = np.zeros(x.shape, dtype=bool)
    hidden[3, 0] = True
    views = [MaskedSeries(apply_mask(x, hidden).series, hidden), apply_mask(x, hidden)]
    hidden[:] = ~hidden
    for view in views:
        assert view.missing.tolist() == [[i == 3] for i in range(10)]


_AE = ImputerConfig(architecture="autoencoder", hidden=4, latent=3)

# Each value type and the fields it is built from; the arrays among them are the caller's, and stay writable.
OWNED = {
    "TimeSeries": lambda rng: (TimeSeries, {"id": "a", "values": rng.normal(size=(6, 2))}),
    "MaskedSeries": lambda rng: (MaskedSeries, {"series": TimeSeries("a", np.zeros((6, 2))), "missing": rng.random((6, 2)) < 0.5}),
    "NormParams": lambda rng: (NormParams, {"mean": rng.normal(size=2), "scale": rng.random(2) + 1.0}),
    "LabeledScores": lambda rng: (LabeledScores, {"scores": rng.normal(size=6), "is_member": np.arange(6) % 2 == 0}),
    "RocCurve": lambda rng: (RocCurve, {"fpr": np.array([0.0, 0.5, 1.0]), "tpr": np.array([0.0, 1.0, 1.0]),
                                        "thresholds": np.array([-np.inf, 0.2, 0.7])}),
    "TrainedImputer": lambda rng: (TrainedImputer, {"config": _AE, "n_steps": 6, "n_dims": 2, "history": (),
                                                    "params": rng.normal(size=_build_net(6, 2, _AE).n_params)}),
}


@pytest.mark.parametrize("kind", list(OWNED))
def test_no_value_type_freezes_its_callers_arrays(kind):
    cls, fields = OWNED[kind](np.random.default_rng(0))
    owned = {name: arr for name, arr in fields.items() if isinstance(arr, np.ndarray)}
    before = {name: arr.copy() for name, arr in owned.items()}
    value = cls(**fields)
    for name, arr in owned.items():
        assert arr.flags.writeable, name
        arr[...] = ~arr if arr.dtype == bool else arr + 1.0
    for name in owned:
        assert np.array_equal(getattr(value, name), before[name]), name
        assert not getattr(value, name).flags.writeable, name


class _EditingOracle:
    """Fills the hidden entry and also writes ``value`` over one observed entry."""

    def __init__(self, row: int, value: float) -> None:
        self.row, self.value = row, value

    def impute(self, x):
        values = x.series.values.copy()
        values[self.row, 0] = self.value
        return TimeSeries(x.id, values)


@pytest.mark.parametrize("row, value", [(5, 6.5), (0, 1.0), (5, 0.0), (9, -9.0)],
                         ids=["nudged", "zero-entry-changed", "changed-to-zero", "last-entry"])
def test_query_rejects_a_change_to_any_single_observed_entry(row, value):
    # Entry 0 is observed and is 0.0, the value the masked view fills hidden entries with.
    masked = single_unit_mask(TimeSeries("a", np.arange(10.0)), 3)
    with pytest.raises(OracleError, match="target oracle changed observed entries of series 'a'"):
        _query(_EditingOracle(row, value), masked, "target")
    assert _query(_EditingOracle(3, 7.5), masked, "target").values[3, 0] == 7.5
    assert _query(_EditingOracle(0, -0.0), masked, "target").values[0, 0] == 0.0  # -0.0 == 0.0


def test_random_missing_mask_exact_count_and_determinism():
    m1 = random_missing_mask((10, 1), 0.2, seed=42)
    m2 = random_missing_mask((10, 1), 0.2, seed=42)
    assert m1.dtype == np.bool_ and m1.shape == (10, 1)
    assert int(m1.sum()) == 2
    assert np.array_equal(m1, m2)

    assert int(random_missing_mask((5, 2), 0.5, seed=0).sum()) == 5


@pytest.mark.parametrize("shape,fraction", [((7, 3), 0.1), ((13, 2), 0.33), ((4, 4), 0.9)])
def test_random_missing_mask_exact_count_sweep(shape, fraction):
    expected = int(round(fraction * shape[0] * shape[1]))
    assert int(random_missing_mask(shape, fraction, seed=1).sum()) == expected


def test_random_missing_mask_seeds_differ():
    a = random_missing_mask((100, 1), 0.3, seed=1)
    b = random_missing_mask((100, 1), 0.3, seed=2)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.3, 1.5])
def test_random_missing_mask_fraction_validation(fraction):
    with pytest.raises(ValueError):
        random_missing_mask((10, 1), fraction, seed=0)


def test_apply_mask_identity_under_all_ones():
    x = TimeSeries("a", np.arange(6.0).reshape(3, 2))
    masked = apply_mask(x, np.zeros((3, 2), dtype=bool))
    assert np.array_equal(masked.series.values, x.values)


def test_apply_mask_sentinel_and_survivor():
    x = TimeSeries("a", [1.0, 2.0, 3.0])
    masked = apply_mask(x, np.array([[False], [True], [False]]))
    assert np.array_equal(masked.series.values[:, 0], [1.0, 0.0, 3.0])

    only_one = apply_mask(x, np.array([[True], [False], [True]]))
    assert int(only_one.missing.sum()) == 2
    assert only_one.series.values[1, 0] == 2.0


def test_apply_mask_shape_mismatch():
    # Shapes numpy would broadcast against the series are rejected too, a 1-D mask included.
    for series_shape, mask_shape in [((3, 1), (4, 1)), ((3, 1), (3,)), ((1, 2), (3, 2)), ((3, 1), (3, 4))]:
        with pytest.raises(ValueError, match="shape mismatch"):
            apply_mask(TimeSeries("a", np.ones(series_shape)), np.zeros(mask_shape, dtype=bool))
    with pytest.raises(ValueError, match="bool array"):
        apply_mask(TimeSeries("a", np.ones((3, 1))), np.zeros((3, 1)))


def test_masked_series_observed_consistency_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        steps, dims = int(rng.integers(2, 12)), int(rng.integers(1, 4))
        x = TimeSeries("s", rng.normal(size=(steps, dims)))
        missing = random_missing_mask((steps, dims), 0.4, seed=int(rng.integers(1 << 30)))
        masked = apply_mask(x, missing)
        obs = ~missing
        assert np.array_equal(masked.series.values[obs], x.values[obs])
        assert np.all(masked.series.values[~obs] == 0.0)


def test_zscore_hand_example():
    normalized, _ = zscore_normalize(TimeSeries("a", [1.0, 2.0, 3.0]))
    expected = np.array([-1.2247448, 0.0, 1.2247448])
    assert np.allclose(normalized.values[:, 0], expected, atol=1e-6)


def test_zscore_constant_dimension():
    normalized, params = zscore_normalize(TimeSeries("a", [5.0, 5.0, 5.0]))
    assert np.all(normalized.values == 0.0)
    assert params.scale[0] == 1.0
    back = zscore_denormalize(normalized, params)
    assert np.allclose(back.values[:, 0], [5.0, 5.0, 5.0])


def test_zscore_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = TimeSeries("s", rng.normal(3.0, 10.0, size=(int(rng.integers(2, 30)), int(rng.integers(1, 4)))))
        normalized, params = zscore_normalize(x)
        assert np.allclose(normalized.values.mean(axis=0), 0.0, atol=1e-12)
        back = zscore_denormalize(normalized, params)
        assert np.allclose(back.values, x.values, atol=1e-9)


def test_zscore_needs_two_values():
    with pytest.raises(ValueError, match="^series 'a': need at least 2 values to normalize$"):
        zscore_normalize(TimeSeries("a", [1.0]))


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "target") == derive_seed(7, "target")
    assert derive_seed(7, "target") != derive_seed(7, "reference")
    assert derive_seed(7, "target") != derive_seed(8, "target")


def test_masked_series_holds_only_what_the_oracle_sees():
    assert {f.name for f in dataclasses.fields(MaskedSeries)} == {"series", "missing"}
    masked = single_unit_mask(TimeSeries("a", np.arange(10.0)), 3)
    assert masked.id == "a"
    with pytest.raises(ValueError):
        MaskedSeries(TimeSeries("a", np.ones((3, 1))), np.zeros((4, 1), dtype=bool))


def test_views_and_completions_are_frozen_and_share_no_memory(tiny_corpus, fresh_model, monkeypatch):
    # Views and completions are built without the constructor's copy: each must still own
    # its values, read-only, apart from the caller's series and the model's output.
    outputs = []
    forward = fresh_model._net.forward

    def recorded(*args):
        predicted, cache = forward(*args)
        outputs.append(predicted)
        return predicted, cache

    monkeypatch.setattr(fresh_model._net, "forward", recorded)
    x = tiny_corpus[0]
    for missing in (single_unit_mask(x, 5, 3).missing, random_missing_mask(x.shape, 0.2, 1), np.zeros(x.shape, dtype=bool)):
        masked = apply_mask(x, missing)
        completed = _query(fresh_model, masked, "target")
        model_arrays = [outputs[-1], *fresh_model._views.values()]
        for frozen, others in ((masked.series.values, [x.values]),
                               (completed.values, [masked.series.values, x.values, *model_arrays])):
            assert not frozen.flags.writeable
            with pytest.raises(ValueError):
                frozen[0, 0] = 1.0
            assert not any(np.shares_memory(frozen, other) for other in others)


def test_counting_oracle_counts():
    from helpers import CountingOracle, ZeroFillOracle

    oracle = CountingOracle(ZeroFillOracle())
    x = TimeSeries("a", np.arange(10.0))
    masked = single_unit_mask(x, 3)
    oracle.impute(masked)
    oracle.impute(masked)
    assert oracle.calls == 2


class _InterruptedWriter:
    def __init__(self, fh):
        self.fh = fh

    def writerow(self, row):
        self.fh.write("partial,")
        raise KeyboardInterrupt


@pytest.mark.parametrize("kind, doc", [
    (ExperimentConfig, json.loads((Path(__file__).resolve().parent.parent / "configs/scenario2_fixture.json").read_text())),
    (SyntheticConfig, {"family": "B", "count": 9, "components": [2, 2]}),
    (ImputerConfig, {"architecture": "attention", "hidden": 8, "epochs": 3}),
    (AttackConfig, {"repeats": 2, "theta_rule": {"kind": "std_rule", "n": 2.0}}),
    (dict, {"a": True, "b": {"c": [1, 2.5]}}),
], ids=["experiment", "synthetic", "imputer", "attack", "dict"])
def test_load_reads_json_with_a_byte_order_mark_as_without_one(tmp_path, kind, doc):
    plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
    plain.write_text(json.dumps(doc), encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert _load(kind, str(bom)) == _load(kind, str(plain))


def _interrupted_dump(doc, fh, **kwargs):
    fh.write("{")
    raise KeyboardInterrupt


@pytest.mark.parametrize("writer", ["save_model", "save_csv", "write_roc_csv"])
def test_interrupted_writes_keep_the_old_file_and_leave_no_temp_file(writer, tmp_path, monkeypatch, fresh_model):
    write = {
        "save_model": lambda path: save_model(fresh_model, path),
        "save_csv": lambda path: save_csv([TimeSeries("a", [0.0, 1.0])], path),
        "write_roc_csv": lambda path: write_roc_csv(roc_curve(LabeledScores([0.1, 0.2], [True, False])), path),
    }[writer]
    out = tmp_path / "out"
    out.write_text("old")
    monkeypatch.setattr(json, "dump", _interrupted_dump)
    monkeypatch.setattr(csv, "writer", _InterruptedWriter)
    with pytest.raises(KeyboardInterrupt):
        write(str(out))
    assert out.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
