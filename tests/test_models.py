from __future__ import annotations

import base64
import json
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    ShiftingOracle,
    TruncatingOracle,
    ZeroFillOracle,
    attention_backward_reference,
    attention_forward_reference,
    descend_reference,
)

from imputeaudit.core import MaskMatrix, OracleError, TimeSeries, _query, apply_mask, random_missing_mask, single_unit_mask
from imputeaudit.models import (
    DivergenceError,
    ImputerConfig,
    TrainedImputer,
    _build_net,
    _fan_in_init,
    _unpack,
    evaluate_mae,
    fine_tune,
    load_model,
    parity_check,
    save_model,
    train,
)

AE_TINY = ImputerConfig(architecture="autoencoder", hidden=4, latent=3)
ATTN_TINY = ImputerConfig(architecture="attention", model_dim=4, heads=2, ff_dim=6, blocks=1)


def masked_mae_loss(net, params, x_in, x_true, hidden):
    predicted, _ = net.forward(_unpack(params, net.layout), x_in)
    return np.abs((predicted - x_true)[hidden]).sum() / hidden.sum()


def finite_difference_gradient(net, params, x_in, x_true, hidden, step=1e-6):
    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        up[i] += step
        down = params.copy()
        down[i] -= step
        grad[i] = (masked_mae_loss(net, up, x_in, x_true, hidden) - masked_mae_loss(net, down, x_in, x_true, hidden)) / (
            2 * step
        )
    return grad


def gradient_relative_error(cfg, steps, dims, seed):
    net = _build_net(steps, dims, cfg)
    rng = np.random.default_rng(seed)
    params = _fan_in_init(rng, net.layout) + rng.normal(0, 0.05, net.n_params)
    x_true = rng.normal(size=(3, steps, dims))
    observed = rng.random((3, steps, dims)) > 0.3
    if observed.all():
        observed[0, 0, 0] = False
    x_in = np.where(observed, x_true, 0.0)
    hidden = ~observed

    predicted, cache = net.forward(_unpack(params, net.layout), x_in)
    dy = np.where(hidden, np.sign(predicted - x_true), 0.0) / hidden.sum()
    analytic = np.zeros_like(params)
    net.backward(_unpack(params, net.layout), cache, dy, _unpack(analytic, net.layout))
    numeric = finite_difference_gradient(net, params, x_in, x_true, hidden)
    return np.linalg.norm(analytic - numeric) / max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-300)


@pytest.mark.parametrize("seed", range(5))
def test_autoencoder_gradient_matches_finite_differences(seed):
    assert _build_net(5, 1, AE_TINY).n_params <= 200
    assert gradient_relative_error(AE_TINY, 5, 1, seed) < 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_attention_gradient_matches_finite_differences(seed):
    assert _build_net(4, 1, ATTN_TINY).n_params <= 200
    assert gradient_relative_error(ATTN_TINY, 4, 1, 100 + seed) < 1e-4


@pytest.mark.parametrize("cfg", [AE_TINY, replace(ATTN_TINY, blocks=2)])
def test_backward_overwrites_every_gradient_entry(cfg):
    net = _build_net(5, 2, cfg)
    rng = np.random.default_rng(0)
    params = _fan_in_init(rng, net.layout) + rng.normal(0, 0.05, net.n_params)
    p = _unpack(params, net.layout)
    predicted, cache = net.forward(p, rng.normal(size=(3, 5, 2)))
    dy = rng.normal(size=predicted.shape)
    stale = np.full(net.n_params, np.nan)
    net.backward(p, cache, dy, _unpack(stale, net.layout))
    fresh = np.zeros(net.n_params)
    net.backward(p, cache, dy, _unpack(fresh, net.layout))
    assert np.all(np.isfinite(stale))
    assert np.array_equal(stale, fresh)


# The s2-attention benchmark's network.
ATTN_BENCH = ImputerConfig(architecture="attention", model_dim=16, heads=2, ff_dim=32)


def attention_case(blocks, batch, seed):
    net = _build_net(64, 1, replace(ATTN_BENCH, blocks=blocks))
    rng = np.random.default_rng(seed)
    params = _fan_in_init(rng, net.layout) + rng.normal(0, 0.05, net.n_params)
    return net, params, rng.normal(size=(batch, 64, 1)), rng.normal(size=(batch, 64, 1)) / (batch * 64)


def attention_step(net, params, x, dy, ws=None, reference=False):
    """(y, gradient views) of one forward and backward pass; the gradient starts as NaN."""
    p = _unpack(params, net.layout)
    g = _unpack(np.full(net.n_params, np.nan), net.layout)
    if reference:
        y, cache = attention_forward_reference(net, p, x)
        attention_backward_reference(net, p, cache, dy, g)
    else:
        y, cache = net.forward(p, x, ws)
        y = y.copy()  # the workspace's copy is overwritten by the next step
        net.backward(p, cache, dy, g, ws)
    return y, g


def assert_same_step(step, expected):
    (y, g), (y_expected, g_expected) = step, expected
    assert np.array_equal(y, y_expected)
    for name in g_expected:
        assert np.array_equal(g[name], g_expected[name]), name


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("batch", [16, 6, 1])  # a full batch, an epoch's short last batch, one query
def test_attention_step_matches_reference_bit_for_bit(blocks, batch):
    net, params, x, dy = attention_case(blocks, batch, seed=10 * batch + blocks)
    expected = attention_step(net, params, x, dy, reference=True)
    assert_same_step(attention_step(net, params, x, dy), expected)
    assert_same_step(attention_step(net, params, x, dy, ws={}), expected)


@pytest.mark.parametrize("blocks", [1, 2])
def test_attention_steps_through_one_workspace_match_fresh_steps(blocks):
    # Stale or aliased buffers would show on the second step of a batch size, or on a second block.
    ws: dict = {}
    for seed, batch in enumerate((16, 6, 16, 6, 16)):
        net, params, x, dy = attention_case(blocks, batch, seed)
        assert_same_step(attention_step(net, params, x, dy, ws), attention_step(net, params, x, dy))
        if seed == 1:
            buffers = {key: id(buf) for key, buf in ws.items()}
    assert {key: id(buf) for key, buf in ws.items()} == buffers


def small_corpus(seed=0, n=8, steps=16, dims=1):
    rng = np.random.default_rng(seed)
    return [TimeSeries(f"s{i}", rng.normal(size=(steps, dims))) for i in range(n)]


@pytest.mark.parametrize("arch_cfg", [AE_TINY, ATTN_TINY])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("n, batch_size, dims", [(7, 3, 1), (5, 8, 2), (6, 2, 2)])
def test_training_matches_per_batch_reference(arch_cfg, momentum, n, batch_size, dims):
    cfg = replace(arch_cfg, epochs=3, batch_size=batch_size, momentum=momentum, seed=11)
    corpus = small_corpus(seed=1, n=n, steps=6, dims=dims)
    model = train(corpus, cfg)
    net = _build_net(6, dims, cfg)
    rng = np.random.default_rng(cfg.seed)
    params, history = descend_reference(net, _fan_in_init(rng, net.layout), np.stack([s.values for s in corpus]), cfg, rng)
    assert np.array_equal(model.params, params)
    assert model.history == history

    tune_cfg = replace(cfg, epochs=2, learning_rate=0.01, seed=12)
    private = small_corpus(seed=2, n=n + 1, steps=6, dims=dims)
    tuned = fine_tune(model, private, tune_cfg)
    params, history = descend_reference(
        net, model.params.copy(), np.stack([s.values for s in private]), tune_cfg, np.random.default_rng(12)
    )
    assert np.array_equal(tuned.params, params)
    assert tuned.history == history


@pytest.mark.parametrize("arch_cfg", [AE_TINY, ATTN_TINY])
def test_training_is_bitwise_deterministic(arch_cfg):
    corpus = small_corpus(steps=8)
    cfg = arch_cfg.__class__(**{**arch_cfg.__dict__, "epochs": 5, "seed": 42})
    a = train(corpus, cfg)
    b = train(corpus, cfg)
    assert np.array_equal(a.params, b.params)
    assert a.history == b.history


def test_history_length_matches_epochs():
    model = train(small_corpus(), ImputerConfig(epochs=7, seed=1))
    assert len(model.history) == 7


def test_more_epochs_reach_lower_loss():
    corpus = small_corpus(seed=5, n=32, steps=16)
    short = train(corpus, ImputerConfig(epochs=1, seed=2, learning_rate=0.05, momentum=0.9))
    long = train(corpus, ImputerConfig(epochs=50, seed=2, learning_rate=0.05, momentum=0.9))
    assert long.history[-1] < short.history[-1]


def test_final_loss_weakly_decreases_over_epoch_sweep():
    corpus = small_corpus(seed=9, n=16, steps=12)
    finals = [
        train(corpus, ImputerConfig(epochs=e, seed=4, learning_rate=0.02, momentum=0.9)).history[-1]
        for e in (1, 5, 25, 125)
    ]
    for shorter, longer in zip(finals, finals[1:]):
        assert longer <= shorter + 1e-9


@pytest.mark.parametrize("arch_cfg", [AE_TINY, ATTN_TINY])
def test_keep_observed_is_exact(arch_cfg):
    corpus = small_corpus(steps=10)
    cfg = arch_cfg.__class__(**{**arch_cfg.__dict__, "epochs": 2, "seed": 3})
    model = train(corpus, cfg)
    x = corpus[0]

    all_ones = apply_mask(x, MaskMatrix(np.ones(x.shape)))
    assert np.array_equal(model.impute(all_ones).values, x.values)

    partial = apply_mask(x, random_missing_mask(x.shape, 0.4, seed=8))
    completed = model.impute(partial)
    obs = partial.mask.observed()
    assert np.array_equal(completed.values[obs], x.values[obs])
    assert completed.shape == x.shape
    assert np.all(np.isfinite(completed.values))


def test_impute_shape_mismatch_rejected():
    model = train(small_corpus(steps=10), ImputerConfig(epochs=1, seed=0))
    wrong = apply_mask(TimeSeries("w", np.zeros((11, 1))), MaskMatrix(np.ones((11, 1))))
    with pytest.raises(ValueError):
        model.impute(wrong)


def test_train_input_validation():
    with pytest.raises(ValueError):
        train([], ImputerConfig())
    mixed = [TimeSeries("a", np.zeros((5, 1))), TimeSeries("b", np.zeros((6, 1)))]
    with pytest.raises(ValueError):
        train(mixed, ImputerConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        ImputerConfig(architecture="mlp")
    with pytest.raises(ValueError):
        ImputerConfig(architecture="attention", model_dim=10, heads=4)
    with pytest.raises(ValueError):
        ImputerConfig(epochs=0)
    with pytest.raises(ValueError):
        ImputerConfig(mask_fraction=1.0)


def test_divergence_raises_named_error():
    corpus = small_corpus(seed=1, n=4, steps=8)
    cfg = ImputerConfig(epochs=400, batch_size=4, learning_rate=1e8, momentum=10.0, seed=0)
    with pytest.raises(DivergenceError, match="epoch"):
        train(corpus, cfg)


def test_fine_tune_zero_rate_is_identity():
    corpus = small_corpus()
    base = train(corpus, ImputerConfig(epochs=3, seed=6))
    same = fine_tune(base, corpus, ImputerConfig(epochs=2, learning_rate=0.0, momentum=0.0, seed=7))
    assert np.array_equal(same.params, base.params)


def test_fine_tune_improves_private_loss_and_preserves_base(tiny_corpus):
    base = train(tiny_corpus, ImputerConfig(architecture="autoencoder", hidden=16, latent=8, epochs=30, seed=11, learning_rate=0.05, momentum=0.9))
    base_params = base.params.copy()
    tuned = fine_tune(base, tiny_corpus, ImputerConfig(architecture="autoencoder", hidden=16, latent=8, epochs=120, seed=12, learning_rate=0.05, momentum=0.9, batch_size=4))
    assert np.array_equal(base.params, base_params)  # untouched
    assert tuned.history[-1] < base.history[-1]
    assert not np.array_equal(tuned.params, base.params)


def test_fine_tune_deterministic():
    corpus = small_corpus()
    base = train(corpus, ImputerConfig(epochs=2, seed=1))
    cfg = ImputerConfig(epochs=3, seed=5)
    a = fine_tune(base, corpus, cfg)
    b = fine_tune(base, corpus, cfg)
    assert np.array_equal(a.params, b.params)


def test_fine_tune_rejects_architecture_change():
    base = train(small_corpus(), ImputerConfig(epochs=1, seed=0, hidden=32))
    with pytest.raises(ValueError):
        fine_tune(base, small_corpus(), ImputerConfig(epochs=1, seed=0, hidden=16))


def test_evaluate_mae_of_zero_filler_is_mean_abs():
    from helpers import RecordingOracle

    rng = np.random.default_rng(14)
    corpus = [TimeSeries(f"s{i}", rng.normal(size=(12, 2))) for i in range(6)]
    oracle = RecordingOracle()
    mae = evaluate_mae(oracle, corpus, fraction=0.25, seed=44)
    # independent recomputation from the masks the oracle actually saw
    total, count = 0.0, 0
    for x, seen in zip(corpus, oracle.seen, strict=True):
        hidden = seen.mask.missing()
        total += np.abs(x.values[hidden]).sum()
        count += hidden.sum()
    assert mae == pytest.approx(total / count, abs=1e-12)


def test_parity_fraction_that_hides_no_entry_raises_before_that_series_is_queried():
    from helpers import RecordingOracle

    # round(0.005 * 400) = 2 entries, but round(0.005 * 64) = 0: the s2 fixture's
    # 64 x 1 series would hide none and the mean would divide by zero.
    corpus = [TimeSeries("long", np.zeros((400, 1))), TimeSeries("s0", np.zeros((64, 1)))]
    oracle = RecordingOracle()
    with pytest.raises(ValueError, match=r"parity fraction 0.005 hides no entry of series 's0' of shape \(64, 1\)"):
        parity_check(oracle, oracle, corpus, tolerance=0.1, fraction=0.005)
    assert [view.series.id for view in oracle.seen] == ["long"]


def test_overfit_autoencoder_memorizes(tiny_corpus, overfit_model, fresh_model):
    assert overfit_model.history[-1] < 0.05

    member_errors = []
    fresh_errors = []
    for series in tiny_corpus:
        for position in (10, 25, 40, 55):
            masked = single_unit_mask(series, position)
            truth = series.values[position, 0]
            member_errors.append(abs(overfit_model.impute(masked).values[position, 0] - truth))
            fresh_errors.append(abs(fresh_model.impute(masked).values[position, 0] - truth))
    assert max(member_errors) < 0.1
    assert np.mean(fresh_errors) > 0.3


def test_single_series_perfect_memory_mae(tiny_corpus):
    one = tiny_corpus[:1]
    kw = dict(architecture="autoencoder", hidden=32, latent=16, batch_size=1, momentum=0.9, mask_fraction=0.2)
    model = train(one, ImputerConfig(**kw, epochs=3000, learning_rate=0.05, seed=5))
    for rate, epochs in ((0.01, 2000), (0.001, 2000), (0.0001, 2000)):
        model = fine_tune(model, one, ImputerConfig(**kw, epochs=epochs, learning_rate=rate, seed=6))
    assert evaluate_mae(model, one, fraction=0.2, seed=0) < 1e-3


def test_parity_identity_and_failure(tiny_corpus, overfit_model, fresh_model):
    identical = parity_check(overfit_model, overfit_model, tiny_corpus, tolerance=0.05, seed=1)
    assert identical.passed
    assert identical.gap == 0.0

    different = parity_check(overfit_model, fresh_model, tiny_corpus, tolerance=0.01, seed=1)
    assert not different.passed
    assert different.gap > 0.01


def test_parity_tolerance_validation(tiny_corpus, overfit_model):
    with pytest.raises(ValueError):
        parity_check(overfit_model, overfit_model, tiny_corpus, tolerance=0.0)


@pytest.mark.parametrize("broken", [TruncatingOracle(), ShiftingOracle()], ids=["short", "moves-observed"])
def test_parity_queries_are_checked_at_the_boundary(broken):
    corpus = small_corpus()
    with pytest.raises(OracleError, match="parity oracle .*'s0'"):
        parity_check(broken, ZeroFillOracle(), corpus, tolerance=0.1)
    with pytest.raises(OracleError, match="parity oracle .*'s0'"):
        parity_check(ZeroFillOracle(), broken, corpus, tolerance=0.1)


def test_an_overflowing_model_fails_at_the_query_boundary(tiny_corpus, fresh_model):
    # Finite parameters whose last layer overflows: every hidden unit saturates at +1 and
    # adds 1e308 to each output. The completion is checked in impute, and _query names
    # the caller and the series.
    params = fresh_model.params.copy()
    views = _unpack(params, fresh_model._net.layout)
    views["b3"][...] = 50.0
    views["W4"][...] = 1e308
    views["b4"][...] = 1e308
    model = TrainedImputer(fresh_model.config, fresh_model.n_steps, fresh_model.n_dims, params, fresh_model.history)
    x = tiny_corpus[0]
    masked = single_unit_mask(x, 5, 3)
    with np.errstate(over="ignore"):
        assert np.isinf(model._net.forward(model._views, masked.series.values[None])[0]).all()
        for caller in ("target", "reference", "parity"):
            with pytest.raises(OracleError, match=f"{caller} oracle failed on series {x.id!r}: .*must be finite"):
                _query(model, masked, caller)


def test_parity_accepts_published_scale_gap(tiny_corpus):
    # a 0.24-vs-0.21 held-out MAE pair is the canonical "comparable" example;
    # OffsetOracle(c) has MAE exactly |c|, so the gap is exactly 0.03
    from helpers import OffsetOracle

    target, reference = OffsetOracle(0.24, tiny_corpus), OffsetOracle(0.21, tiny_corpus)
    report = parity_check(target, reference, tiny_corpus, tolerance=0.1, seed=3)
    assert report.mae_target == pytest.approx(0.24, abs=1e-12)
    assert report.mae_reference == pytest.approx(0.21, abs=1e-12)
    assert report.passed


@pytest.mark.parametrize("arch_cfg", [AE_TINY, ATTN_TINY])
def test_save_load_round_trip_is_bit_exact(tmp_path, arch_cfg):
    corpus = small_corpus(steps=6)
    cfg = arch_cfg.__class__(**{**arch_cfg.__dict__, "epochs": 2, "seed": 13})
    model = train(corpus, cfg)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert np.array_equal(loaded.params, model.params)
    assert loaded.config == model.config
    assert loaded.history == model.history
    save_model(loaded, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    masked = apply_mask(corpus[0], random_missing_mask(corpus[0].shape, 0.3, seed=2))
    assert np.array_equal(loaded.impute(masked).values, model.impute(masked).values)


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "not_model.json"
    path.write_text('{"format": "other"}')
    with pytest.raises(ValueError):
        load_model(str(path))
    path.write_text('{"format": ')
    with pytest.raises(ValueError, match="not_model.json is not valid JSON"):
        load_model(str(path))


def test_load_rejects_a_file_that_is_not_utf8_by_name(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"format": "é"}'.encode("latin-1"))
    with pytest.raises(ValueError, match="latin1.json is not valid JSON"):
        load_model(str(path))


def test_load_rejects_an_unknown_config_key(tmp_path):
    path = tmp_path / "model.json"
    save_model(train(small_corpus(steps=6), replace(AE_TINY, epochs=1)), str(path))
    doc = json.loads(path.read_text())
    doc["config"]["epoch"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown key 'epoch' in the config block of"):
        load_model(str(path))


@pytest.mark.parametrize("edit, match", [
    (lambda d: d.update(n_steps="8"), "'n_steps' in .* must be int, got '8'"),
    (lambda d: d.update(n_dims=True), "'n_dims' in .* must be int, got True"),
    (lambda d: d.update(history=[1, "2.5"]), "item 1 of 'history' in .* must be float, got '2.5'"),
    (lambda d: d.update(extra=1), "unknown key 'extra' in"),
    (lambda d: d.pop("history"), "missing key 'history' in"),
    # the parameters are checked after the file is read, and those errors name it too
    (lambda d: d.update(params_b64=d["params_b64"][:5]), r"model\.json: Invalid base64-encoded string"),
    (lambda d: d.update(params_b64=base64.b64encode(bytes(7)).decode()),
     r"model\.json: buffer size must be a multiple of element size"),
    (lambda d: d.update(n_steps=64), r"model\.json: expected \d+ parameters for this config, got \d+"),
    (lambda d: d.update(params_b64=base64.b64encode(np.frombuffer(base64.b64decode(d["params_b64"]), "<f8") * np.nan).decode()),
     r"model\.json: parameters must be finite"),
], ids=["n_steps", "n_dims", "history_item", "unknown_key", "no_history", "params_truncated", "params_7_bytes",
        "params_wrong_count", "params_nan"])
def test_load_rejects_mistyped_model_files_by_name(tmp_path, edit, match):
    # Each of these once loaded, cast by hand or ignored, and a left-out history raised KeyError.
    path = tmp_path / "model.json"
    save_model(train(small_corpus(steps=6), replace(AE_TINY, epochs=1)), str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        load_model(str(path))


def test_trained_imputer_rejects_wrong_param_count():
    with pytest.raises(ValueError):
        TrainedImputer(config=AE_TINY, n_steps=5, n_dims=1, params=np.zeros(3), history=(0.1,))


def test_trained_imputer_satisfies_oracle_protocol():
    from imputeaudit.core import ImputationOracle

    model = train(small_corpus(steps=6), ImputerConfig(epochs=1, seed=0))
    assert isinstance(model, ImputationOracle)


def test_attention_actually_trains():
    corpus = small_corpus(seed=21, n=16, steps=12)
    cfg = ImputerConfig(architecture="attention", model_dim=8, heads=2, ff_dim=16, blocks=1,
                        epochs=60, batch_size=8, learning_rate=0.02, momentum=0.9, seed=2)
    model = train(corpus, cfg)
    assert model.history[-1] < model.history[0]
