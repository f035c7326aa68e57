from __future__ import annotations

import base64
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    ShiftingOracle,
    TruncatingOracle,
    ZeroFillOracle,
    attention_backward_reference,
    attention_forward_reference,
    autoencoder_backward_reference,
    autoencoder_forward_reference,
    descend_reference,
)

from imputeaudit import attention, models
from imputeaudit.attention import _buffer
from imputeaudit.core import (
    DegenerateMaskError,
    OracleError,
    TimeSeries,
    _query,
    apply_mask,
    derive_seed,
    random_missing_mask,
    single_unit_mask,
)
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


def every(x):
    """The read mask of a pass that computes every row."""
    return np.ones(x.shape, dtype=bool)


def masked_mae_loss(net, params, x_in, x_true, hidden):
    predicted, _ = net.forward(_unpack(params, net.layout), x_in, hidden)
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

    ws: dict = {}  # a backward reads the workspace of its forward
    predicted, cache = net.forward(_unpack(params, net.layout), x_in, hidden, ws)
    dy = np.where(hidden, np.sign(predicted - x_true), 0.0) / hidden.sum()
    analytic = np.zeros_like(params)
    net.backward(_unpack(params, net.layout), cache, dy, _unpack(analytic, net.layout), ws)
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
    x = rng.normal(size=(3, 5, 2))
    ws: dict = {}
    predicted, cache = net.forward(p, x, every(x), ws)
    dy = rng.normal(size=predicted.shape)
    stale = np.full(net.n_params, np.nan)
    net.backward(p, cache, dy, _unpack(stale, net.layout), ws)
    fresh = np.zeros(net.n_params)
    net.backward(p, cache, dy, _unpack(fresh, net.layout), ws)
    assert np.all(np.isfinite(stale))
    assert np.array_equal(stale, fresh)


# The s2-attention benchmark's network.
ATTN_BENCH = ImputerConfig(architecture="attention", model_dim=16, heads=2, ff_dim=32)


def attention_case(blocks, batch, seed, **widths):
    net = _build_net(64, 1, replace(ATTN_BENCH, blocks=blocks, **widths))
    rng = np.random.default_rng(seed)
    params = _fan_in_init(rng, net.layout) + rng.normal(0, 0.05, net.n_params)
    return net, params, rng.normal(size=(batch, 64, 1)), rng.normal(size=(batch, 64, 1)) / (batch * 64)


def attention_step(net, params, x, dy, ws=None, reference=False, read=None):
    """(y, gradient views) of one forward and backward pass, computing the rows ``read`` needs
    (by default every row); the gradient starts as NaN."""
    p = _unpack(params, net.layout)
    g = _unpack(np.full(net.n_params, np.nan), net.layout)
    if reference:
        y, cache = attention_forward_reference(net, p, x)
        attention_backward_reference(net, p, cache, dy, g)
    else:
        y, cache = net.forward(p, x, every(x) if read is None else read, ws)
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
    # The backward takes the softmax gradient one head at a time; model_dim 4 with 4 heads has a head_dim of 1.
    for widths in (dict(heads=1), dict(heads=2), dict(heads=4), dict(model_dim=4, heads=4)):
        net, params, x, dy = attention_case(blocks, batch, seed=10 * batch + blocks, **widths)
        expected = attention_step(net, params, x, dy, reference=True)
        assert_same_step(attention_step(net, params, x, dy), expected)
        assert_same_step(attention_step(net, params, x, dy, ws={}), expected)
        # A short batch through the leading rows of a full batch's workspace.
        ws: dict = {}
        attention_step(*attention_case(blocks, 16, seed=0, **widths), ws)
        assert_same_step(attention_step(net, params, x, dy, ws), expected)


@pytest.mark.parametrize("blocks", [1, 2])
def test_attention_steps_through_one_workspace_match_fresh_steps(blocks):
    # Stale or aliased buffers would show on the second step of a batch size, or on a second block.
    for order in ((16, 6, 16, 6, 16), (6, 16, 6, 16)):
        ws: dict = {}
        for seed, batch in enumerate(order):
            net, params, x, dy = attention_case(blocks, batch, seed)
            assert_same_step(attention_step(net, params, x, dy, ws), attention_step(net, params, x, dy))
            if seed == order.index(16):
                buffers = {key: id(buf) for key, buf in ws.items()}
        # One array per buffer, kept from the first full batch on.
        assert {key: id(buf) for key, buf in ws.items()} == buffers


def read_masks(rng, batch, steps, dims):
    """Per series: one entry, a 4-step block in one dim, 20% of the entries at random, and every entry."""
    one = np.zeros((batch, steps, dims), dtype=bool)
    one[np.arange(batch), rng.integers(0, steps, batch), rng.integers(0, dims, batch)] = True
    block = np.zeros_like(one)
    for i, start in enumerate(rng.integers(0, steps - 3, batch)):
        block[i, start : start + 4, rng.integers(0, dims)] = True
    return {"one": one, "block": block, "random": rng.random(one.shape) < 0.2, "every": every(one)}


@pytest.mark.parametrize("steps", [64, 32, 30])  # 30 % 4 != 0 takes the all-rows path
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("batch", [16, 6, 1])
def test_attention_read_rows_match_every_row_bit_for_bit(steps, blocks, batch):
    # The entries read get the every-row pass's predictions, and every gradient its bytes, when dy is +0.0
    # at the entries not read, as training's is.
    for dims, heads in ((1, 2), (1, 4), (2, 1), (3, 2)):
        net = _build_net(steps, dims, replace(ATTN_BENCH, blocks=blocks, heads=heads))
        rng = np.random.default_rng(1000 * steps + 100 * blocks + 10 * dims + heads + batch)
        params = _fan_in_init(rng, net.layout) + rng.normal(0, 0.05, net.n_params)
        x = rng.normal(size=(batch, steps, dims))
        for name, read in read_masks(rng, batch, steps, dims).items():
            dy = np.where(read, rng.normal(size=x.shape) / read.sum(), 0.0)
            y_full, g_full = attention_step(net, params, x, dy)
            y_ref, g_ref = attention_step(net, params, x, dy, reference=True)
            assert np.array_equal(y_full, y_ref)
            for ws in (None, {}):
                y, g = attention_step(net, params, x, dy, ws, read=read)
                assert y[read].tobytes() == y_full[read].tobytes(), (dims, heads, name)
                for key in g_full:
                    assert g[key].tobytes() == g_full[key].tobytes() == g_ref[key].tobytes(), (dims, heads, name, key)


def assert_read_rows_match_every_row(net, rng, steps, dims, case):
    """One step of 16 series reading 20% of their entries gives the every-row step's predictions at the
    entries read and its gradient bytes."""
    params = _fan_in_init(rng, net.layout) + rng.normal(0, 0.05, net.n_params)
    x = rng.normal(size=(16, steps, dims))
    read = read_masks(rng, 16, steps, dims)["random"]
    dy = np.where(read, rng.normal(size=x.shape) / read.sum(), 0.0)
    y, g = attention_step(net, params, x, dy, read=read)
    y_full, g_full = attention_step(net, params, x, dy)
    assert y[read].tobytes() == y_full[read].tobytes(), case
    for key in g_full:
        assert g[key].tobytes() == g_full[key].tobytes(), (case, key)


@pytest.mark.parametrize("widths", [dict(model_dim=4, heads=4), dict(ff_dim=1)], ids=["head_dim_1", "ff_dim_1"])
def test_attention_with_a_width_of_one_computes_every_row_bit_for_bit(widths, query_rows):
    # A width of 1 turns a key/value product into gemv or a bias sum into numpy's pairwise sum, where
    # skipped zero rows change the bits, so these nets compute every row.
    net = _build_net(64, 1, replace(ATTN_BENCH, **widths))
    assert_read_rows_match_every_row(net, np.random.default_rng(len(widths)), 64, 1, widths)
    assert query_rows == [(64, 64), (64, 64)]


def test_attention_read_rows_match_every_row_in_a_seeded_sweep_bit_for_bit(query_rows):
    # Random nets, so that each OpenBLAS kernel the suite runs on checks the row rule itself, not a few
    # chosen shapes: SkylakeX's width-32 limit, for one, shows only at some widths.
    rng = np.random.default_rng(0)
    for _ in range(40):
        heads = int(rng.integers(1, 5))
        widths = dict(heads=heads, model_dim=heads * int(rng.integers(1, 64 // heads + 1)),
                      ff_dim=int(rng.integers(1, 65)), blocks=int(rng.integers(1, 3)))
        steps, dims = int(rng.choice([30, 32, 64])), int(rng.integers(1, 3))
        net = _build_net(steps, dims, replace(ATTN_BENCH, **widths))
        assert_read_rows_match_every_row(net, rng, steps, dims, (steps, dims, widths))
    # Some nets computed a subset of rows, so the sweep checks more than the every-row fall-back.
    assert sum(rows < steps for steps, rows in query_rows) >= 5


@pytest.mark.parametrize("dims", [1, 2])
def test_attention_impute_matches_the_every_row_forward_bit_for_bit(dims):
    cfg = replace(ATTN_BENCH, blocks=2)
    net = _build_net(64, dims, cfg)
    rng = np.random.default_rng(dims)
    model = TrainedImputer(cfg, 64, dims, _fan_in_init(rng, net.layout) + rng.normal(0, 0.05, net.n_params), (0.0,))
    for i, series in enumerate(small_corpus(seed=7, n=3, steps=64, dims=dims)):
        views = [single_unit_mask(series, start, length, dim) for length in (1, 4) for start in (0, 29, 60) for dim in range(dims)]
        views += [apply_mask(series, random_missing_mask(series.shape, 0.2, derive_seed(i, seed))) for seed in range(3)]
        for view in views:
            x = view.series.values[None]
            full, _ = net.forward(model._views, x, every(x))
            expected = np.where(~view.missing, view.series.values, full[0])
            assert model.impute(view).values.tobytes() == expected.tobytes()


@pytest.fixture
def query_rows(monkeypatch):
    """(t, rows the last block computed) of every attention forward pass from here on."""
    seen = []
    real_forward = attention._SelfAttentionImputer.forward

    def forward(self, p, x, read, ws=None):
        y, cache = real_forward(self, p, x, read, ws)
        seen.append((x.shape[1], cache[1].shape[1]))
        return y, cache

    monkeypatch.setattr(attention._SelfAttentionImputer, "forward", forward)
    return seen


def test_attention_computes_only_the_query_rows_it_reads(query_rows):
    # A silent fall-back to every row would pass every exactness test; this pins the row counts.
    cfg = replace(ATTN_BENCH, epochs=1, mask_fraction=0.2)
    series = small_corpus(n=16, steps=64)
    model = train(series, cfg)  # 13 hidden steps per series, padded to 16
    assert query_rows == [(64, 16)]
    model.impute(single_unit_mask(series[0], 10))
    assert query_rows[1:] == [(64, 4)]
    # SkylakeX's width-32 limit: dpre @ Wf1.T has an inner width of 32 and 64 x 24 outputs at every row.
    train(series, replace(cfg, model_dim=24))
    assert query_rows[2:] == [(64, 64)]
    short = small_corpus(n=16, steps=30)
    train(short, cfg).impute(single_unit_mask(short[0], 10))
    assert query_rows[3:] == [(30, 30), (30, 30)]


@pytest.mark.parametrize("seed", range(3))
def test_attention_gradient_through_the_read_rows_matches_finite_differences(query_rows, seed):
    # The loss is over the hidden entries, which are the entries the forward reads.
    assert gradient_relative_error(replace(ATTN_TINY, blocks=2), 16, 1, 200 + seed) < 1e-4
    assert query_rows and all(rows < steps for steps, rows in query_rows)


def test_the_cli_does_not_load_the_attention_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(models.__file__)))
    script = "import sys, imputeaudit.cli; print('imputeaudit.attention' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("rows", [(6, 16), (16, 6)])
def test_buffer_keeps_one_array_per_name_and_trailing_shape(rows):
    ws: dict = {}
    views = [_buffer(ws, "w", (b, 3, 5)) for b in rows]
    (kept,) = ws.values()
    assert kept.shape == (16, 3, 5)
    short = _buffer(ws, "w", (6, 3, 5))
    assert short.shape == (6, 3, 5) and short.flags.c_contiguous
    assert np.shares_memory(short, kept)
    assert np.shares_memory(views[rows.index(16)], kept)
    assert ws == {("w", (3, 5)): kept}
    assert not np.shares_memory(_buffer(ws, "w", (6, 5, 3)), kept)
    assert _buffer(None, "w", (6, 3, 5)).shape == (6, 3, 5)


def test_attention_training_shares_one_workspace_and_backward_holds_no_all_heads_tensor(monkeypatch):
    # Of the per-head (b, heads, rows, t) tensors only the forward's are requested, and an epoch's short last
    # batch gets views of the full batch's arrays, not arrays of its own.
    cfg = replace(ATTN_BENCH, epochs=2, seed=3)
    steps = 8
    requests, phase = [], ["forward"]
    real_buffer, real_backward = attention._buffer, attention._SelfAttentionImputer.backward

    def buffer(ws, name, shape):
        buf = real_buffer(ws, name, shape)
        requests.append((phase[0], name, shape, buf))
        return buf

    def backward(self, *args):
        phase[0] = "backward"
        real_backward(self, *args)
        phase[0] = "forward"

    monkeypatch.setattr(attention, "_buffer", buffer)
    monkeypatch.setattr(attention._SelfAttentionImputer, "backward", backward)
    train(small_corpus(n=22, steps=steps), cfg)  # batches of 16 and 6
    assert {shape[0] for _, _, shape, _ in requests} == {16, 6}
    per_head = [(p, name) for p, name, shape, _ in requests if len(shape) == 4 and shape[1] == cfg.heads and shape[3] == steps]
    assert ("forward", "weights0") in per_head
    assert not [name for p, name in per_head if p == "backward"]
    full = [(name, buf) for _, name, shape, buf in requests if shape[0] == 16]
    for _, name, shape, buf in requests:
        if shape[0] == 6:
            assert any(n == name and np.shares_memory(buf, f) for n, f in full), (name, shape)


# The s2-fixture benchmark's network; audit-long's is the same at 128 steps x 2 dims.
AE_BENCH = ImputerConfig(architecture="autoencoder", hidden=48, latent=24)


def autoencoder_case(steps, dims, batch, seed):
    net = _build_net(steps, dims, AE_BENCH)
    rng = np.random.default_rng(seed)
    params = _fan_in_init(rng, net.layout) + rng.normal(0, 0.05, net.n_params)
    shape = (batch, steps, dims)
    return net, params, rng.normal(size=shape), rng.normal(size=shape) / (batch * steps * dims)


@pytest.mark.parametrize("steps, dims", [(64, 1), (128, 2)])
# a full batch, a fine-tune batch, an epoch's short last batches, one query
@pytest.mark.parametrize("batch", [16, 8, 6, 2, 1])
def test_autoencoder_step_matches_reference_bit_for_bit(steps, dims, batch):
    net, params, x, dy = autoencoder_case(steps, dims, batch, seed=100 * batch + steps + dims)
    p = _unpack(params, net.layout)
    g_expected = _unpack(np.full(net.n_params, np.nan), net.layout)
    y_expected, cache_expected = autoencoder_forward_reference(p, x)
    autoencoder_backward_reference(p, cache_expected, dy, g_expected)
    # Without a workspace, as ``impute`` runs it, the forward's products make new arrays.
    y_alone, cache_alone = net.forward(p, x, every(x))
    assert np.array_equal(y_alone, y_expected)
    for got, expected in zip(cache_alone, cache_expected, strict=True):
        assert np.array_equal(got, expected)
    assert_autoencoder_step_matches_reference(net, p, x, dy, {}, (y_expected, g_expected), cache_expected)


def assert_autoencoder_step_matches_reference(net, p, x, dy, ws, expected, cache_expected):
    """One forward and backward through ``ws``; the cache is compared after the backward has read it."""
    g = _unpack(np.full(net.n_params, np.nan), net.layout)
    y, cache = net.forward(p, x, every(x), ws)
    y = y.copy()  # the workspace's output is overwritten by the next pass of as many rows
    net.backward(p, cache, dy, g, ws)
    assert_same_step((y, g), expected)
    for got, want in zip(cache, cache_expected, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("steps, dims", [(64, 1), (128, 2)])
def test_autoencoder_workspace_reuse_matches_reference_bit_for_bit(steps, dims):
    # One workspace through full batches, fine-tune batches, short last batches and a single row, in an
    # order where a short batch follows a longer one: each step has the reference's bits.
    ws: dict = {}
    entries = {}
    for step, batch in enumerate([16, 6, 16, 8, 2, 1]):
        net, params, x, dy = autoencoder_case(steps, dims, batch, seed=step)
        p = _unpack(params, net.layout)
        g_expected = _unpack(np.full(net.n_params, np.nan), net.layout)
        y_expected, cache_expected = autoencoder_forward_reference(p, x)
        autoencoder_backward_reference(p, cache_expected, dy, g_expected)
        assert_autoencoder_step_matches_reference(net, p, x, dy, ws, (y_expected, g_expected), cache_expected)
        entries.setdefault(batch, ws[batch])
        assert ws[batch] is entries[batch]  # one entry per batch size, made once
    assert sorted(ws) == [1, 2, 6, 8, 16]


@pytest.mark.parametrize("batch", [16, 1])
def test_autoencoder_step_writes_in_place_only_to_arrays_it_made(batch):
    net, params, x, dy = autoencoder_case(64, 1, batch, seed=batch)
    given = params.copy(), x.copy(), dy.copy()
    p = _unpack(params, net.layout)
    ws: dict = {}
    y, cache = net.forward(p, x, every(x), ws)
    y_before, cache_before = y.copy(), [a.copy() for a in cache]
    net.backward(p, cache, dy, _unpack(np.empty(net.n_params), net.layout), ws)
    for now, before in zip((params, x, dy), given):
        assert np.array_equal(now, before)
    assert np.array_equal(y, y_before)
    for now, before in zip(cache, cache_before, strict=True):  # a0, h1, z, h2
        assert np.array_equal(now, before)


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


# Batch loss sums of over 128, 8-128 and under 8 terms, each with a short last batch. At 64 steps a series
# hides 13 entries, so batches of 16, 8 and 3 series sum 208, 104 and 39 terms, and 11 series 143; at 6 steps, one.
@pytest.mark.parametrize("arch_cfg", [AE_TINY, ATTN_TINY])
@pytest.mark.parametrize(
    "steps, n, batch_size, tune_n, tune_batch_size",
    [(64, 35, 16, 19, 8), (64, 19, 8, 11, 16), (6, 7, 3, 8, 3)],
)
def test_training_matches_per_batch_reference_bit_for_bit(arch_cfg, steps, n, batch_size, tune_n, tune_batch_size):
    cfg = replace(arch_cfg, epochs=2, batch_size=batch_size, momentum=0.9, seed=21)
    corpus = small_corpus(seed=3, n=n, steps=steps)
    model = train(corpus, cfg)
    net = _build_net(steps, 1, cfg)
    rng = np.random.default_rng(cfg.seed)
    params, history = descend_reference(net, _fan_in_init(rng, net.layout), np.stack([s.values for s in corpus]), cfg, rng)
    assert model.params.tobytes() == params.tobytes()
    assert model.history == history

    tune_cfg = replace(cfg, epochs=2, batch_size=tune_batch_size, learning_rate=0.01, seed=22)
    private = small_corpus(seed=4, n=tune_n, steps=steps)
    tuned = fine_tune(model, private, tune_cfg)
    params, history = descend_reference(
        net, model.params.copy(), np.stack([s.values for s in private]), tune_cfg, np.random.default_rng(tune_cfg.seed)
    )
    assert tuned.params.tobytes() == params.tobytes()
    assert tuned.history == history


class TiedScores:
    """A generator whose every ``random`` draw has, in each row, equal scores at places
    ``n_hidden`` and ``n_hidden + 1``, so the ``n_hidden`` smallest are not set by a threshold."""

    def __init__(self, seed: int, n_hidden: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.n_hidden = n_hidden

    def permutation(self, n):
        return self._rng.permutation(n)

    def random(self, size=None, out=None):
        scores = self._rng.random(size, out=out)
        order = np.argsort(scores, axis=1)
        rows = np.arange(scores.shape[0])
        scores[rows, order[:, self.n_hidden]] = scores[rows, order[:, self.n_hidden - 1]]
        return scores


class RecordingNet:
    """Passes every step to ``net`` and keeps a copy of each forward's input and each backward's dy."""

    def __init__(self, net) -> None:
        self.net = net
        self.layout = net.layout
        self.inputs: list[np.ndarray] = []
        self.dys: list[np.ndarray] = []

    def forward(self, p, x, read, ws=None):
        self.inputs.append(x.copy())
        return self.net.forward(p, x, read, ws)

    def backward(self, p, cache, dy, g, ws=None):
        self.dys.append(dy.copy())
        self.net.backward(p, cache, dy, g, ws)


@pytest.mark.parametrize("arch_cfg", [AE_TINY, ATTN_TINY])
def test_a_score_tie_at_the_threshold_hides_n_hidden_entries_as_the_argpartition_reference_does(arch_cfg):
    steps, n_hidden = 16, 3  # round(0.2 * 16)
    cfg = replace(arch_cfg, epochs=2, batch_size=4, momentum=0.9, seed=5)
    data = np.stack([s.values for s in small_corpus(seed=6, n=10, steps=steps)])
    net = _build_net(steps, 1, cfg)
    start = _fan_in_init(np.random.default_rng(0), net.layout)
    got, expected = RecordingNet(net), RecordingNet(net)
    params, history = models._descend(got, start, data, cfg, TiedScores(cfg.seed, n_hidden))
    ref_params, ref_history = descend_reference(expected, start, data, cfg, TiedScores(cfg.seed, n_hidden))
    for x in got.inputs:  # no series value is 0.0, so the zeros are the hidden entries
        assert ((x == 0.0).sum(axis=(1, 2)) == n_hidden).all()
    for x, x_ref in zip(got.inputs, expected.inputs, strict=True):
        assert np.array_equal(x, x_ref)
    for dy, dy_ref in zip(got.dys, expected.dys, strict=True):  # bytes: +0.0 at every entry not hidden
        assert dy.tobytes() == dy_ref.tobytes()
    assert params.tobytes() == ref_params.tobytes()
    assert history == ref_history


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

    all_ones = apply_mask(x, np.zeros(x.shape, dtype=bool))
    assert np.array_equal(model.impute(all_ones).values, x.values)

    partial = apply_mask(x, random_missing_mask(x.shape, 0.4, seed=8))
    completed = model.impute(partial)
    obs = ~partial.missing
    assert np.array_equal(completed.values[obs], x.values[obs])
    assert completed.shape == x.shape
    assert np.all(np.isfinite(completed.values))


def test_impute_shape_mismatch_rejected():
    model = train(small_corpus(steps=10), ImputerConfig(epochs=1, seed=0))
    wrong = apply_mask(TimeSeries("w", np.zeros((11, 1))), np.zeros((11, 1), dtype=bool))
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
    with pytest.raises(ValueError, match="layer widths, head count and block count must be positive"):
        ImputerConfig(hidden=0)


def test_divergence_raises_named_error():
    corpus = small_corpus(seed=1, n=4, steps=8)
    cfg = ImputerConfig(epochs=400, batch_size=4, learning_rate=1e8, momentum=10.0, seed=0)
    with pytest.raises(DivergenceError, match="epoch"):
        train(corpus, cfg)


def test_divergence_in_the_last_update_raises_named_error():
    # Momentum of 1e308 sends the parameters to inf in the epoch's second step, after its loss was taken:
    # the check after the last epoch names the run, and no overflow warning escapes (warnings are errors).
    corpus = [TimeSeries(f"s{i}", np.linspace(-1, 1, 8) * (i + 1)) for i in range(8)]
    cfg = ImputerConfig(hidden=4, latent=2, epochs=1, batch_size=4, learning_rate=100.0, momentum=1e308)
    with pytest.raises(DivergenceError, match="non-finite parameters after epoch 0"):
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


@pytest.mark.parametrize("arch_cfg", [AE_TINY, ATTN_TINY])
def test_a_model_holds_no_training_state(tmp_path, arch_cfg):
    # A training run's workspace is its own, not kept on the net that fine_tune shares with its base: the base
    # answers as before, and a fine-tune from a saved and loaded copy of it has the same bits.
    corpus = small_corpus(seed=3, n=7, steps=8, dims=2)
    base = train(corpus, replace(arch_cfg, epochs=2, batch_size=3, seed=1))
    views = [apply_mask(s, random_missing_mask(s.shape, 0.3, derive_seed(4, i))) for i, s in enumerate(corpus)]
    params, completions = base.params.copy(), [base.impute(view).values for view in views]
    cfg = replace(arch_cfg, epochs=3, batch_size=2, seed=2)
    tuned = fine_tune(base, corpus[:5], cfg)
    assert np.array_equal(base.params, params)
    for view, completion in zip(views, completions, strict=True):
        assert np.array_equal(base.impute(view).values, completion)
    save_model(base, str(tmp_path / "base.json"))
    again = fine_tune(load_model(str(tmp_path / "base.json")), corpus[:5], cfg)
    assert np.array_equal(again.params, tuned.params)
    assert again.history == tuned.history


def test_fine_tune_deterministic():
    corpus = small_corpus()
    base = train(corpus, ImputerConfig(epochs=2, seed=1))
    cfg = ImputerConfig(epochs=3, seed=5)
    a = fine_tune(base, corpus, cfg)
    b = fine_tune(base, corpus, cfg)
    assert np.array_equal(a.params, b.params)


def test_fine_tune_rejects_architecture_change():
    # fine_tune checks the base it is given, whatever config built that base, and names the field.
    base = train(small_corpus(), ImputerConfig(epochs=1, seed=0, hidden=32))
    changed = {"architecture": "attention", "hidden": 16, "latent": 8, "model_dim": 8, "heads": 1, "ff_dim": 16,
               "blocks": 2}
    assert set(changed) == set(models.ARCHITECTURE_FIELDS)
    for field, value in changed.items():
        with pytest.raises(ValueError, match=f"^fine-tune config changes architecture field '{field}'$"):
            fine_tune(base, small_corpus(), replace(base.config, **{field: value}))
    # Every other field is a training knob, free to change.
    tuned = fine_tune(base, small_corpus(), replace(base.config, epochs=2, learning_rate=0.01, batch_size=4, seed=3))
    assert tuned.config.epochs == 2
    with pytest.raises(ValueError, match=r"private data shape \(12, 1\) incompatible with base \(16, 1\)"):
        fine_tune(base, small_corpus(steps=12), base.config)


def test_evaluate_mae_of_zero_filler_is_mean_abs():
    from helpers import RecordingOracle

    rng = np.random.default_rng(14)
    corpus = [TimeSeries(f"s{i}", rng.normal(size=(12, 2))) for i in range(6)]
    oracle = RecordingOracle()
    mae = evaluate_mae(oracle, corpus, fraction=0.25, seed=44)
    # independent recomputation from the masks the oracle actually saw
    total, count = 0.0, 0
    for x, seen in zip(corpus, oracle.seen, strict=True):
        hidden = seen.missing
        total += np.abs(x.values[hidden]).sum()
        count += hidden.sum()
    assert mae == pytest.approx(total / count, abs=1e-12)
    with pytest.raises(ValueError, match="no series to evaluate"):
        evaluate_mae(oracle, [], fraction=0.25, seed=44)


def test_parity_fraction_that_hides_no_entry_raises_before_that_series_is_queried():
    from helpers import RecordingOracle

    # round(0.005 * 400) = 2 entries, but round(0.005 * 64) = 0: the s2 fixture's
    # 64 x 1 series would hide none and the mean would divide by zero. round(0.995 * 400)
    # = 398, but round(0.995 * 64) = 64: its view would have nothing observed.
    corpus = [TimeSeries("long", np.zeros((400, 1))), TimeSeries("s0", np.zeros((64, 1)))]
    for fraction, error, which in [(0.005, ValueError, "no"), (0.995, DegenerateMaskError, "every")]:
        oracle = RecordingOracle()
        with pytest.raises(error, match=rf"parity fraction {fraction} hides {which} entry of series 's0' of shape \(64, 1\)"):
            parity_check(oracle, oracle, corpus, tolerance=0.1, fraction=fraction)
        assert [view.series.id for view in oracle.seen] == ["long"]


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_parity_check_rejects_a_tolerance_that_is_not_finite(tolerance):
    # NaN failed every pair of models and inf passed every one.
    from helpers import RecordingOracle

    oracle = RecordingOracle()
    with pytest.raises(ValueError, match="^tolerance must be finite and positive"):
        parity_check(oracle, oracle, [TimeSeries("s0", np.zeros((64, 1)))], tolerance=tolerance)
    assert oracle.seen == []


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
        assert np.isinf(model._net.forward(model._views, masked.series.values[None], masked.missing[None])[0]).all()
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


def reshape_model_file(doc, n_steps, n_dims):
    """Give a model file that shape, with as many (zero) parameters as that shape's layout has."""
    count = _build_net(n_steps, n_dims, AE_TINY).n_params
    doc.update(n_steps=n_steps, n_dims=n_dims, params_b64=base64.b64encode(np.zeros(count, "<f8").tobytes()).decode())


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
    (lambda d: d["config"].update(learning_rate=float("nan")), "'learning_rate' in the config block of .* must be a finite float"),
    (lambda d: d["config"].update(momentum=10**400), "'momentum' in the config block of .* must be a finite float"),
    (lambda d: d.update(history=[0.5, float("inf")]), "item 1 of 'history' in .* must be a finite float, got inf"),
    # a shape below 1 with as many parameters as the layout it gives
    (lambda d: reshape_model_file(d, 0, 1), r"model\.json: n_steps must be at least 1, got 0"),
    (lambda d: reshape_model_file(d, 8, 0), r"model\.json: n_dims must be at least 1, got 0"),
    (lambda d: reshape_model_file(d, -2, -1), r"model\.json: n_steps must be at least 1, got -2"),
    (lambda d: reshape_model_file(d, -1, 1), r"model\.json: n_steps must be at least 1, got -1"),
], ids=["n_steps", "n_dims", "history_item", "unknown_key", "no_history", "params_truncated", "params_7_bytes",
        "params_wrong_count", "params_nan", "learning_rate_nan", "momentum_past_float", "history_inf",
        "shape_0_1", "shape_8_0", "shape_-2_-1", "shape_-1_1"])
def test_load_rejects_mistyped_model_files_by_name(tmp_path, edit, match):
    # Each of these once loaded, cast by hand or ignored, a left-out history raised KeyError, and an
    # integer past float's range raised OverflowError.
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
    with pytest.raises(ValueError, match="parameters must be a flat vector"):
        TrainedImputer(config=AE_TINY, n_steps=5, n_dims=1, params=np.zeros((1, 3)), history=(0.1,))


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
