"""Desk-scale trainable imputers: a dense autoencoder and a small self-attention model.

Both train with mini-batch gradient descent on a masked-reconstruction
objective: mean absolute error on artificially hidden entries, fresh random
masks every batch. Forward and backward passes are written out by hand in
numpy so runs are exactly reproducible and gradients can be checked against
finite differences.

A training run allocates its parameter, gradient and velocity buffers once
and names their blocks through views built once; ``forward`` reads the
parameter views and ``backward`` overwrites every gradient view. The run also
owns one workspace that both passes write every per-step tensor into (see
``_buffer``); ``TrainedImputer.impute`` passes none, so a trained model holds
no mutable state.

Each epoch draws all of its masks in one ``(n, steps * dims)`` call and
gathers the shuffled data once, and each batch slices both. That is the same
stream as a draw per batch: ``Generator.random`` spends one 64-bit word per
float64, so one draw of n rows equals the per-batch draws joined, and the
hidden entries are picked per row (``argpartition`` along axis 1), exactly
``n_hidden`` of them in every row.

Models operate in normalized space: callers are expected to z-score series
(see core.zscore_normalize) before training or querying.
"""
from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import MaskedSeries, TimeSeries, _load, _query, _read, _series, _to_dict, _write_json, apply_mask, derive_seed, random_missing_mask

__all__ = [
    "ImputerConfig",
    "TrainedImputer",
    "ParityReport",
    "DivergenceError",
    "train",
    "fine_tune",
    "evaluate_mae",
    "parity_check",
    "save_model",
    "load_model",
]

ARCHITECTURES = ("autoencoder", "attention")


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameters; the model is not auditable."""


@dataclass(frozen=True)
class ImputerConfig:
    architecture: str = "autoencoder"
    # autoencoder: widths of the outer hidden layers and the bottleneck
    hidden: int = 32
    latent: int = 16
    # attention: embedding width, head count, feed-forward width, block count
    model_dim: int = 16
    heads: int = 2
    ff_dim: int = 32
    blocks: int = 1
    # shared training knobs
    epochs: int = 50
    batch_size: int = 16
    learning_rate: float = 0.05
    momentum: float = 0.0
    mask_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}, got {self.architecture!r}")
        if min(self.hidden, self.latent, self.model_dim, self.heads, self.ff_dim, self.blocks) < 1:
            raise ValueError("layer widths, head count and block count must be positive")
        if self.model_dim % self.heads != 0:
            raise ValueError(f"model_dim {self.model_dim} must be divisible by heads {self.heads}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate < 0 or self.momentum < 0:
            raise ValueError("learning rate and momentum must be nonnegative")
        if not 0.0 < self.mask_fraction < 1.0:
            raise ValueError(f"mask_fraction must be in (0, 1), got {self.mask_fraction}")


_Layout = list[tuple[str, int, int, tuple[int, ...]]]


def _layout(shapes: list[tuple[str, tuple[int, ...]]]) -> _Layout:
    """(name, start, stop, shape) of each parameter in the flat vector, computed once per network."""
    layout = []
    ofs = 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        layout.append((name, ofs, ofs + size, shape))
        ofs += size
    return layout


def _unpack(flat: np.ndarray, layout: _Layout) -> dict[str, np.ndarray]:
    """Name -> view into ``flat``; writes through a view land in ``flat``."""
    return {name: flat[start:stop].reshape(shape) for name, start, stop, shape in layout}


def _fan_in_init(rng: np.random.Generator, layout: _Layout) -> np.ndarray:
    """Uniform init scaled by 1/sqrt(fan_in); biases start at zero."""
    chunks = []
    for _, start, stop, shape in layout:
        size = stop - start
        if len(shape) == 1:
            chunks.append(np.zeros(size))
        else:
            bound = 1.0 / np.sqrt(shape[0])
            chunks.append(rng.uniform(-bound, bound, size=size))
    return np.concatenate(chunks)


def _buffer(ws: dict | None, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array of ``shape``: a new one without a
    workspace, else the one ``ws`` holds under (name, shape), made on first use.

    A training run passes one workspace to every step, so a step's tensors
    reuse the memory of the step before instead of being freed and mapped
    again; there is one set per batch size, as an epoch's short last batch
    has its own shapes.
    """
    if ws is None:
        return np.empty(shape)
    buf = ws.get((name, shape))
    if buf is None:
        buf = ws[(name, shape)] = np.empty(shape)
    return buf


class _Autoencoder:
    """tanh MLP: flattened series -> hidden -> latent -> hidden -> series.

    Its tensors are a few KiB, small enough that allocating them each step
    costs little, so it takes a workspace and ignores it.
    """

    def __init__(self, n_steps: int, n_dims: int, cfg: ImputerConfig) -> None:
        flat = n_steps * n_dims
        sizes = [flat, cfg.hidden, cfg.latent, cfg.hidden, flat]
        shapes = []
        for layer, (a, b) in enumerate(zip(sizes[:-1], sizes[1:]), start=1):
            shapes.append((f"W{layer}", (a, b)))
            shapes.append((f"b{layer}", (b,)))
        self.layout = _layout(shapes)
        self.n_params = self.layout[-1][2]

    def forward(self, p: dict[str, np.ndarray], x: np.ndarray, ws: dict | None = None):
        b, t, d = x.shape
        a0 = x.reshape(b, t * d)
        h1 = np.tanh(a0 @ p["W1"] + p["b1"])
        z = np.tanh(h1 @ p["W2"] + p["b2"])
        h2 = np.tanh(z @ p["W3"] + p["b3"])
        y = h2 @ p["W4"] + p["b4"]
        return y.reshape(b, t, d), (a0, h1, z, h2)

    def backward(self, p: dict[str, np.ndarray], cache, dy: np.ndarray, g: dict[str, np.ndarray],
                 ws: dict | None = None) -> None:
        """Overwrite every gradient view in ``g``."""
        a0, h1, z, h2 = cache
        b = dy.shape[0]
        dyf = dy.reshape(b, -1)

        g["W4"][...] = h2.T @ dyf
        g["b4"][...] = dyf.sum(axis=0)
        dh2 = (dyf @ p["W4"].T) * (1.0 - h2 * h2)
        g["W3"][...] = z.T @ dh2
        g["b3"][...] = dh2.sum(axis=0)
        dz = (dh2 @ p["W3"].T) * (1.0 - z * z)
        g["W2"][...] = h1.T @ dz
        g["b2"][...] = dz.sum(axis=0)
        dh1 = (dz @ p["W2"].T) * (1.0 - h1 * h1)
        g["W1"][...] = a0.T @ dh1
        g["b1"][...] = dh1.sum(axis=0)


def _sinusoid_table(n_steps: int, model_dim: int) -> np.ndarray:
    pos = np.arange(n_steps, dtype=np.float64)[:, None]
    idx = np.arange(model_dim, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * (idx // 2) / model_dim)
    return np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))


class _SelfAttentionImputer:
    """Per-step embedding + sinusoidal positions + residual attention blocks.

    Scaled way down from production imputers but mechanically the same:
    multi-head self-attention over the (partially masked) sequence, then a
    position-wise tanh feed-forward, each with a residual connection. No
    layer norm; fan-in init and small learning rates keep desk-scale training
    stable without it.
    """

    def __init__(self, n_steps: int, n_dims: int, cfg: ImputerConfig) -> None:
        dm, ff = cfg.model_dim, cfg.ff_dim
        self.heads = cfg.heads
        self.head_dim = dm // cfg.heads
        self.ff_dim = ff
        self.blocks = cfg.blocks
        self.positions = _sinusoid_table(n_steps, dm)
        shapes = [("We", (n_dims, dm)), ("be", (dm,))]
        for k in range(cfg.blocks):
            for gate in ("q", "k", "v", "o"):
                shapes.append((f"W{gate}{k}", (dm, dm)))
                shapes.append((f"b{gate}{k}", (dm,)))
            shapes.append((f"Wf1_{k}", (dm, ff)))
            shapes.append((f"bf1_{k}", (ff,)))
            shapes.append((f"Wf2_{k}", (ff, dm)))
            shapes.append((f"bf2_{k}", (dm,)))
        shapes.append(("Wout", (dm, n_dims)))
        shapes.append(("bout", (n_dims,)))
        self.layout = _layout(shapes)
        self.n_params = self.layout[-1][2]

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(b, t, heads * head_dim) -> a (b, heads, t, head_dim) view; writes land in ``x``."""
        b, t, _ = x.shape
        return x.reshape(b, t, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, p: dict[str, np.ndarray], x: np.ndarray, ws: dict | None = None):
        """Every tensor of the step goes to a buffer from ``ws`` (see ``_buffer``);
        the cache holds them, so it is valid until the next step through ``ws``."""
        b, t, _ = x.shape
        dm, hd = self.heads * self.head_dim, self.head_dim
        scale = 1.0 / np.sqrt(hd)
        h = _buffer(ws, "h0", (b, t, dm))
        np.matmul(x, p["We"], out=h)
        h += p["be"]
        h += self.positions
        key_t = _buffer(ws, "key_t", (b, self.heads, hd, t))
        row = _buffer(ws, "row", (b, self.heads, t, 1))
        block_caches = []
        for k in range(self.blocks):
            projections = []
            for gate in "qkv":
                proj = _buffer(ws, f"{gate}{k}", (b, t, dm))
                np.matmul(h, p[f"W{gate}{k}"], out=proj)
                proj += p[f"b{gate}{k}"]
                projections.append(self._split_heads(proj))
            q, key, v = projections
            # A contiguous copy of k^T multiplies faster than the transposed view, to the same bits.
            np.copyto(key_t, key.transpose(0, 1, 3, 2))
            weights = _buffer(ws, f"weights{k}", (b, self.heads, t, t))
            np.matmul(q, key_t, out=weights)
            weights *= scale
            weights -= weights.max(axis=-1, keepdims=True, out=row)  # softmax stability
            np.exp(weights, out=weights)
            weights /= weights.sum(axis=-1, keepdims=True, out=row)
            mixed = _buffer(ws, f"mixed{k}", (b, t, dm))
            np.matmul(weights, v, out=self._split_heads(mixed))
            attended = _buffer(ws, f"attended{k}", (b, t, dm))
            np.matmul(mixed, p[f"Wo{k}"], out=attended)
            np.add(h, attended, out=attended)
            attended += p[f"bo{k}"]
            act = _buffer(ws, f"act{k}", (b, t, self.ff_dim))
            np.matmul(attended, p[f"Wf1_{k}"], out=act)
            act += p[f"bf1_{k}"]
            np.tanh(act, out=act)
            out = _buffer(ws, f"h{k + 1}", (b, t, dm))
            np.matmul(act, p[f"Wf2_{k}"], out=out)
            np.add(attended, out, out=out)
            out += p[f"bf2_{k}"]
            block_caches.append((h, q, key, v, weights, mixed, attended, act))
            h = out
        y = _buffer(ws, "y", x.shape)
        np.matmul(h, p["Wout"], out=y)
        y += p["bout"]
        return y, (x, h, block_caches)

    def backward(self, p: dict[str, np.ndarray], cache, dy: np.ndarray, g: dict[str, np.ndarray],
                 ws: dict | None = None) -> None:
        """Overwrite every gradient view in ``g``.

        One buffer ``dh`` carries the gradient down the blocks: each block
        adds its residual branches to it in place, in the order the sums are
        written, so it holds dout, then dattended, then dh_in.
        """
        x, h_final, block_caches = cache
        b, t, _ = x.shape
        dm = self.heads * self.head_dim
        scale = 1.0 / np.sqrt(self.head_dim)

        g["Wout"][...] = np.einsum("btm,btd->md", h_final, dy)
        g["bout"][...] = dy.sum(axis=(0, 1))
        dh = _buffer(ws, "dh", (b, t, dm))
        np.matmul(dy, p["Wout"].T, out=dh)
        branch = _buffer(ws, "branch", (b, t, dm))
        dmixed = _buffer(ws, "dmixed", (b, t, dm))
        # dq, dk and dv side by side, so one contraction and one sum give their weight and bias gradients.
        dqkv = _buffer(ws, "dqkv", (b, t, 3 * dm))
        dq, dkey, dv = (self._split_heads(dqkv[..., i * dm : (i + 1) * dm]) for i in range(3))
        dweights = _buffer(ws, "dweights", (b, self.heads, t, t))
        dlogits = _buffer(ws, "dlogits", (b, self.heads, t, t))
        row = _buffer(ws, "row", (b, self.heads, t, 1))
        dpre = _buffer(ws, "dpre", (b, t, self.ff_dim))
        slope = _buffer(ws, "slope", (b, t, self.ff_dim))

        for k in reversed(range(self.blocks)):
            h_in, q, key, v, weights, mixed, attended, act = block_caches[k]
            # feed-forward residual: out = attended + tanh(attended W1 + b1) W2 + b2
            g[f"Wf2_{k}"][...] = np.einsum("btm,btf->mf", dh, act).T
            g[f"bf2_{k}"][...] = dh.sum(axis=(0, 1))
            np.matmul(dh, p[f"Wf2_{k}"].T, out=dpre)
            np.multiply(act, act, out=slope)
            np.subtract(1.0, slope, out=slope)
            dpre *= slope
            g[f"Wf1_{k}"][...] = np.einsum("btm,btf->mf", attended, dpre)
            g[f"bf1_{k}"][...] = dpre.sum(axis=(0, 1))
            dh += np.matmul(dpre, p[f"Wf1_{k}"].T, out=branch)  # now dattended
            # attention residual: attended = h_in + merge(softmax(q k^T) v) Wo + bo
            g[f"Wo{k}"][...] = np.einsum("btm,btn->mn", mixed, dh)
            g[f"bo{k}"][...] = dh.sum(axis=(0, 1))
            np.matmul(dh, p[f"Wo{k}"].T, out=dmixed)
            dmixed_heads = self._split_heads(dmixed)
            np.matmul(dmixed_heads, v.transpose(0, 1, 3, 2), out=dweights)
            np.matmul(weights.transpose(0, 1, 3, 2), dmixed_heads, out=dv)
            # dlogits = weights * (dweights - rowsum(dweights * weights))
            np.multiply(dweights, weights, out=dlogits)
            dweights -= dlogits.sum(axis=-1, keepdims=True, out=row)
            np.multiply(weights, dweights, out=dlogits)
            np.matmul(dlogits, key, out=dq)
            dq *= scale
            np.matmul(dlogits.transpose(0, 1, 3, 2), q, out=dkey)
            dkey *= scale
            w_qkv = np.einsum("btm,btn->mn", h_in, dqkv)
            b_qkv = dqkv.sum(axis=(0, 1))
            for i, gate in enumerate("qkv"):
                g[f"W{gate}{k}"][...] = w_qkv[:, i * dm : (i + 1) * dm]
                g[f"b{gate}{k}"][...] = b_qkv[i * dm : (i + 1) * dm]
                dh += np.matmul(dqkv[..., i * dm : (i + 1) * dm], p[f"W{gate}{k}"].T, out=branch)  # now dh_in

        g["We"][...] = np.einsum("btd,btm->dm", x, dh)
        g["be"][...] = dh.sum(axis=(0, 1))


def _build_net(n_steps: int, n_dims: int, cfg: ImputerConfig):
    if cfg.architecture == "autoencoder":
        return _Autoencoder(n_steps, n_dims, cfg)
    return _SelfAttentionImputer(n_steps, n_dims, cfg)


@dataclass(frozen=True, eq=False)
class TrainedImputer:
    """Immutable trained model; implements the black-box impute interface."""

    config: ImputerConfig
    n_steps: int
    n_dims: int
    params: np.ndarray
    history: tuple[float, ...]

    def __post_init__(self) -> None:
        params = np.asarray(self.params, dtype=np.float64)
        if params.ndim != 1:
            raise ValueError("parameters must be a flat vector")
        if not np.all(np.isfinite(params)):
            raise ValueError("parameters must be finite")
        net = _build_net(self.n_steps, self.n_dims, self.config)
        if params.shape[0] != net.n_params:
            raise ValueError(f"expected {net.n_params} parameters for this config, got {params.shape[0]}")
        params = params.copy()
        params.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "history", tuple(float(v) for v in self.history))
        object.__setattr__(self, "_net", net)
        object.__setattr__(self, "_views", _unpack(params, net.layout))

    def impute(self, x: MaskedSeries) -> TimeSeries:
        """Fill the masked entries; observed entries are copied through exactly."""
        if x.series.shape != (self.n_steps, self.n_dims):
            raise ValueError(f"expected shape ({self.n_steps}, {self.n_dims}), got {x.series.shape}")
        predicted, _ = self._net.forward(self._views, x.series.values[None])
        filled = np.where(x.mask.observed(), x.series.values, predicted[0])
        if not np.isfinite(filled).all():
            raise ValueError(f"series {x.id!r}: values must be finite")
        return _series(x.id, filled)


@dataclass(frozen=True)
class ParityReport:
    """Are the target and reference models of comparable skill on held-out data?"""

    mae_target: float
    mae_reference: float
    tolerance: float
    passed: bool

    @property
    def gap(self) -> float:
        return abs(self.mae_target - self.mae_reference)


def _stack(dataset: list[TimeSeries]) -> np.ndarray:
    if not dataset:
        raise ValueError("dataset must be nonempty")
    shape = dataset[0].shape
    for s in dataset:
        if s.shape != shape:
            raise ValueError(f"all series must share one shape; {s.id!r} is {s.shape}, expected {shape}")
    return np.stack([s.values for s in dataset])


def _batch_observed(rng: np.random.Generator, n: int, steps: int, dims: int, n_hidden: int) -> np.ndarray:
    """Per series, hide exactly n_hidden entries chosen uniformly."""
    scores = rng.random((n, steps * dims))
    hide = np.argpartition(scores, n_hidden - 1, axis=1)[:, :n_hidden]
    observed = np.ones((n, steps * dims), dtype=bool)
    observed[np.arange(n)[:, None], hide] = False
    return observed.reshape(n, steps, dims)


def _descend(net, params: np.ndarray, data: np.ndarray, cfg: ImputerConfig, rng: np.random.Generator):
    """Descend from a copy of ``params``; the caller's array is not touched."""
    n, steps, dims = data.shape
    n_hidden = max(1, int(round(cfg.mask_fraction * steps * dims)))
    params = params.copy()
    grad = np.empty_like(params)
    velocity = np.zeros_like(params)
    step = np.empty_like(params)
    p = _unpack(params, net.layout)
    g = _unpack(grad, net.layout)
    ws: dict = {}
    history = []
    # Overflow during a diverging run surfaces as DivergenceError below, not
    # as a stream of numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            shuffled = data[rng.permutation(n)]
            observed = _batch_observed(rng, n, steps, dims, n_hidden)
            hidden = ~observed
            inputs = np.where(observed, shuffled, 0.0)
            abs_err = 0.0
            for lo in range(0, n, cfg.batch_size):
                hi = lo + cfg.batch_size
                batch_hidden = hidden[lo:hi]
                count = batch_hidden.shape[0] * n_hidden
                predicted, cache = net.forward(p, inputs[lo:hi], ws)
                residual = predicted - shuffled[lo:hi]
                dy = np.where(batch_hidden, np.sign(residual), 0.0) / count
                net.backward(p, cache, dy, g, ws)
                velocity *= cfg.momentum
                velocity += grad
                np.multiply(velocity, cfg.learning_rate, out=step)
                params -= step
                abs_err += float(np.abs(residual[batch_hidden]).sum())
            epoch_loss = abs_err / (n * n_hidden)
            if not np.isfinite(epoch_loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            history.append(epoch_loss)
    if not np.all(np.isfinite(params)):
        raise DivergenceError(f"non-finite parameters after epoch {cfg.epochs - 1}")
    return params, tuple(history)


def train(dataset: list[TimeSeries], cfg: ImputerConfig) -> TrainedImputer:
    """Train from scratch; deterministic given (seed, config, data)."""
    data = _stack(dataset)
    _, steps, dims = data.shape
    net = _build_net(steps, dims, cfg)
    rng = np.random.default_rng(cfg.seed)
    params, history = _descend(net, _fan_in_init(rng, net.layout), data, cfg, rng)
    return TrainedImputer(config=cfg, n_steps=steps, n_dims=dims, params=params, history=history)


def fine_tune(base: TrainedImputer, private: list[TimeSeries], cfg: ImputerConfig) -> TrainedImputer:
    """Continue gradient descent from ``base`` on private data only; ``base`` is untouched."""
    for field in ("architecture", "hidden", "latent", "model_dim", "heads", "ff_dim", "blocks"):
        if getattr(cfg, field) != getattr(base.config, field):
            raise ValueError(f"fine-tune config changes architecture field {field!r}")
    data = _stack(private)
    _, steps, dims = data.shape
    if (steps, dims) != (base.n_steps, base.n_dims):
        raise ValueError(f"private data shape ({steps}, {dims}) incompatible with base ({base.n_steps}, {base.n_dims})")
    rng = np.random.default_rng(cfg.seed)
    params, history = _descend(base._net, base.params, data, cfg, rng)
    return TrainedImputer(config=cfg, n_steps=steps, n_dims=dims, params=params, history=history)


def evaluate_mae(model, data: list[TimeSeries], fraction: float, seed: int) -> float:
    """Hide ``fraction`` of each series, query ``model`` as the parity caller, and average |error| over hidden entries."""
    if not data:
        raise ValueError("no series to evaluate")
    abs_err = 0.0
    count = 0
    for i, s in enumerate(data):
        mask = random_missing_mask(s.shape, fraction, derive_seed(seed, i))
        hidden = mask.missing()
        if not hidden.any():
            raise ValueError(f"parity fraction {fraction} hides no entry of series {s.id!r} of shape {s.shape}")
        completed = _query(model, apply_mask(s, mask), "parity")
        abs_err += float(np.abs(completed.values[hidden] - s.values[hidden]).sum())
        count += int(hidden.sum())
    return abs_err / count


def parity_check(
    target,
    reference,
    test: list[TimeSeries],
    tolerance: float,
    fraction: float = 0.2,
    seed: int = 0,
) -> ParityReport:
    """Compare held-out MAE of the two models on identical masks.

    The harness refuses to run headline experiments when this fails; a
    reference model of different skill makes the loss ratio meaningless.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    mae_t = evaluate_mae(target, list(test), fraction, seed)
    mae_r = evaluate_mae(reference, list(test), fraction, seed)
    return ParityReport(
        mae_target=mae_t,
        mae_reference=mae_r,
        tolerance=tolerance,
        passed=abs(mae_t - mae_r) <= tolerance,
    )


MODEL_FORMAT = "imputeaudit-model-v1"


@dataclass(frozen=True)
class _ModelFile:
    """A model file: its format tag, and the parameters as base64 of little-endian float64s."""

    TAG: ClassVar[tuple[str, str]] = ("format", MODEL_FORMAT)

    config: ImputerConfig
    n_steps: int
    n_dims: int
    history: tuple[float, ...]
    params_b64: str


def save_model(model: TrainedImputer, path: str) -> None:
    """Self-describing JSON dump; the parameter round trip is bit-exact."""
    params_b64 = base64.b64encode(np.ascontiguousarray(model.params, dtype="<f8").tobytes()).decode("ascii")
    _write_json(_to_dict(_ModelFile(model.config, model.n_steps, model.n_dims, model.history, params_b64)), path)


def load_model(path: str) -> TrainedImputer:
    doc = _load(dict, path)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
    file = _read(_ModelFile, doc, path)
    try:
        params = np.frombuffer(base64.b64decode(file.params_b64), dtype="<f8").astype(np.float64)
        return TrainedImputer(file.config, file.n_steps, file.n_dims, params, file.history)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
