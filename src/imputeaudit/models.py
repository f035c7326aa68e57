"""Desk-scale trainable imputers: a dense autoencoder and a small self-attention
model, whose nets live in the ``autoencoder`` and ``attention`` modules.

Both train with mini-batch gradient descent on a masked-reconstruction
objective: mean absolute error on artificially hidden entries, fresh random
masks every batch. Forward and backward passes are written out by hand in
numpy so runs are exactly reproducible and gradients can be checked against
finite differences.

A training run allocates its parameter, gradient and velocity buffers once
and names their blocks through views built once; ``forward`` reads the
parameter views and ``backward`` overwrites every gradient view, through the
workspace of its forward. The run, not the net that ``fine_tune`` shares with
its base, owns that workspace, which both nets' passes write every per-step
tensor into: the attention net one array per tensor for all batch sizes (see
``attention._buffer``), the autoencoder one entry per batch size, looked up
once a pass (see ``autoencoder``). Each batch's views of the epoch's arrays
and of one ``dy`` buffer are built once a run. ``TrainedImputer.impute``
passes no workspace, so a trained model holds no mutable state. ``forward``
is given the mask of the entries whose predictions will be read, the hidden
ones in training and the masked ones in ``impute``: the autoencoder computes
every output anyway, and the attention net only the rows that the
``attention`` module's row rule picks, with the same bits there.

Each epoch draws all of its masks in one ``(n, steps * dims)`` call, the
same stream as a draw per batch (``Generator.random`` spends one 64-bit word
per float64). A row hides what is at or below its ``n_hidden``-th smallest
score, found with one sort; an epoch with a tie at that place picks by ``argpartition``. A step
writes its residual over the epoch's shuffled copy, and its ``dy``,
sign(residual) times a per-epoch scale plus 0.0, has the bits of the masked
sign over the count, though a NaN prediction at an entry not hidden reaches
it too. The epoch's end sums each batch's hidden residuals as that batch
alone would, and adds the sums in batch order.

``parity_check`` queries both models through ``core``'s checked query as the
``parity`` caller. ``TrainedImputer.impute`` rejects a non-finite
completion, which the checked query reports as ``OracleError`` naming the
caller and the series. ``save_model`` and ``load_model`` round-trip a model
bit for bit.

Models operate in normalized space: callers are expected to z-score series
(see core.zscore_normalize) before training or querying.
"""
from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .autoencoder import _Autoencoder
from .core import DegenerateMaskError, MaskedSeries, TimeSeries, _Layout, _freeze, _load, _query, _read, _series, _to_dict, _write_json, apply_mask, derive_seed, random_missing_mask

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
# The ImputerConfig fields that shape a net: fine-tuning may change none of them.
ARCHITECTURE_FIELDS = ("architecture", "hidden", "latent", "model_dim", "heads", "ff_dim", "blocks")


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
        # NaN fails each check too.
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and nonnegative, got {self.learning_rate}")
        if not 0 <= self.momentum < math.inf:
            raise ValueError(f"momentum must be finite and nonnegative, got {self.momentum}")
        if not 0.0 < self.mask_fraction < 1.0:
            raise ValueError(f"mask_fraction must be in (0, 1), got {self.mask_fraction}")


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


def _build_net(n_steps: int, n_dims: int, cfg: ImputerConfig):
    if cfg.architecture == "autoencoder":
        return _Autoencoder(n_steps, n_dims, cfg)
    from .attention import _SelfAttentionImputer  # on first use: autoencoder runs never load it

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
        params = np.array(self.params, dtype=np.float64)
        for field in ("n_steps", "n_dims"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be at least 1, got {getattr(self, field)}")
        if params.ndim != 1:
            raise ValueError("parameters must be a flat vector")
        if not np.all(np.isfinite(params)):
            raise ValueError("parameters must be finite")
        net = _build_net(self.n_steps, self.n_dims, self.config)
        if params.shape[0] != net.n_params:
            raise ValueError(f"expected {net.n_params} parameters for this config, got {params.shape[0]}")
        object.__setattr__(self, "history", tuple(float(v) for v in self.history))
        object.__setattr__(self, "_net", net)
        object.__setattr__(self, "_views", _unpack(_freeze(self, "params", params), net.layout))

    def impute(self, x: MaskedSeries) -> TimeSeries:
        """Fill the masked entries; observed entries are copied through exactly."""
        if x.series.shape != (self.n_steps, self.n_dims):
            raise ValueError(f"expected shape ({self.n_steps}, {self.n_dims}), got {x.series.shape}")
        predicted, _ = self._net.forward(self._views, x.series.values[None], x.missing[None])
        filled = np.where(x.missing, predicted[0], x.series.values)
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


def _descend(net, params: np.ndarray, data: np.ndarray, cfg: ImputerConfig, rng: np.random.Generator):
    """Descend from a copy of ``params``; the caller's array is not touched."""
    n, steps, dims = data.shape
    n_hidden = max(1, int(round(cfg.mask_fraction * steps * dims)))
    n_full, n_short = divmod(n, cfg.batch_size)
    full_terms = cfg.batch_size * n_hidden
    params = params.copy()
    grad = np.empty_like(params)
    velocity = np.zeros_like(params)
    step = np.empty_like(params)
    p = _unpack(params, net.layout)
    g = _unpack(grad, net.layout)
    ws: dict = {}
    # Each epoch draws its mask scores into ``scale``, so the draw needs no
    # array of its own, then fills it with dy's factor: 1/count at a hidden
    # entry of a batch that hides count entries, 0.0 elsewhere.
    scale = np.empty_like(data)
    hidden = np.empty(data.shape, dtype=bool)
    # The epoch's series in its order; each step overwrites its rows with its residual.
    shuffled = np.empty_like(data)
    # Each batch's views of the epoch's arrays and of one dy buffer.
    dy = np.empty_like(data[: cfg.batch_size])
    bounds = [(lo, min(lo + cfg.batch_size, n)) for lo in range(0, n, cfg.batch_size)]
    batches = [(shuffled[lo:hi], hidden[lo:hi], scale[lo:hi], dy[: hi - lo]) for lo, hi in bounds]
    momentum, rate = cfg.momentum, cfg.learning_rate
    history = []
    # Overflow during a diverging run surfaces as DivergenceError below, not
    # as a stream of numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            np.take(data, rng.permutation(n), axis=0, out=shuffled)
            # A row hides what is at or below its n_hidden-th smallest score.
            # Equal scores at places n_hidden and n_hidden + 1 would hide one
            # too many, so an epoch with such a row picks by argpartition.
            scores, rows = scale.reshape(n, -1), hidden.reshape(n, -1)
            rng.random(out=scores)
            np.less_equal(scores, np.sort(scores, axis=1)[:, n_hidden - 1 : n_hidden], out=rows)
            if np.count_nonzero(rows) != n * n_hidden:
                hide = np.argpartition(scores, n_hidden - 1, axis=1)[:, :n_hidden]
                rows[...] = False
                rows[np.arange(n)[:, None], hide] = True
            np.multiply(hidden, 1.0 / full_terms, out=scale)
            if n_short:
                np.multiply(hidden[-n_short:], 1.0 / (n_short * n_hidden), out=scale[-n_short:])
            for batch, batch_hidden, factor, batch_dy in batches:
                predicted, cache = net.forward(p, np.where(batch_hidden, 0.0, batch), batch_hidden, ws)
                np.subtract(predicted, batch, out=batch)  # now the residual
                # sign(residual) / count at hidden entries, +0.0 elsewhere
                np.sign(batch, out=batch_dy)
                batch_dy *= factor
                batch_dy += 0.0
                net.backward(p, cache, batch_dy, g, ws)
                velocity *= momentum
                velocity += grad
                np.multiply(velocity, rate, out=step)
                params -= step
            # Each batch's sum is the pairwise sum of its own hidden residuals
            # that a sum per step would give; the sums add up in batch order.
            err = shuffled[hidden]
            np.abs(err, out=err)
            abs_err = 0.0
            for batch_err in err[: n_full * full_terms].reshape(n_full, full_terms).sum(axis=1).tolist():
                abs_err += batch_err
            if n_short:
                abs_err += float(err[n_full * full_terms :].sum())
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
    for field in ARCHITECTURE_FIELDS:
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
        hidden = random_missing_mask(s.shape, fraction, derive_seed(seed, i))
        if not hidden.any():
            raise ValueError(f"parity fraction {fraction} hides no entry of series {s.id!r} of shape {s.shape}")
        if hidden.all():
            raise DegenerateMaskError(f"parity fraction {fraction} hides every entry of series {s.id!r} of shape {s.shape}")
        completed = _query(model, apply_mask(s, hidden), "parity")
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
    if not 0 < tolerance < math.inf:  # NaN fails too
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
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
