"""Stub oracles and the brute-force and reference oracles (statistics, DTW, training, the autoencoder and attention steps, CSV writing and loading) shared across the test suite.

The stubs here deliberately bypass the production model code so that attack
and metric tests check the pipeline against arithmetic, not against the
trainer.
"""
from __future__ import annotations

import csv
import math

import numpy as np

from imputeaudit.core import MaskedSeries, TimeSeries
from imputeaudit.data import CsvParseError, CsvSchemaError, _draw_components, _render_components
from imputeaudit.models import _unpack

# n*m above this and exhaustive path enumeration stops being a test oracle
# and starts being a space heater.
BRUTE_FORCE_CELL_LIMIT = 36


def _recall(memory: list[TimeSeries], x: MaskedSeries) -> TimeSeries:
    """The remembered series whose values match every observed entry of the view."""
    observed = ~x.missing
    return next(s for s in memory if np.array_equal(s.values[observed], x.series.values[observed]))


class PerfectOracle:
    """A model with perfect memory: returns the remembered series the view was cut from."""

    def __init__(self, memory: list[TimeSeries]) -> None:
        self.memory = list(memory)

    def impute(self, x: MaskedSeries) -> TimeSeries:
        return _recall(self.memory, x)


class OffsetOracle:
    """Keep-observed oracle that remembers its series and misses every hidden entry by a fixed offset."""

    def __init__(self, offset: float, memory: list[TimeSeries]) -> None:
        self.offset = offset
        self.memory = list(memory)

    def impute(self, x: MaskedSeries) -> TimeSeries:
        filled = np.where(~x.missing, x.series.values, _recall(self.memory, x).values + self.offset)
        return TimeSeries(x.id, filled)


class ZeroFillOracle:
    """Predicts 0 (the normalized mean) at every hidden entry."""

    def impute(self, x: MaskedSeries) -> TimeSeries:
        return x.series


class FailingOracle:
    def impute(self, x: MaskedSeries) -> TimeSeries:
        raise RuntimeError("deliberately broken oracle")


class TruncatingOracle:
    """Breaks the contract by dropping the last step of the completion."""

    def impute(self, x: MaskedSeries) -> TimeSeries:
        return TimeSeries(x.id, x.series.values[:-1])


class ShiftingOracle:
    """Breaks the contract by moving every entry, the observed ones included."""

    def impute(self, x: MaskedSeries) -> TimeSeries:
        return TimeSeries(x.id, x.series.values + 0.5)


class CountingOracle:
    """Wraps an oracle and counts the queries it answers."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def impute(self, x: MaskedSeries) -> TimeSeries:
        self.calls += 1
        return self.inner.impute(x)


class RecordingOracle:
    """ZeroFill behavior, but remembers every masked view it was shown."""

    def __init__(self) -> None:
        self.seen: list[MaskedSeries] = []

    def impute(self, x: MaskedSeries) -> TimeSeries:
        self.seen.append(x)
        return x.series


def mann_whitney(scores: np.ndarray, is_member: np.ndarray) -> float:
    """P(member score < nonmember score) + 0.5 P(tie), by exhaustive pairing."""
    members = scores[is_member]
    nonmembers = scores[~is_member]
    less = (members[:, None] < nonmembers[None, :]).sum()
    ties = (members[:, None] == nonmembers[None, :]).sum()
    return float((less + 0.5 * ties) / (members.size * nonmembers.size))


def dtw_reference_rows(a: np.ndarray, b: np.ndarray) -> list[list[float]]:
    """Every row of the full, unpruned O(n*m) DTW sweep over the whole cost
    matrix: row i holds D(i, 0..m), and row 0 is the origin row."""
    diff = a[:, None, :] - b[None, :, :]
    costs = np.sqrt(np.sum(diff * diff, axis=2)).tolist()
    n, m = a.shape[0], b.shape[0]
    inf = float("inf")
    prev = [inf] * (m + 1)
    prev[0] = 0.0
    rows = [prev]
    for i in range(1, n + 1):
        cur = [inf] * (m + 1)
        row = costs[i - 1]
        for j in range(1, m + 1):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if cur[j - 1] < best:
                best = cur[j - 1]
            cur[j] = row[j - 1] + best
        rows.append(cur)
        prev = cur
    return rows


def dtw_reference(a: np.ndarray, b: np.ndarray) -> float:
    """D(n, m) of the full, unpruned sweep (``dtw_reference_rows``).

    ``dtw_distance`` prunes cells and computes point costs lazily; it must
    return exactly these bits.
    """
    return dtw_reference_rows(a, b)[-1][-1]


def dtw_brute_force(a, b) -> float:
    """Exhaustively enumerate every monotone alignment path and take the minimum.

    Refuses inputs with n*m > BRUTE_FORCE_CELL_LIMIT; enumeration is
    exponential and only meant to cross-check ``dtw_distance`` on tiny
    series. It reads its input and computes its point costs (``math.fsum`` of
    the squared differences) without ``imputeaudit.dtw``.
    """
    va, vb = (np.asarray(getattr(x, "values", x), dtype=np.float64) for x in (a, b))
    va, vb = va.reshape(len(va), -1), vb.reshape(len(vb), -1)
    if va.shape[1] != vb.shape[1]:
        raise ValueError(f"dimension mismatch: {va.shape[1]} vs {vb.shape[1]}")
    n, m = va.shape[0], vb.shape[0]
    if n * m > BRUTE_FORCE_CELL_LIMIT:
        raise ValueError(f"refusing exhaustive enumeration for {n}x{m} > {BRUTE_FORCE_CELL_LIMIT} cells")

    costs = [[math.sqrt(math.fsum((p - q) ** 2 for p, q in zip(x, y))) for y in vb.tolist()] for x in va.tolist()]
    best = float("inf")

    def walk(i: int, j: int, acc: float) -> None:
        nonlocal best
        acc += costs[i][j]
        if i == n - 1 and j == m - 1:
            if acc < best:
                best = acc
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best


def observed_reference(rng: np.random.Generator, n: int, steps: int, dims: int, n_hidden: int) -> np.ndarray:
    """Per series, hide the n_hidden entries of smallest score, picked by ``argpartition``."""
    scores = rng.random((n, steps * dims))
    hide = np.argpartition(scores, n_hidden - 1, axis=1)[:, :n_hidden]
    observed = np.ones((n, steps * dims), dtype=bool)
    observed[np.arange(n)[:, None], hide] = False
    return observed.reshape(n, steps, dims)


def descend_reference(net, params: np.ndarray, data: np.ndarray, cfg, rng: np.random.Generator):
    """The per-batch training loop: every step draws its own mask, gathers its
    batch, sums its loss and builds new parameter, gradient and velocity vectors.

    Its forward computes every row. ``models._descend`` draws each epoch's
    masks at once by a threshold, has the net compute only the rows it reads,
    sums the epoch's loss at its end and updates its buffers in place; it must
    return exactly these bits.
    """
    n, steps, dims = data.shape
    n_hidden = max(1, int(round(cfg.mask_fraction * steps * dims)))
    velocity = np.zeros_like(params)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        abs_err = 0.0
        n_terms = 0
        for lo in range(0, n, cfg.batch_size):
            batch = data[order[lo : lo + cfg.batch_size]]
            observed = observed_reference(rng, batch.shape[0], steps, dims, n_hidden)
            inputs = np.where(observed, batch, 0.0)
            ws: dict = {}  # a backward reads the workspace of its forward
            predicted, cache = net.forward(_unpack(params, net.layout), inputs, np.ones_like(observed), ws)
            residual = predicted - batch
            hidden = ~observed
            count = int(hidden.sum())
            dy = np.where(hidden, np.sign(residual), 0.0) / count
            gradient = np.zeros_like(params)
            net.backward(_unpack(params, net.layout), cache, dy, _unpack(gradient, net.layout), ws)
            velocity = cfg.momentum * velocity + gradient
            params = params - cfg.learning_rate * velocity
            abs_err += float(np.abs(residual[hidden]).sum())
            n_terms += count
        history.append(abs_err / n_terms)
    return params, tuple(history)


def autoencoder_forward_reference(p: dict[str, np.ndarray], x: np.ndarray):
    """The autoencoder forward pass through the ``@`` gufunc, a new array for every tensor.

    ``_Autoencoder.forward`` multiplies with ``ndarray.dot`` and adds the bias
    and applies tanh in place; it must return exactly these bits.
    """
    b, t, d = x.shape
    a0 = x.reshape(b, t * d)
    h1 = np.tanh(a0 @ p["W1"] + p["b1"])
    z = np.tanh(h1 @ p["W2"] + p["b2"])
    h2 = np.tanh(z @ p["W3"] + p["b3"])
    y = h2 @ p["W4"] + p["b4"]
    return y.reshape(b, t, d), (a0, h1, z, h2)


def autoencoder_backward_reference(p: dict[str, np.ndarray], cache, dy: np.ndarray, g: dict[str, np.ndarray]) -> None:
    """The autoencoder backward pass through ``@``, each gradient copied into its view.

    ``_Autoencoder.backward`` writes each gradient straight into its view with
    ``ndarray.dot`` and ``np.add.reduce`` (``out=``); it must write exactly these bits.
    """
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


def _split_heads(net, x: np.ndarray) -> np.ndarray:
    b, t, _ = x.shape
    return x.reshape(b, t, net.heads, net.head_dim).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """A new C-contiguous (b, t, heads * head_dim) array: at a head_dim of 1 the reshape alone is a strided
    view, whose sum over (b, t) numpy takes pairwise, not in production's sequential (b, t) order."""
    b, h, t, hd = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3).reshape(b, t, h * hd))


def attention_forward_reference(net, p: dict[str, np.ndarray], x: np.ndarray):
    """The attention forward pass with a new array for every tensor, and the
    heads merged by copy.

    ``_SelfAttentionImputer.forward`` writes into reused buffers; it must
    return exactly these bits.
    """
    h = x @ p["We"] + p["be"] + net.positions
    block_caches = []
    scale = 1.0 / np.sqrt(net.head_dim)
    for k in range(net.blocks):
        q = _split_heads(net, h @ p[f"Wq{k}"] + p[f"bq{k}"])
        key = _split_heads(net, h @ p[f"Wk{k}"] + p[f"bk{k}"])
        v = _split_heads(net, h @ p[f"Wv{k}"] + p[f"bv{k}"])
        logits = (q @ key.transpose(0, 1, 3, 2)) * scale
        logits -= logits.max(axis=-1, keepdims=True)
        weights = np.exp(logits)
        weights /= weights.sum(axis=-1, keepdims=True)
        mixed = _merge_heads(weights @ v)
        attended = h + mixed @ p[f"Wo{k}"] + p[f"bo{k}"]
        act = np.tanh(attended @ p[f"Wf1_{k}"] + p[f"bf1_{k}"])
        out = attended + act @ p[f"Wf2_{k}"] + p[f"bf2_{k}"]
        block_caches.append((h, q, key, v, weights, mixed, attended, act))
        h = out
    y = h @ p["Wout"] + p["bout"]
    return y, (x, h, block_caches)


def attention_backward_reference(net, p: dict[str, np.ndarray], cache, dy: np.ndarray, g: dict[str, np.ndarray]) -> None:
    """The attention backward pass over ``attention_forward_reference``'s
    cache: new arrays, and one contraction per weight gradient.

    ``_SelfAttentionImputer.backward`` must write exactly these bits.
    """
    x, h_final, block_caches = cache
    scale = 1.0 / np.sqrt(net.head_dim)
    g["Wout"][...] = np.einsum("btm,btd->md", h_final, dy)
    g["bout"][...] = dy.sum(axis=(0, 1))
    dh = dy @ p["Wout"].T
    for k in reversed(range(net.blocks)):
        h_in, q, key, v, weights, mixed, attended, act = block_caches[k]
        g[f"Wf2_{k}"][...] = np.einsum("btf,btm->fm", act, dh)
        g[f"bf2_{k}"][...] = dh.sum(axis=(0, 1))
        dpre = (dh @ p[f"Wf2_{k}"].T) * (1.0 - act * act)
        g[f"Wf1_{k}"][...] = np.einsum("btm,btf->mf", attended, dpre)
        g[f"bf1_{k}"][...] = dpre.sum(axis=(0, 1))
        dattended = dh + dpre @ p[f"Wf1_{k}"].T
        g[f"Wo{k}"][...] = np.einsum("btm,btn->mn", mixed, dattended)
        g[f"bo{k}"][...] = dattended.sum(axis=(0, 1))
        dmixed = _split_heads(net, dattended @ p[f"Wo{k}"].T)
        dweights = dmixed @ v.transpose(0, 1, 3, 2)
        dv = weights.transpose(0, 1, 3, 2) @ dmixed
        dlogits = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
        dq = (dlogits @ key) * scale
        dkey = (dlogits.transpose(0, 1, 3, 2) @ q) * scale
        dh_in = dattended.copy()
        for name, dval in (("q", dq), ("k", dkey), ("v", dv)):
            dflat = _merge_heads(dval)
            g[f"W{name}{k}"][...] = np.einsum("btm,btn->mn", h_in, dflat)
            g[f"b{name}{k}"][...] = dflat.sum(axis=(0, 1))
            dh_in += dflat @ p[f"W{name}{k}"].T
        dh = dh_in
    g["We"][...] = np.einsum("btd,btm->dm", x, dh)
    g["be"][...] = dh.sum(axis=(0, 1))


def generate_synthetic_reference(cfg) -> list[TimeSeries]:
    """The per-series generator: each series draws its components and shocks,
    then runs its own AR(1) recurrence.

    ``data.generate_synthetic`` runs the recurrence across all series at once;
    it must return exactly these bits.
    """
    rng = np.random.default_rng(cfg.seed)
    out = []
    for i in range(cfg.count):
        comps = _draw_components(rng, cfg)
        noise = np.zeros((cfg.length, cfg.dims))
        if cfg.noise_scale != 0.0:
            shocks = rng.normal(0.0, cfg.noise_scale, size=(cfg.length, cfg.dims))
            noise[0] = shocks[0]
            for t in range(1, cfg.length):
                noise[t] = cfg.ar_coeff * noise[t - 1] + shocks[t]
        out.append(TimeSeries(f"syn{cfg.family}-{i:04d}", _render_components(comps, cfg.length) + noise))
    return out


def save_csv_reference(data: list[TimeSeries], path: str) -> None:
    """The per-cell CSV writer: one ``csv.writer`` row per value.

    ``data.save_csv`` writes each series as one string; it must write the
    same bytes.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "t", "dim", "value"])
        for s in data:
            for t in range(s.length):
                for d in range(s.dims):
                    writer.writerow([s.id, t, d, repr(float(s.values[t, d]))])


def load_csv_reference(path: str) -> list[TimeSeries]:
    """The per-record CSV loop: Python's int() and float() on each field of each record.

    ``data.load_csv`` parses the body with numpy's C reader and checks arrays;
    where the two number grammars agree it must return the same series, or
    raise the same class with the same message. Lines are physical: a record
    is named by the line it starts on, a series by the line of its first record.
    """
    per_id: dict[str, dict[tuple[int, int], float]] = {}
    first_line: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["id", "t", "dim", "value"]:
            raise CsvParseError(f"line 1: expected header 'id,t,dim,value', got {header}")
        start = reader.line_num + 1
        for row in reader:
            line, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != 4:
                raise CsvParseError(f"line {line}: expected 4 fields, got {len(row)}")
            sid = row[0]
            numbers = []
            for name, text, kind in (("t", row[1], int), ("dim", row[2], int), ("value", row[3], float)):
                try:
                    numbers.append(kind(text))
                except ValueError:
                    what = "an integer" if kind is int else "a number"
                    raise CsvParseError(f"line {line}: {name} must be {what}, got {text!r}") from None
            t, d, value = numbers
            if t < 0 or d < 0:
                raise CsvParseError(f"line {line}: t and dim must be nonnegative")
            if not math.isfinite(value):
                raise CsvParseError(f"line {line}: value must be finite")
            cells = per_id.setdefault(sid, {})
            first_line.setdefault(sid, line)
            if (t, d) in cells:
                raise CsvSchemaError(f"line {line}: series {sid!r}: duplicate entry for (t={t}, dim={d})")
            cells[(t, d)] = value
    if not per_id:
        raise CsvSchemaError("file contains no data rows")

    out = []
    shape: tuple[int, int] | None = None
    for sid, cells in per_id.items():
        steps = 1 + max(t for t, _ in cells)
        dims = 1 + max(d for _, d in cells)
        where = f"series {sid!r}, starting at line {first_line[sid]}"
        if len(cells) != steps * dims:
            raise CsvSchemaError(f"{where}: expected {steps * dims} entries for shape ({steps}, {dims}), got {len(cells)}")
        if shape is None:
            shape = (steps, dims)
        elif shape != (steps, dims):
            raise CsvSchemaError(f"{where}: shape ({steps}, {dims}) differs from ({shape[0]}, {shape[1]})")
        values = np.empty((steps, dims))
        for (t, d), v in cells.items():
            values[t, d] = v
        out.append(TimeSeries(sid, values))
    return out
