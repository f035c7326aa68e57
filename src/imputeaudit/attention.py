"""The self-attention imputer, which computes only the query rows its caller reads.

``models._build_net`` imports this module on first use, so a run that trains
and queries only autoencoders never loads it.

Row rule. ``forward`` takes a bool mask, shaped like its input, of the
entries whose predictions will be read: training passes the entries it hides
and ``TrainedImputer.impute`` the masked ones. A step (a position) is read if
any of its dims is. Within one batch, each series keeps its read steps,
padded with its earliest unread steps to a common count k, the smallest
multiple of 4 that is at least 4 and holds every series' read steps; each
series' rows stay in increasing order. The rows are always indices into the
batch's b * t rows, and every row is ``arange(b * t)``: a batch takes every
row when ``k >= t``, and a net takes every row in every batch when its shape
says so at construction: ``t % 4 != 0``, a ``head_dim`` or ``ff_dim`` of 1,
or the SkylakeX limit below. Only the last block's query side is computed at
those rows: its queries, softmax, value mix, output projection, feed-forward
and the output layer. Its keys and values, and every earlier block, keep all
t rows. The outputs at the other rows are written as 0.0; no caller reads
them.

The backward follows: the Wout, Wf2, Wf1, Wo and Wq gradients and the bf2,
bf1, bo and bq gradients sum over the k rows, the key and value gradients
contract over them, and at the other rows the gradient into the last block
is dk Wk^T + dv Wv^T. ``bout`` still sums the full ``dy``. So a non-finite
value at an unread row no longer reaches a gradient.

Why the bits are those of computing every row. ``dy`` is +0.0 at every
entry not read, so each skipped row would add only zeros:
- a weight or bias gradient is a sequential sum in (b, t) order, where a
  skipped zero changes nothing. A sum over a width of 1 is the exception:
  numpy sums that contiguous axis pairwise. So ``bout`` sums the full ``dy``
  even with one dim, and an ``ff_dim`` of 1 computes every row;
- a product over a subset of rows (M) gives each row the bits of the full
  product, as measured on OpenBLAS's kernels: on SkylakeX for any M >= 2 (at
  M = 1 numpy calls gemv, which differs); on Haswell for even M (odd M takes
  a one-row tail kernel); on SkylakeX, Haswell and Sandybridge for M % 4 == 0,
  which is also what the one-dim output layer (N = 1) needs. Hence k % 4 == 0;
- a product contracting over a subset of rows (K) whose skipped rows are
  zero gives the full product's bits on all three kernels, except through
  gemv: with a ``head_dim`` of 1 the key and value gradients are gemv
  products, so every row is computed;
- with ``t % 4 != 0``, the full product's own last rows come from tail
  kernels, so no subset is computed;
- SkylakeX multiplies by a transposed weight (the backward's ``@ W.T``)
  through a small-matrix kernel when the inner width is 32 or more and the
  product has at most 1,200 outputs per batch item, and through another
  kernel otherwise, so the same row can round differently at k rows than at
  t rows. Every row is computed when one such product at the query rows,
  with (inner, N) of (dims, model_dim), (model_dim, ff_dim), (ff_dim,
  model_dim) or (model_dim, model_dim), has an inner width of 32 or more and
  t x N > 1,200. The s2-attention net (model_dim 16, ff_dim 32) keeps its
  read rows: its one such product has 64 x 16 = 1,024 outputs at t rows.
"""
from __future__ import annotations

import numpy as np

from .models import ImputerConfig, _layout


def _buffer(ws: dict | None, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array of ``shape``: a new one without a
    workspace, else the leading rows of the one ``ws`` holds under (name,
    shape[1:]), made on first use and remade only for more rows.

    A training run passes one workspace to every step, so a step's tensors
    reuse the memory of the step before instead of being freed and mapped
    again, and a short batch's are contiguous leading rows of a full batch's.
    """
    if ws is None:
        return np.empty(shape)
    buf = ws.get((name, shape[1:]))
    if buf is None or buf.shape[0] < shape[0]:
        buf = ws[(name, shape[1:])] = np.empty(shape)
    return buf[: shape[0]]


def _sinusoid_table(n_steps: int, model_dim: int) -> np.ndarray:
    pos = np.arange(n_steps, dtype=np.float64)[:, None]
    idx = np.arange(model_dim, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * (idx // 2) / model_dim)
    return np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))


def _gather(ws: dict | None, name: str, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """x's (b, t, ...) rows at ``rows``, as a (b, k, ...) array."""
    b, t = x.shape[:2]
    out = _buffer(ws, name, (b, rows.size // b, *x.shape[2:]))
    np.take(x.reshape(b * t, *x.shape[2:]), rows, axis=0, out=out.reshape(rows.size, *x.shape[2:]))
    return out


def _scatter(ws: dict | None, name: str, x: np.ndarray, rows: np.ndarray, t: int) -> np.ndarray:
    """A (b, t, ...) array holding x's (b, k, ...) rows at ``rows`` and 0.0 elsewhere."""
    b = x.shape[0]
    out = _buffer(ws, name, (b, t, *x.shape[2:]))
    out.fill(0.0)
    out.reshape(b * t, *x.shape[2:])[rows] = x.reshape(rows.size, *x.shape[2:])
    return out


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
        # The shapes where a subset of rows would not get the bits of every row (module docstring).
        self.every_row = n_steps % 4 != 0 or min(self.head_dim, ff) == 1 or any(
            inner >= 32 and n_steps * n > 1200 for inner, n in ((n_dims, dm), (dm, ff), (ff, dm), (dm, dm)))

    def _query_rows(self, read: np.ndarray) -> np.ndarray:
        """The rows the last block queries, as increasing indices into the batch's (b * t) rows."""
        b, t, _ = read.shape
        rows = read.any(axis=2)
        counts = rows.sum(axis=1)
        k = max(4, -(-int(counts.max()) // 4) * 4)
        if self.every_row or k >= t:
            return np.arange(b * t)
        unread = ~rows
        rows |= unread & (np.cumsum(unread, axis=1) <= (k - counts)[:, None])
        return np.flatnonzero(rows)

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(b, t, heads * head_dim) -> a (b, heads, t, head_dim) view; writes land in ``x``."""
        b, t, _ = x.shape
        return x.reshape(b, t, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, p: dict[str, np.ndarray], x: np.ndarray, read: np.ndarray, ws: dict | None = None):
        """Predictions at the entries ``read`` marks (see the module docstring for the rows computed).

        Every tensor of the step goes to a buffer from ``ws`` (see ``_buffer``);
        the cache holds them, so it is valid until the next step through ``ws``.
        """
        b, t, _ = x.shape
        dm, hd = self.heads * self.head_dim, self.head_dim
        scale = 1.0 / np.sqrt(hd)
        rows = self._query_rows(read)
        h = _buffer(ws, "h0", (b, t, dm))
        np.matmul(x, p["We"], out=h)
        h += p["be"]
        h += self.positions
        key_t = _buffer(ws, "key_t", (b, self.heads, hd, t))
        block_caches = []
        for k in range(self.blocks):
            # The query side reads h_q: h itself, or the last block's query rows.
            h_q = h if k < self.blocks - 1 else _gather(ws, "h_q", h, rows)
            tq = h_q.shape[1]
            projections = []
            for gate, h_gate in zip("qkv", (h_q, h, h)):
                proj = _buffer(ws, f"{gate}{k}", h_gate.shape)
                np.matmul(h_gate, p[f"W{gate}{k}"], out=proj)
                proj += p[f"b{gate}{k}"]
                projections.append(self._split_heads(proj))
            q, key, v = projections
            # A contiguous copy of k^T multiplies faster than the transposed view, to the same bits.
            np.copyto(key_t, key.transpose(0, 1, 3, 2))
            weights = _buffer(ws, f"weights{k}", (b, self.heads, tq, t))
            np.matmul(q, key_t, out=weights)
            weights *= scale
            row = _buffer(ws, "row", (b, self.heads, tq, 1))
            weights -= weights.max(axis=-1, keepdims=True, out=row)  # softmax stability
            np.exp(weights, out=weights)
            weights /= weights.sum(axis=-1, keepdims=True, out=row)
            mixed = _buffer(ws, f"mixed{k}", (b, tq, dm))
            np.matmul(weights, v, out=self._split_heads(mixed))
            attended = _buffer(ws, f"attended{k}", (b, tq, dm))
            np.matmul(mixed, p[f"Wo{k}"], out=attended)
            np.add(h_q, attended, out=attended)
            attended += p[f"bo{k}"]
            act = _buffer(ws, f"act{k}", (b, tq, self.ff_dim))
            np.matmul(attended, p[f"Wf1_{k}"], out=act)
            act += p[f"bf1_{k}"]
            np.tanh(act, out=act)
            out = _buffer(ws, f"h{k + 1}", (b, tq, dm))
            np.matmul(act, p[f"Wf2_{k}"], out=out)
            np.add(attended, out, out=out)
            out += p[f"bf2_{k}"]
            block_caches.append((h, h_q, q, key, v, weights, mixed, attended, act))
            h = out
        y = _buffer(ws, "y", (b, h.shape[1], x.shape[2]))
        np.matmul(h, p["Wout"], out=y)
        y += p["bout"]
        return _scatter(ws, "y_full", y, rows, t), (x, h, block_caches, rows)

    def backward(self, p: dict[str, np.ndarray], cache, dy: np.ndarray, g: dict[str, np.ndarray],
                 ws: dict | None = None) -> None:
        """Overwrite every gradient view in ``g``; ``dy`` must be +0.0 at every entry the forward's ``read`` left out.

        One buffer ``dh`` carries the gradient down the blocks: each block
        adds its residual branches to it in place, in the order the sums are
        written, so it holds dout, then dattended, then dh_in. In the last
        block it has only the query rows until the query branch is added.
        """
        x, h_final, block_caches, rows = cache
        b, t, _ = x.shape
        dm = self.heads * self.head_dim
        scale = 1.0 / np.sqrt(self.head_dim)

        dy_q = _gather(ws, "dy_q", dy, rows)
        g["Wout"][...] = np.einsum("btm,btd->md", h_final, dy_q)
        g["bout"][...] = dy.sum(axis=(0, 1))
        dh = _buffer(ws, "dh", (b, h_final.shape[1], dm))
        np.matmul(dy_q, p["Wout"].T, out=dh)

        for k in reversed(range(self.blocks)):
            h_in, h_q, q, key, v, weights, mixed, attended, act = block_caches[k]
            tq = h_q.shape[1]
            branch = _buffer(ws, "branch", (b, tq, dm))
            # feed-forward residual: out = attended + tanh(attended W1 + b1) W2 + b2
            g[f"Wf2_{k}"][...] = np.einsum("btm,btf->mf", dh, act).T
            g[f"bf2_{k}"][...] = dh.sum(axis=(0, 1))
            dpre = _buffer(ws, "dpre", (b, tq, self.ff_dim))
            np.matmul(dh, p[f"Wf2_{k}"].T, out=dpre)
            slope = _buffer(ws, "slope", (b, tq, self.ff_dim))
            np.multiply(act, act, out=slope)
            np.subtract(1.0, slope, out=slope)
            dpre *= slope
            g[f"Wf1_{k}"][...] = np.einsum("btm,btf->mf", attended, dpre)
            g[f"bf1_{k}"][...] = dpre.sum(axis=(0, 1))
            dh += np.matmul(dpre, p[f"Wf1_{k}"].T, out=branch)  # now dattended
            # attention residual: attended = h_q + merge(softmax(q k^T) v) Wo + bo
            g[f"Wo{k}"][...] = np.einsum("btm,btn->mn", mixed, dh)
            g[f"bo{k}"][...] = dh.sum(axis=(0, 1))
            dmixed = _buffer(ws, "dmixed", (b, tq, dm))
            np.matmul(dh, p[f"Wo{k}"].T, out=dmixed)
            dmixed_heads = self._split_heads(dmixed)
            # dk and dv side by side, so one contraction and one sum give their weight and bias gradients.
            dq = _buffer(ws, "dq", (b, tq, dm))
            dkv = _buffer(ws, "dkv", (b, t, 2 * dm))
            dq_heads, dkey, dv = (self._split_heads(d) for d in (dq, dkv[..., :dm], dkv[..., dm:]))
            np.matmul(weights.transpose(0, 1, 3, 2), dmixed_heads, out=dv)
            dweights = _buffer(ws, "dweights", (b, tq, t))
            dlogits = _buffer(ws, "dlogits", (b, tq, t))
            row = _buffer(ws, "row", (b, tq, 1))
            for j in range(self.heads):
                np.matmul(dmixed_heads[:, j], v[:, j].transpose(0, 2, 1), out=dweights)
                # one head at a time: dlogits = weights * (dweights - rowsum(dweights * weights))
                np.multiply(dweights, weights[:, j], out=dlogits)
                dweights -= dlogits.sum(axis=-1, keepdims=True, out=row)
                np.multiply(weights[:, j], dweights, out=dlogits)
                np.matmul(dlogits, key[:, j], out=dq_heads[:, j])
                np.matmul(dlogits.transpose(0, 2, 1), q[:, j], out=dkey[:, j])
            dq *= scale
            dkey *= scale
            g[f"Wq{k}"][...] = np.einsum("btm,btn->mn", h_q, dq)
            g[f"bq{k}"][...] = dq.sum(axis=(0, 1))
            dh += np.matmul(dq, p[f"Wq{k}"].T, out=branch)
            if tq < t:
                # The other rows start from 0.0: their dattended and dq are zero.
                dh = _scatter(ws, "dh", dh, rows, t)
                branch = _buffer(ws, "branch", (b, t, dm))
            w_kv = np.einsum("btm,btn->mn", h_in, dkv)
            b_kv = dkv.sum(axis=(0, 1))
            for i, gate in enumerate("kv"):
                part = slice(i * dm, (i + 1) * dm)
                g[f"W{gate}{k}"][...] = w_kv[:, part]
                g[f"b{gate}{k}"][...] = b_kv[part]
                dh += np.matmul(dkv[..., part], p[f"W{gate}{k}"].T, out=branch)  # now dh_in

        g["We"][...] = np.einsum("btd,btm->dm", x, dh)
        g["be"][...] = dh.sum(axis=(0, 1))
