"""The dense autoencoder imputer, a tanh MLP trained through a per-run workspace.

It is kept out of ``models``, which imports it at load, because the
audit-long benchmark's peak RSS follows the size of the largest module the
interpreter compiles, and ``models`` was the largest. Imported on first use
instead, its compile would come on top of a run's data and raise the
s2-fixture peak.

Its tensors are a few KiB, so a step costs numpy's per-call dispatch more
than arithmetic: each product is a 2-D ``ndarray.dot``, which dispatches
faster than ``@`` to the same bits, with ``out`` by position, which parses
faster than the keyword; the bias and ``tanh`` go in place on the product,
and the backward writes each gradient straight into its view.

A training run's workspace holds one entry of arrays per batch size
(``_Autoencoder._arrays``: the output, the deltas and the activations),
which each pass looks up once: a pass that built
its own views would spend more dispatch than writing into them saves. The
entry's one activation array holds h1, z and h2 as consecutive views, so the
backward takes every tanh slope 1 - a*a in two passes over it. A backward
reads the workspace of its forward. Without a workspace, as in
``TrainedImputer.impute``, the forward's products make new arrays: building
views per query would cost the query path more than the products save.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .core import _layout

if TYPE_CHECKING:
    from .models import ImputerConfig


class _Autoencoder:
    """tanh MLP: flattened series -> hidden -> latent -> hidden -> series."""

    def __init__(self, n_steps: int, n_dims: int, cfg: ImputerConfig) -> None:
        flat = n_steps * n_dims
        sizes = [flat, cfg.hidden, cfg.latent, cfg.hidden, flat]
        shapes = []
        for layer, (a, b) in enumerate(zip(sizes[:-1], sizes[1:]), start=1):
            shapes.append((f"W{layer}", (a, b)))
            shapes.append((f"b{layer}", (b,)))
        self.layout = _layout(shapes)
        self.n_params = self.layout[-1][2]
        self.widths = sizes[1:]

    def _arrays(self, b: int) -> tuple:
        """A workspace entry for b rows: the output; h1, z and h2; the array that
        holds them as consecutive (b, width) views and the slopes' array laid
        out alike; and the slopes and the deltas, indexed as the cache is."""
        hidden, latent, _, flat = self.widths
        whole = np.empty((3, b * (2 * hidden + latent)))
        h1, z, h2, s1, sz, s2, dh1, dz, dh2 = (
            part.reshape(b, -1) for row in whole for part in np.split(row, (b * hidden, b * (hidden + latent))))
        return np.empty((b, flat)), h1, z, h2, whole[0], whole[1], (None, s1, sz, s2), (None, dh1, dz, dh2)

    def forward(self, p: dict[str, np.ndarray], x: np.ndarray, read: np.ndarray, ws: dict | None = None):
        """Every output, whatever ``read`` marks. Through ``ws``, the output and
        the cache are its arrays, valid until the next pass of as many rows."""
        b, t, d = x.shape
        if ws is not None and b not in ws:
            ws[b] = self._arrays(b)
        y, h1, z, h2 = (None,) * 4 if ws is None else ws[b][:4]
        a0 = x.reshape(b, t * d)
        h1 = a0.dot(p["W1"], h1)
        h1 += p["b1"]
        np.tanh(h1, h1)
        z = h1.dot(p["W2"], z)
        z += p["b2"]
        np.tanh(z, z)
        h2 = z.dot(p["W3"], h2)
        h2 += p["b3"]
        np.tanh(h2, h2)
        y = h2.dot(p["W4"], y)
        y += p["b4"]
        return y.reshape(b, t, d), (a0, h1, z, h2)

    # Each layer's weight, bias and input's place in the cache, output layer first.
    _DOWN = (("W4", "b4", 3), ("W3", "b3", 2), ("W2", "b2", 1), ("W1", "b1", 0))

    def backward(self, p: dict[str, np.ndarray], cache, dy: np.ndarray, g: dict[str, np.ndarray], ws: dict) -> None:
        """Overwrite every gradient view in ``g``, each written straight by its product or sum.

        ``cache`` is from a forward through ``ws``. ``np.add.reduce`` is
        ``ndarray.sum`` without its Python wrapper.
        """
        acts, slope, slopes, deltas = ws[dy.shape[0]][4:]
        np.multiply(acts, acts, slope)
        np.subtract(1.0, slope, slope)
        d = dy.reshape(dy.shape[0], -1)
        for w, b, i in self._DOWN:
            a = cache[i]
            a.T.dot(d, g[w])
            np.add.reduce(d, axis=0, out=g[b])
            if i:
                d = d.dot(p[w].T, deltas[i])
                d *= slopes[i]
