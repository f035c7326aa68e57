"""Dynamic time warping, the loss the audit scores oracle outputs with.

``dtw_distance`` is the dynamic program, pruned to the cells that can lie
on an optimal alignment, stopped early once the alignment is back on a
diagonal of exact zeros, and bit-identical to the full sweep. The oracles
it is tested against, the full sweep and an enumeration of every alignment
path, live in the test suite.
"""
from __future__ import annotations

import math

import numpy as np

from .core import TimeSeries, _as_matrix

__all__ = ["dtw_distance"]


def _values(x: TimeSeries | np.ndarray | list) -> np.ndarray:
    arr = x.values if isinstance(x, TimeSeries) else _as_matrix(x)
    if arr.shape[0] < 1:
        raise ValueError("series must be nonempty")
    return np.asarray(arr, dtype=np.float64)


def _point_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Euclidean distance between D-dim points; |a_i - b_j| when D == 1.
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def dtw_distance(a: TimeSeries | np.ndarray, b: TimeSeries | np.ndarray) -> float:
    """Minimal accumulated pointwise distance over monotone alignments.

    Dynamic program with the step set {down, right, diagonal},
    boundary-anchored at both ends. Dimensions share one alignment and the
    pointwise cost is the Euclidean distance between the aligned points.

    The program is pruned but exact: it returns the same bits as the full
    O(n*m) sweep. For equal lengths the diagonal path's cost U, summed in the
    order the sweep adds it, bounds the result in floating point. Costs are
    nonnegative, so accumulated costs never decrease along a path, and a cell
    whose accumulated cost is strictly above U cannot feed the optimal one.
    Each row is therefore swept only from the previous row's first cell at or
    below U, and stops past that row's last such cell at the first cell above
    U. An audit pair differs only inside the masked block, so U is tight
    and only a narrow strip around the diagonal is computed. Unequal lengths
    have no diagonal: U is infinite and every cell is computed.

    The sweep also stops early. From ``synced``, the last row with a
    nonzero diagonal point cost (the masked block's end in an audit pair),
    on, a row i whose only cell at or below U is (i, i) ends the sweep with
    D(i, i). Skipped cells have no predecessor at or below U, so every path
    of cost at most U, every optimal one included, goes through (i, i).
    Costs never decrease along a path, so D(n, n) >= D(i, i), and the
    diagonal from (i, i) adds only +0.0, so D(n, n) <= D(i, i). A NaN or
    infinite cost is never 0.0, and unequal lengths never stop early.

    With one or two dimensions, point costs are computed for the visited
    cells only: summing at most two squares takes one addition, so the order
    numpy sums in cannot change the bits. With more dimensions, or unequal
    lengths where every cell is visited anyway, the costs come from the full
    matrix.
    """
    va, vb = _values(a), _values(b)
    if va.shape[1] != vb.shape[1]:
        raise ValueError(f"dimension mismatch: {va.shape[1]} vs {vb.shape[1]}")
    n, m, dims = va.shape[0], vb.shape[0], va.shape[1]

    inf = float("inf")
    sqrt = math.sqrt
    costs = _point_costs(va, vb).tolist() if n != m or dims > 2 else None
    bound, synced = inf, n + 1
    if n == m:
        if costs is None:
            diff = va - vb
            diagonal = np.sqrt(np.sum(diff * diff, axis=1)).tolist()
        else:
            diagonal = [row[i] for i, row in enumerate(costs)]
        bound, synced = 0.0, 0
        for i, c in enumerate(diagonal, 1):
            bound = c + bound
            if c != 0.0:
                synced = i

    # Points of a, and of b shifted to the sweep's 1-based columns; bare floats when D == 1.
    xs = va[:, 0].tolist() if dims == 1 else va.tolist()
    ys = [None, *(vb[:, 0].tolist() if dims == 1 else vb.tolist())]
    prev = [inf] * (m + 1)
    prev[0] = 0.0
    first, last = 1, 0  # the previous row's first and last column at or below the bound
    for i in range(1, n + 1):
        cur = [inf] * (m + 1)
        row = costs[i - 1] if costs is not None else None
        x = xs[i - 1]
        next_first, next_last = first, 0
        diag, left = prev[first - 1], inf
        for j in range(first, m + 1):
            up = prev[j]
            best = diag
            if up < best:
                best = up
            if left < best:
                best = left
            diag = up
            if row is not None:
                c = row[j - 1]
            elif dims == 1:
                d = x - ys[j]
                c = sqrt(d * d)
            else:
                y = ys[j]
                d, e = x[0] - y[0], x[1] - y[1]
                c = sqrt(d * d + e * e)
            left = c + best
            cur[j] = left
            if left > bound:
                if j == next_first:
                    next_first = j + 1
                if j > last:
                    break  # later cells of this row have no predecessor at or below the bound
            else:
                next_last = j
        if next_first == next_last == i and i >= synced:
            return float(cur[i])  # the rest of the diagonal adds only zeros
        prev, first, last = cur, next_first, next_last
    return float(prev[m])
