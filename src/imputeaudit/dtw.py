"""Dynamic time warping, the loss the audit scores oracle outputs with.

``dtw_distance`` is the dynamic program, pruned to the cells that can lie
on an optimal alignment, stopped early once the alignment is back on a
diagonal of exact zeros, and bit-identical to the full sweep. The oracles
it is tested against, the full sweep and an enumeration of every alignment
path, live in the test suite.

The audit aligns many completions with one original, and a completion
equals the original up to its masked block. The rows of the program above
that block see only the original, so they are the rows of the original's
self-alignment. A ``SelfAlignment`` computes every completion's
diagonal-path cost U, last nonzero-diagonal row and first differing row in
one stacked pass, then sweeps the shared rows once per original, at one
bound B, the largest U among the completions that first differ below row 0.
Every pair resumes from them at its own first differing row.

Why the bits do not change: the shared rows are the pruned sweep at B, so by
the argument ``dtw_distance`` gives for U, every cell of them whose
full-sweep value is at or below B is exact, and every other cell is above B,
or unswept (infinite). A pair that resumes has U <= B, so every cell it
reads at or below U is exact and every other cell is above U. The pair's
sweep only ever compares cells with U and takes minima, where a cell above U
never beats one at or below it. So every comparison with U, hence every cell
swept, every cell at or below U and D(n, n), which is at most U, is the same
as in the pair's own sweep.
"""
from __future__ import annotations

import math

import numpy as np

from .core import TimeSeries, _as_matrix

__all__ = ["SelfAlignment", "dtw_distance"]


def _values(x: TimeSeries | np.ndarray | list) -> np.ndarray:
    arr = x.values if isinstance(x, TimeSeries) else _as_matrix(x)
    if arr.shape[0] < 1:
        raise ValueError("series must be nonempty")
    return np.asarray(arr, dtype=np.float64)


def _point_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Euclidean distance between D-dim points; |a_i - b_j| when D == 1.
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _coordinates(v: np.ndarray) -> list[list]:
    # One list per dimension, 1-based like the sweep's rows and columns.
    return [[None] + column for column in v.T.tolist()]


def _origin(m: int) -> list:
    # Row 0 of the program: only D(0, 0) = 0 is reachable.
    return [0.0] + [float("inf")] * m


def _diagonal_bounds(diagonals: np.ndarray) -> tuple[list[float], list[int]]:
    """Per row of ``diagonals`` (one diagonal of point costs each): the
    diagonal path's cost U and the last row with a nonzero diagonal cost (0
    if none; a NaN cost is nonzero).

    ``np.add.accumulate`` adds along each row left to right, one element at a
    time, which is the order the sweep adds the diagonal in, so U has the
    bits of that path.
    """
    n = diagonals.shape[1]
    nonzero = diagonals != 0.0
    synced = np.where(nonzero.any(axis=1), n - nonzero[:, ::-1].argmax(axis=1), 0)
    return np.add.accumulate(diagonals, axis=1)[:, -1].tolist(), synced.tolist()


def _near_diagonal(series: list[np.ndarray], vb: np.ndarray) -> list[tuple[float, int, int, int]]:
    """U, the last nonzero-diagonal row, the number of leading rows equal to
    ``vb`` and the last row that differs from it (0 if none), for each of
    ``series`` against ``vb``, all of one shape (n, dims) with 1 or 2 dims.

    Two finite floats differ exactly when their difference is nonzero, and a
    NaN difference counts as nonzero, so the equal rows are those with an
    all-zero ``diff`` row, even where a difference squares to zero.
    """
    n = vb.shape[0]
    diff = np.stack(series) - vb
    square = diff * diff
    bounds, synced = _diagonal_bounds(np.sqrt(square[..., 0] + square[..., 1] if vb.shape[1] == 2 else square[..., 0]))
    changed = (diff != 0.0).any(axis=2)
    some = changed.any(axis=1)
    equal = np.where(some, changed.argmax(axis=1), n)
    differ = np.where(some, n - changed[:, ::-1].argmax(axis=1), 0)
    return list(zip(bounds, synced, equal.tolist(), differ.tolist()))


def _sweep(xs: list[list], ys: list[list], costs: list | None, bound: float, synced: int,
           prev: list, first: int, last: int, rows: range, keep: list | None = None) -> float:
    """Sweep the DP rows ``rows`` (1-based) on top of ``prev``, the row before them.

    Every row is pruned at ``bound``. ``first`` and ``last`` are ``prev``'s
    first and last column at or below it. Point costs come from ``costs``
    when given, and from the coordinates ``xs`` of the rows and ``ys`` of the
    columns otherwise (one or two dimensions). Each swept row goes to
    ``keep``, when it is given, with its own first and last column at or
    below the bound. Returns the last swept row's last cell, or D(i, i) from
    the early stop (see ``dtw_distance``). ``prev`` is only read, never
    written.
    """
    inf = float("inf")
    sqrt = math.sqrt
    m = len(prev) - 1
    two = len(ys) == 2
    xs0, xs1, ys0, ys1 = xs[0], xs[-1], ys[0], ys[-1]
    for i in rows:
        cur = [inf] * (m + 1)
        row = costs[i - 1] if costs is not None else None
        x0, x1 = xs0[i], xs1[i]
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
            elif two:
                d, e = x0 - ys0[j], x1 - ys1[j]
                c = sqrt(d * d + e * e)
            else:
                d = x0 - ys0[j]
                c = sqrt(d * d)
            left = c + best
            cur[j] = left
            if left > bound:
                if j == next_first:
                    next_first = j + 1
                if j > last:
                    break  # later cells of this row have no predecessor at or below this row's bound
            else:
                next_last = j
        if keep is not None:
            keep.append((cur, next_first, next_last))
        if next_first == next_last == i and i >= synced:
            return float(cur[i])  # the rest of the diagonal adds only zeros
        prev, first, last = cur, next_first, next_last
    return float(prev[m])


class SelfAlignment:
    """The rows of ``original``'s self-alignment that its ``completions`` share.

    Give it to ``dtw_distance(completion, original, shared)`` for each
    completion. The first such call computes, in one stacked pass, U, the
    last nonzero-diagonal row and the first differing row of every
    completion of the original's shape. It then sweeps the rows, once, down
    to the last row before any completion first differs from the original,
    at one bound (``bound``), the largest U among the completions that first
    differ below row 0. Each later pair reads the rows and never changes
    them, and a ``TimeSeries`` completion reads its three numbers from the
    pass instead of computing them again. A pair the rows do not serve gets
    the plain sweep: unequal lengths, more than two dimensions, another
    original, or U above ``bound``.
    """

    def __init__(self, original: TimeSeries | np.ndarray, completions: list) -> None:
        self.original = _values(original)
        self.ys = _coordinates(self.original)
        self.completions = completions
        self.rows: list | None = None  # row i is rows[i - 1], with its first and last column at or below bound
        self.bound = 0.0  # every shared row is swept at it
        self._pairs: dict = {}  # id of a TimeSeries completion -> (the completion, (U, synced, equal))

    def _build(self) -> None:
        vb = self.original
        n = vb.shape[0]
        same = [c for c in self.completions if _values(c).shape == vb.shape]
        numbers = _near_diagonal([_values(c) for c in same], vb) if same else []
        for completion, pair in zip(same, numbers):
            if isinstance(completion, TimeSeries):  # frozen values, so the numbers stay right
                self._pairs[id(completion)] = (completion, pair)
        # A NaN U never serves, and a pair that differs at row 0 resumes from no row.
        self.bound = max((u for u, _, equal, _ in numbers if equal and not math.isnan(u)), default=0.0)
        depth = max((equal for _, _, equal, _ in numbers), default=0)
        self.rows = []
        _sweep(self.ys, self.ys, None, self.bound, n + 1, _origin(n), 1, 0, range(1, depth + 1), self.rows)

    def _pair(self, a: object, va: np.ndarray) -> tuple[float, int, int, int]:
        """``_near_diagonal``'s four numbers for ``va`` against the original."""
        if self.rows is None:
            self._build()
        known = self._pairs.get(id(a))
        return known[1] if known is not None and known[0] is a else _near_diagonal([va], self.original)[0]

    def _resume(self, bound: float, equal: int) -> tuple[list, int, int, int] | None:
        """The last shared row a pair can start from, its first and last column
        at or below the pair's ``bound``, and its row number; None if none serves."""
        start = min(equal, len(self.rows))
        if start == 0 or not bound <= self.bound:
            return None
        row, first, last = self.rows[start - 1]
        # D(start, start) is 0.0 <= bound, so both scans stop inside [first, last].
        while row[first] > bound:
            first += 1
        while row[last] > bound:
            last -= 1
        return row, first, last, start


def dtw_distance(
    a: TimeSeries | np.ndarray, b: TimeSeries | np.ndarray, shared: SelfAlignment | None = None
) -> float:
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

    With ``shared``, the self-alignment of ``b``, the sweep starts below the
    rows where ``a`` equals ``b``. Those rows were swept once, at one bound
    at least U (see the module docstring): every cell at or below U in
    them is exact and every other cell is above U, so the first and last
    columns at or below U, every later comparison with U and D(n, n) are
    those of the pair's own sweep. ``shared`` changes the time, never the
    bits; a pair it does not serve is swept in full.

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

    # The row the sweep starts below, its first and last column at or below the bound, and its number.
    prev, first, last, start = _origin(m), 1, 0, 0
    costs, bound, synced = None, float("inf"), n + 1
    if n != m or dims > 2:
        matrix = _point_costs(va, vb)
        costs = matrix.tolist()
        if n == m:
            (bound,), (synced,) = _diagonal_bounds(np.diagonal(matrix)[None])
    elif shared is not None and (vb is shared.original or np.array_equal(vb, shared.original)):
        bound, synced, equal, differ = shared._pair(a, va)
        resumed = shared._resume(bound, equal)
        if resumed is not None:
            prev, first, last, start = resumed
    else:
        bound, synced, _, _ = _near_diagonal([va], vb)[0]
    if start == 0:
        xs, ys = _coordinates(va), _coordinates(vb)
    else:
        # Outside its differing rows ``a`` equals the original, so its coordinates are a copy of the
        # original's with those rows written in; a zero of either sign squares to the same cost.
        ys = shared.ys
        xs = [y.copy() for y in ys]
        stop = max(differ, start)
        for x, column in zip(xs, va[start:stop].T.tolist()):
            x[start + 1 : stop + 1] = column
    return _sweep(xs, ys, costs, bound, synced, prev, first, last, range(start + 1, n + 1))
