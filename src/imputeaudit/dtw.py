"""Dynamic time warping, the loss the audit scores oracle outputs with.

``dtw_distance`` is the dynamic program, pruned to the cells that can lie
on an optimal alignment, stopped early once the alignment is back on a
diagonal of exact zeros and a row's minimum is its diagonal cell, and
bit-identical to the full sweep. The oracles it is tested against, the full
sweep and an enumeration of every alignment path, live in the test suite.

Every series is read as a ``TimeSeries``: a raw array or list goes through
its constructor, named after the argument it was passed as, so it is finite,
1-D or 2-D, with at least one step and one dim, or ValueError. No point cost,
diagonal-path cost or cell is then NaN: each is a square root of a sum of
squares, or a sum or minimum of those, so it is finite or +inf.

Every equal-length pair, of any width, goes through a self-alignment; only
unequal lengths sweep the full cost matrix. The audit aligns many
completions with one original, and a completion equals the original up to
its masked block. The rows of the program above that block see only the
original, so they are the rows of the original's self-alignment. A
``SelfAlignment`` computes every completion's diagonal-path cost U, last
nonzero-diagonal row and first differing row in one stacked pass, then
sweeps the upper triangle of the shared rows once per original, at one
bound B, the largest U among the completions that first differ below row 0.
It then rebuilds by symmetry, from its first cell at or below B, the whole of
each row that a pair resumes from, at the pair's own first differing row. A
self-alignment is complete when built, and every pair only reads it, so its
pairs may run in any order. ``SelfAlignment.rows`` holds row i from column i
on.

A ``SelfAlignment`` serves only its own original, as the same object, and
the completions it was built from: any other pair passed with it, and a
completion of another shape, raise ValueError. ``dtw_distance`` without one
builds one for its pair alone. A pair copies from its self-alignment what it
shares with the original and writes in only its differing rows: up to two
dims the original's coordinates (``ys``), from which a visited cell's cost is
computed; wider, the rows of the original's cost matrix (``costs``), which
the self-alignment's own sweep reads too.

Why the upper triangle is enough: the point cost c(i, j) of a series with
itself equals c(j, i) bit for bit, since fl(a - b) = -fl(b - a), a square
drops the sign and the squares are summed in one order. Each cell is its
cost plus the minimum of its three predecessors, and the predecessors of
(j, i) are those of (i, j) with up and left swapped. The sweep's minimum
starts from the diagonal one and takes a strictly smaller up or left, so
with no -0.0 among the cells the swap leaves it unchanged, and D(i, j) =
D(j, i) by induction. A cell with j > i has all three predecessors on or
above the diagonal, and D(i, i) is +0.0 plus its diagonal predecessor
whatever the cell left of it holds, so the cells on and above the diagonal
are a pruned program of their own.

Why the bits do not change: the shared rows are the pruned sweep at B, so by
the argument ``dtw_distance`` gives for U, every cell of them whose
full-sweep value is at or below B is exact, and every other cell is above B,
or unswept (infinite); by symmetry the same holds for the columns left of
the diagonal, read from the rows above. A pair that resumes has U <= B, so
every cell it reads at or below U is exact and every other cell is above U.
The pair's sweep only ever compares cells with U and with each other and
takes minima, where a cell above U never beats one at or below it. So every
comparison with U, hence every cell swept, every cell at or below U and
D(n, n), which is at most U, is the same as in the pair's own sweep.
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .core import TimeSeries

__all__ = ["SelfAlignment", "dtw_distance"]


def _as_series(x: TimeSeries | np.ndarray | list, name: str) -> TimeSeries:
    # A raw array or list is copied and checked by the TimeSeries constructor, named after its argument.
    return x if isinstance(x, TimeSeries) else TimeSeries(name, x)


def _point_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Euclidean distance between D-dim points; |a_i - b_j| when D == 1.
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _coordinates(v: np.ndarray) -> list[list]:
    # One list per dimension, 1-based like the sweep's rows and columns. One
    # dimension gets a second one of zeros: sqrt(d * d + 0.0) has the bits of sqrt(d * d).
    columns = v.T.tolist()
    if len(columns) == 1:
        columns.append([0.0] * v.shape[0])
    return [[None] + column for column in columns]


def _origin(m: int) -> list:
    # Row 0 of the program: only D(0, 0) = 0 is reachable.
    return [0.0] + [float("inf")] * m


def _diagonal_bounds(diagonals: np.ndarray) -> tuple[list[float], list[int]]:
    """Per row of ``diagonals`` (one diagonal of point costs each): the
    diagonal path's cost U and the last row with a nonzero diagonal cost (0
    if none).

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
    ``series`` against ``vb``, all of one shape (n, dims).

    Two finite floats differ exactly when their difference is nonzero, so
    the equal rows are those with an all-zero ``diff`` row, even where a
    difference squares to zero. U sums
    squares as ``_point_costs`` does (``np.sum``, pairwise from 8 terms on);
    for two, one addition has those bits without a short-axis reduction.
    """
    n, columns = vb.shape[0], range(vb.shape[1])
    diff = np.stack(series) - vb
    square = diff * diff
    total = np.sum(square, axis=2) if len(columns) > 2 else reduce(np.add, [square[..., d] for d in columns])
    bounds, synced = _diagonal_bounds(np.sqrt(total))
    nonzero = diff != 0.0
    changed = reduce(np.logical_or, [nonzero[..., d] for d in columns])
    some = changed.any(axis=1)
    equal = np.where(some, changed.argmax(axis=1), n)
    differ = np.where(some, n - changed[:, ::-1].argmax(axis=1), 0)
    return list(zip(bounds, synced, equal.tolist(), differ.tolist()))


def _sweep(xs: list[list], ys: list[list], costs: list | None, bound: float, synced: int,
           prev: list, first: int, last: int, rows: range, keep: list | None = None) -> float:
    """Sweep the DP rows ``rows`` (1-based) on top of ``prev``, the row before them.

    Every row is pruned at ``bound``. ``first`` and ``last`` are ``prev``'s
    first and last column at or below it. Point costs come from ``costs``
    when given, and otherwise from the coordinates ``xs`` of the rows and
    ``ys`` of the columns, two lists each (see ``_coordinates``). Returns the
    last swept row's last cell, or D(i, i) from the early stop at the row
    minimum (see ``dtw_distance``). ``prev`` is only read, never written.

    With ``keep``, the sweep is a self-alignment's (``xs`` is ``ys``): row i
    is swept from its diagonal cell, so only the upper triangle is computed
    (see the module docstring), and each row goes to ``keep`` with its first
    and last column at or below the bound.
    """
    inf = float("inf")
    sqrt = math.sqrt
    m = len(prev) - 1
    xs0, xs1, ys0, ys1 = xs[0], xs[1], ys[0], ys[1]
    for i in rows:
        cur = [inf] * (m + 1)
        row = costs[i - 1] if costs is not None else None
        x0, x1 = xs0[i], xs1[i]
        lo = i if keep is not None else first
        next_first, next_last = lo, 0
        diag, left = prev[lo - 1], inf
        for j in range(lo, m + 1):
            up = prev[j]
            best = diag
            if up < best:
                best = up
            if left < best:
                best = left
            diag = up
            if row is None:
                d, e = x0 - ys0[j], x1 - ys1[j]
                c = sqrt(d * d + e * e)
            else:
                c = row[j - 1]
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
        if i >= synced and all(map(cur[i].__le__, cur[lo : j + 1])):
            return float(cur[i])  # the row's minimum, and the rest of the diagonal adds only zeros
        prev, first, last = cur, next_first, next_last
    return float(prev[m])


def _rebuild(rows: list, bound: float, starts: list) -> dict:
    """Shared rows ``starts`` (row numbers, increasing) rebuilt whole from
    ``rows``, the upper triangle swept at ``bound``: row number -> the row and
    its first and last column at or below ``bound``.

    D(r, j) = D(j, r) fills row r in from its first column at or below the
    bound to the stored row's diagonal; cells left of that column are above
    the bound, and stay infinite. A row's first such column is never left of
    the row above's (a cell costs at least its least predecessor, at that
    column not its left one), so each scan starts at the previous row's.
    """
    rebuilt, first = {}, 1
    for r in starts:
        stored, _, last = rows[r - 1]
        while first < r and rows[first - 1][0][r] > bound:
            first += 1
        rebuilt[r] = [math.inf] * first + [above[r] for above, _, _ in rows[first - 1 : r - 1]] + stored[r:], first, last
    return rebuilt


class SelfAlignment:
    """The rows of ``original``'s self-alignment that its ``completions`` share.

    Give it to ``dtw_distance(completion, original, shared)`` for each
    completion. The original may have any width: a pair copies its
    coordinates (``ys``), or wider than two dims its cost rows (``costs``),
    and writes in its differing rows. Each series is read as the module
    docstring says, and a completion of another shape raises ValueError too.
    The constructor computes U, the last nonzero-diagonal row and
    the first differing row of every completion in one stacked pass, so a
    completion must not change afterwards (a ``TimeSeries`` is frozen). It
    then sweeps the upper triangle of the rows once, down to the last row
    before any completion first differs from the original, at one bound
    (``bound``), the largest U among the completions that first differ below
    row 0, and rebuilds by symmetry the whole of every row a pair resumes
    from. It is complete when built: pairs only read it.
    """

    def __init__(self, original: TimeSeries | np.ndarray, completions: list) -> None:
        vb = _as_series(original, "original").values
        n = vb.shape[0]
        values = [_as_series(c, "completion").values for c in completions]
        if any(v.shape != vb.shape for v in values):
            raise ValueError(f"every completion must have the original's shape {vb.shape}")
        numbers = _near_diagonal(values, vb) if values else []
        self.series, self.values = original, vb
        self.ys = _coordinates(vb)
        self.costs = _point_costs(vb, vb).tolist() if vb.shape[1] > 2 else None
        # id of a completion -> the completion (held, so its id is not reused), its values, _near_diagonal's numbers.
        self._pairs = {id(c): (c, v, pair) for c, v, pair in zip(completions, values, numbers)}
        # A pair that differs at row 0 never resumes. Every shared row is swept at bound.
        resuming = [(u, equal) for u, _, equal, _ in numbers if equal]
        self.bound = max((u for u, _ in resuming), default=0.0)
        # Row i is rows[i - 1], filled from column i on (the upper triangle; the cells left of it are
        # infinite), with its first and last column at or below bound.
        self.rows: list = []
        self._origin = _origin(n)  # only read, by the sweeps here and by every pair that starts from row 0
        depth = max((equal for _, _, equal, _ in numbers), default=0)
        _sweep(self.ys, self.ys, self.costs, self.bound, n + 1, self._origin, 1, 0, range(1, depth + 1), self.rows)
        # Row number -> the whole row a pair resumes from, its first and last column at or below bound.
        self._starts = _rebuild(self.rows, self.bound, sorted({equal for _, equal in resuming}))

    def _resume(self, bound: float, equal: int) -> tuple[list, int, int, int]:
        """The row a pair with U ``bound`` and ``equal`` leading rows equal to
        the original starts below, its first and last column at or below
        ``bound``, and its row number: shared row ``equal``, rebuilt whole
        when the self-alignment was built, or row 0, the origin, when the pair
        differs at row 0. Only the pair's own two scans are made here; the
        row is only read."""
        if equal == 0:
            return self._origin, 1, 0, 0
        row, first, last = self._starts[equal]
        # D(equal, equal) is 0.0 <= bound, so both scans stop inside [first, last].
        while row[first] > bound:
            first += 1
        while row[last] > bound:
            last -= 1
        return row, first, last, equal


def dtw_distance(
    a: TimeSeries | np.ndarray, b: TimeSeries | np.ndarray, shared: SelfAlignment | None = None
) -> float:
    """Minimal accumulated pointwise distance over monotone alignments.

    Dynamic program with the step set {down, right, diagonal},
    boundary-anchored at both ends. Dimensions share one alignment and the
    pointwise cost is the Euclidean distance between the aligned points.
    ``a`` and ``b`` are read as the module docstring says.

    The program is pruned but exact: it returns the same bits as the full
    O(n*m) sweep. For equal lengths the diagonal path's cost U, summed in the
    order the sweep adds it, bounds the result in floating point. Costs are
    nonnegative, so accumulated costs never decrease along a path, and a cell
    whose accumulated cost is strictly above U cannot feed the optimal one.
    Each row is therefore swept only from the previous row's first cell at or
    below U, and stops past that row's last such cell at the first cell above
    U. An audit pair differs only inside the masked block, so U is tight
    and only a narrow strip around the diagonal is computed. Unequal lengths
    have no diagonal: U is infinite and the full cost matrix is swept.

    The sweep also stops early. From ``synced``, the last row with a
    nonzero diagonal point cost (the masked block's end in an audit pair),
    on, a row i where D(i, i) is no larger than any swept cell ends the
    sweep with D(i, i). The diagonal from (i, i) adds only +0.0, so
    D(n, n) <= D(i, i). Every path to (n, n) crosses row i and costs never
    decrease along it, while D(i, i) is no larger than any swept cell of the
    row and the unswept ones are above U >= D(i, i), so D(n, n) >= D(i, i).
    Unequal lengths never stop early.

    Equal lengths go through a self-alignment of ``b``: ``shared``, built
    for ``b`` with ``a`` among its completions (any other pair raises
    ValueError), or else one built for this pair alone. The sweep starts
    below the rows where ``a`` equals ``b``. Those rows were swept once, at
    one bound at least U (see the module docstring): every cell at or below
    U in them is exact and every other cell is above U, so the first and
    last columns at or below U, every later comparison with U and D(n, n)
    are those of the pair's own sweep.

    Up to two dimensions, point costs are computed for the visited cells
    only: summing at most two squares takes one addition, so the order numpy
    sums in cannot change the bits, and one dimension adds a square of +0.0,
    which leaves them as they are. Wider points read the self-alignment's
    cost rows, the pair's differing rows computed anew: numpy sums a point's
    squares in one order whatever the number of rows, so the bits match.
    """
    if shared is None:
        a, b = _as_series(a, "a"), _as_series(b, "b")
        va, vb = a.values, b.values
        if va.shape[1] != vb.shape[1]:
            raise ValueError(f"dimension mismatch: {va.shape[1]} vs {vb.shape[1]}")
        n, m = va.shape[0], vb.shape[0]
        if n != m:
            costs = _point_costs(va, vb).tolist()
            return _sweep(_coordinates(va), _coordinates(vb), costs, math.inf, n + 1, _origin(m), 1, 0, range(1, n + 1))
        shared = SelfAlignment(b, [a])
    pair = shared._pairs.get(id(a)) if b is shared.series else None
    if pair is None:
        raise ValueError("shared aligns only its own original with the completions it was built from")
    _, va, (bound, synced, equal, differ) = pair
    # The row the sweep starts below, its first and last column at or below the bound, and its number.
    prev, first, last, start = shared._resume(bound, equal)
    # Outside its differing rows ``a`` equals the original (a zero of either sign squares to the same cost), so it
    # copies the original's coordinates (up to two dims; one dim's zero column is shared) or cost rows, writing in those.
    ys, costs, stop = shared.ys, shared.costs, max(differ, start)
    if costs is None:
        xs = [y.copy() for y in ys[: va.shape[1]]] + ys[va.shape[1] :]
        for x, column in zip(xs, va[start:stop].T.tolist()):
            x[start + 1 : stop + 1] = column
    else:
        xs, costs = ys, costs.copy()
        costs[start:stop] = _point_costs(va[start:stop], shared.values).tolist()
    return _sweep(xs, ys, costs, bound, synced, prev, first, last, range(start + 1, va.shape[0] + 1))
