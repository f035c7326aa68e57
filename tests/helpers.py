"""Stub oracles, brute-force statistics and the reference DTW sweep shared across the test suite.

The stubs here deliberately bypass the production model code so that attack
and metric tests check the pipeline against arithmetic, not against the
trainer.
"""
from __future__ import annotations

import numpy as np

from imputeaudit.core import MaskedSeries, TimeSeries


class PerfectOracle:
    """Returns the withheld original: a model with perfect memory."""

    def impute(self, x: MaskedSeries) -> TimeSeries:
        return x.original


class OffsetOracle:
    """Keep-observed oracle that misses every hidden entry by a fixed offset."""

    def __init__(self, offset: float) -> None:
        self.offset = offset

    def impute(self, x: MaskedSeries) -> TimeSeries:
        filled = np.where(x.mask.observed(), x.original.values, x.original.values + self.offset)
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


def dtw_reference(a: np.ndarray, b: np.ndarray, band: int | None = None) -> float:
    """The full, unpruned O(n*m) DTW sweep over the whole cost matrix.

    ``dtw_distance`` prunes cells and computes point costs lazily; it must
    return exactly these bits.
    """
    diff = a[:, None, :] - b[None, :, :]
    costs = np.sqrt(np.sum(diff * diff, axis=2)).tolist()
    n, m = a.shape[0], b.shape[0]
    inf = float("inf")
    prev = [inf] * (m + 1)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = [inf] * (m + 1)
        row = costs[i - 1]
        lo = 1 if band is None else max(1, i - band)
        hi = m if band is None else min(m, i + band)
        for j in range(lo, hi + 1):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if cur[j - 1] < best:
                best = cur[j - 1]
            cur[j] = row[j - 1] + best
        prev = cur
    return prev[m]
