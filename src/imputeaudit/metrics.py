"""Threshold-free evaluation of membership scores.

Score direction is fixed throughout: lower score = more member-like, matching
the loss-ratio convention (memorized samples have small ratios).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import _atomic_open, _freeze

__all__ = [
    "LabeledScores",
    "RocCurve",
    "roc_curve",
    "auroc",
    "tpr_at_fpr",
    "tpr_at_top_percent",
    "headline_summary",
    "write_roc_csv",
]


@dataclass(frozen=True, eq=False)
class LabeledScores:
    """Per-candidate scores with ground-truth membership labels, copied and frozen at construction."""

    scores: np.ndarray
    is_member: np.ndarray

    def __post_init__(self) -> None:
        scores = np.array(self.scores, dtype=np.float64)
        labels = np.array(self.is_member, dtype=bool)
        if scores.ndim != 1 or labels.ndim != 1:
            raise ValueError("scores and labels must be 1-D")
        if scores.shape != labels.shape:
            raise ValueError(f"{scores.shape[0]} scores vs {labels.shape[0]} labels")
        if scores.shape[0] == 0:
            raise ValueError("need at least one scored candidate")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        _freeze(self, "scores", scores)
        _freeze(self, "is_member", labels)

    @property
    def n_members(self) -> int:
        return int(self.is_member.sum())

    @property
    def n_nonmembers(self) -> int:
        return int((~self.is_member).sum())


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Ordered (fpr, tpr, threshold) points from (0,0) to (1,1), copied and frozen at construction."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self) -> None:
        fpr = np.array(self.fpr, dtype=np.float64)
        tpr = np.array(self.tpr, dtype=np.float64)
        thr = np.array(self.thresholds, dtype=np.float64)
        if not (fpr.shape == tpr.shape == thr.shape) or fpr.ndim != 1 or fpr.shape[0] < 2:
            raise ValueError("curve needs matching 1-D arrays with at least two points")
        if np.any(np.diff(fpr) < 0) or np.any(np.diff(tpr) < 0):
            raise ValueError("fpr and tpr must be nondecreasing along the curve")
        if not (fpr[0] == 0.0 and tpr[0] == 0.0 and fpr[-1] == 1.0 and tpr[-1] == 1.0):
            raise ValueError("curve must start at (0,0) and end at (1,1)")
        _freeze(self, "fpr", fpr)
        _freeze(self, "tpr", tpr)
        _freeze(self, "thresholds", thr)


def roc_curve(data: LabeledScores) -> RocCurve:
    """Sweep thresholds over the distinct score values (member iff score <= threshold).

    Tied scores collapse to a single curve point; a leading (0, 0) point at
    threshold -inf represents flagging nothing.
    """
    if data.n_members == 0 or data.n_nonmembers == 0:
        raise ValueError("ROC needs at least one member and one nonmember")
    # np.unique's own sort-then-first-of-run algorithm; np.unique itself imports numpy.ma
    ordered = np.sort(data.scores)
    thresholds = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    member_sorted = np.sort(data.scores[data.is_member])
    nonmember_sorted = np.sort(data.scores[~data.is_member])
    tpr = np.searchsorted(member_sorted, thresholds, side="right") / data.n_members
    fpr = np.searchsorted(nonmember_sorted, thresholds, side="right") / data.n_nonmembers
    return RocCurve(
        fpr=np.concatenate(([0.0], fpr)),
        tpr=np.concatenate(([0.0], tpr)),
        thresholds=np.concatenate(([-np.inf], thresholds)),
    )


def auroc(curve: RocCurve) -> float:
    """Trapezoidal area under the curve; equals the pairwise rank statistic
    P(member < nonmember) + 0.5 * P(tie)."""
    widths = np.diff(curve.fpr)
    heights = (curve.tpr[1:] + curve.tpr[:-1]) / 2.0
    return float(np.sum(widths * heights))


def tpr_at_fpr(curve: RocCurve, fpr_cap: float) -> float:
    """Best TPR among curve points with fpr <= cap; no interpolation, so this
    underestimates rather than inflates attack power."""
    if not 0.0 < fpr_cap < 1.0:
        raise ValueError(f"fpr cap must be in (0, 1), got {fpr_cap}")
    eligible = curve.fpr <= fpr_cap
    return float(curve.tpr[eligible].max())


def tpr_at_top_percent(data: LabeledScores, percent: float) -> float:
    """Fraction of all members recovered when flagging the ``percent``% lowest
    scores (ties at the boundary included)."""
    if not 0.0 < percent <= 100.0:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    if data.n_members == 0:
        raise ValueError("no members to recover")
    n = data.scores.shape[0]
    k = int(np.floor(percent / 100.0 * n))
    if k == 0:
        return 0.0
    cutoff = np.partition(data.scores, k - 1)[k - 1]
    selected = data.scores <= cutoff
    return float((selected & data.is_member).sum() / data.n_members)


# The operating points of the headline summary; its keys name them.
_FPR_CAP = 0.1
_TOP_PERCENT = 25.0


def headline_summary(data: LabeledScores) -> dict[str, float]:
    """The three numbers every report carries: AUROC, TPR@0.1 FPR, TPR@top25%."""
    curve = roc_curve(data)
    return {
        "auroc": auroc(curve),
        "tpr_at_0_1": tpr_at_fpr(curve, _FPR_CAP),
        "tpr_at_top25": tpr_at_top_percent(data, _TOP_PERCENT),
    }


def write_roc_csv(curve: RocCurve, path: str) -> None:
    """Plot-ready `fpr,tpr,threshold` export, written atomically."""
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr", "threshold"])
        for f, t, thr in zip(curve.fpr, curve.tpr, curve.thresholds):
            writer.writerow([repr(float(f)), repr(float(t)), repr(float(thr))])
