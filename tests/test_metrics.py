from __future__ import annotations

import numpy as np
import pytest
from helpers import mann_whitney
from hypothesis import given, settings
from hypothesis import strategies as st

from imputeaudit.metrics import (
    LabeledScores,
    RocCurve,
    auroc,
    headline_summary,
    roc_curve,
    tpr_at_fpr,
    tpr_at_top_percent,
    write_roc_csv,
)


def labeled(scores, members):
    return LabeledScores(np.asarray(scores, dtype=float), np.asarray(members, dtype=bool))


def random_labeled(rng, n=60, ties=True):
    scores = rng.normal(size=n)
    if ties:
        scores = np.round(scores, 1)  # force plenty of duplicates
    members = rng.random(n) < 0.5
    if members.all():
        members[0] = False
    if not members.any():
        members[0] = True
    return labeled(scores, members)


def test_perfect_separation_curve_and_auroc():
    data = labeled([0.1, 0.2, 0.9, 1.0], [True, True, False, False])
    curve = roc_curve(data)
    points = set(zip(curve.fpr.tolist(), curve.tpr.tolist()))
    assert (0.0, 1.0) in points
    assert auroc(curve) == pytest.approx(1.0)
    assert tpr_at_fpr(curve, 0.1) == pytest.approx(1.0)


def test_all_tied_scores_collapse_to_diagonal():
    data = labeled([0.5, 0.5, 0.5, 0.5], [True, False, True, False])
    curve = roc_curve(data)
    assert curve.fpr.tolist() == [0.0, 1.0]
    assert curve.tpr.tolist() == [0.0, 1.0]
    assert auroc(curve) == pytest.approx(0.5)
    assert tpr_at_fpr(curve, 0.1) == pytest.approx(0.0)


def test_hand_swept_curve():
    data = labeled([0.1, 0.8, 0.5, 0.9], [True, True, False, False])
    curve = roc_curve(data)
    expected = [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]
    assert list(zip(curve.fpr.tolist(), curve.tpr.tolist())) == expected


def test_single_class_rejected():
    with pytest.raises(ValueError):
        roc_curve(labeled([0.1, 0.2], [True, True]))
    with pytest.raises(ValueError):
        roc_curve(labeled([0.1, 0.2], [False, False]))


@pytest.mark.parametrize("scores, members, message", [
    ([[0.1, 0.2]], [[True, False]], "scores and labels must be 1-D"),
    ([0.1, 0.2, 0.3], [True, False], "3 scores vs 2 labels"),
    ([], [], "need at least one scored candidate"),
    ([0.1, np.inf], [True, False], "scores must be finite"),
    ([0.1, np.nan], [True, False], "scores must be finite"),
], ids=["2-D", "lengths", "empty", "inf", "nan"])
def test_labeled_scores_rejects_malformed_input(scores, members, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LabeledScores(scores, members)


@pytest.mark.parametrize("fpr, tpr, thresholds, message", [
    ([0.0, 1.0], [0.0, 1.0], [0.5], "curve needs matching 1-D arrays with at least two points"),
    ([[0.0, 1.0]], [[0.0, 1.0]], [[0.5, 0.6]], "curve needs matching 1-D arrays with at least two points"),
    ([0.0], [0.0], [0.5], "curve needs matching 1-D arrays with at least two points"),
    ([0.0, 0.6, 0.4, 1.0], [0.0, 0.5, 0.5, 1.0], [0, 1, 2, 3], "fpr and tpr must be nondecreasing along the curve"),
    ([0.0, 0.5, 0.5, 1.0], [0.0, 0.6, 0.4, 1.0], [0, 1, 2, 3], "fpr and tpr must be nondecreasing along the curve"),
    ([0.0, 0.5, 0.9], [0.0, 0.5, 1.0], [0, 1, 2], r"curve must start at \(0,0\) and end at \(1,1\)"),
    ([0.1, 0.5, 1.0], [0.0, 0.5, 1.0], [0, 1, 2], r"curve must start at \(0,0\) and end at \(1,1\)"),
], ids=["lengths", "2-D", "one-point", "fpr-decreases", "tpr-decreases", "end", "start"])
def test_roc_curve_rejects_malformed_points(fpr, tpr, thresholds, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RocCurve(fpr, tpr, thresholds)


def test_auroc_matches_rank_statistic_on_random_sets():
    rng = np.random.default_rng(99)
    for _ in range(40):
        data = random_labeled(rng, n=int(rng.integers(5, 120)))
        assert auroc(roc_curve(data)) == pytest.approx(
            mann_whitney(data.scores, data.is_member), abs=1e-12
        )


def test_label_flip_duality():
    rng = np.random.default_rng(17)
    for _ in range(20):
        data = random_labeled(rng)
        flipped = labeled(-data.scores, data.is_member)
        assert auroc(roc_curve(flipped)) == pytest.approx(1.0 - auroc(roc_curve(data)), abs=1e-12)


def test_monotone_transform_invariance():
    rng = np.random.default_rng(23)
    data = random_labeled(rng, n=80)
    base_curve = roc_curve(data)
    base = (
        auroc(base_curve),
        tpr_at_fpr(base_curve, 0.1),
        tpr_at_top_percent(data, 25.0),
    )
    for transform in (lambda s: 3.0 * s + 10.0, np.exp, lambda s: s**3):
        mapped = labeled(transform(data.scores), data.is_member)
        curve = roc_curve(mapped)
        assert np.array_equal(curve.fpr, base_curve.fpr)
        assert np.array_equal(curve.tpr, base_curve.tpr)
        assert auroc(curve) == pytest.approx(base[0], abs=1e-12)
        assert tpr_at_fpr(curve, 0.1) == pytest.approx(base[1], abs=1e-12)
        assert tpr_at_top_percent(mapped, 25.0) == pytest.approx(base[2], abs=1e-12)


def test_roc_monotonicity_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        curve = roc_curve(random_labeled(rng, n=int(rng.integers(4, 200))))
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.5, -2.0, 5e-324]),
                          st.floats(allow_nan=False, allow_infinity=False)), min_size=2, max_size=40),
       st.lists(st.booleans(), min_size=40, max_size=40))
def test_roc_thresholds_are_np_unique_bit_for_bit(scores, members):
    members[:2] = [True, False]
    scores = np.array(scores)
    curve = roc_curve(labeled(scores, members[: len(scores)]))
    assert curve.thresholds[0] == -np.inf
    assert curve.thresholds[1:].view(np.uint64).tolist() == np.unique(scores).view(np.uint64).tolist()


def test_tpr_at_fpr_validation():
    curve = roc_curve(labeled([0.1, 0.9], [True, False]))
    for cap in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            tpr_at_fpr(curve, cap)


def test_tpr_at_top_percent_examples():
    data = labeled([0.1, 0.2, 0.9, 1.0], [True, True, False, False])
    assert tpr_at_top_percent(data, 50.0) == pytest.approx(1.0)

    worst = labeled([0.9, 1.0, 0.1, 0.2], [True, True, False, False])
    assert tpr_at_top_percent(worst, 25.0) == pytest.approx(0.0)

    # 8 scores, top 25% -> the two smallest: 0.05 (member), 0.1 (nonmember)
    eight = labeled(
        [0.05, 0.1, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9],
        [True, False, True, False, True, False, True, False],
    )
    assert tpr_at_top_percent(eight, 25.0) == pytest.approx(1 / 4)


def test_tpr_at_top_percent_tie_boundary():
    data = labeled([0.2, 0.2, 0.2, 0.9], [True, True, False, False])
    # k = 1 but all three tied at the cutoff are selected
    assert tpr_at_top_percent(data, 25.0) == pytest.approx(1.0)


def test_tpr_at_top_percent_validation():
    data = labeled([0.1, 0.9], [True, False])
    for pct in (0.0, -5.0, 100.1):
        with pytest.raises(ValueError):
            tpr_at_top_percent(data, pct)
    with pytest.raises(ValueError, match="no members to recover"):
        tpr_at_top_percent(labeled([0.1, 0.9], [False, False]), 50.0)


def test_verdict_point_lies_on_curve():
    rng = np.random.default_rng(41)
    data = random_labeled(rng, n=50)
    curve = roc_curve(data)
    points = set(zip(curve.fpr.tolist(), curve.tpr.tolist()))
    for theta in np.quantile(data.scores, [0.1, 0.5, 0.9]):
        flagged = data.scores <= theta
        tpr = (flagged & data.is_member).sum() / data.n_members
        fpr = (flagged & ~data.is_member).sum() / data.n_nonmembers
        assert (fpr, tpr) in points


def test_headline_summary_keys():
    summary = headline_summary(labeled([0.1, 0.2, 0.9, 1.0], [True, True, False, False]))
    assert set(summary) == {"auroc", "tpr_at_0_1", "tpr_at_top25"}


def test_roc_csv_export(tmp_path):
    curve = roc_curve(labeled([0.1, 0.5, 0.9], [True, False, False]))
    path = tmp_path / "roc.csv"
    write_roc_csv(curve, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "fpr,tpr,threshold"
    assert len(lines) == 1 + len(curve.fpr)
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.0 and float(fields[2]) == float("-inf")
