from __future__ import annotations

import numpy as np
import pytest
from helpers import BRUTE_FORCE_CELL_LIMIT, dtw_brute_force, dtw_reference
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from imputeaudit.core import TimeSeries
from imputeaudit.dtw import dtw_distance


def test_identity_is_exactly_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = rng.normal(size=(int(rng.integers(1, 20)), int(rng.integers(1, 3))))
        assert dtw_distance(a, a) == 0.0


def test_two_step_hand_case():
    # paths: diagonal-diagonal costs 2; the two staircase paths cost 3
    assert dtw_distance([0.0, 0.0], [1.0, 1.0]) == pytest.approx(2.0)
    assert dtw_brute_force([0.0, 0.0], [1.0, 1.0]) == pytest.approx(2.0)


def test_single_point_forced_alignment():
    assert dtw_distance([1.0], [5.0]) == pytest.approx(4.0)


def test_accepts_time_series_objects():
    a = TimeSeries("a", [0.0, 1.0, 2.0])
    b = TimeSeries("b", [0.0, 1.0, 2.0, 2.0])
    assert dtw_distance(a, b) == pytest.approx(0.0)


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(123)
    for _ in range(120):
        dims = int(rng.integers(1, 3))
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rng.normal(size=(n, dims))
        b = rng.normal(size=(m, dims))
        assert dtw_distance(a, b) == pytest.approx(dtw_brute_force(a, b), abs=1e-9)


def test_symmetry_and_nonnegativity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = rng.normal(size=(int(rng.integers(1, 15)), 2))
        b = rng.normal(size=(int(rng.integers(1, 15)), 2))
        d_ab = dtw_distance(a, b)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(dtw_distance(b, a), abs=1e-12)


def test_monotone_degradation_with_noise():
    rng = np.random.default_rng(11)
    t = np.linspace(0, 2 * np.pi, 40)
    a = np.sin(t)[:, None]
    medians = []
    for scale in (0.05, 0.2, 0.8):
        costs = [dtw_distance(a, a + rng.normal(0, scale, size=a.shape)) for _ in range(15)]
        medians.append(np.median(costs))
    assert medians[0] < medians[1] < medians[2]


def test_multivariate_pointwise_euclidean():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert dtw_distance(a, b) == pytest.approx(5.0)


def test_dimension_mismatch_and_empty_errors():
    with pytest.raises(ValueError):
        dtw_distance(np.ones((3, 1)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        dtw_distance(np.empty((0, 1)), np.ones((3, 1)))


def test_brute_force_guard():
    a = np.zeros((7, 1))
    b = np.zeros((6, 1))
    assert 7 * 6 > BRUTE_FORCE_CELL_LIMIT
    with pytest.raises(ValueError):
        dtw_brute_force(a, b)


# Exactness of the pruned dynamic program: every case compares bits with ==
# against the full sweep in tests/helpers.py. Widths 1 and 2 compute point
# costs per visited cell, wider points read the precomputed cost matrix.
DIMS = st.sampled_from([1, 2, 3, 7, 8, 9])
VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
EXACT = settings(max_examples=200, deadline=None)


def _matrix(draw, steps, dims):
    return draw(arrays(np.float64, (steps, dims), elements=VALUES))


@st.composite
def free_pairs(draw, lengths=st.integers(1, 24)):
    """Unrelated series, of equal length (pruned) or not (nothing to prune) about equally often."""
    dims, n = draw(DIMS), draw(lengths)
    m = draw(st.just(n) | lengths)
    return _matrix(draw, n, dims), _matrix(draw, m, dims)


@st.composite
def block_pairs(draw, lengths=st.integers(2, 24)):
    """An original and a completion that differs from it only inside one or two disjoint masked blocks.

    Between two blocks the diagonal costs run at exactly zero, which must not
    stop the sweep before the last nonzero one.
    """
    dims, n = draw(DIMS), draw(lengths)
    start = draw(st.integers(0, n - 1))
    stop = draw(st.integers(start + 1, min(n, start + n - 1)))
    blocks = [(start, stop)]
    if stop + 1 < n and draw(st.booleans()):
        second = draw(st.integers(stop + 1, n - 1))
        blocks.append((second, draw(st.integers(second + 1, n))))
    original = _matrix(draw, n, dims)
    completion = original.copy()
    for start, stop in blocks:
        dim = draw(st.integers(0, dims - 1))
        completion[start:stop, dim] = draw(arrays(np.float64, stop - start, elements=VALUES))
    return completion, original


@EXACT
@given(free_pairs())
def test_pruned_matches_full_sweep(case):
    a, b = case
    assert dtw_distance(a, b) == dtw_reference(a, b)


@EXACT
@given(block_pairs())
def test_block_completions_match_full_sweep(case):
    a, b = case
    assert dtw_distance(a, b) == dtw_reference(a, b)
    assert dtw_distance(b, a) == dtw_reference(b, a)


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("start, stop", [(0, 5), (11, 16)], ids=["first-row", "last-row"])
def test_block_at_either_end_matches_full_sweep(start, stop, dims):
    # A block at row 0 leaves the longest zero suffix; one ending at the last row leaves none.
    rng = np.random.default_rng(stop)
    original = rng.normal(size=(16, dims))
    completion = original.copy()
    completion[start:stop] += rng.normal(size=(stop - start, dims))
    assert dtw_distance(completion, original) == dtw_reference(completion, original)
    assert dtw_distance(original, completion) == dtw_reference(original, completion)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 1))
def test_long_bivariate_block_completion_matches_full_sweep(seed, block, dim):
    # The audit-long shape: 128 steps, 2 dims, a model-like error on one block.
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 4.0 * np.pi, 128)
    original = np.stack([np.sin(t), np.cos(2.0 * t)], axis=1) + rng.normal(0.0, 0.3, size=(128, 2))
    completion = original.copy()
    start = int(rng.integers(0, 128 - block))
    completion[start : start + block, dim] += rng.normal(0.0, 1.0, size=block)
    assert dtw_distance(completion, original) == dtw_reference(completion, original)


@EXACT
@given(DIMS, st.integers(1, 24), st.integers(1, 24), VALUES, VALUES)
def test_constant_series_match_full_sweep(dims, n, m, u, v):
    a, b = np.full((n, dims), u), np.full((m, dims), v)
    assert dtw_distance(a, b) == dtw_reference(a, b)
    assert dtw_distance(a, a) == 0.0


@EXACT
@given(free_pairs(lengths=st.integers(1, 2)))
def test_length_one_and_two_match_full_sweep(case):
    a, b = case
    assert dtw_distance(a, b) == dtw_reference(a, b)
