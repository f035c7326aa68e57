from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest
from helpers import BRUTE_FORCE_CELL_LIMIT, dtw_brute_force, dtw_reference, dtw_reference_rows
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from imputeaudit import dtw
from imputeaudit.core import TimeSeries
from imputeaudit.dtw import SelfAlignment, _diagonal_bounds, _near_diagonal, _rebuild, dtw_distance


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
    # Every series is read as a TimeSeries named after its argument: an empty or zero-width one
    # raises ValueError naming that argument before any sweep.
    good = np.ones((3, 1))
    calls = [
        (dtw_distance, (np.empty((0, 1)), good), "a"),
        (dtw_distance, (good, np.empty((0, 1))), "b"),
        (dtw_distance, (np.empty((3, 0)), np.empty((3, 0))), "a"),
        (dtw_distance, (np.empty((3, 0)), np.empty((4, 0))), "a"),
    ]
    for f, args, name in calls:
        with pytest.raises(ValueError, match=f"^series '{name}': "):
            f(*args)


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


@EXACT
@given(block_pairs(), st.data())
def test_non_finite_value_in_either_series_is_rejected_naming_it(case, data):
    # No cost or cell is NaN in a sweep: a NaN or infinite value anywhere in either series
    # raises ValueError naming the argument that holds it, in every argument order.
    completion, original = case
    completion_is_bad = data.draw(st.booleans())
    target = completion if completion_is_bad else original
    row, dim = data.draw(st.integers(0, target.shape[0] - 1)), data.draw(st.integers(0, target.shape[1] - 1))
    target[row, dim] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    first, second = ("a", "b") if completion_is_bad else ("b", "a")
    with pytest.raises(ValueError, match=f"^series '{first}': "):
        dtw_distance(completion, original)
    with pytest.raises(ValueError, match=f"^series '{second}': "):
        dtw_distance(original, completion)
    with pytest.raises(ValueError, match=f"^series '{'completion' if completion_is_bad else 'original'}': "):
        SelfAlignment(original, [original.copy(), completion])


@EXACT
@given(DIMS.flatmap(lambda dims: arrays(np.float64, st.tuples(st.integers(1, 24), st.just(dims)), elements=VALUES)))
def test_self_alignment_is_symmetric_bit_for_bit(x):
    # D(i, j) = D(j, i): the shared rows store only the upper triangle and mirror the rest.
    rows = np.array(dtw_reference_rows(x, x))[1:, 1:]
    assert np.array_equal(rows.view(np.uint64), rows.T.view(np.uint64))


def _spy_on_sweep(monkeypatch) -> list[list[int]]:
    """The rows each later ``_sweep`` call goes through, one list per call."""
    swept, sweep = [], dtw._sweep

    def spy(*args):
        rows = []
        swept.append(rows)

        def recorded(numbers):
            for i in numbers:
                rows.append(i)
                yield i

        return sweep(*args[:8], recorded(args[8]), *args[9:])

    monkeypatch.setattr(dtw, "_sweep", spy)
    return swept


def test_sweep_stops_at_the_first_row_whose_minimum_is_its_diagonal_cell(monkeypatch):
    # U = 2 and the last nonzero diagonal cost is on row 2. Row 3 is [inf, 1, 1, 1, 2, 4]:
    # D(3, 3) is its minimum, though (3, 1), (3, 2) and (3, 4) are at or below U as well.
    a = np.array([[2.0], [2.0], [1.0], [2.0], [3.0]])
    b = np.array([[2.0], [0.0], [1.0], [2.0], [3.0]])
    assert dtw_reference_rows(a, b)[3] == [math.inf, 1.0, 1.0, 1.0, 2.0, 4.0]
    swept = _spy_on_sweep(monkeypatch)
    for shared in (None, SelfAlignment(b, [a])):
        assert dtw_distance(a, b, shared) == dtw_reference(a, b)
        assert swept[-1] == [2, 3]  # the pair's own sweep resumes below row 1, with or without shared


# The shared self-alignment (SelfAlignment): pairs resume from rows swept once
# for the original, and must still return the full sweep's bits.
BLOCK_KINDS = st.sampled_from(["anywhere", "first-row", "last-row", "all-but-one"])


@st.composite
def completion_sets(draw):
    """An original of any width and completions that each differ from it in one masked block."""
    dims, n = draw(DIMS), draw(st.integers(2, 24))
    original = _matrix(draw, n, dims)
    completions = []
    for kind in draw(st.lists(BLOCK_KINDS, min_size=1, max_size=6)):
        length = n - 1 if kind == "all-but-one" else draw(st.integers(1, n - 1))
        if kind == "first-row":
            start = 0
        elif kind == "last-row":
            start = n - length
        else:
            start = draw(st.integers(0, n - length))
        completion = original.copy()
        dim = draw(st.integers(0, dims - 1))
        completion[start : start + length, dim] = draw(arrays(np.float64, length, elements=VALUES))
        completions.append(completion)
    return original, completions


def _equal_rows(a, b):
    changed = np.flatnonzero((a != b).any(axis=1))
    return int(changed[0]) if changed.size else a.shape[0]


def _last_differing_row(a, b):
    changed = np.flatnonzero((a != b).any(axis=1))
    return int(changed[-1]) + 1 if changed.size else 0


@EXACT
@given(completion_sets())
def test_shared_self_alignment_matches_full_sweep(case):
    original, completions = case
    shared = SelfAlignment(original, completions)
    for completion in completions:
        assert dtw_distance(completion, original, shared) == dtw_reference(completion, original)
    # The rows reach down to the last row any completion still shares with the original.
    assert len(shared.rows) == max(_equal_rows(c, original) for c in completions)
    # Below its last differing row a pair reads the original's coordinates.
    numbers = _near_diagonal(completions, original)
    assert [differ for _, _, _, differ in numbers] == [_last_differing_row(c, original) for c in completions]


@EXACT
@given(completion_sets(), st.randoms(use_true_random=False))
def test_self_alignment_rows_are_only_read(case, random):
    # A self-alignment is complete when built: its pairs, in any order, only read it. Pickle writes every
    # float's bits and the sharing between objects, so equal bytes are equal state.
    original, completions = case
    shared = SelfAlignment(original, completions)
    snapshot = copy.deepcopy(vars(shared))
    shuffled = random.sample(completions, len(completions))
    losses = []
    for order in (completions, completions[::-1], shuffled):
        by_id = {id(c): dtw_distance(c, original, shared) for c in order}
        losses.append([by_id[id(c)] for c in completions])
        assert pickle.dumps(vars(shared)) == pickle.dumps(snapshot)
    assert losses[0] == losses[1] == losses[2]
    assert losses[0] == [dtw_reference(c, original) for c in completions]


@pytest.mark.parametrize("dims, dim", [(1, 0), (2, 0), (2, 1)], ids=["one-dim", "first-of-two", "second-of-two"])
def test_a_difference_that_squares_to_zero_still_differs(dims, dim):
    # 1e-200 squares to 0.0: its row has a zero diagonal cost, yet it is not equal to the original's.
    rng = np.random.default_rng(dims + dim)
    original = rng.normal(size=(12, dims))
    original[5, dim] = 0.0
    tiny, blocked = original.copy(), original.copy()
    tiny[5, dim] = 1e-200
    blocked[5, dim] = 1e-200
    blocked[8:10, dim] += 1.0
    assert (tiny - original)[5, dim] ** 2 == 0.0
    numbers = _near_diagonal([tiny, blocked], original)
    assert [(equal, differ) for _, _, equal, differ in numbers] == [(5, 6), (5, 10)]
    shared = SelfAlignment(original, [tiny, blocked])
    for completion in (tiny, blocked):
        assert dtw_distance(completion, original, shared) == dtw_reference(completion, original)


@pytest.mark.parametrize("case", ["another-original", "not-built-from", "bare-values", "unequal-length", "three-dims"])
def test_self_alignment_rejects_pairs_it_was_not_built_for(case):
    # A self-alignment serves its own original, as the same object, and the completions it was built from.
    original = TimeSeries("x", np.random.default_rng(4).normal(size=(8, 2)))
    values = original.values.copy()
    values[3:5, 1] += 1.0
    completion = TimeSeries("c", values)
    shared = SelfAlignment(original, [completion])
    a, b = {
        "another-original": (completion, TimeSeries("x", original.values)),
        "not-built-from": (TimeSeries("c", completion.values), original),
        "bare-values": (completion.values, original),
        "unequal-length": (completion.values[:6], original),
        "three-dims": (np.ones((8, 3)), np.ones((8, 3))),
    }[case]
    with pytest.raises(ValueError, match="aligns only its own original"):
        dtw_distance(a, b, shared)
    assert dtw_distance(completion, original, shared) == dtw_reference(completion.values, original.values)


@pytest.mark.parametrize("original, completion, match", [
    (np.ones((8, 1)), np.ones((6, 1)), "original's shape"),
    (np.ones((8, 2)), np.ones((8, 1)), "original's shape"),
], ids=["unequal-length", "other-dims"])
def test_self_alignment_rejects_series_it_cannot_align(original, completion, match):
    with pytest.raises(ValueError, match=match):
        SelfAlignment(original, [completion])


@EXACT
@given(arrays(np.float64, st.integers(1, 64), elements=st.floats(0.0, 1e6, allow_nan=False) | st.just(0.0)))
def test_diagonal_bound_adds_in_the_sweeps_order(diagonal):
    # U bounds D(n, n) only if it has the bits of the sweep's left-to-right sum.
    bound, synced = 0.0, 0
    for i, c in enumerate(diagonal.tolist(), 1):
        bound = c + bound
        synced = i if c != 0.0 else synced
    assert _diagonal_bounds(diagonal[None]) == ([bound], [synced])


# The shared rows are swept at one bound, the largest U among the completions
# that resume from them; completions whose U falls or rises with their block's
# start resume from rows swept wider than their own U.
SHARED = settings(max_examples=100, deadline=None)

@st.composite
def sloped_completion_sets(draw):
    """An original and TimeSeries completions whose blocks move down the series
    while their error, hence U, falls or rises strictly with the block's start."""
    dims, n = draw(DIMS), draw(st.integers(4, 32))
    # Point costs between original steps on the scale of the errors, so the rows
    # have off-diagonal cells between one completion's U and another's.
    original = draw(arrays(np.float64, (n, dims), elements=st.floats(-2.0, 2.0)))
    length = draw(st.integers(1, n // 2))
    starts = sorted(draw(st.lists(st.integers(0, n - length), min_size=2, max_size=8)))
    slope = draw(st.sampled_from([-1.0, 1.0]))
    completions = []
    for k, start in enumerate(starts):
        completion = original.copy()
        dim = draw(st.integers(0, dims - 1))
        scale = 4.0 ** (slope * k)
        completion[start : start + length, dim] += scale * draw(arrays(np.float64, length, elements=st.floats(1.0, 2.0)))
        completions.append(TimeSeries(f"c{k}", completion))
    return original, completions


@SHARED
@given(sloped_completion_sets())
def test_sloped_completions_match_full_sweep(case):
    original, completions = case
    shared = SelfAlignment(original, completions)
    for completion in completions:
        assert dtw_distance(completion, original, shared) == dtw_reference(completion.values, original)
    # The bound is the largest U among the completions that resume from a shared row.
    diagonal, _ = _diagonal_bounds(np.sqrt(((np.stack([c.values for c in completions]) - original) ** 2).sum(axis=2)))
    resuming = [u for u, c in zip(diagonal, completions) if _equal_rows(c.values, original) >= 1]
    assert shared.bound == max(resuming, default=0.0)
    # A pair resumes from a row that is the full sweep's at or below its own U.
    self_rows = dtw_reference_rows(original, original)
    for completion in completions:
        bound, _, equal, _ = _near_diagonal([completion.values], original)[0]
        row, first, last, start = shared._resume(bound, equal)
        assert start == equal
        if start:
            inside = [j for j, cell in enumerate(self_rows[start]) if cell <= bound]
            assert (first, last) == (inside[0], inside[-1])
            assert [row[j] for j in inside] == [self_rows[start][j] for j in inside]
        else:  # the origin
            assert (row, first, last) == (self_rows[0], 1, 0)


@EXACT
@given(completion_sets())
def test_shared_rows_are_exact_at_or_below_their_bound(case):
    # The claim the shared rows rest on: each shared cell at or below the bound
    # is the full sweep's, and every other one is above the bound. The rows
    # hold the upper triangle; a pair resumes from the whole row rebuilt from it.
    original, completions = case
    shared = SelfAlignment(original, completions)
    full = dtw_reference_rows(original, original)
    bound = shared.bound
    # Every shared row, not only those pairs resume from, rebuilt as the constructor rebuilds those.
    every = copy.copy(shared)
    every._starts = _rebuild(shared.rows, bound, list(range(1, len(shared.rows) + 1)))
    for r, (stored, _, _) in enumerate(shared.rows, 1):
        for got, want in zip(stored[r:], full[r][r:]):
            assert got == want if want <= bound else got > bound
        row, first, last, start = every._resume(bound, r)
        assert start == r
        for got, want in zip(row, full[r]):
            assert got == want if want <= bound else got > bound
        inside = [j for j, want in enumerate(full[r]) if want <= bound]
        assert (first, last) == (inside[0], inside[-1])


@EXACT
@given(st.integers(1, 6).flatmap(
    lambda k: arrays(np.float64, st.tuples(st.just(k), st.integers(1, 48)),
                     elements=st.floats(0.0, 1e6, allow_nan=False) | st.just(0.0) | st.just(float("nan"))))
)
def test_stacked_diagonal_bounds_match_each_diagonal_alone(diagonals):
    bounds, synced = _diagonal_bounds(diagonals)
    alone = [_diagonal_bounds(row[None]) for row in diagonals]
    assert np.array_equal(bounds, [u for (u,), _ in alone], equal_nan=True)
    assert synced == [s for _, (s,) in alone]
