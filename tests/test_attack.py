from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    CountingOracle,
    FailingOracle,
    OffsetOracle,
    PerfectOracle,
    ShiftingOracle,
    TruncatingOracle,
    ZeroFillOracle,
    dtw_reference,
)

from imputeaudit import attack, dtw
from imputeaudit.attack import (
    AttackConfig,
    Calibration,
    FixedTheta,
    MembershipScore,
    StdRule,
    TopPercentRule,
    classify,
    lbrm_score,
    loss_ratio,
    report_from_dict,
    report_to_dict,
    ThetaRule,
    run_attack,
)
from imputeaudit.core import OracleError, TimeSeries, _read, _to_dict, single_unit_mask
from imputeaudit.dtw import dtw_distance
from imputeaudit.models import ImputerConfig, train


def series(seed=0, steps=20):
    rng = np.random.default_rng(seed)
    return TimeSeries(f"cand-{seed}", rng.normal(size=(steps, 1)))


def test_mask_schedule_even_is_interior_and_deterministic():
    starts = attack._schedule(64, 1, 4, "even", 0)
    assert starts == attack._schedule(64, 1, 4, "even", 0)
    assert len(starts) == 4
    assert all(0 < s < 63 for s in starts)
    assert list(starts) == sorted(starts)


def test_mask_schedule_random_seeded():
    a = attack._schedule(64, 1, 6, "random", 5)
    b = attack._schedule(64, 1, 6, "random", 5)
    c = attack._schedule(64, 1, 6, "random", 6)
    assert a == b
    assert a != c
    assert all(0 <= s <= 63 for s in a)


@pytest.mark.parametrize("placement", ["even", "random"])
def test_changing_a_returned_schedule_changes_no_later_one(placement, monkeypatch):
    # Each schedule is computed once per run and shape and shared: a tuple, so no caller can change it.
    cfg = AttackConfig(block_length=2, repeats=5, placement=placement, seed=3)
    expected = attack._schedule(20, cfg.block_length, cfg.repeats, placement, cfg.seed)
    assert isinstance(expected, tuple)
    starts = []

    def recorded(x, start, *rest):
        starts.append(start)
        return single_unit_mask(x, start, *rest)

    monkeypatch.setattr(attack, "single_unit_mask", recorded)
    lbrm_score(ZeroFillOracle(), ZeroFillOracle(), series(1), cfg)
    assert tuple(starts) == expected


def test_mask_schedule_rejects_full_cover():
    with pytest.raises(ValueError):
        attack._schedule(4, 4, 1, "even", 0)


def test_perfect_target_gives_zero_ratio():
    x = series(1)
    score = lbrm_score(PerfectOracle([x]), OffsetOracle(0.5, [x]), x, AttackConfig(repeats=3))
    assert score.l_t == 0.0
    assert score.l_r > 0.0
    assert score.r == 0.0
    assert not score.degenerate


def test_same_oracle_both_sides_gives_unit_ratio():
    x = series(2)
    oracle = OffsetOracle(0.7, [x])
    score = lbrm_score(oracle, oracle, x, AttackConfig(repeats=4))
    assert score.l_t == score.l_r
    assert score.r == 1.0


def test_both_perfect_is_degenerate_unit_ratio():
    x = series(3)
    score = lbrm_score(PerfectOracle([x]), PerfectOracle([x]), x, AttackConfig(repeats=2))
    assert score.degenerate
    assert score.r == 1.0


def test_score_matches_hand_composed_pipeline():
    # compose mask -> impute -> dtw -> divide independently of lbrm_score
    x = TimeSeries("pinned", np.array([0.4, -1.2, 0.3, 2.0, -0.7, 0.1, 1.5, -0.4]))
    target, reference = OffsetOracle(0.2, [x]), OffsetOracle(0.9, [x])
    cfg = AttackConfig(repeats=3, block_length=2)

    starts = attack._schedule(8, 2, 3, "even", 0)
    lt_vals, lr_vals = [], []
    for s0 in starts:
        masked = single_unit_mask(x, s0, 2)
        lt_vals.append(dtw_distance(target.impute(masked), x))
        lr_vals.append(dtw_distance(reference.impute(masked), x))
    expected_lt, expected_lr = np.mean(lt_vals), np.mean(lr_vals)

    score = lbrm_score(target, reference, x, cfg)
    assert score.l_t == pytest.approx(expected_lt, abs=1e-9)
    assert score.l_r == pytest.approx(expected_lr, abs=1e-9)
    assert score.r == pytest.approx(expected_lt / expected_lr, abs=1e-9)


def test_oracle_failure_names_candidate():
    x = series(5)
    with pytest.raises(OracleError, match="'cand-5': deliberately broken oracle"):
        lbrm_score(FailingOracle(), ZeroFillOracle(), x, AttackConfig())


@pytest.mark.parametrize("broken", [TruncatingOracle(), ShiftingOracle()], ids=["short", "moves-observed"])
def test_oracle_contract_checked_at_query_boundary(broken):
    x = series(6)
    with pytest.raises(OracleError, match="target oracle .*'cand-6'"):
        lbrm_score(broken, ZeroFillOracle(), x, AttackConfig())
    with pytest.raises(OracleError, match="reference oracle .*'cand-6'"):
        lbrm_score(ZeroFillOracle(), broken, x, AttackConfig())


def test_std_rule_reuses_scores_of_candidate_nonmembers():
    candidates = [series(i) for i in range(6)]
    fresh = series(100)
    renamed = TimeSeries("cand-0", candidates[1].values)  # same id as a candidate, other values
    nonmembers = candidates[3:] + [fresh, renamed]
    cfg = AttackConfig(repeats=3, theta_rule=StdRule(1.0))
    memory = candidates + [fresh]
    target, reference = CountingOracle(OffsetOracle(0.2, memory)), CountingOracle(OffsetOracle(0.6, memory))
    report = run_attack(target, reference, candidates, cfg, known_nonmembers=nonmembers)
    assert target.calls == reference.calls == (len(candidates) + 2) * cfg.repeats
    expected = [lbrm_score(OffsetOracle(0.2, memory), OffsetOracle(0.6, memory), x, cfg).r for x in nonmembers]
    assert report.theta == StdRule(1.0).threshold([], expected)


def test_loss_ratio_scale_invariance():
    rng = np.random.default_rng(6)
    for _ in range(50):
        l_t, l_r = rng.uniform(0.01, 5.0, size=2)
        r0, _ = loss_ratio(l_t, l_r)
        for c in (1e-3, 0.5, 7.0, 1e4):
            rc, _ = loss_ratio(c * l_t, c * l_r)
            assert rc == pytest.approx(r0, rel=1e-12)


def test_loss_ratio_degenerate_rule():
    r, degenerate = loss_ratio(1e-14, 1e-13, epsilon=1e-12)
    assert degenerate and r == 1.0
    r, degenerate = loss_ratio(0.5, 0.0, epsilon=1e-12)
    assert not degenerate
    assert np.isfinite(r)


def test_calibrate_theta_std_examples():
    # StdRule calibrates on the known nonmembers' ratios and ignores the candidates'.
    assert StdRule(2.0).threshold([], [1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert StdRule(1.0).threshold([], [0.8, 1.0, 1.2]) == pytest.approx(1.16329931, abs=1e-6)
    assert StdRule(1.0).threshold([9.0, 0.1], [0.8, 1.0, 1.2]) == StdRule(1.0).threshold([], [0.8, 1.0, 1.2])
    scores = [0.3, 0.9, 1.7, 2.2]
    assert StdRule(0.0).threshold([], scores) == pytest.approx(np.mean(scores))
    for too_few in ([1.0], []):
        with pytest.raises(ValueError, match="^StdRule needs at least 2 known-nonmember ratios"):
            StdRule(1.0).threshold([0.5, 0.7], too_few)


@pytest.mark.parametrize("l_t, l_r, epsilon", [(0.0, 0.0, float("nan")), (1.0, 0.0, float("inf"))], ids=["nan", "inf"])
def test_loss_ratio_rejects_an_epsilon_that_is_not_finite(l_t, l_r, epsilon):
    # NaN gave ZeroDivisionError and inf a ratio of l_t / inf pinned by nothing.
    with pytest.raises(ValueError, match="^epsilon must be finite and positive"):
        loss_ratio(l_t, l_r, epsilon=epsilon)


def test_calibrate_theta_std_rejects_a_nan_n():
    with pytest.raises(ValueError, match="^n must be finite"):
        StdRule(float("nan"))


def test_calibrate_theta_topk_examples():
    # TopPercentRule calibrates on the candidates' ratios and ignores the known nonmembers'.
    assert TopPercentRule(25.0).threshold([0.2, 0.5, 0.9, 1.4], []) == pytest.approx(0.2)
    assert TopPercentRule(100.0).threshold([0.2, 0.5, 0.9, 1.4], []) == pytest.approx(1.4)
    assert TopPercentRule(10.0).threshold([0.7, 0.7, 0.7], []) == pytest.approx(0.7)  # k floored to 1
    assert TopPercentRule(25.0).threshold([0.2, 0.5, 0.9, 1.4], [0.01, 0.02]) == pytest.approx(0.2)
    with pytest.raises(ValueError, match="^percent must be in"):
        TopPercentRule(0.0)
    with pytest.raises(ValueError, match="^no ratios to calibrate on"):
        TopPercentRule(25.0).threshold([], [0.5, 0.7])


def test_classify_rule_direction_and_ties():
    score = MembershipScore("x", 0.5, 1.0, 0.5)
    assert classify(score, 0.7) is True
    assert classify(MembershipScore("x", 1.0, 1.0, 1.0), 1.0) is True  # inclusive
    assert classify(MembershipScore("x", 1.1, 1.0, 1.1), 1.0) is False
    with pytest.raises(ValueError):
        classify(score, float("inf"))


def test_classify_monotone_in_theta():
    rng = np.random.default_rng(8)
    scores = [MembershipScore(f"c{i}", 1.0, 1.0, float(r)) for i, r in enumerate(rng.uniform(0, 2, 30))]
    thetas = sorted(rng.uniform(0, 2, 5))
    previous: set[str] = set()
    for theta in thetas:
        members = {s.candidate_id for s in scores if classify(s, theta)}
        assert previous <= members
        previous = members


def test_run_attack_contracts():
    candidates = [series(i) for i in range(6)]
    target, reference = OffsetOracle(0.2, candidates), OffsetOracle(0.5, candidates)

    report = run_attack(target, reference, candidates, AttackConfig(theta_rule=FixedTheta(1e9)))
    assert len(report.is_member) == len(report.scores) == len(candidates)
    assert [s.candidate_id for s in report.scores] == [x.id for x in candidates]
    assert all(report.is_member)

    with pytest.raises(ValueError):
        run_attack(target, reference, [], AttackConfig())


def test_run_attack_top_percent_flags_expected_count():
    candidates = [series(i) for i in range(8)]
    target, reference = OffsetOracle(0.2, candidates), OffsetOracle(0.5, candidates)
    report = run_attack(target, reference, candidates, AttackConfig(theta_rule=TopPercentRule(25.0)))
    flagged = sum(report.is_member)
    assert flagged >= 2  # floor(25% of 8) = 2, ties may add more


def test_topk_verdicts_equal_lowest_rank_selection_and_survive_monotone_transforms():
    rng = np.random.default_rng(9)
    ratios = rng.uniform(0.1, 2.0, size=20)
    ratios[3] = ratios[11]  # plant a tie
    scores = [MembershipScore(f"c{i}", 1.0, 1.0, float(r)) for i, r in enumerate(ratios)]

    percent = 25.0
    k = int(np.floor(percent / 100 * len(scores)))
    cutoff = np.sort(ratios)[k - 1]
    expected = {s.candidate_id for s in scores if s.r <= cutoff}

    theta = TopPercentRule(percent).threshold([s.r for s in scores], [])
    flagged = {s.candidate_id for s in scores if classify(s, theta)}
    assert flagged == expected

    for transform in (lambda v: 3.0 * v + 1.0, np.exp):
        mapped = [MembershipScore(s.candidate_id, s.l_t, s.l_r, float(transform(s.r))) for s in scores]
        theta_m = TopPercentRule(percent).threshold([s.r for s in mapped], [])
        flagged_m = {s.candidate_id for s in mapped if classify(s, theta_m)}
        assert flagged_m == expected


def test_run_attack_std_rule_requires_nonmembers():
    candidates = [series(i) for i in range(4)]
    cfg = AttackConfig(theta_rule=StdRule(1.0))
    nonmembers = [series(100 + i) for i in range(5)]
    target, reference = OffsetOracle(0.1, candidates + nonmembers), OffsetOracle(0.4, candidates + nonmembers)
    with pytest.raises(ValueError):
        run_attack(target, reference, candidates, cfg)
    report = run_attack(target, reference, candidates, cfg, known_nonmembers=nonmembers)
    assert np.isfinite(report.theta)


def test_run_attack_deterministic():
    candidates = [series(i) for i in range(5)]
    cfg = AttackConfig(repeats=3, theta_rule=TopPercentRule(50.0))
    a = run_attack(OffsetOracle(0.2, candidates), OffsetOracle(0.6, candidates), candidates, cfg)
    b = run_attack(OffsetOracle(0.2, candidates), OffsetOracle(0.6, candidates), candidates, cfg)
    assert a.theta == b.theta
    assert [s.r for s in a.scores] == [s.r for s in b.scores]


def test_query_counting_matches_schedule():
    candidates = [series(i) for i in range(7)]
    target = CountingOracle(OffsetOracle(0.2, candidates))
    reference = CountingOracle(OffsetOracle(0.6, candidates))
    cfg = AttackConfig(repeats=4, theta_rule=FixedTheta(1.0))
    run_attack(target, reference, candidates, cfg)
    assert target.calls == len(candidates) * cfg.repeats
    assert reference.calls == len(candidates) * cfg.repeats


def test_report_serialization_round_trip():
    candidates = [series(i) for i in range(4)]
    cfg = AttackConfig(theta_rule=TopPercentRule(50.0))
    offsets = run_attack(OffsetOracle(0.3, candidates), OffsetOracle(0.9, candidates), candidates, cfg)
    both_perfect = run_attack(PerfectOracle(candidates), PerfectOracle(candidates), candidates[:1], cfg)
    assert not any(s.degenerate for s in offsets.scores)
    assert both_perfect.scores[0].degenerate
    row_keys = {"id", "l_t", "l_r", "r", "is_member"}
    for report, keys in ((offsets, row_keys), (both_perfect, row_keys | {"degenerate"})):
        doc = report_to_dict(report)
        assert set(doc) == {"theta", "theta_rule", "per_candidate"}
        assert all(set(row) == keys for row in doc["per_candidate"])
        back = report_from_dict(doc)
        assert back.theta == report.theta
        assert back.theta_rule == report.theta_rule
        assert back.scores == report.scores
        assert back.is_member == report.is_member


def _scores_doc():
    return {
        "theta": 1.0, "theta_rule": {"kind": "fixed", "theta": 1.0},
        "per_candidate": [{"id": "a", "l_t": 0.2, "l_r": 1.0, "r": 0.2, "is_member": True}],
    }


@pytest.mark.parametrize("edit, match", [
    (lambda d: d["per_candidate"][0].update(is_member="false"), "'is_member' in item 0 of the per_candidate block"),
    (lambda d: d["per_candidate"][0].update(degenerate="no"), "'degenerate' in item 0 of the per_candidate block"),
    (lambda d: d.update(theta="0.5"), "'theta' in the scores document"),
    (lambda d: d["per_candidate"][0].update(ratio=0.2), "unknown key 'ratio' in item 0 of the per_candidate block"),
    (lambda d: d.pop("per_candidate"), "missing key 'per_candidate' in the scores document"),
], ids=["is_member", "degenerate", "theta", "unknown_row_key", "no_per_candidate"])
def test_report_from_dict_rejects_mistyped_rows_by_name(edit, match):
    # "is_member": "false" once read as a member and "degenerate": "no" as degenerate.
    doc = _scores_doc()
    assert report_from_dict(doc).is_member == (True,)
    edit(doc)
    with pytest.raises(ValueError, match=match):
        report_from_dict(doc)


def test_theta_rule_codec():
    for rule in (StdRule(2.0), TopPercentRule(10.0), FixedTheta(0.8)):
        assert _read(ThetaRule, _to_dict(rule), "the theta_rule block") == rule
    with pytest.raises(ValueError):
        _read(ThetaRule, {"kind": "nope"}, "the theta_rule block")
    # integer fields parse as floats, so the echo of {"percent": 25} says 25.0
    rule = _read(ThetaRule, {"kind": "top_percent", "percent": 25}, "the theta_rule block")
    assert _to_dict(rule) == {"kind": "top_percent", "percent": 25.0}
    assert isinstance(rule.percent, float)
    # a left-out field takes its default
    assert _read(ThetaRule, {"kind": "std_rule"}, "the theta_rule block") == StdRule()


def test_resolve_theta_per_rule():
    # Each rule reads only its own list: fixed neither, top_percent the candidates', std_rule the nonmembers'.
    ratios, nonmember_ratios = [0.2, 0.5, 0.9, 1.4], [1.0, 3.0]
    assert FixedTheta(0.8).threshold(ratios, nonmember_ratios) == 0.8
    assert FixedTheta(0.8).threshold([], []) == 0.8
    assert TopPercentRule(50.0).threshold(ratios, nonmember_ratios) == 0.5
    assert StdRule(1.0).threshold(ratios, nonmember_ratios) == 3.0
    with pytest.raises(ValueError, match="known-nonmember"):
        StdRule(1.0).threshold(ratios, [])


def test_attack_config_validation():
    with pytest.raises(ValueError, match="block_length must be >= 1"):
        AttackConfig(block_length=0)
    with pytest.raises(ValueError, match="dim must be >= 0"):
        AttackConfig(dim=-1)
    with pytest.raises(ValueError):
        AttackConfig(repeats=0)
    with pytest.raises(ValueError):
        AttackConfig(placement="spiral")
    with pytest.raises(ValueError):
        AttackConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        TopPercentRule(0.0)


@pytest.mark.parametrize("dims", [3, 8])
def test_wide_candidates_score_the_full_sweeps_bits(dims):
    # A candidate of any width shares one self-alignment; each mean has the full sweep's bits.
    x = TimeSeries("wide", np.random.default_rng(dims).normal(size=(24, dims)))
    target, reference = OffsetOracle(0.3, [x]), ZeroFillOracle()
    cfg = AttackConfig(repeats=5, block_length=3, dim=dims - 1)
    views = [single_unit_mask(x, start, 3, dims - 1) for start in attack._schedule(24, 3, 5, "even", 0)]
    score = lbrm_score(target, reference, x, cfg)
    assert score.l_t == float(np.mean([dtw_reference(target.impute(v).values, x.values) for v in views]))
    assert score.l_r == float(np.mean([dtw_reference(reference.impute(v).values, x.values) for v in views]))


def test_wide_pairs_compute_only_their_differing_cost_rows(monkeypatch):
    # The self-alignment computes the original's cost matrix once; each pair copies its rows and
    # computes only the rows where its completion differs from the original.
    x = TimeSeries("wide", np.random.default_rng(5).normal(size=(24, 3)))
    target, reference = OffsetOracle(0.3, [x]), ZeroFillOracle()
    cfg = AttackConfig(repeats=5, block_length=3, dim=1)
    calls, point_costs = [], dtw._point_costs

    def spy(a, b):
        calls.append((a.copy(), b.copy()))
        return point_costs(a, b)

    monkeypatch.setattr(dtw, "_point_costs", spy)
    lbrm_score(target, reference, x, cfg)
    (rows, columns), *pairs = calls
    assert np.array_equal(rows, x.values) and np.array_equal(columns, x.values)
    expected = []
    for start in attack._schedule(24, 3, 5, "even", 0):
        masked = single_unit_mask(x, start, 3, 1)
        expected += [oracle.impute(masked).values[start : start + 3] for oracle in (target, reference)]
    assert len(pairs) == len(expected) == 10
    for (rows, columns), differing in zip(pairs, expected):
        assert np.array_equal(rows, differing) and np.array_equal(columns, x.values)


def _full_sweep_score(target, reference, x, cfg):
    """lbrm_score recomposed view by view, with the unpruned DTW sweep and no shared rows."""
    l_t, l_r = [], []
    for start in attack._schedule(x.length, cfg.block_length, cfg.repeats, cfg.placement, cfg.seed):
        masked = single_unit_mask(x, start, cfg.block_length, cfg.dim)
        l_t.append(dtw_reference(target.impute(masked).values, x.values))
        l_r.append(dtw_reference(reference.impute(masked).values, x.values))
    return float(np.mean(l_t)), float(np.mean(l_r))


EDGE_CASES = {
    "constant": ([TimeSeries(f"flat-{i}", np.full((12, 2), v)) for i, v in enumerate((0.7, -1.3, 0.0))],
                 AttackConfig(repeats=4, dim=1)),
    "length-2": ([TimeSeries(f"pair-{i}", np.random.default_rng(i).normal(size=2)) for i in range(4)],
                 AttackConfig(repeats=3)),
    "block-T-1": ([series(i, steps=7) for i in range(4)], AttackConfig(repeats=2, block_length=6)),
}


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_edge_case_runs_match_the_full_sweep(name):
    candidates, cfg = EDGE_CASES[name]
    target, reference = OffsetOracle(0.25, candidates), ZeroFillOracle()
    report = run_attack(target, reference, candidates, cfg)
    for x, score in zip(candidates, report.scores):
        assert (score.l_t, score.l_r) == _full_sweep_score(target, reference, x, cfg)
        assert np.isfinite(score.r)


def test_every_candidate_degenerate_run():
    candidates = [series(i, steps=10) for i in range(5)]
    report = run_attack(PerfectOracle(candidates), PerfectOracle(candidates), candidates,
                        AttackConfig(repeats=3, block_length=2))
    assert all(s.degenerate and s.l_t == s.l_r == 0.0 and s.r == 1.0 for s in report.scores)
    assert report.theta == 1.0
    assert all(report.is_member)


def test_std_rule_report_says_how_many_nonmembers_were_candidates():
    candidates = [series(i) for i in range(6)]
    outside = [series(100 + i) for i in range(3)]
    memory = candidates + outside
    target, reference = OffsetOracle(0.2, memory), OffsetOracle(0.6, memory)
    cfg = AttackConfig(repeats=2, theta_rule=StdRule(1.0))
    in_sample = run_attack(target, reference, candidates, cfg, known_nonmembers=candidates[2:] + outside)
    assert in_sample.calibration == Calibration(nonmembers=7, also_candidates=4)
    held_out = run_attack(target, reference, candidates, cfg, known_nonmembers=outside)
    assert held_out.calibration == Calibration(nonmembers=3, also_candidates=0)
    doc = report_to_dict(in_sample)
    assert doc["calibration"] == {"nonmembers": 7, "also_candidates": 4}
    assert report_from_dict(doc).calibration == in_sample.calibration
    # The other rules calibrate on no nonmembers, and a run that names some is an error.
    with pytest.raises(ValueError, match="the theta rule is top_percent"):
        run_attack(target, reference, candidates, replace(cfg, theta_rule=TopPercentRule(25.0)), known_nonmembers=candidates)
    top = run_attack(target, reference, candidates, replace(cfg, theta_rule=TopPercentRule(25.0)))
    assert top.calibration is None
    assert "calibration" not in report_to_dict(top)


@pytest.mark.parametrize("rule", [TopPercentRule(25.0), FixedTheta(1.0)], ids=["top_percent", "fixed"])
def test_run_attack_rejects_known_nonmembers_for_a_rule_that_ignores_them(rule):
    candidates, nonmembers = [series(i) for i in range(4)], [series(100 + i) for i in range(3)]
    target = CountingOracle(OffsetOracle(0.2, candidates + nonmembers))
    reference = CountingOracle(OffsetOracle(0.6, candidates + nonmembers))
    for given in (nonmembers, []):
        with pytest.raises(ValueError, match=f"known nonmembers calibrate std_rule only, but the theta rule is {rule.TAG[1]}$"):
            run_attack(target, reference, candidates, AttackConfig(repeats=2, theta_rule=rule), known_nonmembers=given)
    assert target.calls == reference.calls == 0  # rejected before any query


# Per-candidate independence: a candidate's score depends only on the candidate, the two oracles and the
# attack config; only theta depends on the whole candidate list.
INDEPENDENCE = AttackConfig(block_length=2, dim=1, repeats=4, placement="random", seed=5)


@functools.lru_cache(maxsize=1)
def tiny_audit():
    """Two fixed tiny autoencoders, six 12x2 candidates (three of them trained on) and three known nonmembers."""
    rng = np.random.default_rng(21)
    corpus = [TimeSeries(f"train-{i}", rng.normal(size=(12, 2))) for i in range(8)]
    model = ImputerConfig(hidden=6, latent=3, epochs=4, batch_size=4)
    target = train(corpus, replace(model, seed=1))
    reference = train(corpus[4:], replace(model, seed=2))
    candidates = tuple(corpus[:3]) + tuple(TimeSeries(f"cand-{i}", rng.normal(size=(12, 2))) for i in range(3))
    nonmembers = [TimeSeries(f"out-{i}", rng.normal(size=(12, 2))) for i in range(3)]
    return target, reference, candidates, nonmembers


def nonmembers_for(rule, nonmembers):
    """The known nonmembers a run with ``rule`` calibrates on: only a StdRule takes any."""
    return nonmembers if isinstance(rule, StdRule) else None


@functools.lru_cache(maxsize=2)
def scores_of_all(rule):
    target, reference, candidates, nonmembers = tiny_audit()
    report = run_attack(target, reference, list(candidates), replace(INDEPENDENCE, theta_rule=rule), nonmembers_for(rule, nonmembers))
    return {s.candidate_id: s for s in report.scores}


def score_bits(s):
    return s.candidate_id, s.l_t.hex(), s.l_r.hex(), s.r.hex(), s.degenerate


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=6), st.sampled_from([TopPercentRule(25.0), StdRule(1.0)]))
@example([5, 4, 3, 2, 1, 0], TopPercentRule(25.0))
@example([2, 2, 0], StdRule(1.0))
def test_a_candidate_scores_the_same_bits_in_any_candidate_list(picks, rule):
    # Permutations, subsets and duplicates; caches held per run (schedules, self-alignments) must not leak.
    target, reference, candidates, nonmembers = tiny_audit()
    picked = [candidates[i] for i in picks]
    report = run_attack(target, reference, picked, replace(INDEPENDENCE, theta_rule=rule), nonmembers_for(rule, nonmembers))
    assert [score_bits(s) for s in report.scores] == [score_bits(scores_of_all(rule)[x.id]) for x in picked]


class SpyingOracle:
    """Answers as ``inner`` does, and records every view it is shown."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.seen: list = []

    def impute(self, x):
        self.seen.append((x.id, x.series.values.copy(), x.missing.copy()))
        return self.inner.impute(x)


def test_each_oracle_is_shown_a_candidates_views_in_schedule_order():
    target, reference, candidates, _ = tiny_audit()
    spies = SpyingOracle(target), SpyingOracle(reference)
    run_attack(*spies, list(candidates), replace(INDEPENDENCE, theta_rule=FixedTheta(1.0)))
    starts = attack._schedule(12, INDEPENDENCE.block_length, INDEPENDENCE.repeats, INDEPENDENCE.placement, INDEPENDENCE.seed)
    assert list(starts) != sorted(starts)  # random placement: the schedule order is not the order along the series
    views = [single_unit_mask(x, start, INDEPENDENCE.block_length, INDEPENDENCE.dim) for x in candidates for start in starts]
    for spy in spies:
        assert len(spy.seen) == len(views)
        for (seen_id, values, missing), view in zip(spy.seen, views):
            assert seen_id == view.id
            assert np.array_equal(values, view.series.values)
            assert np.array_equal(missing, view.missing)
