"""Loss-ratio membership scoring against a reference model.

A candidate is scored by hiding small blocks of it, asking both the target
and a skill-matched reference model to fill them back in, and comparing the
warping-distance losses of the two completions against the withheld original.
Memorized candidates show an unusually small target/reference loss ratio.
The naive baseline is the target loss ``l_t`` of the same score record.

Classification rule: member iff ratio <= theta (low ratio = target beats a
fair benchmark on this exact series = memorization).
"""
from __future__ import annotations

import numpy as np

from dataclasses import dataclass, field
from typing import Union

from .core import ImputationOracle, MaskSpec, TimeSeries, _query, single_unit_mask
from .dtw import dtw_distance

__all__ = [
    "StdRule",
    "TopPercentRule",
    "FixedTheta",
    "ThetaRule",
    "AttackConfig",
    "MembershipScore",
    "Verdict",
    "AttackReport",
    "mask_schedule",
    "loss_ratio",
    "lbrm_score",
    "calibrate_theta_std",
    "calibrate_theta_topk",
    "classify",
    "run_attack",
    "report_to_dict",
    "report_from_dict",
    "theta_rule_to_dict",
    "theta_rule_from_dict",
]


@dataclass(frozen=True)
class StdRule:
    """theta = mean + n * population std of known-nonmember ratios."""

    n: float = 1.0


@dataclass(frozen=True)
class TopPercentRule:
    """theta set so the ``percent``% lowest ratios are flagged (ties included)."""

    percent: float = 25.0

    def __post_init__(self) -> None:
        if not 0.0 < self.percent <= 100.0:
            raise ValueError(f"percent must be in (0, 100], got {self.percent}")


@dataclass(frozen=True)
class FixedTheta:
    theta: float = 1.0


ThetaRule = Union[StdRule, TopPercentRule, FixedTheta]


@dataclass(frozen=True)
class AttackConfig:
    block_length: int = 1
    dim: int = 0
    repeats: int = 4
    placement: str = "even"  # "even" | "random"
    seed: int = 0
    epsilon: float = 1e-12
    theta_rule: ThetaRule = field(default_factory=lambda: TopPercentRule(25.0))

    def __post_init__(self) -> None:
        if self.block_length < 1:
            raise ValueError("block_length must be >= 1")
        if self.dim < 0:
            raise ValueError("dim must be >= 0")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.placement not in ("even", "random"):
            raise ValueError(f"placement must be 'even' or 'random', got {self.placement!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class MembershipScore:
    """Per-candidate loss record: target loss, reference loss, and their ratio."""

    candidate_id: str
    l_t: float
    l_r: float
    r: float
    degenerate: bool = False


@dataclass(frozen=True)
class Verdict:
    candidate_id: str
    is_member: bool
    score: MembershipScore


@dataclass(frozen=True, eq=False)
class AttackReport:
    theta: float
    theta_rule: ThetaRule
    scores: tuple[MembershipScore, ...]
    verdicts: tuple[Verdict, ...]


def mask_schedule(n_steps: int, block_length: int, repeats: int, placement: str = "even", seed: int = 0) -> list[int]:
    """Block start positions used to score one candidate.

    "even" spreads the starts over the interior of the series (deterministic,
    seed unused); "random" draws them from the seed. One schedule is shared by
    every candidate of a run and by both attack variants.
    """
    if block_length >= n_steps:
        raise ValueError(f"block length {block_length} >= series length {n_steps}")
    span = n_steps - block_length
    if placement == "even":
        points = np.linspace(0.0, span, repeats + 2)[1:-1]
        return [int(round(p)) for p in points]
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.choice(span + 1, size=repeats, replace=repeats > span + 1)]


def loss_ratio(l_t: float, l_r: float, epsilon: float = 1e-12) -> tuple[float, bool]:
    """Ratio of target to reference loss, guarded against a vanishing denominator.

    Both losses below epsilon means both models reproduce the candidate
    trivially well — no evidence either way — so the ratio pins to 1.
    """
    if l_t < epsilon and l_r < epsilon:
        return 1.0, True
    return l_t / max(l_r, epsilon), False


def lbrm_score(
    target: ImputationOracle,
    reference: ImputationOracle,
    x: TimeSeries,
    cfg: AttackConfig,
) -> MembershipScore:
    """Score one candidate: mask, query both oracles, ratio the mean warping losses."""
    l_t_vals, l_r_vals = [], []
    for start in mask_schedule(x.length, cfg.block_length, cfg.repeats, cfg.placement, cfg.seed):
        masked = single_unit_mask(x, MaskSpec(start=start, length=cfg.block_length, dim=cfg.dim))
        l_t_vals.append(dtw_distance(_query(target, masked, "target"), x))
        l_r_vals.append(dtw_distance(_query(reference, masked, "reference"), x))
    l_t = float(np.mean(l_t_vals))
    l_r = float(np.mean(l_r_vals))
    r, degenerate = loss_ratio(l_t, l_r, cfg.epsilon)
    return MembershipScore(candidate_id=x.id, l_t=l_t, l_r=l_r, r=r, degenerate=degenerate)


def calibrate_theta_std(nonmember_scores: list[float], n: float) -> float:
    """theta = mean + n * population std over scores from known nonmembers."""
    if len(nonmember_scores) < 2:
        raise ValueError(f"need at least 2 nonmember scores, got {len(nonmember_scores)}")
    arr = np.asarray(nonmember_scores, dtype=np.float64)
    return float(arr.mean() + n * arr.std())


def calibrate_theta_topk(scores: list[float], percent: float) -> float:
    """theta = k-th smallest score with k = floor(percent/100 * N), at least 1.

    Exactly the k most member-like candidates end up flagged, modulo ties at
    the boundary, which are all included.
    """
    if not 0.0 < percent <= 100.0:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    if not scores:
        raise ValueError("no scores to calibrate on")
    arr = np.asarray(scores, dtype=np.float64)
    k = max(1, int(np.floor(percent / 100.0 * arr.shape[0])))
    return float(np.partition(arr, k - 1)[k - 1])


def classify(score: MembershipScore, theta: float) -> Verdict:
    """Member iff the loss ratio is at or below theta."""
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    return Verdict(candidate_id=score.candidate_id, is_member=score.r <= theta, score=score)


def run_attack(
    target: ImputationOracle,
    reference: ImputationOracle,
    candidates: list[TimeSeries],
    cfg: AttackConfig,
    known_nonmembers: list[TimeSeries] | None = None,
) -> AttackReport:
    """Score every candidate, resolve theta per the configured rule, classify.

    StdRule calibrates on ``known_nonmembers`` (series the auditor knows were
    never trained on), reusing the score of any that is also a candidate (same
    id and values); the other rules need no side data. Output order matches
    input order and the whole run is deterministic for a fixed config.
    """
    if not candidates:
        raise ValueError("no candidates to score")
    scores = tuple(lbrm_score(target, reference, x, cfg) for x in candidates)

    rule = cfg.theta_rule
    if isinstance(rule, FixedTheta):
        theta = rule.theta
    elif isinstance(rule, TopPercentRule):
        theta = calibrate_theta_topk([s.r for s in scores], rule.percent)
    elif isinstance(rule, StdRule):
        if not known_nonmembers:
            raise ValueError("StdRule calibration requires a known-nonmember list")
        # A known nonmember that is also a candidate was scored already.
        scored = {x.id: (x, score.r) for x, score in zip(candidates, scores)}
        calibration = []
        for x in known_nonmembers:
            seen, r = scored.get(x.id, (None, 0.0))
            if seen is None or not np.array_equal(seen.values, x.values):
                r = lbrm_score(target, reference, x, cfg).r
            calibration.append(r)
        theta = calibrate_theta_std(calibration, rule.n)
    else:  # pragma: no cover
        raise TypeError(f"unknown theta rule {rule!r}")

    verdicts = tuple(classify(s, theta) for s in scores)
    return AttackReport(theta=float(theta), theta_rule=rule, scores=scores, verdicts=verdicts)


def theta_rule_to_dict(rule: ThetaRule) -> dict:
    if isinstance(rule, StdRule):
        return {"kind": "std_rule", "n": rule.n}
    if isinstance(rule, TopPercentRule):
        return {"kind": "top_percent", "percent": rule.percent}
    if isinstance(rule, FixedTheta):
        return {"kind": "fixed", "theta": rule.theta}
    raise TypeError(f"unknown theta rule {rule!r}")


def theta_rule_from_dict(doc: dict) -> ThetaRule:
    kind = doc.get("kind")
    if kind == "std_rule":
        return StdRule(n=float(doc["n"]))
    if kind == "top_percent":
        return TopPercentRule(percent=float(doc["percent"]))
    if kind == "fixed":
        return FixedTheta(theta=float(doc["theta"]))
    raise ValueError(f"unknown theta rule kind {kind!r}")


def report_to_dict(report: AttackReport) -> dict:
    """Fixed wire schema: {theta, theta_rule, per_candidate:[{id,l_t,l_r,r,is_member[,degenerate]}]}.

    ``degenerate`` is written, as true, on degenerate rows only.
    """
    return {
        "theta": report.theta,
        "theta_rule": theta_rule_to_dict(report.theta_rule),
        "per_candidate": [
            {"id": s.candidate_id, "l_t": s.l_t, "l_r": s.l_r, "r": s.r, "is_member": v.is_member}
            | ({"degenerate": True} if s.degenerate else {})
            for s, v in zip(report.scores, report.verdicts)
        ],
    }


def report_from_dict(doc: dict) -> AttackReport:
    theta = float(doc["theta"])
    rule = theta_rule_from_dict(doc["theta_rule"])
    scores = []
    verdicts = []
    for row in doc["per_candidate"]:
        score = MembershipScore(
            candidate_id=str(row["id"]),
            l_t=float(row["l_t"]),
            l_r=float(row["l_r"]),
            r=float(row["r"]),
            degenerate=bool(row.get("degenerate", False)),
        )
        scores.append(score)
        verdicts.append(Verdict(candidate_id=score.candidate_id, is_member=bool(row["is_member"]), score=score))
    return AttackReport(theta=theta, theta_rule=rule, scores=tuple(scores), verdicts=tuple(verdicts))
