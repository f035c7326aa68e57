"""Loss-ratio membership scoring against a reference model.

A candidate is scored by hiding small blocks of it, asking both the target
and a skill-matched reference model to fill them back in, and comparing the
warping-distance losses of the two completions against the withheld original.
Memorized candidates show an unusually small target/reference loss ratio.
The naive baseline is the target loss ``l_t`` of the same score record.

Classification rule: member iff ratio <= theta (low ratio = target beats a
fair benchmark on this exact series = memorization). The configured rule's
``threshold`` gives theta: a fixed value, a percentile of the candidates'
ratios, or a mean plus n stds of known nonmembers' ratios.

``lbrm_score`` masks a candidate at the run's block starts, computed once per
run and shape as a tuple. It queries both oracles through ``core``'s checked
query as ``target`` and ``reference``, every view first, target then
reference, then makes one ``dtw_distance`` call per completion, all sharing
the candidate's ``SelfAlignment``, and averages each oracle's losses with
``np.mean``'s pairwise sum. Each threshold rule checks its field when it is
built. ``run_attack`` rejects, before any query, a known-nonmember list given
with a rule other than ``std_rule`` (naming the rule) and ``std_rule`` with
fewer than two known nonmembers. Its ``AttackReport`` holds the scores, one
``is_member`` flag per score and, for ``std_rule`` only, a ``Calibration``:
how many known nonmembers theta was calibrated on and how many of them were
also candidates.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from dataclasses import dataclass, field
from typing import ClassVar, Union

from .core import ImputationOracle, TimeSeries, _query, _read, _to_dict, single_unit_mask
from .dtw import SelfAlignment, dtw_distance

__all__ = [
    "StdRule",
    "TopPercentRule",
    "FixedTheta",
    "ThetaRule",
    "AttackConfig",
    "Calibration",
    "MembershipScore",
    "AttackReport",
    "loss_ratio",
    "lbrm_score",
    "classify",
    "run_attack",
    "report_to_dict",
    "report_from_dict",
]


@dataclass(frozen=True)
class StdRule:
    """theta = mean + n * population std of known-nonmember ratios."""

    TAG: ClassVar[tuple[str, str]] = ("kind", "std_rule")

    n: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.n):
            raise ValueError(f"n must be finite, got {self.n}")

    def threshold(self, ratios: list[float], nonmember_ratios: list[float]) -> float:
        if len(nonmember_ratios) < 2:
            raise ValueError(f"StdRule needs at least 2 known-nonmember ratios, got {len(nonmember_ratios)}")
        arr = np.asarray(nonmember_ratios, dtype=np.float64)
        return float(arr.mean() + self.n * arr.std())


@dataclass(frozen=True)
class TopPercentRule:
    """theta = the k-th smallest candidate ratio, k = floor(percent/100 * N) but at
    least 1, so the k most member-like candidates are flagged (ties at the
    boundary included)."""

    TAG: ClassVar[tuple[str, str]] = ("kind", "top_percent")

    percent: float = 25.0

    def __post_init__(self) -> None:
        if not 0.0 < self.percent <= 100.0:
            raise ValueError(f"percent must be in (0, 100], got {self.percent}")

    def threshold(self, ratios: list[float], nonmember_ratios: list[float]) -> float:
        if not ratios:
            raise ValueError("no ratios to calibrate on")
        arr = np.asarray(ratios, dtype=np.float64)
        k = max(1, int(np.floor(self.percent / 100.0 * arr.shape[0])))
        return float(np.partition(arr, k - 1)[k - 1])


@dataclass(frozen=True)
class FixedTheta:
    TAG: ClassVar[tuple[str, str]] = ("kind", "fixed")

    theta: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")

    def threshold(self, ratios: list[float], nonmember_ratios: list[float]) -> float:
        return float(self.theta)


# The wire form of a rule is its TAG plus its fields. Each rule's ``threshold``
# computes theta from the candidates' ratios or the known nonmembers' ratios.
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
        if not 0 < self.epsilon < math.inf:  # NaN fails too
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")


@dataclass(frozen=True)
class MembershipScore:
    """Per-candidate loss record: target loss, reference loss, and their ratio."""

    candidate_id: str
    l_t: float
    l_r: float
    r: float
    degenerate: bool = False


@dataclass(frozen=True)
class Calibration:
    """The known nonmembers a StdRule theta was calibrated on, and how many of
    them were also candidates. Any such one makes the calibration in-sample:
    theta was set on ratios that it then judges."""

    nonmembers: int
    also_candidates: int


@dataclass(frozen=True, eq=False)
class AttackReport:
    """Scores in candidate order; ``is_member[i]`` is the verdict on ``scores[i]``.

    ``calibration`` is set when a StdRule calibrated theta, and None otherwise.
    """

    theta: float
    theta_rule: ThetaRule
    scores: tuple[MembershipScore, ...]
    is_member: tuple[bool, ...]
    calibration: Calibration | None = None


@functools.lru_cache(maxsize=64)
def _schedule(n_steps: int, block_length: int, repeats: int, placement: str, seed: int) -> tuple[int, ...]:
    """Block start positions used to score one candidate.

    "even" spreads the starts over the interior of the series (deterministic,
    seed unused); "random" draws them from the seed. One schedule is shared by
    every candidate of a run and by both attack variants.
    """
    # Computed once per run and shape; a tuple, so no caller can change what the next one gets.
    if block_length >= n_steps:
        raise ValueError(f"block length {block_length} >= series length {n_steps}")
    span = n_steps - block_length
    if placement == "even":
        points = np.linspace(0.0, span, repeats + 2)[1:-1]
        return tuple(int(round(p)) for p in points)
    rng = np.random.default_rng(seed)
    return tuple(int(s) for s in rng.choice(span + 1, size=repeats, replace=repeats > span + 1))


def loss_ratio(l_t: float, l_r: float, epsilon: float = 1e-12) -> tuple[float, bool]:
    """Ratio of target to reference loss, guarded against a vanishing denominator.

    Both losses below epsilon means both models reproduce the candidate
    trivially well — no evidence either way — so the ratio pins to 1.
    """
    if not 0 < epsilon < math.inf:  # NaN fails too
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    if l_t < epsilon and l_r < epsilon:
        return 1.0, True
    return l_t / max(l_r, epsilon), False


def lbrm_score(
    target: ImputationOracle,
    reference: ImputationOracle,
    x: TimeSeries,
    cfg: AttackConfig,
) -> MembershipScore:
    """Score one candidate: mask, query both oracles, ratio the mean warping losses.

    Every view is queried first, target then reference, and then each
    completion is aligned with ``x`` in one ``dtw_distance`` call that shares
    ``x``'s self-alignment rows with the other completions.
    """
    completions = []
    starts = _schedule(x.length, cfg.block_length, cfg.repeats, cfg.placement, cfg.seed)
    for start in starts:
        masked = single_unit_mask(x, start, cfg.block_length, cfg.dim)
        completions += (_query(target, masked, "target"), _query(reference, masked, "reference"))
    shared = SelfAlignment(x, completions)
    losses = [dtw_distance(completion, x, shared) for completion in completions]
    # np.mean's own pairwise sum and division, without its per-call overhead.
    l_t = float(np.add.reduce(losses[0::2]) / len(starts))
    l_r = float(np.add.reduce(losses[1::2]) / len(starts))
    r, degenerate = loss_ratio(l_t, l_r, cfg.epsilon)
    return MembershipScore(candidate_id=x.id, l_t=l_t, l_r=l_r, r=r, degenerate=degenerate)


def classify(score: MembershipScore, theta: float) -> bool:
    """Member iff the loss ratio is at or below theta."""
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    return bool(score.r <= theta)


def run_attack(
    target: ImputationOracle,
    reference: ImputationOracle,
    candidates: list[TimeSeries],
    cfg: AttackConfig,
    known_nonmembers: list[TimeSeries] | None = None,
) -> AttackReport:
    """Score every candidate, take theta from the configured rule's ``threshold``, classify.

    StdRule calibrates on ``known_nonmembers`` (series the auditor knows were
    never trained on), reusing the score of any that is also a candidate (same
    id and values), and the report's ``calibration`` counts both. The other
    rules calibrate on no nonmembers, so a list given with one raises
    ValueError naming the rule, before any query, as StdRule with fewer than
    two known nonmembers does. Output order matches input
    order and the whole run is deterministic for a fixed config.
    """
    if not candidates:
        raise ValueError("no candidates to score")
    if known_nonmembers is not None and not isinstance(cfg.theta_rule, StdRule):
        raise ValueError(f"known nonmembers calibrate std_rule only, but the theta rule is {cfg.theta_rule.TAG[1]}")
    if isinstance(cfg.theta_rule, StdRule) and len(known_nonmembers or ()) < 2:
        raise ValueError(f"StdRule needs at least 2 known-nonmember ratios, got {len(known_nonmembers or ())}")
    scores = tuple(lbrm_score(target, reference, x, cfg) for x in candidates)

    nonmember_ratios, calibration = [], None
    if isinstance(cfg.theta_rule, StdRule):
        # A known nonmember that is also a candidate (same id and values) was scored already.
        scored = {x.id: (x, score.r) for x, score in zip(candidates, scores)}
        also_candidates = 0
        for x in known_nonmembers or ():
            seen, r = scored.get(x.id, (None, 0.0))
            if seen is not None and np.array_equal(seen.values, x.values):
                also_candidates += 1
            else:
                r = lbrm_score(target, reference, x, cfg).r
            nonmember_ratios.append(r)
        calibration = Calibration(len(nonmember_ratios), also_candidates)
    theta = cfg.theta_rule.threshold([s.r for s in scores], nonmember_ratios)
    return AttackReport(theta, cfg.theta_rule, scores, tuple(classify(s, theta) for s in scores), calibration)


def report_to_dict(report: AttackReport) -> dict:
    """Fixed wire schema: {theta, theta_rule[, calibration], per_candidate:[{id,l_t,l_r,r,is_member[,degenerate]}]}.

    ``degenerate`` is written, as true, on degenerate rows only, and
    ``calibration`` on StdRule reports only.
    """
    return {
        "theta": report.theta,
        "theta_rule": _to_dict(report.theta_rule),
        **({} if report.calibration is None else {"calibration": _to_dict(report.calibration)}),
        "per_candidate": [
            {"id": s.candidate_id, "l_t": s.l_t, "l_r": s.l_r, "r": s.r, "is_member": member}
            | ({"degenerate": True} if s.degenerate else {})
            for s, member in zip(report.scores, report.is_member)
        ],
    }


# The wire schema of ``report_to_dict``, as ``report_from_dict`` reads it.
@dataclass(frozen=True)
class _ScoreRow:
    id: str
    l_t: float
    l_r: float
    r: float
    is_member: bool
    degenerate: bool = False


@dataclass(frozen=True)
class _Scores:
    theta: float
    theta_rule: ThetaRule
    per_candidate: tuple[_ScoreRow, ...]
    calibration: Calibration | None = None


def report_from_dict(doc: dict) -> AttackReport:
    read = _read(_Scores, doc, "the scores document")
    rows = read.per_candidate
    scores = tuple(MembershipScore(row.id, row.l_t, row.l_r, row.r, row.degenerate) for row in rows)
    return AttackReport(read.theta, read.theta_rule, scores, tuple(row.is_member for row in rows), read.calibration)
