"""Membership-inference privacy audit for time-series imputation models.

Given query access to a target imputer and a skill-matched reference imputer,
the toolkit masks small pieces of candidate series, compares the two models'
completions by dynamic-time-warping loss, and flags candidates whose
target/reference loss ratio is suspiciously low as memorized training data.
"""

from .attack import (
    AttackConfig,
    AttackReport,
    Calibration,
    FixedTheta,
    MembershipScore,
    StdRule,
    TopPercentRule,
    classify,
    lbrm_score,
    run_attack,
)
from .core import (
    DegenerateMaskError,
    ImputationOracle,
    MaskedSeries,
    NormParams,
    OracleError,
    TimeSeries,
    apply_mask,
    random_missing_mask,
    single_unit_mask,
    zscore_denormalize,
    zscore_normalize,
)
from .data import (
    ScenarioSplit,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    save_csv,
    split_scenario1,
    split_scenario2,
)
from .dtw import dtw_distance
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    ParityError,
    run_experiment,
    run_scenario1,
    run_scenario2,
    write_experiment_outputs,
)
from .metrics import (
    LabeledScores,
    RocCurve,
    auroc,
    headline_summary,
    roc_curve,
    tpr_at_fpr,
    tpr_at_top_percent,
)
from .models import (
    DivergenceError,
    ImputerConfig,
    ParityReport,
    TrainedImputer,
    evaluate_mae,
    fine_tune,
    load_model,
    parity_check,
    save_model,
    train,
)

__version__ = "0.1.0"
