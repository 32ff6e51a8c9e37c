"""Sample-based variational total correlation estimation.

Total correlation of multiple variables is decomposed into a sum of mutual
information terms along a tree-like or line-like path; each term is estimated
with one of four trainable variational bounds (MINE, NWJ, InfoNCE lower
bounds; CLUB upper bound). A Gaussian simulation harness provides exact
ground truth and reproduces step-function tracking experiments.
"""

from .errors import (
    ConfigError,
    ParameterError,
    TotalCorrError,
    TraceParseError,
    TrainingError,
)
from .gaussian import (
    GaussianModel,
    IndexSet,
    club_closed_form,
    equicorrelated_sigma,
    gaussian_model,
    mc_tc_oracle,
    mi_closed_form,
    random_correlation,
    sample,
    solve_rho_for_tc,
    tc_closed_form,
)
from .nn import AdamState, Mlp, adam_step
from .estimators import (
    MiEstimatorKind,
    MiTermEstimator,
    club_bound,
    create_term_estimator,
    infonce_bound,
    mine_bound,
    nwj_bound,
    train_step,
)
from .decomposition import (
    DecompositionPlan,
    MiTerm,
    PathKind,
    TcEstimator,
    build_plan,
    closed_form_plan_sum,
    make_tc_estimator,
    tc_evaluate,
    tc_train_step,
)
from .harness import (
    ExperimentConfig,
    MetricsRow,
    RunResult,
    TrainingTrace,
    evaluate_metrics,
    load_metrics,
    load_trace,
    persist_metrics,
    persist_trace,
    run_experiment,
    smooth,
)
from .svgplot import render_traces, write_svg

__all__ = [
    "ConfigError",
    "ParameterError",
    "TotalCorrError",
    "TraceParseError",
    "TrainingError",
    "GaussianModel",
    "IndexSet",
    "club_closed_form",
    "equicorrelated_sigma",
    "gaussian_model",
    "mc_tc_oracle",
    "mi_closed_form",
    "random_correlation",
    "sample",
    "solve_rho_for_tc",
    "tc_closed_form",
    "AdamState",
    "Mlp",
    "adam_step",
    "MiEstimatorKind",
    "MiTermEstimator",
    "club_bound",
    "create_term_estimator",
    "infonce_bound",
    "mine_bound",
    "nwj_bound",
    "train_step",
    "DecompositionPlan",
    "MiTerm",
    "PathKind",
    "TcEstimator",
    "build_plan",
    "closed_form_plan_sum",
    "make_tc_estimator",
    "tc_evaluate",
    "tc_train_step",
    "ExperimentConfig",
    "MetricsRow",
    "RunResult",
    "TrainingTrace",
    "evaluate_metrics",
    "load_metrics",
    "load_trace",
    "persist_metrics",
    "persist_trace",
    "run_experiment",
    "smooth",
    "render_traces",
    "write_svg",
]
