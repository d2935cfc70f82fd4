"""contagionfit: fit, compare and simulate models of behavioural spread on
weighted directed social networks.

The package infers *how* a behaviour spreads from nothing more than the
order in which individuals acquired it: candidate transmission rules (linear
in informed connections, proportional, conformity-weighted, threshold-like,
or none at all) are fitted by maximum likelihood, compared with
small-sample-corrected AIC, and wrapped with profile-likelihood confidence
intervals that can be bootstrap-calibrated.  A forward simulator and a
Monte-Carlo experiment harness (power / coverage tables) round it out.
"""

__version__ = "0.1.0"

from .network import (
    GeneratorConfig,
    Network,
    NetworkFormatError,
    generate_network,
    load_network_csv,
    total_connection,
    validate,
    write_network_csv,
)
from .rules import (
    BUILTIN_RULE_NAMES,
    DEFAULT_SHARPNESS,
    TransmissionRule,
    asocial_rule,
    custom_rule,
    eval_rate,
    frequency_dependent_rule,
    proportional_rule,
    rate_frequency_dependent,
    rate_proportional,
    rate_simple,
    rate_threshold,
    rule_from_name,
    simple_rule,
    threshold_rule,
)
from .oada import (
    DiffusionData,
    EventTable,
    aicc,
    asocial_nll,
    build_event_table,
    load_order_file,
    negative_log_likelihood,
    parse_order_text,
    write_order_file,
)
from .fit import (
    ComparisonRow,
    FitConfig,
    FitResult,
    compare_models,
    fit_oada,
    hessian_standard_errors,
    minimize_multistart,
)
from .profile_ci import (
    DEFAULT_CUTOFF,
    ProfileCI,
    ProfileConfig,
    profile_ci,
    profile_interval,
    profile_nll,
)
from .simulate import SimulationTrace, simulate_diffusion, write_trace_csv
from .experiments import (
    CalibrationError,
    CalibrationResult,
    CoverageResult,
    CoverageRow,
    ExperimentConfig,
    SelectionResult,
    SelectionRow,
    calibrate_ci,
    expand_grid,
    run_coverage_experiment,
    run_manifest,
    run_selection_experiment,
    write_coverage_csv,
    write_selection_csv,
)

__all__ = [
    "__version__",
    # network
    "Network", "GeneratorConfig", "NetworkFormatError", "generate_network",
    "load_network_csv", "write_network_csv", "total_connection", "validate",
    # rules
    "TransmissionRule", "BUILTIN_RULE_NAMES", "DEFAULT_SHARPNESS",
    "asocial_rule", "simple_rule", "proportional_rule",
    "frequency_dependent_rule", "threshold_rule", "custom_rule",
    "rule_from_name", "eval_rate", "rate_simple", "rate_proportional",
    "rate_frequency_dependent", "rate_threshold",
    # oada
    "DiffusionData", "EventTable", "build_event_table",
    "negative_log_likelihood", "asocial_nll", "aicc", "parse_order_text",
    "load_order_file", "write_order_file",
    # fit
    "FitConfig", "FitResult", "fit_oada", "compare_models", "ComparisonRow",
    "hessian_standard_errors", "minimize_multistart",
    # profile CI
    "ProfileCI", "ProfileConfig", "profile_ci", "profile_nll",
    "profile_interval", "DEFAULT_CUTOFF",
    # simulate
    "SimulationTrace", "simulate_diffusion", "write_trace_csv",
    # experiments
    "ExperimentConfig", "SelectionRow", "SelectionResult", "CoverageRow",
    "CoverageResult", "CalibrationResult", "CalibrationError", "expand_grid",
    "run_selection_experiment", "run_coverage_experiment", "calibrate_ci",
    "write_selection_csv", "write_coverage_csv", "run_manifest",
]
