"""Bounds and point estimates for probabilities of causation.

Given stratified 2x2 contingency data for a binary exposure and outcome,
plus interventional outcome probabilities (measured, or derived from the
observational risks when assignment is ignorable), this package computes

* sharp interval bounds on the probabilities of necessity (PN),
  sufficiency (PS) and their conjunction (PNS), per stratum, covariate
  adjusted, and pooled;
* point estimates with asymptotic variances when exposure never prevents
  the event, plus diagnostics for that assumption;
* variance-based comparisons of candidate covariate sets backed by two
  conditional independence premises;
* sampling experiments that confront the variance formulas with
  replication spread;
* an independent verification of every closed-form box by direct search
  over response-type distributions.
"""

__version__ = "0.1.0"

from .bounds import (
    Interval,
    TermChoice,
    pn_interval_conditional,
    pns_interval_conditional,
    ps_interval_conditional,
    stratified_interval,
    tian_pearl_interval,
)
from .covselect import (
    CIRelation,
    CIVerdict,
    SelectionReport,
    ci_check,
    compare_covariate_sets,
)
from .errors import (
    DegenerateScenarioError,
    IncompatibilityError,
    MissingSampleSizeError,
    ParseError,
    PcauseError,
    PositivityError,
    ValidationError,
)
from .identify import (
    Estimate,
    MonotonicityReport,
    monotonicity_diagnostic,
    pn_point,
    pns_point,
)
from .model import (
    CountTable,
    ExperimentalQuantities,
    StratifiedJoint,
    StratumKey,
    StratumTable,
    adjusted_experimental,
    collapse,
    load_counts,
    load_experimental,
    render_counts,
    to_probabilities,
    validate_compatibility,
)
from .oracle import (
    VerificationReport,
    feasible_extrema,
    verify_bounds,
)
from .simulate import (
    ReplicationResult,
    ReplicationStudy,
    Scenario,
    builtin_scenarios,
    load_scenario,
    replicate_study,
)

__all__ = [
    "__version__",
    "CIRelation",
    "CIVerdict",
    "CountTable",
    "DegenerateScenarioError",
    "Estimate",
    "ExperimentalQuantities",
    "IncompatibilityError",
    "Interval",
    "MissingSampleSizeError",
    "MonotonicityReport",
    "ParseError",
    "PcauseError",
    "PositivityError",
    "ReplicationResult",
    "ReplicationStudy",
    "Scenario",
    "SelectionReport",
    "StratifiedJoint",
    "StratumKey",
    "StratumTable",
    "TermChoice",
    "ValidationError",
    "VerificationReport",
    "adjusted_experimental",
    "builtin_scenarios",
    "ci_check",
    "collapse",
    "compare_covariate_sets",
    "feasible_extrema",
    "load_counts",
    "load_experimental",
    "load_scenario",
    "monotonicity_diagnostic",
    "pn_interval_conditional",
    "pn_point",
    "pns_interval_conditional",
    "pns_point",
    "ps_interval_conditional",
    "render_counts",
    "replicate_study",
    "stratified_interval",
    "tian_pearl_interval",
    "to_probabilities",
    "validate_compatibility",
    "verify_bounds",
]
