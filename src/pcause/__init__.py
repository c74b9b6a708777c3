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
    pn_interval_conditional,
    pns_interval_conditional,
    ps_interval_conditional,
    stratified_interval,
    tian_pearl_interval,
)
from .covselect import CIRelation, ci_check, compare_covariate_sets
from .errors import (
    DegenerateScenarioError,
    IncompatibilityError,
    MissingSampleSizeError,
    ParseError,
    PcauseError,
    PositivityError,
    ValidationError,
)
from .identify import pn_point
from .model import (
    ExperimentalQuantities,
    StratifiedJoint,
    StratumKey,
    StratumTable,
    adjusted_experimental,
    load_counts,
    to_probabilities,
)
from .oracle import feasible_extrema, verify_bounds

__all__ = [
    "CIRelation",
    "DegenerateScenarioError",
    "ExperimentalQuantities",
    "IncompatibilityError",
    "MissingSampleSizeError",
    "ParseError",
    "PcauseError",
    "PositivityError",
    "StratifiedJoint",
    "StratumKey",
    "StratumTable",
    "ValidationError",
    "adjusted_experimental",
    "ci_check",
    "compare_covariate_sets",
    "feasible_extrema",
    "load_counts",
    "pn_interval_conditional",
    "pn_point",
    "pns_interval_conditional",
    "ps_interval_conditional",
    "stratified_interval",
    "tian_pearl_interval",
    "to_probabilities",
    "verify_bounds",
]
