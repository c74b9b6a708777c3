"""Choosing which covariates to stratify on.

With two candidate covariates s and t available, the point estimators of
:mod:`pcause.identify` stay consistent under any of {s}, {t}, {s, t} as
long as assignment is ignorable given the chosen set, but their precision
differs.  Two conditional independence premises order the asymptotic
variances:

* y independent of t given (x, s): t carries no outcome information beyond
  s, so a.var under {s} is no larger than under {s, t}.
* x independent of s given t: s carries no assignment information beyond
  t, so a.var under {s, t} is no larger than under {t}.

When both hold, stratifying by s alone is (weakly) best for PN and PNS.
Each premise can be checked exactly on a known joint distribution, or with
a likelihood-ratio (G) test against the implied counts of a finite sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingSampleSizeError, PositivityError, ValidationError
from .identify import Estimate, pn_point, pns_point
from .model import StratifiedJoint, _groups, _running_sum, collapse

OUTCOME_CI = "y-indep-t-given-xs"
EXPOSURE_CI = "x-indep-s-given-t"
MODES = ("exact-probability", "count-test")

_AVAR_SLACK = 1e-12
# Largest conditional difference the exact check accepts as independence.
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class CIRelation:
    """One of the two premises, with covariate names bound to roles."""

    kind: str
    s: str
    t: str

    def __post_init__(self) -> None:
        if self.kind not in (OUTCOME_CI, EXPOSURE_CI):
            raise ValidationError(f"unknown relation kind {self.kind!r}")
        if not self.s or not self.t or self.s == self.t:
            raise ValidationError("relation needs two distinct covariate names")


@dataclass(frozen=True)
class CIVerdict:
    relation: CIRelation
    mode: str
    holds: bool
    threshold: float
    max_deviation: float | None = None
    statistic: float | None = None
    df: int | None = None
    p_value: float | None = None


def _require_pair(joint: StratifiedJoint, s: str, t: str) -> None:
    if joint.covariates != tuple(sorted((s, t))):
        raise ValidationError(
            f"joint is stratified by {joint.covariates}, expected {s!r} and {t!r}")


def _exact_deviation(joint: StratifiedJoint, relation: CIRelation) -> float:
    exposure = relation.kind == EXPOSURE_CI
    keep = (relation.t,) if exposure else (relation.s,)
    index, _ = _groups(joint._coded, keep)
    # (K, 4, 2): each stratum's cells beside its group's
    pair = np.stack([joint.cells, collapse(joint, keep).cells[index]], axis=-1)
    # (K, 2, 2): arm mass, exposed then unexposed, of the stratum and group
    arms = pair[:, 0::2] + pair[:, 1::2]
    if exposure:
        gaps = arms[:, 0, 0] - arms[:, 0, 1]
    else:
        empty = arms <= 0.0
        if empty.any():
            stratum, arm = divmod(int(empty.argmax()) // 2, 2)
            raise PositivityError(
                f"no {('exposed', 'unexposed')[arm]} mass in stratum "
                f"{joint._coded[stratum]}")
        risks = pair[:, 0::2] / arms
        gaps = risks[..., 0] - risks[..., 1]
    return np.abs(gaps).max().item()


def _count_test(joint: StratifiedJoint, relation: CIRelation,
                n: int) -> tuple[float, int]:
    s_index, s_levels = _groups(joint._coded, (relation.s,))
    t_index, t_levels = _groups(joint._coded, (relation.t,))
    cells, weights = joint.cells, joint.weights[:, None]
    if relation.kind == EXPOSURE_CI:
        # blocks are t levels; each stratum is one row, its (exposed,
        # unexposed) counts
        rows = (cells[:, 0::2] + cells[:, 1::2]) * weights * n
        blocks = t_index
        n_blocks = len(t_levels)
        df = n_blocks * (len(s_levels) - 1) * (2 - 1)
    else:
        # blocks are (x, s) pairs; each stratum is two rows of (event,
        # no-event) counts, one for x and one for x'
        rows = (cells * weights * n).reshape(-1, 2)
        blocks = (2 * s_index[:, None] + np.arange(2)).ravel()
        n_blocks = 2 * len(s_levels)
        df = n_blocks * (2 - 1) * (len(t_levels) - 1)

    # G = 2 * sum n * ln(n * n_block / (n_row * n_col)) over positive
    # counts; every sum adds in stratum order, as a Python loop would
    row_sums = 0.0 + rows[:, 0] + rows[:, 1]
    col_sums = np.stack([np.bincount(blocks, rows[:, col], n_blocks)
                         for col in (0, 1)], axis=-1)[blocks]
    totals = np.bincount(blocks.repeat(2), rows.ravel(), n_blocks)[blocks]
    # zero counts take the log of 0 but are dropped; counts near 1e308
    # overflow to inf, and inf / inf is nan
    with np.errstate(all="ignore"):
        terms = rows * np.log(rows * totals[:, None]
                              / (row_sums[:, None] * col_sums))
        g = float(2.0 * _running_sum(np.append(0.0, terms[rows > 0.0])))
    if not math.isfinite(g):
        raise ValidationError(f"premise {relation.kind}: G statistic is {g}; "
                              "counts too large for floating point")
    return g, df


def ci_check(joint: StratifiedJoint, relation: CIRelation,
             mode: str = "exact-probability", *,
             alpha: float = 0.05) -> CIVerdict:
    """Test one premise on a joint stratified by exactly {s, t}.

    ``exact-probability`` compares the relevant conditionals cell by cell,
    within ``EXACT_TOL``; it suits a known distribution, not empirical
    frequencies.  ``count-test`` runs a G test on the counts implied by the
    joint at its ``total_n``.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}")
    _require_pair(joint, relation.s, relation.t)

    if mode == "exact-probability":
        dev = _exact_deviation(joint, relation)
        return CIVerdict(relation=relation, mode=mode, holds=dev <= EXACT_TOL,
                         threshold=EXACT_TOL, max_deviation=dev)

    if joint.total_n is None:
        raise MissingSampleSizeError("the count-test mode needs a sample size")
    statistic, df = _count_test(joint, relation, joint.total_n)
    if df == 0:
        p_value = 1.0
    else:
        # SciPy is imported here, at its only use, because importing
        # scipy.special costs more than the rest of start-up: `import pcause`
        # and every subcommand but `select` run without it.  chdtrc is the
        # chi-square survival function without scipy.stats.  The clamp keeps
        # a slightly negative G from rounding (where chi2.sf gives 1.0) out
        # of chdtrc's domain (where it gives NaN).
        from scipy.special import chdtrc

        p_value = float(chdtrc(df, max(statistic, 0.0)))
    return CIVerdict(relation=relation, mode=mode, holds=p_value >= alpha,
                     threshold=alpha, statistic=statistic, df=df,
                     p_value=p_value)


@dataclass(frozen=True)
class CandidateSummary:
    stratifier: tuple[str, ...]
    pn: Estimate
    pns: Estimate


@dataclass(frozen=True)
class OrderingVerdict:
    """One predicted a.var comparison and whether the data bear it out."""

    quantity: str
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]
    lhs_avar: float
    rhs_avar: float
    premise: CIVerdict

    @property
    def guaranteed(self) -> bool:
        return self.premise.holds

    @property
    def observed(self) -> bool:
        return self.lhs_avar <= self.rhs_avar + _AVAR_SLACK


@dataclass(frozen=True)
class SelectionReport:
    candidates: tuple[CandidateSummary, ...]
    premises: tuple[CIVerdict, CIVerdict]
    orderings: tuple[OrderingVerdict, ...]
    recommendation: tuple[str, ...] | None
    note: str


def compare_covariate_sets(joint: StratifiedJoint, s: str, t: str, *,
                           mode: str = "exact-probability",
                           alpha: float = 0.05) -> SelectionReport:
    """Estimate PN and PNS under {s}, {t} and {s, t} and compare precision.

    The a.var comparison needs the joint's ``total_n``.  A stratifier is
    recommended only when both premises hold, in which case the predicted
    orderings make the comparison trustworthy.
    """
    if s == t:
        raise ValidationError("the two candidate covariates must differ")
    _require_pair(joint, s, t)
    if joint.total_n is None:
        raise MissingSampleSizeError(
            "comparing asymptotic variances needs a sample size")

    both = tuple(sorted((s, t)))
    subs = {strat: collapse(joint, strat) for strat in ((s,), (t,), both)}
    by_strat = {strat: CandidateSummary(strat, pn_point(sub), pns_point(sub))
                for strat, sub in subs.items()}
    candidates = tuple(by_strat.values())

    outcome = ci_check(joint, CIRelation(OUTCOME_CI, s, t), mode, alpha=alpha)
    exposure = ci_check(joint, CIRelation(EXPOSURE_CI, s, t), mode,
                        alpha=alpha)

    # each predicted ordering: lhs's a.var is at most rhs's under a premise
    orderings = tuple(
        OrderingVerdict(quantity, lhs, rhs,
                        getattr(by_strat[lhs], quantity.lower()).avar,
                        getattr(by_strat[rhs], quantity.lower()).avar, premise)
        for quantity in ("PN", "PNS")
        for lhs, rhs, premise in (((s,), both, outcome),
                                  (both, (t,), exposure)))

    if outcome.holds and exposure.holds:
        best_pn = min(candidates, key=lambda c: c.pn.avar).stratifier
        best_pns = min(candidates, key=lambda c: c.pns.avar).stratifier
        if best_pn == best_pns:
            recommendation = best_pn
            note = "both premises hold; the recommended stratifier minimizes " \
                   "the asymptotic variance of PN and PNS"
        else:
            recommendation = None
            note = "both premises hold but PN and PNS favor different stratifiers"
    else:
        recommendation = None
        note = "conditional independence premises not established; " \
               "the variance orderings are not guaranteed"

    return SelectionReport(candidates=candidates,
                           premises=(outcome, exposure),
                           orderings=orderings,
                           recommendation=recommendation,
                           note=note)

