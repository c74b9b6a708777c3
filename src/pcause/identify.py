"""Point estimation of PN and PNS when exposure never prevents the event.

If within every stratum no unit has y_x' = 1 together with y_x = 0, the
interval bounds collapse to points that are functions of observational
frequencies alone (given strongly ignorable assignment):

    PN  = sum_s (P(y'|x',s) - P(y'|s)) P(s) / P(x,y)
    PNS = sum_s (P(y|x,s) - P(y|x',s)) P(s)

Their asymptotic variances, by the delta method over multinomial sampling
of n subjects:

    a.var(PN)  = sum_s [ (1 - PN)^2 P(y|x,s) P(y'|x,s) / (n P(x,s))
                         + P(y|x',s) P(y'|x',s) / (n P(x',s)) ]
                 * (P(x,s) / P(x,y))^2

    a.var(PNS) = sum_s [ P(y|x,s) P(y'|x,s) / (n P(x,s))
                         + P(y|x',s) P(y'|x',s) / (n P(x',s)) ] * P(s)^2

A plug-in estimate escaping [0, 1] is the telltale sign that the
no-prevention assumption fails; the estimators report it as a warning
rather than clamping, and :func:`monotonicity_diagnostic` collects the
evidence systematically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import Interval, stratified_interval
from .errors import PositivityError
from .model import (
    ExperimentalQuantities,
    StratifiedJoint,
    StratumKey,
)

_RD_TOL = 1e-12

OUTSIDE_UNIT_WARNING = (
    "estimate falls outside [0, 1]; the assumption that exposure never "
    "prevents the event looks violated")


@dataclass(frozen=True)
class Estimate:
    """A point estimate with an optional asymptotic variance."""

    value: float
    avar: float | None
    n: int | None
    quantity: str
    covariates: tuple[str, ...]
    warnings: tuple[str, ...] = ()

    @property
    def se(self) -> float | None:
        if self.avar is None:
            return None
        return math.sqrt(self.avar)


def _arm_masses(key: StratumKey, t) -> tuple[float, float]:
    p_x = t.p_exposed * t.weight
    p_xp = t.p_unexposed * t.weight
    if p_x <= 0.0 or p_xp <= 0.0:
        raise PositivityError(
            f"stratum {key}: both exposure arms need positive probability")
    return p_x, p_xp


def pn_point(joint: StratifiedJoint) -> Estimate:
    """Plug-in PN under the no-prevention assumption, with its a.var at the
    joint's ``total_n`` (None when the joint records no sample size)."""
    denom = 0.0
    numer = 0.0
    for key, t in joint.items():
        _arm_masses(key, t)
        denom += t.p_exposed_event * t.weight
        numer += ((1.0 - t.risk_unexposed) - t.p_noevent) * t.weight
    if denom <= 0.0:
        raise PositivityError("PN undefined: no exposed cases overall")
    value = numer / denom

    n = joint.total_n
    avar = None
    if n is not None:
        base = 0.0
        for key, t in joint.items():
            p_x, p_xp = _arm_masses(key, t)
            rx, rxp = t.risk_exposed, t.risk_unexposed
            base += ((1.0 - value) ** 2 * rx * (1.0 - rx) / p_x
                     + rxp * (1.0 - rxp) / p_xp) * (p_x / denom) ** 2
        avar = base / n

    warnings = () if 0.0 <= value <= 1.0 else (OUTSIDE_UNIT_WARNING,)
    return Estimate(value=value, avar=avar, n=n, quantity="PN",
                    covariates=joint.covariates, warnings=warnings)


def pns_point(joint: StratifiedJoint) -> Estimate:
    """Plug-in PNS under the no-prevention assumption, with its a.var at the
    joint's ``total_n`` (None when the joint records no sample size)."""
    value = 0.0
    for key, t in joint.items():
        _arm_masses(key, t)
        value += (t.risk_exposed - t.risk_unexposed) * t.weight

    n = joint.total_n
    avar = None
    if n is not None:
        base = 0.0
        for key, t in joint.items():
            p_x, p_xp = _arm_masses(key, t)
            rx, rxp = t.risk_exposed, t.risk_unexposed
            base += (rx * (1.0 - rx) / p_x
                     + rxp * (1.0 - rxp) / p_xp) * t.weight ** 2
        avar = base / n

    warnings = () if 0.0 <= value <= 1.0 else (OUTSIDE_UNIT_WARNING,)
    return Estimate(value=value, avar=avar, n=n, quantity="PNS",
                    covariates=joint.covariates, warnings=warnings)


@dataclass(frozen=True)
class MonotonicityReport:
    """Evidence for or against the no-prevention assumption.

    ``risk_differences`` holds P(y_x|s) - P(y_x'|s) per stratum from the
    experimental pairs; strata where it is negative are ``flagged``.  The
    point estimates are also checked against the stratified interval
    bounds, which hold without any monotonicity assumption.
    """

    risk_differences: tuple[tuple[StratumKey, float], ...]
    flagged: tuple[StratumKey, ...]
    pn: Estimate
    pns: Estimate
    pn_interval: Interval
    pns_interval: Interval
    pn_consistent: bool
    pns_consistent: bool

    @property
    def plausible(self) -> bool:
        return not self.flagged and self.pn_consistent and self.pns_consistent


def monotonicity_diagnostic(joint: StratifiedJoint,
                            experimental: ExperimentalQuantities,
                            ) -> MonotonicityReport:
    rds = []
    flagged = []
    for key in joint.keys():
        do_x, do_xp = experimental.pair(key)
        rd = do_x - do_xp
        rds.append((key, rd))
        if rd < -_RD_TOL:
            flagged.append(key)

    pn = pn_point(joint)
    pns = pns_point(joint)
    pn_iv = stratified_interval("PN", joint, experimental)
    pns_iv = stratified_interval("PNS", joint, experimental)
    return MonotonicityReport(
        risk_differences=tuple(rds),
        flagged=tuple(flagged),
        pn=pn,
        pns=pns,
        pn_interval=pn_iv,
        pns_interval=pns_iv,
        pn_consistent=pn_iv.contains(pn.value),
        pns_consistent=pns_iv.contains(pns.value),
    )
