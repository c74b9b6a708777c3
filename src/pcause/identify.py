"""Point estimation of PN and PNS when exposure never prevents the event.

If within every stratum no unit has y_x' = 1 together with y_x = 0, the
interval bounds collapse to points that are functions of observational
frequencies alone (given strongly ignorable assignment):

    PN  = sum_s (P(y'|x',s) - P(y'|s)) P(s) / P(x,y)
    PNS = sum_s (P(y|x,s) - P(y|x',s)) P(s)

Their asymptotic variances, by the delta method over n subjects with each
stratum's arms, n P(x, s) and n P(x', s) subjects, held fixed:

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
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .bounds import Interval, stratified_interval
from .errors import PositivityError
from .model import (
    ExperimentalQuantities,
    StratifiedJoint,
    StratumKey,
    _matched_pairs,
    _running_sum,
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


@contextmanager
def _finite(term: str) -> Iterator[None]:
    """Raise PositivityError where an a.var float overflows, naming the
    ``term`` that does; every other flag is ignored, whatever the caller's
    numpy settings, so no numpy warning escapes."""
    try:
        with np.errstate(all="ignore", over="raise"):
            yield
    except FloatingPointError:
        raise PositivityError(f"a.var too large for floating point ({term} "
                              "exceeds 1.8e308)") from None


def _square(a: np.ndarray) -> np.ndarray:
    # Python's float ** 2, as the scalar formulas took it: float_power's
    # float64 loop calls the C library's pow, as float ** does.  A multiply
    # differs from glibc 2.36's pow on about 830 of 10^6 uniform floats, and
    # np.power with an array exponent (SVML, numpy 2.4) on about 54,000.
    # pow flags overflow only where a finite float squares to inf, where
    # float ** raises.
    with _finite("a squared term"):
        return np.float_power(a, 2.0)


def _no_prevention(quantity: str, cells: np.ndarray, weights: np.ndarray,
                   n: int | None, keys: Sequence[StratumKey],
                   ) -> tuple[np.ndarray, np.ndarray | None]:
    """PN or PNS and its a.var at sample size ``n`` (None without one) for
    R stratified tables at once.

    ``cells`` is (R, K, 4): each stratum's P(x, y | s) in slot order, with
    the strata ordered as in a :class:`StratifiedJoint`; ``weights`` is
    (R, K) and ``keys`` names the K strata in errors.  Every float is what
    the same formula gives one stratum at a time in Python, except that an
    a.var float that overflows raises PositivityError.
    """
    exposed_event, exposed_noevent, unexposed_event, unexposed_noevent = \
        cells.transpose(2, 0, 1)
    p_exposed = exposed_event + exposed_noevent
    p_unexposed = unexposed_event + unexposed_noevent
    p_x = p_exposed * weights
    p_xp = p_unexposed * weights
    empty = (p_x <= 0.0) | (p_xp <= 0.0)
    if empty.any():
        key = keys[int(empty.any(axis=0).argmax())]
        raise PositivityError(
            f"stratum {key}: both exposure arms need positive probability")
    risk_x = exposed_event / p_exposed
    risk_xp = unexposed_event / p_unexposed
    spread_xp = risk_xp * (1.0 - risk_xp) / p_xp

    if quantity == "PN":
        denom = _running_sum(exposed_event * weights)
        if (denom <= 0.0).any():
            raise PositivityError("PN undefined: no exposed cases overall")
        value = _running_sum(((1.0 - risk_xp)
                              - (exposed_noevent + unexposed_noevent))
                             * weights) / denom
    else:
        value = _running_sum((risk_x - risk_xp) * weights)
    if n is None:
        return value, None
    with _finite("a term"):
        if quantity == "PN":
            terms = ((_square(1.0 - value)[:, None] * risk_x * (1.0 - risk_x)
                      / p_x + spread_xp) * _square(p_x / denom[:, None]))
        else:
            terms = ((risk_x * (1.0 - risk_x) / p_x + spread_xp)
                     * _square(weights))
        return value, _running_sum(terms) / n


def _point(quantity: str, joint: StratifiedJoint) -> Estimate:
    value, avar = _no_prevention(quantity, joint.cells[None],
                                 joint.weights[None], joint.total_n,
                                 joint._coded)
    value = value.item()
    warnings = () if 0.0 <= value <= 1.0 else (OUTSIDE_UNIT_WARNING,)
    return Estimate(value=value, avar=None if avar is None else avar.item(),
                    n=joint.total_n, quantity=quantity,
                    covariates=joint.covariates, warnings=warnings)


def pn_point(joint: StratifiedJoint) -> Estimate:
    """Plug-in PN under the no-prevention assumption, with its a.var at the
    joint's ``total_n`` (None when the joint records no sample size)."""
    return _point("PN", joint)


def pns_point(joint: StratifiedJoint) -> Estimate:
    """Plug-in PNS under the no-prevention assumption, with its a.var at the
    joint's ``total_n`` (None when the joint records no sample size)."""
    return _point("PNS", joint)


@dataclass(frozen=True)
class MonotonicityReport:
    """Evidence for or against the no-prevention assumption.

    ``risk_differences`` holds P(y_x|s) - P(y_x'|s) per stratum from the
    experimental pairs; strata where it is negative are ``flagged``.  Both
    are built when first read from the joint's strata, the differences in
    key order (``_rds``) and the rows of the flagged strata (``_flagged``).
    The point estimates are also checked against the stratified interval
    bounds, which hold without any monotonicity assumption.
    """

    pn: Estimate
    pns: Estimate
    pn_interval: Interval
    pns_interval: Interval
    pn_consistent: bool
    pns_consistent: bool
    _strata: Sequence[StratumKey] = field(repr=False)
    _rds: tuple[float, ...] = field(repr=False)
    _flagged: tuple[int, ...] = field(repr=False)

    @cached_property
    def risk_differences(self) -> tuple[tuple[StratumKey, float], ...]:
        return tuple(zip(self._strata, self._rds))

    @cached_property
    def flagged(self) -> tuple[StratumKey, ...]:
        return tuple(map(self._strata.__getitem__, self._flagged))

    @property
    def plausible(self) -> bool:
        return not self._flagged and self.pn_consistent and self.pns_consistent


def monotonicity_diagnostic(joint: StratifiedJoint,
                            experimental: ExperimentalQuantities,
                            ) -> MonotonicityReport:
    pairs = _matched_pairs(joint, experimental)
    rds = pairs[:, 0] - pairs[:, 1]

    pn = pn_point(joint)
    pns = pns_point(joint)
    pn_iv = stratified_interval("PN", joint, experimental)
    pns_iv = stratified_interval("PNS", joint, experimental)
    return MonotonicityReport(
        pn, pns, pn_iv, pns_iv, pn_iv.contains(pn.value),
        pns_iv.contains(pns.value), joint._coded, tuple(rds.tolist()),
        tuple(np.flatnonzero(rds < -_RD_TOL).tolist()))
