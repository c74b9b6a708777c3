"""Independent verification of the closed-form bounds.

Within one stratum, classify units by their pair of potential outcomes:

    always    y under either exposure      (y_x = 1, y_x' = 1)
    helped    y only if exposed            (y_x = 1, y_x' = 0)
    hurt      y only if unexposed          (y_x = 0, y_x' = 1)
    never     y under neither              (y_x = 0, y_x' = 0)

Any underlying mechanism is a pair of distributions over these four types,
one per exposure arm.  Matching the stratum's observable cells and its
interventional pair fixes, for the exposed arm,

    q_always + q_helped = P(y | x, s)
    q_always + q_hurt   = (P(y_x' | s) - P(x', y | s)) / P(x | s)

and the mirror-image equations for the unexposed arm, leaving exactly one
free parameter per arm (the always-mass).  PN, PS and PNS, evaluated
directly from the type masses, are linear in each arm's free parameter, so
their extremes over all matching distributions sit at the two ends of its
feasible interval; evaluating both ends of both arms is exact.

This search shares no formulas with :mod:`pcause.bounds`, which is the
point: :func:`verify_bounds` compares the two routes per stratum and
quantity, and reports any discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import bounds
from .errors import IncompatibilityError, PositivityError, ValidationError
from .model import (
    COMPAT_TOL,
    ExperimentalQuantities,
    StratifiedJoint,
    StratumKey,
    StratumTable,
    compatible_pair,
)

_MASS_TOL = 1e-9


def _clip01(v: float) -> float:
    return min(1.0, max(0.0, v))


def _arm_parameters(table: StratumTable, pair: tuple[float, float],
                    ) -> tuple[float, float, float, float, float, float]:
    """(alpha, beta, gamma, delta, p_x, p_x') for the two matching systems.

    alpha and delta are the observational risks; beta and gamma are the
    cross-arm interventional conditionals P(y_x' | x, s) and P(y_x | x', s)
    recovered from the stratum pair.  Pairs that the bounds' screen
    (:func:`pcause.model.compatible_pair`) rejects raise IncompatibilityError;
    beta and gamma are then clipped into [0, 1] here, not by the screen.
    """
    compatible_pair(table, pair, "response-type search")
    p_x, p_xp = table.p_exposed, table.p_unexposed
    if p_x <= 0.0 or p_xp <= 0.0:
        raise PositivityError("both exposure arms need positive probability")
    alpha = table.risk_exposed
    delta = table.risk_unexposed
    beta = _clip01((pair[1] - table.p_unexposed_event) / p_x)
    gamma = _clip01((pair[0] - table.p_exposed_event) / p_xp)
    return alpha, beta, gamma, delta, p_x, p_xp


def _arm_masses(fixed_y: float, fixed_cross: float,
                free: float) -> tuple[float, float, float, float]:
    """Type masses (always, helped, hurt, never) at one value of the
    always-mass, given the two matching constraints of one arm."""
    always = free
    helped = fixed_y - free
    hurt = fixed_cross - free
    never = 1.0 - fixed_y - fixed_cross + free
    if min(always, helped, hurt, never) < -_MASS_TOL:
        raise RuntimeError(
            "response-type mass went negative; feasibility screening is broken")
    return always, helped, hurt, never


def feasible_extrema(table: StratumTable, pair: tuple[float, float],
                     quantity: str, *,
                     no_prevention: bool = False) -> bounds.Interval:
    """Extremes of one quantity over all matching type distributions.

    With ``no_prevention`` the hurt mass is pinned to zero in both arms,
    which leaves a single distribution (or fails when none without
    prevention fits the inputs).
    """
    if quantity not in bounds.QUANTITIES:
        raise ValidationError(f"unknown quantity {quantity!r}")
    alpha, beta, gamma, delta, p_x, p_xp = _arm_parameters(table, pair)

    a_hi = min(alpha, beta)
    a_lo = min(max(0.0, alpha + beta - 1.0), a_hi)
    b_hi = min(gamma, delta)
    b_lo = min(max(0.0, gamma + delta - 1.0), b_hi)

    if no_prevention:
        # zero hurt mass forces the always-mass to the cross-arm constraint
        if beta > alpha + COMPAT_TOL or delta > gamma + COMPAT_TOL:
            raise IncompatibilityError(
                "no distribution without prevention matches the inputs")
        a_pts = (min(beta, a_hi),)
        b_pts = (min(delta, b_hi),)
    else:
        a_pts = (a_lo, a_hi)
        b_pts = (b_lo, b_hi)

    masses_x = [_arm_masses(alpha, beta, a) for a in a_pts]
    masses_xp = [_arm_masses(gamma, delta, b) for b in b_pts]

    if quantity == "PN":
        if table.p_exposed_event <= 0.0:
            raise PositivityError("PN undefined: no exposed cases in stratum")
        values = [helped / alpha for _, helped, _, _ in masses_x]
        lower, upper = min(values), max(values)
    elif quantity == "PS":
        if table.p_unexposed_noevent <= 0.0:
            raise PositivityError("PS undefined: no unexposed non-cases in stratum")
        ends = [(helped, helped + never) for _, helped, _, never in masses_xp]
        if min(mass for _, mass in ends) <= 0.0:
            # helped + never = P(y'|x') is below the resolution of an
            # always-mass near 1: take it from the cell, and let its helped
            # part range over what the matching equations allow
            mass = table.p_unexposed_noevent / p_xp
            hi = min(gamma, mass)
            ends = [(min(max(0.0, gamma - (1.0 - mass)), hi), mass), (hi, mass)]
        values = [helped / mass for helped, mass in ends]
        lower, upper = min(values), max(values)
    else:
        # separable in the two free parameters, so the minimum of the sum
        # is the sum of the per-arm minima (and likewise the maximum)
        contrib_x = [p_x * helped for _, helped, _, _ in masses_x]
        contrib_xp = [p_xp * helped for _, helped, _, _ in masses_xp]
        lower = min(contrib_x) + min(contrib_xp)
        upper = max(contrib_x) + max(contrib_xp)
    return bounds.Interval(lower=lower, upper=upper, quantity=quantity,
                           method="oracle")


@dataclass(frozen=True)
class VerificationEntry:
    stratum: StratumKey
    quantity: str
    closed: bounds.Interval
    searched: bounds.Interval
    discrepancy: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "discrepancy", max(
            abs(self.closed.lower - self.searched.lower),
            abs(self.closed.upper - self.searched.upper)))


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple[VerificationEntry, ...]
    tol: float

    @property
    def max_discrepancy(self) -> float:
        return max(e.discrepancy for e in self.entries)

    @cached_property
    def failures(self) -> tuple[VerificationEntry, ...]:
        return tuple(e for e in self.entries if e.discrepancy > self.tol)

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_bounds(joint: StratifiedJoint,
                  experimental: ExperimentalQuantities, *,
                  tol: float = 2e-3) -> VerificationReport:
    """Compare every conditional box against the type-distribution search."""
    entries = []
    for key, table in joint.items():
        pair = experimental.pair(key)
        for quantity, conditional in (("PN", bounds.pn_interval_conditional),
                                      ("PS", bounds.ps_interval_conditional),
                                      ("PNS", bounds.pns_interval_conditional)):
            closed = conditional(table, pair, key=key)
            searched = feasible_extrema(table, pair, quantity)
            entries.append(VerificationEntry(stratum=key, quantity=quantity,
                                             closed=closed, searched=searched))
    return VerificationReport(entries=tuple(entries), tol=tol)
