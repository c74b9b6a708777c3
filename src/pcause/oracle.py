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
quantity, and reports any discrepancy.  It runs the search for every
stratum at once, as arrays over the strata that keep the search's own
arithmetic, next to one pass of the closed forms over the same strata;
:func:`feasible_extrema` is the same search over one table.  Pairs pass the
same compatibility screen as the bounds (the four inequalities of
:func:`pcause.model.validate_compatibility`), but are not moved onto their
range: the recovered conditionals are clipped into [0, 1] instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import bounds
from .errors import IncompatibilityError, PositivityError, ValidationError
from .model import (
    COMPAT_TOL,
    ExperimentalQuantities,
    StratifiedJoint,
    StratumKey,
    StratumTable,
    _clip,
    _conflict,
    _excess_columns,
    _matched_pairs,
    _one_row,
)

_MASS_TOL = 1e-9


def _positive(values: np.ndarray) -> np.ndarray:
    """The values, with 1.0 standing in where a stratum has none to divide
    by; such a stratum fails, so what it divides to is never used."""
    return np.where(values > 0.0, values, 1.0)


def _arm_masses(fixed_y: np.ndarray, fixed_cross: np.ndarray,
                points: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The helped and never masses at each row of (P, K) values of the
    always-mass, given the two matching constraints of one arm, and which
    strata have a type mass (always, helped, hurt or never) below zero at
    any of them."""
    helped = fixed_y - points
    hurt = fixed_cross - points
    never = 1.0 - fixed_y - fixed_cross + points
    negative = ((points < -_MASS_TOL) | (helped < -_MASS_TOL)
                | (hurt < -_MASS_TOL) | (never < -_MASS_TOL)).any(axis=0)
    return helped, never, negative


def _searched_rows(quantities: Sequence[str], cells: np.ndarray,
                   pairs: np.ndarray, no_prevention: bool,
                   ) -> list[tuple[int, tuple[np.ndarray, np.ndarray]
                                   | Exception]]:
    """For each quantity, the search for each (K, 4) cell row and (K, 2)
    pair, in order.  The arms are solved once for all the quantities.

    Each quantity gets (K, the (K,) lower and upper extremes) when no row
    fails, and otherwise (n, the error) of the first row n that fails, as
    :func:`pcause.bounds._box_rows` does.  A row fails, in this order of
    precedence, when its pair conflicts with its cells, when an exposure arm
    is empty, when no distribution without prevention fits (with
    ``no_prevention``), when a type mass goes negative, or when the quantity
    conditions on an empty cell.
    """
    (exposed_event, exposed_noevent, unexposed_event,
     unexposed_noevent) = cells.T
    do_exposed, do_unexposed = pairs.T
    excess, past = _excess_columns(cells, pairs)
    p_x = exposed_event + exposed_noevent
    p_xp = unexposed_event + unexposed_noevent
    empty_arm = (p_x <= 0.0) | (p_xp <= 0.0)
    per_x, per_xp = _positive(p_x), _positive(p_xp)
    # alpha and delta are the observational risks; beta and gamma the
    # cross-arm interventional conditionals P(y_x' | x, s) and P(y_x | x', s)
    alpha = exposed_event / per_x
    delta = unexposed_event / per_xp
    beta = _clip((do_unexposed - unexposed_event) / per_x, 0.0, 1.0)
    gamma = _clip((do_exposed - exposed_event) / per_xp, 0.0, 1.0)

    a_hi = np.minimum(alpha, beta)
    b_hi = np.minimum(gamma, delta)
    # each arm's always-mass values to evaluate, as (P, K) rows
    if no_prevention:
        # zero hurt mass forces the always-mass to the cross-arm constraint
        prevented = (beta > alpha + COMPAT_TOL) | (delta > gamma + COMPAT_TOL)
        a_pts = np.minimum(beta, a_hi)[None]
        b_pts = np.minimum(delta, b_hi)[None]
    else:
        prevented = np.zeros(len(cells), dtype=bool)
        a_pts = np.stack(
            [np.minimum(np.maximum(alpha + beta - 1.0, 0.0), a_hi), a_hi])
        b_pts = np.stack(
            [np.minimum(np.maximum(gamma + delta - 1.0, 0.0), b_hi), b_hi])
    helped_x, _, negative_x = _arm_masses(alpha, beta, a_pts)
    helped_xp, never_xp, negative_xp = _arm_masses(gamma, delta, b_pts)
    negative = negative_x | negative_xp
    failed = past.any(axis=1) | empty_arm | prevented | negative

    results = []
    for quantity in quantities:
        if quantity == "PN":
            undefined = exposed_event <= 0.0
            values = helped_x / _positive(alpha)
            lower, upper = values.min(axis=0), values.max(axis=0)
        elif quantity == "PS":
            undefined = unexposed_noevent <= 0.0
            masses = helped_xp + never_xp
            values = helped_xp / _positive(masses)
            # helped + never = P(y'|x') is below the resolution of an
            # always-mass near 1: take it from the cell, and let its helped
            # part range over what the matching equations allow
            resolved = masses.min(axis=0) <= 0.0
            mass = unexposed_noevent / per_xp
            top = np.minimum(gamma, mass)
            bottom = np.minimum(np.maximum(gamma - (1.0 - mass), 0.0), top)
            ends = np.stack([bottom, top]) / _positive(mass)
            lower = np.where(resolved, ends.min(axis=0), values.min(axis=0))
            upper = np.where(resolved, ends.max(axis=0), values.max(axis=0))
        else:
            undefined = np.zeros(len(cells), dtype=bool)
            # separable in the two free parameters, so the minimum of the
            # sum is the sum of the per-arm minima (and likewise the maximum)
            contrib_x, contrib_xp = p_x * helped_x, p_xp * helped_xp
            lower = contrib_x.min(axis=0) + contrib_xp.min(axis=0)
            upper = contrib_x.max(axis=0) + contrib_xp.max(axis=0)
        fails = failed | undefined
        if fails.any():
            n = int(fails.argmax())
            results.append((n, _failure(quantity, n, excess, past,
                                        empty_arm, prevented, negative)))
        else:
            results.append((len(cells), (lower, upper)))
    return results


def _failure(quantity: str, n: int, excess: np.ndarray, past: np.ndarray,
             empty_arm: np.ndarray, prevented: np.ndarray,
             negative: np.ndarray) -> Exception:
    """The search's error for stratum ``n``, by the precedence above."""
    if past[n].any():
        return _conflict(excess[n], past[n], "response-type search")
    if empty_arm[n]:
        return PositivityError("both exposure arms need positive probability")
    if prevented[n]:
        return IncompatibilityError(
            "no distribution without prevention matches the inputs")
    if negative[n]:
        return RuntimeError(
            "response-type mass went negative; feasibility screening is broken")
    return PositivityError(f"{quantity} undefined: no "
                           f"{bounds._POSITIVE_FRAME[quantity]} in stratum")


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
    (n, out), = _searched_rows((quantity,), *_one_row(table, pair),
                               no_prevention)
    if n == 0:
        raise out
    lower, upper = out
    return bounds.Interval(lower.item(), upper.item(), quantity, "oracle")


@dataclass(frozen=True)
class VerificationEntry:
    stratum: StratumKey
    quantity: str
    closed: bounds.Interval
    searched: bounds.Interval
    # the larger endpoint gap, the report's array value
    discrepancy: float = field(repr=False, compare=False)


@dataclass(frozen=True, init=False)
class VerificationReport:
    """Both routes' box of every stratum and quantity, and how far apart
    they are.

    :func:`verify_bounds` stores the boxes as arrays of entries, stratum by
    stratum and PN, PS then PNS within each: each route's (N, 2) lower and
    upper endpoints and the closed form's (N, 2) attaining term indices.
    ``discrepancy`` (each entry's larger endpoint gap), ``max_discrepancy``,
    ``failures`` and ``passed`` are worked out from the arrays, and
    ``entries`` is built when first read; nothing else makes a report.
    """

    # a field, so that repr and == read the entries
    entries: tuple[VerificationEntry, ...]
    tol: float
    discrepancy: np.ndarray = field(init=False, repr=False, compare=False)
    _keys: Sequence[StratumKey] = field(init=False, repr=False, compare=False)
    _closed: np.ndarray = field(init=False, repr=False, compare=False)
    _terms: np.ndarray = field(init=False, repr=False, compare=False)
    _searched: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("a VerificationReport comes from verify_bounds")

    @classmethod
    def _of(cls, keys: Sequence[StratumKey], closed: Sequence[bounds._Boxes],
            searched: Sequence[tuple[np.ndarray, np.ndarray]],
            tol: float) -> "VerificationReport":
        """A report from each quantity's closed-form boxes and searched
        extremes over the strata ``keys``, in the order of
        ``bounds.QUANTITIES``."""
        def entry_major(rows):
            # (quantity, column, stratum) -> (stratum and quantity, column)
            return np.array(rows).transpose(2, 0, 1).reshape(-1, 2)

        closed_ends = entry_major([b[:2] for b in closed])
        searched_ends = entry_major(searched)
        gaps = np.maximum(*np.abs(closed_ends - searched_ends).T)
        report = object.__new__(cls)
        vars(report).update(tol=tol, discrepancy=gaps, _keys=keys,
                            _closed=closed_ends,
                            _terms=entry_major([b[2:] for b in closed]),
                            _searched=searched_ends)
        return report

    def _entries(self, index: Sequence[int]) -> tuple[VerificationEntry, ...]:
        """The entries at ``index``, from the arrays."""
        quantities = bounds.QUANTITIES
        entries = []
        for i, gap, (cl, cu), (li, ui), (sl, su) in zip(
                index, self.discrepancy[index].tolist(),
                self._closed[index].tolist(), self._terms[index].tolist(),
                self._searched[index].tolist()):
            key, quantity = self._keys[i // 3], quantities[i % 3]
            entries.append(VerificationEntry(
                key, quantity,
                bounds.Interval._of(cl, cu, quantity, "conditional", (key,),
                                    (li,), (ui,)),
                bounds.Interval(sl, su, quantity, "oracle"), gap))
        return tuple(entries)

    @cached_property
    def entries(self) -> tuple[VerificationEntry, ...]:
        self._keys.keys()  # every key at once
        return self._entries(range(len(self.discrepancy)))

    @cached_property
    def max_discrepancy(self) -> float:
        return float(self.discrepancy.max())

    @cached_property
    def failures(self) -> tuple[VerificationEntry, ...]:
        # a NaN discrepancy is not within the tolerance
        return self._entries(
            np.flatnonzero(~(self.discrepancy <= self.tol)).tolist())

    @property
    def passed(self) -> bool:
        return bool((self.discrepancy <= self.tol).all())


def verify_bounds(joint: StratifiedJoint,
                  experimental: ExperimentalQuantities, *,
                  tol: float = 2e-3) -> VerificationReport:
    """Compare every conditional box against the type-distribution search.

    The closed forms and the search each run once, over all strata and
    the three quantities; the entries run stratum by stratum, PN, PS then
    PNS within each.  Pairs that are not for exactly the joint's strata
    raise :class:`ValidationError`; otherwise a failure raises the error
    that a stratum-by-stratum loop over the two routes would meet first.
    """
    pairs = _matched_pairs(joint, experimental)
    cells, keys = joint.cells, joint._coded
    closed = bounds._box_rows(bounds.QUANTITIES, cells, pairs, keys)
    searched = _searched_rows(bounds.QUANTITIES, cells, pairs, False)
    # the routes in loop order: PN closed, PN searched, PS closed, ...
    routes = [route for both in zip(closed, searched) for route in both]
    # the earliest failing stratum, and within it the earliest route
    n, out = min(routes, key=lambda route: route[0])
    if n < len(keys):
        raise out
    return VerificationReport._of(keys, [out for _, out in closed],
                                  [out for _, out in searched], tol)
