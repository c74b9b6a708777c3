"""Sharp bounds for probabilities of causation.

For a binary exposure x and outcome y, three counterfactual quantities are
bounded from a joint distribution plus interventional outcome marginals:

* PN, necessity: P(y'_x' | x, y), the chance the event would have been
  avoided without exposure, among the exposed with the event.
* PS, sufficiency: P(y_x | x', y'), the chance exposure would have produced
  the event, among the unexposed without it.
* PNS: P(y_x, y'_x'), the joint chance exposure is both necessary and
  sufficient.

Within one stratum s, writing cells as P(x, y | s) and the interventional
pair as P(y_x | s), P(y_x' | s), the sharp conditional bounds are

    PN(s):  max{0, (P(y'_x'|s) - P(y'|s)) / P(x,y|s)}
            <= PN(s) <=
            min{1, (P(y'_x'|s) - P(x',y'|s)) / P(x,y|s)}

    PNS(s): max{0, P(y_x|s) - P(y|s), P(y'_x'|s) - P(y'|s),
                P(y_x|s) - P(y_x'|s)}
            <= PNS(s) <=
            min{P(y_x|s), P(y'_x'|s), P(x,y|s) + P(x',y'|s),
                P(y_x|s) - P(y_x'|s) + P(x',y|s) + P(x,y'|s)}

PS(s) is PN(s) on the relabeled table that swaps both exposure and outcome,
with the interventional pair mapped to (1 - P(y_x'|s), 1 - P(y_x|s)):

    PS(s):  max{0, (P(y_x|s) - P(y|s)) / P(x',y'|s)}
            <= PS(s) <=
            min{1, (P(y_x|s) - P(x,y|s)) / P(x',y'|s)}

The stratified bounds recombine the per-stratum extremes instead of
bounding the pooled table, which can only tighten the interval:

    PN:  sum_s max{0, P(y'_x'|s) - P(y'|s)} P(s) / P(x,y)
         <= PN <=
         sum_s min{P(x,y|s), P(y'_x'|s) - P(x',y'|s)} P(s) / P(x,y)

and likewise for PNS (weight-averaged conditional boxes) and for PS (with
denominator P(x',y')).  The classical unstratified bounds ("tian-pearl"
method here) apply the conditional formulas to the pooled table with the
marginal interventional pair; the stratified interval always nests inside
them.

Every interval screens each stratum's pair with
:func:`pcause.model.compatible_pair`, which rejects a pair farther than
``COMPAT_TOL`` outside its compatibility range and moves a nearer one onto
it; endpoints are then clipped into [0, 1], which removes only float drift.

Conditional, stratified and Tian-Pearl intervals share one term function,
which returns a stratum's candidate terms (and, for PN and PS, the
denominator) in tie-break order; each interval differs only in how it
combines them.  Each interval records which candidate term produced each
endpoint in every stratum (:class:`TermChoice`), with ties resolved toward
the earlier term in the documented order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatibilityError, PositivityError, ValidationError
from .model import (
    ExperimentalQuantities,
    StratifiedJoint,
    StratumKey,
    StratumTable,
    _Columns,
    _clip_pairs,
    _running_sum,
    compatible_pair,
    validate_compatibility,
)

QUANTITIES = ("PN", "PS", "PNS")
METHODS = ("conditional", "stratified", "tian-pearl", "oracle")

# Candidate terms, in tie-break order.  For PS the labels describe the
# swapped frame: "excess" is P(y_x|s) - P(y|s), "cell" caps at
# P(x',y'|s) and "margin" is P(y_x|s) - P(x,y|s).
PN_LOWER_TERMS = ("zero", "excess")
PN_UPPER_TERMS = ("cell", "margin")
PNS_LOWER_TERMS = ("zero", "treated_excess", "untreated_excess",
                   "risk_difference")
PNS_UPPER_TERMS = ("treated_event", "untreated_nonevent", "concordant_cells",
                   "discordant_margin")

_INVERT_TOL = 1e-9


@dataclass(frozen=True)
class TermChoice:
    """Which candidate term won each endpoint within one stratum."""

    stratum: StratumKey
    lower: str
    upper: str


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float
    quantity: str
    method: str
    attainment: tuple[TermChoice, ...] = ()

    def __post_init__(self) -> None:
        if self.quantity not in QUANTITIES:
            raise ValidationError(f"unknown quantity {self.quantity!r}")
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.lower > self.upper + _INVERT_TOL:
            raise ValidationError(
                f"interval lower {self.lower!r} exceeds upper {self.upper!r}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower - _INVERT_TOL <= value <= self.upper + _INVERT_TOL


def _swap_pair(pair: tuple[float, float]) -> tuple[float, float]:
    # Under the exposure/outcome relabeling, P(y_x|s) maps to 1 - P(y_x'|s).
    return (1.0 - pair[1], 1.0 - pair[0])


def _framed(quantity: str, table: StratumTable | _Columns,
            pair: tuple[float, float],
            ) -> tuple[StratumTable | _Columns, tuple[float, float]]:
    """The frame in which the quantity's terms are written: PS is PN on the
    swapped table, and PN and PNS keep the table as given.  ``table`` and
    ``pair`` may also be a joint's columns and the columns of its pairs."""
    if quantity == "PS":
        return table.swap(), _swap_pair(pair)
    return table, pair


def _terms(quantity: str, table: StratumTable | _Columns,
           pair: tuple[float, float],
           ) -> tuple[float | None, tuple[float, ...], tuple[float, ...]]:
    """Candidate terms of one stratum, in tie-break order, for a table and
    pair already in the quantity's frame (see :func:`_framed`).  Given
    every stratum's columns and pair columns, each term is a column.

    Returns (denominator, lower terms, upper terms).  For PN and PS the
    denominator is P(x,y|s) of the frame and the terms are numerators: the
    conditional box divides the selected ones by it, while the stratified
    bound weight-sums them before dividing by the weighted denominators.
    The selection by size is unaffected by the positive division, so both
    paths pick identical terms.  PNS terms need no denominator (None).
    """
    do_exposed, do_unexposed = pair
    p_noevent_do_unexposed = 1.0 - do_unexposed
    p_noevent = table.p_exposed_noevent + table.p_unexposed_noevent
    if quantity == "PNS":
        lows = (0.0,
                do_exposed - (table.p_exposed_event + table.p_unexposed_event),
                p_noevent_do_unexposed - p_noevent,
                do_exposed - do_unexposed)
        ups = (do_exposed,
               p_noevent_do_unexposed,
               table.p_exposed_event + table.p_unexposed_noevent,
               do_exposed - do_unexposed
               + table.p_unexposed_event + table.p_exposed_noevent)
        return None, lows, ups
    cell = table.p_exposed_event
    return (cell, (0.0, p_noevent_do_unexposed - p_noevent),
            (cell, p_noevent_do_unexposed - table.p_unexposed_noevent))


def _rows(terms: tuple, n_strata: int) -> np.ndarray:
    """Terms as rows of one (terms, strata) array; constants repeat."""
    rows = np.empty((len(terms), n_strata))
    for row, term in zip(rows, terms):
        row[:] = term
    return rows


def _choice(quantity: str, key: StratumKey, li: int, ui: int) -> TermChoice:
    if quantity == "PNS":
        return TermChoice(key, PNS_LOWER_TERMS[li], PNS_UPPER_TERMS[ui])
    return TermChoice(key, PN_LOWER_TERMS[li], PN_UPPER_TERMS[ui])


def _finish(lower: float, upper: float, quantity: str, method: str,
            choices: tuple[TermChoice, ...], key: StratumKey | None) -> Interval:
    # every pair sits on its range, so only float drift leaves [0, 1]
    lower = min(1.0, max(0.0, lower))
    upper = min(1.0, max(0.0, upper))
    if lower > upper + _INVERT_TOL:
        where = f" in stratum {key}" if key is not None else ""
        raise IncompatibilityError(
            f"{quantity} bounds invert{where}: lower {lower:.6g} > upper {upper:.6g}; "
            "observational and experimental inputs conflict")
    return Interval(lower=lower, upper=upper, quantity=quantity, method=method,
                    attainment=choices)


_POSITIVE_FRAME = {"PN": "exposed cases", "PS": "unexposed non-cases"}


def _box(quantity: str, method: str, table: StratumTable,
         pair: tuple[float, float], key: StratumKey | None = None) -> Interval:
    """The sharp interval of one table and pair: a stratum's conditional
    box (also the stratified interval of a one-stratum joint), or the
    Tian-Pearl interval of the pooled table (``key`` None)."""
    key = key if key is not None else StratumKey(())
    table, pair = _framed(quantity, table, compatible_pair(table, pair, key))
    denom, lows, ups = _terms(quantity, table, pair)
    # index() finds the first extreme: ties go to the earlier term
    li, ui = lows.index(max(lows)), ups.index(min(ups))
    lower, upper = lows[li], ups[ui]
    if denom is not None:
        if denom <= 0.0:
            raise PositivityError(
                f"{quantity} undefined in stratum {key}: no probability mass "
                f"on {_POSITIVE_FRAME[quantity]}")
        # 0.0 / denom and denom / denom are exactly 0 and 1
        lower, upper = lower / denom, upper / denom
    return _finish(lower, upper, quantity, method,
                   (_choice(quantity, key, li, ui),), key)


def pn_interval_conditional(table: StratumTable, pair: tuple[float, float], *,
                            key: StratumKey | None = None) -> Interval:
    """Sharp bounds on PN(s) = P(y'_x' | x, y, s) for a single stratum."""
    return _box("PN", "conditional", table, pair, key)


def ps_interval_conditional(table: StratumTable, pair: tuple[float, float], *,
                            key: StratumKey | None = None) -> Interval:
    """Sharp bounds on PS(s) = P(y_x | x', y', s) for a single stratum.

    Computed exactly as PN on the swapped table; see the module docstring.
    """
    return _box("PS", "conditional", table, pair, key)


def pns_interval_conditional(table: StratumTable, pair: tuple[float, float], *,
                             key: StratumKey | None = None) -> Interval:
    """Sharp bounds on PNS(s) = P(y_x, y'_x' | s) for a single stratum."""
    return _box("PNS", "conditional", table, pair, key)


def stratified_interval(quantity: str, joint: StratifiedJoint,
                        experimental: ExperimentalQuantities) -> Interval:
    """Covariate-adjusted bounds that recombine per-stratum extremes.

    Always at least as tight as the unstratified bounds on the same data;
    the two coincide when there is a single stratum.
    """
    if quantity not in QUANTITIES:
        raise ValidationError(f"unknown quantity {quantity!r}")
    report = validate_compatibility(joint, experimental)
    if not report.compatible:
        worst = max(report.violations, key=lambda v: v.amount)
        raise IncompatibilityError(
            f"{len(report.violations)} consistency violation(s); worst: "
            f"stratum {worst.stratum} {worst.constraint} by {worst.amount:.3g}")

    if joint.n_strata == 1:
        # With one stratum the weight is semantically 1 even if the stored
        # float drifted, so the interval is the stratum's conditional box.
        key, t = next(joint.items())
        return _box(quantity, "stratified", t, experimental.pair(key), key)

    keys = joint.keys()
    pairs = _clip_pairs(joint.cells, experimental.pairs)
    cell, lows, ups = _terms(quantity, *_framed(
        quantity, _Columns(*joint.cells.T), (pairs[:, 0], pairs[:, 1])))
    lows, ups = _rows(lows, len(keys)), _rows(ups, len(keys))
    # argmax and argmin find the first extreme: ties go to the earlier term
    li, ui = lows.argmax(axis=0), ups.argmin(axis=0)
    strata = np.arange(len(keys))
    lower = float(_running_sum(lows[li, strata] * joint.weights))
    upper = float(_running_sum(ups[ui, strata] * joint.weights))
    choices = tuple(_choice(quantity, key, i, j)
                    for key, i, j in zip(keys, li.tolist(), ui.tolist()))

    if cell is not None:
        denom = float(_running_sum(cell * joint.weights))
        if denom <= 0.0:
            raise PositivityError(
                f"{quantity} undefined: no {_POSITIVE_FRAME[quantity]} overall")
        lower, upper = lower / denom, upper / denom
    return _finish(lower, upper, quantity, "stratified", choices, key=None)


def tian_pearl_interval(quantity: str, table: StratumTable,
                        marginal: tuple[float, float]) -> Interval:
    """Classical unstratified bounds from the pooled table and the marginal
    interventional pair.  Same formulas as the conditional boxes, applied
    once to the whole population.
    """
    if quantity not in QUANTITIES:
        raise ValidationError(f"unknown quantity {quantity!r}")
    return _box(quantity, "tian-pearl", table, marginal)
