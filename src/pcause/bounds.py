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

Every interval screens each stratum's pair against the four compatibility
inequalities of :func:`pcause.model.validate_compatibility`, computed for
all strata at once: a pair farther than ``COMPAT_TOL`` outside its range is
rejected, and a nearer one is moved onto it; endpoints are then clipped into
[0, 1], which removes only float drift.  A joint's pairs must be for exactly
its strata, and a one-stratum pair must not hold NaN.

Conditional, stratified and Tian-Pearl intervals share one term function,
which returns every stratum's candidate terms (and, for PN and PS, the
denominator) in tie-break order as arrays over the strata; each interval
differs only in how it combines them.  One pass over those arrays gives
every stratum's box of every quantity as arrays of endpoints and
attaining-term indices: ``pcause bounds`` runs it once for all of its
quantities and writes its per-stratum lines and report from it, and the
one-stratum functions (``pn_interval_conditional`` and its PS and PNS
siblings, :func:`tian_pearl_interval`, and :func:`stratified_interval` of
a one-stratum joint) are the same pass over one row.  A failing stratum
gives the error that a loop over the strata in key order would meet first.
Each interval records which candidate term produced each endpoint in every
stratum (:class:`TermChoice`), with ties resolved toward the earlier term in
the documented order.  The intervals this module makes keep that record as
the term indices of each stratum, from which the command line writes its
report, and build their ``attainment`` of :class:`TermChoice` objects when
it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    IncompatibilityError,
    PcauseError,
    PositivityError,
    ValidationError,
)
from .model import (
    ExperimentalQuantities,
    StratifiedJoint,
    StratumKey,
    StratumTable,
    _clip,
    _clip_pairs,
    _conflict,
    _excess_columns,
    _matched_pairs,
    _one_row,
    _running_sum,
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
# each quantity's lower and upper term names, by term index
_TERM_NAMES = {"PN": (PN_LOWER_TERMS, PN_UPPER_TERMS),
              "PS": (PN_LOWER_TERMS, PN_UPPER_TERMS),
              "PNS": (PNS_LOWER_TERMS, PNS_UPPER_TERMS)}

_INVERT_TOL = 1e-9


@dataclass(frozen=True)
class TermChoice:
    """Which candidate term won each endpoint within one stratum."""

    stratum: StratumKey
    lower: str
    upper: str


class _Attainment:
    """The ``attainment`` field of :class:`Interval`: the tuple given to the
    constructor, or, for an interval made by :meth:`Interval._of`, the tuple
    built from its term indices when the field is first read."""

    def __get__(self, interval, owner=None):
        if interval is None:
            return ()  # the field's default
        state = vars(interval)
        if "attainment" not in state:
            keys, lower_terms, upper_terms = interval._terms
            lower, upper = _TERM_NAMES[interval.quantity]
            state["attainment"] = tuple(map(
                TermChoice, keys, map(lower.__getitem__, lower_terms),
                map(upper.__getitem__, upper_terms)))
        return state["attainment"]

    def __set__(self, interval, attainment) -> None:
        vars(interval)["attainment"] = attainment


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float
    quantity: str
    method: str
    attainment: tuple[TermChoice, ...] = _Attainment()

    @classmethod
    def _of(cls, lower: float, upper: float, quantity: str, method: str,
            keys: Sequence[StratumKey], lower_terms: Sequence[int],
            upper_terms: Sequence[int]) -> "Interval":
        """An interval attained in the strata ``keys`` by the terms at
        these indices in the quantity's term names, kept as ``_terms``;
        its endpoints are already checked."""
        interval = object.__new__(cls)
        vars(interval).update(lower=lower, upper=upper, quantity=quantity,
                              method=method,
                              _terms=(keys, lower_terms, upper_terms))
        return interval

    def __post_init__(self) -> None:
        if self.quantity not in QUANTITIES:
            raise ValidationError(f"unknown quantity {self.quantity!r}")
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.lower > self.upper + _INVERT_TOL:
            raise ValidationError(
                f"interval lower {self.lower!r} exceeds upper {self.upper!r}")

    def contains(self, value: float) -> bool:
        return self.lower - _INVERT_TOL <= value <= self.upper + _INVERT_TOL


def _swap_pair(pair: tuple[float, float]) -> tuple[float, float]:
    # Under the exposure/outcome relabeling, P(y_x|s) maps to 1 - P(y_x'|s).
    return (1.0 - pair[1], 1.0 - pair[0])


def _terms(quantity: str, cells: Sequence[np.ndarray],
           pair: tuple[np.ndarray, np.ndarray],
           ) -> tuple[np.ndarray | None, tuple, tuple]:
    """Candidate terms of every stratum, in tie-break order, for cell and
    pair columns already in the quantity's frame (see :func:`_chosen`),
    each term a column.

    Returns (denominator, lower terms, upper terms).  For PN and PS the
    denominator is P(x,y|s) of the frame and the terms are numerators: the
    conditional box divides the selected ones by it, while the stratified
    bound weight-sums them before dividing by the weighted denominators.
    The selection by size is unaffected by the positive division, so both
    paths pick identical terms.  PNS terms need no denominator (None).
    """
    exposed_event, exposed_noevent, unexposed_event, unexposed_noevent = cells
    do_exposed, do_unexposed = pair
    p_noevent_do_unexposed = 1.0 - do_unexposed
    p_noevent = exposed_noevent + unexposed_noevent
    zero = np.zeros_like(exposed_event)
    if quantity == "PNS":
        lows = (zero,
                do_exposed - (exposed_event + unexposed_event),
                p_noevent_do_unexposed - p_noevent,
                do_exposed - do_unexposed)
        ups = (do_exposed,
               p_noevent_do_unexposed,
               exposed_event + unexposed_noevent,
               do_exposed - do_unexposed
               + unexposed_event + exposed_noevent)
        return None, lows, ups
    return (exposed_event, (zero, p_noevent_do_unexposed - p_noevent),
            (exposed_event, p_noevent_do_unexposed - unexposed_noevent))


def _chosen(quantity: str, cells: np.ndarray, pairs: np.ndarray,
            ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray,
                       np.ndarray, np.ndarray]:
    """Each stratum's frame denominator (None for PNS), greatest lower and
    least upper candidate term, and the two terms' indices, from (K, 4)
    cells and (K, 2) pairs.  PS is PN on the swapped table with the pair
    swapped (see the module docstring); argmax and argmin find the first
    extreme, so ties go to the earlier term."""
    columns = cells.T
    pair = (pairs[:, 0], pairs[:, 1])
    if quantity == "PS":
        # the swap relabels cell (x, y) as (x', y'): the slot order reversed
        columns, pair = columns[::-1], _swap_pair(pair)
    denom, lows, ups = _terms(quantity, columns, pair)
    lows, ups = np.array(lows), np.array(ups)
    li, ui = lows.argmax(axis=0), ups.argmin(axis=0)
    strata = np.arange(len(cells))
    return denom, lows[li, strata], ups[ui, strata], li, ui


def _inverted(quantity: str, lower: float, upper: float,
              key: StratumKey | None) -> IncompatibilityError:
    where = f" in stratum {key}" if key is not None else ""
    return IncompatibilityError(
        f"{quantity} bounds invert{where}: lower {lower:.6g} > upper {upper:.6g}; "
        "observational and experimental inputs conflict")


_POSITIVE_FRAME = {"PN": "exposed cases", "PS": "unexposed non-cases"}


class _Boxes(NamedTuple):
    """Each stratum's box as (K,) arrays: the endpoints and the indices of
    the terms that attain them in the quantity's term names."""

    lower: np.ndarray
    upper: np.ndarray
    lower_term: np.ndarray
    upper_term: np.ndarray


def _box_rows(quantities: Sequence[str], cells: np.ndarray,
              pairs: np.ndarray, keys: Sequence[StratumKey],
              ) -> list[tuple[int, _Boxes | PcauseError]]:
    """For each quantity, the sharp box of each (K, 4) cell row and (K, 2)
    pair, in order: every stratum's conditional box (one call per
    ``bounds`` or ``verify`` run, for all of its quantities), or one row's
    box (:func:`_one_box`).  The pairs are screened once for all the
    quantities.

    A row fails when its pair lies farther than ``COMPAT_TOL`` outside its
    range, when its frame has no mass to divide by, or when its box
    inverts, in that order of precedence.  Each quantity gets (K, the boxes)
    when no row fails, and otherwise (n, the error) of the first row n that
    fails, so that a caller running several routes can raise the error a
    row-by-row loop would meet first.
    """
    excess, past = _excess_columns(cells, pairs)
    conflict = past.any(axis=1)
    # the clip leaves a pair inside its range as it is
    pairs = _clip_pairs(cells, pairs)
    results = []
    for quantity in quantities:
        denom, lower, upper, li, ui = _chosen(quantity, cells, pairs)
        empty = np.zeros(len(cells), dtype=bool)
        if denom is not None:
            empty = denom <= 0.0
            # 0.0 / denom and denom / denom are exactly 0 and 1
            denom = np.where(empty, 1.0, denom)
            lower, upper = lower / denom, upper / denom
        # every pair sits on its range, so only float drift leaves [0, 1]
        lower, upper = _clip(lower, 0.0, 1.0), _clip(upper, 0.0, 1.0)
        failed = conflict | empty | (lower > upper + _INVERT_TOL)
        if not failed.any():
            results.append((len(cells), _Boxes(lower, upper, li, ui)))
            continue
        n = int(failed.argmax())
        if conflict[n]:
            error = _conflict(excess[n], past[n], f"stratum {keys[n]}")
        elif empty[n]:
            error = PositivityError(
                f"{quantity} undefined in stratum {keys[n]}: no probability "
                f"mass on {_POSITIVE_FRAME[quantity]}")
        else:
            error = _inverted(quantity, lower[n].item(), upper[n].item(),
                              keys[n])
        results.append((n, error))
    return results


def _one_box(quantity: str, method: str, table: StratumTable,
             pair: Sequence[float], key: StratumKey | None) -> Interval:
    """The box of one table and pair, attained in ``key``, as a one-row
    :func:`_box_rows` pass; raises the row's error."""
    keys = (key if key is not None else StratumKey(()),)
    (n, box), = _box_rows((quantity,), *_one_row(table, pair), keys)
    if n == 0:
        raise box
    return Interval._of(box.lower.item(), box.upper.item(), quantity, method,
                        keys, (box.lower_term.item(),),
                        (box.upper_term.item(),))


def _conditional_rows(quantities: Sequence[str], joint: StratifiedJoint,
                      experimental: ExperimentalQuantities,
                      ) -> list[tuple[int, _Boxes | PcauseError]]:
    """:func:`_box_rows` of every stratum in key order, for all the
    quantities in one pass; raises :class:`ValidationError` unless the
    pairs are for exactly the joint's strata."""
    return _box_rows(quantities, joint.cells,
                     _matched_pairs(joint, experimental), joint._coded)


def pn_interval_conditional(table: StratumTable, pair: tuple[float, float], *,
                            key: StratumKey | None = None) -> Interval:
    """Sharp bounds on PN(s) = P(y'_x' | x, y, s) for a single stratum."""
    return _one_box("PN", "conditional", table, pair, key)


def ps_interval_conditional(table: StratumTable, pair: tuple[float, float], *,
                            key: StratumKey | None = None) -> Interval:
    """Sharp bounds on PS(s) = P(y_x | x', y', s) for a single stratum.

    Computed exactly as PN on the swapped table; see the module docstring.
    """
    return _one_box("PS", "conditional", table, pair, key)


def pns_interval_conditional(table: StratumTable, pair: tuple[float, float], *,
                             key: StratumKey | None = None) -> Interval:
    """Sharp bounds on PNS(s) = P(y_x, y'_x' | s) for a single stratum."""
    return _one_box("PNS", "conditional", table, pair, key)


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
        return _one_box(quantity, "stratified", joint.only(),
                        experimental.pairs[0].tolist(), joint._coded[0])

    pairs = _clip_pairs(joint.cells, experimental.pairs)
    cell, lows, ups, li, ui = _chosen(quantity, joint.cells, pairs)
    lower = float(_running_sum(lows * joint.weights))
    upper = float(_running_sum(ups * joint.weights))
    if cell is not None:
        denom = float(_running_sum(cell * joint.weights))
        if denom <= 0.0:
            raise PositivityError(
                f"{quantity} undefined: no {_POSITIVE_FRAME[quantity]} overall")
        lower, upper = lower / denom, upper / denom
    # every pair sits on its range, so only float drift leaves [0, 1]
    lower, upper = float(_clip(lower, 0.0, 1.0)), float(_clip(upper, 0.0, 1.0))
    if lower > upper + _INVERT_TOL:
        raise _inverted(quantity, lower, upper, None)
    return Interval._of(lower, upper, quantity, "stratified", joint._coded,
                        li.tolist(), ui.tolist())


def tian_pearl_interval(quantity: str, table: StratumTable,
                        marginal: tuple[float, float]) -> Interval:
    """Classical unstratified bounds from the pooled table and the marginal
    interventional pair.  Same formulas as the conditional boxes, applied
    once to the whole population.
    """
    if quantity not in QUANTITIES:
        raise ValidationError(f"unknown quantity {quantity!r}")
    return _one_box(quantity, "tian-pearl", table, marginal, None)
