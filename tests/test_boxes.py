"""The batched boxes, search and pair loader against the loops they replaced.

``bounds.conditional_boxes`` computes every stratum's conditional box in one
array pass, ``verify_bounds`` runs that pass and the response-type search
(``oracle._searched_rows``) once over all strata and quantities,
``load_experimental`` reads its pairs in one pass, and the one-stratum
functions are one-row calls of the same passes.  The ``reference_*``
functions in ``conftest`` are those functions as they were, one table and
pair at a time; here the two must agree on the repr of every interval and
entry, and on the type and text of the first error a stratum-by-stratum loop
meets.  Pairs for other strata than the joint's are one error, where the
loops named the first stratum without a pair or ignored strata the joint
lacks.  The examples come from ``hypothesis`` in derandomized mode.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pcause as pc
from pcause.bounds import Interval, conditional_boxes
from pcause.identify import monotonicity_diagnostic
from pcause.model import (
    _MISMATCH,
    COMPAT_TOL,
    _matched_pairs,
    load_experimental,
)
from pcause.oracle import VerificationReport, _searched_rows

from conftest import (
    random_joint,
    random_pair,
    reference_conditional,
    reference_conditional_boxes,
    reference_count_table,
    reference_experimental,
    reference_feasible_extrema,
    reference_from_per_stratum,
    reference_load_experimental,
    reference_searched_boxes,
    reference_stratified_interval,
    reference_tian_pearl_interval,
    reference_verdict,
    reference_verify_bounds,
)

QUANTITIES = ("PN", "PS", "PNS")
ONE_ROW = {"PN": pc.pn_interval_conditional, "PS": pc.ps_interval_conditional,
           "PNS": pc.pns_interval_conditional}
MISMATCH = f"ValidationError: {_MISMATCH}"

repeatable = settings(derandomize=True, database=None, deadline=None,
                      max_examples=150)


def _outcome(function, *args, **kwargs):
    """The repr of what ``function`` returns, or its error's type and text."""
    try:
        result = function(*args, **kwargs)
    except (pc.PcauseError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, VerificationReport):
        result = (result.entries, result.max_discrepancy, result.failures,
                  result.passed)
    elif function is reference_verify_bounds:
        result = (result, *reference_verdict(result, 2e-3))
    else:
        return repr(result)
    return repr((*result, [e.discrepancy for e in result[0]]))


def searched_boxes(quantity, joint, experimental, *, no_prevention):
    """The batched search of every stratum, raising what a loop over
    ``feasible_extrema`` would raise first."""
    (n, out), = _searched_rows((quantity,), joint.cells,
                               _matched_pairs(joint, experimental),
                               no_prevention)
    if n < joint.n_strata:
        raise out
    return [Interval(lo, up, quantity, "oracle")
            for lo, up in zip(*(ends.tolist() for ends in out))]


def assert_same_boxes(joint, experimental):
    """Every batched route and its one-row callers agree with the loops."""
    for quantity in QUANTITIES:
        assert _outcome(conditional_boxes, quantity, joint, experimental) == \
            _outcome(reference_conditional_boxes, quantity, joint, experimental)
        for no_prevention in (False, True):
            assert _outcome(searched_boxes, quantity, joint, experimental,
                            no_prevention=no_prevention) == \
                _outcome(reference_searched_boxes, quantity, joint,
                         experimental, no_prevention=no_prevention)
    assert _outcome(pc.verify_bounds, joint, experimental) == \
        _outcome(reference_verify_bounds, joint, experimental)


def assert_mismatch(joint, experimental):
    """Pairs for other strata than the joint's: every batched route raises
    the one mismatch error before it looks at any stratum."""
    for quantity in QUANTITIES:
        assert _outcome(conditional_boxes, quantity, joint, experimental) == \
            MISMATCH
        for no_prevention in (False, True):
            assert _outcome(searched_boxes, quantity, joint, experimental,
                            no_prevention=no_prevention) == MISMATCH
    assert _outcome(pc.verify_bounds, joint, experimental) == MISMATCH


def assert_same_one_row(table, pair, key):
    for quantity, box in ONE_ROW.items():
        for where in ({"key": key}, {}):
            assert _outcome(box, table, pair, **where) == _outcome(
                reference_conditional, quantity, table, pair, where.get("key"))
        assert _outcome(pc.tian_pearl_interval, quantity, table, pair) == \
            _outcome(reference_tian_pearl_interval, quantity, table, pair)
        for no_prevention in (False, True):
            assert _outcome(pc.feasible_extrema, table, pair, quantity,
                            no_prevention=no_prevention) == \
                _outcome(reference_feasible_extrema, table, pair, quantity,
                         no_prevention=no_prevention)


# Joints over covariates g and h with 1 to 6 strata.  Raw cell masses run
# down to 1e-3 of the largest, some are zero, of either sign (so a frame or
# an arm can be empty), and a few repeat so that terms tie.  Pairs sit
# anywhere in their range, often on an edge, and sometimes drift past it:
# within the screen's tolerance (moved onto the range), at it, or beyond it
# (rejected).
_mass = st.one_of([st.floats(min_value=1e-3, max_value=1.0)] * 6
                  + [st.sampled_from((0.0, -0.0)),
                     st.sampled_from((0.25, 0.5))])
_position = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                      st.sampled_from((0.0, 0.5, 1.0)))
_drift = st.one_of(st.just(0.0), st.just(0.0),
                   st.floats(min_value=-0.9e-3, max_value=0.9e-3),
                   st.sampled_from((-2e-3, 2e-3, -COMPAT_TOL, COMPAT_TOL)))
_stratum = st.tuples(st.lists(_mass, min_size=4, max_size=4).filter(any),
                     st.floats(min_value=1e-3, max_value=1.0),
                     _position, _position, _drift, _drift)
_levels = st.lists(st.tuples(st.sampled_from("123"), st.sampled_from("ab")),
                   min_size=1, max_size=6, unique=True)
_strata = st.lists(_stratum, min_size=6, max_size=6)


def _joint(draws, levels):
    """A joint over the drawn levels, and each stratum's drawn pair."""
    total_weight = sum(w for _, w, *_ in draws[:len(levels)])
    strata, pairs = {}, {}
    for (cells, w, u, v, du, dv), (g, h) in zip(draws, levels):
        key = pc.StratumKey.of(g=g, h=h)
        table = strata[key] = pc.StratumTable(
            *(c / sum(cells) for c in cells), weight=w / total_weight)
        pairs[key] = (
            min(1.0, max(0.0, table.p_exposed_event
                         + u * table.p_unexposed + du)),
            min(1.0, max(0.0, table.p_unexposed_event
                         + v * table.p_exposed + dv)))
    return pc.StratifiedJoint(strata=strata, covariates=("g", "h")), pairs


def _experimentals(joint, pairs, drop):
    """Measured pairs as drawn; pairs from the risks, where both arms of
    every stratum have mass; the drawn pairs without one stratum; and the
    drawn pairs with one stratum that the joint lacks.  Each comes with
    whether its strata are the joint's."""
    measured = "measured-experimental"
    yield reference_from_per_stratum(joint, pairs, measured), True
    try:
        yield pc.adjusted_experimental(joint), True
    except pc.PositivityError:
        pass
    keys = joint.keys()
    missing = {key: pair for key, pair in pairs.items()
               if key != keys[drop % len(keys)]}
    if missing:
        yield reference_experimental(missing, (0.5, 0.5), measured), False
    extra = {**pairs, pc.StratumKey.of(g="9", h="z"): (0.5, 0.5)}
    yield reference_experimental(extra, (0.5, 0.5), measured), False


_EDGE = [([0.25, 0.25, 0.25, 0.25], 1.0, 0.0, 1.0, 0.0, 0.0),
         ([0.5, 0.25, 0.25, 0.5], 1.0, 1.0, 0.0, 0.0, 0.0)] * 3
_INSIDE = ([0.3, 0.2, 0.1, 0.4], 1.0, 0.5, 0.5, 0.0, 0.0)


@repeatable
@given(_strata, _levels, st.integers(min_value=0, max_value=5))
# every pair on an edge of its range, and cells with equal masses
@example(_EDGE, [("1", "a"), ("2", "a"), ("1", "b")], 0)
# two strata fail, each breaking another constraint by more than the
# screen accepts; the error names the first in key order, 1,b
@example([_INSIDE,
          ([0.3, 0.2, 0.1, 0.4], 1.0, 0.5, 0.0, 0.0, -2e-3),
          ([0.3, 0.2, 0.1, 0.4], 1.0, 1.0, 0.5, 2e-3, 0.0)] * 2,
         [("1", "a"), ("2", "b"), ("1", "b")], 1)
# the first stratum in key order has no exposed cases, a later one a
# conflicting pair: the loop meets PN's positivity error first
@example([([0.3, 0.2, 0.1, 0.4], 1.0, 0.5, 0.5, 2e-3, 0.0),
          ([0.0, 0.5, 0.1, 0.4], 1.0, 0.5, 0.5, 0.0, 0.0)] * 3,
         [("2", "a"), ("1", "a")], 0)
# an empty exposure arm
@example([_INSIDE, ([0.0, 0.0, 0.5, 0.5], 1.0, 0.5, 0.5, 0.0, 0.0)] * 3,
         [("1", "a"), ("1", "b")], 0)
# one stratum with no exposed cases and a pair past its range: the screen
# speaks first
@example([([0.0, 0.5, 0.1, 0.4], 1.0, 1.0, 0.5, 2e-3, 0.0)] * 6,
         [("1", "a"), ("2", "a")], 0)
# one stratum whose PS numerator cancels in floats: counts 10**17, 3,
# 10**17 and 4 (the oracle's helped + never rounds to zero)
@example([([1e17, 3.0, 1e17, 4.0], 1.0, 0.5, 0.5, 0.0, 0.0)] * 6,
         [("1", "a")], 0)
def test_batched_routes_match_the_stratum_loops(draws, levels, drop):
    joint, pairs = _joint(draws, levels)
    for experimental, matched in _experimentals(joint, pairs, drop):
        (assert_same_boxes if matched else assert_mismatch)(joint,
                                                            experimental)
    for key, table in joint.items():
        assert_same_one_row(table, pairs[key], key)
    if joint.n_strata == 1:
        # the one-stratum stratified interval is the stratum's box
        experimental = reference_from_per_stratum(
            joint, pairs, "measured-experimental")
        for quantity in QUANTITIES:
            assert _outcome(pc.stratified_interval, quantity, joint,
                            experimental) == _outcome(
                reference_stratified_interval, quantity, joint, experimental)


def test_the_cancelling_ps_table_from_counts():
    counts = reference_count_table(
        [(pc.StratumKey.of(g="1"), x, y, n) for (x, y), n in
         zip(((1, 1), (1, 0), (0, 1), (0, 0)), (10**17, 3, 10**17, 4))],
        covariates=("g",))
    joint = pc.to_probabilities(counts)
    experimental = pc.adjusted_experimental(joint)
    assert_same_boxes(joint, experimental)
    (key, table), = joint.items()
    assert_same_one_row(table, experimental.per_stratum[key], key)


def test_two_thousand_strata():
    rng = np.random.default_rng(1212)
    joint = random_joint(rng, 2000)
    measured = reference_from_per_stratum(
        joint, {key: random_pair(rng, t) for key, t in joint.items()},
        provenance="measured-experimental")
    for experimental in (measured, pc.adjusted_experimental(joint)):
        assert_same_boxes(joint, experimental)
    text = json.dumps(_pairs_file(measured.per_stratum.items()))
    assert _outcome(load_experimental, io.StringIO(text), joint) == \
        _outcome(reference_load_experimental, io.StringIO(text), joint)


def test_max_discrepancy_is_worked_out_once(cancer_joint, cancer_experimental):
    report = pc.verify_bounds(cancer_joint, cancer_experimental)
    assert report.max_discrepancy == max(e.discrepancy for e in report.entries)
    assert "max_discrepancy" in vars(report)
    assert repr(report) == (f"VerificationReport(entries={report.entries!r}, "
                            f"tol={report.tol!r})")


# Pairs for the fixture's three stages less stage 3, with a stage 9 more, and
# with stage 3 relabelled 4.
_OTHER_STRATA = {"missing": ("1", "2"), "extra": ("1", "2", "3", "9"),
                 "relabelled": ("1", "2", "4")}
_JOINT_AND_PAIRS = {
    "conditional_boxes": lambda j, e: conditional_boxes("PN", j, e),
    "verify_bounds": pc.verify_bounds,
    "stratified_interval": lambda j, e: pc.stratified_interval("PN", j, e),
    "monotonicity_diagnostic": monotonicity_diagnostic,
}


@pytest.mark.parametrize("function", _JOINT_AND_PAIRS)
@pytest.mark.parametrize("stages", _OTHER_STRATA)
def test_pairs_for_other_strata_are_one_error(cancer_joint, function,
                                              stages):
    experimental = reference_experimental(
        {pc.StratumKey.of(stage=s): (0.5, 0.5) for s in _OTHER_STRATA[stages]},
        (0.5, 0.5), "measured-experimental")
    assert _outcome(_JOINT_AND_PAIRS[function], cancer_joint,
                    experimental) == MISMATCH


_ONE_ROW_ENTRIES = {
    **ONE_ROW,
    "tian-pearl": lambda table, pair: pc.tian_pearl_interval("PN", table,
                                                             pair),
    "search": lambda table, pair: pc.feasible_extrema(table, pair, "PN"),
}


@pytest.mark.parametrize("slot", [0, 1])
@pytest.mark.parametrize("entry", _ONE_ROW_ENTRIES)
def test_a_pair_holding_nan_is_rejected(entry, slot):
    table = pc.StratumTable(0.2, 0.3, 0.1, 0.4, weight=1.0)
    pair = [0.4, 0.3]
    pair[slot] = float("nan")
    assert _outcome(_ONE_ROW_ENTRIES[entry], table, tuple(pair)) == (
        f"ValidationError: experimental pair {tuple(pair)!r} holds NaN")
    # a pair within COMPAT_TOL outside [0, 1] is moved onto its range
    edge = pc.StratumTable(0.5, 0.0, 0.0, 0.5, weight=1.0)
    pair = [1.0, 0.0]
    pair[slot] += 5e-4 if slot == 0 else -5e-4
    interval = _ONE_ROW_ENTRIES[entry](edge, tuple(pair))
    assert 0.0 <= interval.lower <= interval.upper <= 1.0


# Measured-pair files: entries for the joint's strata and for strata it
# lacks, in any order, some repeated, with values that float() reads, that
# fall outside [0, 1] or that it rejects, and now and then a missing field.
_value = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                   st.sampled_from((0, 1, True, "0.5", " 0.25 ", "high",
                                    None, [], 1.5, -1e-10, 1 + 1e-10,
                                    float("nan"), "1e999")))
_FIELDS = ("p_event_do_exposed", "p_event_do_unexposed")


def _pairs_file(entries, provenance=None):
    data = {"strata": [{"levels": {name: value for name, value in key.labels},
                        **dict(zip(_FIELDS, pair))} for key, pair in entries]}
    if provenance is not None:
        data["provenance"] = provenance
    return data


@repeatable
@given(_strata, _levels, st.data())
def test_pair_loader_matches_the_entry_loop(draws, levels, data):
    joint, pairs = _joint(draws, levels)
    keys = list(joint.keys()) + [pc.StratumKey.of(g="9", h="z")]
    listed = data.draw(st.lists(st.tuples(st.sampled_from(keys),
                                          st.tuples(_value, _value)),
                                max_size=9))
    # every stratum of the joint listed once with its drawn pair, most of
    # the time, so that files that load are common
    if data.draw(st.booleans()):
        listed = [(key, pairs[key]) for key in joint.keys()] + listed
    text = _pairs_file(listed, data.draw(st.sampled_from(
        (None, "sita-adjusted", "guessed"))))
    if listed and data.draw(st.booleans()):
        del text["strata"][-1][data.draw(st.sampled_from(_FIELDS))]
    text = json.dumps(text)
    assert _outcome(load_experimental, io.StringIO(text), joint) == \
        _outcome(reference_load_experimental, io.StringIO(text), joint)


def test_pair_loader_rejects_levels_that_are_not_an_object(cancer_joint):
    text = json.dumps({"strata": [{"levels": ["stage", "1"],
                                   "p_event_do_exposed": 0.2,
                                   "p_event_do_unexposed": 0.3}]})
    assert _outcome(load_experimental, io.StringIO(text), cancer_joint) == \
        ("ParseError: malformed experimental data: 'list' object has no "
         "attribute 'items'")
