"""Properties the bounds guarantee, checked over generated joints.

The examples come from ``hypothesis`` in derandomized mode, so every run
draws the same ones, and no example database is written.  Strata have
compatible interventional pairs, including pairs on the edge of the
compatibility range and raw cell masses down to 1e-3 of the largest; the
oracle check also draws pairs up to 0.9e-3 outside the range, which the
screen accepts and moves onto it.
These add to the seeded checks in ``test_bounds.py``; they do not replace
them.
"""

import pytest
from hypothesis import given, settings, strategies as st

import pcause as pc
from pcause.bounds import _swap_pair
from pcause.oracle import feasible_extrema

QUANTITIES = ("PN", "PS", "PNS")
CONDITIONAL = {"PN": pc.pn_interval_conditional,
               "PS": pc.ps_interval_conditional,
               "PNS": pc.pns_interval_conditional}

repeatable = settings(derandomize=True, database=None, deadline=None,
                      max_examples=60)

mass = st.floats(min_value=1e-3, max_value=1.0)
# where a pair sits inside its stratum's compatibility range; 0 and 1 are
# the edges
position = st.floats(min_value=0.0, max_value=1.0)
stratum = st.tuples(st.lists(mass, min_size=4, max_size=4), mass,
                    position, position)
# how far past the range a pair is pushed: within the screen's 1e-3
drift = st.floats(min_value=-0.9e-3, max_value=0.9e-3)


def _table(cells, weight):
    total = sum(cells)
    return pc.StratumTable(*(c / total for c in cells), weight=weight)


def _pair(table, u, v, du=0.0, dv=0.0):
    """P(x,y|s) <= P(y_x|s) <= 1 - P(x,y'|s), and likewise for x'; at an
    edge (u or v 0 or 1) a drift of the right sign leaves the range."""
    return (min(1.0, max(0.0, table.p_exposed_event + u * table.p_unexposed + du)),
            min(1.0, max(0.0, table.p_unexposed_event + v * table.p_exposed + dv)))


def _instance(draws):
    total_weight = sum(w for _, w, _, _ in draws)
    strata, pairs = {}, {}
    for i, (cells, w, u, v) in enumerate(draws):
        key = pc.StratumKey.of(g=i)
        strata[key] = _table(cells, w / total_weight)
        pairs[key] = _pair(strata[key], u, v)
    return _measured(strata, pairs)


def _measured(strata, pairs):
    joint = pc.StratifiedJoint(strata=strata, covariates=("g",))
    return joint, pc.ExperimentalQuantities.from_per_stratum(
        joint, pairs, provenance="measured-experimental")


instances = st.lists(stratum, min_size=1, max_size=6).map(_instance)


def _same(a, b):
    return (a.lower, a.upper, a.attainment) == (b.lower, b.upper, b.attainment)


@repeatable
@given(instances)
def test_stratified_nests_inside_tian_pearl(instance):
    joint, experimental = instance
    pooled = pc.collapse(joint, ()).only()
    for quantity in QUANTITIES:
        strat = pc.stratified_interval(quantity, joint, experimental)
        tp = pc.tian_pearl_interval(quantity, pooled, experimental.marginal)
        assert tp.lower - 1e-9 <= strat.lower
        assert strat.upper <= tp.upper + 1e-9


@repeatable
@given(stratum)
def test_ps_is_pn_on_the_swapped_table(draw):
    cells, _, u, v = draw
    table = _table(cells, 1.0)
    pair = _pair(table, u, v)
    ps = pc.ps_interval_conditional(table, pair)
    pn = pc.pn_interval_conditional(table.swap(), _swap_pair(pair))
    assert (ps.lower, ps.upper, ps.attainment) == \
        (pn.lower, pn.upper, pn.attainment)


@repeatable
@given(stratum)
def test_one_stratum_reduces_to_its_conditional_box(draw):
    cells, _, u, v = draw
    joint, experimental = _instance([(cells, 1.0, u, v)])
    (key, table), = joint.items()
    for quantity in QUANTITIES:
        strat = pc.stratified_interval(quantity, joint, experimental)
        box = CONDITIONAL[quantity](table, experimental.pair(key), key=key)
        assert strat.method == "stratified"
        assert _same(strat, box)


@repeatable
@given(stratum, drift, drift)
def test_oracle_matches_each_conditional_box(draw, du, dv):
    cells, _, u, v = draw
    table = _table(cells, 1.0)
    pair = _pair(table, u, v, du, dv)
    for quantity in QUANTITIES:
        box = CONDITIONAL[quantity](table, pair)
        searched = feasible_extrema(table, pair, quantity)
        assert searched.lower == pytest.approx(box.lower, abs=1e-12)
        assert searched.upper == pytest.approx(box.upper, abs=1e-12)


@repeatable
@given(instances, st.integers(min_value=0, max_value=5))
def test_splitting_a_stratum_changes_nothing(instance, which):
    joint, experimental = instance
    keys = joint.keys()
    split_key = keys[which % len(keys)]
    strata, pairs = {}, {}
    for key, table in joint.items():
        if key != split_key:
            strata[key], pairs[key] = table, experimental.pair(key)
            continue
        half = pc.StratumTable(table.p_exposed_event, table.p_exposed_noevent,
                               table.p_unexposed_event,
                               table.p_unexposed_noevent,
                               weight=table.weight / 2.0)
        for part in ("a", "b"):
            piece = pc.StratumKey.of(g=f"{key.level('g')}{part}")
            strata[piece], pairs[piece] = half, experimental.pair(key)
    split, split_experimental = _measured(strata, pairs)
    for quantity in QUANTITIES:
        a = pc.stratified_interval(quantity, joint, experimental)
        b = pc.stratified_interval(quantity, split, split_experimental)
        assert b.lower == pytest.approx(a.lower, abs=1e-12)
        assert b.upper == pytest.approx(a.upper, abs=1e-12)
