import numpy as np
import pytest

import pcause as pc
from pcause import bounds
from pcause.bounds import Interval, TermChoice, _swap_pair
from pcause.model import collapse
from pcause.oracle import feasible_extrema

from conftest import (
    random_instance,
    random_pair,
    random_stratum,
    reference_from_per_stratum,
    swapped,
)

TOL = 1e-12

S1 = pc.StratumKey.of(stage="1")
S2 = pc.StratumKey.of(stage="2")
S3 = pc.StratumKey.of(stage="3")


def _pn_term(table, pair, label, side):
    p_noevent_do_unexposed = 1.0 - pair[1]
    p_noevent = table.p_exposed_noevent + table.p_unexposed_noevent
    if side == "lower":
        return {"zero": 0.0,
                "excess": p_noevent_do_unexposed - p_noevent}[label]
    return {"cell": table.p_exposed_event,
            "margin": p_noevent_do_unexposed - table.p_unexposed_noevent}[label]


def _pns_term(table, pair, label, side):
    do_x, do_xp = pair
    p_noevent_do_unexposed = 1.0 - do_xp
    p_event = table.p_exposed_event + table.p_unexposed_event
    p_noevent = table.p_exposed_noevent + table.p_unexposed_noevent
    if side == "lower":
        return {"zero": 0.0,
                "treated_excess": do_x - p_event,
                "untreated_excess": p_noevent_do_unexposed - p_noevent,
                "risk_difference": do_x - do_xp}[label]
    return {"treated_event": do_x,
            "untreated_nonevent": p_noevent_do_unexposed,
            "concordant_cells": table.p_exposed_event + table.p_unexposed_noevent,
            "discordant_margin": do_x - do_xp + table.p_unexposed_event
            + table.p_exposed_noevent}[label]


class TestConditionalGolden:
    """Per-stratum boxes on the survival fixture, against exact fractions."""

    def test_pn_boxes(self, cancer_joint, cancer_experimental):
        want = {S1: (0.0, 1.0), S2: (0.0, 1.0), S3: (0.0, 5 / 21)}
        for key, t in cancer_joint.items():
            iv = pc.pn_interval_conditional(
                t, cancer_experimental.per_stratum[key], key=key)
            assert iv.quantity == "PN" and iv.method == "conditional"
            assert iv.lower == pytest.approx(want[key][0], abs=TOL)
            assert iv.upper == pytest.approx(want[key][1], abs=TOL)

    def test_pns_boxes(self, cancer_joint, cancer_experimental):
        want = {S1: (0.0, 1 / 11), S2: (0.0, 17 / 74), S3: (0.0, 1 / 7)}
        for key, t in cancer_joint.items():
            iv = pc.pns_interval_conditional(
                t, cancer_experimental.per_stratum[key], key=key)
            assert iv.lower == pytest.approx(want[key][0], abs=TOL)
            assert iv.upper == pytest.approx(want[key][1], abs=TOL)

    def test_ps_boxes(self, cancer_joint, cancer_experimental):
        want = {S1: (0.0, 6 / 55), S2: (0.0, 187 / 481), S3: (0.0, 1.0)}
        for key, t in cancer_joint.items():
            iv = pc.ps_interval_conditional(
                t, cancer_experimental.per_stratum[key], key=key)
            assert iv.lower == pytest.approx(want[key][0], abs=TOL)
            assert iv.upper == pytest.approx(want[key][1], abs=TOL)

    def test_pns_upper_terms(self, cancer_joint, cancer_experimental):
        want = {S1: "treated_event", S2: "treated_event",
                S3: "untreated_nonevent"}
        for key, t in cancer_joint.items():
            iv = pc.pns_interval_conditional(
                t, cancer_experimental.per_stratum[key], key=key)
            (choice,) = iv.attainment
            assert choice.stratum == key
            assert choice.upper == want[key]


class TestStratifiedGolden:
    def test_pn(self, cancer_joint, cancer_experimental):
        iv = pc.stratified_interval("PN", cancer_joint, cancer_experimental)
        assert iv.method == "stratified"
        assert iv.lower == pytest.approx(0.0, abs=TOL)
        assert iv.upper == pytest.approx(169 / 217, abs=TOL)
        assert [c.upper for c in iv.attainment] == ["cell", "cell", "margin"]
        assert [c.lower for c in iv.attainment] == ["zero", "zero", "zero"]

    def test_pns(self, cancer_joint, cancer_experimental):
        iv = pc.stratified_interval("PNS", cancer_joint, cancer_experimental)
        assert iv.lower == pytest.approx(0.0, abs=TOL)
        assert iv.upper == pytest.approx(0.16816573066573068, abs=1e-9)

    def test_ps(self, cancer_joint, cancer_experimental):
        iv = pc.stratified_interval("PS", cancer_joint, cancer_experimental)
        assert iv.lower == pytest.approx(0.0, abs=TOL)
        assert iv.upper == pytest.approx(0.3257985257985258, abs=1e-9)

    def test_direct_formula_recomputation(self, cancer_joint,
                                          cancer_experimental):
        # the per-stratum min sits inside the weighted sum, not outside it
        num_lo = num_hi = denom = 0.0
        for key, t in cancer_joint.items():
            do_x, do_xp = cancer_experimental.per_stratum[key]
            pnx = 1.0 - do_xp
            p_noevent = t.p_exposed_noevent + t.p_unexposed_noevent
            num_lo += max(0.0, pnx - p_noevent) * t.weight
            num_hi += min(t.p_exposed_event, pnx - t.p_unexposed_noevent) * t.weight
            denom += t.p_exposed_event * t.weight
        iv = pc.stratified_interval("PN", cancer_joint, cancer_experimental)
        assert iv.lower == pytest.approx(num_lo / denom, abs=TOL)
        assert iv.upper == pytest.approx(num_hi / denom, abs=TOL)
        # the shared denominator is the marginal cell
        assert denom == pytest.approx(
            sum(t.p_exposed_event * t.weight for _, t in cancer_joint.items()),
            abs=TOL)


class TestTianPearlGolden:
    def test_all_quantities(self, cancer_joint, cancer_experimental):
        pooled = collapse(cancer_joint, ()).only()
        marginal = cancer_experimental.marginal
        pn = pc.tian_pearl_interval("PN", pooled, marginal)
        pns = pc.tian_pearl_interval("PNS", pooled, marginal)
        ps = pc.tian_pearl_interval("PS", pooled, marginal)
        assert pn.method == "tian-pearl"
        assert (pn.lower, pn.upper) == (pytest.approx(0.0, abs=TOL),
                                        pytest.approx(1.0, abs=TOL))
        assert pns.lower == pytest.approx(0.0, abs=TOL)
        assert pns.upper == pytest.approx(marginal[0], abs=TOL)
        assert ps.lower == pytest.approx(0.0, abs=TOL)
        assert ps.upper == pytest.approx(0.5817985257985258, abs=1e-9)

    def test_stratified_nests_inside(self, cancer_joint, cancer_experimental):
        pooled = collapse(cancer_joint, ()).only()
        for quantity in ("PN", "PS", "PNS"):
            inner = pc.stratified_interval(quantity, cancer_joint,
                                           cancer_experimental)
            outer = pc.tian_pearl_interval(quantity, pooled,
                                           cancer_experimental.marginal)
            assert inner.lower >= outer.lower - TOL
            assert inner.upper <= outer.upper + TOL


class TestSwapSymmetry:
    def test_conditional_exact(self):
        rng = np.random.default_rng(2201)
        for _ in range(50):
            t = random_stratum(rng)
            pair = random_pair(rng, t)
            ps = pc.ps_interval_conditional(t, pair)
            pn = pc.pn_interval_conditional(swapped(t), _swap_pair(pair))
            assert ps.lower == pn.lower
            assert ps.upper == pn.upper
            assert [(c.lower, c.upper) for c in ps.attainment] == \
                   [(c.lower, c.upper) for c in pn.attainment]

    def test_stratified_exact(self):
        rng = np.random.default_rng(2202)
        for _ in range(20):
            joint, experimental = random_instance(rng)
            sw_joint = pc.StratifiedJoint(
                strata={k: swapped(t) for k, t in joint.items()},
                covariates=joint.covariates)
            sw_pairs = {k: _swap_pair(experimental.per_stratum[k])
                        for k in joint.keys()}
            sw_exp = reference_from_per_stratum(
                sw_joint, sw_pairs, provenance="measured-experimental")
            ps = pc.stratified_interval("PS", joint, experimental)
            pn = pc.stratified_interval("PN", sw_joint, sw_exp)
            assert ps.lower == pn.lower
            assert ps.upper == pn.upper


class TestSingleStratumReduction:
    def test_bitwise_equality(self):
        rng = np.random.default_rng(2203)
        for drift in (1.0, 1.0 - 4e-10):
            for _ in range(20):
                t = random_stratum(rng, weight=drift)
                pair = random_pair(rng, t)
                key = pc.StratumKey.of(g="1")
                joint = pc.StratifiedJoint(strata={key: t}, covariates=("g",))
                for quantity, box in (("PN", pc.pn_interval_conditional),
                                      ("PS", pc.ps_interval_conditional),
                                      ("PNS", pc.pns_interval_conditional)):
                    exp = reference_from_per_stratum(
                        joint, {key: pair}, provenance="measured-experimental")
                    strat = pc.stratified_interval(quantity, joint, exp)
                    cond = box(t, pair, key=key)
                    assert strat.method == "stratified"
                    assert strat.lower == cond.lower
                    assert strat.upper == cond.upper
                    assert strat.attainment == cond.attainment


class TestNestingProperty:
    def test_random_instances(self):
        rng = np.random.default_rng(2204)
        for _ in range(50):
            joint, experimental = random_instance(rng, n_strata=int(rng.integers(2, 5)))
            pooled = collapse(joint, ()).only()
            for quantity in ("PN", "PS", "PNS"):
                inner = pc.stratified_interval(quantity, joint, experimental)
                outer = pc.tian_pearl_interval(quantity, pooled,
                                               experimental.marginal)
                assert inner.lower >= outer.lower - TOL
                assert inner.upper <= outer.upper + TOL


class TestDuplicationStability:
    def test_split_stratum_changes_nothing(self):
        rng = np.random.default_rng(2205)
        for _ in range(20):
            joint, experimental = random_instance(rng, n_strata=2)
            (k1, t1), (k2, t2) = joint.items()
            half = pc.StratumTable(t2.p_exposed_event, t2.p_exposed_noevent,
                                   t2.p_unexposed_event, t2.p_unexposed_noevent,
                                   weight=t2.weight / 2.0)
            k2a = pc.StratumKey.of(g="2a")
            k2b = pc.StratumKey.of(g="2b")
            split = pc.StratifiedJoint(
                strata={pc.StratumKey.of(g="1"): t1, k2a: half, k2b: half},
                covariates=("g",))
            pairs = {pc.StratumKey.of(g="1"): experimental.per_stratum[k1],
                     k2a: experimental.per_stratum[k2],
                     k2b: experimental.per_stratum[k2]}
            split_exp = reference_from_per_stratum(
                split, pairs, provenance="measured-experimental")
            for quantity in ("PN", "PS", "PNS"):
                a = pc.stratified_interval(quantity, joint, experimental)
                b = pc.stratified_interval(quantity, split, split_exp)
                assert b.lower == pytest.approx(a.lower, abs=TOL)
                assert b.upper == pytest.approx(a.upper, abs=TOL)


class TestAttainmentFaithful:
    """The recorded term choices reconstruct the interval endpoints."""

    def test_stratified_pn_and_pns(self):
        rng = np.random.default_rng(2206)
        for _ in range(30):
            joint, experimental = random_instance(rng)
            iv = pc.stratified_interval("PN", joint, experimental)
            denom = sum(t.p_exposed_event * t.weight for _, t in joint.items())
            lo = sum(_pn_term(joint.strata[c.stratum],
                              experimental.per_stratum[c.stratum],
                              c.lower, "lower")
                     * joint.strata[c.stratum].weight for c in iv.attainment)
            hi = sum(_pn_term(joint.strata[c.stratum],
                              experimental.per_stratum[c.stratum],
                              c.upper, "upper")
                     * joint.strata[c.stratum].weight for c in iv.attainment)
            assert iv.lower == pytest.approx(lo / denom, abs=TOL)
            assert iv.upper == pytest.approx(hi / denom, abs=TOL)

            iv = pc.stratified_interval("PNS", joint, experimental)
            lo = sum(_pns_term(joint.strata[c.stratum],
                               experimental.per_stratum[c.stratum],
                               c.lower, "lower")
                     * joint.strata[c.stratum].weight for c in iv.attainment)
            hi = sum(_pns_term(joint.strata[c.stratum],
                               experimental.per_stratum[c.stratum],
                               c.upper, "upper")
                     * joint.strata[c.stratum].weight for c in iv.attainment)
            assert iv.lower == pytest.approx(lo, abs=TOL)
            assert iv.upper == pytest.approx(hi, abs=TOL)

    def test_terms_really_are_the_extremes(self):
        rng = np.random.default_rng(2207)
        for _ in range(30):
            t = random_stratum(rng)
            pair = random_pair(rng, t)
            iv = pc.pns_interval_conditional(t, pair)
            lows = [_pns_term(t, pair, lab, "lower")
                    for lab in ("zero", "treated_excess", "untreated_excess",
                                "risk_difference")]
            ups = [_pns_term(t, pair, lab, "upper")
                   for lab in ("treated_event", "untreated_nonevent",
                               "concordant_cells", "discordant_margin")]
            assert iv.lower == pytest.approx(max(lows), abs=TOL)
            assert iv.upper == pytest.approx(min(ups), abs=TOL)


class TestIncompatibility:
    def _bad_inputs(self):
        t = pc.StratumTable(0.2, 0.3, 0.1, 0.4, weight=1.0)
        # do-unexposed above 1 - P(x', y'|s) = 0.6 is impossible
        return t, (t.risk_exposed, 0.95)

    def test_validation_raises(self):
        t, pair = self._bad_inputs()
        with pytest.raises(pc.IncompatibilityError, match="unexposed-upper"):
            pc.pn_interval_conditional(t, pair)

    def test_clamp_clips_range_drift(self):
        # Both pairs sit 5e-4 outside their range, within the screen's
        # tolerance, so they are accepted and moved onto the range.
        t = pc.StratumTable(0.2, 0.3, 0.1, 0.4, weight=1.0)
        low_unexposed, high_exposed = (0.45, 0.0995), (0.7005, 0.35)
        pn = pc.pn_interval_conditional(t, low_unexposed)
        assert (pn.lower, pn.upper) == (1.0, 1.0)
        for quantity, box, pair in (
                ("PS", pc.ps_interval_conditional, high_exposed),
                ("PNS", pc.pns_interval_conditional, low_unexposed),
                ("PNS", pc.pns_interval_conditional, high_exposed)):
            iv = box(t, pair)
            searched = feasible_extrema(t, pair, quantity)
            assert iv.lower == pytest.approx(searched.lower, abs=TOL)
            assert iv.upper == pytest.approx(searched.upper, abs=TOL)

    def test_screen_tolerance_is_1e_3(self):
        # P(y_x'|s) must be at least P(x',y|s) = 0.1: 1.2e-3 below it is
        # rejected, and 0.9e-3 below it is moved onto it
        t = pc.StratumTable(0.2, 0.3, 0.1, 0.4, weight=1.0)
        with pytest.raises(pc.IncompatibilityError, match="unexposed-lower"):
            pc.pn_interval_conditional(t, (0.45, 0.1 - 1.2e-3))
        assert pc.pn_interval_conditional(t, (0.45, 0.1 - 0.9e-3)) == \
            pc.pn_interval_conditional(t, (0.45, 0.1))

    def test_a_pair_exactly_1e_3_outside_is_accepted(self):
        # P(x, y|s) - P(y_x|s) = 0.002 - 0.001 is exactly 1e-3
        t = pc.StratumTable(0.002, 0.498, 0.1, 0.4, weight=1.0)
        assert pc.pn_interval_conditional(t, (0.001, 0.45)) == \
            pc.pn_interval_conditional(t, (0.002, 0.45))
        # beside a breach, the inequality at exactly 1e-3 is not named
        with pytest.raises(pc.IncompatibilityError) as exc:
            pc.pn_interval_conditional(t, (0.001, 0.1 - 1.2e-3))
        assert str(exc.value).endswith("(unexposed-lower by 0.0012)")

    def test_stratified_moves_accepted_pairs_onto_their_range(self):
        t = pc.StratumTable(0.2, 0.3, 0.1, 0.4, weight=0.5)
        a, b = pc.StratumKey.of(g=1), pc.StratumKey.of(g=2)
        joint = pc.StratifiedJoint({a: t, b: t}, covariates=("g",))

        def endpoints(pair):
            experimental = reference_from_per_stratum(
                joint, {a: pair, b: (0.45, 0.35)},
                provenance="measured-experimental")
            return [(iv.lower, iv.upper) for iv in (
                pc.stratified_interval(q, joint, experimental)
                for q in ("PN", "PS", "PNS"))]

        # 5e-4 below P(x',y|s) and 5e-4 above 1 - P(x,y'|s)
        assert endpoints((0.45, 0.0995)) == endpoints(
            (0.45, t.p_unexposed_event))
        assert endpoints((0.7005, 0.35)) == endpoints(
            (1.0 - t.p_exposed_noevent, 0.35))

    def test_stratified_names_worst_stratum(self, cancer_joint):
        pairs = {key: (t.risk_exposed, t.risk_unexposed)
                 for key, t in cancer_joint.items()}
        pairs[S2] = (pairs[S2][0], 0.99)
        bad = reference_from_per_stratum(
            cancer_joint, pairs, provenance="measured-experimental")
        with pytest.raises(pc.IncompatibilityError, match="stage=2"):
            pc.stratified_interval("PN", cancer_joint, bad)

    # A screened pair leaves a non-empty box, so only float error can
    # invert one; crafted PNS terms (no denominator) reach both checks.
    # Each end is 0.5 in both strata, and halving is exact, so the weighted
    # sums give the same ends and the gap to 0.5 is exactly what is added.
    @pytest.mark.parametrize("route", ["boxes", "stratified"])
    @pytest.mark.parametrize("gap", [1e-9, 2e-9])
    def test_ends_may_invert_by_1e_9(self, route, gap, monkeypatch):
        def chosen(quantity, cells, pairs):
            upper = np.full(len(cells), 0.5)
            first = np.zeros(len(cells), dtype=np.intp)
            return None, upper + gap, upper, first, first

        monkeypatch.setattr(bounds, "_chosen", chosen)
        t = pc.StratumTable(0.2, 0.3, 0.1, 0.4, weight=0.5)
        joint = pc.StratifiedJoint({S1: t, S2: t}, covariates=("stage",))
        experimental = pc.adjusted_experimental(joint)

        def ends():
            if route == "boxes":
                boxes = bounds._conditional_rows("PNS", joint, experimental)
                return set(boxes.lower.tolist()), set(boxes.upper.tolist())
            iv = pc.stratified_interval("PNS", joint, experimental)
            return {iv.lower}, {iv.upper}

        if gap == 1e-9:
            assert ends() == ({0.5 + 1e-9}, {0.5})
        else:
            where = " in stratum stage=1" if route == "boxes" else ""
            with pytest.raises(pc.IncompatibilityError) as exc:
                ends()
            assert str(exc.value) == (
                f"PNS bounds invert{where}: lower 0.5 > upper 0.5; "
                "observational and experimental inputs conflict")


class TestPositivity:
    def test_pn_needs_exposed_cases(self):
        t = pc.StratumTable(0.0, 0.5, 0.2, 0.3, weight=1.0)
        with pytest.raises(pc.PositivityError, match="exposed cases"):
            pc.pn_interval_conditional(t, (0.0, 0.4))

    def test_ps_needs_unexposed_noncases(self):
        t = pc.StratumTable(0.2, 0.3, 0.5, 0.0, weight=1.0)
        with pytest.raises(pc.PositivityError, match="unexposed non-cases"):
            pc.ps_interval_conditional(t, (0.4, 1.0))


class TestIntervalType:
    def test_invariants(self):
        with pytest.raises(pc.ValidationError):
            Interval(lower=0.5, upper=0.2, quantity="PN", method="oracle")
        # a lower end above the upper by up to 1e-9 is rounding
        with pytest.raises(pc.ValidationError):
            Interval(lower=0.5 + 2e-9, upper=0.5, quantity="PN",
                     method="oracle")
        Interval(lower=0.5 + 0.5e-9, upper=0.5, quantity="PN", method="oracle")
        # ... and exactly 1e-9 above still is
        Interval(lower=0.5 + 1e-9, upper=0.5, quantity="PN", method="oracle")
        with pytest.raises(pc.ValidationError):
            Interval(lower=0.0, upper=1.0, quantity="XX", method="oracle")
        with pytest.raises(pc.ValidationError):
            Interval(lower=0.0, upper=1.0, quantity="PN", method="magic")

    def test_width_and_contains(self):
        iv = Interval(lower=0.2, upper=0.5, quantity="PN", method="oracle")
        assert iv.upper - iv.lower == pytest.approx(0.3, abs=TOL)
        assert iv.contains(0.2) and iv.contains(0.5)
        # the ends widened by exactly 1e-9 are inside
        assert iv.contains(0.2 - 1e-9) and iv.contains(0.5 + 1e-9)
        assert not iv.contains(0.6)

    def test_unknown_quantity_rejected(self, cancer_joint, cancer_experimental):
        with pytest.raises(pc.ValidationError):
            pc.stratified_interval("PM", cancer_joint, cancer_experimental)
        pooled = collapse(cancer_joint, ()).only()
        with pytest.raises(pc.ValidationError):
            pc.tian_pearl_interval("PM", pooled, cancer_experimental.marginal)
