import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pcause as pc
from pcause.identify import (
    OUTSIDE_UNIT_WARNING,
    monotonicity_diagnostic,
    pns_point,
)
from pcause.model import load_experimental
from pcause.simulate import builtin_scenarios

from conftest import (
    random_monotone_stratum,
    random_stratum,
    reference_from_per_stratum,
    reference_pn_point,
    reference_pns_point,
)

TOL = 1e-12

def _scenario(name):
    return next(sc for sc in builtin_scenarios() if sc.name == name)


FLAGGED_RISK_DIFFERENCES = {
    "1": -0.07575757575757575,
    "2": -0.17936117936117942,
    "3": -0.2571428571428571,
}


def _monotone_joint(rng, n_strata=3):
    strata = {}
    raw = rng.dirichlet(np.full(n_strata, 3.0))
    raw = 0.05 + 0.95 * raw / raw.sum()
    raw = raw / raw.sum()
    for i in range(n_strata):
        t = random_monotone_stratum(rng)
        strata[pc.StratumKey.of(g=str(i))] = pc.StratumTable(
            t.p_exposed_event, t.p_exposed_noevent,
            t.p_unexposed_event, t.p_unexposed_noevent, weight=float(raw[i]))
    return pc.StratifiedJoint(strata=strata, covariates=("g",))


class TestPointEstimates:
    def test_survival_fixture_values(self, cancer_joint):
        pn = pc.pn_point(cancer_joint)
        pns = pns_point(cancer_joint)
        assert pn.value == pytest.approx(-0.6869850579528003, abs=1e-9)
        assert pns.value == pytest.approx(-0.15495611276861276, abs=1e-9)
        assert pn.quantity == "PN" and pns.quantity == "PNS"
        assert OUTSIDE_UNIT_WARNING in pn.warnings
        assert OUTSIDE_UNIT_WARNING in pns.warnings
        assert pn.n == cancer_joint.total_n == 192

    def test_in_range_estimate_has_no_warning(self):
        rng = np.random.default_rng(901)
        joint = replace(_monotone_joint(rng), total_n=500)
        pn = pc.pn_point(joint)
        pns = pns_point(joint)
        assert pn.warnings == () and pns.warnings == ()
        assert 0.0 <= pn.value <= 1.0
        assert 0.0 <= pns.value <= 1.0

    def test_single_stratum_closed_form(self):
        # risks 0.5 vs 0.2: PN = (0.5 - 0.2) / 0.5, PNS = 0.3
        t = pc.StratumTable(0.25, 0.25, 0.10, 0.40, weight=1.0)
        joint = pc.StratifiedJoint(
            strata={pc.StratumKey.of(g="1"): t}, covariates=("g",))
        assert pc.pn_point(joint).value == pytest.approx(0.6, abs=TOL)
        assert pns_point(joint).value == pytest.approx(0.3, abs=TOL)

    def test_estimand_matches_direct_formula(self, cancer_joint):
        # PNS sums risk differences over strata; PN reweights them by the
        # exposure share before dividing by the exposed-case mass
        pns = 0.0
        pn_num = 0.0
        pxy = 0.0
        for _, t in cancer_joint.items():
            rd = t.risk_exposed - t.risk_unexposed
            pns += rd * t.weight
            pn_num += rd * t.p_exposed * t.weight
            pxy += t.p_exposed_event * t.weight
        assert pns_point(cancer_joint).value == \
            pytest.approx(pns, abs=TOL)
        assert pc.pn_point(cancer_joint).value == \
            pytest.approx(pn_num / pxy, abs=TOL)


class TestAsymptoticVariance:
    def test_known_population_value(self):
        # two-stratum population with exact hand-checkable variance pieces
        strata = {
            pc.StratumKey.of(s="1"): pc.StratumTable(0.56, 0.24, 0.16, 0.04,
                                                     weight=0.5),
            pc.StratumKey.of(s="2"): pc.StratumTable(0.06, 0.14, 0.32, 0.48,
                                                     weight=0.5),
        }
        joint = pc.StratifiedJoint(strata=strata, covariates=("s",),
                                   total_n=1000)
        est = pns_point(joint)
        base = 0.0
        for _, t in joint.items():
            rx, rxp = t.risk_exposed, t.risk_unexposed
            # arm masses are joint P(x, s), so one weight power survives
            base += (rx * (1 - rx) / (t.p_exposed * t.weight)
                     + rxp * (1 - rxp) / (t.p_unexposed * t.weight)) \
                * t.weight ** 2
        assert est.avar == pytest.approx(base / 1000.0, rel=1e-12)
        assert est.se == pytest.approx(math.sqrt(est.avar), abs=TOL)

    def test_exact_inverse_n_scaling(self):
        rng = np.random.default_rng(902)
        joint = _monotone_joint(rng)
        for point in (pc.pn_point, pns_point):
            a500 = point(replace(joint, total_n=500)).avar
            a1000 = point(replace(joint, total_n=1000)).avar
            assert a500 == pytest.approx(2.0 * a1000, rel=1e-12)

    def test_missing_sample_size(self):
        rng = np.random.default_rng(903)
        joint = _monotone_joint(rng)  # synthetic joints carry no total_n
        for point in (pc.pn_point, pns_point):
            est = point(joint)
            assert est.avar is None
            assert est.n is None
            assert est.se is None

    def test_degenerate_population_has_zero_variance(self):
        t = pc.StratumTable(0.3, 0.0, 0.0, 0.7, weight=1.0)
        joint = pc.StratifiedJoint(
            strata={pc.StratumKey.of(g="1"): t}, covariates=("g",),
            total_n=100)
        est = pns_point(joint)
        assert est.value == pytest.approx(1.0, abs=TOL)
        assert est.avar == 0.0

    def test_positivity_failure_names_stratum(self):
        strata = {
            pc.StratumKey.of(g="1"): pc.StratumTable(0.4, 0.4, 0.1, 0.1,
                                                     weight=0.5),
            pc.StratumKey.of(g="2"): pc.StratumTable(0.0, 0.0, 0.6, 0.4,
                                                     weight=0.5),
        }
        joint = pc.StratifiedJoint(strata=strata, covariates=("g",))
        with pytest.raises(pc.PositivityError, match="g=2"):
            pc.pn_point(joint)


# Raw stratum masses down to 1e-3 of the largest; one cell in eight is
# empty, so that arms or all exposed cases can vanish.
_mass = st.floats(min_value=1e-3, max_value=1.0)
_cell = st.one_of([_mass] * 7 + [st.just(0.0)])
_raw_strata = st.lists(
    st.tuples(st.lists(_cell, min_size=4, max_size=4).filter(any), _mass),
    min_size=1, max_size=6)


def _raw_joint(strata, total_n):
    total = sum(w for _, w in strata)
    tables = {pc.StratumKey.of(g=str(i)):
              pc.StratumTable(*(c / sum(cells) for c in cells),
                              weight=w / total)
              for i, (cells, w) in enumerate(strata)}
    return pc.StratifiedJoint(strata=tables, covariates=("g",),
                              total_n=total_n)


def _outcome(point, joint):
    try:
        return repr(point(joint))
    except pc.PositivityError as exc:
        return f"PositivityError: {exc}"


# Joints on which a square taken as x * x instead of Python's x ** 2 moves
# the last digit of the a.var: PN's through (1 - PN) ** 2, PNS's through a
# stratum weight ** 2.
_PN_SQUARE = [([0.456, 0.75, 0.727, 0.066], 0.9926900812678664),
              ([0.068, 0.562, 0.909, 0.53], 0.8283032044818356)]
_PNS_SQUARE = [([0.514, 0.47, 0.444, 0.152], 0.27894293615552185),
               ([0.45, 0.072, 0.675, 0.244], 0.29098470889494615)]


class TestArrayKernel:
    """pn_point and pns_point score through one array function; its floats,
    warnings and errors are those of the scalar loops in conftest."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(_raw_strata, st.integers(min_value=1, max_value=10**9) | st.none())
    @example(_PN_SQUARE, 1000)
    @example(_PNS_SQUARE, 1000)
    @example([([0.0, 0.5, 0.5, 0.5], 0.5), ([0.0, 0.2, 0.3, 0.4], 0.5)], 10)
    @example([([0.5, 0.5, 0.5, 0.5], 0.5), ([0.5, 0.5, 0.0, 0.0], 0.5)], 10)
    def test_matches_the_scalar_loops(self, strata, total_n):
        joint = _raw_joint(strata, total_n)
        assert _outcome(pc.pn_point, joint) == \
            _outcome(reference_pn_point, joint)
        assert _outcome(pns_point, joint) == \
            _outcome(reference_pns_point, joint)

    def test_many_strata_add_in_order(self):
        # enough strata that a pairwise sum (np.sum) and the left-to-right
        # loop give different last digits
        rng = np.random.default_rng(904)
        weights = rng.dirichlet(np.ones(2000)).tolist()
        joint = pc.StratifiedJoint(
            strata={pc.StratumKey.of(g=f"{i:04d}"): random_stratum(rng, w)
                    for i, w in enumerate(weights)},
            covariates=("g",), total_n=10**6)
        assert repr(pc.pn_point(joint)) == repr(reference_pn_point(joint))
        assert repr(pns_point(joint)) == repr(reference_pns_point(joint))

    def test_pinned_joints_square_where_pow_and_multiply_differ(self):
        v = reference_pn_point(_raw_joint(_PN_SQUARE, 1000)).value
        assert (1.0 - v) ** 2 != (1.0 - v) * (1.0 - v)
        weights = [t.weight for _, t in _raw_joint(_PNS_SQUARE, 1000).items()]
        assert any(w ** 2 != w * w for w in weights)


class TestStratifierInvariance:
    """Estimates agree across stratifiers when the extra covariate is inert."""

    def test_setting_one_population(self):
        scenario = _scenario("setting-1")
        values = {}
        for stratifier in (("s",), ("t",), ("s", "t")):
            joint = scenario.population_joint(stratifier, n=1000)
            values[stratifier] = (pc.pn_point(joint).value,
                                  pns_point(joint).value)
        assert values[("s",)] == pytest.approx(values[("t",)], abs=TOL)
        assert values[("s",)] == pytest.approx(values[("s", "t")], abs=TOL)
        assert values[("s",)][0] == pytest.approx(-0.17482517482517487, abs=1e-9)
        assert values[("s",)][1] == pytest.approx(-0.09999999999999998, abs=1e-9)

    def test_setting_one_avar_ordering(self):
        scenario = _scenario("setting-1")
        avars = {}
        for stratifier in (("s",), ("t",), ("s", "t")):
            joint = scenario.population_joint(stratifier, n=1000)
            avars[stratifier] = (pc.pn_point(joint).avar,
                                 pns_point(joint).avar)
        assert avars[("s",)][0] == pytest.approx(0.0034, abs=1e-4)
        assert avars[("s",)][1] == pytest.approx(0.0009, abs=1e-4)
        for i in (0, 1):
            assert avars[("s",)][i] <= avars[("s", "t")][i] + TOL
            assert avars[("s", "t")][i] <= avars[("t",)][i] + TOL


class TestMonotonicityDiagnostic:
    def test_survival_fixture_flags_everything(self, cancer_joint,
                                               cancer_experimental):
        report = monotonicity_diagnostic(cancer_joint, cancer_experimental)
        assert len(report.risk_differences) == 3
        for key, rd in report.risk_differences:
            level = dict(key.labels)["stage"]
            assert rd == pytest.approx(FLAGGED_RISK_DIFFERENCES[level], abs=1e-6)
        assert set(report.flagged) == set(cancer_joint.keys())
        assert report.pn.value == pytest.approx(-0.6869850579528003, abs=1e-9)
        assert not report.pn_consistent
        assert not report.plausible

    @pytest.mark.parametrize("gap, flagged", [(2e-12, 3), (0.5e-12, 0)])
    def test_risk_differences_below_minus_1e_12_are_flagged(
            self, cancer_joint, gap, flagged):
        # each pair is inside both of its stratum's ranges
        text = json.dumps({"strata": [
            {"levels": {"stage": stage}, "p_event_do_exposed": do_x,
             "p_event_do_unexposed": do_x + gap}
            for stage, do_x in (("1", 0.2), ("2", 0.3), ("3", 0.5))]})
        experimental = load_experimental(io.StringIO(text), cancer_joint)
        report = monotonicity_diagnostic(cancer_joint, experimental)
        assert len(report.flagged) == flagged

    def test_interval_consistency_checked(self, cancer_joint,
                                          cancer_experimental):
        report = monotonicity_diagnostic(cancer_joint, cancer_experimental)
        assert report.pn_interval.method == "stratified"
        assert not report.pn_interval.contains(report.pn.value)
        assert not report.pns_interval.contains(report.pns.value)

    def test_monotone_population_is_plausible(self):
        t = pc.StratumTable(0.25, 0.25, 0.10, 0.40, weight=1.0)
        joint = pc.StratifiedJoint(
            strata={pc.StratumKey.of(g="1"): t}, covariates=("g",))
        exp = reference_from_per_stratum(
            joint, {pc.StratumKey.of(g="1"): (0.5, 0.2)},
            provenance="measured-experimental")
        report = monotonicity_diagnostic(joint, exp)
        assert report.flagged == ()
        assert report.pn.value == pytest.approx(0.6, abs=TOL)
        assert report.pn_consistent and report.pns_consistent
        assert report.plausible
