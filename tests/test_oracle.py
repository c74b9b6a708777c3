import json

import numpy as np
import pytest

import pcause as pc
import pcause.bounds
from pcause.cli import run
from pcause.identify import pns_point
from pcause.model import _clip_pairs, _matched_pairs
from pcause.oracle import VerificationEntry, feasible_extrema

from conftest import CANCER_CSV, assert_intervals_certified, \
    random_instance, random_joint, random_monotone_stratum, random_pair, \
    random_stratum, reference_count_table, reference_from_per_stratum, \
    screen_violations

TOL = 1e-9

PROBE_TABLE = pc.StratumTable(0.2, 0.3, 0.1, 0.4, weight=1.0)
# consistency box for PROBE_TABLE: do-exposed in [0.2, 0.7],
# do-unexposed in [0.1, 0.6]
OUTSIDE_PAIRS = [
    ((0.75, 0.30), "exposed-upper"),
    ((0.15, 0.30), "exposed-lower"),
    ((0.30, 0.65), "unexposed-upper"),
    ((0.30, 0.05), "unexposed-lower"),
]


class TestClosedFormsAgree:
    def test_survival_fixture_strata(self, cancer_joint, cancer_experimental):
        boxes = {"PN": pc.pn_interval_conditional,
                 "PS": pc.ps_interval_conditional,
                 "PNS": pc.pns_interval_conditional}
        for key, table in cancer_joint.items():
            pair = cancer_experimental.per_stratum[key]
            for quantity, box in boxes.items():
                closed = box(table, pair, key=key)
                searched = feasible_extrema(table, pair, quantity)
                assert searched.method == "oracle"
                assert searched.lower == pytest.approx(closed.lower, abs=TOL)
                assert searched.upper == pytest.approx(closed.upper, abs=TOL)

    def test_random_strata(self):
        rng = np.random.default_rng(3301)
        boxes = {"PN": pc.pn_interval_conditional,
                 "PS": pc.ps_interval_conditional,
                 "PNS": pc.pns_interval_conditional}
        for _ in range(50):
            t = random_stratum(rng)
            pair = random_pair(rng, t)
            for quantity, box in boxes.items():
                closed = box(t, pair)
                searched = feasible_extrema(t, pair, quantity)
                assert searched.lower == pytest.approx(closed.lower, abs=TOL)
                assert searched.upper == pytest.approx(closed.upper, abs=TOL)

    def test_dense_sweep_stays_inside_the_ends(self):
        # every quantity is linear in each arm's always-mass, so a dense
        # sweep reaches the two ends the oracle evaluates and goes no further
        rng = np.random.default_rng(3302)
        for _ in range(10):
            t = random_stratum(rng)
            pair = random_pair(rng, t)
            swept = _dense_sweep(t, pair)
            for quantity, values in swept.items():
                searched = feasible_extrema(t, pair, quantity)
                assert values.min() == pytest.approx(searched.lower, abs=1e-12)
                assert values.max() == pytest.approx(searched.upper, abs=1e-12)


def _dense_sweep(table, pair, points=1001):
    """PN, PS and PNS at ``points`` always-mass values per arm, with the
    other type masses taken from the arm's two matching equations:
    always + helped = P(y_x | arm, s) and always + hurt = P(y_x' | arm, s)."""
    arms = []
    for y_x, y_xp in (
            (table.risk_exposed,
             (pair[1] - table.p_unexposed_event) / table.p_exposed),
            ((pair[0] - table.p_exposed_event) / table.p_unexposed,
             table.risk_unexposed)):
        always = np.linspace(max(0.0, y_x + y_xp - 1.0), min(y_x, y_xp),
                             points)
        helped, hurt = y_x - always, y_xp - always
        never = 1.0 - y_x - y_xp + always
        assert min(m.min() for m in (always, helped, hurt, never)) > -1e-12
        arms.append((helped, never))
    (helped_x, _), (helped_xp, never_xp) = arms
    pns = (table.p_exposed * helped_x)[:, None] + \
        (table.p_unexposed * helped_xp)[None, :]
    return {"PN": helped_x / table.risk_exposed,
            "PS": helped_xp / (helped_xp + never_xp),
            "PNS": pns.ravel()}


class TestNoPrevention:
    def test_collapses_to_point_estimates(self):
        rng = np.random.default_rng(3303)
        for _ in range(30):
            t = random_monotone_stratum(rng)
            pair = (t.risk_exposed, t.risk_unexposed)
            key = pc.StratumKey.of(g="1")
            joint = pc.StratifiedJoint(strata={key: t}, covariates=("g",))
            pn = feasible_extrema(t, pair, "PN", no_prevention=True)
            pns = feasible_extrema(t, pair, "PNS", no_prevention=True)
            assert pn.lower == pn.upper
            assert pns.lower == pns.upper
            assert pn.lower == pytest.approx(
                pc.pn_point(joint).value, abs=TOL)
            assert pns.lower == pytest.approx(
                pns_point(joint).value, abs=TOL)

    def test_prevention_tolerance_is_1e_3(self):
        # P(y_x'|x) = (0.3755 - 0.25) / 0.5 is 0.251 against P(y|x) = 0.25,
        # and P(y_x|x') = (0.3745 - 0.125) / 0.5 is 0.499 against
        # P(y|x') = 0.5: both exactly 1e-3 apart in floats, and forgiven
        t = pc.StratumTable(0.125, 0.375, 0.25, 0.25, weight=1.0)
        for quantity in ("PN", "PS", "PNS"):
            feasible_extrema(t, (0.3745, 0.3755), quantity, no_prevention=True)
        for pair in ((0.3745, 0.376), (0.374, 0.3755)):
            with pytest.raises(pc.IncompatibilityError,
                               match="without prevention"):
                feasible_extrema(t, pair, "PN", no_prevention=True)

    def test_prevention_required_cases_rejected(self):
        # exposed risk below unexposed risk forces a positive hurt mass
        t = pc.StratumTable(0.10, 0.40, 0.30, 0.20, weight=1.0)
        pair = (t.risk_exposed, t.risk_unexposed)
        with pytest.raises(pc.IncompatibilityError, match="without prevention"):
            feasible_extrema(t, pair, "PN", no_prevention=True)


class TestFeasibilityEquivalence:
    @pytest.mark.parametrize("pair,name", OUTSIDE_PAIRS)
    def test_outside_box_rejected_by_both_routes(self, pair, name):
        violations = screen_violations(PROBE_TABLE, pair)
        assert [v for v, _excess in violations] == [name]
        with pytest.raises(pc.IncompatibilityError, match=rf"\b{name} by"):
            feasible_extrema(PROBE_TABLE, pair, "PNS")
        for box in (pc.pn_interval_conditional, pc.ps_interval_conditional,
                    pc.pns_interval_conditional):
            with pytest.raises(pc.IncompatibilityError, match=rf"\b{name} by"):
                box(PROBE_TABLE, pair)

    def test_inside_box_accepted_by_both_routes(self):
        rng = np.random.default_rng(3304)
        for _ in range(25):
            t = random_stratum(rng)
            pair = random_pair(rng, t)
            assert screen_violations(t, pair) == []
            feasible_extrema(t, pair, "PNS")  # must not raise

    def test_boundary_pair_accepted(self):
        pair = (0.7, 0.6)  # both coordinates exactly on the box edge
        assert screen_violations(PROBE_TABLE, pair) == []
        iv = feasible_extrema(PROBE_TABLE, pair, "PN")
        assert 0.0 <= iv.lower <= iv.upper


class TestIntervalsCertified:
    """The stratified and Tian-Pearl intervals against the search."""

    def test_survival_fixture(self, cancer_joint, cancer_experimental):
        assert_intervals_certified(cancer_joint, cancer_experimental)

    def test_random_instances(self):
        rng = np.random.default_rng(3304)
        for n_strata in (1, 2, 3, 5):
            assert_intervals_certified(*random_instance(rng, n_strata))

    def test_six_by_six_grid(self):
        rng = np.random.default_rng(3305)
        rows = [(pc.StratumKey.of(s=i, t=j), x, y, int(rng.integers(1, 400)))
                for i in range(6) for j in range(6)
                for x in (1, 0) for y in (1, 0)]
        joint = pc.to_probabilities(reference_count_table(rows, ("s", "t")))
        measured = reference_from_per_stratum(
            joint, {key: random_pair(rng, t) for key, t in joint.items()},
            provenance="measured-experimental")
        for experimental in (pc.adjusted_experimental(joint), measured):
            assert_intervals_certified(joint, experimental)


class TestArguments:
    def test_quantity_and_resolution_validated(self):
        pair = (0.45, 0.35)
        with pytest.raises(pc.ValidationError, match="quantity"):
            feasible_extrema(PROBE_TABLE, pair, "PM")


class TestVerification:
    def test_routes_agree_where_the_screen_moves_no_pair(
            self, cancer_joint, cancer_experimental):
        # the two routes agree to rounding, so a closed-form error far below
        # the default tolerance, 2e-3, still shows here; every pair of these
        # instances lies inside its range
        rng = np.random.default_rng(3311)
        instances = [(cancer_joint, cancer_experimental)]
        for n_strata in (1, 3, 6):
            for _ in range(300):
                joint, measured = random_instance(rng, n_strata)
                instances += [(joint, measured),
                              (joint, pc.adjusted_experimental(joint))]
        checked = 0
        for joint, experimental in instances:
            pairs = _matched_pairs(joint, experimental)
            assert (_clip_pairs(joint.cells, pairs) == pairs).all()
            gaps = pc.verify_bounds(joint, experimental).discrepancy
            assert (gaps <= 1e-12).all()
            checked += gaps.size
        assert checked == 18_009

    def test_routes_agree_where_the_screen_moves_pairs(self):
        # the screen moves a pair less than 1e-3 outside its range onto it,
        # and the search clips the cross-arm conditionals that the pair
        # gives into [0, 1], the same move: the routes still agree to
        # rounding.  Each end of a pair is inside its range or up to
        # 0.999e-3 past one of its ends.
        rng = np.random.default_rng(3312)
        moved = 0
        for n_strata in (1, 3, 6):
            for _ in range(60):
                joint = random_joint(rng, n_strata)
                low, high = joint.cells[:, 0::2], 1.0 - joint.cells[:, 1::2]
                past = rng.uniform(0.0, 0.999e-3, size=low.shape)
                pairs = np.choose(rng.integers(0, 3, size=low.shape),
                                  [low - past, high + past,
                                   rng.uniform(low, high)])
                experimental = reference_from_per_stratum(
                    joint, dict(zip(joint.keys(), map(tuple, pairs.tolist()))),
                    provenance="measured-experimental")
                moved += int((_clip_pairs(joint.cells, pairs) != pairs)
                             .any(axis=1).sum())
                gaps = pc.verify_bounds(joint, experimental).discrepancy
                assert (gaps <= 1e-12).all()
        assert moved > 300

    def test_fixture_passes(self, cancer_joint, cancer_experimental):
        report = pc.verify_bounds(cancer_joint, cancer_experimental)
        # the library's default tolerance is the command line's
        assert report.tol == 2e-3
        assert report.passed
        assert report.failures == ()
        assert len(report.entries) == 9
        assert report.max_discrepancy < 1e-12
        assert {e.quantity for e in report.entries} == {"PN", "PS", "PNS"}

    def test_injected_fault_detected(self, cancer_joint, cancer_experimental,
                                     monkeypatch):
        # verify_bounds takes every stratum's closed-form boxes from one
        # array pass: widen the upper ends of the PN boxes it returns
        real = pcause.bounds._box_rows

        def widened(quantities, *args):
            return [(n, out._replace(upper=out.upper + 0.05)
                     if quantity == "PN" else out)
                    for quantity, (n, out) in zip(quantities,
                                                  real(quantities, *args))]

        monkeypatch.setattr(pcause.bounds, "_box_rows", widened)
        report = pc.verify_bounds(cancer_joint, cancer_experimental)
        assert not report.passed
        assert {e.quantity for e in report.failures} == {"PN"}
        assert len(report.failures) == 3
        assert report.max_discrepancy == pytest.approx(0.05, abs=1e-9)

    def test_nan_discrepancy_fails(self, cancer_joint, cancer_experimental,
                                   monkeypatch, capsys):
        # a route that yields NaN must fail the check, not pass it: put NaN
        # in the upper end of every PN box
        real = pcause.bounds._box_rows

        def poisoned(quantities, *args):
            return [(n, out._replace(upper=np.full_like(out.upper, np.nan))
                     if quantity == "PN" else out)
                    for quantity, (n, out) in zip(quantities,
                                                  real(quantities, *args))]

        monkeypatch.setattr(pcause.bounds, "_box_rows", poisoned)
        report = pc.verify_bounds(cancer_joint, cancer_experimental)
        assert not report.passed
        # NaN is not equal to itself, so the entries compare by stratum
        assert [(e.stratum, e.quantity) for e in report.failures] == [
            (key, "PN") for key in cancer_joint.keys()]
        assert all(np.isnan(e.discrepancy) for e in report.failures)
        assert np.isnan(report.discrepancy[0::3]).all()
        assert np.isnan(report.max_discrepancy)
        assert run(["verify", "--data", str(CANCER_CSV)]) == 1
        out, err = capsys.readouterr()
        assert "max discrepancy nan" in out and out.count("mismatch PN") == 3
        assert "verification failed: 3 of 9 boxes" in err

    def test_entries_compare_and_print_by_their_intervals(self, cancer_joint,
                                                         cancer_experimental):
        # the discrepancy is the report's array value, a field that neither
        # repr nor == reads
        entry = pc.verify_bounds(cancer_joint, cancer_experimental).entries[0]
        assert entry.discrepancy == max(
            abs(entry.closed.lower - entry.searched.lower),
            abs(entry.closed.upper - entry.searched.upper))
        assert repr(entry) == (
            f"VerificationEntry(stratum={entry.stratum!r}, quantity="
            f"{entry.quantity!r}, closed={entry.closed!r}, "
            f"searched={entry.searched!r})")
        again = VerificationEntry(entry.stratum, entry.quantity,
                                  entry.closed, entry.searched, 0.5)
        assert again == entry and hash(again) == hash(entry)


# One stratum whose P(y'|x') is 8.7e-17, below the 1.1e-16 spacing of the
# floats near 1.  Both closed-form PS boxes are [0, 1], the exact value.
_TINY_UNEXPOSED_NONCASES = ("x,y,count\n1,1,912477191156376\n1,0,49\n"
                            "0,1,11557940812805920\n0,0,1\n")


@pytest.mark.parametrize("pair", [
    pytest.param((0.2080056654413357, 0.933491125435289), id="measured",
                 marks=pytest.mark.xfail(
                     strict=True, raises=AssertionError,
                     reason="the search takes the unexposed arm's helped and "
                     "never masses as differences of floats near 1, which "
                     "are coarser than their sum P(y'|x'): at one end they "
                     "come out 1.7e-16 and -1.1e-16, so it prints PS "
                     "searched [0.000000, 3.000000] (discrepancy 2)")),
    pytest.param(None, id="sita-adjusted",
                 marks=pytest.mark.xfail(
                     strict=True, raises=AssertionError,
                     reason="the unexposed arm's lowest always-mass, "
                     "gamma + delta - 1, rounds on the 2.2e-16 spacing of "
                     "the floats in [1, 2), wider than that arm's 8.7e-17 "
                     "range, onto its highest: the helped mass is 0 at both "
                     "ends, and it prints PS searched [0.000000, 0.000000] "
                     "(discrepancy 1)")),
])
def test_verify_passes_below_the_float_spacing_near_1(pair, tmp_path):
    data = tmp_path / "counts.csv"
    data.write_text(_TINY_UNEXPOSED_NONCASES)
    argv = ["verify", "--data", str(data)]
    if pair is not None:
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps({
            "provenance": "measured-experimental",
            "strata": [{"levels": {}, "p_event_do_exposed": pair[0],
                        "p_event_do_unexposed": pair[1]}]}))
        argv += ["--experimental", str(pairs)]
    assert run(argv) == 0
