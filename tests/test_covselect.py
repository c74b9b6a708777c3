import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chi2

import pcause as pc
from pcause import cli, covselect
from pcause.covselect import EXPOSURE_CI, OUTCOME_CI
from pcause.model import collapse
from pcause.simulate import builtin_scenarios

from conftest import (
    CANCER_CSV,
    random_ci_joint,
    reference_count_test,
    reference_exact_deviation,
)

TOL = 1e-12


def _key(s, t):
    return pc.StratumKey.of(s=s, t=t)


def _table(px, risk_x, risk_xp, weight):
    return pc.StratumTable(px * risk_x, px * (1.0 - risk_x),
                           (1.0 - px) * risk_xp, (1.0 - px) * (1.0 - risk_xp),
                           weight=weight)


def _broken_outcome_joint():
    # exposure flat at 0.5, but the exposed risk shifts with t inside s=1
    strata = {
        _key("1", "1"): _table(0.5, 0.9, 0.4, 0.25),
        _key("1", "2"): _table(0.5, 0.3, 0.4, 0.25),
        _key("2", "1"): _table(0.5, 0.6, 0.2, 0.25),
        _key("2", "2"): _table(0.5, 0.6, 0.2, 0.25),
    }
    return pc.StratifiedJoint(strata=strata, covariates=("s", "t"))


def _broken_exposure_joint():
    # outcome risks depend on s only, but exposure tracks s within each t
    strata = {
        _key("1", "1"): _table(0.3, 0.7, 0.4, 0.25),
        _key("2", "1"): _table(0.7, 0.5, 0.2, 0.25),
        _key("1", "2"): _table(0.3, 0.7, 0.4, 0.25),
        _key("2", "2"): _table(0.7, 0.5, 0.2, 0.25),
    }
    return pc.StratifiedJoint(strata=strata, covariates=("s", "t"))


class TestExactCheck:
    @pytest.mark.parametrize("name", ["setting-1", "setting-2", "setting-3",
                                      "setting-4"])
    def test_builtin_settings_satisfy_both(self, name):
        scenario = next(sc for sc in builtin_scenarios()
                        if sc.name == name)
        joint = scenario.population_joint(("s", "t"))
        for kind in (OUTCOME_CI, EXPOSURE_CI):
            verdict = pc.ci_check(joint, pc.CIRelation(kind, "s", "t"))
            assert verdict.holds
            assert verdict.max_deviation <= 1e-9
            assert verdict.mode == "exact-probability"
            assert verdict.statistic is None

    def test_detects_outcome_violation(self):
        joint = _broken_outcome_joint()
        bad = pc.ci_check(joint, pc.CIRelation(OUTCOME_CI, "s", "t"))
        good = pc.ci_check(joint, pc.CIRelation(EXPOSURE_CI, "s", "t"))
        assert not bad.holds
        assert bad.max_deviation == pytest.approx(0.3, abs=1e-9)
        assert good.holds

    @pytest.mark.parametrize("shift, holds", [(4e-9, False), (1e-9, True)])
    def test_exposure_tolerance_is_1e_9(self, shift, holds):
        # within t = 1, P(x|s=1) is up by ``shift`` and P(x|s=2) is not, so
        # each deviates from the averaged P(x|t=1) by half of it
        joint = pc.StratifiedJoint(strata={
            _key("1", "1"): _table(0.5 + shift, 0.6, 0.2, 0.5),
            _key("2", "1"): _table(0.5, 0.6, 0.2, 0.5)}, covariates=("s", "t"))
        verdict = pc.ci_check(joint, pc.CIRelation(EXPOSURE_CI, "s", "t"))
        assert verdict.max_deviation == pytest.approx(shift / 2, rel=1e-6)
        assert verdict.holds is holds

    def test_a_deviation_of_exactly_1e_9_holds(self):
        # P(x|s=1) = 2e-9 and P(x|s=2) = 0 average to P(x|t=1) = 1e-9, so
        # both strata deviate by exactly 1e-9: every step is exact
        joint = pc.StratifiedJoint(strata={
            _key("1", "1"): _table(2e-9, 0.5, 0.2, 0.5),
            _key("2", "1"): _table(0.0, 0.5, 0.2, 0.5)}, covariates=("s", "t"))
        verdict = pc.ci_check(joint, pc.CIRelation(EXPOSURE_CI, "s", "t"))
        assert verdict.max_deviation == covselect.EXACT_TOL
        assert verdict.holds

    def test_detects_exposure_violation(self):
        joint = _broken_exposure_joint()
        bad = pc.ci_check(joint, pc.CIRelation(EXPOSURE_CI, "s", "t"))
        good = pc.ci_check(joint, pc.CIRelation(OUTCOME_CI, "s", "t"))
        assert not bad.holds
        assert bad.max_deviation == pytest.approx(0.2, abs=1e-9)
        assert good.holds


class TestCountTest:
    def test_clean_joint_passes_with_expected_df(self):
        rng = np.random.default_rng(41)
        joint = replace(random_ci_joint(rng), total_n=5000)
        for kind, df in ((EXPOSURE_CI, 2), (OUTCOME_CI, 4)):
            verdict = pc.ci_check(joint, pc.CIRelation(kind, "s", "t"),
                                  mode="count-test")
            assert verdict.holds
            assert verdict.df == df
            assert verdict.statistic == pytest.approx(0.0, abs=1e-6)
            assert verdict.p_value == pytest.approx(1.0, abs=1e-6)

    def test_statistic_is_a_builtin_float(self):
        # a numpy scalar here would reach the select report
        joint = replace(_broken_outcome_joint(), total_n=1000)
        for kind in (EXPOSURE_CI, OUTCOME_CI):
            verdict = pc.ci_check(joint, pc.CIRelation(kind, "s", "t"),
                                  mode="count-test")
            assert type(verdict.statistic) is float
            assert type(verdict.p_value) is float

    def test_violations_fail_at_scale(self):
        for joint, kind in ((_broken_outcome_joint(), OUTCOME_CI),
                            (_broken_exposure_joint(), EXPOSURE_CI)):
            verdict = pc.ci_check(replace(joint, total_n=100000),
                                  pc.CIRelation(kind, "s", "t"),
                                  mode="count-test")
            assert not verdict.holds
            assert verdict.p_value < 1e-6

    def test_degenerate_df_means_vacuous_pass(self):
        rng = np.random.default_rng(42)
        joint = replace(random_ci_joint(rng, s_levels=1), total_n=1000)
        verdict = pc.ci_check(joint, pc.CIRelation(EXPOSURE_CI, "s", "t"),
                              mode="count-test")
        assert verdict.df == 0
        assert verdict.p_value == 1.0
        assert verdict.holds

    def test_a_p_value_at_alpha_holds(self):
        joint = replace(_broken_outcome_joint(), total_n=40)
        relation = pc.CIRelation(OUTCOME_CI, "s", "t")
        p_value = pc.ci_check(joint, relation, mode="count-test").p_value
        assert 0.0 < p_value < 1.0
        assert pc.ci_check(joint, relation, mode="count-test",
                           alpha=p_value).holds

    def test_sample_size_required(self):
        rng = np.random.default_rng(43)
        joint = random_ci_joint(rng)
        with pytest.raises(pc.MissingSampleSizeError):
            pc.ci_check(joint, pc.CIRelation(EXPOSURE_CI, "s", "t"),
                        mode="count-test")


class TestVarianceOrdering:
    def test_random_clean_joints(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            joint = replace(random_ci_joint(rng), total_n=1000)
            report = pc.compare_covariate_sets(joint, "s", "t")
            assert all(v.holds for v in report.premises)
            for verdict in report.orderings:
                assert verdict.guaranteed
                assert verdict.observed
            values = {c.stratifier: (c.pn.value, c.pns.value)
                      for c in report.candidates}
            base = values[("s",)]
            for strat in (("t",), ("s", "t")):
                assert values[strat][0] == pytest.approx(base[0], abs=1e-10)
                assert values[strat][1] == pytest.approx(base[1], abs=1e-10)

    # 0.01 + 1e-12 is exactly the bound, rounded alike on both sides
    @pytest.mark.parametrize("excess, observed", [(2e-12, False),
                                                  (1e-12, True),
                                                  (0.5e-12, True)])
    def test_observed_allows_1e_12(self, excess, observed):
        premise = covselect.CIVerdict(pc.CIRelation(OUTCOME_CI, "s", "t"),
                                      "exact-probability", True, 1e-9)
        verdict = covselect.OrderingVerdict("PN", ("s",), ("s", "t"),
                                            0.01 + excess, 0.01, premise)
        assert verdict.observed is observed

    def test_ordering_inequalities_directly(self):
        # the two mean-vs-harmonic-mean facts behind the orderings:
        #   P(x'|s) * sum_t P(x|t,s)^2 P(t|s) / P(x'|t,s) >= P(x|s)^2
        #   P(x|s) * sum_t P(t|s) / P(x|t,s) >= 1
        rng = np.random.default_rng(45)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            pt = rng.dirichlet(np.full(k, 1.5))
            px_t = rng.uniform(0.05, 0.95, size=k)
            px = float(np.dot(pt, px_t))
            lhs1 = (1.0 - px) * float(np.dot(pt, px_t ** 2 / (1.0 - px_t)))
            assert lhs1 >= px ** 2 - TOL
            lhs2 = px * float(np.dot(pt, 1.0 / px_t))
            assert lhs2 >= 1.0 - TOL


class TestSelectionReport:
    @pytest.mark.parametrize("name", ["setting-1", "setting-2", "setting-3",
                                      "setting-4"])
    def test_settings_recommend_s(self, name):
        scenario = next(sc for sc in builtin_scenarios()
                        if sc.name == name)
        joint = scenario.population_joint(("s", "t"), n=1000)
        report = pc.compare_covariate_sets(joint, "s", "t")
        assert report.recommendation == ("s",)
        assert "minimizes" in report.note
        assert len(report.candidates) == 3
        assert len(report.orderings) == 4

    def test_no_recommendation_without_premises(self):
        joint = replace(_broken_outcome_joint(), total_n=1000)
        report = pc.compare_covariate_sets(joint, "s", "t")
        assert report.recommendation is None
        assert "not established" in report.note
        # orderings are still reported, just not guaranteed
        assert any(not v.guaranteed for v in report.orderings)

    def test_sample_size_needed_for_avars(self):
        rng = np.random.default_rng(46)
        joint = random_ci_joint(rng)
        with pytest.raises(pc.MissingSampleSizeError):
            pc.compare_covariate_sets(joint, "s", "t")


class TestValidation:
    def test_relation_kind_and_names(self):
        with pytest.raises(pc.ValidationError):
            pc.CIRelation("nonsense", "s", "t")
        with pytest.raises(pc.ValidationError):
            pc.CIRelation(OUTCOME_CI, "s", "s")

    def test_unknown_mode(self):
        rng = np.random.default_rng(47)
        joint = random_ci_joint(rng)
        with pytest.raises(pc.ValidationError):
            pc.ci_check(joint, pc.CIRelation(OUTCOME_CI, "s", "t"),
                        mode="bootstrap")

    def test_same_candidate_twice(self):
        rng = np.random.default_rng(48)
        joint = random_ci_joint(rng)
        with pytest.raises(pc.ValidationError, match="must differ"):
            pc.compare_covariate_sets(replace(joint, total_n=100), "s", "s")

    def test_covariate_mismatch(self):
        rng = np.random.default_rng(49)
        joint = random_ci_joint(rng)
        collapsed = collapse(joint, ("s",))
        with pytest.raises(pc.ValidationError, match="stratified by"):
            pc.ci_check(collapsed, pc.CIRelation(OUTCOME_CI, "s", "t"))
        with pytest.raises(pc.ValidationError):
            pc.compare_covariate_sets(replace(joint, total_n=100), "s", "u")

    def test_random_joint_name_clash(self):
        rng = np.random.default_rng(50)
        with pytest.raises(pc.ValidationError):
            random_ci_joint(rng, s_name="c", t_name="c")


class TestPValue:
    """ci_check's p-value is the chi-square survival function of G."""

    def _p_value(self, monkeypatch, statistic, df):
        monkeypatch.setattr(covselect, "_count_test",
                            lambda joint, relation, n: (statistic, df))
        joint = replace(random_ci_joint(np.random.default_rng(60)),
                        total_n=100)
        verdict = pc.ci_check(joint, pc.CIRelation(OUTCOME_CI, "s", "t"),
                              mode="count-test")
        return verdict.p_value

    def test_matches_chi2_sf(self, monkeypatch):
        rng = np.random.default_rng(61)
        for df in rng.integers(1, 200, size=50):
            statistic = float(rng.exponential(df))
            assert self._p_value(monkeypatch, statistic, int(df)) == \
                float(chi2.sf(statistic, df))
        for statistic in (0.0, 1e-300, float("inf")):
            assert self._p_value(monkeypatch, statistic, 3) == \
                float(chi2.sf(statistic, 3))

    def test_rounding_below_zero_reads_as_zero(self, monkeypatch):
        # G is a sum of n ln(...) terms; on data that satisfy the premise
        # exactly it can round to a tiny negative number.
        assert self._p_value(monkeypatch, -1e-12, 4) == 1.0 == chi2.sf(-1e-12, 4)

    @staticmethod
    def _fresh(code):
        """The last line ``code`` prints in a fresh interpreter."""
        src = str(Path(pc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        return done.stdout.splitlines()[-1]

    def test_cli_import_skips_scipy_stats(self):
        code = "import sys, pcause.cli; print('scipy.stats' in sys.modules)"
        assert self._fresh(code) == "False"
        # SciPy loads at the G test only: neither import, nor the exact
        # check (which returns before the G test), pulls in any of it
        scipy = "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        for module in ("pcause.cli", "pcause"):
            assert self._fresh(f"import sys, {module}; {scipy}") == "[]"
        exact = ("import sys, pcause as pc\n"
                 "from pcause.simulate import builtin_scenarios\n"
                 "joint = builtin_scenarios()[1].population_joint(('s', 't'))\n"
                 "for kind in pc.covselect.OUTCOME_CI, pc.covselect.EXPOSURE_CI:\n"
                 "    relation = pc.CIRelation(kind, 's', 't')\n"
                 "    assert pc.ci_check(joint, relation, "
                 "mode='exact-probability').holds\n" + scipy)
        assert self._fresh(exact) == "[]"

    def test_orjson_loads_only_to_write_a_report(self, tmp_path):
        # the report writer imports orjson at its first float: neither
        # import, nor a simulate run, which writes none, pulls it in; a
        # bounds report does
        loaded = "print('orjson' in sys.modules)"
        for module in ("pcause", "pcause.cli"):
            assert self._fresh(f"import sys, {module}; {loaded}") == "False"
        report = str(tmp_path / "report.json")
        run = "import sys; from pcause.cli import run; assert run(%r) == 0\n"
        simulate = ["simulate", "--setting", "1", "--n", "1000", "--reps",
                    "20", "--seed", "7", "--json", report]
        assert self._fresh(run % simulate + loaded) == "False"
        bounds = ["bounds", "--data", str(CANCER_CSV), "--json", report]
        assert self._fresh(run % bounds + loaded) == "True"

    @pytest.mark.parametrize("strata, df_positive", [
        ([(1, 1, (30, 20, 10, 40)), (1, 2, (25, 15, 12, 30)),
          (2, 1, (18, 22, 9, 35)), (2, 2, (14, 11, 8, 27))], True),
        # one level of each covariate: both premises have df 0
        ([(1, 1, (30, 20, 10, 40))], False),
    ], ids=["df-positive", "df-0"])
    def test_select_in_a_fresh_interpreter(self, strata, df_positive,
                                           tmp_path, capsys):
        # This module imports scipy.stats, so only a fresh interpreter runs
        # the G test's own import of scipy.special first.
        data = tmp_path / "counts.csv"
        data.write_text("s,t,x,y,count\n" + "".join(
            f"{s},{t},{x},{y},{n}\n" for s, t, counts in strata
            for (x, y), n in zip(((1, 1), (1, 0), (0, 1), (0, 0)), counts)))
        argv = ["select", "--data", str(data), "--s", "s", "--t", "t",
                "--json"]
        fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
        code = ("import sys, pcause.cli\n"
                f"status = pcause.cli.run({[*argv, str(fresh)]!r})\n"
                "print(status, 'scipy.special' in sys.modules)")
        assert self._fresh(code) == f"0 {df_positive}"
        assert cli.run([*argv, str(here)]) == 0
        capsys.readouterr()
        assert fresh.read_bytes() == here.read_bytes()
        premises = json.loads(here.read_text())["selection"]["premises"]
        assert all((p["df"] > 0) is df_positive for p in premises)


# Joints over a ragged grid of (s, t) levels, any stratum of which may be
# absent, so that one covariate sometimes has a single level (df 0).  A third
# of the raw cell masses are zero: zero counts for the G test, and now and
# then an empty arm for the exact check.  The sample size runs from 1 to
# 6e306, where G's products overflow and it is nan.
_mass = st.one_of(st.floats(min_value=1e-3, max_value=1.0),
                  st.floats(min_value=1e-3, max_value=1.0), st.just(0.0))
_stratum = st.tuples(st.lists(_mass, min_size=4, max_size=4).filter(any),
                     st.floats(min_value=1e-3, max_value=1.0))
_grid = st.lists(st.tuples(st.sampled_from("123"), st.sampled_from("12")),
                 min_size=1, max_size=6, unique=True)
_sample_size = st.one_of(st.integers(1, 10**6), st.integers(1, 10**6),
                         st.sampled_from((10**306, 6 * 10**306)))


def _outcome(function, *args):
    """The repr of what ``function`` returns, or its error's type and text."""
    try:
        return repr(function(*args))
    except pc.PcauseError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(_stratum, min_size=6, max_size=6), _grid,
       st.sampled_from((("s", "t"), ("b", "a"))), st.booleans(), _sample_size)
# one s level: the exposure premise has df 0
@example([([0.2, 0.3, 0.1, 0.4], 0.5)] * 6, [("1", "1"), ("1", "2")],
         ("s", "t"), False, 100)
# roles swapped on names that sort opposite to them
@example([([0.2, 0.3, 0.1, 0.4], 0.5), ([0.1, 0.1, 0.4, 0.4], 0.2)] * 3,
         [("1", "1"), ("2", "1"), ("2", "2"), ("3", "2")], ("b", "a"), True,
         500)
# an empty unexposed arm, and a zero count
@example([([0.2, 0.3, 0.0, 0.0], 0.5), ([0.1, 0.0, 0.4, 0.4], 0.2)] * 3,
         [("1", "1"), ("1", "2"), ("2", "1")], ("s", "t"), False, 50)
# counts near 1e306: G is nan
@example([([0.2, 0.3, 0.1, 0.4], 0.5)] * 6,
         [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")], ("s", "t"), False,
         10**306)
def test_premise_tests_match_the_dict_loops(draws, grid, names, swap, n):
    strata = {pc.StratumKey.of(**{names[0]: u, names[1]: v}): (cells, w)
              for (cells, w), (u, v) in zip(draws, grid)}
    total_weight = sum(w for _, w in strata.values())
    joint = pc.StratifiedJoint(strata={
        key: pc.StratumTable(*(c / sum(cells) for c in cells),
                             weight=w / total_weight)
        for key, (cells, w) in strata.items()}, covariates=names)
    s, t = names[::-1] if swap else names
    for kind in (OUTCOME_CI, EXPOSURE_CI):
        relation = pc.CIRelation(kind, s, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(covselect._count_test, joint, relation, n) == \
                _outcome(reference_count_test, joint, relation, n)
            assert _outcome(covselect._exact_deviation, joint, relation) == \
                _outcome(reference_exact_deviation, joint, relation)


@pytest.mark.parametrize("arm,cells", [
    ("exposed", (0.0, 0.0, 0.4, 0.6)),
    ("unexposed", (0.3, 0.7, 0.0, 0.0)),
])
def test_exact_check_names_the_stratum_with_an_empty_arm(arm, cells):
    # s=2,t=1 sorts after s=1,t=2, so the error names the first stratum in
    # key order with an empty arm, not the first one listed
    good = pc.StratumTable(0.2, 0.3, 0.1, 0.4, weight=0.25)
    empty = pc.StratumTable(*cells, weight=0.25)
    joint = pc.StratifiedJoint(strata={
        _key("1", "1"): good, _key("2", "1"): empty, _key("1", "2"): empty,
        _key("2", "2"): good}, covariates=("s", "t"))
    relation = pc.CIRelation(OUTCOME_CI, "s", "t")
    message = f"no {arm} mass in stratum s=1,t=2"
    with pytest.raises(pc.PositivityError) as raised:
        pc.ci_check(joint, relation, mode="exact-probability")
    assert str(raised.value) == message
    with pytest.raises(pc.PositivityError) as raised:
        reference_exact_deviation(joint, relation)
    assert str(raised.value) == message
