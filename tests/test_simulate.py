import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pcause as pc
from pcause.model import collapse
from pcause.simulate import (
    Scenario,
    _seed_words,
    builtin_scenarios,
    load_scenario,
    replicate_study,
)

from conftest import reference_replicate_study, sample_dataset

TOL = 1e-12

FLAT_CONDITIONALS = {(1, "1"): 0.5, (1, "2"): 0.5, (0, "1"): 0.5, (0, "2"): 0.5}


def _scenario(name):
    return next(sc for sc in builtin_scenarios() if sc.name == name)


def _sparse_scenario():
    # stratum s=2 is thin enough that small samples sometimes miss a cell
    cells = {(1, "1", "1"): 0.40, (1, "2", "1"): 0.035,
             (0, "1", "1"): 0.49, (0, "2", "1"): 0.075}
    return Scenario(name="sparse", cells=cells,
                    outcome_conditionals=FLAT_CONDITIONALS)


def _hopeless_scenario():
    # stratum s=2 is so thin that some replications never fill it
    cells = {(1, "1", "1"): 0.488, (1, "2", "1"): 0.002,
             (0, "1", "1"): 0.488, (0, "2", "1"): 0.022}
    return Scenario(name="hopeless", cells=cells,
                    outcome_conditionals=FLAT_CONDITIONALS)


def _raised(study, *args, **kwargs):
    with pytest.raises(Exception) as info:
        study(*args, **kwargs)
    return type(info.value), str(info.value)


class TestBuiltinScenarios:
    def test_catalog(self):
        scenarios = builtin_scenarios()
        assert [sc.name for sc in scenarios] == [
            "setting-1", "setting-2", "setting-3", "setting-4"]
        for sc in scenarios:
            assert sum(sc.cells.values()) == pytest.approx(1.0, abs=1e-9)
            assert {(s, t) for _x, s, t in sc.cells} == {
                ("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")}
            assert sc.outcome_conditionals[(1, "1")] == 0.7
            assert sc.outcome_conditionals[(0, "2")] == 0.4

    def test_population_joint_spot_values(self):
        joint = _scenario("setting-1").population_joint(("s", "t"), n=1000)
        key = pc.StratumKey.of(s="1", t="1")
        t = joint.strata[key]
        assert t.weight == pytest.approx(0.40, abs=TOL)
        assert t.p_exposed_event == pytest.approx(0.32 * 0.7 / 0.40, abs=TOL)
        assert t.p_unexposed_noevent == pytest.approx(0.08 * 0.2 / 0.40, abs=TOL)
        assert joint.total_n == 1000
        assert joint.covariates == ("s", "t")

    def test_projection_commutes_with_collapse(self):
        for sc in builtin_scenarios():
            direct = sc.population_joint(("s",))
            via_full = collapse(sc.population_joint(("s", "t")), ("s",))
            assert direct.total_n is None
            for key, t in direct.items():
                u = via_full.strata[key]
                assert t.weight == pytest.approx(u.weight, abs=TOL)
                for cell in ("p_exposed_event", "p_exposed_noevent",
                             "p_unexposed_event", "p_unexposed_noevent"):
                    assert getattr(t, cell) == pytest.approx(
                        getattr(u, cell), abs=TOL)


class TestScenarioValidation:
    def test_nonpositive_cell(self):
        with pytest.raises(pc.ValidationError, match="positive probability"):
            Scenario(name="bad",
                     cells={(1, "1", "1"): 0.0, (0, "1", "1"): 1.0},
                     outcome_conditionals=FLAT_CONDITIONALS)

    def test_cells_must_sum_to_one(self):
        with pytest.raises(pc.ValidationError, match="sum to"):
            Scenario(name="bad",
                     cells={(1, "1", "1"): 0.5, (0, "1", "1"): 0.4},
                     outcome_conditionals=FLAT_CONDITIONALS)

    def test_boundary_conditional(self):
        with pytest.raises(pc.ValidationError, match="strictly inside"):
            Scenario(name="bad",
                     cells={(1, "1", "1"): 0.5, (0, "1", "1"): 0.5},
                     outcome_conditionals={(1, "1"): 1.0, (0, "1"): 0.5})

    def test_missing_conditional(self):
        with pytest.raises(pc.ValidationError, match="missing outcome"):
            Scenario(name="bad",
                     cells={(1, "1", "1"): 0.5, (0, "2", "1"): 0.5},
                     outcome_conditionals={(1, "1"): 0.5, (0, "1"): 0.5})

    def test_covariate_names_must_differ(self):
        with pytest.raises(pc.ValidationError, match="must differ"):
            Scenario(name="bad",
                     cells={(1, "1", "1"): 0.5, (0, "1", "1"): 0.5},
                     outcome_conditionals={(1, "1"): 0.5, (0, "1"): 0.5},
                     s_name="c", t_name="c")

    def test_bad_exposure_level(self):
        with pytest.raises(pc.ValidationError, match="exposure level"):
            Scenario(name="bad",
                     cells={(2, "1", "1"): 0.5, (0, "1", "1"): 0.5},
                     outcome_conditionals=FLAT_CONDITIONALS)


class TestSampling:
    def test_deterministic_and_complete(self):
        sc = _scenario("setting-2")
        a = sample_dataset(sc, 500, seed=11)
        b = sample_dataset(sc, 500, seed=11)
        c = sample_dataset(sc, 500, seed=12)
        assert list(a.rows()) == list(b.rows())
        assert list(a.rows()) != list(c.rows())
        assert a.total == 500
        assert set(a.covariates) == {"s", "t"}

    def test_frequencies_track_population(self):
        sc = _scenario("setting-1")
        counts = sample_dataset(sc, 200000, seed=5)
        joint = pc.to_probabilities(counts)
        pop = sc.population_joint(("s", "t"))
        for key, t in pop.items():
            assert joint.strata[key].weight == pytest.approx(t.weight,
                                                             abs=0.01)
            assert joint.strata[key].p_exposed_event == pytest.approx(
                t.p_exposed_event, abs=0.01)

    def test_sample_size_validated(self):
        with pytest.raises(pc.ValidationError, match="positive"):
            sample_dataset(_scenario("setting-1"), 0, seed=1)


class TestReplicationStudy:
    def test_deterministic(self):
        sc = _scenario("setting-1")
        a = replicate_study(sc, n=400, reps=10, seed=7)
        b = replicate_study(sc, n=400, reps=10, seed=7)
        assert a == b
        assert a.scenario == "setting-1"
        assert a.attempts == 10 and a.discarded == 0
        assert a.discarded / a.attempts == 0.0

    def test_result_grid(self):
        study = replicate_study(_scenario("setting-3"), n=400, reps=5,
                                seed=1)
        combos = {(r.quantity, r.stratifier) for r in study.results}
        assert combos == {(q, s) for q in ("PN", "PNS")
                          for s in (("s",), ("t",), ("s", "t"))}
        for r in study.results:
            assert r.n == 400 and r.reps == 5
            assert r.empirical_var >= 0.0
            assert r.mean_avar > 0.0 and r.population_avar > 0.0

    def test_variances_line_up_at_scale(self):
        study = replicate_study(_scenario("setting-1"), n=1000, reps=60,
                                seed=19)
        for r in study.results:
            assert r.mean_avar == pytest.approx(r.population_avar, rel=0.10)

    def test_minimum_replications(self):
        with pytest.raises(pc.ValidationError, match="at least two"):
            replicate_study(_scenario("setting-1"), n=100, reps=1, seed=1)

    @pytest.mark.parametrize("reps", [2**32, 10**15])
    def test_replications_fit_one_spawn_word(self, reps, monkeypatch):
        # the bound is checked before anything is allocated or drawn
        monkeypatch.setattr(np, "empty", None)
        with pytest.raises(pc.ValidationError) as info:
            replicate_study(_scenario("setting-1"), n=10, reps=reps, seed=1)
        assert str(info.value) == f"reps must be below 2**32, got {reps}"

    def test_redraws_are_counted(self):
        study = replicate_study(_sparse_scenario(), n=210, reps=20, seed=4)
        assert study.discarded == 1
        assert study.attempts == 21
        assert study.discarded / study.attempts == pytest.approx(1 / 21,
                                                                 abs=TOL)
        again = replicate_study(_sparse_scenario(), n=210, reps=20, seed=4)
        assert study == again

    def test_excessive_discard_rate_raises(self):
        with pytest.raises(pc.DegenerateScenarioError, match="exceeds"):
            replicate_study(_sparse_scenario(), n=210, reps=20, seed=8)

    @pytest.mark.parametrize("name, n, reps, seed", [
        *(pytest.param(name, n, 50, 7, id=f"{name}-{n}") for name, n in (
            ("setting-1", 1000), ("setting-2", 1000), ("setting-3", 1000),
            ("setting-4", 1000), ("setting-4", 200))),
        # a seed of five 32-bit words
        pytest.param("setting-2", 1000, 50, 2**128 + 7,
                     id="setting-2-1000-seed-2**128+7"),
        pytest.param("sparse", 210, 20, 4, id="sparse-210")])
    def test_batch_scoring_matches_the_loop(self, name, n, reps, seed):
        # setting 4 at n=200 and the sparse scenario redraw, so the kept
        # draws are not the first
        sc = _sparse_scenario() if name == "sparse" else _scenario(name)
        study = replicate_study(sc, n=n, reps=reps, seed=seed)
        assert study == reference_replicate_study(sc, n=n, reps=reps,
                                                  seed=seed)
        assert (study.discarded > 0) == (n in (200, 210))

    def test_hopeless_scenario_hits_attempt_cap(self):
        with pytest.raises(pc.DegenerateScenarioError, match="too sparse"):
            replicate_study(_hopeless_scenario(), n=30, reps=5, seed=1)

    def test_attempt_cap_names_the_loop_s_replication(self):
        # replications 3 and later exhaust their attempts; the rounds of
        # draws must name the one the replication-by-replication loop meets
        args = (_hopeless_scenario(),)
        kwargs = dict(n=120, reps=40, seed=2)
        raised = _raised(replicate_study, *args, **kwargs)
        assert raised == (pc.DegenerateScenarioError,
                          "replication 3: 50 consecutive draws had empty "
                          "cells at n=120; the scenario is too sparse")
        assert raised == _raised(reference_replicate_study, *args, **kwargs)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_raises_numpy_s_error(self, seed):
        args = (_scenario("setting-1"),)
        kwargs = dict(n=100, reps=3, seed=seed)
        raised = _raised(replicate_study, *args, **kwargs)
        assert raised[0] in (ValueError, TypeError)
        assert raised == _raised(reference_replicate_study, *args, **kwargs)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**300))
@example(0)
@example(2**32 - 1)
@example(2**32)
@example(2**128 - 1)
@example(2**128)
@example(np.int64(9))
def test_seed_words_match_numpy(seed):
    rows = np.array([0, 2**32 - 1])
    for attempt in (0, 1, 49):
        expected = [np.random.SeedSequence(seed, spawn_key=(r, attempt))
                    .generate_state(4, np.uint64) for r in rows.tolist()]
        assert np.array_equal(_seed_words(seed, rows, attempt), expected)


class TestScenarioSerialization:
    def test_round_trip(self):
        sc = _scenario("setting-4")
        clone = load_scenario(io.StringIO(json.dumps(sc.to_dict())))
        assert clone.name == sc.name
        assert clone.cells == sc.cells
        assert clone.outcome_conditionals == sc.outcome_conditionals
        assert clone.s_name == "s" and clone.t_name == "t"

    def test_file_round_trip(self, tmp_path):
        sc = _sparse_scenario()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(sc.to_dict()))
        clone = load_scenario(str(path))
        assert clone.cells == sc.cells

    def test_missing_file(self):
        with pytest.raises(pc.ParseError, match="cannot read"):
            load_scenario("/nonexistent/scenario.json")

    def test_invalid_json(self):
        with pytest.raises(pc.ParseError, match="not valid JSON"):
            load_scenario(io.StringIO("{broken"))

    def test_malformed_payload(self):
        with pytest.raises(pc.ParseError, match="malformed scenario"):
            load_scenario(io.StringIO(json.dumps({"cells": [{"x": 1}]})))
