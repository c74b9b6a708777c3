"""The documented public surface: the package exports, the data types'
attributes and the README's library example."""

import contextlib
import io
import re

import pytest

import pcause as pc
from pcause.model import CountTable, collapse
from pcause.oracle import VerificationReport
from pcause.simulate import ReplicationStudy

from conftest import CANCER_CSV, DATA_DIR


def test_every_exported_name_resolves():
    for name in pc.__all__:
        assert getattr(pc, name) is not None, name


def test_exports_are_the_documented_surface():
    # the functions the README's Library section names, the types their
    # arguments take, and the error classes; the rest is imported from its
    # module
    assert pc.__all__ == [
        "CIRelation", "DegenerateScenarioError", "ExperimentalQuantities",
        "IncompatibilityError", "MissingSampleSizeError", "ParseError",
        "PcauseError", "PositivityError", "StratifiedJoint", "StratumKey",
        "StratumTable", "ValidationError", "adjusted_experimental",
        "ci_check", "compare_covariate_sets", "feasible_extrema",
        "load_counts", "pn_interval_conditional", "pn_point",
        "pns_interval_conditional", "ps_interval_conditional",
        "stratified_interval", "tian_pearl_interval", "to_probabilities",
        "verify_bounds"]
    library = (DATA_DIR.parent.parent / "README.md").read_text(
        encoding="utf-8").split("## Library", 1)[1].split("\n## ", 1)[0]
    for name in pc.__all__:
        if name[0].islower():
            assert name in library, name


def test_readme_library_example_runs_on_the_fixture():
    text = (DATA_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
    library = text.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, flags=re.S).group(1)
    assert '"counts.csv"' in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code.replace('"counts.csv"', repr(str(CANCER_CSV))), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    # the stratified PN interval and the point estimate, with its standard
    # error at the fixture's 192 subjects
    assert lines[0].startswith("0.0 0.7788018433179723 (TermChoice(")
    assert lines[1].startswith("-0.6869850579528003 0.40496030498249935 (")


# Each data type's public attributes.  The command line, the README or the
# tests' reference implementations use these; adding one is a change to the
# documented surface.
SURFACE = {
    "CountTable": {"collapse", "covariates", "rows", "total"},
    "StratumKey": {"covariates", "labels", "of"},
    "StratumTable": {"p_exposed", "p_exposed_event", "p_exposed_noevent",
                     "p_unexposed", "p_unexposed_event",
                     "p_unexposed_noevent", "risk_exposed", "risk_unexposed",
                     "weight"},
    "StratifiedJoint": {"cells", "covariates", "items", "keys", "n_strata",
                        "only", "strata", "total_n", "weights"},
    "ExperimentalQuantities": {"marginal", "pairs", "per_stratum",
                               "provenance"},
    "ReplicationStudy": {"attempts", "discarded", "n", "reps", "results",
                         "scenario", "seed"},
}


def test_data_types_have_exactly_the_documented_attributes(
        cancer_counts, cancer_joint, cancer_experimental):
    study = ReplicationStudy(scenario="setting-1", n=10, reps=2, seed=0,
                             results=(), discarded=0, attempts=2)
    values = (cancer_counts, pc.StratumKey.of(stage="1"),
              collapse(cancer_joint, ()).only(), cancer_joint,
              cancer_experimental, study)
    assert {type(value).__name__ for value in values} == set(SURFACE)
    for value in values:
        public = {name for name in dir(value) if not name.startswith("_")}
        assert public == SURFACE[type(value).__name__], type(value).__name__


def test_tables_and_pairs_come_only_from_their_builders():
    for cls, builders in ((CountTable, "load_counts or collapse"),
                          (pc.ExperimentalQuantities,
                           "load_experimental or adjusted_experimental"),
                          (VerificationReport, "verify_bounds")):
        for args, kwargs in (((), {}), (({},), {}),
                             ((), {"per_stratum": {}, "cells": {}})):
            with pytest.raises(TypeError, match=builders):
                cls(*args, **kwargs)
