import argparse
import gc
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcause as pc
from pcause import cli
from pcause.cli import run
from pcause.model import render_counts
from pcause.simulate import Scenario, builtin_scenarios

from conftest import CANCER_CSV, DATA_DIR, experimental_to_dict, sample_dataset

DATA = ["--data", str(CANCER_CSV)]


def _write_zero_arm_csv(tmp_path):
    path = tmp_path / "zero_arm.csv"
    path.write_text("stage,x,y,count\n"
                    "1,1,1,0\n1,1,0,0\n1,0,1,5\n1,0,0,5\n"
                    "2,1,1,4\n2,1,0,6\n2,0,1,3\n2,0,0,7\n")
    return path


def _write_two_covariate_csv(tmp_path):
    scenario = next(sc for sc in builtin_scenarios()
                    if sc.name == "setting-2")
    counts = sample_dataset(scenario, 2000, seed=3)
    path = tmp_path / "two_cov.csv"
    path.write_text(render_counts(counts))
    return path


class TestExitCodes:
    def test_success(self, capsys):
        assert run(["bounds", *DATA]) == 0
        capsys.readouterr()

    def test_missing_file_is_analysis_error(self, capsys):
        assert run(["bounds", "--data", "/nonexistent/counts.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_errors(self, capsys):
        assert run(["bounds", *DATA, "--frobnicate"]) == 2
        assert run(["bounds"]) == 2
        assert run(["nonsense"]) == 2
        assert run([]) == 2
        assert run(["simulate", "--setting", "1", "--scenario", "x.json",
                    "--n", "100", "--reps", "2", "--seed", "1"]) == 2
        assert run(["verify", *DATA, "--resolution", "0.01"]) == 2
        assert run(["bounds", *DATA, "--clamp"]) == 2
        capsys.readouterr()

    def test_help_and_version_exit_zero(self, capsys):
        assert run(["--version"]) == 0
        assert "pcause 0.1.0" in capsys.readouterr().out
        assert run(["bounds", "--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("module", ["pcause", "pcause.cli"])
    def test_runs_as_a_module(self, module):
        src = str(Path(pc.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", module, "--version"],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stdout == f"pcause {pc.__version__}\n"

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_a_closed_stdout_exits_1_with_one_line(self, unbuffered):
        # the read end closes before the spawn, so every write to stdout
        # fails, at once unbuffered and at the flush otherwise
        env = {name: value for name, value in os.environ.items()
               if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(pc.__file__).resolve().parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pcause", "bounds", *DATA], env=env,
                stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert done.returncode == 1
        assert done.stderr == "error: standard output was closed\n"

    def test_unwritable_report_path(self, capsys):
        assert run(["bounds", *DATA, "--json",
                    "/nonexistent/dir/report.json"]) == 1
        assert "cannot write report" in capsys.readouterr().err


class TestBoundsCommand:
    def test_text_output(self, capsys):
        assert run(["bounds", *DATA]) == 0
        out = capsys.readouterr().out
        assert "n = 192 subjects in 3 strata by stage" in out
        assert "experimental input: sita-adjusted" in out
        assert "PN   stratified  [0.000, 0.779]" in out
        assert "PN   tian-pearl  [0.000, 1.000]" in out
        assert "PNS  stratified  [0.000, 0.168]" in out
        assert "PNS  tian-pearl  [0.000, 0.237]" in out
        assert "stage=3  [0.000, 0.238]" in out

    def test_json_schema(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert run(["bounds", *DATA, "--json", str(report_path)]) == 0
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        assert list(payload) == ["metadata", "input", "intervals", "estimates",
                                 "selection", "verification", "simulation",
                                 "warnings"]
        assert payload["metadata"] == {"tool": "pcause", "version": "0.1.0",
                                       "command": "bounds"}
        assert payload["estimates"] is None
        assert payload["selection"] is None
        assert payload["verification"] is None
        assert payload["simulation"] is None
        assert payload["input"]["n"] == 192
        assert payload["input"]["strata"] == 3
        assert payload["input"]["experimental"]["provenance"] == "sita-adjusted"
        # 2 summary intervals + 3 per-stratum boxes for each of 3 quantities
        assert len(payload["intervals"]) == 15
        strat_pn = payload["intervals"][0]
        assert strat_pn["quantity"] == "PN"
        assert strat_pn["method"] == "stratified"
        terms = {tuple(sorted(a["stratum"].items())): a["upper_term"]
                 for a in strat_pn["attainment"]}
        assert terms[(("stage", "1"),)] == "cell"
        assert terms[(("stage", "2"),)] == "cell"
        assert terms[(("stage", "3"),)] == "margin"

    def test_json_reruns_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(["bounds", *DATA, "--json", str(a)]) == 0
        assert run(["bounds", *DATA, "--json", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_single_quantity(self, capsys):
        assert run(["bounds", *DATA, "--quantity", "PS"]) == 0
        out = capsys.readouterr().out
        assert "PS   stratified" in out
        assert "PN " not in out

    def test_measured_experimental_file(self, tmp_path, capsys,
                                        cancer_experimental):
        exp_path = tmp_path / "experimental.json"
        payload = experimental_to_dict(cancer_experimental)
        del payload["provenance"]  # files without the tag count as measured
        exp_path.write_text(json.dumps(payload))
        report_path = tmp_path / "report.json"
        assert run(["bounds", *DATA, "--experimental", str(exp_path),
                    "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "experimental input: measured-experimental" in out
        payload = json.loads(report_path.read_text())
        assert payload["input"]["experimental"] == {
            "provenance": "measured-experimental", "source": str(exp_path)}


class TestIdentifyCommand:
    def test_text_output(self, capsys):
        assert run(["identify", *DATA]) == 0
        out = capsys.readouterr().out
        assert "PN   -0.687" in out
        assert "PNS  -0.155" in out
        assert out.count("[negative]") == 3
        assert "no-prevention assumption: implausible (3 of 3 strata flagged)" in out
        assert "warning: estimate falls outside [0, 1]" in out

    def test_json_payload(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert run(["identify", *DATA, "--stratifier", "stage",
                    "--json", str(report_path)]) == 0
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        points = payload["estimates"]["points"]
        assert [p["quantity"] for p in points] == ["PN", "PNS"]
        assert points[0]["value"] == pytest.approx(-0.687, abs=1e-3)
        assert points[0]["n"] == 192
        mono = payload["estimates"]["monotonicity"]
        assert mono["plausible"] is False
        assert len(mono["flagged"]) == 3
        assert len(payload["intervals"]) == 2
        assert payload["warnings"]


class TestGoldenReports:
    """The --json reports on the survival fixture and of one simulation,
    pinned byte for byte.

    The table reports use Python floats and numpy's ``+ - * /``, which are
    correctly rounded, so they do not depend on the platform; the simulation
    also depends on numpy's Generator streams.  The written text is
    compared, so key order, indentation and float spelling are pinned too;
    the data path is replaced by a placeholder.  The simulation redraws 17
    of its 517 samples.
    """

    @pytest.mark.parametrize("argv, golden", [
        (["bounds", *DATA, "--quantity", "all"], "breast_cancer_bounds.json"),
        (["identify", *DATA], "breast_cancer_identify.json"),
        (["verify", *DATA], "breast_cancer_verify.json"),
        (["simulate", "--setting", "4", "--n", "200", "--reps", "500",
          "--seed", "7"], "simulate_setting4.json"),
    ])
    def test_report_matches_golden(self, argv, golden, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert run([*argv, "--json", str(report_path)]) == 0
        capsys.readouterr()
        text = report_path.read_text()
        if "--data" in argv:
            data = f'"data": {json.dumps(str(CANCER_CSV))},'
            assert text.count(data) == 1
            text = text.replace(data, '"data": "<data>",')
        assert text == (DATA_DIR / golden).read_text()


class _JsonProxy:
    """Stands in for ``json`` inside ``pcause.cli``, as the benchmark's
    tracer does to time report encoding, and keeps what ``dumps`` gets."""

    def __init__(self):
        self.reports = []

    def dumps(self, obj, **kwargs):
        self.reports.append(obj)
        return json.dumps(obj, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


# the keys whose value may be a streamed section, as cli._MARKER names them
_STREAMED_KEYS = {"entries", "flagged", "intervals", "risk_differences"}


def _leaf_types(tree, under=None):
    """The types of the leaves of a report; a streamed section (a callable
    that writes it) is not a leaf, but only as the value of such a key."""
    if type(tree) is dict:
        assert all(type(key) is str for key in tree)
        return set().union(*(_leaf_types(value, key)
                             for key, value in tree.items()))
    if type(tree) is list:
        return set().union(*map(_leaf_types, tree))
    if callable(tree) and under in _STREAMED_KEYS:
        return set()
    return {type(tree)}


class TestReportEncoding:
    @pytest.fixture
    def proxy(self, monkeypatch):
        proxy = _JsonProxy()
        monkeypatch.setattr(cli, "json", proxy)
        return proxy

    @pytest.fixture
    def argvs(self, tmp_path):
        two_cov = str(_write_two_covariate_csv(tmp_path))
        return [["bounds", *DATA], ["identify", *DATA], ["verify", *DATA],
                ["select", "--data", two_cov, "--s", "s", "--t", "t"],
                ["simulate", "--setting", "2", "--n", "400", "--reps", "5",
                 "--seed", "3"]]

    def test_one_dumps_per_json_invocation(self, proxy, argvs, tmp_path,
                                           capsys):
        for calls, argv in enumerate(argvs, start=1):
            assert run(argv) == 0
            assert len(proxy.reports) == calls - 1
            assert run([*argv, "--json", str(tmp_path / "report.json")]) == 0
            assert len(proxy.reports) == calls
        capsys.readouterr()

    def test_report_leaves_are_exact_builtin_types(self, proxy, argvs,
                                                   tmp_path, capsys):
        for argv in argvs:
            assert run([*argv, "--json", str(tmp_path / "report.json")]) == 0
        capsys.readouterr()
        for report in proxy.reports:
            assert _leaf_types(report) <= {str, float, int, bool, type(None)}


class TestSelectCommand:
    def test_two_covariate_analysis(self, tmp_path, capsys):
        data = _write_two_covariate_csv(tmp_path)
        report_path = tmp_path / "report.json"
        assert run(["select", "--data", str(data), "--s", "s", "--t", "t",
                    "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "premise y-indep-t-given-xs: holds" in out
        assert "premise x-indep-s-given-t: holds" in out
        assert "recommendation: stratify by s" in out
        payload = json.loads(report_path.read_text())
        sel = payload["selection"]
        assert sel["recommendation"] == ["s"]
        assert [c["stratifier"] for c in sel["candidates"]] == [
            ["s"], ["t"], ["s", "t"]]
        assert all(v["holds"] for v in sel["premises"])
        assert all(v["p_value"] is not None for v in sel["premises"])

    def test_single_covariate_data_rejected(self, capsys):
        assert run(["select", *DATA, "--s", "stage", "--t", "t"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSimulateCommand:
    def test_deterministic_json(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["simulate", "--setting", "1", "--n", "400", "--reps", "20",
                "--seed", "7"]
        assert run([*args, "--json", str(a)]) == 0
        assert run([*args, "--json", str(b)]) == 0
        out = capsys.readouterr().out
        assert "scenario setting-1: n=400, reps=20, seed=7" in out
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        sim = payload["simulation"]
        assert sim["source"] == "builtin"
        assert len(sim["results"]) == 6
        assert payload["intervals"] is None

    def test_scenario_file(self, tmp_path, capsys):
        scenario = next(sc for sc in builtin_scenarios()
                        if sc.name == "setting-4")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario.to_dict()))
        assert run(["simulate", "--scenario", str(path), "--n", "300",
                    "--reps", "5", "--seed", "2"]) == 0
        assert "scenario setting-4" in capsys.readouterr().out

    def test_degenerate_scenario_fails_cleanly(self, tmp_path, capsys):
        scenario = Scenario(
            name="hopeless",
            cells={(1, "1", "1"): 0.488, (1, "2", "1"): 0.002,
                   (0, "1", "1"): 0.488, (0, "2", "1"): 0.022},
            outcome_conditionals={(1, "1"): 0.5, (1, "2"): 0.5,
                                  (0, "1"): 0.5, (0, "2"): 0.5})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario.to_dict()))
        assert run(["simulate", "--scenario", str(path), "--n", "30",
                    "--reps", "5", "--seed", "1"]) == 1
        assert "too sparse" in capsys.readouterr().err


class TestVerifyCommand:
    def test_pass_line(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert run(["verify", *DATA, "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "checked 9 boxes in 3 strata" in out
        assert out.rstrip().endswith("PASS")
        payload = json.loads(report_path.read_text())
        assert list(payload["verification"]) == [
            "tol", "max_discrepancy", "passed", "entries"]
        assert payload["verification"]["passed"] is True
        assert payload["verification"]["max_discrepancy"] < 1e-9
        assert len(payload["verification"]["entries"]) == 9

    def test_fail_writes_report_then_exits_one(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert run(["verify", *DATA, "--tol", "0",
                    "--json", str(report_path)]) == 1
        captured = capsys.readouterr()
        assert "(tolerance 0): FAIL" in captured.out
        assert re.fullmatch(r"error: verification failed: [1-9] of 9 boxes "
                            r"differ by more than 0\n", captured.err)
        payload = json.loads(report_path.read_text())
        assert payload["verification"]["passed"] is False
        assert list(payload) == ["metadata", "input", "intervals", "estimates",
                                 "selection", "verification", "simulation",
                                 "warnings"]


class TestNearEdgePair:
    """A measured pair 5e-4 below its range (P(y_x'|s) >= P(x',y|s) = 0.1)
    is within the screen's tolerance, so it is accepted and moved onto the
    range."""

    @pytest.fixture
    def argv(self, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("g,x,y,count\n1,1,1,2\n1,1,0,3\n1,0,1,1\n1,0,0,4\n")
        measured = tmp_path / "measured.json"
        measured.write_text(json.dumps({"strata": [
            {"levels": {"g": "1"}, "p_event_do_exposed": 0.45,
             "p_event_do_unexposed": 0.0995}]}))
        return ["--data", str(data), "--experimental", str(measured)]

    def test_bounds(self, argv, capsys):
        assert run(["bounds", *argv]) == 0
        out = capsys.readouterr().out
        assert "PN   stratified  [1.000, 1.000]" in out

    def test_verify(self, argv, capsys):
        assert run(["verify", *argv]) == 0
        assert capsys.readouterr().out.rstrip().endswith("PASS")


class TestSmoothing:
    def test_zero_arm_needs_smoothing(self, tmp_path, capsys):
        data = _write_zero_arm_csv(tmp_path)
        assert run(["bounds", "--data", str(data)]) == 1
        assert "error:" in capsys.readouterr().err
        assert run(["bounds", "--data", str(data),
                    "--smoothing", "add-half"]) == 0
        out = capsys.readouterr().out
        assert "PN   stratified" in out

    def test_identify_with_smoothing(self, tmp_path, capsys):
        data = _write_zero_arm_csv(tmp_path)
        assert run(["identify", "--data", str(data)]) == 1
        capsys.readouterr()
        assert run(["identify", "--data", str(data),
                    "--smoothing", "add-half"]) == 0
        capsys.readouterr()


def _write_signed_csv(tmp_path, k=60):
    """k strata of 20 exposed and 20 unexposed subjects whose risk
    difference is negative in about half of them; returns the path and
    each level's exposed-minus-unexposed event count."""
    rng = np.random.default_rng(12)
    lines, diffs = ["g,x,y,count"], {}
    for i in range(k):
        a, b = rng.choice(np.arange(1, 20), size=2, replace=False).tolist()
        level = f"{i:02d}"
        diffs[level] = a - b
        lines += [f"{level},1,1,{a}", f"{level},1,0,{20 - a}",
                  f"{level},0,1,{b}", f"{level},0,0,{20 - b}"]
    path = tmp_path / "signed.csv"
    path.write_text("\n".join(lines) + "\n")
    return path, diffs


class TestIdentifyFlags:
    def test_marks_follow_the_sign_of_each_risk_difference(self, tmp_path,
                                                           capsys):
        data, diffs = _write_signed_csv(tmp_path)
        negative = [level for level, d in diffs.items() if d < 0]
        assert 20 < len(negative) < 40
        report_path = tmp_path / "report.json"
        assert run(["identify", "--data", str(data),
                    "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        marked = {}
        for m in re.finditer(r"risk difference g=(\d+): (\S+)(  \[negative\])?$",
                             out, re.M):
            marked[m.group(1)] = (float(m.group(2)), m.group(3) is not None)
        assert sorted(marked) == sorted(diffs)
        for level, (rd, flagged) in marked.items():
            assert rd == pytest.approx(diffs[level] / 20, abs=1e-3)
            assert flagged == (diffs[level] < 0)
        assert f"({len(negative)} of {len(diffs)} strata flagged)" in out

        mono = json.loads(report_path.read_text())["estimates"]["monotonicity"]
        assert mono["flagged"] == [{"g": level} for level in negative]
        assert [(e["stratum"]["g"], e["value"] < 0)
                for e in mono["risk_differences"]] == \
            [(level, d < 0) for level, d in diffs.items()]


class TestInputErrors:
    """Bad input ends in one line on stderr and exit 1 or 2."""

    @pytest.mark.parametrize("argv", [
        ["bounds", "--data"],
        ["bounds", *DATA, "--experimental"],
        ["simulate", "--n", "100", "--reps", "2", "--seed", "1", "--scenario"],
    ])
    def test_undecodable_input_file(self, argv, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("stage,x,y,count\n\u00e9,1,1,3\n".encode("latin-1"))
        assert run([*argv, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot decode")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,what", [
        (["bounds", *DATA, "--experimental"], "experimental"),
        (["verify", *DATA, "--experimental"], "experimental"),
        (["simulate", "--n", "100", "--reps", "2", "--seed", "1",
          "--scenario"], "scenario"),
    ])
    def test_too_deeply_nested_input_file(self, argv, what, tmp_path, capsys):
        # deeper than json.loads can recurse
        path = tmp_path / "nested.json"
        path.write_text("[" * 1000 + "]" * 1000)
        assert run([*argv, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {what} file is not valid JSON: nested too deeply\n"

    def test_negative_seed_is_usage_error(self, capsys):
        assert run(["simulate", "--setting", "1", "--n", "100",
                    "--reps", "2", "--seed", "-1"]) == 2
        assert "--seed: must be a nonnegative integer" in capsys.readouterr().err

    # huge values are checked by the parser, so no draw ever runs at them
    @pytest.mark.parametrize("n", ["0", "-5", "9223372036854775808",
                                   "10000000000000000000000", "1.5", "x"])
    def test_simulate_sample_size_out_of_range(self, n, capsys):
        assert run(["simulate", "--setting", "1", "--n", n, "--reps", "2",
                    "--seed", "1"]) == 2
        assert "--n: must be an integer from 1 to 2**63 - 1" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["1", "0", "-3", "2.5"])
    def test_simulate_reps_out_of_range(self, reps, capsys):
        assert run(["simulate", "--setting", "1", "--n", "100", "--reps", reps,
                    "--seed", "1"]) == 2
        assert "--reps: must be an integer >= 2" in capsys.readouterr().err

    # a replication's number is one 32-bit word of its seed
    @pytest.mark.parametrize("reps", ["4294967296", "1000000000000000"])
    def test_simulate_reps_beyond_one_seed_word(self, reps, capsys):
        assert run(["simulate", "--setting", "1", "--n", "10", "--reps", reps,
                    "--seed", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: pcause simulate")
        assert err.splitlines()[-1].endswith(
            f"--reps: must be an integer >= 2 and < 2**32, got '{reps}'")

    def test_simulate_range_ends_accepted_by_the_parser(self):
        args = cli.build_parser().parse_args(
            ["simulate", "--setting", "1", "--n", str(2**63 - 1),
             "--reps", "2", "--seed", "1"])
        assert args.n == 2**63 - 1 and args.reps == 2
        args = cli.build_parser().parse_args(
            ["simulate", "--setting", "1", "--n", "1",
             "--reps", str(2**32 - 1), "--seed", "1"])
        assert args.reps == 2**32 - 1
        args = cli.build_parser().parse_args(
            ["simulate", "--setting", "1", "--n", "1", "--reps", "2",
             "--seed", "1"])
        assert args.n == 1

    @pytest.mark.parametrize("command", ["bounds", "identify", "verify"])
    @pytest.mark.parametrize("cells", [
        # one count of 309 digits
        ("2" + "0" * 308, "3", "4", "5"),
        # two counts that fit a float but whose sum does not
        (str(10**308), str(10**308), "4", "5"),
    ])
    def test_counts_too_large_for_a_float(self, command, cells, tmp_path,
                                          capsys):
        data = tmp_path / "huge.csv"
        data.write_text("g,x,y,count\n" + "".join(
            f"1,{x},{y},{c}\n" for (x, y), c in
            zip(((1, 1), (1, 0), (0, 1), (0, 0)), cells)))
        assert run([command, "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: stratum g=1: counts too large for floating "
                       "point (their total exceeds 1.8e308)\n")

    # an integer literal too large for a float: 1 followed by 400 zeros
    def test_experimental_integer_too_large_for_a_float(self, tmp_path,
                                                         capsys):
        path = tmp_path / "pairs.json"
        path.write_text('{"strata": [{"levels": {"stage": "1"}, '
                        '"p_event_do_exposed": 1' + "0" * 400 + ', '
                        '"p_event_do_unexposed": 0.3}]}')
        assert run(["bounds", *DATA, "--experimental", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: malformed experimental data: int too large to convert "
            "to float\n")

    def test_scenario_integer_too_large_for_a_float(self, tmp_path, capsys):
        scenario = builtin_scenarios()[0].to_dict()
        scenario["cells"][0]["p"] = 10**400
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert run(["simulate", "--scenario", str(path), "--n", "300",
                    "--reps", "5", "--seed", "2"]) == 1
        assert capsys.readouterr().err == (
            "error: malformed scenario: int too large to convert to float\n")

    # a field one character over the csv module's limit, unquoted and
    # quoted, after a comment line that the line number counts
    @pytest.mark.parametrize("level", ["a" * 131_073,
                                       '"' + "a" * 131_073 + '"'],
                             ids=["unquoted", "quoted"])
    def test_field_over_the_csv_size_limit(self, level, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        data.write_text(f"# wide level\ns,x,y,count\n{level},1,1,3\n")
        assert run(["bounds", "--data", str(data)]) == 1
        assert capsys.readouterr().err == (
            "error: line 3: field larger than field limit (131072)\n")

    def test_repeated_stratifier_name(self, capsys):
        assert run(["identify", *DATA, "--stratifier", "stage,stage"]) == 1
        assert capsys.readouterr().err == (
            "error: duplicate covariate names: ('stage', 'stage')\n")

    def test_verify_with_an_unexposed_risk_that_rounds_to_one(self, tmp_path,
                                                              capsys):
        # P(y|x') = 1e17 / (1e17 + 4) rounds to 1.0, while P(x',y') > 0
        data = tmp_path / "edge.csv"
        data.write_text("g,x,y,count\n1,1,1,100000000000000000\n1,1,0,3\n"
                        "1,0,1,100000000000000000\n1,0,0,4\n")
        report = tmp_path / "report.json"
        assert run(["verify", "--data", str(data), "--json", str(report)]) == 0
        captured = capsys.readouterr()
        assert captured.out.rstrip().endswith("PASS")
        assert captured.err == ""
        entries = json.loads(report.read_text())["verification"]["entries"]
        ps = next(e for e in entries if e["quantity"] == "PS")
        assert (ps["searched"]["lower"], ps["searched"]["upper"]) == (0.0, 1.0)
        assert (ps["closed"]["lower"], ps["closed"]["upper"]) == (0.0, 1.0)

    def test_select_g_statistic_overflow(self, tmp_path, capsys):
        # counts of 1e306 to 6e306 fit a float, but G multiplies them
        data = tmp_path / "huge.csv"
        data.write_text("s,t,x,y,count\n" + "".join(
            f"{s},{t},{x},{y},{(i % 6 + 1) * 10**306}\n" for i, (s, t, x, y) in
            enumerate(itertools.product((1, 2), (1, 2), (1, 0), (1, 0)))))
        report = tmp_path / "report.json"
        assert run(["select", "--data", str(data), "--s", "s", "--t", "t",
                    "--json", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: premise y-indep-t-given-xs: G "
                                "statistic is nan; counts too large for "
                                "floating point\n")
        assert not report.exists()

    @staticmethod
    def _avar_overflow(command, levels, counts, tmp_path, capsys):
        """The one stderr line of ``command`` on ``counts`` in each stratum
        of ``levels``, after checking that it exits 1 with no stdout."""
        data = tmp_path / "tiny_cases.csv"
        names = ("s", "t")[:len(levels[0])]
        data.write_text(",".join((*names, "x", "y", "count")) + "\n" + "".join(
            f"{','.join(level)},{x},{y},{c}\n" for level in levels
            for (x, y), c in zip(((1, 1), (1, 0), (0, 1), (0, 0)), counts)))
        assert run([*command, "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, levels", [
        (["identify"], [("1",)]),
        (["select", "--s", "s", "--t", "t"],
         list(itertools.product("12", "12"))),
    ])
    def test_avar_square_overflow(self, command, levels, tmp_path, capsys):
        # P(x, y) is about 5e-301 in every stratum, so PN's (1 - PN) ** 2
        # exceeds the largest float
        err = self._avar_overflow(command, levels, (1, 10**300, 10**300, 1),
                                  tmp_path, capsys)
        assert err == ("error: a.var too large for floating point "
                       "(a squared term exceeds 1.8e308)\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_avar_product_overflow(self, tmp_path, capsys):
        # (1 - PN) ** 2 is finite, but its product with P(y|x,s) P(y'|x,s)
        # / P(x,s) is not
        err = self._avar_overflow(["identify"], [("1",)],
                                  (10**103, 10**251, 10**174, 10**152),
                                  tmp_path, capsys)
        assert err == ("error: a.var too large for floating point "
                       "(a term exceeds 1.8e308)\n")

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-0.001", "x"])
    def test_verify_tol_out_of_range(self, tol, capsys):
        assert run(["verify", *DATA, "--tol", tol]) == 2
        assert "--tol: must be a finite number >= 0" in capsys.readouterr().err

    def test_verify_tol_zero_accepted(self, capsys):
        # accepted as a value; float noise then fails the check, so exit 1
        assert run(["verify", *DATA, "--tol", "0"]) == 1
        captured = capsys.readouterr()
        assert ": FAIL" in captured.out
        assert "usage:" not in captured.err

    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "-0.05", "nan"])
    def test_select_alpha_out_of_range(self, alpha, tmp_path, capsys):
        data = _write_two_covariate_csv(tmp_path)
        assert run(["select", "--data", str(data), "--s", "s", "--t", "t",
                    "--alpha", alpha]) == 2
        assert "--alpha: must be a number strictly between 0 and 1" in \
            capsys.readouterr().err


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark reads as without it."""

    @staticmethod
    def _same_with_and_without(path, text, argv, capsys):
        outcomes = []
        for mark in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(mark + text.encode())
            outcomes.append((run(argv), capsys.readouterr()))
        assert outcomes[0][0] == 0
        assert outcomes[1] == outcomes[0]

    def test_counts_with_covariates(self, tmp_path, capsys):
        # the mark before the header, not before a comment line
        path = tmp_path / "counts.csv"
        lines = CANCER_CSV.read_text().splitlines(keepends=True)
        self._same_with_and_without(
            path, "".join(line for line in lines if not line.startswith("#")),
            ["identify", "--data", str(path), "--stratifier", "stage"], capsys)

    def test_counts_without_covariates(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        self._same_with_and_without(
            path, "x,y,count\n1,1,12\n1,0,8\n0,1,5\n0,0,14\n",
            ["bounds", "--data", str(path)], capsys)

    def test_experimental_pairs(self, tmp_path, capsys, cancer_experimental):
        path = tmp_path / "pairs.json"
        self._same_with_and_without(
            path, json.dumps(experimental_to_dict(cancer_experimental)),
            ["bounds", *DATA, "--experimental", str(path)], capsys)

    def test_scenario(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        self._same_with_and_without(
            path, json.dumps(builtin_scenarios()[3].to_dict()),
            ["simulate", "--scenario", str(path), "--n", "300", "--reps", "5",
             "--seed", "2"], capsys)


class TestScenarioExposure:
    """A scenario's exposure levels must be integers, however spelled."""

    ARGV = ["--n", "300", "--reps", "5", "--seed", "2"]

    @pytest.mark.parametrize("entries", ["cells", "outcome_conditionals"])
    @pytest.mark.parametrize("x", [0.5, 1.5, -0.25])
    def test_fraction_is_malformed(self, entries, x, tmp_path, capsys):
        scenario = builtin_scenarios()[3].to_dict()
        scenario[entries][0]["x"] = x
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert run(["simulate", "--scenario", str(path), *self.ARGV]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: malformed scenario: exposure level "
                                f"{x!r} is not an integer\n")

    @pytest.mark.parametrize("spelling", [1, 1.0, "1"])
    def test_integral_spellings_load(self, spelling, tmp_path, capsys):
        scenario = builtin_scenarios()[3].to_dict()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        assert run(["simulate", "--scenario", str(path), *self.ARGV]) == 0
        want = capsys.readouterr()
        for entry in scenario["cells"] + scenario["outcome_conditionals"]:
            if entry["x"] == 1:
                entry["x"] = spelling
        path.write_text(json.dumps(scenario))
        assert run(["simulate", "--scenario", str(path), *self.ARGV]) == 0
        assert capsys.readouterr() == want


class TestCollectorThreshold:
    """run() raises the generation-0 threshold only while it runs."""

    CUSTOM = (1234, 11, 12)

    @pytest.fixture(autouse=True)
    def custom_threshold(self):
        saved = gc.get_threshold()
        gc.set_threshold(*self.CUSTOM)
        yield
        gc.set_threshold(*saved)

    @pytest.mark.parametrize("argv,code", [
        (["bounds", *DATA], 0),
        (["bounds", "--data", "/nonexistent/counts.csv"], 1),
        (["bounds", "--frobnicate"], 2),
    ])
    def test_restored_on_every_exit(self, argv, code, capsys):
        assert run(argv) == code
        capsys.readouterr()
        assert gc.get_threshold() == self.CUSTOM

    def test_raised_during_run_and_restored_after_exception(self, monkeypatch):
        seen = []

        def handler(args):
            seen.append(gc.get_threshold())
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_bounds", handler)
        with pytest.raises(RuntimeError, match="boom"):
            run(["bounds", *DATA])
        assert seen == [(cli._GC_THRESHOLD0, 11, 12)]
        assert gc.get_threshold() == self.CUSTOM


# argvs that end in argparse's own output: usage errors, help and version
_PARSER_EXITS = [
    ["bounds", *DATA, "--frobnicate"],
    ["bounds"],
    ["select", "--alpha", "2"],
    ["simulate", "--setting", "1", "--scenario", "x.json"],
    ["verify", "--tol", "-1"],
    ["--help"],
    ["bounds", "--help"],
    ["--version"],
]


def _fresh_parse(argv, capsys):
    """(exit code, stdout, stderr) of a newly built parser on ``argv``."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    return (0 if exc.value.code in (0, None) else exc.value.code,
            *capsys.readouterr())


class TestParserReuse:
    """run() parses with one parser per process, built on its first call."""

    def test_later_runs_build_no_parser(self, monkeypatch, capsys):
        assert run(["bounds", *DATA]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run(["bounds", *DATA]) == 0
        assert run(["bounds", "--frobnicate"]) == 2
        assert built == []
        # the count sees a build: the parser and its five subparsers
        cli.build_parser()
        assert len(built) == 6
        capsys.readouterr()

    def test_build_parser_returns_a_new_parser(self, capsys):
        assert run(["bounds", *DATA]) == 0
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert cli._parser() not in (first, second)
        subparsers = next(a for a in first._actions
                          if isinstance(a, argparse._SubParsersAction))
        subparsers.choices["bounds"].add_argument("--extra")
        argv = ["bounds", *DATA, "--extra", "1"]
        assert first.parse_args(argv).extra == "1"
        capsys.readouterr()
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("unrecognized arguments: --extra 1\n")
        assert _fresh_parse(argv, capsys) == (2, out, err)

    @pytest.mark.parametrize("argv", _PARSER_EXITS, ids=" ".join)
    def test_reused_parser_prints_what_a_fresh_one_prints(self, argv,
                                                         monkeypatch, capsys):
        cli._parser.cache_clear()
        printed = {}
        for columns in (None, "40", "200"):
            if columns is not None:
                monkeypatch.setenv("COLUMNS", columns)
            expected = _fresh_parse(argv, capsys)
            for _ in range(2):
                assert (run(argv), *capsys.readouterr()) == expected
            printed[columns] = expected
        assert cli._parser.cache_info().misses == 1
        if "--help" in argv:
            # the help text wraps to the width at each call
            assert printed["40"] != printed["200"]


def _readme_synopses():
    """Each subcommand's fenced ``pcause <cmd> ...`` synopsis in the README,
    continuation lines joined."""
    text = (DATA_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
    synopses = {}
    for block in re.findall(r"```\n(pcause .*?)```", text, flags=re.S):
        line = block.replace("\\\n", " ")
        synopses[line.split()[1]] = line
    return synopses


class TestReadmeSynopses:
    def test_options_match_the_parser(self):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        synopses = _readme_synopses()
        assert set(synopses) == set(subparsers.choices)
        for command, sub in subparsers.choices.items():
            accepted = {opt for action in sub._actions
                        for opt in action.option_strings if opt.startswith("--")}
            shown = set(re.findall(r"--[a-z][a-z-]*", synopses[command]))
            assert shown <= accepted, command
            assert accepted - {"--json", "--help"} <= shown, command
