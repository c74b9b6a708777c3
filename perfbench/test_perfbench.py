"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

import pcause.bounds
import pcause.cli
import pcause.oracle
import reference
from checks import check_report
from run import ROOT, SCRATCH
from tracer import LAYERS, Tracer
from worker import Runner, measure
from workloads import FIXTURE, WORKLOADS, Job, fixture_burst, strata_wide

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=SCRATCH))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_emits_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    *_, provenance, last = done.stdout.splitlines()
    result = json.loads(last)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    info = json.loads(provenance)
    assert info["seed"] == 3 and info["nproc"] >= 1 and info["absent"] == []
    assert {"python", "numpy", "scipy", "git_sha"} <= set(info)


def test_refuses_to_run_without_the_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(ROOT / "perfbench", workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "fixture-burst", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=workdir)
    assert done.returncode != 0
    assert done.stdout == ""


def test_inputs_depend_only_on_the_seed(workdir):
    first, second, other = (workdir / name for name in ("a", "b", "c"))
    for path, seed in ((first, 5), (second, 5), (other, 6)):
        path.mkdir()
        strata_wide(seed, path, grid=4)
        fixture_burst(seed, path, tables=2)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert all((first / n).read_bytes() == (second / n).read_bytes()
               for n in names)
    assert (first / "strata.csv").read_bytes() != \
        (other / "strata.csv").read_bytes()


_real_run = pcause.cli.run


def _tampering_run(argv):
    """The real CLI, then a stratified PN interval widened past Tian-Pearl."""
    code = _real_run(argv)
    path = Path(argv[argv.index("--json") + 1])
    report = json.loads(path.read_text())
    for iv in report["intervals"] or []:
        if iv["method"] == "stratified":
            iv["upper"] = 1.5
    path.write_text(json.dumps(report, indent=2) + "\n")
    return code


def test_tampered_report_counts_as_failed(workdir):
    job = Job(("bounds", "--data", str(FIXTURE)), fixture=True)
    honest = Runner(pcause.cli, workdir)
    assert honest.checked(0, job)[1]

    runner = Runner(SimpleNamespace(run=_tampering_run), workdir)
    _, ok, _ = runner.checked(0, job)
    assert not ok and runner.failed == 1
    assert any("outside tian-pearl" in p for p in runner.problems)


def test_tampered_reports_raise_the_error_rate(workdir, monkeypatch):
    monkeypatch.setattr(pcause.cli, "run", _tampering_run)
    result = measure("fixture-burst", 1, 0.0, True, workdir, tiny=True)
    assert result["failed"] > 0
    assert result["metrics"]["error_rate"] == \
        result["failed"] / result["attempted"]


def test_changed_report_for_the_same_argv_counts_as_failed(workdir):
    job = Job(("identify", "--data", str(FIXTURE)))
    runner = Runner(pcause.cli, workdir)
    assert runner.checked(0, job)[1]
    runner.digests[job.argv] = "0" * 64
    assert not runner.checked(0, job)[1]


@pytest.mark.parametrize("command, section, patch, problem", [
    ("verify", "verification", {"passed": False}, "did not pass"),
    ("simulate", "simulation", {"discarded": 500, "attempts": 1000},
     "discarded"),
])
def test_check_rejects(command, section, patch, problem):
    report = dict.fromkeys(["metadata", "input", "intervals", "estimates",
                            "selection", "verification", "simulation",
                            "warnings"])
    report["metadata"] = {"command": command}
    report[section] = {"discarded": 0, "attempts": 1, "results": [
        {"quantity": "PN", "stratifier": ["s"], "empirical_var": 1.0,
         "population_avar": 1.0}] * 6, **patch}
    assert any(problem in p for p in check_report(command, report))


def test_reference_kernel_runs_for_the_time_asked():
    assert len(reference.run_for(0.0)) == 1
    samples = reference.run_for(0.05)
    assert sum(samples) >= 0.05 and all(t > 0 for t in samples)
    assert reference.scale([reference.REFERENCE_S] * 3) == 1.0


def test_tracer_wraps_table_bindings_and_restores_them():
    boxes = dict(pcause.cli._CONDITIONAL_BOXES)
    tracer = Tracer()
    tracer.install()
    try:
        assert all(pcause.cli._CONDITIONAL_BOXES[q] is not boxes[q]
                   for q in boxes)
        assert pcause.cli.pn_interval_conditional is \
            pcause.bounds.pn_interval_conditional
        assert pcause.cli.json.dumps({"a": 1}) == '{"a": 1}'
    finally:
        tracer.uninstall()
    assert pcause.cli._CONDITIONAL_BOXES == boxes
    assert pcause.cli.json is json
    assert tracer.absent == set()


def test_tracer_records_a_removed_name_as_absent(monkeypatch):
    monkeypatch.delattr(pcause.oracle, "feasible_extrema")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"pcause.oracle.feasible_extrema"}


def test_self_times_account_for_the_traced_wall(workdir):
    strata_wide(2, workdir, grid=5)
    runner = Runner(pcause.cli, workdir)
    tracer = Tracer()
    walls = []
    for job in (Job(("bounds", "--data", str(workdir / "strata.csv"),
                     "--experimental", str(workdir / "strata.json"))),
                Job(("verify", "--data", str(workdir / "strata.csv")))):
        wall, ok, _ = runner.checked(0, job, tracer)
        assert ok, runner.problems
        walls.append(wall)
    own, calls = tracer.self_times()
    assert calls[LAYERS.index("cli.run")] == 2
    assert calls[LAYERS.index("bounds.conditional")] == 2 * 3 * 25
    assert calls[LAYERS.index("oracle.feasible_extrema")] == 3 * 25
    assert (own >= 0).all()
    # every span nests under cli.run, so self times sum to its wall time
    assert 0.0 <= sum(walls) - own.sum() < 0.01
