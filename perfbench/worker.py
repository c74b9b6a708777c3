"""Runs one workload's job list in a warm process and writes its figures.

``run.py`` starts this file in a fresh child process with ``PYTHONPATH=src``
and one BLAS thread.  Every invocation goes through ``pcause.cli.run(argv)``
with ``--json`` written into the work directory and stdout and stderr
captured.  The load is a closed loop with one caller: one invocation at a
time, ``gc.collect()`` before each, outside the timed window.

With ``--trace 0`` the reference kernel (``reference.py``) runs between
invocations, outside the timed windows, for ``REFERENCE_SHARE`` of the
loop's time, and ``pass_s`` is scaled to the reference speed.
With ``--trace 1`` every job runs twice per pass, untraced and traced, so
the tracing overhead is measured on the same inputs in the same process;
the per-layer figures are not scaled.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import platform
import statistics
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import pcause.cli
import reference
from checks import check_report
from tracer import LAYERS, Tracer
from workloads import TINY, WORKLOADS, Job

COMMANDS = ("bounds", "identify", "select", "verify", "simulate")
MAX_PROBLEMS = 20
# Reference-kernel time per second of the loop's other time, spread evenly
# over the run so that each moment of it weighs alike.
REFERENCE_SHARE = 0.1
# The kernel runs in bursts at least this long, so that most of its samples
# are warm in the caches whatever the program left there.
REFERENCE_BURST_S = 0.02


class Runner:
    """Invokes jobs, times them and checks their reports."""

    def __init__(self, cli, workdir: Path) -> None:
        self.cli = cli
        self.reports = workdir / "reports"
        self.reports.mkdir(parents=True, exist_ok=True)
        self.digests: dict[tuple[str, ...], str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reps = 0
        self.draws = 0

    def invoke(self, slot: int, job: Job,
               tracer: Tracer | None = None) -> tuple[int, float, Path]:
        path = self.reports / f"{slot}.json"
        path.unlink(missing_ok=True)
        sink = io.StringIO()
        gc.collect()
        if tracer is not None:
            tracer.request = self.attempted
            tracer.install()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                start = perf_counter()
                try:
                    code = self.cli.run([*job.argv, "--json", str(path)])
                except Exception as exc:  # a traceback is a failed invocation
                    code = f"{type(exc).__name__}: {exc}"
                wall = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        return code, wall, path

    def checked(self, slot: int, job: Job,
                tracer: Tracer | None = None) -> tuple[float, bool, int]:
        """Run and check one timed invocation: (wall, passed, report bytes)."""
        code, wall, path = self.invoke(slot, job, tracer)
        self.attempted += 1
        size = 0
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            data = path.read_bytes()
            size = len(data)
            problems = self._check(job, data)
        if problems:
            self.failed += 1
            for problem in problems:
                if len(self.problems) < MAX_PROBLEMS:
                    self.problems.append(f"{' '.join(job.argv)}: {problem}")
        return wall, not problems, size

    def _check(self, job: Job, data: bytes) -> list[str]:
        problems = []
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(job.argv, digest) != digest:
            problems.append("report differs from an earlier run of this argv")
        try:
            report = json.loads(data)
            problems += check_report(job.command, report, job.fixture)
            if job.command == "simulate":
                self.reps += report["simulation"]["reps"]
                self.draws += report["simulation"]["attempts"]
        except (ValueError, KeyError, TypeError, AttributeError,
                ZeroDivisionError) as exc:
            problems.append(f"malformed report: {exc!r}")
        return problems


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path, tiny: bool = False,
            spans: Path | None = None) -> dict:
    """Generate the inputs, run the job list for ``seconds`` and summarize."""
    sizes = TINY[workload] if tiny else {}
    plan = WORKLOADS[workload](seed, workdir, **sizes)

    runner = Runner(pcause.cli, workdir)
    for job in plan.warmups:
        code, _, _ = runner.invoke(-1, job)
        if code != 0:
            raise SystemExit(f"warm-up {' '.join(job.argv)} failed: {code}")

    tracer = Tracer() if trace else None
    walls: list[list[float]] = [[] for _ in plan.jobs]
    traced_walls: list[float] = []
    kernel_walls: list[float] = []
    report_bytes = 0
    passes = 0
    pass_seconds = 0.0
    start = kernel_from = perf_counter()
    # Whole passes only, and none expected (from the previous one) to end
    # after ``seconds``: a run measures for about ``seconds`` or one pass,
    # whichever is longer.
    while passes == 0 or perf_counter() - start + pass_seconds <= seconds:
        pass_start = perf_counter()
        for slot, job in enumerate(plan.jobs):
            if tracer is None:
                modes = (None,)
            else:
                # Alternate which of the pair runs first, so that neither
                # always pays first-use costs such as growing the heap.
                modes = ((None, tracer) if (slot + passes) % 2 == 0
                         else (tracer, None))
            for mode in modes:
                wall, _, size = runner.checked(slot, job, mode)
                if mode is not None:
                    traced_walls.append(wall)
                    continue
                walls[slot].append(wall)
                report_bytes += size
                if tracer is None:
                    owed = REFERENCE_SHARE * (perf_counter() - kernel_from)
                    if owed >= REFERENCE_BURST_S:
                        kernel_walls += reference.run_for(owed)
                        kernel_from = perf_counter()
        pass_seconds = perf_counter() - pass_start
        passes += 1

    if tracer is None:
        kernel_walls += reference.run_for(
            REFERENCE_SHARE * (perf_counter() - kernel_from))
        pass_wall = sum(statistics.median(w) for w in walls)
        metrics = {"pass_s": pass_wall * reference.scale(kernel_walls)}
        unscaled = {"pass_wall_s": pass_wall,
                    "kernel_s": statistics.median(kernel_walls)}
    else:
        unscaled = {}
        metrics = {}
        for command in COMMANDS:
            samples = [t for job, w in zip(plan.jobs, walls)
                       if job.command == command for t in w]
            metrics[f"{command}_s"] = (statistics.median(samples)
                                       if samples else 0.0)
        own, calls = tracer.self_times()
        for layer, seconds_, count in zip(LAYERS, own, calls):
            metrics[f"{layer}_s"] = float(seconds_) / passes
            metrics[f"{layer}.calls"] = int(count) // passes
        metrics["cli.report_bytes"] = report_bytes // passes
        metrics["simulate.accept_ratio"] = (runner.reps / runner.draws
                                            if runner.draws else 0.0)
        metrics["trace.overhead_s"] = (sum(traced_walls)
                                       - sum(sum(w) for w in walls)) / passes
        metrics["error_rate"] = runner.failed / runner.attempted
        if spans is not None:
            tracer.write(spans)

    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "passes": passes,
        "absent": sorted(tracer.absent) if tracer else [],
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "metrics": metrics,
        "unscaled": unscaled,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.workdir, tiny=args.tiny, spans=args.spans)
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
