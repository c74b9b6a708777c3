"""pcause benchmark: CLI latency, set-up time, memory and per-layer time.

Run from the repository root:

    python3 perfbench/run.py --workload strata-wide --seed 1 --seconds 20 --trace 0

Workloads (defined, with the reason for each, in ``workloads.py``):
``strata-wide``, ``replication`` and ``fixture-burst``.  Inputs are
generated from ``--seed`` into ``.perfbench/`` and removed afterwards.

Each run starts ``worker.py`` in a fresh child process that drives
``pcause.cli.run(argv)`` in a closed loop, in whole passes over the
workload's jobs for about ``--seconds`` (at least one pass), and checks
every report (see ``checks.py``).  With ``--trace 0`` the run reports the
end-to-end metrics named in ``BENCHMARK.json``:

* ``setup_s``: median wall time of a fresh interpreter running
  ``import pcause.cli``, over ``SETUP_RUNS`` runs;
* ``pass_s``: the sum over the workload's jobs of each job's median wall
  time, i.e. what running every analysis of the workload once costs;
* ``peak_rss_mb``: peak resident set of the worker process.

Both times are scaled to the speed of a reference kernel measured in the
same processes (see ``reference.py``), so that the shared machine's drift
cancels; the unscaled figures are in the provenance line.

With ``--trace 1`` it reports the per-layer metrics instead: per-subcommand
median latencies, self time and calls per pass for every wrapped layer
(``tracer.py``), report bytes, the simulation accept ratio, the tracing
overhead and the error rate.  Spans are kept in
``.perfbench/spans-<workload>.jsonl.gz``.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records provenance.  Without the pcause
sources under ``src/`` the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import reference
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"

SETUP_RUNS = 5
# Each set-up child, once imported, runs the reference kernel for about a
# tenth of the import time and prints the samples.
SETUP_CODE = f"""
import time, pcause.cli
end = time.perf_counter()
import sys; sys.path.insert(0, {str(HERE)!r})
import json, reference
print(json.dumps([end, reference.run_for(0.15)]))
"""
# Every run must end within 180 s; keep headroom for the set-up runs.
DEADLINE_S = 170.0
SETUP_BUDGET_S = 25.0


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Write no bytecode caches: the run writes nothing outside its checkout,
    # so every import compiles pcause's own sources (about 0.05 s).
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def setup_seconds(env: dict[str, str], deadline: float) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to its having
    imported ``pcause.cli``: (scaled to the reference speed, unscaled).

    Both ends are read from the system-wide monotonic clock.
    """
    times, kernel = [], []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        try:
            done = subprocess.run([sys.executable, "-c", SETUP_CODE],
                                  cwd=ROOT, env=env, check=True,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, deadline - start))
            end, samples = json.loads(done.stdout)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
                ValueError) as exc:
            raise BenchError(f"importing pcause.cli failed: {exc}") from exc
        times.append(end - start)
        kernel += samples
    wall = statistics.median(times)
    return wall * reference.scale(kernel), wall


def run_worker(args: argparse.Namespace, env: dict[str, str], workdir: Path,
               deadline: float) -> tuple[dict, float]:
    """Run the workload in a child; return its result and its peak RSS (MB).

    The worker is the first child this process waits for, so
    ``RUSAGE_CHILDREN`` reports the worker's own peak.
    """
    out = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--out", str(out)]
    if args.trace:
        cmd += ["--spans", str(SCRATCH / f"spans-{args.workload}.jsonl.gz")]
    if args.tiny:
        cmd.append("--tiny")
    # The worker's stdout goes to stderr: this process's stdout ends with
    # the result line.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        proc.wait(timeout=deadline - SETUP_BUDGET_S - perf_counter())
    except subprocess.TimeoutExpired:
        raise BenchError("the workload did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"the worker exited with status {proc.returncode}")
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return json.loads(out.read_text()), peak_mb


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def select_metrics(values: dict, trace: bool) -> dict:
    """Every metric ``BENCHMARK.json`` names for this mode, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark the pcause CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the inputs (for the self-tests)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind through the clean-up below: stop the worker and
    # remove the inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "pcause" / "cli.py").is_file():
        print(f"perfbench: no pcause sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = child_env()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        result, peak_mb = run_worker(args, env, workdir, deadline)
        values = dict(result["metrics"])
        if not args.trace:
            values["peak_rss_mb"] = peak_mb
            values["setup_s"], result["unscaled"]["setup_wall_s"] = \
                setup_seconds(env, deadline)
        metrics = select_metrics(values, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": result["passes"],
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "absent": result["absent"], **result["versions"],
        **result["unscaled"],
    }))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
