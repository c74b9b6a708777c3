"""Digest every CLI report of a fixed job list, to compare two trees.

    python3 tools/report_digests.py REPO WORKDIR

Runs 51 jobs through ``pcause.cli.run`` of the tree at REPO (its ``src/``
comes first on the import path), in one process, from REPO as the working
directory:

* every timed job of the three benchmark workloads at seed 1, full size,
  with inputs generated into WORKDIR by this tree's ``perfbench/workloads.py``;
* ``bounds``, ``identify``, ``select``, ``verify`` and ``verify --tol 0`` on
  the cancer fixture, each with and without ``--smoothing add-half``;
* ``simulate --setting 1..4 --n 1000 --reps 5000 --seed 7``;
* ``simulate --setting 4 --n 200 --reps 2000 --seed 7``, which redraws many
  samples, and ``simulate --setting 1 --n 120 --reps 200 --seed 7``, which
  redraws too many and exits 1.

It prints one line per job: the exit code, a SHA-256 over the exit code,
stdout, stderr and the ``--json`` report, and the argv.  Reports record the
data path, so run both trees with the same WORKDIR and diff the outputs.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
FIXTURE = "tests/data/breast_cancer.csv"


def jobs(workdir: Path) -> list[tuple[str, ...]]:
    sys.path.insert(0, str(HERE / "perfbench"))
    from workloads import WORKLOADS

    argvs = [job.argv for make in WORKLOADS.values()
             for job in make(1, workdir).jobs]
    for smoothing in ((), ("--smoothing", "add-half")):
        argvs += [("bounds", "--data", FIXTURE, *smoothing),
                  ("identify", "--data", FIXTURE, *smoothing),
                  ("select", "--data", FIXTURE, "--s", "stage", "--t", "t",
                   *smoothing),
                  ("verify", "--data", FIXTURE, *smoothing),
                  ("verify", "--data", FIXTURE, "--tol", "0", *smoothing)]
    argvs += [("simulate", "--setting", str(setting), "--n", "1000",
               "--reps", "5000", "--seed", "7") for setting in (1, 2, 3, 4)]
    argvs += [("simulate", "--setting", "4", "--n", "200", "--reps", "2000",
               "--seed", "7"),
              ("simulate", "--setting", "1", "--n", "120", "--reps", "200",
               "--seed", "7")]
    return argvs


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        raise SystemExit("usage: report_digests.py REPO WORKDIR")
    repo, workdir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    report = workdir / "report.json"
    argvs = jobs(workdir)
    os.chdir(repo)
    sys.path.insert(0, str(repo / "src"))
    import pcause.cli

    for job in argvs:
        report.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = pcause.cli.run([*job, "--json", str(report)])
        digest = hashlib.sha256()
        for part in (str(code), out.getvalue(), err.getvalue()):
            digest.update(part.encode() + b"\0")
        digest.update(report.read_bytes() if report.exists() else b"(no report)")
        print(code, digest.hexdigest(), " ".join(job), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
