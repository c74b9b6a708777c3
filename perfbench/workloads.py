"""Seeded inputs and job lists for the benchmark workloads.

Every input is generated from the workload seed into a work directory; the
program under test only ever sees the generated files.  The one exception
is the checked-in cancer fixture, whose published endpoints make it an
end-to-end correctness check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIXTURE = Path("tests") / "data" / "breast_cancer.csv"

# Simulation settings at the paper's Monte Carlo configuration.
SIM_N = 1000
SIM_REPS = 5000

# Share of generated strata whose exposed risk is below the unexposed one.
# 0.1 is an arbitrary choice, not taken from data: it makes the
# no-prevention diagnostic flag a minority of strata, so both of its branches
# run.  (The cancer fixture, the one real table here, is negative in all
# three strata.)  identify's cost on strata-wide grows with this share: the
# CLI tests each stratum for membership in the flagged tuple, which is
# O(strata x flagged), so identify_s there is not representative of tables
# with another share.
NEGATIVE_SHARE = 0.1

# (s levels, t levels) of the small fixture-burst tables: 4 to 9 strata.
SMALL_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``argv`` for ``pcause.cli.run`` without ``--json``.

    ``fixture`` marks a ``bounds`` run on the cancer fixture, whose eight
    published endpoints are checked.
    """

    argv: tuple[str, ...]
    fixture: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    warmups: tuple[Job, ...]
    jobs: tuple[Job, ...]


def _draw_strata(rng: np.random.Generator, k: int) -> np.ndarray:
    """Cell counts (k, 4) in the order (x=1,y=1), (x=1,y=0), (x=0,y=1),
    (x=0,y=0); every stratum has n in [40, 400] and no empty cell.

    A share ``NEGATIVE_SHARE`` of strata has a negative risk difference.
    """
    n = rng.integers(40, 401, size=k)
    n_x = np.clip(np.rint(n * rng.uniform(0.2, 0.8, size=k)), 2, n - 2).astype(int)
    n_xp = n - n_x
    risks = np.sort(rng.uniform(0.05, 0.95, size=(k, 2)), axis=1)
    negative = rng.random(k) < NEGATIVE_SHARE
    r_x = np.where(negative, risks[:, 0], risks[:, 1])
    r_xp = np.where(negative, risks[:, 1], risks[:, 0])
    c_x = np.clip(np.rint(n_x * r_x), 1, n_x - 1).astype(int)
    c_xp = np.clip(np.rint(n_xp * r_xp), 1, n_xp - 1).astype(int)
    return np.stack([c_x, n_x - c_x, c_xp, n_xp - c_xp], axis=1)


def _write_counts(path: Path, levels: list[tuple[str, str]],
                  cells: np.ndarray) -> None:
    lines = ["s,t,x,y,count"]
    for (s, t), (ee, en, ue, un) in zip(levels, cells.tolist()):
        lines += [f"{s},{t},1,1,{ee}", f"{s},{t},1,0,{en}",
                  f"{s},{t},0,1,{ue}", f"{s},{t},0,0,{un}"]
    path.write_text("\n".join(lines) + "\n")


def _write_measured(path: Path, rng: np.random.Generator,
                    levels: list[tuple[str, str]], cells: np.ndarray) -> None:
    """Measured interventional pairs strictly inside the compatibility range:
    P(y_x|s) = P(x,y|s) + u P(x'|s) and P(y_x'|s) = P(x',y|s) + v P(x|s)
    with u, v in [0.1, 0.9], so no stratum sits near a consistency limit."""
    n = cells.sum(axis=1)
    p_xy, p_xpy = cells[:, 0] / n, cells[:, 2] / n
    p_x = (cells[:, 0] + cells[:, 1]) / n
    u = rng.uniform(0.1, 0.9, size=len(n))
    v = rng.uniform(0.1, 0.9, size=len(n))
    do_x = p_xy + u * (1.0 - p_x)
    do_xp = p_xpy + v * p_x
    strata = [{"levels": {"s": s, "t": t},
               "p_event_do_exposed": float(a),
               "p_event_do_unexposed": float(b)}
              for (s, t), a, b in zip(levels, do_x, do_xp)]
    path.write_text(json.dumps({"provenance": "measured-experimental",
                                "strata": strata}))


def _grid_tables(rng: np.random.Generator, workdir: Path, name: str,
                 s_levels: int, t_levels: int) -> tuple[Job, ...]:
    """Write an s_levels x t_levels counts table and its measured pairs;
    return the four table analyses a user would run on them.

    bounds reads the measured pairs and verify derives sita-adjusted ones,
    so both provenance paths run.
    """
    levels = [(str(i), str(j)) for i in range(1, s_levels + 1)
              for j in range(1, t_levels + 1)]
    cells = _draw_strata(rng, len(levels))
    data, measured = workdir / f"{name}.csv", workdir / f"{name}.json"
    _write_counts(data, levels, cells)
    _write_measured(measured, rng, levels, cells)
    return (Job(("bounds", "--data", str(data), "--quantity", "all",
                 "--experimental", str(measured))),
            Job(("identify", "--data", str(data))),
            Job(("select", "--data", str(data), "--s", "s", "--t", "t")),
            Job(("verify", "--data", str(data))))


def _table_warmups(rng: np.random.Generator, workdir: Path) -> tuple[Job, ...]:
    # One untimed run per subcommand on a 2x2 grid: pays imports and
    # first-call set-up without spending seconds on the large inputs.
    return _grid_tables(rng, workdir, "warmup", 2, 2)


def strata_wide(seed: int, workdir: Path, grid: int = 100) -> Workload:
    # Why: grid x grid = 10^4 strata, so per-stratum work dominates and is
    # spread over ingest, bounds, the oracle, covariate selection and JSON
    # rendering.  10^5 strata would take about a minute per pass, too slow
    # for many runs per check.
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    jobs = _grid_tables(rng, workdir, "strata", grid, grid)
    return Workload(_table_warmups(rng, workdir), jobs)


def replication(seed: int, workdir: Path) -> Workload:
    # Why: the paper's Monte Carlo configuration (n=1000, 5000 replications
    # per setting).  It runs only simulate and the point estimators on
    # 2-4-stratum joints, about 30k times per setting, and never touches
    # ingest, bounds, the oracle or covariate selection, so an optimisation
    # of those layers must show no change here.
    jobs = []
    for setting in (1, 2, 3, 4):
        stream = int(np.random.SeedSequence([seed, setting]).generate_state(1)[0])
        jobs.append(Job(("simulate", "--setting", str(setting),
                         "--n", str(SIM_N), "--reps", str(SIM_REPS),
                         "--seed", str(stream))))
    warmup = Job(("simulate", "--setting", "1", "--n", str(SIM_N),
                  "--reps", "20", "--seed", "0"))
    return Workload((warmup,), tuple(jobs))


def fixture_burst(seed: int, workdir: Path, tables: int = 6) -> Workload:
    # Why: the same layers as strata-wide, but on 3-9 strata, so the fixed
    # cost of each call dominates: argument parsing, dataclass validation,
    # array set-up and report writing.  A kernel that wins at 10^4 strata
    # but adds per-call overhead shows a loss here.  The table shapes are
    # fixed, so the seed changes the counts but not the amount of work.
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    jobs = [Job(("bounds", "--data", str(FIXTURE)), fixture=True),
            Job(("identify", "--data", str(FIXTURE))),
            Job(("verify", "--data", str(FIXTURE)))]
    for i in range(tables):
        s_levels, t_levels = SMALL_SHAPES[i % len(SMALL_SHAPES)]
        jobs.extend(_grid_tables(rng, workdir, f"small-{i}", s_levels, t_levels))
    return Workload(_table_warmups(rng, workdir), tuple(jobs))


WORKLOADS = {
    "strata-wide": strata_wide,
    "replication": replication,
    "fixture-burst": fixture_burst,
}

# Sizes for the self-tests: same job shapes, a fraction of the work.
# replication keeps its size: fewer replications would fail the variance
# checks by chance.
TINY = {
    "strata-wide": {"grid": 6},
    "replication": {},
    "fixture-burst": {"tables": 2},
}
