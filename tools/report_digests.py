"""Digest every CLI report of a fixed job list, to compare two trees.

    python3 tools/report_digests.py REPO WORKDIR

Runs 127 jobs through ``pcause.cli.run`` of the tree at REPO (its ``src/``
comes first on the import path), in one process, from REPO as the working
directory:

* every timed job of the three benchmark workloads at seed 1, full size,
  with inputs generated into WORKDIR by this tree's ``perfbench/workloads.py``;
* ``identify --stratifier s`` and ``--stratifier t`` on the strata-wide
  table, which collapse its counts;
* ``bounds``, ``bounds --quantity PS``, ``identify``, ``select``, ``verify``
  and ``verify --tol 0`` on the cancer fixture, each with and without
  ``--smoothing add-half``;
* ``simulate --setting 1..4 --n 1000 --reps 5000 --seed 7``;
* ``simulate --setting 4 --n 200 --reps 2000 --seed 7``, which redraws many
  samples, and ``simulate --setting 1 --n 120 --reps 200 --seed 7``, which
  redraws too many and exits 1;
* ``simulate --setting 2 --n 1000 --reps 500`` with the seeds 2**64 + 5 and
  2**128 + 7, of three and five 32-bit words;
* ``simulate --scenario hopeless.json --n 120 --reps 40 --seed 2`` on a
  scenario that this script writes into WORKDIR, whose replication 3 is the
  first to use up its 50 attempts (exit 1);
* ``bounds`` and ``verify`` on the cancer fixture with each of 9 measured-pair
  files that this script writes into WORKDIR: a pair at ``1 + 1e-10`` (clipped
  onto [0, 1]), a pair at ``-0.0``, a pair at 1.25, a missing stratum, an
  unknown provenance, a non-numeric pair, a pair outside its
  compatibility range by more than the 1e-3 tolerance and one inside it,
  and two strata outside their ranges, on different inequalities;
* ``bounds --experimental`` on a 3 x 3 grid with two pair files that this
  script writes into WORKDIR: one listing the strata in reverse key order,
  with levels as JSON integers and one stratum twice (the last entry
  counts), and one whose last entry names a covariate the grid lacks
  (exit 1);
* 41 runs on counts files that this script writes into WORKDIR to exercise
  the CSV reader and the bounds: CRLF and lone-CR line endings with comments
  and blank lines, duplicate cells on lines apart, quoted levels holding
  ``,``, ``"`` or a leading ``#`` with spaces around fields, a
  three-covariate table under ``identify --stratifier``, a zero cell with
  and without ``--smoothing add-half``, a 309-digit count (exit 1),
  ``bounds`` and ``verify`` on one stratum of counts 10**17, 3, 10**17 and
  4, whose PS numerator cancels in floats, ``select`` (with and without
  ``--smoothing add-half``), ``identify --stratifier s`` and ``bounds`` on
  an s x t grid with one stratum absent and one zero cell, ``select``
  with the roles ``--s s --t t`` and swapped on a 2 x 3 grid and on a grid
  whose ``s`` has one level (df 0), ``select --s b --t a`` on covariates
  named ``b`` and ``a``, ``bounds``, ``verify`` and ``identify`` on levels
  ``\u00e9`` and ``\U0001f600`` (outside ASCII, and outside the basic
  multilingual plane), ``bounds`` and ``verify`` on levels ``a``,
  ``a\x00``, ``10`` and ``9`` (which sort as strings, and one of which ends
  in a NUL), and on a table without covariates, ``verify --tol 0``
  on a 6 x 6 grid (a failing verify with many mismatch lines),
  ``select`` on counts of 1e306 to 6e306, whose G statistic overflows
  (exit 1), and ``bounds``, ``identify``, ``select`` and ``verify`` on a
  240 x 100 grid read in 35 blocks, with comments, blank lines, mixed line
  ends, a quoted level in the last block only and one cell's rows in the
  first and last blocks (its 24,001 strata make 24 blocks of the report
  writer), ``bounds`` on it with a negative count on its last line
  (exit 1), and ``bounds`` and ``identify`` on a file with CRLF line ends
  whose fields take the reader's scalar conversions: ``x`` and ``y``
  padded with spaces, counts written as ``+7``, ``1_000``, ``\u0663`` (an
  Arabic-Indic 3) and with 19 digits, a count of 2**63 (so the total passes
  2**63), levels ``\u00e9`` and ``\U0001f600``, a quoted level ``a,b`` and
  a level of 46 characters, longer than the reader's grid holds;
* after all of the above, on the parser those runs have used, eight argvs
  that end in argparse's own output: the usage errors ``bounds --data
  FIXTURE --frobnicate``, ``bounds`` without ``--data``, ``select --alpha 2``,
  ``simulate --setting 1 --scenario x.json`` (options that exclude each
  other) and ``verify --tol -1`` (exit 2), and ``--help``, ``bounds --help``
  and ``--version`` (exit 0).  The script sets ``COLUMNS=80`` in its own
  process, so the wrapped text does not depend on the terminal.

It prints one line per job: the exit code, a SHA-256 over the exit code,
stdout, stderr and the ``--json`` report, and the argv.  Reports record the
data path, so run both trees with the same WORKDIR and diff the outputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
FIXTURE = "tests/data/breast_cancer.csv"


def _many_blocks(last: str = "") -> str:
    """A 240 x 100 grid of counts, about 2.3 MB once its line ends are
    normalised, so that ``load_counts`` reads it in 35 blocks of about
    64 KB.  Lines end in turn at CRLF, lone CR and LF, with a comment or a
    blank line every 300 lines.  The last lines add a stratum whose quoted
    level holds a comma, a second row of the first cell, and ``last``."""
    lines = ["s,t,x,y,count"]
    for s in range(240):
        for t in range(100):
            for x in (1, 0):
                for y in (1, 0):
                    lines.append(f"site-{s:03},arm-{t:03},{x},{y},"
                                 f"{3 + (7 * s + 5 * t + 2 * x + y) % 40}")
                    if len(lines) % 300 == 0:
                        lines.append(f"# rows to {len(lines)}"
                                     if len(lines) % 600 else "")
    lines += [f'"site,240",arm-000,{x},{y},{4 + 2 * x + y}'
              for x in (1, 0) for y in (1, 0)]
    lines.append("site-000,arm-000,1,1,5")
    ends = ("\r\n", "\r", "\n")
    return "".join(line + ends[i % 3] for i, line in enumerate(lines)) + last


# counts files for the CSV reader, by name: (text, argument lists after
# ``--data FILE``).  Each level keeps one spelling, so no two rows differ
# only in whitespace around a level.
_INGEST = {
    "line-endings": (
        "# counts with mixed line endings\r\ns,x,y,count\r\n\r\n"
        "1,1,1,12\r1,1,0,8\n1,0,1,5\r\n# stratum 2\r2,1,1,7\n\n"
        "2,1,0,9\r2,0,1,3\r\n2,0,0,11\n1,0,0,14",
        [("bounds",), ("identify",)]),
    "duplicates": (
        "s,t,x,y,count\n1,1,1,1,4\n1,2,1,1,6\n2,1,0,0,5\n1,1,1,0,7\n"
        "1,1,0,1,2\n1,1,0,0,9\n1,2,1,0,3\n1,2,0,1,5\n1,2,0,0,8\n"
        "2,1,1,1,3\n2,1,1,0,6\n2,1,0,1,4\n2,2,1,1,8\n2,2,1,0,2\n"
        "2,2,0,1,5\n2,2,0,0,7\n1,1,1,1,3\n2,1,0,0,2\n1,2,0,0,1\n",
        [("bounds",), ("select", "--s", "s", "--t", "t")]),
    "quoted": (
        'site,x,y,count\n"a,b", 1 ,1, 9\n"a,b", 1 ,0, 4\n"a,b", 0 ,1, 3\n'
        '"a,b", 0 ,0, 8\n"say ""hi""",1, 1 ,6\n"say ""hi""",1, 0 ,6\n'
        '"say ""hi""",0, 1 ,2\n"say ""hi""",0, 0 ,9\n"#3",1,1,5 \n'
        '"#3",1,0,2 \n"#3",0,1,4 \n"#3",0,0,4 \n',
        [("bounds",), ("verify",)]),
    "three-covariates": (
        "a,b,c,x,y,count\n" + "".join(
            f"{a},{b},{c},{x},{y},{3 + (7 * a + 5 * b + 3 * c + 2 * x + y) % 9}\n"
            for a in (1, 2) for b in (1, 2, 3) for c in (1, 2)
            for x in (1, 0) for y in (1, 0)),
        [("identify", "--stratifier", "a,b"), ("identify", "--stratifier", "c"),
         ("identify", "--stratifier", "b, a, c"), ("bounds",)]),
    "zero-cell": (
        "s,x,y,count\n1,1,1,5\n1,1,0,3\n1,0,1,0\n1,0,0,6\n"
        "2,1,1,4\n2,1,0,4\n2,0,1,2\n2,0,0,7\n",
        [("bounds",), ("bounds", "--smoothing", "add-half")]),
    "huge-count": (
        f"s,x,y,count\n1,1,1,{'9' * 309}\n1,1,0,3\n1,0,1,2\n1,0,0,6\n",
        [("bounds",)]),
    # risks that round to 1.0, so PS's numerator cancels in floats
    "cancelling-ps": (
        f"g,x,y,count\n1,1,1,{10**17}\n1,1,0,3\n1,0,1,{10**17}\n1,0,0,4\n",
        [("bounds",), ("verify",)]),
    # a 3 x 3 grid without stratum s=3, t=3 and with one zero cell
    "ragged": (
        "s,t,x,y,count\n" + "".join(
            f"{s},{t},{x},{y},{n}\n"
            for s in (1, 2, 3) for t in (1, 2, 3) if (s, t) != (3, 3)
            for x in (1, 0) for y in (1, 0)
            for n in [0 if (s, t, x, y) == (1, 2, 0, 1)
                      else 2 + (5 * s + 3 * t + 2 * x + y) % 7]),
        [("select", "--s", "s", "--t", "t"),
         ("select", "--s", "s", "--t", "t", "--smoothing", "add-half"),
         ("identify", "--stratifier", "s", "--smoothing", "add-half"),
         ("bounds", "--smoothing", "add-half")]),
    # a 2 x 3 grid, so that swapping the roles changes both premises' df
    "small-grid": (
        "s,t,x,y,count\n" + "".join(
            f"{s},{t},{x},{y},{2 + (3 * s + 5 * t + 4 * x + y) % 8}\n"
            for s in (1, 2) for t in (1, 2, 3) for x in (1, 0) for y in (1, 0)),
        [("select", "--s", "s", "--t", "t"), ("select", "--s", "t", "--t", "s")]),
    # s has one level: the premise whose rows or blocks it sets has df 0
    "one-level": (
        "s,t,x,y,count\n" + "".join(
            f"1,{t},{x},{y},{3 + (2 * t + 3 * x + y) % 5}\n"
            for t in (1, 2, 3) for x in (1, 0) for y in (1, 0)),
        [("select", "--s", "s", "--t", "t"), ("select", "--s", "t", "--t", "s")]),
    # covariate names that sort opposite to their roles
    "named-b-a": (
        "b,a,x,y,count\n" + "".join(
            f"{b},{a},{x},{y},{2 + (5 * b + 2 * a + 3 * x + y) % 7}\n"
            for b in (1, 2, 3) for a in (1, 2) for x in (1, 0) for y in (1, 0)),
        [("select", "--s", "b", "--t", "a")]),
    # levels outside ASCII, one of them outside the basic multilingual
    # plane: the report writes them as \u00e9 and the pair \ud83d\ude00
    "non-ascii": (
        "site,x,y,count\n" + "".join(
            f"{site},{x},{y},{3 + (4 * i + 2 * x + y) % 7}\n"
            for i, site in enumerate(("\u00e9", "\U0001f600", "a\u00e9\U0001f600"))
            for x in (1, 0) for y in (1, 0)),
        [("bounds",), ("verify",), ("identify",)]),
    # levels that sort as strings ("10" < "9"), one ending in a NUL
    "string-order": (
        "g,x,y,count\n" + "".join(
            f"{g},{x},{y},{2 + (3 * i + 2 * x + y) % 7}\n"
            for i, g in enumerate(("a", "a\x00", "10", "9"))
            for x in (1, 0) for y in (1, 0)),
        [("bounds",), ("verify",)]),
    # no covariates: one stratum, written as {}
    "no-covariates": (
        "x,y,count\n1,1,14\n1,0,9\n0,1,6\n0,0,17\n",
        [("bounds",), ("verify",), ("identify",)]),
    # a 6 x 6 grid, where verify --tol 0 fails on every box whose two
    # routes differ in the last place
    "six-by-six": (
        "s,t,x,y,count\n" + "".join(
            f"{s},{t},{x},{y},{2 + (5 * s + 3 * t + 2 * x + y) % 9}\n"
            for s in range(1, 7) for t in range(1, 7)
            for x in (1, 0) for y in (1, 0)),
        [("verify", "--tol", "0")]),
    # counts of 1e306 to 6e306 fit a float, but G multiplies them
    "g-overflow": (
        "s,t,x,y,count\n" + "".join(
            f"{s},{t},{x},{y},{(i % 6 + 1) * 10**306}\n" for i, (s, t, x, y)
            in enumerate((s, t, x, y) for s in (1, 2) for t in (1, 2)
                         for x in (1, 0) for y in (1, 0))),
        [("select", "--s", "s", "--t", "t")]),
    "many-blocks": (
        _many_blocks(),
        [("bounds",), ("identify",), ("select", "--s", "s", "--t", "t"),
         ("verify",)]),
    # the same with a negative count on its last line (exit 1)
    "many-blocks-negative": (
        _many_blocks("site-001,arm-001,0,0,-3\n"), [("bounds",)]),
    # fields that the array screens pass to the scalar conversions: padded
    # x and y, counts that int() reads but that are not 1 to 18 ASCII
    # digits, a total past 2**63, levels outside ASCII, a quoted level and
    # one longer than the reader's grid holds
    "scalar-fallbacks": (
        "g,x,y,count\r\n" + "".join(
            f"{g}, {x} ,{y} ,{n}\r\n" for g, counts in (
                ("\u00e9", ("+7", "1_000", "\u0663", "1234567890123456789")),
                ("\U0001f600", (str(2**63), "5", "9", "4")),
                ('"a,b"', ("12", " 3", "6 ", "1000000000000000001")),
                ("level-" + "x" * 40, ("3", "4", "5", "6")))
            for (x, y), n in zip(((1, 1), (1, 0), (0, 1), (0, 0)), counts)),
        [("bounds",), ("identify",)]),
}


# measured-pair files for the fixture, by name: each stratum's pair as
# (P(y_x|s), P(y_x'|s)), and the provenance.  Stage 2's cell P(x, y) is
# 17/96, the least P(y_x|s) it allows.
_PAIRS = {"1": (0.15, 0.3), "2": (0.3, 0.4), "3": (0.5, 0.6)}
_MEASURED = {
    "clipped-high": ({**_PAIRS, "3": (0.5, 1 + 1e-10)},
                     "measured-experimental"),
    "negative-zero": ({**_PAIRS, "1": (0.15, -0.0)}, "measured-experimental"),
    "out-of-range": ({**_PAIRS, "2": (1.25, 0.4)}, "measured-experimental"),
    "missing-stratum": ({"1": _PAIRS["1"], "2": _PAIRS["2"]},
                        "measured-experimental"),
    "unknown-provenance": (_PAIRS, "guessed"),
    "non-numeric": ({**_PAIRS, "2": ("high", 0.4)}, "measured-experimental"),
    "incompatible": ({**_PAIRS, "2": (17 / 96 - 2e-3, 0.4)},
                     "measured-experimental"),
    "inside-tolerance": ({**_PAIRS, "2": (17 / 96 - 5e-4, 0.4)},
                         "measured-experimental"),
    # stage 3's P(y_x|s) above its range (at most 23/29) and stage 1's
    # P(y_x'|s) below it (at least 2/67), listed in that order: verify names
    # stage 1, the first in key order, and bounds the worse, stage 3
    "two-conflicts": ({"3": (23 / 29 + 5e-3, 0.6), "1": (0.15, 2 / 67 - 2e-3),
                       "2": _PAIRS["2"]}, "measured-experimental"),
}


def measured_jobs(workdir: Path) -> list[tuple[str, ...]]:
    """Write the pair files of ``_MEASURED`` and list a bounds and a verify
    run of the fixture with each."""
    argvs = []
    for name, (pairs, provenance) in _MEASURED.items():
        path = workdir / f"measured-{name}.json"
        path.write_text(json.dumps({"provenance": provenance, "strata": [
            {"levels": {"stage": stage}, "p_event_do_exposed": do_x,
             "p_event_do_unexposed": do_xp}
            for stage, (do_x, do_xp) in pairs.items()]}))
        argvs += [(command, "--data", FIXTURE, "--experimental", str(path))
                  for command in ("bounds", "verify")]
    return argvs


# a 3 x 3 grid and its measured pairs, listed in reverse key order with
# levels as JSON integers; stratum s=2, t=2 comes twice and the last entry
# counts.  The second file adds a covariate to its last entry.
_GRID = "s,t,x,y,count\n" + "".join(
    f"{s},{t},{x},{y},{3 + (4 * s + 3 * t + 2 * x + y) % 8}\n"
    for s in (1, 2, 3) for t in (1, 2, 3) for x in (1, 0) for y in (1, 0))
_GRID_PAIRS = [{"levels": {"s": s, "t": t}, "p_event_do_exposed": 0.5,
                "p_event_do_unexposed": 0.35 + 0.01 * (3 * s + t)}
               for s in (3, 2, 1) for t in (3, 2, 1)]
_GRID_PAIRS.insert(2, {**_GRID_PAIRS[4], "p_event_do_exposed": 0.1})
_GRID_MEASURED = {
    "reversed": _GRID_PAIRS,
    "extra-covariate": _GRID_PAIRS[:-1] + [
        {**_GRID_PAIRS[-1], "levels": {"s": 1, "t": 1, "u": 1}}],
}


def grid_pair_jobs(workdir: Path) -> list[tuple[str, ...]]:
    """Write the grid and its pair files and list a bounds run with each."""
    data = workdir / "pairs-grid.csv"
    data.write_text(_GRID)
    argvs = []
    for name, strata in _GRID_MEASURED.items():
        path = workdir / f"pairs-{name}.json"
        path.write_text(json.dumps({"strata": strata}))
        argvs.append(("bounds", "--data", str(data), "--experimental",
                      str(path)))
    return argvs


def ingest_jobs(workdir: Path) -> list[tuple[str, ...]]:
    """Write the counts files of ``_INGEST`` and list their runs."""
    argvs = []
    for name, (text, runs) in _INGEST.items():
        path = workdir / f"ingest-{name}.csv"
        path.write_bytes(text.encode())
        for command, *rest in runs:
            argvs.append((command, "--data", str(path), *rest))
    return argvs


# a scenario whose stratum s=2 is so thin that some replications never
# fill it
_HOPELESS = {
    "name": "hopeless",
    "cells": [{"x": x, "s": s, "t": "1", "p": p} for x, s, p in (
        (1, "1", 0.488), (1, "2", 0.002), (0, "1", 0.488), (0, "2", 0.022))],
    "outcome_conditionals": [{"x": x, "s": s, "p": 0.5}
                             for x in (1, 0) for s in ("1", "2")],
}


def simulate_jobs(workdir: Path) -> list[tuple[str, ...]]:
    """Write the scenario ``_HOPELESS`` and list the simulate runs."""
    path = workdir / "hopeless.json"
    path.write_text(json.dumps(_HOPELESS))
    argvs = [("simulate", "--setting", str(setting), "--n", "1000",
              "--reps", "5000", "--seed", "7") for setting in (1, 2, 3, 4)]
    argvs += [("simulate", "--setting", "4", "--n", "200", "--reps", "2000",
               "--seed", "7"),
              ("simulate", "--setting", "1", "--n", "120", "--reps", "200",
               "--seed", "7")]
    argvs += [("simulate", "--setting", "2", "--n", "1000", "--reps", "500",
               "--seed", str(seed)) for seed in (2**64 + 5, 2**128 + 7)]
    argvs.append(("simulate", "--scenario", str(path), "--n", "120",
                  "--reps", "40", "--seed", "2"))
    return argvs


# argvs that end in argparse's own output, run last so that they meet the
# parser the table jobs have used
_PARSER_EXITS = [("bounds", "--data", FIXTURE, "--frobnicate"), ("bounds",),
                ("select", "--alpha", "2"),
                ("simulate", "--setting", "1", "--scenario", "x.json"),
                ("verify", "--tol", "-1"), ("--help",), ("bounds", "--help"),
                ("--version",)]


def jobs(workdir: Path) -> list[tuple[str, ...]]:
    sys.path.insert(0, str(HERE / "perfbench"))
    from workloads import WORKLOADS

    argvs = [job.argv for make in WORKLOADS.values()
             for job in make(1, workdir).jobs]
    argvs += [("identify", "--data", str(workdir / "strata.csv"),
               "--stratifier", name) for name in ("s", "t")]
    for smoothing in ((), ("--smoothing", "add-half")):
        argvs += [("bounds", "--data", FIXTURE, *smoothing),
                  ("bounds", "--data", FIXTURE, "--quantity", "PS", *smoothing),
                  ("identify", "--data", FIXTURE, *smoothing),
                  ("select", "--data", FIXTURE, "--s", "stage", "--t", "t",
                   *smoothing),
                  ("verify", "--data", FIXTURE, *smoothing),
                  ("verify", "--data", FIXTURE, "--tol", "0", *smoothing)]
    return (argvs + simulate_jobs(workdir) + measured_jobs(workdir)
            + grid_pair_jobs(workdir) + ingest_jobs(workdir) + _PARSER_EXITS)


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        raise SystemExit("usage: report_digests.py REPO WORKDIR")
    repo, workdir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    report = workdir / "report.json"
    argvs = jobs(workdir)
    # argparse wraps usage and help text to the terminal's width
    os.environ["COLUMNS"] = "80"
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
