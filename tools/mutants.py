"""Plant each listed mutant in a copy of the tree and see what kills it.

    python3 tools/mutants.py REPO WORKDIR

Each mutant is one textual change to a file of REPO: a tolerance scaled, a
comparison flipped, a term nudged.  For each one, in order, this script
copies REPO (without ``.git`` or ``__pycache__``) to ``WORKDIR/mutant``,
applies the change, and runs tier-1 there with ``-x``.  When tier-1
passes, it runs ``tools/report_digests.py`` on the copy and compares its
lines with those of REPO itself, both with ``WORKDIR/inputs`` as the
digest script's WORKDIR.  It prints one line per mutant:

    killed by tier-1 (the first failing test)
    killed by N digest lines
    survived

Before it runs anything it stops with an error if some mutant's old text
does not occur exactly once in its file.  It uses only the standard
library; tier-1 needs the test dependencies of the tree.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

# (label, file, exact old text, new text)
MUTANTS = (
    ("bounds._INVERT_TOL 1e-9 -> 1e-6", "src/pcause/bounds.py",
     "_INVERT_TOL = 1e-9", "_INVERT_TOL = 1e-6"),
    ("model.COMPAT_TOL 1e-3 -> 1.5e-3", "src/pcause/model.py",
     "COMPAT_TOL = 1e-3", "COMPAT_TOL = 1.5e-3"),
    ("oracle._MASS_TOL 1e-9 -> 1e-6", "src/pcause/oracle.py",
     "_MASS_TOL = 1e-9", "_MASS_TOL = 1e-6"),
    ("identify._RD_TOL 1e-12 -> 1e-9", "src/pcause/identify.py",
     "_RD_TOL = 1e-12", "_RD_TOL = 1e-9"),
    ("covselect._AVAR_SLACK 1e-12 -> 1e-9", "src/pcause/covselect.py",
     "_AVAR_SLACK = 1e-12", "_AVAR_SLACK = 1e-9"),
    ("covselect.EXACT_TOL 1e-9 -> 1e-7", "src/pcause/covselect.py",
     "EXACT_TOL = 1e-9", "EXACT_TOL = 1e-7"),
    ("ci_check holds=p_value >= alpha -> >", "src/pcause/covselect.py",
     "holds=p_value >= alpha", "holds=p_value > alpha"),
    ("VerificationReport.passed <= -> <", "src/pcause/oracle.py",
     "return bool((self.discrepancy <= self.tol).all())",
     "return bool((self.discrepancy < self.tol).all())"),
    ("model._SUM_TOL 1e-9 -> 1e-7", "src/pcause/model.py",
     "_SUM_TOL = 1e-9", "_SUM_TOL = 1e-7"),
    ("a.var spread_xp x (1 + 1e-7)", "src/pcause/identify.py",
     "spread_xp = risk_xp * (1.0 - risk_xp) / p_xp",
     "spread_xp = risk_xp * (1.0 - risk_xp) / p_xp * (1 + 1e-7)"),
)

_TIER1 = ("-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
          "--continue-on-collection-errors")


def check(repo: Path) -> None:
    """Stop unless every mutant's old text occurs once in its file."""
    for label, name, old, _ in MUTANTS:
        found = (repo / name).read_text(encoding="utf-8").count(old)
        if found != 1:
            raise SystemExit(f"{label}: {old!r} occurs {found} times in "
                             f"{name}, not once")


def _env(tree: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(tree / "src"),
                PYTHONDONTWRITEBYTECODE="1")


def digests(tree: Path, inputs: Path) -> list[str]:
    """The digest script's lines for ``tree``."""
    done = subprocess.run(
        [sys.executable, str(tree / "tools" / "report_digests.py"),
         str(tree), str(inputs)],
        env=_env(tree), capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def tier1(tree: Path) -> str | None:
    """The first failing test of tier-1 in ``tree``, or None if all pass."""
    done = subprocess.run([sys.executable, *_TIER1], cwd=tree,
                          env=_env(tree), capture_output=True, text=True)
    if done.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return failed.group(1) if failed else f"exit {done.returncode}"


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        raise SystemExit("usage: mutants.py REPO WORKDIR")
    repo, workdir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    check(repo)
    inputs, copy = workdir / "inputs", workdir / "mutant"
    inputs.mkdir(parents=True, exist_ok=True)
    expected = None
    for label, name, old, new in MUTANTS:
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(repo, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__"))
        path = copy / name
        path.write_text(path.read_text(encoding="utf-8").replace(old, new),
                        encoding="utf-8")
        failed = tier1(copy)
        if failed is not None:
            print(f"{label}: killed by tier-1 ({failed})", flush=True)
            continue
        if expected is None:
            expected = digests(repo, inputs)
        lines = digests(copy, inputs)
        changed = (sum(a != b for a, b in zip(expected, lines))
                   + abs(len(expected) - len(lines)))
        print(f"{label}: " + (f"killed by {changed} digest lines" if changed
                              else "survived"), flush=True)
    shutil.rmtree(copy, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
