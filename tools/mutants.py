"""Plant each listed mutant in a copy of the tree and see what kills it.

    python3 tools/mutants.py REPO WORKDIR

Each mutant is one textual change to a file of REPO: a tolerance scaled up
or down, ``verify``'s default tolerance halved or doubled, a comparison
with a tolerance or a level flipped at its boundary, a term nudged, the
a.var's squares taken as a multiply or let overflow, the range of floats
the report writer takes from orjson scaled, or its zero or non-finite case
dropped.  For
each one, in order, this script copies REPO (without ``.git`` or
``__pycache__``) to ``WORKDIR/mutant``, applies the change, and runs
tier-1 there with ``-x``.  When tier-1
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
    # the a.var's squares taken as a multiply, and their overflow let through
    ("identify._square float_power -> a * a", "src/pcause/identify.py",
     "return np.float_power(a, 2.0)", "return a * a"),
    ("identify._finite overflow raise deleted", "src/pcause/identify.py",
     'np.errstate(all="ignore", over="raise")', 'np.errstate(all="ignore")'),
    # the report writer's float text: the range it takes from orjson scaled
    # either way, zero sent to repr, json's NaN and Infinity dropped
    ("cli._floats 1e-4 -> 1e-5", "src/pcause/cli.py",
     "size >= 1e-4", "size >= 1e-5"),
    ("cli._floats 1e-4 -> 1e-3", "src/pcause/cli.py",
     "size >= 1e-4", "size >= 1e-3"),
    ("cli._floats 1e16 -> 1e15", "src/pcause/cli.py",
     "size < 1e16", "size < 1e15"),
    ("cli._floats 1e16 -> 1e17", "src/pcause/cli.py",
     "size < 1e16", "size < 1e17"),
    ("cli._floats != 0.0 dropped", "src/pcause/cli.py",
     "(size < 1e16))\n                           & (values != 0.0))",
     "(size < 1e16)))"),
    ("cli._floats _NONFINITE dropped", "src/pcause/cli.py",
     "_NONFINITE.get(text, text) for text in", "text for text in"),
    # each module-level tolerance scaled down
    ("bounds._INVERT_TOL 1e-9 -> 1e-12", "src/pcause/bounds.py",
     "_INVERT_TOL = 1e-9", "_INVERT_TOL = 1e-12"),
    ("model.COMPAT_TOL 1e-3 -> 0.65e-3", "src/pcause/model.py",
     "COMPAT_TOL = 1e-3", "COMPAT_TOL = 0.65e-3"),
    ("oracle._MASS_TOL 1e-9 -> 1e-12", "src/pcause/oracle.py",
     "_MASS_TOL = 1e-9", "_MASS_TOL = 1e-12"),
    ("identify._RD_TOL 1e-12 -> 1e-15", "src/pcause/identify.py",
     "_RD_TOL = 1e-12", "_RD_TOL = 1e-15"),
    ("covselect._AVAR_SLACK 1e-12 -> 1e-15", "src/pcause/covselect.py",
     "_AVAR_SLACK = 1e-12", "_AVAR_SLACK = 1e-15"),
    ("covselect.EXACT_TOL 1e-9 -> 1e-11", "src/pcause/covselect.py",
     "EXACT_TOL = 1e-9", "EXACT_TOL = 1e-11"),
    ("model._SUM_TOL 1e-9 -> 1e-11", "src/pcause/model.py",
     "_SUM_TOL = 1e-9", "_SUM_TOL = 1e-11"),
    # verify's default tolerance, halved and doubled where it is set
    ("cli verify --tol default 2e-3 -> 1e-3", "src/pcause/cli.py",
     "type=_tolerance, default=2e-3", "type=_tolerance, default=1e-3"),
    ("cli verify --tol default 2e-3 -> 4e-3", "src/pcause/cli.py",
     "type=_tolerance, default=2e-3", "type=_tolerance, default=4e-3"),
    ("verify_bounds tol default 2e-3 -> 1e-3", "src/pcause/oracle.py",
     "tol: float = 2e-3", "tol: float = 1e-3"),
    ("verify_bounds tol default 2e-3 -> 4e-3", "src/pcause/oracle.py",
     "tol: float = 2e-3", "tol: float = 4e-3"),
    # each comparison with a tolerance or a level, flipped at its boundary
    ("Interval lower > upper + _INVERT_TOL -> >=", "src/pcause/bounds.py",
     "if self.lower > self.upper", "if self.lower >= self.upper"),
    ("Interval.contains lower - tol <= -> <", "src/pcause/bounds.py",
     "_INVERT_TOL <= value", "_INVERT_TOL < value"),
    ("Interval.contains <= upper + tol -> <", "src/pcause/bounds.py",
     "value <= self.upper", "value < self.upper"),
    ("bounds._box_rows excess > COMPAT_TOL -> >=", "src/pcause/bounds.py",
     "(excess > COMPAT_TOL)", "(excess >= COMPAT_TOL)"),
    ("bounds._box_rows inverted > -> >=", "src/pcause/bounds.py",
     "(lower > upper + _INVERT_TOL)", "(lower >= upper + _INVERT_TOL)"),
    ("stratified_interval inverted > -> >=", "src/pcause/bounds.py",
     "if lower > upper + _INVERT_TOL", "if lower >= upper + _INVERT_TOL"),
    ("ci_check exact holds <= EXACT_TOL -> <", "src/pcause/covselect.py",
     "holds=dev <= EXACT_TOL", "holds=dev < EXACT_TOL"),
    ("lhs_avar <= rhs + _AVAR_SLACK -> <", "src/pcause/covselect.py",
     "self.lhs_avar <= self.rhs_avar", "self.lhs_avar < self.rhs_avar"),
    ("identify flagged rds < -_RD_TOL -> <=", "src/pcause/identify.py",
     "rds < -_RD_TOL", "rds <= -_RD_TOL"),
    ("StratumTable cell sum > _SUM_TOL -> >=", "src/pcause/model.py",
     "abs(sum(cells) - 1.0) > _SUM_TOL", "abs(sum(cells) - 1.0) >= _SUM_TOL"),
    ("StratumTable weight <= 1 + _SUM_TOL -> <", "src/pcause/model.py",
     "self.weight <= 1.0 + _SUM_TOL", "self.weight < 1.0 + _SUM_TOL"),
    ("joint weights' total > _SUM_TOL -> >=", "src/pcause/model.py",
     "abs(total - 1.0) > _SUM_TOL", "abs(total - 1.0) >= _SUM_TOL"),
    ("pairs values >= -_SUM_TOL -> >", "src/pcause/model.py",
     "(values >= -_SUM_TOL)", "(values > -_SUM_TOL)"),
    ("pairs values <= 1 + _SUM_TOL -> <", "src/pcause/model.py",
     "(values <= 1.0 + _SUM_TOL)", "(values < 1.0 + _SUM_TOL)"),
    ("model._conflict amount > COMPAT_TOL -> >=", "src/pcause/model.py",
     "if amount > COMPAT_TOL", "if amount >= COMPAT_TOL"),
    ("validate_compatibility excess > COMPAT_TOL -> >=", "src/pcause/model.py",
     "np.nonzero(excess > COMPAT_TOL)", "np.nonzero(excess >= COMPAT_TOL)"),
    ("oracle always-mass < -_MASS_TOL -> <=", "src/pcause/oracle.py",
     "(points < -_MASS_TOL)", "(points <= -_MASS_TOL)"),
    ("oracle helped < -_MASS_TOL -> <=", "src/pcause/oracle.py",
     "(helped < -_MASS_TOL)", "(helped <= -_MASS_TOL)"),
    ("oracle hurt < -_MASS_TOL -> <=", "src/pcause/oracle.py",
     "(hurt < -_MASS_TOL)", "(hurt <= -_MASS_TOL)"),
    ("oracle never < -_MASS_TOL -> <=", "src/pcause/oracle.py",
     "(never < -_MASS_TOL)", "(never <= -_MASS_TOL)"),
    ("oracle search excess > COMPAT_TOL -> >=", "src/pcause/oracle.py",
     "(excess > COMPAT_TOL)", "(excess >= COMPAT_TOL)"),
    ("oracle prevented beta > alpha + tol -> >=", "src/pcause/oracle.py",
     "(beta > alpha + COMPAT_TOL)", "(beta >= alpha + COMPAT_TOL)"),
    ("oracle prevented delta > gamma + tol -> >=", "src/pcause/oracle.py",
     "(delta > gamma + COMPAT_TOL)", "(delta >= gamma + COMPAT_TOL)"),
    ("VerificationReport.failures <= -> <", "src/pcause/oracle.py",
     "~(self.discrepancy <= self.tol)", "~(self.discrepancy < self.tol)"),
    ("Scenario cell total > _SUM_TOL -> >=", "src/pcause/simulate.py",
     "abs(total - 1.0) > _SUM_TOL", "abs(total - 1.0) >= _SUM_TOL"),
    ("cli --tol >= 0 -> > 0", "src/pcause/cli.py",
     "math.isfinite(v) and v >= 0.0", "math.isfinite(v) and v > 0.0"),
    ("cli --alpha 0 < v -> <=", "src/pcause/cli.py",
     "lambda v: 0.0 < v < 1.0", "lambda v: 0.0 <= v < 1.0"),
    ("cli --alpha v < 1 -> <=", "src/pcause/cli.py",
     "lambda v: 0.0 < v < 1.0", "lambda v: 0.0 < v <= 1.0"),
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
