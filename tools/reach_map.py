"""List the lines of pcause that the command-line jobs never reach.

    python3 tools/reach_map.py REPO WORKDIR

Runs the jobs of ``tools/report_digests.py`` (see its docstring) through
``pcause.cli.run`` of the tree at REPO, in one process from REPO as the
working directory, and then the README's Library example on the survival
fixture, all under ``sys.settrace``, tracing only the files of
``REPO/src/pcause``.  Inputs are generated into WORKDIR, as the digest
script generates them.

It prints, for each module, how many of its executable lines no job
reached, and those lines by the function (or class body) that holds them,
as ranges; ``(all)`` marks a function that never ran.  A line is
executable when it holds a bytecode instruction other than a function's
entry.  What only the tests reach is what this list names.
"""

from __future__ import annotations

import contextlib
import dis
import io
import os
import re
import sys
from bisect import bisect_left
from pathlib import Path
from types import CodeType

sys.path.insert(0, str(Path(__file__).resolve().parent))
import report_digests  # noqa: E402


def _owned_lines(code: CodeType) -> set[int]:
    """The lines of ``code``'s own instructions, but for its entry."""
    offsets = [ins.offset for ins in dis.get_instructions(code)
               if ins.opname != "RESUME"]
    lines = set()
    for start, end, line in code.co_lines():
        at = bisect_left(offsets, start)
        if line is not None and at < len(offsets) and offsets[at] < end:
            lines.add(line)
    return lines


def executable(path: Path) -> dict[str, set[int]]:
    """Each code object's executable lines in a module, by its qualified
    name; the module's own is ``<module>``."""
    found: dict[str, set[int]] = {}
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if isinstance(c, CodeType)]
        name = getattr(code, "co_qualname", code.co_name)
        found.setdefault(name, set()).update(_owned_lines(code))
    return found


def _ranges(lines: list[int], executable_lines: list[int]) -> str:
    """``lines`` as ranges, joined wherever no other executable line lies
    between two of them."""
    rank = {line: i for i, line in enumerate(executable_lines)}
    spans: list[list[int]] = []
    for line in lines:
        if spans and rank[line] == rank[spans[-1][1]] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _readme_example(repo: Path) -> str:
    """The README's Library example, reading the survival fixture."""
    text = (repo / "README.md").read_text(encoding="utf-8")
    library = text.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, flags=re.S).group(1)
    return code.replace('"counts.csv"', repr(report_digests.FIXTURE))


def trace(repo: Path, workdir: Path) -> dict[str, set[int]]:
    """The lines reached in each file of ``repo/src/pcause``."""
    root = str(repo / "src" / "pcause") + os.sep
    reached: dict[str, set[int]] = {}

    def enter(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(root):
            return None
        lines = reached.setdefault(name, set())

        def step(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return step
        return step

    report = workdir / "report.json"
    sys.settrace(enter)
    try:
        argvs = report_digests.jobs(workdir)
        # argparse wraps usage and help text to the terminal's width
        os.environ["COLUMNS"] = "80"
        os.chdir(repo)
        sys.path.insert(0, str(repo / "src"))
        import pcause.cli

        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for job in argvs:
                pcause.cli.run([*job, "--json", str(report)])
            exec(_readme_example(repo), {})
    finally:
        sys.settrace(None)
    return reached


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        raise SystemExit("usage: reach_map.py REPO WORKDIR")
    repo, workdir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    reached = trace(repo, workdir)
    for path in sorted((repo / "src" / "pcause").glob("*.py")):
        owners = executable(path)
        every = sorted(set().union(*owners.values()))
        hit = reached.get(str(path), set())
        missed = [line for line in every if line not in hit]
        print(f"{path.name}: {len(missed)} of {len(every)} executable lines "
              "unreached")
        for name, lines in sorted(owners.items(),
                                  key=lambda item: min(item[1], default=0)):
            unreached = sorted(lines - hit)
            if unreached:
                whole = " (all)" if len(unreached) == len(lines) else ""
                print(f"  {name}{whole}: {_ranges(unreached, every)}")


if __name__ == "__main__":
    main(sys.argv[1:])
