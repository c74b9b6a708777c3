"""The streamed report writer against the dict-built reports it replaced.

``bounds``, ``identify`` and ``verify`` write their per-stratum sections
from the batched arrays, a block of strata at a time, and print their
per-stratum lines in one write.  ``conftest.reference_cli`` is those
commands as they were: a dict per interval, entry and stratum, printed a
line at a time and encoded with ``json.dumps(report, indent=2)``.  Here the
two must give the same exit code, stdout, stderr and report text, and the
library surface that the reports were built from must be what it was.
"""

import errno
import io
import json
import math
import os
import stat
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pcause as pc
import pcause.bounds
import pcause.oracle
from pcause import cli
from pcause.model import render_counts

from conftest import (
    CANCER_CSV,
    conditional_boxes,
    reference_cli,
    reference_conditional_boxes,
    reference_count_table,
    reference_verdict,
    reference_verify_bounds,
)

DATA = ["--data", str(CANCER_CSV)]
_CELL_ORDER = ((1, 1), (1, 0), (0, 1), (0, 0))


def _captured(function, argv):
    """What ``function(argv)`` returns, with its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        result = function(argv)
    return result, out.getvalue(), err.getvalue()


def _widened(real):
    """``bounds._box_rows`` with the upper end of every PN box 0.05 higher,
    so that ``verify`` fails."""
    def widened(quantities, *args):
        return [(n, out._replace(upper=out.upper + 0.05)
                 if quantity == "PN" else out)
                for quantity, (n, out) in zip(quantities,
                                              real(quantities, *args))]
    return widened


_NAN, _INF = math.nan, math.inf
# each entry's closed and searched (lower, upper), entry by entry: values
# that repeat within and across entries, 0.0 beside -0.0 (equal, but not
# the same text), NaN and both infinities, and tiny ends on both sides of
# 1e-4, below which repr writes an exponent; the gaps come out as 0.0, NaN,
# inf, 0.5 and tiny ones
_ODD_ENDS = (((0.0, 0.5), (-0.0, 0.5)), ((-0.0, 0.0), (0.0, -0.0)),
             ((_NAN, 0.25), (_NAN, 0.25)), ((-_INF, _INF), (-_INF, _INF)),
             ((0.25, _INF), (0.25, 0.5)), ((-_INF, 0.5), (0.0, 0.5)),
             ((0.5, 0.5), (0.5, 0.5)), ((0.0, 1.0), (0.5, 1.0)),
             ((1e-9, 1e-4), (3e-7, 9.999999999999999e-05)),
             ((1e-5, 2.5e-5), (1e-9, 1e-5)))


def _odd(real, route):
    """``bounds._box_rows`` (route 0) or ``oracle._searched_rows`` (route 1)
    with the ends of every box taken from ``_ODD_ENDS``, entry by entry."""
    def odd(quantities, cells, *args):
        results = []
        for q, (n, out) in enumerate(real(quantities, cells, *args)):
            lower, upper = np.array(
                [_ODD_ENDS[(3 * k + q) % len(_ODD_ENDS)][route]
                 for k in range(len(cells))]).T
            results.append((n, out._replace(lower=lower, upper=upper)
                            if route == 0 else (lower, upper)))
        return results
    return odd


def _counts(names, strata):
    """The count table of strata given as (levels, counts in cell order)."""
    return reference_count_table(
        [(pc.StratumKey(tuple(zip(names, levels))), x, y, n)
         for levels, quad in strata for (x, y), n in zip(_CELL_ORDER, quad)],
        names)


def _write_counts(path, names, strata):
    path.write_text(render_counts(_counts(names, strata)), encoding="utf-8")


# a 6 x 6 grid, on which verify --tol 0 fails on many boxes
_GRID = [((str(s), str(t)), tuple(2 + (5 * s + 3 * t + 2 * x + y) % 9
                                  for x, y in _CELL_ORDER))
         for s in range(1, 7) for t in range(1, 7)]


def assert_same_as_reference(argv, report):
    """The command run through ``cli.run`` and through the reference give
    the same exit code, stdout, stderr and report."""
    report.unlink(missing_ok=True)
    code, out, err = _captured(cli.run, [*argv, "--json", str(report)])
    written = report.read_text() if report.exists() else None
    (ref_code, ref_text), ref_out, ref_err = _captured(reference_cli, argv)
    assert (code, out, err) == (ref_code, ref_out, ref_err)
    assert written == ref_text


# Levels hold a quote, a backslash, control characters, a character outside
# ASCII and one outside the basic multilingual plane (a surrogate pair in
# the report), "%" and the characters of the JSON around them.
_level = st.text(st.sampled_from(['a', 'b', '"', '\\', '\x01', '\x1b', '\x7f',
                                  'é', '\U0001f600', '%', ',', '{']),
                 min_size=1, max_size=4)
_quad = st.tuples(*[st.integers(1, 60)] * 4)


@st.composite
def _tables(draw):
    """Covariate names, and 1-40 strata as (levels, counts); a table
    without covariates has one stratum."""
    names = draw(st.sampled_from([(), ("s",), ("s", "t"), ("é",),
                                  ("p%d", "\U0001f600")]))
    if not names:
        return names, [((), draw(_quad))]
    levels = draw(st.lists(st.tuples(*[_level] * len(names)), min_size=1,
                           max_size=40, unique=True))
    return names, [(key, draw(_quad)) for key in levels]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_tables())
@example(((), [((), (14, 9, 6, 17))]))
@example((("s", "t"), [(("é\U0001f600", '"\\'), (3, 5, 2, 7)),
                       (("\x01%", "{,"), (9, 1, 4, 4)),
                       (("a", "a"), (2, 8, 8, 2))]))
@example((("s",), [(str(i), (1 + i % 7, 2 + i % 5, 1 + i % 3, 3 + i % 4))
                   for i in range(40)]))
@example((("p%d", "\U0001f600"), [(("%s", "%"), (4, 3, 2, 5))]))
# covariate names that json writes as a template's slot, or ending in it
@example((("\x01", 'x"\x01'), [(("a", "b"), (4, 3, 2, 5))]))
def test_streamed_report_equals_the_dict_built_one(table):
    names, strata = table
    with tempfile.TemporaryDirectory() as tmp:
        data, report = Path(tmp) / "counts.csv", Path(tmp) / "report.json"
        _write_counts(data, names, strata)
        source = ["--data", str(data)]
        for argv in (["bounds", *source],
                     *(["bounds", *source, "--quantity", quantity]
                       for quantity in ("PN", "PS", "PNS")),
                     ["identify", *source],
                     ["verify", *source], ["verify", *source, "--tol", "0"]):
            assert_same_as_reference(argv, report)
        with mock.patch.object(pcause.bounds, "_box_rows",
                               _widened(pcause.bounds._box_rows)):
            assert_same_as_reference(["verify", *source], report)
            assert report.exists()


def test_blocks_join_into_one_report(tmp_path, monkeypatch):
    # a block of two strata: the sections of a 40-stratum table come out
    # in many pieces
    monkeypatch.setattr(cli, "_BLOCK", 2)
    data = tmp_path / "counts.csv"
    _write_counts(data, ("s",), [(str(i), (1 + i % 7, 2, 1 + i % 3, 3))
                                 for i in range(40)])
    for command in ("bounds", "identify", "verify"):
        assert_same_as_reference([command, "--data", str(data)],
                                 tmp_path / "report.json")


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("block", [1, 2])
def test_floats_that_repeat_are_written_as_json_writes_them(
        block, tmp_path, monkeypatch):
    # verify formats each distinct bit pattern of a block once, bounds
    # every value; inf - inf makes the NaN gaps
    monkeypatch.setattr(cli, "_BLOCK", block)
    monkeypatch.setattr(pcause.bounds, "_box_rows",
                        _odd(pcause.bounds._box_rows, 0))
    monkeypatch.setattr(pcause.oracle, "_searched_rows",
                        _odd(pcause.oracle._searched_rows, 1))
    data, report = tmp_path / "grid.csv", tmp_path / "report.json"
    _write_counts(data, ("s", "t"), _GRID)
    for source in (DATA, ["--data", str(data)]):
        assert_same_as_reference(["bounds", *source], report)
        assert_same_as_reference(["verify", *source], report)
        text = report.read_text()
        for word in ("NaN", " Infinity", "-Infinity", " -0.0,", " 0.0,",
                     " 1e-09,", " 0.0001,"):
            assert word in text


# a float either side of each bound of the range where orjson's text is
# repr's: 1e-4 <= |x| < 1e16
_EDGES = [float(np.nextafter(edge, toward)) for edge in (1e-4, 1e16)
          for toward in (0.0, edge, np.inf)]


@pytest.mark.filterwarnings("error")
class TestFloats:
    """``cli._floats`` writes each float as ``json.dumps`` does: repr's
    shortest round-trip digits, and NaN, Infinity and -Infinity."""

    @staticmethod
    def _check(values):
        expected = [json.dumps(x) for x in values]
        assert cli._floats(np.array(values, np.float64)) == expected

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=1000)
    @given(st.lists(st.floats(), max_size=40))
    @example([])
    @example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              -2.225073858507201e-308, math.inf, -math.inf, math.nan,
              -math.nan, 1.7976931348623157e308, -1.7976931348623157e308])
    @example(_EDGES + [-x for x in _EDGES])
    @example([1e-5, 1e-7, 1e15, 1e17, 1e22, 123456789012345.6, 0.1, -2.5])
    def test_is_json_text(self, values):
        self._check(values)

    def test_seeded_bit_patterns(self):
        # half any bit pattern at all, most of which repr writes with an
        # exponent; half random digits at 2**-15 to 2**55, around and
        # inside the range taken from orjson
        rng = np.random.default_rng(20261020)
        bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
        exponents = rng.integers(1023 - 15, 1023 + 55, size=bits.size // 2,
                                 dtype=np.uint64)
        bits[1::2] = (bits[1::2] & np.uint64(0x800F_FFFF_FFFF_FFFF)
                      | exponents << np.uint64(52))
        values = bits.view(np.float64)
        size = np.abs(values)
        inside = ((size >= 1e-4) & (size < 1e16)).sum()
        assert 400_000 < inside < 600_000
        self._check(values.tolist())

    def test_repr_writes_only_the_floats_orjson_writes_otherwise(
            self, monkeypatch):
        # repr runs once per distinct bit pattern outside the range, and
        # never inside it or at zero: each of its texts passes _NONFINITE
        seen = []

        class Recording(dict):
            def get(self, text, default):
                seen.append(text)
                return super().get(text, default)

        monkeypatch.setattr(cli, "_NONFINITE", Recording(cli._NONFINITE))
        inside = [0.0, -0.0, 1e-4, -1e-4, 0.5, _EDGES[3], -1e15]
        self._check(inside)
        assert seen == []
        outside = [1e-5, _EDGES[0], 1e16, 1e-5, math.nan, 1e16, -math.inf]
        self._check(outside)
        assert sorted(seen) == sorted({repr(x) for x in outside})

    def test_a_strided_or_integer_array(self):
        assert cli._floats(np.arange(6.0)[::2]) == ["0.0", "2.0", "4.0"]
        assert cli._floats(np.array([1, -3])) == ["1.0", "-3.0"]


def _grid():
    """The 6 x 6 grid's joint and sita-adjusted pairs."""
    joint = pc.to_probabilities(_counts(("s", "t"), _GRID))
    return joint, pc.adjusted_experimental(joint)


@pytest.fixture(params=["fixture", "grid"])
def joint_and_pairs(request, cancer_joint, cancer_experimental):
    if request.param == "fixture":
        return cancer_joint, cancer_experimental
    return _grid()


class TestLibrarySurface:
    def test_entries_are_the_tuple_of_the_entry_loop(self, joint_and_pairs):
        report = pc.verify_bounds(*joint_and_pairs)
        expected = reference_verify_bounds(*joint_and_pairs)
        assert "entries" not in vars(report)
        entries = report.entries
        assert type(entries) is tuple and entries == expected
        assert repr(entries) == repr(expected)
        assert len(entries) == len(expected)
        for n in (0, 1, -1, len(expected) // 2):
            assert repr(entries[n]) == repr(expected[n])
        assert entries[2:7] == expected[2:7]
        assert report.entries is entries
        again = pc.verify_bounds(*joint_and_pairs)
        assert again == report and hash(again) == hash(report)
        assert pc.verify_bounds(*joint_and_pairs, tol=0.5) != report

    @pytest.mark.parametrize("tol", [2e-3, 1e-16, 0.0])
    @pytest.mark.parametrize("fault", [False, True])
    def test_verdict_is_the_entry_loop_s(self, joint_and_pairs, tol, fault):
        # with the fault the entry loop does not apply: the entries are the
        # report's own, built from its arrays
        with mock.patch.object(pcause.bounds, "_box_rows",
                               _widened(pcause.bounds._box_rows)
                               if fault else pcause.bounds._box_rows):
            report = pc.verify_bounds(*joint_and_pairs, tol=tol)
        entries = (report.entries if fault else
                   reference_verify_bounds(*joint_and_pairs))
        max_discrepancy, failures, passed = reference_verdict(entries, tol)
        assert repr(report.max_discrepancy) == repr(max_discrepancy)
        assert repr(report.failures) == repr(failures)
        assert report.passed is passed
        if fault:
            assert not passed

    def test_discrepancies_are_the_entries_own(self, joint_and_pairs):
        report = pc.verify_bounds(*joint_and_pairs)
        assert report.discrepancy.tolist() == [
            e.discrepancy for e in report.entries]

    def test_conditional_boxes_are_the_interval_list(self, joint_and_pairs):
        for quantity in ("PN", "PS", "PNS"):
            boxes = conditional_boxes(quantity, *joint_and_pairs)
            assert type(boxes) is list
            assert repr(boxes) == repr(
                reference_conditional_boxes(quantity, *joint_and_pairs))


class _FailingFile:
    """A text file whose writes fail with ENOSPC once ``after`` went
    through."""

    def __init__(self, file, after):
        self._file, self._left = file, after

    def write(self, text):
        if self._left == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._left -= 1
        return self._file.write(text)

    def __getattr__(self, name):
        return getattr(self._file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()


def _fail_after(monkeypatch, after):
    """Make the writer's file fail after ``after`` writes, with a block of
    one stratum, so that the first block is the third write."""
    monkeypatch.setattr(cli, "_BLOCK", 1)
    monkeypatch.setattr(cli, "open", lambda path, mode: _FailingFile(
        open(path, mode), after), raising=False)


class TestFailedWrites:
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_open_fails_as_write_text_did(self, where, tmp_path):
        path = (tmp_path / "missing" / "report.json" if where == "missing"
                else tmp_path)
        with pytest.raises(OSError) as raised:
            Path(path).write_text("")
        code, out, err = _captured(cli.run, ["bounds", *DATA, "--json",
                                             str(path)])
        assert code == 1
        assert err == f"error: cannot write report to {path}: {raised.value}\n"
        assert out == _captured(cli.run, ["bounds", *DATA])[1]

    @pytest.mark.parametrize("command", ["bounds", "identify", "verify"])
    def test_a_failed_write_leaves_no_report(self, command, tmp_path,
                                             monkeypatch):
        path = tmp_path / "report.json"
        _, expected, _ = _captured(cli.run, [command, *DATA])
        _fail_after(monkeypatch, 3)
        code, out, err = _captured(cli.run, [command, *DATA, "--json",
                                             str(path)])
        assert code == 1 and out == expected
        assert err == (f"error: cannot write report to {path}: [Errno 28] "
                       f"{os.strerror(errno.ENOSPC)}\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_write_through_a_symlink_removes_the_target(
            self, tmp_path, monkeypatch):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        link.symlink_to(target)
        _fail_after(monkeypatch, 3)
        code, _, err = _captured(cli.run, ["verify", *DATA, "--json",
                                           str(link)])
        assert code == 1 and err.count("\n") == 1
        assert not target.exists() and link.is_symlink()

    def test_a_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old")
        link.symlink_to(target)
        code, _, _ = _captured(cli.run, ["bounds", *DATA, "--json", str(link)])
        assert code == 0 and link.is_symlink()
        assert target.read_text() == _captured(
            reference_cli, ["bounds", *DATA])[0][1]

    @pytest.mark.parametrize("after", [None, 3])
    def test_a_fifo_is_written_and_kept(self, after, tmp_path, monkeypatch):
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        if after is not None:
            _fail_after(monkeypatch, after)
        code, _, err = _captured(cli.run, ["verify", *DATA, "--json",
                                           str(fifo)])
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        expected = _captured(reference_cli, ["verify", *DATA])[0][1].encode()
        if after is None:
            assert (code, err, received) == (0, "", [expected])
        else:
            assert code == 1 and err.count("\n") == 1
            assert expected.startswith(received[0])

    def test_a_failing_verify_writes_its_report_first(self, tmp_path):
        data = tmp_path / "grid.csv"
        _write_counts(data, ("s", "t"), _GRID)
        report = tmp_path / "report.json"
        assert_same_as_reference(["verify", "--data", str(data), "--tol", "0"],
                                 report)
        code, out, _ = _captured(cli.run, ["verify", "--data", str(data),
                                           "--tol", "0"])
        assert code == 1 and out.count("mismatch") > 1
        assert report.exists()
