"""Data model for stratified exposure/outcome contingency data.

The package works with 2x2 tables of a binary exposure ``x`` (1 = exposed)
and a binary outcome ``y`` (1 = event), recorded separately within covariate
strata.  Counts arrive as CSV with one covariate column per covariate,
then ``x``, ``y`` and ``count``::

    stage,x,y,count
    1,0,1,2
    1,0,0,10
    ...

Lines end at ``\\n``, ``\\r\\n`` or ``\\r``.  A line whose first
non-whitespace character is ``#`` is a comment, and a line of whitespace
alone is skipped; error messages number lines counting every line, these
included.  A field may be quoted, as the csv module writes it, but a quoted
field ends on its own line, and a field over the csv module's size limit is
an error naming its line.  Duplicate cells are summed, exactly: a
:class:`CountTable` stores each stratum's four counts as a row of a (K, 4)
array, in int64 when the table's total is below 2**63 and as Python ints
otherwise.  Whitespace around a field is dropped, and a level must keep one
spelling throughout.  A table is made only by :func:`load_counts` and
:meth:`CountTable.collapse`, so it has at least one stratum and stripped
levels, and :func:`render_counts` writes text that loads back as the same
table.  Counts convert to a :class:`StratifiedJoint`, which
stores within each stratum the four joint cell probabilities P(x, y | s)
and the stratum weight P(s), as arrays over all strata.

Tables, joints and pairs hold their strata as each covariate's sorted
levels and each stratum's rank in them (:class:`_Coded`), in key order; a
stratum's :class:`StratumKey` is built only when a caller reads it.

Experimental knowledge enters as :class:`ExperimentalQuantities`: the pair
(P(y_x | s), P(y_x' | s)) for each stratum of a joint, where y_x denotes
the outcome under an intervention that sets exposure, and the marginal
pair, their weight-average.  :func:`load_experimental` reads measured
pairs.  When treatment assignment is strongly ignorable given the
covariates, the pairs equal the observational conditional risks;
:func:`adjusted_experimental` builds them that way.  Every function that
takes a joint and its pairs requires pairs for exactly the joint's strata.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence, Union

import numpy as np

from .errors import IncompatibilityError, ParseError, PositivityError, ValidationError

EXPOSED = 1
UNEXPOSED = 0
EVENT = 1
NOEVENT = 0

PROVENANCE_MEASURED = "measured-experimental"
PROVENANCE_ADJUSTED = "sita-adjusted"
_MISMATCH = "experimental strata do not match the joint's strata"

_SUM_TOL = 1e-9
# The least integer that float() rounds to infinity (it raises OverflowError).
_FLOAT_LIMIT = 2**1024 - 2**970
# How far a pair may sit outside its compatibility range; see _excess_columns.
COMPAT_TOL = 1e-3

Source = Union[str, Path, IO[str]]


def _read_text(source: Source) -> str:
    try:
        if hasattr(source, "read"):
            return source.read()
        with open(source, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode {source}: {exc}") from exc


def _read_json(source: Source, what: str):
    return _parsed(_read_text(source), what)


def _parsed(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{what} file is not valid JSON: nested too deeply"
                         ) from exc


@dataclass(frozen=True, order=True)
class StratumKey:
    """Identifies one covariate stratum.

    Stored as (covariate name, level) pairs in canonical (sorted by name)
    order, so keys built from differently ordered inputs compare equal.
    Levels are strings; the empty key denotes pooled data.
    """

    labels: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        canon = tuple(sorted((str(n), str(v)) for n, v in self.labels))
        object.__setattr__(self, "labels", canon)
        names = [n for n, _ in canon]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate covariate in stratum key: {names}")

    @classmethod
    def _canonical(cls, labels: tuple[tuple[str, str], ...]) -> "StratumKey":
        """A key from labels already in canonical order, with distinct
        names, as a stratum of a checked table or joint has them."""
        key = object.__new__(cls)
        object.__setattr__(key, "labels", labels)
        return key

    @classmethod
    def of(cls, **levels: object) -> "StratumKey":
        return cls(tuple((name, str(value)) for name, value in levels.items()))

    @property
    def covariates(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.labels)

    def __str__(self) -> str:
        if not self.labels:
            return "(pooled)"
        return ",".join(f"{name}={value}" for name, value in self.labels)


# Slot order of a stratum's four cells, as in StratumTable, and the slots
# in (x, y) order.
_CELLS = ((EXPOSED, EVENT), (EXPOSED, NOEVENT), (UNEXPOSED, EVENT),
          (UNEXPOSED, NOEVENT))
_ROW_SLOTS = (3, 2, 1, 0)


def _cell_slot(x: int, y: int) -> int:
    return _CELLS.index((x, y))


class _Coded:
    """Strata as covariate levels and integer codes.

    ``levels`` holds each covariate's distinct levels as Python sorts them,
    and row k of the read-only (K, C) array ``codes`` holds stratum k's rank
    in each.  A table, joint or pairs keep their strata in key order, the
    order of their ranks, and every level is some stratum's, so two are
    equal exactly when their keys are; the rows that :func:`_groups` takes
    may come in any order and may repeat.  As a sequence it gives the
    strata's keys: all are built on the first iteration or call of
    :meth:`keys`, and kept, or one alone by index.
    """

    __slots__ = ("covariates", "levels", "codes", "_keys")

    def __init__(self, covariates: tuple[str, ...],
                 levels: tuple[tuple[str, ...], ...],
                 codes: np.ndarray) -> None:
        codes.flags.writeable = False
        self.covariates, self.levels, self.codes = covariates, levels, codes
        self._keys = None

    @classmethod
    def of(cls, keys: Sequence[StratumKey]) -> "_Coded":
        """The strata of ``keys``, in order, over the covariates each has."""
        labels = [dict(key.labels) for key in keys]
        covariates = tuple(sorted(set().union(*labels)))
        columns = [[label[name] for label in labels] for name in covariates]
        levels = tuple(tuple(sorted(set(column))) for column in columns)
        codes = np.array([list(map(dict(zip(lv, range(len(lv)))).__getitem__,
                                   column))
                          for lv, column in zip(levels, columns)], np.intp)
        return cls(covariates, levels,
                   codes.reshape(len(covariates), len(keys)).T)

    def rows(self, text: Callable[[str, str], object] = lambda name, level:
             level) -> list[tuple]:
        """Each stratum's ``text(name, level)`` for each covariate, made
        once per level."""
        if not self.covariates:
            return [()] * len(self)
        return list(zip(*[map([text(name, level) for level in levels]
                              .__getitem__, column) for name, levels, column
                          in zip(self.covariates, self.levels,
                                 self.codes.T.tolist())]))

    def keys(self) -> tuple[StratumKey, ...]:
        if self._keys is None:
            self._keys = tuple(map(StratumKey._canonical, self.rows(
                lambda name, level: (name, level))))
        return self._keys

    def names(self) -> list[str]:
        """Each stratum's key as ``str`` writes it, without building keys."""
        return (list(map(",".join, self.rows(lambda n, lv: f"{n}={lv}")))
                if self.covariates else ["(pooled)"] * len(self))

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, k: int) -> StratumKey:
        if self._keys is not None:
            return self._keys[k]
        return StratumKey._canonical(tuple(zip(self.covariates, map(
            tuple.__getitem__, self.levels, self.codes[k].tolist()))))

    def __iter__(self) -> Iterator[StratumKey]:
        return iter(self.keys())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not _Coded:
            return NotImplemented
        return self is other or (self.covariates == other.covariates
                                 and self.levels == other.levels
                                 and np.array_equal(self.codes, other.codes))


# Sort keys that order strata as StratumKey's generated comparisons do,
# without a dataclass __lt__/__eq__ call per comparison.
_key_order = attrgetter("labels")


@dataclass(frozen=True)
class StratumTable:
    """Joint cell probabilities P(x, y | s) for one stratum, plus P(s).

    Cells may be zero (degenerate strata are representable) but must be
    nonnegative and sum to one; operations that divide by a cell or margin
    raise :class:`PositivityError` when it vanishes.
    """

    p_exposed_event: float
    p_exposed_noevent: float
    p_unexposed_event: float
    p_unexposed_noevent: float
    weight: float

    def __post_init__(self) -> None:
        cells = (self.p_exposed_event, self.p_exposed_noevent,
                 self.p_unexposed_event, self.p_unexposed_noevent)
        for c in cells:
            if not (c >= 0.0):
                raise ValidationError(f"negative cell probability {c!r}")
        if abs(sum(cells) - 1.0) > _SUM_TOL:
            raise ValidationError(f"cells sum to {sum(cells)!r}, not 1")
        if not (0.0 < self.weight <= 1.0 + _SUM_TOL):
            raise ValidationError(f"stratum weight {self.weight!r} outside (0, 1]")

    @property
    def p_exposed(self) -> float:
        return self.p_exposed_event + self.p_exposed_noevent

    @property
    def p_unexposed(self) -> float:
        return self.p_unexposed_event + self.p_unexposed_noevent

    @property
    def risk_exposed(self) -> float:
        """P(y | x, s)."""
        return _risk(self.p_exposed_event, self.p_exposed_noevent, "exposed")

    @property
    def risk_unexposed(self) -> float:
        """P(y | x', s)."""
        return _risk(self.p_unexposed_event, self.p_unexposed_noevent,
                     "unexposed")


def _risk(event: float, noevent: float, arm: str) -> float:
    """P(y | arm, s) from the arm's two cells."""
    if event + noevent <= 0.0:
        raise PositivityError(f"no {arm} mass in stratum")
    return event / (event + noevent)


class _View(Mapping):
    """A read-only mapping over a dict, which prints as the dict."""

    def __init__(self, data: dict) -> None:
        self._data = data

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return repr(self._data)


@dataclass(frozen=True, init=False)
class StratifiedJoint:
    """A collection of stratum tables whose weights partition unity.

    Stored as arrays in key order: ``cells`` holds each stratum's
    P(x, y | s) as a (K, 4) array in slot order (as :class:`StratumTable`'s
    fields), ``weights`` each P(s) as a (K,) array, and the strata as codes
    (:class:`_Coded`).  ``strata`` maps each key to its
    :class:`StratumTable`; it is a read-only view of the arrays, built when
    first read.
    """

    # a field, so that repr reads the view and dataclasses.replace passes
    # it to the constructor
    strata: Mapping[StratumKey, StratumTable]
    covariates: tuple[str, ...]
    total_n: int | None
    cells: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    _coded: _Coded = field(init=False, repr=False, compare=False)

    def __init__(self, strata: Mapping[StratumKey, StratumTable],
                 covariates: Sequence[str], total_n: int | None = None) -> None:
        if not strata:
            raise ValidationError("a stratified joint needs at least one stratum")
        covs = tuple(sorted(str(c) for c in covariates))
        if len(set(covs)) != len(covs):
            raise ValidationError(f"duplicate covariate names: {covs}")
        keys = tuple(sorted(strata, key=_key_order))
        for key in keys:
            if key.covariates != covs:
                raise ValidationError(
                    f"stratum {key} does not use covariates {covs}")
        tables = [strata[key] for key in keys]
        self._set(_Coded.of(keys),
                  np.array([[t.p_exposed_event, t.p_exposed_noevent,
                             t.p_unexposed_event, t.p_unexposed_noevent]
                            for t in tables], dtype=float),
                  np.array([t.weight for t in tables], dtype=float), total_n)

    @classmethod
    def _of(cls, coded: _Coded, cells: np.ndarray, weights: np.ndarray,
            total_n: int | None) -> "StratifiedJoint":
        """A joint from its strata's codes and its arrays, whose rows must
        already pass :class:`StratumTable`'s checks."""
        joint = object.__new__(cls)
        joint._set(coded, cells, weights, total_n)
        return joint

    def _set(self, coded: _Coded, cells: np.ndarray, weights: np.ndarray,
             total_n: int | None) -> None:
        """Check the weights' total and ``total_n``; store the arrays."""
        total = sum(weights.tolist())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValidationError(f"stratum weights sum to {total!r}, not 1")
        if total_n is not None and total_n <= 0:
            raise ValidationError(f"total_n must be positive, got {total_n!r}")
        cells.flags.writeable = weights.flags.writeable = False
        vars(self).update(_coded=coded, cells=cells, weights=weights,
                          covariates=coded.covariates, total_n=total_n)

    @cached_property
    def strata(self) -> Mapping[StratumKey, StratumTable]:
        return _View(dict(zip(self._coded.keys(), map(
            StratumTable, *self.cells.T.tolist(), self.weights.tolist()))))

    def __eq__(self, other: object) -> bool:
        # equal strata views are equal strata with equal arrays
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._coded == other._coded
                and self.total_n == other.total_n
                and np.array_equal(self.cells, other.cells)
                and np.array_equal(self.weights, other.weights))

    def items(self) -> Iterator[tuple[StratumKey, StratumTable]]:
        return iter(self.strata.items())

    def keys(self) -> tuple[StratumKey, ...]:
        return self._coded.keys()

    @property
    def n_strata(self) -> int:
        return len(self._coded)

    def only(self) -> StratumTable:
        """The single table of a one-stratum joint (typically pooled data)."""
        if self.n_strata != 1:
            raise ValidationError(f"expected one stratum, found {self.n_strata}")
        return StratumTable(*self.cells[0].tolist(), self.weights[0].item())


@dataclass(frozen=True, init=False, repr=False, eq=False)
class CountTable:
    """Integer cell counts keyed by (stratum, x, y), as :func:`load_counts`
    reads them or :meth:`collapse` sums them; nothing else makes one.

    Stored as the distinct strata in key order, as codes, with a (K, 4)
    array of their counts in the order of :class:`StratumTable`'s cells and
    a (K, 4) boolean array of the cells that some row named; a cell that no
    row named counts 0.  The counts are int64 when the table's total is
    below 2**63, which bounds every sum of them, and otherwise Python ints
    in an object array, so that sums are exact at any size.
    """

    covariates: tuple[str, ...]
    _coded: _Coded
    _counts: np.ndarray
    _named: np.ndarray
    _total: int

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("a CountTable comes from load_counts or collapse")

    @classmethod
    def _of(cls, coded: _Coded, counts: np.ndarray, named: np.ndarray,
            total: int) -> "CountTable":
        """A table from checked parts: its strata's counts and named cells
        in key order, in the dtype that ``_exact(total)`` gives."""
        table = object.__new__(cls)
        counts.flags.writeable = named.flags.writeable = False
        vars(table).update(covariates=coded.covariates, _coded=coded,
                           _counts=counts, _named=named, _total=total)
        return table

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._coded == other._coded
                and np.array_equal(self._named, other._named)
                and np.array_equal(self._counts, other._counts))

    @property
    def total(self) -> int:
        return self._total

    def rows(self) -> Iterator[tuple[StratumKey, int, int, int]]:
        """(stratum, x, y, count) for each named cell, in that order."""
        for key, quad, named in zip(self._coded, self._counts.tolist(),
                                    self._named.tolist()):
            for slot in _ROW_SLOTS:
                if named[slot]:
                    yield key, *_CELLS[slot], quad[slot]

    def collapse(self, keep: Sequence[str]) -> "CountTable":
        """Sum counts over the covariates not in ``keep``.  Exact: no
        group's sum passes the total, which the counts' dtype holds."""
        index, groups = _groups(self._coded, keep)
        counts = np.zeros((len(groups), 4), self._counts.dtype)
        np.add.at(counts, index, self._counts)
        named = np.zeros((len(groups), 4), bool)
        np.logical_or.at(named, index, self._named)
        return CountTable._of(groups, counts, named, self._total)


def _exact(total: int) -> type:
    """The dtype for counts that sum to ``total``: int64 when the total is
    below 2**63, since no partial sum of nonnegative counts then passes it,
    and Python ints otherwise."""
    return np.int64 if total < 2**63 else object


# A data row's (x, y) fields as written, when they need no stripping.
_SLOTS = {("1", "1"): 0, ("1", "0"): 1, ("0", "1"): 2, ("0", "0"): 3}


def _new(ordered: np.ndarray) -> np.ndarray:
    """Whether each row of a sorted 2-D array differs from the row before
    it; the first row does."""
    new = np.empty(len(ordered), bool)
    new[:1] = True
    (ordered[1:] != ordered[:-1]).any(axis=1, out=new[1:])
    return new


def _groups(coded: _Coded, keep: Sequence[str]) -> tuple[np.ndarray, _Coded]:
    """Each row's group, numbered in key order, and the groups.  A group is
    a stratum's key restricted to the covariates in ``keep``; the rows may
    come in any order and may repeat.  A row's kept codes, read in mixed
    radix, number its group so that groups sort as their keys do (where a
    number could pass 2**63, the numbers so far are ranked first), and one
    stable sort ranks the numbers."""
    covs = tuple(sorted(str(c) for c in keep))
    unknown = set(covs) - set(coded.covariates)
    if unknown:
        raise ValidationError(f"unknown covariate(s) {sorted(unknown)}")
    if len(set(covs)) != len(covs):
        raise ValidationError(f"duplicate covariate names: {covs}")
    kept = [coded.covariates.index(name) for name in covs]
    numbers, bound = np.zeros(len(coded), np.intp), 1
    for c in kept:
        size = len(coded.levels[c])
        if bound * size > 2**63:
            distinct, numbers = np.unique(numbers, return_inverse=True)
            bound = len(distinct)
        numbers = numbers * size + coded.codes[:, c]
        bound *= size
    order = numbers.argsort(kind="stable")
    new = _new(numbers[order, None])
    index = np.empty(len(order), np.intp)
    index[order] = new.cumsum() - 1
    # a row of each group, in key order, gives the group's codes
    return index, _Coded(covs, tuple(coded.levels[c] for c in kept),
                         coded.codes[order[new]][:, kept])


# The counts text is read a block of lines at a time: a block runs from its
# start past this many characters, to the end of that line.  A block's
# bytes and field offsets are held at once, and larger blocks are no faster.
_BLOCK = 1 << 16
# A block of the counts text: its UTF-8 bytes, with a comma before them and
# a line end after them, and the number of its first line.
_Block = tuple[bytes, int]
# A block's lines that are neither blank nor comments: its bytes, then the
# fields of its quoted lines; the lines' numbers; each one's count of
# commas outside quotes; and every field's end offset in the bytes and
# length, line after line.
_Lines = tuple[bytes, Sequence[int], np.ndarray, np.ndarray, np.ndarray]
# The codec between a block's text and its bytes: text from a file-like
# source may hold lone surrogates, and they pass through as three bytes.
_UTF8 = ("utf-8", "surrogatepass")
# The bytes that the array screens look for.
_COMMA, _NEWLINE, _QUOTE, _HASH, _ZERO = b',\n"#0'
# A count field of 1 to this many ASCII digits converts as digits in int64.
_DIGITS = 18
_POWERS = np.array([10**k for k in range(_DIGITS - 1, -1, -1)], np.int64)
# The widest and the largest digit of an x, y and count field that converts.
_WIDEST = np.array([[1], [1], [_DIGITS]], np.int64).view(np.uint64)
_LARGEST = np.array([[1], [1], [9]], np.uint8)
# The most 8-byte words of a field's bytes that a block's grid holds, so
# that it takes at most 8 + 8 * _WORDS bytes a field; longer fields are
# read as text.
_WORDS = 3
# A cell's slot is 3 less this times its (x, y).
_XY = np.array([2, 1])


def load_counts(source: Source) -> CountTable:
    """Parse the counts CSV described in the module docstring.

    The text is read a block of lines at a time, and each block's fields
    are found, checked and converted as arrays over its UTF-8 bytes.
    Errors name the offending line number as it appears in the file,
    comments and blank lines included.  A field over the csv module's size
    limit is named first, wherever it is; otherwise the earliest faulty line
    is named.
    """
    # Lines end at \n, \r\n or \r only, as for the csv module; str.splitlines
    # would also split at \x1c-\x1e, \x85, \u2028 and others inside a level.
    text = _read_text(source).replace("\r\n", "\n").replace("\r", "\n")
    blocks = _blocks(text)
    try:
        # each data row is a line of the text
        return _summed(blocks, text.count("\n") + 1)
    except ParseError:
        # a later block may still hold a field over the size limit
        for _ in blocks:
            pass
        raise


def _skipped(line: str) -> bool:
    """Whether a line is blank or a comment."""
    return line.strip()[:1] in ("", "#")


def _blocks(text: str) -> Iterator[_Block]:
    """The counts text a block of lines at a time.  A field over the csv
    module's size limit, on a line that is neither blank nor a comment, is
    a :class:`ParseError` naming its line."""
    limit = csv.field_size_limit()
    end = len(text) - text.endswith("\n")  # the last line end ends the text
    start, lineno = 0, 1
    while start < end:
        stop = text.find("\n", start + _BLOCK, end)
        if stop < 0:
            stop = end
        data = b"," + text[start:stop].encode(*_UTF8) + b"\n"
        # only a line of more bytes than the limit can hold such a field
        if len(data) > limit:
            for number, line in enumerate(text[start:stop].split("\n"),
                                          lineno):
                if len(line) > limit and not _skipped(line):
                    try:
                        next(csv.reader([line]))
                    except csv.Error as exc:
                        raise ParseError(f"line {number}: {exc}") from None
        start = stop + 1
        yield data, lineno
        lineno += data.count(b"\n")


def _lines(data: bytes, lineno: int) -> _Lines:
    """The lines of a block, whose first line is ``lineno``, that are
    neither blank nor comments.

    A line's fields are what the csv module reads from it alone, so a
    quoted field ends on its line; without a quote they lie between its
    commas, which are found as arrays over the block's bytes, and only a
    line with a quote goes through the csv module.  Offsets count bytes,
    not characters, so a line is found from its line end.
    """
    buf = np.frombuffer(data, np.uint8)
    # every field ends at a comma or a line end, after the one before it;
    # the first comma ends none
    bounds = ((buf == _COMMA) | (buf == _NEWLINE)).nonzero()[0]
    ends, lengths = bounds[1:], bounds[1:] - bounds[:-1] - 1
    # each line's last field, as an index into ends
    lasts = (buf[ends] == _NEWLINE).nonzero()[0]
    separators = lasts.copy()
    separators[1:] -= lasts[:-1] + 1
    linenos: Sequence[int] = range(lineno, lineno + len(lasts))

    def line(i: int) -> str:
        first = lasts[i] - separators[i]
        return data[ends[first] - lengths[first]:ends[lasts[i]]].decode(
            *_UTF8)

    def lines_with(byte: int) -> set[int]:
        return set(ends[lasts].searchsorted(
            (buf == byte).nonzero()[0]).tolist())

    # a line with a comma is not blank, nor, without a #, a comment
    dropped = set()
    if b"#" in data or not separators.all():
        maybe = set((separators == 0).nonzero()[0].tolist())
        if b"#" in data:
            maybe |= lines_with(_HASH)
        dropped = {i for i in maybe if _skipped(line(i))}
    quoted = sorted(lines_with(_QUOTE) - dropped) if b'"' in data else []
    if dropped or quoted:
        kept = np.ones(len(lasts), bool)
        kept[list(dropped)] = False
        plain = kept.copy()
        plain[quoted] = False
        # the quoted lines' fields, as the csv module reads them, follow the
        # block's bytes, and their offsets go between those of the lines on
        # either side
        records = [next(csv.reader([line(i)])) for i in quoted]
        taken = np.repeat(plain, separators + 1)
        ends, lengths = ends[taken], lengths[taken]
        if quoted:
            pieces = [field.encode(*_UTF8) for record in records
                      for field in record]
            sizes = np.array([len(piece) for piece in pieces])
            at = np.repeat(np.cumsum(np.where(plain, separators + 1, 0)
                                     )[quoted], list(map(len, records)))
            ends = np.insert(ends, at, len(data) + np.cumsum(sizes))
            lengths = np.insert(lengths, at, sizes)
            data += b"".join(pieces)
            separators[quoted] = [len(record) - 1 for record in records]
        linenos = np.arange(lineno, lineno + len(lasts))[kept]
        separators = separators[kept]
    return data, linenos, separators, ends, lengths


def _summed(blocks: Iterator[_Block], most: int) -> CountTable:
    """The count table of the blocks of counts text that ``_blocks``
    yields, each checked and converted as arrays over its bytes, with at
    most ``most`` data rows.  Only the
    fields that an array screen does not pass, such as padded, quoted,
    non-ASCII or long ones, take the scalar conversions (``str.strip``,
    ``_SLOTS.get`` and ``int``)."""
    records = (_lines(*block) for block in blocks)
    # the header is the first line that is neither blank nor a comment
    for data, linenos, separators, ends, lengths in records:
        if len(linenos):
            break
    else:
        raise ParseError("no header row found")
    header_line, width = linenos[0], int(separators[0]) + 1
    header = [data[e - n:e].decode(*_UTF8).strip() for e, n in zip(
        ends[:width].tolist(), lengths[:width].tolist())]
    for required in ("x", "y", "count"):
        if header.count(required) != 1:
            raise ParseError(
                f"line {header_line}: header must contain {required!r} exactly once")
    ix, iy, icount = header.index("x"), header.index("y"), header.index("count")
    cov_idx = sorted((name, i) for i, name in enumerate(header)
                     if i not in (ix, iy, icount))
    cov_names = tuple(name for name, _ in cov_idx)
    if len(set(cov_names)) != len(cov_names):
        raise ParseError(f"line {header_line}: duplicate covariate columns")
    if any(not name for name in cov_names):
        raise ParseError(f"line {header_line}: empty covariate column name")
    # the fields that each row is read from: x, y, count, then covariates
    used = [ix, iy, icount, *(i for _, i in cov_idx)]
    # a covariate's tag, its number in the high bits of each of its fields'
    # keys
    tags = np.array([c << 32 for c in range(len(cov_names))],
                    np.int64)[:, None]

    # Per covariate: a code for each spelling, numbered in order of first
    # use across all covariates, and each level (a stripped spelling) with
    # the spelling and line that first wrote it, in the same order.  Two
    # spellings of one level are an error, not a merge.
    numbering = count()
    codes: list[dict[str, int]] = [{} for _ in cov_names]
    spelled: list[dict[str, tuple[str, int]]] = [{} for _ in cov_names]
    # each data row's spelling code per covariate, cell slot and count, in
    # arrays made once with room for every row, so that a block keeps
    # nothing of its own and the allocator can reuse or return its buffers
    row_codes = np.empty((len(cov_names), most), np.intp)
    slots = np.empty(most, np.intp)
    counts = np.empty(most, np.int64)
    filled = 0
    # the first block's lines after the header, then the other blocks
    first = (data, linenos[1:], separators[1:], ends[width:], lengths[width:])
    for data, linenos, separators, ends, lengths in chain([first], records):
        if not len(linenos):
            continue
        # Each screen notes its first faulty row as (row, rank, message);
        # on one row, width ranks before x/y, count and then spellings.
        wrong = (separators != width - 1).nonzero()[0][:1].tolist()
        rows = wrong[0] if wrong else len(linenos)
        faults = [(rows, 0, f"expected {width} fields, "
                            f"got {separators[rows] + 1}")] if wrong else []
        # the used fields of the rows before that, as (field, row) arrays
        field_ends = ends[:rows * width].reshape(rows, width).T.take(used, 0)
        field_lengths = lengths[:rows * width].reshape(rows, width).T.take(
            used, 0)
        longest = int(field_lengths.max(initial=0))
        grid = _grid(data, field_ends, field_lengths,
                     8 * min(-(-longest // 8), _WORDS))
        block_slots, block_counts, fault = _numbers(
            data, grid[:, :3 * rows], field_ends[:3], field_lengths[:3])
        faults += [fault] if fault else []
        keys, longs = _keys(data, grid[:, 3 * rows:], field_ends[3:],
                            field_lengths[3:], tags)
        spellings, firsts, index = _distinct(keys, longs)
        # the block's new spellings of each covariate in order of first
        # use, so that each one's first row lies after the last one's
        new: list[list[tuple[int, str]]] = [[] for _ in cov_names]
        for first, spelling in zip(firsts, spellings):
            c, row = divmod(first, rows)
            if spelling not in codes[c]:
                new[c].append((row, spelling))
        for rank, (name, known, levels, news) in enumerate(
                zip(cov_names, codes, spelled, new), start=3):
            for row, spelling in sorted(news):
                level = spelling.strip()
                written, line = levels.setdefault(level,
                                                  (spelling, int(linenos[row])))
                if written != spelling:
                    faults.append((row, rank, (
                        f"covariate {name!r} level {spelling!r} reads as "
                        f"{level!r}, which line {line} writes {written!r}; "
                        "write each level one way")))
                    break
                known[spelling] = next(numbering)
        if faults:
            row, _, message = min(faults)
            raise ParseError(f"line {linenos[row]}: {message}")
        taken = slice(filled, filled + rows)
        row_codes[:, taken] = np.array(
            [codes[first // rows][spelling]
             for first, spelling in zip(firsts, spellings)],
            dtype=np.intp)[index].reshape(len(cov_names), rows)
        slots[taken] = block_slots
        if block_counts.dtype == object and counts.dtype != object:
            counts = counts.astype(object)
        counts[taken] = block_counts
        filled += rows
    if not filled:
        raise ParseError("no data rows")
    return _table(cov_names, codes, spelled, row_codes[:, :filled],
                  slots[:filled], counts[:filled])


def _grid(data: bytes, ends: np.ndarray, lengths: np.ndarray,
          size: int) -> np.ndarray:
    """The last ``size`` bytes of the fields that end at ``ends`` and have
    ``lengths``, one field a column, right-aligned and padded with ASCII 0,
    under a first word that the field never reaches and that no screen
    reads as it stands."""
    width = 8 + size
    # column e of windows holds the width bytes before offset e of data
    windows = np.ndarray((width, len(data) + 1), np.uint8,
                         bytes(width) + data, strides=(1, 1))
    grid = windows[:, ends.reshape(-1)]
    # a byte is padding where its distance from the field's end reaches
    # the field's length
    grid[8:][np.arange(size - 1, -1, -1)[:, None]
             >= lengths.reshape(-1)] = _ZERO
    return grid


def _numbers(data: bytes, grid: np.ndarray, ends: np.ndarray,
             lengths: np.ndarray,
             ) -> tuple[np.ndarray, np.ndarray, tuple[int, int, str] | None]:
    """Each row's cell slot and count from its x, y and count fields, whose
    bytes are the three thirds of ``grid``'s columns and whose ends and
    lengths are the three rows of ``ends`` and ``lengths``, and the first
    faulty row's fault as (row, rank, message), or None.  Counts of 2**63
    or more make the counts Python ints."""
    # fields of ASCII digits convert as digits: x and y of one digit up to
    # 1, counts of 1 to _DIGITS digits
    width = min(len(grid) - 8, _DIGITS)
    digits = grid[len(grid) - width:] - _ZERO
    values = (_POWERS[_DIGITS - width:] @ digits).reshape(3, -1)
    slots, counts = 3 - _XY @ values[:2], values[2]
    plain = ((lengths - 1).view(np.uint64) < _WIDEST).all(axis=0)
    over = digits.reshape(width, 3, len(counts)) > _LARGEST
    if over.any():
        plain &= ~over.any(axis=(0, 1))
    large = []
    for row in [] if plain.all() else (~plain).nonzero()[0].tolist():
        x, y, count = (data[e - n:e].decode(*_UTF8) for e, n in zip(
            ends[:, row].tolist(), lengths[:, row].tolist()))
        x, y = x.strip(), y.strip()
        slot = _SLOTS.get((x, y))
        if slot is None:
            name, value = ("x", x) if x not in ("0", "1") else ("y", y)
            return slots, counts, (row, 1, f"{name} must be 0 or 1, "
                                           f"got {value!r}")
        n = _count(count)
        if n < 0:
            return slots, counts, (row, 2, "count must be a nonnegative "
                                           f"integer, got {count.strip()!r}")
        slots[row] = slot
        if n < 2**63:
            counts[row] = n
        else:
            large.append((row, n))
    if large:
        counts = counts.astype(object)
        for row, n in large:
            counts[row] = n
    return slots, counts, None


def _keys(data: bytes, grid: np.ndarray, ends: np.ndarray,
          lengths: np.ndarray, tags: np.ndarray,
          ) -> tuple[np.ndarray, list[str]]:
    """Each covariate field's key, as a row of words: its length plus its
    covariate's tag, then its bytes from ``grid``; and the text of each
    distinct field too long for the grid, whose key holds its number among
    those texts in place of its bytes."""
    keys = np.ascontiguousarray(grid.T).view(np.uint64)
    keys[:, 0] = (lengths + tags).ravel()
    size = len(grid) - 8
    if size < 8 * _WORDS:  # the grid holds every field whole
        return keys, []
    long = (lengths.ravel() > size).nonzero()[0]
    texts = [data[e - n:e].decode(*_UTF8) for e, n in zip(
        ends.ravel()[long].tolist(), lengths.ravel()[long].tolist())]
    number = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    keys[long, 1:] = 0
    keys[long, 1] = [number[text] for text in texts]
    return keys, list(number)


def _distinct(keys: np.ndarray, longs: list[str],
              ) -> tuple[list[str], list[int], np.ndarray]:
    """The distinct rows of ``keys``, as :func:`_keys` gives them with the
    text of its long fields in ``longs``: each one's text; the first row of
    each; and each row's index into them."""
    order = np.lexsort(keys.T)
    ordered = keys[order]
    new = _new(ordered)
    firsts = order[new].tolist()  # lexsort is stable: each one's first row
    index = np.empty(len(order), np.intp)
    index[order] = new.cumsum() - 1
    size, distinct = 8 * keys.shape[1], ordered[new].tobytes()
    spellings = []
    for at in range(size, len(distinct) + 1, size):
        length = int.from_bytes(distinct[at - size:at - size + 4], "little")
        spellings.append(
            distinct[at - length:at].decode(*_UTF8) if length <= size - 8
            else longs[int.from_bytes(distinct[at - size + 8:at - size + 16],
                                      "little")])
    return spellings, firsts, index


def _table(cov_names: tuple[str, ...], codes: list[dict[str, int]],
           spelled: list[dict[str, tuple[str, int]]], row_codes: np.ndarray,
           slots: np.ndarray, counts: np.ndarray) -> CountTable:
    """The count table of the data rows: each row's code per covariate (as
    ``codes`` gives it for a spelling of a level in ``spelled``) as a
    (covariate, row) array, cell slot and count.  A row's stratum is its
    group under every covariate (:func:`_groups` over the rows' ranks in
    the sorted levels), and the counts are summed per cell, exactly: in
    int64 when their total is below 2**63, and otherwise in Python ints.
    """
    ordered = [tuple(sorted(levels)) for levels in spelled]
    # each code's rank in its covariate's sorted levels
    rank_of = [0] * sum(map(len, codes))
    for levels, known, by_code in zip(ordered, codes, spelled):
        rank = dict(zip(levels, range(len(levels))))
        for code, level in zip(known.values(), by_code):
            rank_of[code] = rank[level]
    ranks = np.array(rank_of, np.intp)[row_codes]
    stratum, coded = _groups(_Coded(cov_names, tuple(ordered), ranks.T),
                             cov_names)
    cells = stratum * 4 + slots
    # no partial sum passes the rows times the largest count
    if counts.dtype != object and int(counts.max()) * len(counts) < 2**63:
        total = int(counts.sum())
    else:
        total = sum(counts.tolist())
    table = np.zeros(4 * len(coded), _exact(total))
    np.add.at(table, cells, counts if counts.dtype == table.dtype
              else counts.astype(object))
    named = np.zeros(len(table), bool)
    named[cells] = True
    return CountTable._of(coded, table.reshape(-1, 4), named.reshape(-1, 4),
                          total)


def _count(field: str) -> int:
    """A count field's integer, or -1 if it does not read as one."""
    try:
        return int(field)
    except ValueError:
        return -1


def render_counts(counts: CountTable) -> str:
    """Serialize a count table back to the CSV schema (inverse of load).

    Levels that contain a comma or a quote are quoted, so they load back
    unchanged, and so is a first field that starts with ``#``, which would
    otherwise load back as a comment.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")

    def write(row: tuple) -> None:
        if str(row[0]).lstrip().startswith("#"):
            out.write('"' + row[0].replace('"', '""') + '",')
            row = row[1:]
        writer.writerow(row)

    write(counts.covariates + ("x", "y", "count"))
    # a key's labels are in covariate order
    for key, x, y, n in counts.rows():
        write(tuple(level for _, level in key.labels) + (x, y, n))
    return out.getvalue()


def _running_sum(a: np.ndarray) -> np.ndarray:
    """Sums along the last axis added left to right from 0.0, as a Python
    loop adds them; np.sum adds pairwise and moves last digits."""
    return np.add.accumulate(a, axis=-1)[..., -1] + 0.0


def _normalised(quads: np.ndarray, total) -> tuple[np.ndarray, np.ndarray]:
    """Cells and weights from cell masses (..., K, 4) in slot order: each
    stratum's cells divided by their sum, and the sum by ``total``."""
    sums = ((quads[..., 0] + quads[..., 1]) + quads[..., 2]) + quads[..., 3]
    return quads / sums[..., None], sums / total


def to_probabilities(counts: CountTable, smoothing: str = "none") -> StratifiedJoint:
    """Convert counts to a :class:`StratifiedJoint` of plug-in frequencies.

    ``smoothing="add-half"`` adds 0.5 to every cell of every stratum before
    normalizing, which keeps degenerate strata usable.  With ``"none"``, a
    zero cell raises :class:`PositivityError` naming the stratum.  In both
    modes ``total_n`` records the raw (unsmoothed) total count; a total
    beyond the float range raises :class:`ValidationError`.
    """
    if smoothing not in ("none", "add-half"):
        raise ValidationError(f"unknown smoothing {smoothing!r}")
    raw_total = counts.total
    if raw_total <= 0:
        raise PositivityError("count table is empty")
    if raw_total >= _FLOAT_LIMIT:
        # name the stratum at which the running total leaves the float range
        running = 0
        for key, _x, _y, n in counts.rows():
            running += n
            if running >= _FLOAT_LIMIT:
                raise ValidationError(f"stratum {key}: counts too large for "
                                      "floating point (their total exceeds 1.8e308)")

    # each count becomes the nearest float, as float(n) does; a cell that
    # no row named counts zero
    quads = counts._counts.astype(float)
    quads += 0.5 if smoothing == "add-half" else 0.0
    empty = quads <= 0.0
    if empty.any():
        stratum, slot = divmod(int(empty.argmax()), 4)
        x, y = _CELLS[slot]
        raise PositivityError(
            f"stratum {counts._coded[stratum]}: empty cell (x={x}, y={y}); "
            "use add-half smoothing or pool strata")
    cells, sums = _normalised(quads, 1.0)
    return StratifiedJoint._of(counts._coded, cells,
                               sums / _running_sum(sums), raw_total)


def collapse(joint: StratifiedJoint, keep: Sequence[str]) -> StratifiedJoint:
    """Marginalize the joint onto the covariates in ``keep``.

    Cell probabilities recombine as weighted averages, so collapsing to the
    empty set yields the pooled 2x2 table as a single-stratum joint.
    """
    index, groups = _groups(joint._coded, keep)
    # np.add.at adds each group's strata in key order, as a Python loop would
    masses = np.zeros((len(groups), 4))
    np.add.at(masses, index, joint.cells * joint.weights[:, None])
    weights = np.zeros(len(groups))
    np.add.at(weights, index, joint.weights)
    return StratifiedJoint._of(groups, masses / weights[:, None], weights,
                               joint.total_n)


@dataclass(frozen=True, init=False)
class ExperimentalQuantities:
    """Interventional outcome probabilities for a joint's strata, made only
    by :func:`load_experimental` and :func:`adjusted_experimental`.

    Stored as ``pairs``, each stratum's (P(y_x | s), P(y_x' | s)) as a
    (K, 2) array in the joint's key order, with the joint's strata, and the
    ``marginal`` pair, the pairs' weight-average, all clipped onto [0, 1].
    ``provenance`` records whether the numbers were measured experimentally
    or derived from observational risks under ignorable assignment.
    """

    # each stratum's pair, a read-only view of ``pairs`` built on first read
    per_stratum: Mapping[StratumKey, tuple[float, float]]
    marginal: tuple[float, float]
    provenance: str
    pairs: np.ndarray = field(init=False, repr=False, compare=False)
    _coded: _Coded = field(init=False, repr=False, compare=False)

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("made by load_experimental or adjusted_experimental")

    @classmethod
    def _weighted(cls, joint: StratifiedJoint, pairs: list | np.ndarray,
                  provenance: str) -> "ExperimentalQuantities":
        """Check, clip and store each stratum's pair, in the joint's key
        order, with their weight-average as the marginal pair."""
        if provenance not in (PROVENANCE_MEASURED, PROVENANCE_ADJUSTED):
            raise ValidationError(f"unknown provenance {provenance!r}")
        values = np.vstack([pairs, _running_sum(np.transpose(pairs)
                                                * joint.weights)])
        inside = (values >= -_SUM_TOL) & (values <= 1.0 + _SUM_TOL)
        if not inside.all():
            k, j = divmod(int(inside.argmin()), 2)
            where = (f"stratum {joint._coded[k]}" if k < joint.n_strata
                     else "marginal")
            raise ValidationError(f"{where}: probability "
                                  f"{values[k, j].item()!r} outside [0, 1]")
        clipped = _clip(values, 0.0, 1.0)
        clipped.flags.writeable = False
        built = object.__new__(cls)
        vars(built).update(_coded=joint._coded, pairs=clipped[:-1],
                           marginal=tuple(clipped[-1].tolist()),
                           provenance=provenance)
        return built

    @cached_property
    def per_stratum(self) -> Mapping[StratumKey, tuple[float, float]]:
        return _View(dict(zip(self._coded.keys(),
                              map(tuple, self.pairs.tolist()))))

    def __eq__(self, other: object) -> bool:
        # equal per_stratum views are equal strata with equal pairs
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._coded == other._coded
                and np.array_equal(self.pairs, other.pairs)
                and self.marginal == other.marginal
                and self.provenance == other.provenance)


def _matched_pairs(joint: StratifiedJoint,
                   experimental: ExperimentalQuantities) -> np.ndarray:
    """The pairs as a (K, 2) array in the joint's key order; raises
    :class:`ValidationError` unless they are for exactly the joint's
    strata."""
    if experimental._coded != joint._coded:
        raise ValidationError(_MISMATCH)
    return experimental.pairs


def adjusted_experimental(joint: StratifiedJoint) -> ExperimentalQuantities:
    """Experimental pairs from observational risks, assuming assignment is
    strongly ignorable given the stratifying covariates:
    P(y_x | s) = P(y | x, s) and P(y_x' | s) = P(y | x', s)."""
    # arms: P(x|s) and P(x'|s); risks: P(y|x,s) and P(y|x',s)
    arms = joint.cells[:, 0::2] + joint.cells[:, 1::2]
    empty = (arms <= 0.0).any(axis=1)
    if empty.any():
        raise PositivityError(f"stratum {joint._coded[int(empty.argmax())]}: "
                              "both exposure arms need positive probability")
    return ExperimentalQuantities._weighted(
        joint, joint.cells[:, 0::2] / arms, PROVENANCE_ADJUSTED)


@dataclass(frozen=True)
class Violation:
    stratum: StratumKey
    constraint: str
    amount: float


@dataclass(frozen=True)
class CompatibilityReport:
    violations: tuple[Violation, ...]

    @property
    def compatible(self) -> bool:
        return not self.violations


# The four consistency inequalities, in the order _excess_columns gives them.
_CONSTRAINTS = ("exposed-lower", "exposed-upper", "unexposed-lower",
                "unexposed-upper")


def _excess_columns(cells: np.ndarray, pairs: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """How far each stratum's pair lies past each consistency inequality on
    its cells, as a (K, 4) array in ``_CONSTRAINTS`` order, from (K, 4) cells
    and (K, 2) pairs, and which of these exceed ``COMPAT_TOL``.  Any
    distribution over joint response behaviors must satisfy, per stratum,

        P(x, y) <= P(y_x) <= 1 - P(x, y')
        P(x', y) <= P(y_x') <= 1 - P(x', y')
    """
    do_exposed, do_unexposed = pairs.T
    excess = np.array((cells[:, 0] - do_exposed,
                       do_exposed - (1.0 - cells[:, 1]),
                       cells[:, 2] - do_unexposed,
                       do_unexposed - (1.0 - cells[:, 3]))).T
    return excess, excess > COMPAT_TOL


def _one_row(table: StratumTable, pair: Sequence[float],
             ) -> tuple[np.ndarray, np.ndarray]:
    """One table's cells as a (1, 4) array and its pair as a (1, 2) array,
    for the one-stratum bounds and search.  A pair holding NaN, which passes
    no inequality and breaks none, raises :class:`ValidationError`."""
    pairs = np.array([pair], dtype=float)
    if np.isnan(pairs).any():
        raise ValidationError(f"experimental pair {tuple(pair)!r} holds NaN")
    cells = np.array([[table.p_exposed_event, table.p_exposed_noevent,
                       table.p_unexposed_event, table.p_unexposed_noevent]])
    return cells, pairs


def _clip(values, low, high):
    """Each value moved into [low, high]; + 0.0 turns a -0.0 into 0.0, as
    min(1.0, max(0.0, v)) does."""
    return np.minimum(np.maximum(values, low), high) + 0.0


def _clip_pairs(cells: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Each of the (K, 2) pairs moved onto its stratum's range,
    [P(x,y|s), 1 - P(x,y'|s)] and likewise for x'; a pair inside comes back
    unchanged."""
    return _clip(pairs, cells[:, 0::2], 1.0 - cells[:, 1::2])


def _conflict(excess: np.ndarray, past: np.ndarray,
              where: str) -> IncompatibilityError:
    """The error for a pair with these excesses, in ``_CONSTRAINTS`` order,
    naming every inequality that ``past`` marks broken.  ``where`` opens
    the message."""
    detail = "; ".join(f"{name} by {amount:.3g}" for name, amount, broken
                       in zip(_CONSTRAINTS, excess.tolist(), past.tolist())
                       if broken)
    return IncompatibilityError(
        f"{where}: experimental pair conflicts with joint cells ({detail})")


def validate_compatibility(joint: StratifiedJoint,
                           experimental: ExperimentalQuantities,
                           ) -> CompatibilityReport:
    """Check every stratum's consistency inequalities within ``COMPAT_TOL``.

    Raises :class:`ValidationError` when the stratum sets differ; returns a
    report listing violations (empty means compatible).
    """
    excess, past = _excess_columns(joint.cells,
                                   _matched_pairs(joint, experimental))
    return CompatibilityReport(violations=tuple(
        Violation(stratum=joint._coded[k], constraint=_CONSTRAINTS[c],
                  amount=excess[k, c].item())
        for k, c in zip(*np.nonzero(past))))


_ENTRY = ("levels", "p_event_do_exposed", "p_event_do_unexposed")


def _plain_pairs(text: str, coded: _Coded) -> tuple[np.ndarray, str] | None:
    """The pairs of a plain pairs file, as a (K, 2) array in key order,
    and its provenance; None for any other file.

    A plain file is one that orjson reads, with no container but the top
    object, its ``strata`` list, the entries and their levels, so that
    ``json.loads`` reads it too, even where a repeated key hides a value.
    Each entry's levels are JSON strings for exactly ``coded``'s
    covariates, its pair JSON numbers, and the last entry for a stratum
    counts.  The entry loop of :func:`load_experimental` gives such a file
    the same pairs, or the same mismatch error, the only error it can meet
    there; it reads every other file.
    """
    import orjson

    try:
        data = orjson.loads(text)
    except orjson.JSONDecodeError:
        return None
    strata = data.get("strata") if type(data) is dict else None
    if type(strata) is not list:
        return None
    # every "[" and "{" of the text, counted as bytes, opens one of the
    # plain containers, so no other is hidden
    raw = np.frombuffer(text.encode(), np.uint8)
    n, covs = len(strata), coded.covariates
    if sum(np.count_nonzero(raw == ord(c)) for c in "[{") != 2 * n + 2:
        return None
    try:
        levels, *pair = [list(map(itemgetter(key), strata)) for key in _ENTRY]
        if (set(map(type, levels)) != {dict}
                or set(map(len, levels)) != {len(covs)}):
            return None
        columns = [list(map(itemgetter(name), levels)) for name in covs]
    except (KeyError, TypeError):  # TypeError: an entry that is no object
        return None
    # JSON numbers, or bools, which float() reads as 1 and 0; no text or null
    values = np.array(pair)
    if values.dtype.kind not in "biuf":
        return None
    try:
        # each entry's rank in each covariate's levels, as a table's codes
        codes = np.array([list(map(dict(zip(lv, range(len(lv)))).get, column))
                          for lv, column in zip(coded.levels, columns)],
                         np.intp).reshape(len(covs), n).T
        rows, listed = _groups(_Coded(covs, coded.levels, codes), covs)
    except TypeError:  # a level that no stratum has
        listed = None
    if listed is None or listed != coded:
        # the loop matches a level that is not a string by its str() text
        if any(set(map(type, column)) != {str} for column in columns):
            return None
        raise ValidationError(_MISMATCH)
    # each stratum's last entry
    last = np.zeros(len(coded), np.intp)
    np.maximum.at(last, rows, np.arange(n))
    return values.T[last], data.get("provenance", PROVENANCE_MEASURED)


def load_experimental(source: Source, joint: StratifiedJoint) -> ExperimentalQuantities:
    """Parse experimental pairs; the marginal comes from the joint's weights.
    A stratum listed twice takes its last entry."""
    text = _read_text(source)
    plain = _plain_pairs(text, joint._coded)
    if plain is not None:
        return ExperimentalQuantities._weighted(joint, *plain)
    data = _parsed(text, "experimental")
    coded = joint._coded
    covs, names = coded.covariates, set(coded.covariates)
    # each stratum's row by its levels, in covariate order
    index = dict(zip(coded.rows(), range(len(coded))))
    pairs: list[tuple[float, float] | None] = [None] * len(coded)
    unknown = False
    try:
        for entry in data["strata"]:
            levels = entry["levels"]
            levels.items()  # AttributeError: levels that are not an object
            pair = (float(entry["p_event_do_exposed"]),
                    float(entry["p_event_do_unexposed"]))
            # JSON names are already text
            k = (index.get(tuple([str(levels[name]) for name in covs]))
                 if levels.keys() == names else None)
            if k is None:
                unknown = True
            else:
                pairs[k] = pair
        provenance = data.get("provenance", PROVENANCE_MEASURED)
    except (KeyError, TypeError, ValueError, OverflowError,
            AttributeError) as exc:
        # OverflowError: an integer too large for a float; AttributeError:
        # levels that are not a JSON object
        raise ParseError(f"malformed experimental data: {exc}") from exc
    if unknown or None in pairs:
        raise ValidationError(_MISMATCH)
    return ExperimentalQuantities._weighted(joint, pairs, provenance)
