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
an error naming its line.  Duplicate cells are summed.  Whitespace around a
field is dropped, and a level must keep one spelling throughout.  Counts
convert to a :class:`StratifiedJoint`, which stores within each stratum the
four joint cell probabilities P(x, y | s) and the stratum weight P(s), as
arrays over all strata.

Experimental knowledge enters as :class:`ExperimentalQuantities`: the pair
(P(y_x | s), P(y_x' | s)) per stratum, where y_x denotes the outcome under
an intervention that sets exposure.  When treatment assignment is strongly
ignorable given the covariates, these equal the observational conditional
risks; :func:`adjusted_experimental` builds them that way.  Every function
that takes a joint and its pairs requires pairs for exactly the joint's
strata.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from operator import add, attrgetter, floordiv, itemgetter, mod, mul, ne
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, Union

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
        return Path(source).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode {source}: {exc}") from exc


def _read_json(source: Source, what: str):
    try:
        return json.loads(_read_text(source))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} file is not valid JSON: {exc}") from exc


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

    def level(self, name: str) -> str:
        for covariate, value in self.labels:
            if covariate == name:
                return value
        raise ValidationError(f"covariate {name!r} not in stratum {self}")

    def project(self, keep: Sequence[str]) -> "StratumKey":
        """Restrict the key to a subset of its covariates."""
        wanted = set(keep)
        missing = wanted - set(self.covariates)
        if missing:
            raise ValidationError(f"unknown covariate(s) {sorted(missing)} in {self}")
        return StratumKey(tuple(lv for lv in self.labels if lv[0] in wanted))

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


# Sort keys that order strata as StratumKey's generated comparisons do,
# without a dataclass __lt__/__eq__ call per comparison.
_key_order = attrgetter("labels")


def _cell_order(item: tuple[tuple[StratumKey, int, int], int]) -> tuple:
    (key, x, y), _ = item
    return key.labels, x, y


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

    def cell(self, x: int, y: int) -> float:
        if x == EXPOSED:
            return self.p_exposed_event if y == EVENT else self.p_exposed_noevent
        if x == UNEXPOSED:
            return self.p_unexposed_event if y == EVENT else self.p_unexposed_noevent
        raise ValidationError(f"exposure level {x!r} not in {{0, 1}}")

    @property
    def p_exposed(self) -> float:
        return self.p_exposed_event + self.p_exposed_noevent

    @property
    def p_unexposed(self) -> float:
        return self.p_unexposed_event + self.p_unexposed_noevent

    @property
    def p_event(self) -> float:
        return self.p_exposed_event + self.p_unexposed_event

    @property
    def p_noevent(self) -> float:
        return self.p_exposed_noevent + self.p_unexposed_noevent

    @property
    def risk_exposed(self) -> float:
        """P(y | x, s)."""
        return _risk(self.p_exposed_event, self.p_exposed_noevent, "exposed")

    @property
    def risk_unexposed(self) -> float:
        """P(y | x', s)."""
        return _risk(self.p_unexposed_event, self.p_unexposed_noevent,
                     "unexposed")

    def swap(self) -> "StratumTable":
        """Relabel both exposure and outcome: cell (x, y) becomes (x', y').

        The transform that turns sufficiency analysis into necessity
        analysis on the relabeled table.
        """
        return StratumTable(
            p_exposed_event=self.p_unexposed_noevent,
            p_exposed_noevent=self.p_unexposed_event,
            p_unexposed_event=self.p_exposed_noevent,
            p_unexposed_noevent=self.p_exposed_event,
            weight=self.weight,
        )


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
    fields) and ``weights`` each P(s) as a (K,) array.  ``strata`` maps each
    key to its :class:`StratumTable`; it is a read-only view of the arrays,
    built when first read.
    """

    # a field, so that repr reads the view and dataclasses.replace passes
    # it to the constructor
    strata: Mapping[StratumKey, StratumTable]
    covariates: tuple[str, ...]
    total_n: int | None
    cells: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    _keys: tuple[StratumKey, ...] = field(init=False, repr=False,
                                          compare=False)

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
        self._set(keys, np.array([[t.p_exposed_event, t.p_exposed_noevent,
                                   t.p_unexposed_event, t.p_unexposed_noevent]
                                  for t in tables], dtype=float),
                  np.array([t.weight for t in tables], dtype=float), covs,
                  total_n)

    @classmethod
    def _of(cls, keys: tuple[StratumKey, ...], cells: np.ndarray,
            weights: np.ndarray, covariates: tuple[str, ...],
            total_n: int | None) -> "StratifiedJoint":
        """A joint from its arrays, with ``keys`` in key order and each
        using exactly ``covariates``, which are distinct and sorted."""
        joint = object.__new__(cls)
        joint._set(keys, cells, weights, covariates, total_n)
        return joint

    def _set(self, keys: tuple[StratumKey, ...], cells: np.ndarray,
             weights: np.ndarray, covariates: tuple[str, ...],
             total_n: int | None) -> None:
        """Check the rows as :class:`StratumTable` checks one, raising its
        error for the first stratum in key order that fails, then the
        weights' total and ``total_n``; store the arrays read-only."""
        negative = ~(cells >= 0.0)
        sums = _running_sum(cells)
        failed = (negative.any(axis=1) | (np.abs(sums - 1.0) > _SUM_TOL)
                  | ~((weights > 0.0) & (weights <= 1.0 + _SUM_TOL)))
        if failed.any():
            k = int(failed.argmax())
            if negative[k].any():
                cell = cells[k, negative[k].argmax()].item()
                raise ValidationError(f"negative cell probability {cell!r}")
            if abs(sums[k] - 1.0) > _SUM_TOL:
                raise ValidationError(
                    f"cells sum to {sums[k].item()!r}, not 1")
            raise ValidationError(
                f"stratum weight {weights[k].item()!r} outside (0, 1]")
        total = sum(weights.tolist())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValidationError(f"stratum weights sum to {total!r}, not 1")
        if total_n is not None and total_n <= 0:
            raise ValidationError(f"total_n must be positive, got {total_n!r}")
        cells.flags.writeable = weights.flags.writeable = False
        for name, value in (("_keys", keys), ("cells", cells),
                            ("weights", weights), ("covariates", covariates),
                            ("total_n", total_n)):
            object.__setattr__(self, name, value)

    @cached_property
    def strata(self) -> Mapping[StratumKey, StratumTable]:
        return _View(dict(zip(self._keys, map(
            StratumTable, *self.cells.T.tolist(), self.weights.tolist()))))

    def __eq__(self, other: object) -> bool:
        # equal strata views are equal keys with equal arrays
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._keys == other._keys
                and self.covariates == other.covariates
                and self.total_n == other.total_n
                and np.array_equal(self.cells, other.cells)
                and np.array_equal(self.weights, other.weights))

    def items(self) -> Iterator[tuple[StratumKey, StratumTable]]:
        return iter(self.strata.items())

    def keys(self) -> tuple[StratumKey, ...]:
        return self._keys

    @property
    def n_strata(self) -> int:
        return len(self._keys)

    def only(self) -> StratumTable:
        """The single table of a one-stratum joint (typically pooled data)."""
        if len(self._keys) != 1:
            raise ValidationError(
                f"expected one stratum, found {len(self._keys)}")
        return StratumTable(*self.cells[0].tolist(), self.weights[0].item())


@dataclass(frozen=True, init=False, repr=False)
class CountTable:
    """Integer cell counts keyed by (stratum, x, y).

    Stored as the distinct strata in key order, each with a quad of counts
    in the order of :class:`StratumTable`'s cells, where None marks a cell
    that no row named.
    ``cells`` and :meth:`rows` present the same counts in (stratum, x, y)
    order.
    """

    covariates: tuple[str, ...]
    _keys: tuple[StratumKey, ...]
    _quads: tuple[tuple[int | None, ...], ...]
    _total: int = field(compare=False)

    def __init__(self, cells: Mapping[tuple[StratumKey, int, int], int],
                 covariates: Sequence[str]) -> None:
        covs = tuple(sorted(str(c) for c in covariates))
        quads: dict[StratumKey, list[int | None]] = {}
        for (key, x, y), n in sorted(cells.items(), key=_cell_order):
            if key.covariates != covs:
                raise ValidationError(f"stratum {key} does not use covariates {covs}")
            if x not in (0, 1) or y not in (0, 1):
                raise ValidationError(f"cell ({key}, x={x!r}, y={y!r}) not binary")
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise ValidationError(f"count {n!r} is not a nonnegative integer")
            quads.setdefault(key, [None] * 4)[_cell_slot(x, y)] = n
        self._set(covs, tuple(quads), list(quads.values()),
                  sum(cells.values()))

    @classmethod
    def _of(cls, covariates: tuple[str, ...], keys: tuple[StratumKey, ...],
            quads: list[list[int | None]], total: int) -> "CountTable":
        """A table from checked parts: sorted covariates, keys in key order."""
        table = object.__new__(cls)
        table._set(covariates, keys, quads, total)
        return table

    def _set(self, covariates: tuple[str, ...], keys: tuple[StratumKey, ...],
             quads: list[list[int | None]], total: int) -> None:
        object.__setattr__(self, "covariates", covariates)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_quads", tuple(map(tuple, quads)))
        object.__setattr__(self, "_total", total)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[StratumKey, int, int, int]],
                  covariates: Sequence[str]) -> "CountTable":
        """Aggregate (stratum, x, y, count) rows; duplicate cells are summed."""
        cells: dict[tuple[StratumKey, int, int], int] = {}
        for key, x, y, n in rows:
            cell = (key, x, y)
            cells[cell] = cells.get(cell, 0) + n
        return cls(cells=cells, covariates=tuple(covariates))

    @property
    def cells(self) -> dict[tuple[StratumKey, int, int], int]:
        """A new dict of the counts by (stratum, x, y), in that order."""
        return {(key, x, y): n for key, x, y, n in self.rows()}

    @property
    def total(self) -> int:
        return self._total

    def rows(self) -> Iterator[tuple[StratumKey, int, int, int]]:
        for key, quad in zip(self._keys, self._quads):
            for slot in _ROW_SLOTS:
                if quad[slot] is not None:
                    yield key, *_CELLS[slot], quad[slot]

    def __repr__(self) -> str:
        return f"CountTable(cells={self.cells!r}, covariates={self.covariates!r})"

    def collapse(self, keep: Sequence[str]) -> "CountTable":
        """Sum counts over the covariates not in ``keep``.  Exact."""
        index, keys, covs = _groups(self._keys, self.covariates, keep)
        quads: list[list[int | None]] = [[None] * 4 for _ in keys]
        for group, quad in zip(index.tolist(), self._quads):
            into = quads[group]
            for slot, n in enumerate(quad):
                if n is not None:
                    into[slot] = n if into[slot] is None else into[slot] + n
        return CountTable._of(covs, keys, quads, self._total)


# A data row's (x, y) fields as written, when they need no stripping.
_SLOTS = {("1", "1"): 0, ("1", "0"): 1, ("0", "1"): 2, ("0", "0"): 3}


def _levels_getter(positions: list[int]) -> Callable[[Sequence], tuple]:
    """A function giving the tuple of a sequence's items at ``positions``."""
    if len(positions) == 1:
        return lambda fields: (fields[positions[0]],)
    return itemgetter(*positions) if positions else lambda fields: ()


def _groups(keys: Sequence[StratumKey], covariates: tuple[str, ...],
            keep: Sequence[str]) -> tuple[np.ndarray, tuple, tuple[str, ...]]:
    """Each stratum's group, numbered in key order, the group keys and the
    kept covariates, sorted.  A group is a stratum's labels restricted to
    ``keep``, as :meth:`StratumKey.project` gives them."""
    covs = tuple(sorted(str(c) for c in keep))
    unknown = set(covs) - set(covariates)
    if unknown:
        raise ValidationError(f"unknown covariate(s) {sorted(unknown)}")
    if len(set(covs)) != len(covs):
        raise ValidationError(f"duplicate covariate names: {covs}")
    project = _levels_getter([i for i, name in enumerate(covariates)
                              if name in covs])
    # number the groups as first seen (one hash per stratum), then in order
    seen: dict[tuple, int] = {}
    index = [seen.setdefault(project(key.labels), len(seen)) for key in keys]
    labels = sorted(seen)
    return (np.argsort([seen[label] for label in labels])[index],
            tuple(map(StratumKey._canonical, labels)), covs)


# The counts text is read a block of lines at a time: a block runs from its
# start past this many characters, to the end of that line.  A block's line
# and field lists are held at once, and larger blocks are no faster.
_BLOCK = 1 << 16
# One block's records: the kept lines' numbers, each one's count of
# separators (its fields less one) and all their fields in one list.
_Records = tuple[Sequence[int], list[int], list[str]]


def load_counts(source: Source) -> CountTable:
    """Parse the counts CSV described in the module docstring.

    Errors name the offending line number as it appears in the file,
    comments and blank lines included.  A field over the csv module's size
    limit is named first, wherever it is; otherwise the earliest faulty line
    is named.
    """
    # Lines end at \n, \r\n or \r only, as for the csv module; str.splitlines
    # would also split at \x1c-\x1e, \x85, \u2028 and others inside a level.
    blocks = _blocks(
        _read_text(source).replace("\r\n", "\n").replace("\r", "\n"))
    try:
        return _summed(blocks)
    except ParseError:
        # a later block may still hold a field over the size limit
        for _ in blocks:
            pass
        raise


def _blocks(text: str) -> Iterator[_Records]:
    """The records of the counts text, a block of lines at a time.

    Blank and comment lines are dropped.  A line's fields are what the csv
    module reads from it alone, so a quoted field ends on its line; without
    a quote they lie between its commas.  A field over the csv module's
    size limit is a :class:`ParseError` naming its line.
    """
    limit = csv.field_size_limit()
    end = len(text) - text.endswith("\n")  # the last line end ends the text
    start, lineno = 0, 1
    while start < end:
        stop = text.find("\n", start + _BLOCK, end)
        if stop < 0:
            stop = end
        block = text[start:stop]
        lines = block.split("\n")
        linenos: Sequence[int] = range(lineno, lineno + len(lines))
        start, lineno = stop + 1, lineno + len(lines)
        commas = list(map(str.count, lines, repeat(",")))
        # a line with a comma is not blank, nor, in a block without #, a
        # comment: most blocks drop no line
        if "#" in block or 0 in commas:
            kept = [i for i, line in enumerate(lines)
                    if line.strip()[:1] not in ("", "#")]
            if not kept:
                continue
            linenos, lines, commas = ([seq[i] for i in kept]
                                      for seq in (linenos, lines, commas))
        if max(map(len, lines)) > limit:
            for number, line in zip(linenos, lines):
                try:
                    next(csv.reader([line]))
                except csv.Error as exc:
                    raise ParseError(f"line {number}: {exc}") from None
        if '"' in block:
            records = [next(csv.reader([line])) for line in lines]
            separators = [len(fields) - 1 for fields in records]
            fields = list(chain.from_iterable(records))
        else:
            separators = commas
            fields = ",".join(lines).split(",")
        yield linenos, separators, fields


def _summed(blocks: Iterator[_Records]) -> CountTable:
    """The count table of the records ``_blocks`` yields, checked and summed
    a column of a block at a time."""
    for linenos, separators, fields in blocks:
        break
    else:
        raise ParseError("no header row found")
    header_line, width = linenos[0], separators[0] + 1
    header = [f.strip() for f in fields[:width]]
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

    # Per covariate: a code for each spelling, numbered in order of first
    # use, and each level (a stripped spelling) with the spelling and line
    # that first wrote it, in the same order.  Two spellings of one level
    # are an error, not a merge.
    codes: list[dict[str, int]] = [{} for _ in cov_names]
    spelled: list[dict[str, tuple[str, int]]] = [{} for _ in cov_names]
    # each data row's spelling codes, cell slot and count
    row_codes: list[list[int]] = [[] for _ in cov_names]
    slots: list[int] = []
    counts: list[int] = []
    data = (linenos[1:], separators[1:], fields[width:])
    for linenos, separators, fields in chain([data], blocks):
        if not linenos:
            continue
        # Each screen notes its first faulty row as (row, rank, message);
        # on one row, width ranks before x/y, count and then spellings.
        faults = []
        rows = separators.count(width - 1)
        if rows < len(separators):
            rows = next(i for i, n in enumerate(separators) if n != width - 1)
            faults.append((rows, 0, f"expected {width} fields, "
                                    f"got {separators[rows] + 1}"))
            fields = fields[:rows * width]
        x, y, count = fields[ix::width], fields[iy::width], fields[icount::width]
        block_slots = list(map(_SLOTS.get, zip(x, y)))
        if None in block_slots:
            x, y = list(map(str.strip, x)), list(map(str.strip, y))
            block_slots = list(map(_SLOTS.get, zip(x, y)))
            if None in block_slots:
                row = block_slots.index(None)
                name, value = ("x", x[row]) if x[row] not in ("0", "1") \
                    else ("y", y[row])
                faults.append((row, 1, f"{name} must be 0 or 1, got {value!r}"))
        # int() ignores the whitespace that strip() removes
        try:
            block_counts = list(map(int, count))
        except ValueError:
            block_counts = list(map(_count, count))
        if block_counts and min(block_counts) < 0:
            row = next(i for i, n in enumerate(block_counts) if n < 0)
            faults.append((row, 2, "count must be a nonnegative integer, "
                                   f"got {count[row].strip()!r}"))
        columns = [fields[i::width] for _, i in cov_idx]
        for rank, (name, column, known, levels) in enumerate(
                zip(cov_names, columns, codes, spelled), start=3):
            # the block's new spellings, in order of first use, so that
            # each one's first row lies after the last one's
            row = 0
            for spelling in [s for s in dict.fromkeys(column) if s not in known]:
                row, level = column.index(spelling, row), spelling.strip()
                written, line = levels.setdefault(level, (spelling, linenos[row]))
                if written != spelling:
                    faults.append((row, rank, (
                        f"covariate {name!r} level {spelling!r} reads as "
                        f"{level!r}, which line {line} writes {written!r}; "
                        "write each level one way")))
                known[spelling] = len(known)
        if faults:
            row, _, message = min(faults)
            raise ParseError(f"line {linenos[row]}: {message}")
        for known, column, into in zip(codes, columns, row_codes):
            into += map(known.__getitem__, column)
        slots += block_slots
        counts += block_counts
    if not counts:
        raise ParseError("no data rows")
    return _table(cov_names, spelled, row_codes, slots, counts)


def _table(cov_names: tuple[str, ...],
           spelled: list[dict[str, tuple[str, int]]],
           row_codes: list[list[int]], slots: list[int],
           counts: list[int]) -> CountTable:
    """The count table of the data rows: each row's code per covariate (the
    position of its level in ``spelled``), cell slot and count.

    A row's cell is numbered by its levels' ranks and then its slot, read
    in mixed radix, so that cells sort as their strata's keys and then
    their slots do.
    """
    ordered = [sorted(levels) for levels in spelled]
    strides = [4]
    for levels in reversed(ordered[1:]):
        strides.insert(0, strides[0] * len(levels))
    # each row's first cell of its stratum, then its own cell
    firsts = [0] * len(counts)
    for levels, by_code, row_code, stride in zip(ordered, spelled, row_codes,
                                                 strides):
        scaled = dict(zip(levels, range(0, stride * len(levels), stride)))
        code_first = list(map(scaled.__getitem__, by_code))
        firsts = list(map(add, firsts, map(code_first.__getitem__, row_code)))
    cells = list(map(add, firsts, slots))
    # each cell's count, summed exactly
    sums = dict(zip(cells, counts))
    if len(sums) < len(cells):
        # a cell on several rows: add the others' counts to its last row's
        last = dict(zip(cells, range(len(cells))))
        for row in compress(range(len(cells)), map(
                ne, map(last.__getitem__, cells), range(len(cells)))):
            sums[cells[row]] += counts[row]
    strata = sorted(set(firsts))
    # each stratum's levels, read back from its number digit by digit, and
    # its four cells, None where no row names one
    labels = [zip(repeat(name), map(levels.__getitem__, map(
                  mod, map(floordiv, strata, repeat(stride)),
                  repeat(len(levels)))))
              for name, levels, stride in zip(cov_names, ordered, strides)]
    keys = tuple(map(StratumKey._canonical, zip(*labels))) if labels \
        else (StratumKey(),)
    quads = list(zip(*[map(sums.get, map(add, strata, repeat(slot)))
                       for slot in range(4)]))
    return CountTable._of(cov_names, keys, quads, sum(counts))


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
    for key, x, y, n in counts.rows():
        write(tuple(key.level(c) for c in counts.covariates) + (x, y, n))
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

    # each count becomes the nearest float, as float(n) does; a missing
    # cell (None, read as NaN) counts zero
    quads = np.array(counts._quads, dtype=float)
    quads[np.isnan(quads)] = 0.0
    quads += 0.5 if smoothing == "add-half" else 0.0
    empty = quads <= 0.0
    if empty.any():
        stratum, slot = divmod(int(empty.argmax()), 4)
        x, y = _CELLS[slot]
        raise PositivityError(
            f"stratum {counts._keys[stratum]}: empty cell (x={x}, y={y}); "
            "use add-half smoothing or pool strata")
    cells, sums = _normalised(quads, 1.0)
    return StratifiedJoint._of(counts._keys, cells, sums / _running_sum(sums),
                               counts.covariates, raw_total)


def collapse(joint: StratifiedJoint, keep: Sequence[str]) -> StratifiedJoint:
    """Marginalize the joint onto the covariates in ``keep``.

    Cell probabilities recombine as weighted averages, so collapsing to the
    empty set yields the pooled 2x2 table as a single-stratum joint.
    """
    index, keys, covs = _groups(joint.keys(), joint.covariates, keep)
    # np.add.at adds each group's strata in key order, as a Python loop would
    masses = np.zeros((len(keys), 4))
    np.add.at(masses, index, joint.cells * joint.weights[:, None])
    weights = np.zeros(len(keys))
    np.add.at(weights, index, joint.weights)
    return StratifiedJoint._of(keys, masses / weights[:, None], weights, covs,
                               joint.total_n)


@dataclass(frozen=True, init=False)
class ExperimentalQuantities:
    """Interventional outcome probabilities, per stratum and marginal.

    Stored as ``pairs``, each stratum's (P(y_x | s), P(y_x' | s)) as a
    (K, 2) array in key order, and the ``marginal`` pair, all clipped onto
    [0, 1]; built from a joint, the marginal pair is the pairs'
    weight-average.  ``per_stratum`` maps each stratum to its pair; it is a
    read-only view of ``pairs``, built when first read.  ``provenance``
    records whether the numbers were measured experimentally or derived
    from observational risks under ignorable assignment.
    """

    per_stratum: Mapping[StratumKey, tuple[float, float]]
    marginal: tuple[float, float]
    provenance: str
    pairs: np.ndarray = field(init=False, repr=False, compare=False)
    _keys: tuple[StratumKey, ...] = field(init=False, repr=False,
                                          compare=False)

    def __init__(self, per_stratum: Mapping[StratumKey, tuple[float, float]],
                 marginal: tuple[float, float], provenance: str) -> None:
        keys = tuple(sorted(per_stratum, key=_key_order))
        self._set(keys, [*(per_stratum[key] for key in keys), marginal],
                  provenance)

    @classmethod
    def from_per_stratum(cls, joint: StratifiedJoint,
                         per_stratum: Mapping[StratumKey, tuple[float, float]],
                         provenance: str) -> "ExperimentalQuantities":
        """Build with the marginal pair computed from the joint's weights."""
        if set(per_stratum) != set(joint.keys()):
            raise ValidationError(_MISMATCH)
        return cls._weighted(joint, [per_stratum[key] for key in joint.keys()],
                             provenance)

    @classmethod
    def _weighted(cls, joint: StratifiedJoint, pairs: list | np.ndarray,
                  provenance: str) -> "ExperimentalQuantities":
        """From each stratum's pair in the joint's key order, with their
        weight-average as the marginal pair."""
        built = object.__new__(cls)
        built._set(joint.keys(), pairs, provenance, joint.weights)
        return built

    def _set(self, keys: tuple[StratumKey, ...], rows: list | np.ndarray,
             provenance: str, weights: np.ndarray | None = None) -> None:
        """Check, clip and store the pairs of ``keys``, in key order, and
        the marginal pair: the last of ``rows``, or with ``weights`` the
        weight-average of the pairs."""
        if provenance not in (PROVENANCE_MEASURED, PROVENANCE_ADJUSTED):
            raise ValidationError(f"unknown provenance {provenance!r}")
        if (not isinstance(rows, np.ndarray)
                and any(len(row) != 2 for row in rows)):
            raise ValidationError("expected (do-exposed, do-unexposed) pairs")
        # no dtype: a value that cannot compare with a float raises TypeError
        values = np.asarray(rows)
        if weights is not None:
            values = np.vstack([values, _running_sum(values.T * weights)])
        inside = (values >= -_SUM_TOL) & (values <= 1.0 + _SUM_TOL)
        if not inside.all():
            k, j = divmod(int(inside.argmin()), 2)
            where = f"stratum {keys[k]}" if k < len(keys) else "marginal"
            value = rows[k][j] if k < len(rows) else values[k, j].item()
            raise ValidationError(
                f"{where}: probability {value!r} outside [0, 1]")
        clipped = _clip(values, 0.0, 1.0)
        clipped.flags.writeable = False
        for name, value in (("_keys", keys), ("pairs", clipped[:-1]),
                            ("marginal", tuple(clipped[-1].tolist())),
                            ("provenance", provenance)):
            object.__setattr__(self, name, value)

    @cached_property
    def per_stratum(self) -> Mapping[StratumKey, tuple[float, float]]:
        return _View(dict(zip(self._keys, map(tuple, self.pairs.tolist()))))

    def __eq__(self, other: object) -> bool:
        # equal per_stratum views are equal keys with equal pairs
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._keys == other._keys
                and np.array_equal(self.pairs, other.pairs)
                and self.marginal == other.marginal
                and self.provenance == other.provenance)

    def pair(self, key: StratumKey) -> tuple[float, float]:
        try:
            return self.per_stratum[key]
        except KeyError:
            raise ValidationError(
                f"no experimental pair for stratum {key}") from None


def _matched_pairs(joint: StratifiedJoint,
                   experimental: ExperimentalQuantities) -> np.ndarray:
    """The pairs as a (K, 2) array in the joint's key order; raises
    :class:`ValidationError` unless they are for exactly the joint's
    strata."""
    if experimental._keys != joint.keys():
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
        raise PositivityError(f"stratum {joint.keys()[int(empty.argmax())]}: "
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


def _excess_columns(cells: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """How far each stratum's pair lies past each consistency inequality
    linking it to the stratum's cells, as a (K, 4) array in ``_CONSTRAINTS``
    order, from (K, 4) cells and (K, 2) pairs.  Any distribution over joint
    response behaviors must satisfy, within each stratum,

        P(x, y) <= P(y_x) <= 1 - P(x, y')
        P(x', y) <= P(y_x') <= 1 - P(x', y')
    """
    do_exposed, do_unexposed = pairs.T
    return np.array((cells[:, 0] - do_exposed,
                     do_exposed - (1.0 - cells[:, 1]),
                     cells[:, 2] - do_unexposed,
                     do_unexposed - (1.0 - cells[:, 3]))).T


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


def _conflict(excesses: Sequence[float], where: StratumKey | str,
              ) -> IncompatibilityError | None:
    """The error for a pair whose excesses, in ``_CONSTRAINTS`` order,
    break an inequality by more than ``COMPAT_TOL``, naming every one it
    breaks; None when there is none.  ``where`` opens the message: a key
    reads "stratum KEY"."""
    violations = [(name, amount) for name, amount in zip(_CONSTRAINTS, excesses)
                  if amount > COMPAT_TOL]
    if not violations:
        return None
    detail = "; ".join(f"{name} by {amount:.3g}" for name, amount in violations)
    if isinstance(where, StratumKey):
        where = f"stratum {where}"
    return IncompatibilityError(
        f"{where}: experimental pair conflicts with joint cells ({detail})")


def validate_compatibility(joint: StratifiedJoint,
                           experimental: ExperimentalQuantities,
                           ) -> CompatibilityReport:
    """Check every stratum's consistency inequalities within ``COMPAT_TOL``.

    Raises :class:`ValidationError` when the stratum sets differ; returns a
    report listing violations (empty means compatible).
    """
    excess = _excess_columns(joint.cells, _matched_pairs(joint, experimental))
    keys = joint.keys()
    return CompatibilityReport(violations=tuple(
        Violation(stratum=keys[k], constraint=_CONSTRAINTS[c],
                  amount=excess[k, c].item())
        for k, c in zip(*np.nonzero(excess > COMPAT_TOL))))


def load_experimental(source: Source, joint: StratifiedJoint) -> ExperimentalQuantities:
    """Parse experimental pairs; the marginal comes from the joint's weights.
    A stratum listed twice takes its last entry."""
    data = _read_json(source, "experimental")
    keys = joint.keys()
    index = {key.labels: k for k, key in enumerate(keys)}
    pairs: list[tuple[float, float] | None] = [None] * len(keys)
    unknown = False
    try:
        for entry in data["strata"]:
            # the labels of StratumKey(levels): JSON names are already text
            labels = tuple(sorted((name, str(value))
                                  for name, value in entry["levels"].items()))
            pair = (float(entry["p_event_do_exposed"]),
                    float(entry["p_event_do_unexposed"]))
            k = index.get(labels)
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
