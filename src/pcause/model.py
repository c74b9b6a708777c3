"""Data model for stratified exposure/outcome contingency data.

The package works with 2x2 tables of a binary exposure ``x`` (1 = exposed)
and a binary outcome ``y`` (1 = event), recorded separately within covariate
strata.  Counts arrive as CSV with one covariate column per covariate,
then ``x``, ``y`` and ``count``::

    stage,x,y,count
    1,0,1,2
    1,0,0,10
    ...

Lines starting with ``#`` and blank lines are ignored.  Duplicate cells are
summed.  Counts convert to a :class:`StratifiedJoint`, which stores within
each stratum the four joint cell probabilities P(x, y | s) and the stratum
weight P(s).

Experimental knowledge enters as :class:`ExperimentalQuantities`: the pair
(P(y_x | s), P(y_x' | s)) per stratum, where y_x denotes the outcome under
an intervention that sets exposure.  When treatment assignment is strongly
ignorable given the covariates, these equal the observational conditional
risks; :func:`adjusted_experimental` builds them that way.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence, Union

from .errors import IncompatibilityError, ParseError, PositivityError, ValidationError

EXPOSED = 1
UNEXPOSED = 0
EVENT = 1
NOEVENT = 0

PROVENANCE_MEASURED = "measured-experimental"
PROVENANCE_ADJUSTED = "sita-adjusted"

_SUM_TOL = 1e-9
# The least integer that float() rounds to infinity (it raises OverflowError).
_FLOAT_LIMIT = 2**1024 - 2**970
# How far a pair may sit outside its compatibility range; see compatible_pair.
COMPAT_TOL = 1e-3

Source = Union[str, Path, IO[str]]


def _read_text(source: Source) -> str:
    try:
        if hasattr(source, "read"):
            return source.read()
        return Path(source).read_text(encoding="utf-8")
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
        if self.p_exposed <= 0.0:
            raise PositivityError("no exposed mass in stratum")
        return self.p_exposed_event / self.p_exposed

    @property
    def risk_unexposed(self) -> float:
        """P(y | x', s)."""
        if self.p_unexposed <= 0.0:
            raise PositivityError("no unexposed mass in stratum")
        return self.p_unexposed_event / self.p_unexposed

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


@dataclass(frozen=True)
class StratifiedJoint:
    """A collection of stratum tables whose weights partition unity."""

    strata: Mapping[StratumKey, StratumTable]
    covariates: tuple[str, ...]
    total_n: int | None = None

    def __post_init__(self) -> None:
        if not self.strata:
            raise ValidationError("a stratified joint needs at least one stratum")
        covs = tuple(sorted(str(c) for c in self.covariates))
        if len(set(covs)) != len(covs):
            raise ValidationError(f"duplicate covariate names: {covs}")
        ordered = {}
        for key in sorted(self.strata, key=_key_order):
            if key.covariates != covs:
                raise ValidationError(
                    f"stratum {key} does not use covariates {covs}")
            ordered[key] = self.strata[key]
        total = sum(t.weight for t in ordered.values())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValidationError(f"stratum weights sum to {total!r}, not 1")
        if self.total_n is not None and self.total_n <= 0:
            raise ValidationError(f"total_n must be positive, got {self.total_n!r}")
        object.__setattr__(self, "strata", ordered)
        object.__setattr__(self, "covariates", covs)

    def items(self) -> Iterator[tuple[StratumKey, StratumTable]]:
        return iter(self.strata.items())

    def keys(self) -> tuple[StratumKey, ...]:
        return tuple(self.strata.keys())

    @property
    def n_strata(self) -> int:
        return len(self.strata)

    def only(self) -> StratumTable:
        """The single table of a one-stratum joint (typically pooled data)."""
        if len(self.strata) != 1:
            raise ValidationError(f"expected one stratum, found {len(self.strata)}")
        return next(iter(self.strata.values()))


@dataclass(frozen=True)
class CountTable:
    """Integer cell counts keyed by (stratum, x, y)."""

    cells: Mapping[tuple[StratumKey, int, int], int]
    covariates: tuple[str, ...]

    def __post_init__(self) -> None:
        covs = tuple(sorted(str(c) for c in self.covariates))
        cleaned = {}
        for (key, x, y), n in sorted(self.cells.items(), key=_cell_order):
            if key.covariates != covs:
                raise ValidationError(f"stratum {key} does not use covariates {covs}")
            if x not in (0, 1) or y not in (0, 1):
                raise ValidationError(f"cell ({key}, x={x!r}, y={y!r}) not binary")
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise ValidationError(f"count {n!r} is not a nonnegative integer")
            cleaned[(key, x, y)] = n
        object.__setattr__(self, "cells", cleaned)
        object.__setattr__(self, "covariates", covs)

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
    def total(self) -> int:
        return sum(self.cells.values())

    def rows(self) -> Iterator[tuple[StratumKey, int, int, int]]:
        for (key, x, y), n in self.cells.items():
            yield key, x, y, n

    def collapse(self, keep: Sequence[str]) -> "CountTable":
        """Sum counts over the covariates not in ``keep``.  Exact."""
        keep_t = tuple(keep)
        unknown = set(keep_t) - set(self.covariates)
        if unknown:
            raise ValidationError(f"unknown covariate(s) {sorted(unknown)}")
        return CountTable.from_rows(
            ((key.project(keep_t), x, y, n) for key, x, y, n in self.rows()),
            covariates=keep_t,
        )


def load_counts(source: Source) -> CountTable:
    """Parse the counts CSV described in the module docstring.

    Errors name the offending line number as it appears in the file,
    comments and blank lines included.
    """
    # Lines end at \n, \r\n or \r only, as for the csv module; str.splitlines
    # would also split at \x1c-\x1e, \x85, \u2028 and others inside a level.
    lines = _read_text(source).replace("\r\n", "\n").replace("\r", "\n")
    kept: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(lines.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = next(csv.reader([raw]))
        kept.append((lineno, [f.strip() for f in fields]))
    if not kept:
        raise ParseError("no header row found")

    header_line, header = kept[0]
    for required in ("x", "y", "count"):
        if header.count(required) != 1:
            raise ParseError(
                f"line {header_line}: header must contain {required!r} exactly once")
    special = {"x": header.index("x"), "y": header.index("y"),
               "count": header.index("count")}
    cov_idx = [(name, i) for i, name in enumerate(header)
               if i not in special.values()]
    cov_names = [name for name, _ in cov_idx]
    if len(set(cov_names)) != len(cov_names):
        raise ParseError(f"line {header_line}: duplicate covariate columns")
    if any(not name for name in cov_names):
        raise ParseError(f"line {header_line}: empty covariate column name")

    # One key per distinct tuple of levels, shared by that stratum's rows.
    keys: dict[tuple[str, ...], StratumKey] = {}
    rows: list[tuple[StratumKey, int, int, int]] = []
    for lineno, fields in kept[1:]:
        if len(fields) != len(header):
            raise ParseError(
                f"line {lineno}: expected {len(header)} fields, got {len(fields)}")
        xy = {}
        for name in ("x", "y"):
            value = fields[special[name]]
            if value not in ("0", "1"):
                raise ParseError(f"line {lineno}: {name} must be 0 or 1, got {value!r}")
            xy[name] = int(value)
        raw_count = fields[special["count"]]
        try:
            n = int(raw_count)
        except ValueError:
            n = -1
        if n < 0:
            raise ParseError(
                f"line {lineno}: count must be a nonnegative integer, got {raw_count!r}")
        levels = tuple(fields[i] for _, i in cov_idx)
        key = keys.get(levels)
        if key is None:
            key = keys[levels] = StratumKey(tuple(zip(cov_names, levels)))
        rows.append((key, xy["x"], xy["y"], n))
    if not rows:
        raise ParseError("no data rows")
    return CountTable.from_rows(rows, covariates=cov_names)


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


# Slot order of a stratum's four cells, as in StratumTable.
_CELLS = ((EXPOSED, EVENT), (EXPOSED, NOEVENT), (UNEXPOSED, EVENT),
          (UNEXPOSED, NOEVENT))


def _cell_slot(x: int, y: int) -> int:
    return _CELLS.index((x, y))


def _joint_from_cells(cells: Iterable[tuple[StratumKey, Sequence[float]]],
                     total: float, covariates: Sequence[str],
                     total_n: int | None) -> StratifiedJoint:
    """A joint from each stratum's four cell masses, in slot order.

    Each stratum's cells are divided by their sum, and the sum by ``total``
    to give the stratum weight.
    """
    strata = {}
    for key, quad in cells:
        st_total = sum(quad)
        strata[key] = StratumTable(
            p_exposed_event=quad[0] / st_total,
            p_exposed_noevent=quad[1] / st_total,
            p_unexposed_event=quad[2] / st_total,
            p_unexposed_noevent=quad[3] / st_total,
            weight=st_total / total,
        )
    return StratifiedJoint(strata=strata, covariates=tuple(covariates),
                           total_n=total_n)


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

    add = 0.5 if smoothing == "add-half" else 0.0
    quads: dict[StratumKey, list[float]] = {}
    for key, x, y, n in counts.rows():
        quads.setdefault(key, [add] * 4)[_cell_slot(x, y)] += n

    grand = 0.0
    for key, quad in quads.items():
        for (x, y), c in zip(_CELLS, quad):
            if c <= 0.0:
                raise PositivityError(
                    f"stratum {key}: empty cell (x={x}, y={y}); "
                    "use add-half smoothing or pool strata")
        grand += sum(quad)
    return _joint_from_cells(quads.items(), grand, counts.covariates, raw_total)


def collapse(joint: StratifiedJoint, keep: Sequence[str]) -> StratifiedJoint:
    """Marginalize the joint onto the covariates in ``keep``.

    Cell probabilities recombine as weighted averages, so collapsing to the
    empty set yields the pooled 2x2 table as a single-stratum joint.
    """
    keep_t = tuple(keep)
    unknown = set(keep_t) - set(joint.covariates)
    if unknown:
        raise ValidationError(f"unknown covariate(s) {sorted(unknown)}")

    acc: dict[StratumKey, list[float]] = {}
    for key, t in joint.items():
        sub = key.project(keep_t)
        cells = acc.setdefault(sub, [0.0, 0.0, 0.0, 0.0, 0.0])
        cells[0] += t.p_exposed_event * t.weight
        cells[1] += t.p_exposed_noevent * t.weight
        cells[2] += t.p_unexposed_event * t.weight
        cells[3] += t.p_unexposed_noevent * t.weight
        cells[4] += t.weight

    strata = {}
    for key, (ee, en, ue, un, w) in acc.items():
        strata[key] = StratumTable(
            p_exposed_event=ee / w,
            p_exposed_noevent=en / w,
            p_unexposed_event=ue / w,
            p_unexposed_noevent=un / w,
            weight=w,
        )
    return StratifiedJoint(strata=strata, covariates=keep_t,
                           total_n=joint.total_n)


@dataclass(frozen=True)
class ExperimentalQuantities:
    """Interventional outcome probabilities, per stratum and marginal.

    ``per_stratum`` maps each stratum to (P(y_x | s), P(y_x' | s)); the
    marginal pair is their weight-average.  ``provenance`` records whether
    the numbers were measured experimentally or derived from observational
    risks under ignorable assignment.
    """

    per_stratum: Mapping[StratumKey, tuple[float, float]]
    marginal: tuple[float, float]
    provenance: str

    def __post_init__(self) -> None:
        if self.provenance not in (PROVENANCE_MEASURED, PROVENANCE_ADJUSTED):
            raise ValidationError(f"unknown provenance {self.provenance!r}")
        cleaned = {}
        for key in sorted(self.per_stratum, key=_key_order):
            cleaned[key] = tuple(self._checked(p, key) for p in self.per_stratum[key])
        marg = tuple(self._checked(p, None) for p in self.marginal)
        if len(marg) != 2 or any(len(pair) != 2 for pair in cleaned.values()):
            raise ValidationError("expected (do-exposed, do-unexposed) pairs")
        object.__setattr__(self, "per_stratum", cleaned)
        object.__setattr__(self, "marginal", marg)

    @staticmethod
    def _checked(p: float, key: StratumKey | None) -> float:
        if not (-_SUM_TOL <= p <= 1.0 + _SUM_TOL):
            where = f"stratum {key}" if key is not None else "marginal"
            raise ValidationError(f"{where}: probability {p!r} outside [0, 1]")
        return min(1.0, max(0.0, p))

    @classmethod
    def from_per_stratum(cls, joint: StratifiedJoint,
                         per_stratum: Mapping[StratumKey, tuple[float, float]],
                         provenance: str) -> "ExperimentalQuantities":
        """Build with the marginal pair computed from the joint's weights."""
        if set(per_stratum) != set(joint.keys()):
            raise ValidationError(
                "experimental strata do not match the joint's strata")
        do_exposed = sum(per_stratum[k][0] * t.weight for k, t in joint.items())
        do_unexposed = sum(per_stratum[k][1] * t.weight for k, t in joint.items())
        return cls(per_stratum=per_stratum,
                   marginal=(do_exposed, do_unexposed),
                   provenance=provenance)

    def pair(self, key: StratumKey) -> tuple[float, float]:
        try:
            return self.per_stratum[key]
        except KeyError:
            raise ValidationError(f"no experimental pair for stratum {key}") from None


def adjusted_experimental(joint: StratifiedJoint) -> ExperimentalQuantities:
    """Experimental pairs from observational risks, assuming assignment is
    strongly ignorable given the stratifying covariates:
    P(y_x | s) = P(y | x, s) and P(y_x' | s) = P(y | x', s)."""
    per = {}
    for key, t in joint.items():
        if t.p_exposed <= 0.0 or t.p_unexposed <= 0.0:
            raise PositivityError(
                f"stratum {key}: both exposure arms need positive probability")
        per[key] = (t.risk_exposed, t.risk_unexposed)
    return ExperimentalQuantities.from_per_stratum(
        joint, per, provenance=PROVENANCE_ADJUSTED)


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


def stratum_violations(table: StratumTable, pair: tuple[float, float],
                       tol: float) -> list[tuple[str, float]]:
    """Consistency checks linking one stratum's joint cells to its
    interventional pair.  Any distribution over joint response behaviors
    must satisfy, within the stratum,

        P(x, y) <= P(y_x) <= 1 - P(x, y')
        P(x', y) <= P(y_x') <= 1 - P(x', y')

    Returns (constraint name, excess) for each inequality violated by more
    than ``tol``.
    """
    do_exposed, do_unexposed = pair
    checks = (
        ("exposed-lower", table.p_exposed_event - do_exposed),
        ("exposed-upper", do_exposed - (1.0 - table.p_exposed_noevent)),
        ("unexposed-lower", table.p_unexposed_event - do_unexposed),
        ("unexposed-upper", do_unexposed - (1.0 - table.p_unexposed_noevent)),
    )
    return [(name, excess) for name, excess in checks if excess > tol]


def clip_pair(table: StratumTable, pair: tuple[float, float]) -> tuple[float, float]:
    """The pair moved onto its range; a pair inside comes back unchanged."""
    return (min(1.0 - table.p_exposed_noevent, max(table.p_exposed_event, pair[0])),
            min(1.0 - table.p_unexposed_noevent, max(table.p_unexposed_event, pair[1])))


def compatible_pair(table: StratumTable, pair: tuple[float, float],
                    where: StratumKey | str) -> tuple[float, float]:
    """Raise :class:`IncompatibilityError` naming every inequality the pair
    breaks by more than ``COMPAT_TOL``; otherwise return it clipped onto
    its range.  ``where`` opens the message: a key reads "stratum KEY"."""
    outside = stratum_violations(table, pair, 0.0)
    violations = [(name, amount) for name, amount in outside if amount > COMPAT_TOL]
    if violations:
        detail = "; ".join(f"{name} by {amount:.3g}" for name, amount in violations)
        if isinstance(where, StratumKey):
            where = f"stratum {where}"
        raise IncompatibilityError(
            f"{where}: experimental pair conflicts with joint cells ({detail})")
    return clip_pair(table, pair) if outside else pair


def validate_compatibility(joint: StratifiedJoint,
                           experimental: ExperimentalQuantities,
                           ) -> CompatibilityReport:
    """Check every stratum's consistency inequalities within ``COMPAT_TOL``.

    Raises :class:`ValidationError` when the stratum sets differ; returns a
    report listing violations (empty means compatible).
    """
    if set(experimental.per_stratum) != set(joint.keys()):
        raise ValidationError("experimental strata do not match the joint's strata")
    violations = []
    for key, t in joint.items():
        for name, excess in stratum_violations(t, experimental.pair(key),
                                               COMPAT_TOL):
            violations.append(Violation(stratum=key, constraint=name, amount=excess))
    return CompatibilityReport(violations=tuple(violations))


def load_experimental(source: Source, joint: StratifiedJoint) -> ExperimentalQuantities:
    """Parse experimental pairs; the marginal comes from the joint's weights."""
    data = _read_json(source, "experimental")
    try:
        per = {}
        for entry in data["strata"]:
            key = StratumKey(tuple((n, str(v)) for n, v in entry["levels"].items()))
            per[key] = (float(entry["p_event_do_exposed"]),
                        float(entry["p_event_do_unexposed"]))
        provenance = data.get("provenance", PROVENANCE_MEASURED)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed experimental data: {exc}") from exc
    return ExperimentalQuantities.from_per_stratum(joint, per, provenance)
