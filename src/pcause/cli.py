"""Command line interface.

Five subcommands cover the library surface:

* ``bounds``    interval bounds from a counts CSV (stratified, pooled and
                per-stratum)
* ``identify``  point estimates assuming exposure never prevents the event
* ``select``    compare candidate covariate sets by asymptotic variance
* ``simulate``  replication study on a built-in or custom scenario
* ``verify``    check the closed-form boxes against the response-type search

Exit codes: 0 success, 1 analysis error, a failed verification or a closed
stdout (a ``--json`` report may already be written in full), 2 usage
error.  ``--json PATH`` writes a machine-readable report with a fixed
schema; unused sections are null, and reruns on identical inputs produce
byte-identical files.  The per-stratum sections are streamed to the file a
block of strata at a time, and a write that fails leaves no partial report.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import stat
import sys
from dataclasses import asdict
from itertools import chain, cycle, repeat
from json.encoder import encode_basestring_ascii
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .bounds import (
    QUANTITIES,
    _TERM_NAMES,
    Interval,
    _Boxes,
    _conditional_rows,
    stratified_interval,
    tian_pearl_interval,
)
from .covselect import compare_covariate_sets
from .errors import PcauseError
from .identify import Estimate, MonotonicityReport, monotonicity_diagnostic
from .model import (
    _Coded,
    adjusted_experimental,
    collapse,
    load_counts,
    load_experimental,
    to_probabilities,
)
from .oracle import VerificationReport, verify_bounds
from .simulate import builtin_scenarios, load_scenario, replicate_study

# Generation-0 collection threshold for the length of one invocation.  A
# table analysis allocates many acyclic objects that live until the report
# is written.  At the default threshold (700), on a 2-vCPU VM, the cycle
# collector ran 73 times (5 ms) in a 10^4-stratum bounds and 776 times
# (85 ms, against 19 ms at this threshold) in a 99,856-stratum one.
_GC_THRESHOLD0 = 100_000

# json's spellings of the floats whose repr is not JSON
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Stands in the report's text for a per-stratum section, which is streamed
# to the file.  json.dumps writes it after the section's key, on a line
# indented to the section's depth; no other text matches, since every quote
# inside a JSON string is escaped and these keys hold no other value.
_SECTION = "<streamed section>"
_MARKER = re.compile(r'\n( *)"(?:entries|flagged|intervals|risk_differences)": '
                     r'("<streamed section>")')


def _report(command: str, input: dict, *, intervals: str | None = None,
            estimates: dict | None = None, selection: dict | None = None,
            verification: dict | None = None, simulation: dict | None = None,
            warnings: Sequence[str] = ()) -> dict:
    """The fixed-schema report of one invocation; unused sections are null."""
    return {
        "metadata": {"tool": "pcause", "version": __version__,
                     "command": command},
        "input": input,
        "intervals": intervals,
        "estimates": estimates,
        "selection": selection,
        "verification": verification,
        "simulation": simulation,
        "warnings": list(warnings),
    }


# The per-stratum sections of a report are written from templates: the text
# json.dumps(..., indent=2) gives one row of a section, with a %s field for
# each value, filled in per row and joined a block of strata at a time.
_INDENT = "  "
_BLOCK = 1024
_SLOT = "\x01"
# a slot's text as a value, not as the end of a key (a covariate name)
_SLOT_VALUE = re.compile(re.escape(encode_basestring_ascii(_SLOT)) + "(?!:)")


@lru_cache(maxsize=128)
def _template(kind: str, depth: int, *names: str) -> str:
    """The row of ``kind`` as a list item at ``depth``, led by its item
    separator (",", newline and indent), with ``%s`` for each slot."""
    text = json.dumps(_ROWS[kind](*names), indent=2)
    text = _SLOT_VALUE.sub("%s", text.replace("%", "%%"))
    newline = "\n" + _INDENT * depth
    return "," + newline + text.replace("\n", newline)


def _interval_row(quantity: str, method: str, attainment) -> dict:
    return {"quantity": quantity, "method": method, "lower": _SLOT,
            "upper": _SLOT, "attainment": attainment}


_TERM_ROW = {"stratum": _SLOT, "lower_term": _SLOT, "upper_term": _SLOT}
# each kind's row; every _SLOT becomes a %s field, in document order
_ROWS: dict[str, Callable[..., object]] = {
    # an interval up to its attainment list, which is streamed after it
    "interval": lambda quantity, method: _interval_row(quantity, method,
                                                       _SLOT),
    "term": lambda: _TERM_ROW,
    "box": lambda quantity: _interval_row(quantity, "conditional",
                                          [_TERM_ROW]),
    "entry": lambda quantity: {
        "stratum": _SLOT, "quantity": quantity,
        "closed": _interval_row(quantity, "conditional", [_TERM_ROW]),
        "searched": _interval_row(quantity, "oracle", []),
        "discrepancy": _SLOT},
    "risk": lambda: {"stratum": _SLOT, "value": _SLOT},
    "stratum": lambda: _SLOT,
    "levels": lambda *names: dict.fromkeys(names, _SLOT),
}


def _floats(values: np.ndarray) -> list[str]:
    """json's text of each float of an array: its repr, or NaN, Infinity,
    -Infinity.  orjson's formatter (Ryu) writes the whole array in one call,
    and its text is repr's wherever repr writes a plain decimal: at 0.0 and
    -0.0, and for 1e-4 <= |x| < 1e16.  Elsewhere it writes another exponent
    form (1e-7 for 1e-07, 1e16 for 1e+16) or null, so those values keep
    repr, formatted once per distinct bit pattern."""
    # imported here, at its first use, so that start-up and the commands
    # that write no per-stratum section do without it
    import orjson
    values = np.ascontiguousarray(values, np.float64)
    if not values.size:
        return []
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[
        1:-1].decode().split(",")
    size = np.abs(values)
    other = np.flatnonzero(~((size >= 1e-4) & (size < 1e16))
                           & (values != 0.0))
    if other.size:
        bits, index = np.unique(values[other].view(np.int64),
                                return_inverse=True)
        spelled = [_NONFINITE.get(text, text) for text in
                   map(float.__repr__, bits.view(np.float64).tolist())]
        for n, k in zip(other.tolist(), index.tolist()):
            texts[n] = spelled[k]
    return texts


# How near its scaled fraction may come to a half before a value is handed
# to %.3f itself: |v| * 1000 is within 6e-14 of its exact value.
_TIE = 1e-6


@lru_cache(maxsize=1)
def _thousandths() -> np.ndarray:
    """The text of k/1000 for k = 0..1000, then of -k/1000."""
    texts = ["%.3f" % (k / 1000) for k in range(1001)]
    return np.array(texts + ["-" + text for text in texts], object)


def _three(values) -> list[str]:
    """``"%.3f" % v`` of each value, looked up by its sign and its nearest
    thousandth; a value beyond ±1 or not finite, or whose thousandths lie
    within _TIE of a half, goes to %.3f, which rounds the exact value."""
    values = np.asarray(values, np.float64)
    scaled = np.abs(values) * 1000.0
    inside = scaled <= 1000.0
    scaled[~inside] = 0.0
    near = np.rint(scaled)
    texts = _thousandths()[near.astype(np.intp)
                           + 1001 * np.signbit(values)].tolist()
    for k in np.flatnonzero(~inside | (np.abs(scaled - near)
                                       > 0.5 - _TIE)).tolist():
        texts[k] = "%.3f" % values[k]
    return texts


def _texts(strings: Iterable[str]) -> list[str]:
    return list(map(encode_basestring_ascii, strings))


class _Strata:
    """The ``{"name": "level", ...}`` text of each of the strata ``coded``,
    rendered once per depth from each level's text."""

    def __init__(self, coded: _Coded) -> None:
        self.coded = coded
        self._texts: dict[int, list[str]] = {}
        self._levels: list[tuple[str, ...]] | None = None

    def at(self, depth: int) -> list[str]:
        """The text of every stratum, in key order, as a value at depth."""
        texts = self._texts.get(depth)
        if texts is None:
            if self._levels is None:
                self._levels = self.coded.rows(
                    lambda name, level: encode_basestring_ascii(level))
            row = _template("levels", depth, *self.coded.covariates)
            texts = self._texts[depth] = list(map(row.lstrip(",\n ").__mod__,
                                                  self._levels))
        return texts


def _blocks(n: int) -> Iterator[slice]:
    return (slice(a, a + _BLOCK) for a in range(0, n, _BLOCK))


def _list(items: Iterable[str], depth: int) -> Iterator[str]:
    """A list at ``depth`` from its items' text, in pieces that each lead
    with an item separator."""
    items = iter(items)
    first = next(items, None)
    if first is None:
        yield "[]"
        return
    yield "["
    yield first[1:]
    yield from items
    yield "\n" + _INDENT * depth + "]"


def _interval_items(intervals: Sequence[Interval | tuple[str, _Boxes]],
                    strata: _Strata, depth: int) -> Iterator[str]:
    """The items of a list of intervals at ``depth``: each an
    :class:`Interval` made by :mod:`pcause.bounds`, or (quantity, the
    conditional boxes of ``strata``) for one item per stratum."""
    depth += 1
    # every interval's two ends in one call: a call's fixed cost is that
    # of about five floats
    ends = iter(_floats(np.array(
        [(item.lower, item.upper) for item in intervals
         if isinstance(item, Interval)], np.float64).ravel()))
    for item in intervals:
        if isinstance(item, Interval):
            head, tail = _template("interval", depth, item.quantity,
                                   item.method).rsplit("%s", 1)
            yield head % (next(ends), next(ends))
            yield from _list(_attainment_items(item, strata, depth + 1),
                             depth + 1)
            yield tail % ()
            continue
        # a box row: a piece before each endpoint and the stratum, a tail
        quantity, boxes = item
        *heads, tail = _template("box", depth, quantity).split("%s", 3)
        first, second, third = (head % () for head in heads)
        tails, texts = _tails(tail, quantity), strata.at(depth + 3)
        for block in _blocks(len(texts)):
            yield "".join(chain.from_iterable(zip(
                repeat(first), _floats(boxes.lower[block]), repeat(second),
                _floats(boxes.upper[block]), repeat(third), texts[block],
                map(list.__getitem__, map(
                    tails.__getitem__, boxes.lower_term[block].tolist()),
                    boxes.upper_term[block].tolist()))))


def _tails(tail: str, quantity: str) -> list[list[str]]:
    """A row's ``tail`` from its lower term on, for each pair of terms."""
    lower, upper = map(_texts, _TERM_NAMES[quantity])
    return [[tail % (lo, up) for up in upper] for lo in lower]


def _attainment_items(interval: Interval, strata: _Strata,
                      depth: int) -> Iterator[str]:
    """The items of an interval's attainment at ``depth``, from the term
    indices it keeps (see :meth:`pcause.bounds.Interval._of`): each the
    row's head, its stratum and the tail of its two terms."""
    depth += 1
    head, tail = _template("term", depth).split("%s", 1)
    head = head % ()
    keys, lower_terms, upper_terms = interval._terms
    # a stratified interval keeps the joint's strata; a one-row box (the
    # pooled table's, a one-stratum joint's) keeps its own key
    texts = (strata if keys is strata.coded
             else _Strata(_Coded.of(keys))).at(depth + 1)
    tails = _tails(tail, interval.quantity)
    for block in _blocks(len(keys)):
        yield head + head.join(map(str.__add__, texts[block], map(
            list.__getitem__, map(tails.__getitem__, lower_terms[block]),
            upper_terms[block])))


def _entry_items(report: VerificationReport, strata: _Strata,
                 depth: int) -> Iterator[str]:
    """The items of the verification entries at ``depth``, from the
    report's arrays: the pieces of each row's template around its values,
    its two terms filled in with what lies between them and the next."""
    depth += 1
    pieces = [_template("entry", depth, q).split("%s") for q in QUANTITIES]
    # only the second piece and the tail name the quantity
    first, _, third, fourth, *_, eighth, ninth, last = (
        piece % () for piece in pieces[0])
    seconds = [piece[1] % () for piece in pieces]
    tails = [_tails("%s".join(ps[4:7]), q) for ps, q in zip(pieces, QUANTITIES)]
    outer, inner = strata.at(depth + 1), strata.at(depth + 4)
    for block in _blocks(len(strata.coded)):
        rows = slice(3 * block.start, 3 * block.stop)
        discrepancy = report.discrepancy[rows]
        # both routes' endpoints and the gaps, formatted in one call
        n = 2 * len(discrepancy)
        texts = _floats(np.concatenate((
            report._closed[rows].ravel(), report._searched[rows].ravel(),
            discrepancy)))
        terms = report._terms[rows].T.tolist()
        yield "".join(chain.from_iterable(zip(
            repeat(first), _thrice(outer[block]), cycle(seconds),
            texts[0:n:2], repeat(third), texts[1:n:2], repeat(fourth),
            _thrice(inner[block]), map(list.__getitem__, map(
                list.__getitem__, cycle(tails), terms[0]), terms[1]),
            texts[n:2 * n:2], repeat(eighth), texts[n + 1:2 * n:2],
            repeat(ninth), texts[2 * n:], repeat(last))))


def _thrice(items: Sequence[str]) -> Iterator[str]:
    return chain.from_iterable(zip(items, items, items))


def _risk_items(diag: MonotonicityReport, strata: _Strata,
                depth: int) -> Iterator[str]:
    """The items of the risk differences at ``depth``, row by row."""
    depth += 1
    risk, texts = _template("risk", depth), strata.at(depth + 1)
    values = _floats(np.array(diag._rds))
    for block in _blocks(len(values)):
        yield "".join(map(risk.__mod__, zip(texts[block], values[block])))


def _stratum_items(diag: MonotonicityReport, strata: _Strata,
                   depth: int) -> Iterator[str]:
    """The items of the flagged strata at ``depth``, by row."""
    depth += 1
    row, texts = _template("stratum", depth), strata.at(depth)
    for block in _blocks(len(diag._flagged)):
        yield "".join(map(row.__mod__, map(texts.__getitem__,
                                           diag._flagged[block])))


def _section(items: Callable[..., Iterator[str]], rows,
             strata: _Strata) -> Callable[[int], Iterator[str]]:
    """A streamed list section: its text at a depth, in pieces."""
    return lambda depth: _list(items(rows, strata, depth), depth)


def _write_report(path: str, report: dict) -> None:
    """Write the report to ``path``: its small sections as ``json.dumps``
    gives them and each streamed section (a :func:`_section`) at its
    marker, a block of strata at a time.  A failed write deletes what it
    wrote, unless ``path`` is not a regular file (a pipe or a terminal)."""
    sections = []

    def streamed(section: Callable[[int], Iterator[str]]) -> str:
        sections.append(section)  # in document order, as the markers
        return _SECTION

    text = json.dumps(report, indent=2, default=streamed)
    try:
        out = open(path, "w")
    except OSError as exc:
        raise PcauseError(f"cannot write report to {path}: {exc}")
    opened = os.fstat(out.fileno())
    try:
        with out:
            start = 0
            for section, marker in zip(sections, _MARKER.finditer(text)):
                out.write(text[start:marker.start(2)])
                for piece in section(len(marker[1]) // len(_INDENT)):
                    out.write(piece)
                start = marker.end(2)
            out.write(text[start:] + "\n")
    except BaseException as exc:
        if stat.S_ISREG(opened.st_mode):
            _discard(path, opened)
        if isinstance(exc, OSError):
            raise PcauseError(
                f"cannot write report to {path}: {exc}") from None
        raise


def _discard(path: str, opened: os.stat_result) -> None:
    """Delete the file at ``path``, through any symlinks, if it is still
    the one that was opened."""
    target = os.path.realpath(path)
    try:
        if os.path.samestat(os.stat(target), opened):
            os.unlink(target)
    except OSError:
        pass


def _estimate_json(est: Estimate) -> dict:
    return {
        "quantity": est.quantity,
        "value": est.value,
        "avar": est.avar,
        "se": est.se,
        "n": est.n,
        "stratifier": list(est.covariates),
        "warnings": list(est.warnings),
    }


def _load_table(args, stratifier: Sequence[str] | None = None):
    counts = load_counts(args.data)
    if stratifier is not None:
        counts = counts.collapse(stratifier)
    return to_probabilities(counts, smoothing=args.smoothing)


def _load_experimental(args, joint):
    if args.experimental:
        return load_experimental(args.experimental, joint)
    return adjusted_experimental(joint)


def _input_json(args, joint, experimental=None) -> dict:
    info = {
        "data": str(args.data),
        "covariates": list(joint.covariates),
        "n": joint.total_n,
        "strata": joint.n_strata,
        "smoothing": args.smoothing,
    }
    if experimental is not None:
        info["experimental"] = {
            "provenance": experimental.provenance,
            "source": getattr(args, "experimental", None) or "derived-from-data",
        }
    return info


def _strata_phrase(k: int) -> str:
    return "1 stratum" if k == 1 else f"{k} strata"


def _print_data_line(joint) -> None:
    by = ", ".join(joint.covariates) if joint.covariates else "(pooled)"
    print(f"n = {joint.total_n} subjects in {_strata_phrase(joint.n_strata)} by {by}")


# a handler's report and the failure to report after writing it
_Handled = tuple[dict, str | None]


def _cmd_bounds(args) -> _Handled:
    joint = _load_table(args)
    experimental = _load_experimental(args, joint)
    quantities = QUANTITIES if args.quantity == "all" else (args.quantity,)

    pooled = collapse(joint, ()).only()
    intervals = []
    labels = [f"     {name}  [" for name in joint._coded.names()]
    _print_data_line(joint)
    print(f"experimental input: {experimental.provenance}")
    rows = _conditional_rows(quantities, joint, experimental)
    for quantity, (n, boxes) in zip(quantities, rows):
        strat = stratified_interval(quantity, joint, experimental)
        pooled_iv = tian_pearl_interval(quantity, pooled, experimental.marginal)
        print(f"{quantity:<4} stratified  [{strat.lower:.3f}, {strat.upper:.3f}]")
        print(f"{quantity:<4} tian-pearl  [{pooled_iv.lower:.3f}, {pooled_iv.upper:.3f}]")
        if n < joint.n_strata:
            raise boxes
        intervals += [strat, pooled_iv, (quantity, boxes)]
        sys.stdout.write("".join(map("%s%s, %s]\n".__mod__, zip(
            labels, _three(boxes.lower), _three(boxes.upper)))))

    return _report("bounds", _input_json(args, joint, experimental),
                   intervals=_section(_interval_items, intervals,
                                      _Strata(joint._coded))), None


def _parse_stratifier(raw: str | None) -> tuple[str, ...] | None:
    if raw is None:
        return None
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _cmd_identify(args) -> _Handled:
    joint = _load_table(args, stratifier=_parse_stratifier(args.stratifier))
    experimental = adjusted_experimental(joint)
    diag = monotonicity_diagnostic(joint, experimental)
    pn, pns = diag.pn, diag.pns

    _print_data_line(joint)
    for est in (pn, pns):
        print(f"{est.quantity:<4} {est.value:.3f}  (se {est.se:.3f})")
    marks = [""] * joint.n_strata
    for k in diag._flagged:
        marks[k] = "  [negative]"
    sys.stdout.write("".join(map("  risk difference %s: %s%s\n".__mod__,
                                 zip(joint._coded.names(), _three(diag._rds),
                                     marks))))
    verdict = "plausible" if diag.plausible else "implausible"
    print(f"no-prevention assumption: {verdict} "
          f"({len(diag._flagged)} of {joint.n_strata} strata flagged)")
    warnings = tuple(dict.fromkeys(pn.warnings + pns.warnings))
    for w in warnings:
        print(f"warning: {w}")

    strata = _Strata(joint._coded)
    estimates = {
        "points": [_estimate_json(pn), _estimate_json(pns)],
        "monotonicity": {
            "risk_differences": _section(_risk_items, diag, strata),
            "flagged": _section(_stratum_items, diag, strata),
            "pn_consistent": diag.pn_consistent,
            "pns_consistent": diag.pns_consistent,
            "plausible": diag.plausible,
        },
    }
    intervals = _section(_interval_items,
                         [diag.pn_interval, diag.pns_interval], strata)
    return _report("identify", _input_json(args, joint, experimental),
                   intervals=intervals, estimates=estimates,
                   warnings=warnings), None


def _cmd_select(args) -> _Handled:
    joint = _load_table(args)
    report = compare_covariate_sets(joint, args.s, args.t, mode="count-test",
                                    alpha=args.alpha)

    _print_data_line(joint)
    print(f"{'stratifier':<12} {'pn_avar':>12} {'pns_avar':>12}")
    for cand in report.candidates:
        label = ",".join(cand.stratifier)
        print(f"{label:<12} {cand.pn.avar:>12.4g} {cand.pns.avar:>12.4g}")
    for verdict in report.premises:
        status = "holds" if verdict.holds else "fails"
        print(f"premise {verdict.relation.kind}: {status} "
              f"(G={verdict.statistic:.3g}, df={verdict.df}, "
              f"p={verdict.p_value:.3g})")
    if report.recommendation is not None:
        print(f"recommendation: stratify by {','.join(report.recommendation)}")
    else:
        print("recommendation: none")
    print(report.note)

    selection = {
        "candidates": [{"stratifier": list(c.stratifier),
                        "pn": _estimate_json(c.pn),
                        "pns": _estimate_json(c.pns)}
                       for c in report.candidates],
        "premises": [asdict(v) for v in report.premises],
        "orderings": [{
            "quantity": o.quantity,
            "lhs": list(o.lhs),
            "rhs": list(o.rhs),
            "lhs_avar": o.lhs_avar,
            "rhs_avar": o.rhs_avar,
            "guaranteed": o.guaranteed,
            "observed": o.observed,
        } for o in report.orderings],
        "recommendation": (list(report.recommendation)
                           if report.recommendation is not None else None),
        "note": report.note,
    }
    return _report("select", _input_json(args, joint),
                   selection=selection), None


def _cmd_simulate(args) -> _Handled:
    if args.setting is not None:
        scenario = builtin_scenarios()[args.setting - 1]
        source = "builtin"
    else:
        scenario = load_scenario(args.scenario)
        source = str(args.scenario)
    study = replicate_study(scenario, n=args.n, reps=args.reps, seed=args.seed)

    print(f"scenario {study.scenario}: n={study.n}, reps={study.reps}, "
          f"seed={study.seed}; discarded {study.discarded} of "
          f"{study.attempts} draws")
    print(f"{'quantity':<9} {'stratifier':<12} {'empirical_var':>14} "
          f"{'mean_avar':>12} {'population_avar':>16}")
    for res in study.results:
        label = ",".join(res.stratifier)
        print(f"{res.quantity:<9} {label:<12} {res.empirical_var:>14.4g} "
              f"{res.mean_avar:>12.4g} {res.population_avar:>16.4g}")

    inputs = {"scenario": study.scenario, "source": source, "n": study.n,
              "reps": study.reps, "seed": study.seed}
    simulation = {**inputs, "discarded": study.discarded,
                  "attempts": study.attempts, "results": [{
                      "quantity": r.quantity,
                      "stratifier": list(r.stratifier),
                      "empirical_var": r.empirical_var,
                      "mean_avar": r.mean_avar,
                      "population_avar": r.population_avar,
                  } for r in study.results]}
    return _report("simulate", inputs, simulation=simulation), None


def _cmd_verify(args) -> _Handled:
    joint = _load_table(args)
    experimental = _load_experimental(args, joint)
    report = verify_bounds(joint, experimental, tol=args.tol)
    checked = len(report.discrepancy)

    _print_data_line(joint)
    status = "PASS" if report.passed else "FAIL"
    print(f"checked {checked} boxes in "
          f"{_strata_phrase(joint.n_strata)}; max discrepancy "
          f"{report.max_discrepancy:.3g} (tolerance {report.tol:g}): {status}")
    sys.stdout.write("".join([
        f"  mismatch {entry.quantity} in {entry.stratum}: closed "
        f"[{entry.closed.lower:.6f}, {entry.closed.upper:.6f}] vs "
        f"searched [{entry.searched.lower:.6f}, {entry.searched.upper:.6f}]\n"
        for entry in report.failures]))

    verification = {
        "tol": report.tol,
        "max_discrepancy": report.max_discrepancy,
        "passed": report.passed,
        "entries": _section(_entry_items, report, _Strata(joint._coded)),
    }
    failure = None if report.passed else (
        f"verification failed: {len(report.failures)} of "
        f"{checked} boxes differ by more than {report.tol:g}")
    return _report("verify", _input_json(args, joint, experimental),
                   verification=verification), failure


def _checked(convert, accept, expected: str):
    """An argparse ``type`` that converts, then rejects values outside the
    accepted range as a usage error."""
    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {raw!r}")
        return value
    return parse


_seed = _checked(int, lambda v: v >= 0, "a nonnegative integer")
# numpy's multinomial draw takes the sample size as a C long
_sample_size = _checked(int, lambda v: 1 <= v <= 2**63 - 1,
                        "an integer from 1 to 2**63 - 1")
# a replication's number is one 32-bit word of its seed
_replications = _checked(int, lambda v: 2 <= v < 2**32,
                         "an integer >= 2 and < 2**32")
_tolerance = _checked(float, lambda v: math.isfinite(v) and v >= 0.0,
                      "a finite number >= 0")
_level = _checked(float, lambda v: 0.0 < v < 1.0,
                  "a number strictly between 0 and 1")


def _add_common(sub: argparse.ArgumentParser, smoothing: bool = True) -> None:
    sub.add_argument("--json", metavar="PATH",
                     help="write a machine-readable report here")
    if smoothing:
        sub.add_argument("--smoothing", choices=["none", "add-half"],
                         default="none",
                         help="cell smoothing applied before analysis")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcause",
        description="Bounds and point estimates for probabilities of "
                    "causation from stratified contingency data.")
    parser.add_argument("--version", action="version",
                        version=f"pcause {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="interval bounds from a counts CSV")
    b.add_argument("--data", required=True, help="counts CSV")
    b.add_argument("--experimental", metavar="JSON",
                   help="measured interventional pairs; default derives them "
                        "from the data")
    b.add_argument("--quantity", choices=["PN", "PS", "PNS", "all"],
                   default="all")
    _add_common(b)

    i = sub.add_parser("identify",
                       help="point estimates under the no-prevention assumption")
    i.add_argument("--data", required=True, help="counts CSV")
    i.add_argument("--stratifier", metavar="NAMES",
                   help="comma-separated covariates to keep (default: all)")
    _add_common(i)

    s = sub.add_parser("select", help="compare candidate stratifiers")
    s.add_argument("--data", required=True, help="counts CSV over two covariates")
    s.add_argument("--s", required=True, metavar="NAME",
                   help="covariate hypothesized to carry the outcome signal")
    s.add_argument("--t", required=True, metavar="NAME",
                   help="covariate hypothesized to carry only assignment signal")
    s.add_argument("--alpha", type=_level, default=0.05,
                   help="significance level for the premise tests")
    _add_common(s)

    m = sub.add_parser("simulate", help="replication study on a scenario")
    which = m.add_mutually_exclusive_group(required=True)
    which.add_argument("--setting", type=int, choices=[1, 2, 3, 4],
                       help="built-in scenario number")
    which.add_argument("--scenario", metavar="JSON", help="scenario file")
    m.add_argument("--n", type=_sample_size, required=True,
                   help="sample size per draw (1 to 2**63 - 1)")
    m.add_argument("--reps", type=_replications, required=True,
                   help="number of replications (2 to 2**32 - 1)")
    m.add_argument("--seed", type=_seed, required=True,
                   help="stream seed (a nonnegative integer)")
    _add_common(m, smoothing=False)

    v = sub.add_parser("verify",
                       help="check closed-form boxes against direct search")
    v.add_argument("--data", required=True, help="counts CSV")
    v.add_argument("--experimental", metavar="JSON")
    v.add_argument("--tol", type=_tolerance, default=2e-3,
                   help="largest acceptable discrepancy (finite, >= 0)")
    _add_common(v)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    thresholds = gc.get_threshold()
    gc.set_threshold(_GC_THRESHOLD0, *thresholds[1:])
    try:
        return _run(argv)
    finally:
        gc.set_threshold(*thresholds)


# one parser per process, built on the first run; each run looks its
# handler up by name, so a patched ``_cmd_*`` takes effect
_parser = lru_cache(maxsize=1)(build_parser)


def _run(argv: Sequence[str] | None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        report, failure = globals()[f"_cmd_{args.command}"](args)
        if args.json:
            _write_report(args.json, report)
        if failure is not None:
            raise PcauseError(failure)
    except PcauseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a buffered pipe fails here
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
