"""Command line interface.

Five subcommands cover the library surface:

* ``bounds``    interval bounds from a counts CSV (stratified, pooled and
                per-stratum)
* ``identify``  point estimates assuming exposure never prevents the event
* ``select``    compare candidate covariate sets by asymptotic variance
* ``simulate``  replication study on a built-in or custom scenario
* ``verify``    check the closed-form boxes against the response-type search

Exit codes: 0 success, 1 analysis error or a failed verification, 2 usage
error.  ``--json PATH`` writes a machine-readable report with a fixed
schema; unused sections are null, and reruns on identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from . import __version__
from .bounds import (
    Interval,
    conditional_boxes,
    stratified_interval,
    tian_pearl_interval,
)
from .covselect import CIVerdict, compare_covariate_sets
from .errors import PcauseError
from .identify import Estimate, monotonicity_diagnostic
from .model import (
    StratumKey,
    adjusted_experimental,
    collapse,
    load_counts,
    load_experimental,
    to_probabilities,
)
from .oracle import verify_bounds
from .simulate import builtin_scenarios, load_scenario, replicate_study

# Generation-0 collection threshold for the length of one invocation.  A
# table analysis allocates hundreds of thousands of acyclic objects that live
# until the report is written; at the default threshold (700) the cycle
# collector sweeps them about a thousand times per 10^4-stratum run.
_GC_THRESHOLD0 = 100_000

# json's spellings of the floats whose repr is not JSON
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _Unsupported(Exception):
    """A value the report writer leaves to json's own encoder."""


class _ReportEncoder(json.JSONEncoder):
    """``json.JSONEncoder`` that writes indented text in one recursive walk.

    With an indent, CPython's ``json`` falls back to its pure-Python encoder,
    one generator per container; a 10^4-stratum report holds about 10^6
    values.  This walk writes the same text for the exact builtin types
    (dict with str keys, list, str, float, int, bool, None).  The text in
    front of each dict member (separator, newline, indent, key and colon) is
    built once per key, depth and first-or-later position, and each string's
    encoding once per value, so a member costs two list appends and repeated
    pieces share one object.  Any other value, such as a float subclass, a
    tuple or a non-str key, and any option the walk does not implement, goes
    to ``json``'s own encoder, so the text or the error is json's.
    """

    def iterencode(self, o, _one_shot=False):
        if (self.indent is None or self.sort_keys or not self.ensure_ascii
                or not self.allow_nan):
            return super().iterencode(o, _one_shot)
        indent = (self.indent if isinstance(self.indent, str)
                  else " " * self.indent)
        item_sep, key_sep = self.item_separator, self.key_separator
        encode_str, float_repr, int_repr = (encode_basestring_ascii,
                                            float.__repr__, int.__repr__)
        chunks: list[str] = []
        append = chunks.append
        strings: dict[str, str] = {}
        # levels[d] serves the members at depth d: newline and indent, the
        # first and later list item prefixes, the first and later dict member
        # prefixes by key, and the closers of the dict or list at depth d - 1
        levels: list = [None]

        def walk(o, depth):
            t = type(o)
            if t is str:
                text = strings.get(o)
                if text is None:
                    text = strings[o] = encode_str(o)
                append(text)
            elif t is float:
                text = float_repr(o)
                append(_NONFINITE.get(text, text))
            elif t is int:
                append(int_repr(o))
            elif o is None:
                append("null")
            elif o is True:
                append("true")
            elif o is False:
                append("false")
            elif t is dict or t is list:
                if not o:
                    append("{}" if t is dict else "[]")
                    return
                depth += 1
                if depth == len(levels):
                    newline = "\n" + indent * depth
                    outer = "\n" + indent * (depth - 1)
                    levels.append((newline, "[" + newline, item_sep + newline,
                                   {}, {}, outer + "}", outer + "]"))
                level = levels[depth]
                if t is dict:
                    firsts = prefixes = level[3]
                    for key, value in o.items():
                        prefix = prefixes.get(key)
                        if prefix is None:
                            if type(key) is not str:
                                raise _Unsupported
                            prefix = prefixes[key] = (
                                ("{" if prefixes is firsts else item_sep)
                                + level[0] + encode_str(key) + key_sep)
                        append(prefix)
                        prefixes = level[4]
                        walk(value, depth)
                    append(level[5])
                else:
                    prefix = level[1]
                    for value in o:
                        append(prefix)
                        prefix = level[2]
                        walk(value, depth)
                    append(level[6])
            else:
                raise _Unsupported

        try:
            walk(o, 0)
        except (_Unsupported, RecursionError):
            # RecursionError: a cycle or a very deep tree, where json raises
            # its own error
            return super().iterencode(o, _one_shot)
        finally:
            del walk  # the closure refers to itself; free the chunks at once
        return chunks


def _report(command: str, input: dict, *, intervals: list | None = None,
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


def _key_json(key: StratumKey) -> dict:
    return {name: value for name, value in key.labels}


def _interval_json(iv: Interval) -> dict:
    return {
        "quantity": iv.quantity,
        "method": iv.method,
        "lower": iv.lower,
        "upper": iv.upper,
        "attainment": [{"stratum": _key_json(c.stratum),
                        "lower_term": c.lower,
                        "upper_term": c.upper} for c in iv.attainment],
    }


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


def _verdict_json(v: CIVerdict) -> dict:
    return {
        "relation": {"kind": v.relation.kind, "s": v.relation.s,
                     "t": v.relation.t},
        "mode": v.mode,
        "holds": v.holds,
        "threshold": v.threshold,
        "max_deviation": v.max_deviation,
        "statistic": v.statistic,
        "df": v.df,
        "p_value": v.p_value,
    }


def _load_table(args, stratifier: Sequence[str] | None = None):
    counts = load_counts(args.data)
    if stratifier is not None:
        counts = counts.collapse(stratifier)
    return to_probabilities(counts, smoothing=args.smoothing)


def _load_experimental(args, joint):
    if getattr(args, "experimental", None):
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


def _cmd_bounds(args) -> tuple[dict, str | None]:
    joint = _load_table(args)
    experimental = _load_experimental(args, joint)
    quantities = ("PN", "PS", "PNS") if args.quantity == "all" else (args.quantity,)

    pooled = collapse(joint, ()).only()
    intervals = []
    _print_data_line(joint)
    print(f"experimental input: {experimental.provenance}")
    for quantity in quantities:
        strat = stratified_interval(quantity, joint, experimental)
        pooled_iv = tian_pearl_interval(quantity, pooled, experimental.marginal)
        intervals.extend([strat, pooled_iv])
        print(f"{quantity:<4} stratified  [{strat.lower:.3f}, {strat.upper:.3f}]")
        print(f"{quantity:<4} tian-pearl  [{pooled_iv.lower:.3f}, {pooled_iv.upper:.3f}]")
        boxes = conditional_boxes(quantity, joint, experimental)
        intervals.extend(boxes)
        for key, box in zip(joint.keys(), boxes):
            print(f"     {key}  [{box.lower:.3f}, {box.upper:.3f}]")

    return _report("bounds", _input_json(args, joint, experimental),
                   intervals=[_interval_json(iv) for iv in intervals]), None


def _parse_stratifier(raw: str | None) -> tuple[str, ...] | None:
    if raw is None:
        return None
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _cmd_identify(args) -> tuple[dict, str | None]:
    joint = _load_table(args, stratifier=_parse_stratifier(args.stratifier))
    experimental = adjusted_experimental(joint)
    diag = monotonicity_diagnostic(joint, experimental)
    pn, pns = diag.pn, diag.pns

    _print_data_line(joint)
    for est in (pn, pns):
        print(f"{est.quantity:<4} {est.value:.3f}  (se {est.se:.3f})")
    flagged = set(diag.flagged)
    for key, rd in diag.risk_differences:
        mark = "  [negative]" if key in flagged else ""
        print(f"  risk difference {key}: {rd:.3f}{mark}")
    verdict = "plausible" if diag.plausible else "implausible"
    print(f"no-prevention assumption: {verdict} "
          f"({len(diag.flagged)} of {joint.n_strata} strata flagged)")
    warnings = tuple(dict.fromkeys(pn.warnings + pns.warnings))
    for w in warnings:
        print(f"warning: {w}")

    estimates = {
        "points": [_estimate_json(pn), _estimate_json(pns)],
        "monotonicity": {
            "risk_differences": [{"stratum": _key_json(k), "value": rd}
                                 for k, rd in diag.risk_differences],
            "flagged": [_key_json(k) for k in diag.flagged],
            "pn_consistent": diag.pn_consistent,
            "pns_consistent": diag.pns_consistent,
            "plausible": diag.plausible,
        },
    }
    return _report("identify", _input_json(args, joint, experimental),
                   intervals=[_interval_json(diag.pn_interval),
                              _interval_json(diag.pns_interval)],
                   estimates=estimates, warnings=warnings), None


def _cmd_select(args) -> tuple[dict, str | None]:
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
        "premises": [_verdict_json(v) for v in report.premises],
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


def _cmd_simulate(args) -> tuple[dict, str | None]:
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

    simulation = {
        "scenario": study.scenario,
        "source": source,
        "n": study.n,
        "reps": study.reps,
        "seed": study.seed,
        "discarded": study.discarded,
        "attempts": study.attempts,
        "results": [{
            "quantity": r.quantity,
            "stratifier": list(r.stratifier),
            "empirical_var": r.empirical_var,
            "mean_avar": r.mean_avar,
            "population_avar": r.population_avar,
        } for r in study.results],
    }
    inputs = {"scenario": study.scenario, "source": source, "n": study.n,
              "reps": study.reps, "seed": study.seed}
    return _report("simulate", inputs, simulation=simulation), None


def _cmd_verify(args) -> tuple[dict, str | None]:
    joint = _load_table(args)
    experimental = _load_experimental(args, joint)
    report = verify_bounds(joint, experimental, tol=args.tol)

    _print_data_line(joint)
    status = "PASS" if report.passed else "FAIL"
    print(f"checked {len(report.entries)} boxes in "
          f"{_strata_phrase(joint.n_strata)}; max discrepancy "
          f"{report.max_discrepancy:.3g} (tolerance {report.tol:g}): {status}")
    for entry in report.failures:
        print(f"  mismatch {entry.quantity} in {entry.stratum}: closed "
              f"[{entry.closed.lower:.6f}, {entry.closed.upper:.6f}] vs "
              f"searched [{entry.searched.lower:.6f}, {entry.searched.upper:.6f}]")

    verification = {
        "tol": report.tol,
        "max_discrepancy": report.max_discrepancy,
        "passed": report.passed,
        "entries": [{
            "stratum": _key_json(e.stratum),
            "quantity": e.quantity,
            "closed": _interval_json(e.closed),
            "searched": _interval_json(e.searched),
            "discrepancy": e.discrepancy,
        } for e in report.entries],
    }
    failure = None if report.passed else (
        f"verification failed: {len(report.failures)} of "
        f"{len(report.entries)} boxes differ by more than {report.tol:g}")
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
_replications = _checked(int, lambda v: v >= 2, "an integer >= 2")
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
    b.set_defaults(handler=_cmd_bounds)

    i = sub.add_parser("identify",
                       help="point estimates under the no-prevention assumption")
    i.add_argument("--data", required=True, help="counts CSV")
    i.add_argument("--stratifier", metavar="NAMES",
                   help="comma-separated covariates to keep (default: all)")
    _add_common(i)
    i.set_defaults(handler=_cmd_identify)

    s = sub.add_parser("select", help="compare candidate stratifiers")
    s.add_argument("--data", required=True, help="counts CSV over two covariates")
    s.add_argument("--s", required=True, metavar="NAME",
                   help="covariate hypothesized to carry the outcome signal")
    s.add_argument("--t", required=True, metavar="NAME",
                   help="covariate hypothesized to carry only assignment signal")
    s.add_argument("--alpha", type=_level, default=0.05,
                   help="significance level for the premise tests")
    _add_common(s)
    s.set_defaults(handler=_cmd_select)

    m = sub.add_parser("simulate", help="replication study on a scenario")
    which = m.add_mutually_exclusive_group(required=True)
    which.add_argument("--setting", type=int, choices=[1, 2, 3, 4],
                       help="built-in scenario number")
    which.add_argument("--scenario", metavar="JSON", help="scenario file")
    m.add_argument("--n", type=_sample_size, required=True,
                   help="sample size per draw (1 to 2**63 - 1)")
    m.add_argument("--reps", type=_replications, required=True,
                   help="number of replications (at least 2)")
    m.add_argument("--seed", type=_seed, required=True,
                   help="stream seed (a nonnegative integer)")
    _add_common(m, smoothing=False)
    m.set_defaults(handler=_cmd_simulate)

    v = sub.add_parser("verify",
                       help="check closed-form boxes against direct search")
    v.add_argument("--data", required=True, help="counts CSV")
    v.add_argument("--experimental", metavar="JSON")
    v.add_argument("--tol", type=_tolerance, default=2e-3,
                   help="largest acceptable discrepancy (finite, >= 0)")
    _add_common(v)
    v.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    thresholds = gc.get_threshold()
    gc.set_threshold(_GC_THRESHOLD0, *thresholds[1:])
    try:
        return _run(argv)
    finally:
        gc.set_threshold(*thresholds)


def _run(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        report, failure = args.handler(args)
        if getattr(args, "json", None):
            payload = json.dumps(report, indent=2, cls=_ReportEncoder) + "\n"
            try:
                Path(args.json).write_text(payload)
            except OSError as exc:
                raise PcauseError(f"cannot write report to {args.json}: {exc}")
        if failure is not None:
            raise PcauseError(failure)
    except PcauseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
