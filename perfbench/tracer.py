"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of each ``pcause`` module by replacing
every binding of them: module attributes (including names re-exported by
other modules) and values in module-level dicts such as
``pcause.cli._CONDITIONAL_BOXES``.  ``json.dumps`` is wrapped as it is
reached through ``pcause.cli.json``.  Nothing under ``src/`` changes.

Spans stay in memory, as compact arrays, until the run ends.  A layer's self
time is its span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (layer, module, function).  Several functions may share one layer.  Each
# group names the subcommand latencies (``<command>_s``, and with them
# ``pass_s``) a change to the layer should move, and the workload where it
# should.  replication is the control: only identify and simulate move there.
TARGETS = (
    # self time of the CLI (parsing, printing, report assembly): bounds_s,
    # verify_s and pass_s on strata-wide and fixture-burst
    ("cli.run", "pcause.cli", "run"),
    # ingest and tables: all four table analyses on strata-wide, collapse
    # three times per select
    ("model.load_counts", "pcause.model", "load_counts"),
    ("model.to_probabilities", "pcause.model", "to_probabilities"),
    ("model.collapse", "pcause.model", "collapse"),
    ("model.adjusted_experimental", "pcause.model", "adjusted_experimental"),
    ("model.load_experimental", "pcause.model", "load_experimental"),
    ("model.validate_compatibility", "pcause.model", "validate_compatibility"),
    # bounds_s, verify_s and identify_s on strata-wide and fixture-burst
    ("bounds.stratified_interval", "pcause.bounds", "stratified_interval"),
    ("bounds.tian_pearl_interval", "pcause.bounds", "tian_pearl_interval"),
    ("bounds.conditional", "pcause.bounds", "pn_interval_conditional"),
    ("bounds.conditional", "pcause.bounds", "ps_interval_conditional"),
    ("bounds.conditional", "pcause.bounds", "pns_interval_conditional"),
    # simulate_s on replication; little of strata-wide
    ("identify.pn_point", "pcause.identify", "pn_point"),
    ("identify.pns_point", "pcause.identify", "pns_point"),
    ("identify.monotonicity_diagnostic", "pcause.identify",
     "monotonicity_diagnostic"),
    # select_s on strata-wide
    ("covselect.compare_covariate_sets", "pcause.covselect",
     "compare_covariate_sets"),
    ("covselect.ci_check", "pcause.covselect", "ci_check"),
    # verify_s on strata-wide
    ("oracle.verify_bounds", "pcause.oracle", "verify_bounds"),
    ("oracle.feasible_extrema", "pcause.oracle", "feasible_extrema"),
    # simulate_s on replication only
    ("simulate.replicate_study", "pcause.simulate", "replicate_study"),
)
# json.dumps as reached through pcause.cli.json: bounds_s, verify_s and
# pass_s on strata-wide and fixture-burst.
ENCODE = "cli.encode"
LAYERS = tuple(dict.fromkeys([layer for layer, _, _ in TARGETS] + [ENCODE]))


class _JsonProxy:
    """Stands in for the ``json`` module inside ``pcause.cli``."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self) -> None:
        self._layer = array("b")
        self._parent = array("q")
        self._request = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []
        self.request = 0
        self.absent: set[str] = set()

    def _wrap(self, layer: str, fn):
        layer_id = LAYERS.index(layer)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self._start)
            self._layer.append(layer_id)
            self._parent.append(stack[-1] if stack else -1)
            self._request.append(self.request)
            self._end.append(0.0)
            stack.append(index)
            self._start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self._end[index] = perf_counter()
                stack.pop()
        return traced

    def _patch(self, container, key, value, is_attr: bool) -> None:
        if is_attr:
            self._undo.append((container, key, getattr(container, key), True))
            setattr(container, key, value)
        else:
            self._undo.append((container, key, container[key], False))
            container[key] = value

    def install(self) -> None:
        """Replace every binding of every target across ``pcause.*``."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "pcause" or name.startswith("pcause.")]
        for layer, module, name in TARGETS:
            original = getattr(sys.modules.get(module), name, None)
            if original is None:
                self.absent.add(f"{module}.{name}")
                continue
            traced = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, traced, True)
                    elif isinstance(value, dict) and not attr.startswith("__"):
                        for key, item in list(value.items()):
                            if item is original:
                                self._patch(value, key, traced, False)
        cli = sys.modules.get("pcause.cli")
        if getattr(cli, "json", None) is json:
            self._patch(cli, "json", _JsonProxy(self._wrap(ENCODE, json.dumps)),
                        True)
        else:
            self.absent.add("pcause.cli.json")

    def uninstall(self) -> None:
        while self._undo:
            container, key, original, is_attr = self._undo.pop()
            if is_attr:
                setattr(container, key, original)
            else:
                container[key] = original

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(self seconds, calls) per entry of ``LAYERS``."""
        start = np.frombuffer(self._start, dtype=np.float64)
        duration = np.frombuffer(self._end, dtype=np.float64) - start
        parent = np.frombuffer(self._parent, dtype=np.int64)
        layer = np.frombuffer(self._layer, dtype=np.int8).astype(np.int64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=len(duration))
        own = duration - children
        return (np.bincount(layer, weights=own, minlength=len(LAYERS)),
                np.bincount(layer, minlength=len(LAYERS)))

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON lines: request, layer, parent span
        index (-1 for a root), start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for i in range(len(self._start)):
                out.write(json.dumps([self._request[i], LAYERS[self._layer[i]],
                                      self._parent[i], self._start[i],
                                      self._end[i]]) + "\n")
