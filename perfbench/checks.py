"""Output checks applied to every timed invocation.

An invocation fails on a non-zero exit code or on any problem found here;
failures feed ``failed`` and ``error_rate``.
"""

from __future__ import annotations

REPORT_KEYS = ["metadata", "input", "intervals", "estimates", "selection",
               "verification", "simulation", "warnings"]

# Acceptance criterion 1: the cancer fixture's stratified and pooled
# endpoints, (quantity, method) -> (lower, upper).
CANCER_ENDPOINTS = {
    ("PN", "stratified"): (0.000, 0.778),
    ("PN", "tian-pearl"): (0.000, 1.000),
    ("PNS", "stratified"): (0.000, 0.168),
    ("PNS", "tian-pearl"): (0.000, 0.237),
}
ENDPOINT_TOL = 1e-3

# Float slack when checking that a stratified interval nests in Tian-Pearl.
NEST_TOL = 1e-9

MAX_DISCARD_RATE = 0.10
VAR_RATIO = (0.9, 1.1)
SIMULATION_ROWS = 6


def _nesting(report: dict) -> list[str]:
    intervals = report["intervals"] or []
    pooled = {iv["quantity"]: iv for iv in intervals
              if iv["method"] == "tian-pearl"}
    problems = []
    for iv in intervals:
        if iv["method"] != "stratified":
            continue
        tp = pooled.get(iv["quantity"])
        if tp is None:
            problems.append(f"{iv['quantity']}: no tian-pearl interval")
        elif (iv["lower"] < tp["lower"] - NEST_TOL
              or iv["upper"] > tp["upper"] + NEST_TOL):
            problems.append(
                f"{iv['quantity']}: stratified [{iv['lower']}, {iv['upper']}] "
                f"outside tian-pearl [{tp['lower']}, {tp['upper']}]")
    return problems


def _cancer_endpoints(report: dict) -> list[str]:
    got = {(iv["quantity"], iv["method"]): (iv["lower"], iv["upper"])
           for iv in report["intervals"] or []
           if (iv["quantity"], iv["method"]) in CANCER_ENDPOINTS}
    problems = []
    for key, want in CANCER_ENDPOINTS.items():
        have = got.get(key)
        if have is None or any(abs(h - w) > ENDPOINT_TOL
                               for h, w in zip(have, want)):
            problems.append(f"cancer fixture {key}: {have} != {want}")
    return problems


def _simulation(report: dict) -> list[str]:
    sim = report["simulation"] or {}
    problems = []
    attempts = sim.get("attempts") or 0
    if attempts <= 0 or sim["discarded"] / attempts > MAX_DISCARD_RATE:
        problems.append(f"discarded {sim.get('discarded')} of {attempts} draws")
    rows = sim.get("results") or []
    if len(rows) != SIMULATION_ROWS:
        problems.append(f"{len(rows)} result rows, want {SIMULATION_ROWS}")
    for row in rows:
        ratio = row["empirical_var"] / row["population_avar"]
        if not VAR_RATIO[0] <= ratio <= VAR_RATIO[1]:
            problems.append(f"{row['quantity']} by {row['stratifier']}: "
                            f"empirical/population variance {ratio:.3f}")
    return problems


def check_report(command: str, report: dict, fixture: bool = False) -> list[str]:
    """Problems with one parsed ``--json`` report; empty means it passed."""
    if list(report) != REPORT_KEYS:
        return [f"top-level keys {list(report)}"]
    problems = []
    if report["metadata"].get("command") != command:
        problems.append(f"metadata command {report['metadata'].get('command')}")
    if command == "bounds":
        problems += _nesting(report)
        if fixture:
            problems += _cancer_endpoints(report)
    elif command == "verify":
        if report["verification"].get("passed") is not True:
            problems.append("verification did not pass")
    elif command == "simulate":
        problems += _simulation(report)
    return problems
