"""Release gate: nine numbered checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each check prints ``criterion N: PASS/FAIL (detail)`` before asserting, so
a failing run still reports every criterion it reached.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import pcause as pc
import pcause.bounds
from pcause.cli import run
from pcause.identify import pns_point
from pcause.model import collapse
from pcause.oracle import feasible_extrema
from pcause.simulate import builtin_scenarios, replicate_study

from conftest import random_ci_joint, random_instance, \
    random_monotone_stratum, random_pair, random_stratum, \
    reference_from_per_stratum, swapped

# reference asymptotic variances: setting -> quantity -> n -> (S, T, {S,T})
AVAR_TABLE = {
    "setting-1": {
        "PN": {500: (0.0068, 0.0120, 0.0106), 1000: (0.0034, 0.0060, 0.0053),
               1500: (0.0023, 0.0040, 0.0035), 2000: (0.0017, 0.0030, 0.0026)},
        "PNS": {500: (0.0018, 0.0028, 0.0025), 1000: (0.0009, 0.0014, 0.0012),
                1500: (0.0006, 0.0009, 0.0008), 2000: (0.0005, 0.0007, 0.0006)},
    },
    "setting-2": {
        "PN": {500: (0.0078, 0.0088, 0.0078), 1000: (0.0039, 0.0044, 0.0039),
               1500: (0.0026, 0.0029, 0.0026), 2000: (0.0019, 0.0022, 0.0020)},
        "PNS": {500: (0.0017, 0.0019, 0.0017), 1000: (0.0008, 0.0009, 0.0008),
                1500: (0.0006, 0.0006, 0.0006), 2000: (0.0004, 0.0005, 0.0004)},
    },
    "setting-3": {
        "PN": {500: (0.0083, 0.0189, 0.0158), 1000: (0.0042, 0.0094, 0.0079),
               1500: (0.0028, 0.0063, 0.0053), 2000: (0.0021, 0.0047, 0.0039)},
        "PNS": {500: (0.0017, 0.0031, 0.0026), 1000: (0.0008, 0.0015, 0.0013),
                1500: (0.0006, 0.0010, 0.0009), 2000: (0.0004, 0.0008, 0.0006)},
    },
    "setting-4": {
        "PN": {500: (0.0093, 0.0111, 0.0094), 1000: (0.0046, 0.0056, 0.0047),
               1500: (0.0031, 0.0037, 0.0031), 2000: (0.0023, 0.0028, 0.0023)},
        "PNS": {500: (0.0017, 0.0020, 0.0017), 1000: (0.0008, 0.0010, 0.0008),
                1500: (0.0006, 0.0007, 0.0006), 2000: (0.0004, 0.0005, 0.0004)},
    },
}

# reference Monte Carlo variances at n = 1000: setting -> quantity -> (S, T, {S,T})
MC_VAR_TABLE = {
    "setting-1": {"PN": (0.0035, 0.0061, 0.0054),
                  "PNS": (0.0009, 0.0014, 0.0012)},
    "setting-2": {"PN": (0.0039, 0.0044, 0.0039),
                  "PNS": (0.0008, 0.0009, 0.0008)},
    "setting-3": {"PN": (0.0043, 0.0095, 0.0081),
                  "PNS": (0.0008, 0.0015, 0.0013)},
    "setting-4": {"PN": (0.0048, 0.0056, 0.0049),
                  "PNS": (0.0009, 0.0010, 0.0009)},
}

STRATIFIERS = (("s",), ("t",), ("s", "t"))
MC_SEED = 7  # any fixed seed must work; this one is the documented default


def _verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} ({detail})", flush=True)
    assert ok, f"criterion {number}: {detail}"


def _close(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


def test_criterion_1_stratified_and_pooled_bounds(cancer_joint,
                                                  cancer_experimental):
    t0 = time.perf_counter()
    pooled = collapse(cancer_joint, ()).only()
    got = {
        ("PN", "stratified"): pc.stratified_interval("PN", cancer_joint,
                                                     cancer_experimental),
        ("PN", "pooled"): pc.tian_pearl_interval("PN", pooled,
                                                 cancer_experimental.marginal),
        ("PNS", "stratified"): pc.stratified_interval("PNS", cancer_joint,
                                                      cancer_experimental),
        ("PNS", "pooled"): pc.tian_pearl_interval("PNS", pooled,
                                                  cancer_experimental.marginal),
    }
    want = {
        ("PN", "stratified"): (0.000, 0.778),
        ("PN", "pooled"): (0.000, 1.000),
        ("PNS", "stratified"): (0.000, 0.168),
        ("PNS", "pooled"): (0.000, 0.237),
    }
    elapsed = time.perf_counter() - t0
    misses = [k for k, (lo, hi) in want.items()
              if not (_close(got[k].lower, lo, 1e-3)
                      and _close(got[k].upper, hi, 1e-3))]
    ok = not misses and elapsed < 1.0
    _verdict(1, ok, f"8 endpoints within 0.001, {elapsed:.2f}s"
             if ok else f"misses={misses}, {elapsed:.2f}s")


def test_criterion_2_sign_structure(cancer_joint, cancer_experimental):
    want_rd = (-0.076, -0.179, -0.257)
    want_gap = (-0.742, -0.361, 0.457)
    rds = []
    gaps = []
    for _, t in cancer_joint.items():
        rds.append(t.risk_exposed - t.risk_unexposed)
        # P(y | x, s) - P(y' | x', s)
        gaps.append(t.risk_exposed - (1.0 - t.risk_unexposed))
    values_ok = all(_close(a, b, 1e-3) for a, b in zip(rds, want_rd)) and \
        all(_close(a, b, 1e-3) for a, b in zip(gaps, want_gap))

    strat = pc.stratified_interval("PN", cancer_joint, cancer_experimental)
    pooled = collapse(cancer_joint, ()).only()
    tp = pc.tian_pearl_interval("PN", pooled, cancer_experimental.marginal)
    terms = [c.upper for c in strat.attainment]
    # the last stratum flips the exposed risk above the unexposed one, its
    # active upper term switches, and the stratified bound drops below 1
    structure_ok = terms == ["cell", "cell", "margin"] and \
        strat.upper < tp.upper - 0.1

    ok = values_ok and structure_ok
    _verdict(2, ok, f"risk differences {[round(v, 3) for v in rds]}, "
                    f"upper terms {terms}, stratified {strat.upper:.3f} < "
                    f"pooled {tp.upper:.3f}")


def test_criterion_3_asymptotic_variance_table():
    t0 = time.perf_counter()
    worst = 0.0
    misses = []
    for scenario in builtin_scenarios():
        for strat_i, strat in enumerate(STRATIFIERS):
            for n in (500, 1000, 1500, 2000):
                joint = scenario.population_joint(strat, n=n)
                got = {"PN": pc.pn_point(joint).avar,
                       "PNS": pns_point(joint).avar}
                for quantity in ("PN", "PNS"):
                    target = AVAR_TABLE[scenario.name][quantity][n][strat_i]
                    dev = abs(got[quantity] - target)
                    worst = max(worst, dev)
                    if dev > 1e-4:
                        misses.append((scenario.name, quantity, n, strat))
    elapsed = time.perf_counter() - t0
    ok = not misses and elapsed < 1.0
    _verdict(3, ok, f"96 cells, worst deviation {worst:.2g}, {elapsed:.2f}s"
             if ok else f"misses={misses[:4]}..., {elapsed:.2f}s")


def test_criterion_4_monte_carlo_variances():
    t0 = time.perf_counter()
    cols = {("s",): 0, ("t",): 1, ("s", "t"): 2}
    worst = 0.0
    misses = []
    for scenario in builtin_scenarios():
        study = replicate_study(scenario, n=1000, reps=5000, seed=MC_SEED)
        for r in study.results:
            target = MC_VAR_TABLE[scenario.name][r.quantity][cols[r.stratifier]]
            rel = abs(r.empirical_var - target) / target
            worst = max(worst, rel)
            if rel > 0.10:
                misses.append((scenario.name, r.quantity, r.stratifier, rel))
    elapsed = time.perf_counter() - t0
    ok = not misses and elapsed < 300.0
    _verdict(4, ok, f"24 cells at reps=5000 seed={MC_SEED}, worst relative "
                    f"deviation {worst:.1%}, {elapsed:.1f}s"
             if ok else f"misses={misses}, {elapsed:.1f}s")


def test_criterion_5_variance_orderings():
    slack = 1e-12
    checked = 0
    bad = 0
    for scenario in builtin_scenarios():
        for n in (500, 1000, 1500, 2000):
            joints = {strat: scenario.population_joint(strat, n=n)
                      for strat in STRATIFIERS}
            for point in (pc.pn_point, pns_point):
                a = {strat: point(joint).avar
                     for strat, joint in joints.items()}
                checked += 1
                if not (a[("s",)] <= a[("s", "t")] + slack
                        <= a[("t",)] + 2 * slack):
                    bad += 1
    rng = np.random.default_rng(505)
    for _ in range(100):
        joint = replace(random_ci_joint(rng), total_n=1000)
        for point in (pc.pn_point, pns_point):
            a = {strat: point(collapse(joint, strat)).avar
                 for strat in STRATIFIERS}
            checked += 1
            if not (a[("s",)] <= a[("s", "t")] + slack
                    <= a[("t",)] + 2 * slack):
                bad += 1
    ok = bad == 0
    _verdict(5, ok, f"{checked} ordering checks "
                    f"(96 table cells + 100 random joints), {bad} violations")


def test_criterion_6_oracle_agreement(cancer_joint, cancer_experimental,
                                      monkeypatch):
    boxes = {"PN": pc.pn_interval_conditional,
             "PS": pc.ps_interval_conditional,
             "PNS": pc.pns_interval_conditional}
    worst = 0.0
    rng = np.random.default_rng(606)
    cases = [(t, random_pair(rng, t))
             for t in (random_stratum(rng) for _ in range(200))]
    cases.extend((table, cancer_experimental.per_stratum[key])
                 for key, table in cancer_joint.items())
    for table, pair in cases:
        for quantity, box in boxes.items():
            closed = box(table, pair)
            searched = feasible_extrema(table, pair, quantity)
            worst = max(worst, abs(closed.lower - searched.lower),
                        abs(closed.upper - searched.upper))
    sharp_ok = worst <= 2e-3

    # verify_bounds takes every stratum's closed-form boxes from one array
    # pass: widen the upper ends of the PN boxes it returns
    real = pcause.bounds._box_rows

    def widened(quantities, *args):
        return [(n, out._replace(upper=out.upper + 0.05)
                 if quantity == "PN" else out)
                for quantity, (n, out) in zip(quantities,
                                              real(quantities, *args))]

    monkeypatch.setattr(pcause.bounds, "_box_rows", widened)
    report = pc.verify_bounds(cancer_joint, cancer_experimental)
    fault_ok = not report.passed and \
        {e.quantity for e in report.failures} == {"PN"}
    monkeypatch.undo()

    ok = sharp_ok and fault_ok
    _verdict(6, ok, f"{len(cases)} instances, max endpoint gap {worst:.2g}; "
                    f"injected +0.05 fault "
                    f"{'detected' if fault_ok else 'MISSED'}")


def test_criterion_7_reduction_and_nesting():
    rng = np.random.default_rng(707)
    exact_bad = 0
    for _ in range(50):
        t = random_stratum(rng)
        pair = random_pair(rng, t)
        key = pc.StratumKey.of(g="1")
        joint = pc.StratifiedJoint(strata={key: t}, covariates=("g",))
        exp = reference_from_per_stratum(
            joint, {key: pair}, provenance="measured-experimental")
        for quantity, box in (("PN", pc.pn_interval_conditional),
                              ("PS", pc.ps_interval_conditional),
                              ("PNS", pc.pns_interval_conditional)):
            strat = pc.stratified_interval(quantity, joint, exp)
            cond = box(t, pair, key=key)
            if strat.lower != cond.lower or strat.upper != cond.upper:
                exact_bad += 1

    nest_bad = 0
    for _ in range(500):
        joint, experimental = random_instance(
            rng, n_strata=int(rng.integers(2, 5)))
        pooled = collapse(joint, ()).only()
        for quantity in ("PN", "PS", "PNS"):
            inner = pc.stratified_interval(quantity, joint, experimental)
            outer = pc.tian_pearl_interval(quantity, pooled,
                                           experimental.marginal)
            if inner.lower < outer.lower - 1e-12 or \
                    inner.upper > outer.upper + 1e-12:
                nest_bad += 1

    swap_bad = 0
    for _ in range(100):
        t = random_stratum(rng)
        pair = random_pair(rng, t)
        ps = pc.ps_interval_conditional(t, pair)
        pn = pc.pn_interval_conditional(swapped(t),
                                        (1.0 - pair[1], 1.0 - pair[0]))
        if ps.lower != pn.lower or ps.upper != pn.upper:
            swap_bad += 1

    dup_bad = 0
    for _ in range(50):
        joint, experimental = random_instance(rng, n_strata=2)
        (k1, t1), (k2, t2) = joint.items()
        half = pc.StratumTable(t2.p_exposed_event, t2.p_exposed_noevent,
                               t2.p_unexposed_event, t2.p_unexposed_noevent,
                               weight=t2.weight / 2.0)
        split = pc.StratifiedJoint(
            strata={pc.StratumKey.of(g="1"): t1,
                    pc.StratumKey.of(g="2a"): half,
                    pc.StratumKey.of(g="2b"): half},
            covariates=("g",))
        split_exp = reference_from_per_stratum(
            split, {pc.StratumKey.of(g="1"): experimental.per_stratum[k1],
                    pc.StratumKey.of(g="2a"): experimental.per_stratum[k2],
                    pc.StratumKey.of(g="2b"): experimental.per_stratum[k2]},
            provenance="measured-experimental")
        for quantity in ("PN", "PS", "PNS"):
            a = pc.stratified_interval(quantity, joint, experimental)
            b = pc.stratified_interval(quantity, split, split_exp)
            if abs(a.lower - b.lower) > 1e-12 or abs(a.upper - b.upper) > 1e-12:
                dup_bad += 1

    ok = exact_bad == nest_bad == swap_bad == dup_bad == 0
    _verdict(7, ok, "single-stratum exact, 500 nestings, 100 swaps, "
                    "50 duplications all clean"
             if ok else f"exact={exact_bad} nest={nest_bad} "
                        f"swap={swap_bad} dup={dup_bad}")


def test_criterion_8_no_prevention_collapse():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        t = random_monotone_stratum(rng)
        pair = (t.risk_exposed, t.risk_unexposed)
        key = pc.StratumKey.of(g="1")
        joint = pc.StratifiedJoint(strata={key: t}, covariates=("g",))
        pn_iv = feasible_extrema(t, pair, "PN", no_prevention=True)
        pns_iv = feasible_extrema(t, pair, "PNS", no_prevention=True)
        pn = pc.pn_point(joint).value
        pns = pns_point(joint).value
        worst = max(worst, pn_iv.upper - pn_iv.lower,
                    pns_iv.upper - pns_iv.lower,
                    abs(pn_iv.lower - pn), abs(pns_iv.lower - pns))
    ok = worst <= 2e-3
    _verdict(8, ok, f"100 monotone instances, max gap to the point "
                    f"estimators {worst:.2g}")


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["simulate", "--setting", "1", "--n", "1000", "--reps", "200",
            "--seed", "7"]
    code_a = run([*args, "--json", str(a)])
    code_b = run([*args, "--json", str(b)])
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    _verdict(9, ok, f"two runs, {a.stat().st_size} bytes each, "
                    f"{'identical' if identical else 'DIFFER'}")
