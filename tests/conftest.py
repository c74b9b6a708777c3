"""Shared fixtures and random-instance generators."""

import csv
import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

import pcause as pc
from pcause import cli
from pcause.bounds import (
    PN_LOWER_TERMS,
    PN_UPPER_TERMS,
    PNS_LOWER_TERMS,
    PNS_UPPER_TERMS,
    Interval,
    TermChoice,
    _conditional_rows,
    _swap_pair,
)
from pcause.covselect import EXPOSURE_CI
from pcause.identify import (
    OUTSIDE_UNIT_WARNING,
    Estimate,
    monotonicity_diagnostic,
)
from pcause.model import (
    _CELLS,
    _FLOAT_LIMIT,
    COMPAT_TOL,
    PROVENANCE_MEASURED,
    CountTable,
    StratumKey,
    _cell_slot,
    _Coded,
    _read_json,
    _read_text,
    _risk,
    collapse,
    validate_compatibility,
)
from pcause.oracle import VerificationEntry
from pcause.simulate import (
    _MAX_ATTEMPTS_PER_REP,
    _MAX_DISCARD_RATE,
    ReplicationResult,
    ReplicationStudy,
    Scenario,
    _stratifier_layout,
)

# hypothesis caches the constants it reads from the source under its home
# directory, .hypothesis/ in the working directory by default; keep that
# cache out of the checkout (the directory is removed at exit)
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="pcause-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

DATA_DIR = Path(__file__).parent / "data"
CANCER_CSV = DATA_DIR / "breast_cancer.csv"


@pytest.fixture(scope="session")
def cancer_counts():
    return pc.load_counts(CANCER_CSV)


@pytest.fixture(scope="session")
def cancer_joint(cancer_counts):
    return pc.to_probabilities(cancer_counts)


@pytest.fixture(scope="session")
def cancer_experimental(cancer_joint):
    return pc.adjusted_experimental(cancer_joint)


def random_stratum(rng: np.random.Generator, weight: float = 1.0,
                   min_cell: float = 0.02) -> pc.StratumTable:
    """A strictly positive random 2x2 table; cells kept off the boundary."""
    cells = rng.dirichlet(np.full(4, 2.0))
    while cells.min() < min_cell:
        cells = rng.dirichlet(np.full(4, 2.0))
    return pc.StratumTable(
        p_exposed_event=float(cells[0]),
        p_exposed_noevent=float(cells[1]),
        p_unexposed_event=float(cells[2]),
        p_unexposed_noevent=float(cells[3]),
        weight=weight,
    )


def random_pair(rng: np.random.Generator,
                table: pc.StratumTable) -> tuple[float, float]:
    """A uniform interventional pair inside the consistency box."""
    do_x = rng.uniform(table.p_exposed_event, 1.0 - table.p_exposed_noevent)
    do_xp = rng.uniform(table.p_unexposed_event,
                        1.0 - table.p_unexposed_noevent)
    return float(do_x), float(do_xp)


def random_joint(rng: np.random.Generator, n_strata: int = 3,
                 covariate: str = "g") -> pc.StratifiedJoint:
    # The floor is 0.05 up to 10 strata, as it always was, then falls as
    # 5 / n_strata**2, so that many strata clear it at the first draws.  A
    # floor at a fixed share of the mean weight (such as 0.5 / n_strata)
    # never would: each weight falls below half its mean with probability
    # 0.19.
    weights = rng.dirichlet(np.full(n_strata, 3.0))
    while weights.min() < min(0.05, 5.0 / n_strata ** 2):
        weights = rng.dirichlet(np.full(n_strata, 3.0))
    strata = {
        pc.StratumKey(((covariate, str(i + 1)),)):
            random_stratum(rng, weight=float(weights[i]))
        for i in range(n_strata)
    }
    return pc.StratifiedJoint(strata=strata, covariates=(covariate,))


def random_instance(rng: np.random.Generator, n_strata: int = 3,
                    ) -> tuple[pc.StratifiedJoint, pc.ExperimentalQuantities]:
    """A random joint plus compatible measured experimental pairs."""
    joint = random_joint(rng, n_strata=n_strata)
    pairs = {key: random_pair(rng, table) for key, table in joint.items()}
    experimental = reference_from_per_stratum(
        joint, pairs, provenance="measured-experimental")
    return joint, experimental


def random_monotone_stratum(rng: np.random.Generator) -> pc.StratumTable:
    """A table whose exposed risk dominates the unexposed risk, so a
    no-prevention mechanism exists under ignorable assignment."""
    while True:
        p_x = float(rng.uniform(0.15, 0.85))
        risk_lo = float(rng.uniform(0.05, 0.9))
        risk_hi = float(rng.uniform(risk_lo, 0.95))
        table = pc.StratumTable(
            p_exposed_event=p_x * risk_hi,
            p_exposed_noevent=p_x * (1.0 - risk_hi),
            p_unexposed_event=(1.0 - p_x) * risk_lo,
            p_unexposed_noevent=(1.0 - p_x) * (1.0 - risk_lo),
            weight=1.0,
        )
        if min(table.p_exposed_event, table.p_exposed_noevent,
               table.p_unexposed_event, table.p_unexposed_noevent) > 0.0:
            return table


def swapped(table: pc.StratumTable) -> pc.StratumTable:
    """The table with exposure and outcome both relabelled, cell (x, y) as
    (x', y'): PS on a table is PN on the swapped one."""
    return pc.StratumTable(table.p_unexposed_noevent, table.p_unexposed_event,
                           table.p_exposed_noevent, table.p_exposed_event,
                           table.weight)


def _simplex(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.uniform(0.2, 0.8, size=k)
    return v / v.sum()


def random_ci_joint(rng: np.random.Generator, *, s_name: str = "s",
                    t_name: str = "t", s_levels: int = 2,
                    t_levels: int = 2) -> pc.StratifiedJoint:
    """A random joint over {s, t} satisfying both premises by construction.

    Exposure depends on covariates only through t, the outcome only
    through (x, s).  Cells are kept away from zero so variance formulas
    stay well conditioned.
    """
    if s_name == t_name:
        raise pc.ValidationError("covariate names must differ")
    t_probs = _simplex(rng, t_levels)
    s_given_t = [_simplex(rng, s_levels) for _ in range(t_levels)]
    x_given_t = rng.uniform(0.2, 0.8, size=t_levels)
    y_given_xs = {(x, si): float(rng.uniform(0.05, 0.95))
                  for si in range(s_levels) for x in (1, 0)}

    strata = {}
    for ti in range(t_levels):
        for si in range(s_levels):
            px = float(x_given_t[ti])
            key = pc.StratumKey(((s_name, str(si + 1)), (t_name, str(ti + 1))))
            strata[key] = pc.StratumTable(
                p_exposed_event=px * y_given_xs[(1, si)],
                p_exposed_noevent=px * (1.0 - y_given_xs[(1, si)]),
                p_unexposed_event=(1.0 - px) * y_given_xs[(0, si)],
                p_unexposed_noevent=(1.0 - px) * (1.0 - y_given_xs[(0, si)]),
                weight=float(t_probs[ti] * s_given_t[ti][si]),
            )
    return pc.StratifiedJoint(strata=strata, covariates=(s_name, t_name))


def _sample_cells(scenario: Scenario, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    order = scenario.outcome_cells()
    probs = np.array([p for _, p in order])
    return rng.multinomial(n, probs)


def sample_dataset(scenario: Scenario, n: int, seed: int) -> CountTable:
    """One multinomial draw of n subjects, as a count table over {s, t}.

    Identical (scenario, n, seed) triples produce identical tables.
    """
    if n < 1:
        raise pc.ValidationError(f"sample size must be positive, got {n!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = _sample_cells(scenario, n, rng)
    rows = []
    for ((x, s, t, y), _p), c in zip(scenario.outcome_cells(), counts):
        key = pc.StratumKey(((scenario.s_name, s), (scenario.t_name, t)))
        rows.append((key, x, y, int(c)))
    return reference_count_table(rows, covariates=(scenario.s_name,
                                                   scenario.t_name))


def screen_violations(table: pc.StratumTable,
                      pair: tuple[float, float]) -> list[tuple[str, float]]:
    """The compatibility screen of one table and its pair, as (constraint,
    excess) for each inequality broken by more than ``COMPAT_TOL``."""
    key = pc.StratumKey(())
    joint = pc.StratifiedJoint(strata={key: table}, covariates=())
    report = validate_compatibility(joint, reference_from_per_stratum(
        joint, {key: pair}, PROVENANCE_MEASURED))
    return [(v.constraint, v.amount) for v in report.violations]


def experimental_to_dict(experimental: pc.ExperimentalQuantities) -> dict:
    strata = []
    for key, (do_x, do_xp) in experimental.per_stratum.items():
        strata.append({
            "levels": {name: value for name, value in key.labels},
            "p_event_do_exposed": do_x,
            "p_event_do_unexposed": do_xp,
        })
    return {"provenance": experimental.provenance, "strata": strata}


# Each stratum's share of the event a quantity conditions on, before
# dividing by its total: P(s)P(x,y|s) for PN, P(s)P(x',y'|s) for PS, P(s)
# for PNS (which conditions on nothing, so its shares are not divided).
_SHARE = {"PN": lambda t: t.weight * t.p_exposed_event,
          "PS": lambda t: t.weight * t.p_unexposed_noevent,
          "PNS": lambda t: t.weight}


def assert_intervals_certified(joint: pc.StratifiedJoint,
                               experimental: pc.ExperimentalQuantities,
                               tol: float = 1e-12) -> None:
    """Rebuild the stratified and Tian-Pearl intervals from the response-type
    search, which shares no formula with the closed forms, and compare.

    A stratified endpoint is the share-weighted sum of the strata's searched
    extremes; the Tian-Pearl interval is the search on the pooled table with
    the marginal pair.
    """
    pooled = collapse(joint, ()).only()
    for quantity, share in _SHARE.items():
        weights = {key: share(t) for key, t in joint.items()}
        total = 1.0 if quantity == "PNS" else sum(weights.values())
        lower = upper = 0.0
        for key, t in joint.items():
            searched = pc.feasible_extrema(t, experimental.per_stratum[key],
                                           quantity)
            lower += weights[key] / total * searched.lower
            upper += weights[key] / total * searched.upper
        strat = pc.stratified_interval(quantity, joint, experimental)
        assert strat.lower == pytest.approx(lower, abs=tol)
        assert strat.upper == pytest.approx(upper, abs=tol)

        tp = pc.tian_pearl_interval(quantity, pooled, experimental.marginal)
        searched = pc.feasible_extrema(pooled, experimental.marginal, quantity)
        assert tp.lower == pytest.approx(searched.lower, abs=tol)
        assert tp.upper == pytest.approx(searched.upper, abs=tol)


def _exact_terms(quantity, cells, pair):
    """(denominator, lower terms, upper terms) of one stratum's exact cells
    and pair, written from the module docstring of :mod:`pcause.bounds`."""
    (do_x, do_xp), (xy, xy_, x_y, x_y_) = pair, cells
    if quantity == "PNS":
        return 1, (0, do_x - xy - x_y, 1 - do_xp - xy_ - x_y_, do_x - do_xp), \
            (do_x, 1 - do_xp, xy + x_y_, do_x - do_xp + x_y + xy_)
    if quantity == "PN":
        return xy, (0, 1 - do_xp - xy_ - x_y_), (xy, 1 - do_xp - x_y_)
    return x_y_, (0, do_x - xy - x_y), (x_y_, do_x - xy)


def exact_intervals(quantity, quads):
    """Each stratum's box, then the stratified and the Tian-Pearl interval,
    as (lower, upper) Fractions, from integer counts in cell order per
    stratum with sita-adjusted pairs: P(y_x|s) = P(y|x,s) and
    P(y_x'|s) = P(y|x',s)."""
    total = sum(map(sum, quads))
    cells = [[Fraction(n, sum(quad)) for n in quad] for quad in quads]
    weights = [Fraction(sum(quad), total) for quad in quads]
    pairs = [(c[0] / (c[0] + c[1]), c[2] / (c[2] + c[3])) for c in cells]
    terms = [_exact_terms(quantity, c, pair) for c, pair in zip(cells, pairs)]
    boxes = [(max(lows) / d, min(ups) / d) for d, lows, ups in terms]
    denom = sum(w * d for w, (d, _, _) in zip(weights, terms))
    stratified = tuple(sum(w * pick(t) for w, t in zip(weights, ends)) / denom
                       for pick, ends in ((max, [lows for _, lows, _ in terms]),
                                          (min, [ups for _, _, ups in terms])))
    pooled = [sum(w * c[i] for w, c in zip(weights, cells)) for i in range(4)]
    marginal = tuple(sum(w * pair[i] for w, pair in zip(weights, pairs))
                     for i in range(2))
    d, lows, ups = _exact_terms(quantity, pooled, marginal)
    return boxes + [stratified, (max(lows) / d, min(ups) / d)]


def exact_gap(counts: CountTable) -> float:
    """The largest distance of a printed endpoint (every box, stratified and
    Tian-Pearl endpoint, with sita-adjusted pairs) from its exact value."""
    joint = pc.to_probabilities(counts)
    experimental = pc.adjusted_experimental(joint)
    pooled = collapse(joint, ()).only()
    gap = Fraction(0)
    for quantity in ("PN", "PS", "PNS"):
        printed = [*conditional_boxes(quantity, joint, experimental),
                   pc.stratified_interval(quantity, joint, experimental),
                   pc.tian_pearl_interval(quantity, pooled,
                                          experimental.marginal)]
        for iv, (lower, upper) in zip(printed, exact_intervals(
                quantity, counts._counts.tolist()), strict=True):
            gap = max(gap, abs(Fraction(iv.lower) - lower),
                      abs(Fraction(iv.upper) - upper))
    return float(gap)


# The scalar point estimators and replication loop as they were before
# scoring moved to identify._no_prevention: one stratum, one replication at
# a time in Python floats.  The array kernel must give the same floats.

def _reference_arm_masses(key: pc.StratumKey, t) -> tuple[float, float]:
    p_x = t.p_exposed * t.weight
    p_xp = t.p_unexposed * t.weight
    if p_x <= 0.0 or p_xp <= 0.0:
        raise pc.PositivityError(
            f"stratum {key}: both exposure arms need positive probability")
    return p_x, p_xp


def reference_pn_point(joint: pc.StratifiedJoint) -> Estimate:
    denom = 0.0
    numer = 0.0
    for key, t in joint.items():
        _reference_arm_masses(key, t)
        denom += t.p_exposed_event * t.weight
        numer += ((1.0 - t.risk_unexposed)
                  - (t.p_exposed_noevent + t.p_unexposed_noevent)) * t.weight
    if denom <= 0.0:
        raise pc.PositivityError("PN undefined: no exposed cases overall")
    value = numer / denom

    n = joint.total_n
    avar = None
    if n is not None:
        base = 0.0
        for key, t in joint.items():
            p_x, p_xp = _reference_arm_masses(key, t)
            rx, rxp = t.risk_exposed, t.risk_unexposed
            base += ((1.0 - value) ** 2 * rx * (1.0 - rx) / p_x
                     + rxp * (1.0 - rxp) / p_xp) * (p_x / denom) ** 2
        avar = base / n

    warnings = () if 0.0 <= value <= 1.0 else (OUTSIDE_UNIT_WARNING,)
    return Estimate(value=value, avar=avar, n=n, quantity="PN",
                    covariates=joint.covariates, warnings=warnings)


def reference_pns_point(joint: pc.StratifiedJoint) -> Estimate:
    value = 0.0
    for key, t in joint.items():
        _reference_arm_masses(key, t)
        value += (t.risk_exposed - t.risk_unexposed) * t.weight

    n = joint.total_n
    avar = None
    if n is not None:
        base = 0.0
        for key, t in joint.items():
            p_x, p_xp = _reference_arm_masses(key, t)
            rx, rxp = t.risk_exposed, t.risk_unexposed
            base += (rx * (1.0 - rx) / p_x
                     + rxp * (1.0 - rxp) / p_xp) * t.weight ** 2
        avar = base / n

    warnings = () if 0.0 <= value <= 1.0 else (OUTSIDE_UNIT_WARNING,)
    return Estimate(value=value, avar=avar, n=n, quantity="PNS",
                    covariates=joint.covariates, warnings=warnings)


def reference_replicate_study(scenario: Scenario, n: int, reps: int,
                              seed: int) -> ReplicationStudy:
    if reps < 2:
        raise pc.ValidationError("need at least two replications for a variance")
    if n < 1:
        raise pc.ValidationError(f"sample size must be positive, got {n!r}")
    strat_list = [(scenario.s_name,), (scenario.t_name,),
                  tuple(sorted((scenario.s_name, scenario.t_name)))]

    layouts = {strat: _stratifier_layout(scenario, strat)
               for strat in strat_list}
    probs = np.array([p for _, p in scenario.outcome_cells()])

    combos = [(quantity, strat) for strat in strat_list
              for quantity in ("PN", "PNS")]
    values = {c: [] for c in combos}
    avars = {c: [] for c in combos}

    discarded = 0
    attempts = 0
    for r in range(reps):
        for attempt in range(_MAX_ATTEMPTS_PER_REP):
            attempts += 1
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(r, attempt)))
            counts = rng.multinomial(n, probs)
            keys, positions = layouts[strat_list[-1]]
            if np.bincount(positions, weights=counts,
                           minlength=4 * len(keys)).min() > 0.0:
                break
            discarded += 1
        else:
            raise pc.DegenerateScenarioError(
                f"replication {r}: {_MAX_ATTEMPTS_PER_REP} consecutive draws "
                f"had empty cells at n={n}; the scenario is too sparse")

        for strat in strat_list:
            keys, positions = layouts[strat]
            sums = np.bincount(positions, weights=counts, minlength=4 * len(keys))
            joint = reference_joint_from_cells(
                zip(keys, sums.reshape(-1, 4).tolist()), n, strat, n)
            pn = reference_pn_point(joint)
            pns = reference_pns_point(joint)
            values[("PN", strat)].append(pn.value)
            avars[("PN", strat)].append(pn.avar)
            values[("PNS", strat)].append(pns.value)
            avars[("PNS", strat)].append(pns.avar)

    if discarded / attempts > _MAX_DISCARD_RATE:
        raise pc.DegenerateScenarioError(
            f"{discarded} of {attempts} draws had empty cells "
            f"(rate {discarded / attempts:.1%} exceeds {_MAX_DISCARD_RATE:.0%}); "
            f"increase n or merge strata")

    results = []
    for strat in strat_list:
        population = scenario.population_joint(strat, n)
        pop = {"PN": reference_pn_point(population).avar,
               "PNS": reference_pns_point(population).avar}
        for quantity in ("PN", "PNS"):
            vals = values[(quantity, strat)]
            results.append(ReplicationResult(
                quantity=quantity,
                stratifier=strat,
                n=n,
                reps=reps,
                empirical_var=float(np.var(vals, ddof=1)),
                mean_avar=float(np.mean(avars[(quantity, strat)])),
                population_avar=pop[quantity],
            ))
    return ReplicationStudy(scenario=scenario.name, n=n, reps=reps,
                            seed=seed, results=tuple(results),
                            discarded=discarded, attempts=attempts)


def reference_count_table(rows, covariates) -> CountTable:
    """The count table of (stratum, x, y, count) rows, built without the
    parser: each cell's counts summed, strata in key order.  Every key
    holds the ``covariates``."""
    quads: dict[pc.StratumKey, list] = {}
    for key, x, y, n in rows:
        quad, slot = quads.setdefault(key, [None] * 4), _cell_slot(x, y)
        quad[slot] = (quad[slot] or 0) + n
    keys = sorted(quads)
    total = sum(n or 0 for quad in quads.values() for n in quad)
    dtype = np.int64 if total < 2**63 else object
    return CountTable._of(
        _Coded.of(tuple(keys)),
        np.array([[n or 0 for n in quads[key]] for key in keys],
                 dtype).reshape(-1, 4),
        np.array([[n is not None for n in quads[key]] for key in keys],
                 bool).reshape(-1, 4), total)


def cells_of(counts: CountTable) -> dict:
    """A table's counts by (stratum, x, y), for its named cells."""
    return {(key, x, y): n for key, x, y, n in counts.rows()}


# The table layer as it was before it moved to arrays: the counts parse one
# line at a time, and the conversion to probabilities, collapse and the
# stratified bounds run one stratum at a time in Python floats.  The array
# code must give the same floats, attainments and errors.

def reference_load_counts(source) -> CountTable:
    lines = _read_text(source).replace("\r\n", "\n").replace("\r", "\n")
    kept: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(lines.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = next(csv.reader([raw]))
        kept.append((lineno, [f.strip() for f in fields]))
    if not kept:
        raise pc.ParseError("no header row found")

    header_line, header = kept[0]
    for required in ("x", "y", "count"):
        if header.count(required) != 1:
            raise pc.ParseError(
                f"line {header_line}: header must contain {required!r} exactly once")
    special = {"x": header.index("x"), "y": header.index("y"),
               "count": header.index("count")}
    cov_idx = [(name, i) for i, name in enumerate(header)
               if i not in special.values()]
    cov_names = [name for name, _ in cov_idx]
    if len(set(cov_names)) != len(cov_names):
        raise pc.ParseError(f"line {header_line}: duplicate covariate columns")
    if any(not name for name in cov_names):
        raise pc.ParseError(f"line {header_line}: empty covariate column name")

    keys: dict[tuple[str, ...], pc.StratumKey] = {}
    rows: list[tuple[pc.StratumKey, int, int, int]] = []
    for lineno, fields in kept[1:]:
        if len(fields) != len(header):
            raise pc.ParseError(
                f"line {lineno}: expected {len(header)} fields, got {len(fields)}")
        xy = {}
        for name in ("x", "y"):
            value = fields[special[name]]
            if value not in ("0", "1"):
                raise pc.ParseError(
                    f"line {lineno}: {name} must be 0 or 1, got {value!r}")
            xy[name] = int(value)
        raw_count = fields[special["count"]]
        try:
            n = int(raw_count)
        except ValueError:
            n = -1
        if n < 0:
            raise pc.ParseError(
                f"line {lineno}: count must be a nonnegative integer, got {raw_count!r}")
        levels = tuple(fields[i] for _, i in cov_idx)
        key = keys.get(levels)
        if key is None:
            key = keys[levels] = pc.StratumKey(tuple(zip(cov_names, levels)))
        rows.append((key, xy["x"], xy["y"], n))
    if not rows:
        raise pc.ParseError("no data rows")
    return reference_count_table(rows, covariates=cov_names)


def reference_joint_from_cells(cells, total, covariates, total_n):
    strata = {}
    for key, quad in cells:
        st_total = sum(quad)
        strata[key] = pc.StratumTable(
            p_exposed_event=quad[0] / st_total,
            p_exposed_noevent=quad[1] / st_total,
            p_unexposed_event=quad[2] / st_total,
            p_unexposed_noevent=quad[3] / st_total,
            weight=st_total / total,
        )
    return pc.StratifiedJoint(strata=strata, covariates=tuple(covariates),
                              total_n=total_n)


def reference_joint_of(keys, cells, weights, covariates, total_n):
    """``StratifiedJoint._of`` as it was before the arrays became the stored
    form: a table built, and so checked, per row in key order, then the
    weights' total and ``total_n``."""
    weights = weights.tolist()
    strata = dict(zip(keys, map(pc.StratumTable, *cells.T.tolist(), weights)))
    total = sum(weights)
    if abs(total - 1.0) > 1e-9:
        raise pc.ValidationError(f"stratum weights sum to {total!r}, not 1")
    if total_n is not None and total_n <= 0:
        raise pc.ValidationError(f"total_n must be positive, got {total_n!r}")
    return pc.StratifiedJoint(strata=strata, covariates=covariates,
                              total_n=total_n)


def reference_to_probabilities(counts: CountTable,
                               smoothing: str = "none") -> pc.StratifiedJoint:
    if smoothing not in ("none", "add-half"):
        raise pc.ValidationError(f"unknown smoothing {smoothing!r}")
    raw_total = counts.total
    if raw_total <= 0:
        raise pc.PositivityError("count table is empty")
    if raw_total >= _FLOAT_LIMIT:
        running = 0
        for key, _x, _y, n in counts.rows():
            running += n
            if running >= _FLOAT_LIMIT:
                raise pc.ValidationError(
                    f"stratum {key}: counts too large for "
                    "floating point (their total exceeds 1.8e308)")

    add = 0.5 if smoothing == "add-half" else 0.0
    quads: dict[pc.StratumKey, list[float]] = {}
    for key, x, y, n in counts.rows():
        quads.setdefault(key, [add] * 4)[_cell_slot(x, y)] += n

    grand = 0.0
    for key, quad in quads.items():
        for (x, y), c in zip(_CELLS, quad):
            if c <= 0.0:
                raise pc.PositivityError(
                    f"stratum {key}: empty cell (x={x}, y={y}); "
                    "use add-half smoothing or pool strata")
        grand += sum(quad)
    return reference_joint_from_cells(quads.items(), grand, counts.covariates,
                                      raw_total)


def reference_collapse(joint: pc.StratifiedJoint, keep) -> pc.StratifiedJoint:
    keep_t = tuple(keep)
    unknown = set(keep_t) - set(joint.covariates)
    if unknown:
        raise pc.ValidationError(f"unknown covariate(s) {sorted(unknown)}")

    acc: dict[pc.StratumKey, list[float]] = {}
    for key, t in joint.items():
        sub = pc.StratumKey(tuple(lv for lv in key.labels if lv[0] in keep_t))
        cells = acc.setdefault(sub, [0.0, 0.0, 0.0, 0.0, 0.0])
        cells[0] += t.p_exposed_event * t.weight
        cells[1] += t.p_exposed_noevent * t.weight
        cells[2] += t.p_unexposed_event * t.weight
        cells[3] += t.p_unexposed_noevent * t.weight
        cells[4] += t.weight

    strata = {}
    for key, (ee, en, ue, un, w) in acc.items():
        strata[key] = pc.StratumTable(
            p_exposed_event=ee / w,
            p_exposed_noevent=en / w,
            p_unexposed_event=ue / w,
            p_unexposed_noevent=un / w,
            weight=w,
        )
    return pc.StratifiedJoint(strata=strata, covariates=keep_t,
                              total_n=joint.total_n)


def reference_adjusted_experimental(joint: pc.StratifiedJoint,
                                    ) -> pc.ExperimentalQuantities:
    per = {}
    for key, t in joint.items():
        if t.p_exposed <= 0.0 or t.p_unexposed <= 0.0:
            raise pc.PositivityError(
                f"stratum {key}: both exposure arms need positive probability")
        per[key] = (t.risk_exposed, t.risk_unexposed)
    return reference_from_per_stratum(joint, per, provenance="sita-adjusted")


# The count collapse and the experimental constructor as they were before
# both collapses shared one grouping and the pairs one array check: one row
# or one value at a time.

def reference_count_collapse(counts: CountTable, keep) -> CountTable:
    keep_t = tuple(keep)
    unknown = set(keep_t) - set(counts.covariates)
    if unknown:
        raise pc.ValidationError(f"unknown covariate(s) {sorted(unknown)}")
    return reference_count_table(
        ((pc.StratumKey(tuple(lv for lv in key.labels if lv[0] in keep_t)),
          x, y, n) for key, x, y, n in counts.rows()),
        covariates=keep_t,
    )


def _reference_checked(p, key):
    if not (-1e-9 <= p <= 1.0 + 1e-9):
        where = f"stratum {key}" if key is not None else "marginal"
        raise pc.ValidationError(f"{where}: probability {p!r} outside [0, 1]")
    return min(1.0, max(0.0, p))


def reference_experimental(per_stratum, marginal,
                           provenance: str) -> pc.ExperimentalQuantities:
    """Pairs for any strata and marginal, as the deleted hand-built
    constructor made them, without the library's builder; the library takes
    them wherever it takes pairs, which lets tests pass pairs for strata
    that do not match a joint."""
    if provenance not in ("measured-experimental", "sita-adjusted"):
        raise pc.ValidationError(f"unknown provenance {provenance!r}")
    cleaned = {}
    for key in sorted(per_stratum):
        cleaned[key] = tuple(_reference_checked(p, key)
                             for p in per_stratum[key])
    marg = tuple(_reference_checked(p, None) for p in marginal)
    if len(marg) != 2 or any(len(pair) != 2 for pair in cleaned.values()):
        raise pc.ValidationError("expected (do-exposed, do-unexposed) pairs")
    pairs = np.array(list(cleaned.values()), dtype=float).reshape(-1, 2)
    pairs.flags.writeable = False
    built = object.__new__(pc.ExperimentalQuantities)
    for name, value in (("per_stratum", cleaned), ("marginal", marg),
                        ("provenance", provenance), ("pairs", pairs),
                        ("_coded", _Coded.of(tuple(cleaned)))):
        object.__setattr__(built, name, value)
    return built


def reference_from_per_stratum(joint: pc.StratifiedJoint, per_stratum,
                               provenance: str) -> pc.ExperimentalQuantities:
    if set(per_stratum) != set(joint.keys()):
        raise pc.ValidationError(
            "experimental strata do not match the joint's strata")
    # The builtin sum, as it adds floats before Python 3.12: left to right.
    # (From 3.12 on, sum() of floats is compensated.)
    do_exposed = do_unexposed = 0
    for key, t in joint.items():
        do_exposed += per_stratum[key][0] * t.weight
        do_unexposed += per_stratum[key][1] * t.weight
    return reference_experimental(per_stratum, (do_exposed, do_unexposed),
                                  provenance)


def _reference_violations(table, pair, tol):
    do_exposed, do_unexposed = pair
    checks = (
        ("exposed-lower", table.p_exposed_event - do_exposed),
        ("exposed-upper", do_exposed - (1.0 - table.p_exposed_noevent)),
        ("unexposed-lower", table.p_unexposed_event - do_unexposed),
        ("unexposed-upper", do_unexposed - (1.0 - table.p_unexposed_noevent)),
    )
    return [(name, excess) for name, excess in checks if excess > tol]


def reference_validate_compatibility(joint, experimental):
    if set(experimental.per_stratum) != set(joint.keys()):
        raise pc.ValidationError(
            "experimental strata do not match the joint's strata")
    violations = []
    for key, t in joint.items():
        for name, excess in _reference_violations(
                t, experimental.per_stratum[key], COMPAT_TOL):
            violations.append((key, name, excess))
    return violations


def _reference_terms(quantity, table, pair):
    do_exposed, do_unexposed = pair
    p_noevent_do_unexposed = 1.0 - do_unexposed
    p_noevent = table.p_exposed_noevent + table.p_unexposed_noevent
    if quantity == "PNS":
        lows = (0.0,
                do_exposed - (table.p_exposed_event + table.p_unexposed_event),
                p_noevent_do_unexposed - p_noevent,
                do_exposed - do_unexposed)
        ups = (do_exposed,
               p_noevent_do_unexposed,
               table.p_exposed_event + table.p_unexposed_noevent,
               do_exposed - do_unexposed
               + table.p_unexposed_event + table.p_exposed_noevent)
        return None, lows, ups
    cell = table.p_exposed_event
    return (cell, (0.0, p_noevent_do_unexposed - p_noevent),
            (cell, p_noevent_do_unexposed - table.p_unexposed_noevent))


def reference_stratified_interval(quantity, joint, experimental):
    if quantity not in ("PN", "PS", "PNS"):
        raise pc.ValidationError(f"unknown quantity {quantity!r}")
    violations = reference_validate_compatibility(joint, experimental)
    if violations:
        worst = max(violations, key=lambda v: v[2])
        raise pc.IncompatibilityError(
            f"{len(violations)} consistency violation(s); worst: "
            f"stratum {worst[0]} {worst[1]} by {worst[2]:.3g}")

    if joint.n_strata == 1:
        key, t = next(joint.items())
        return _reference_box(quantity, "stratified", t,
                              experimental.per_stratum[key], key)

    lower_acc = 0.0
    upper_acc = 0.0
    denom = 0.0
    choices = []
    for key, t in joint.items():
        pair = _reference_clip_pair(t, experimental.per_stratum[key])
        if quantity == "PS":
            t, pair = swapped(t), _swap_pair(pair)
        cell, lows, ups = _reference_terms(quantity, t, pair)
        li, ui = lows.index(max(lows)), ups.index(min(ups))
        if cell is not None:
            denom += cell * t.weight
        lower_acc += lows[li] * t.weight
        upper_acc += ups[ui] * t.weight
        choices.append(_reference_choice(quantity, key, li, ui))

    lower, upper = lower_acc, upper_acc
    if quantity != "PNS":
        if denom <= 0.0:
            raise pc.PositivityError(
                f"{quantity} undefined: no {_REFERENCE_FRAME[quantity]} overall")
        lower, upper = lower_acc / denom, upper_acc / denom
    return _reference_finish(lower, upper, quantity, "stratified",
                             tuple(choices), key=None)


# The conditional boxes, the response-type search, the verification loop and
# the measured-pair loader as they were before each ran as one array pass
# over the strata: one stratum, one table and pair at a time, in Python
# floats.  The array passes must give the same intervals and, for the first
# failing stratum, the same error.

def _reference_clip_pair(table, pair):
    return (min(1.0 - table.p_exposed_noevent,
                max(table.p_exposed_event, pair[0])),
            min(1.0 - table.p_unexposed_noevent,
                max(table.p_unexposed_event, pair[1])))


def _reference_compatible_pair(table, pair, where):
    outside = _reference_violations(table, pair, 0.0)
    violations = [(name, amount) for name, amount in outside
                  if amount > COMPAT_TOL]
    if violations:
        detail = "; ".join(f"{name} by {amount:.3g}"
                           for name, amount in violations)
        if isinstance(where, pc.StratumKey):
            where = f"stratum {where}"
        raise pc.IncompatibilityError(
            f"{where}: experimental pair conflicts with joint cells ({detail})")
    return _reference_clip_pair(table, pair) if outside else pair


_REFERENCE_FRAME = {"PN": "exposed cases", "PS": "unexposed non-cases"}


def _reference_choice(quantity, key, li, ui):
    if quantity == "PNS":
        return TermChoice(key, PNS_LOWER_TERMS[li], PNS_UPPER_TERMS[ui])
    return TermChoice(key, PN_LOWER_TERMS[li], PN_UPPER_TERMS[ui])


def _reference_finish(lower, upper, quantity, method, choices, key):
    lower = min(1.0, max(0.0, lower))
    upper = min(1.0, max(0.0, upper))
    if lower > upper + 1e-9:
        where = f" in stratum {key}" if key is not None else ""
        raise pc.IncompatibilityError(
            f"{quantity} bounds invert{where}: lower {lower:.6g} > upper "
            f"{upper:.6g}; observational and experimental inputs conflict")
    return Interval(lower=lower, upper=upper, quantity=quantity,
                    method=method, attainment=choices)


def _reference_box(quantity, method, table, pair, key=None):
    key = key if key is not None else pc.StratumKey(())
    pair = _reference_compatible_pair(table, pair, key)
    if quantity == "PS":
        table, pair = swapped(table), _swap_pair(pair)
    denom, lows, ups = _reference_terms(quantity, table, pair)
    li, ui = lows.index(max(lows)), ups.index(min(ups))
    lower, upper = lows[li], ups[ui]
    if denom is not None:
        if denom <= 0.0:
            raise pc.PositivityError(
                f"{quantity} undefined in stratum {key}: no probability mass "
                f"on {_REFERENCE_FRAME[quantity]}")
        lower, upper = lower / denom, upper / denom
    return _reference_finish(lower, upper, quantity, method,
                             (_reference_choice(quantity, key, li, ui),), key)


def reference_conditional(quantity, table, pair, key=None):
    """pn_interval_conditional, ps_... or pns_... of one stratum."""
    return _reference_box(quantity, "conditional", table, pair, key)


def reference_tian_pearl_interval(quantity, table, marginal):
    if quantity not in ("PN", "PS", "PNS"):
        raise pc.ValidationError(f"unknown quantity {quantity!r}")
    return _reference_box(quantity, "tian-pearl", table, marginal)


def conditional_boxes(quantity, joint, experimental):
    """Every stratum's conditional box as an interval, in key order, from
    the command line's box pass run for this quantity alone; raises the
    error of the first stratum that fails."""
    (n, boxes), = _conditional_rows((quantity,), joint, experimental)
    if n < joint.n_strata:
        raise boxes
    return [Interval._of(lower, upper, quantity, "conditional", (key,),
                         (li,), (ui,))
            for lower, upper, key, li, ui in zip(
                boxes.lower.tolist(), boxes.upper.tolist(), joint._coded,
                boxes.lower_term.tolist(), boxes.upper_term.tolist())]


def reference_conditional_boxes(quantity, joint, experimental):
    """The command line's loop over the strata."""
    return [reference_conditional(quantity, table,
                                  experimental.per_stratum[key], key)
            for key, table in joint.items()]


def _reference_clip01(v):
    return min(1.0, max(0.0, v))


def _reference_arm_parameters(table, pair):
    _reference_compatible_pair(table, pair, "response-type search")
    p_x, p_xp = table.p_exposed, table.p_unexposed
    if p_x <= 0.0 or p_xp <= 0.0:
        raise pc.PositivityError("both exposure arms need positive probability")
    alpha = table.risk_exposed
    delta = table.risk_unexposed
    beta = _reference_clip01((pair[1] - table.p_unexposed_event) / p_x)
    gamma = _reference_clip01((pair[0] - table.p_exposed_event) / p_xp)
    return alpha, beta, gamma, delta, p_x, p_xp


def _reference_type_masses(fixed_y, fixed_cross, free):
    always = free
    helped = fixed_y - free
    hurt = fixed_cross - free
    never = 1.0 - fixed_y - fixed_cross + free
    if min(always, helped, hurt, never) < -1e-9:
        raise RuntimeError(
            "response-type mass went negative; feasibility screening is broken")
    return always, helped, hurt, never


def reference_feasible_extrema(table, pair, quantity, *, no_prevention=False):
    if quantity not in ("PN", "PS", "PNS"):
        raise pc.ValidationError(f"unknown quantity {quantity!r}")
    alpha, beta, gamma, delta, p_x, p_xp = _reference_arm_parameters(table,
                                                                     pair)
    a_hi = min(alpha, beta)
    a_lo = min(max(0.0, alpha + beta - 1.0), a_hi)
    b_hi = min(gamma, delta)
    b_lo = min(max(0.0, gamma + delta - 1.0), b_hi)
    if no_prevention:
        if beta > alpha + COMPAT_TOL or delta > gamma + COMPAT_TOL:
            raise pc.IncompatibilityError(
                "no distribution without prevention matches the inputs")
        a_pts = (min(beta, a_hi),)
        b_pts = (min(delta, b_hi),)
    else:
        a_pts = (a_lo, a_hi)
        b_pts = (b_lo, b_hi)
    masses_x = [_reference_type_masses(alpha, beta, a) for a in a_pts]
    masses_xp = [_reference_type_masses(gamma, delta, b) for b in b_pts]

    if quantity == "PN":
        if table.p_exposed_event <= 0.0:
            raise pc.PositivityError("PN undefined: no exposed cases in stratum")
        values = [helped / alpha for _, helped, _, _ in masses_x]
        lower, upper = min(values), max(values)
    elif quantity == "PS":
        if table.p_unexposed_noevent <= 0.0:
            raise pc.PositivityError(
                "PS undefined: no unexposed non-cases in stratum")
        ends = [(helped, helped + never) for _, helped, _, never in masses_xp]
        if min(mass for _, mass in ends) <= 0.0:
            mass = table.p_unexposed_noevent / p_xp
            hi = min(gamma, mass)
            ends = [(min(max(0.0, gamma - (1.0 - mass)), hi), mass), (hi, mass)]
        values = [helped / mass for helped, mass in ends]
        lower, upper = min(values), max(values)
    else:
        contrib_x = [p_x * helped for _, helped, _, _ in masses_x]
        contrib_xp = [p_xp * helped for _, helped, _, _ in masses_xp]
        lower = min(contrib_x) + min(contrib_xp)
        upper = max(contrib_x) + max(contrib_xp)
    return Interval(lower=lower, upper=upper, quantity=quantity,
                    method="oracle")


def reference_searched_boxes(quantity, joint, experimental, *,
                             no_prevention=False):
    return [reference_feasible_extrema(table, experimental.per_stratum[key],
                                       quantity, no_prevention=no_prevention)
            for key, table in joint.items()]


def reference_verify_bounds(joint, experimental):
    entries = []
    for key, table in joint.items():
        pair = experimental.per_stratum[key]
        for quantity in ("PN", "PS", "PNS"):
            closed = reference_conditional(quantity, table, pair, key)
            searched = reference_feasible_extrema(table, pair, quantity)
            lower = abs(closed.lower - searched.lower)
            upper = abs(closed.upper - searched.upper)
            # the larger endpoint gap, NaN when either is
            gap = math.nan if math.isnan(lower + upper) else max(lower, upper)
            entries.append(VerificationEntry(key, quantity, closed, searched,
                                             gap))
    return tuple(entries)


def reference_load_experimental(source, joint):
    data = _read_json(source, "experimental")
    try:
        per = {}
        for entry in data["strata"]:
            key = pc.StratumKey(tuple((n, str(v))
                                      for n, v in entry["levels"].items()))
            per[key] = (float(entry["p_event_do_exposed"]),
                        float(entry["p_event_do_unexposed"]))
        provenance = data.get("provenance", PROVENANCE_MEASURED)
    except (KeyError, TypeError, ValueError) as exc:
        raise pc.ParseError(f"malformed experimental data: {exc}") from exc
    return reference_from_per_stratum(joint, per, provenance)


def reference_groups(keys, covariates, keep):
    """``model._groups`` as it was before strata became codes: each
    stratum's group, numbered in key order, the group keys and the kept
    covariates, from each key's labels restricted to ``keep``."""
    covs = tuple(sorted(str(c) for c in keep))
    unknown = set(covs) - set(covariates)
    if unknown:
        raise pc.ValidationError(f"unknown covariate(s) {sorted(unknown)}")
    if len(set(covs)) != len(covs):
        raise pc.ValidationError(f"duplicate covariate names: {covs}")
    # number the groups as first seen, then in order
    seen = {}
    index = [seen.setdefault(tuple(lv for lv in key.labels if lv[0] in covs),
                             len(seen)) for key in keys]
    labels = sorted(seen)
    return (np.argsort([seen[label] for label in labels])[index],
            tuple(map(StratumKey, labels)), covs)


# The premise tests as they were before they read the joint's arrays: the
# exact check one stratum at a time, and the G test over dicts of counts and
# margins keyed by the strata's levels.

def reference_exact_deviation(joint: pc.StratifiedJoint, relation) -> float:
    exposure = relation.kind == EXPOSURE_CI
    keep = (relation.t,) if exposure else (relation.s,)
    index, _, _ = reference_groups(joint.keys(), joint.covariates, keep)
    coarse = collapse(joint, keep).cells.tolist()
    dev = 0.0
    for key, (ee, en, ue, un), (ref_ee, ref_en, ref_ue, ref_un) in zip(
            joint.keys(), joint.cells.tolist(),
            (coarse[g] for g in index.tolist())):
        if exposure:
            dev = max(dev, abs((ee + en) - (ref_ee + ref_en)))
            continue
        try:
            dev = max(dev, abs(_risk(ee, en, "exposed")
                               - _risk(ref_ee, ref_en, "exposed")),
                      abs(_risk(ue, un, "unexposed")
                          - _risk(ref_ue, ref_un, "unexposed")))
        except pc.PositivityError as exc:
            # the exact check names the stratum
            raise pc.PositivityError(f"{exc} {key}") from None
    return dev


def reference_g_statistic(observed, row_margin, col_margin, total) -> float:
    """2 * sum n * ln(n * n_block / (n_row * n_col)) over nonzero cells.

    Keys of ``observed`` are (block, row, col); the margins are indexed by
    (block, row), (block, col) and block.
    """
    g = 0.0
    for (block, row, col), n in observed.items():
        if n <= 0.0:
            continue
        g += n * np.log(n * total[block] / (row_margin[(block, row)]
                                            * col_margin[(block, col)]))
    return float(2.0 * g)


def reference_count_test(joint: pc.StratifiedJoint, relation,
                         n: int) -> tuple[float, int]:
    s, t = relation.s, relation.t
    levels = [dict(key.labels) for key in joint.keys()]
    n_s = len({level[s] for level in levels})
    n_t = len({level[t] for level in levels})
    strata = zip(levels, joint.cells.tolist(), joint.weights.tolist())

    observed: dict = {}
    if relation.kind == EXPOSURE_CI:
        # blocks are t levels, rows are s levels, columns are exposure
        for level, (ee, en, ue, un), weight in strata:
            block, row = level[t], level[s]
            observed[(block, row, 1)] = (ee + en) * weight * n
            observed[(block, row, 0)] = (ue + un) * weight * n
        df = n_t * (n_s - 1) * (2 - 1)
    else:
        # blocks are (x, s) pairs, rows are t levels, columns are outcome
        for level, cells, weight in strata:
            row = level[t]
            for (x, y), cell in zip(_CELLS, cells):
                observed[((x, level[s]), row, y)] = cell * weight * n
        df = 2 * n_s * (2 - 1) * (n_t - 1)

    row_margin: dict = {}
    col_margin: dict = {}
    total: dict = {}
    for (block, row, col), count in observed.items():
        row_margin[(block, row)] = row_margin.get((block, row), 0.0) + count
        col_margin[(block, col)] = col_margin.get((block, col), 0.0) + count
        total[block] = total.get(block, 0.0) + count
    g = reference_g_statistic(observed, row_margin, col_margin, total)
    if not math.isfinite(g):
        raise pc.ValidationError(f"premise {relation.kind}: G statistic is {g}; "
                                 "counts too large for floating point")
    return g, df


# The command line's report sections as they were built before the writer
# streamed them: a dict per interval, entry and stratum, printed one line at
# a time and encoded with json.dumps(report, indent=2).

def reference_key_json(key: pc.StratumKey) -> dict:
    return {name: value for name, value in key.labels}


def reference_interval_json(iv: Interval) -> dict:
    return {
        "quantity": iv.quantity,
        "method": iv.method,
        "lower": iv.lower,
        "upper": iv.upper,
        "attainment": [{"stratum": reference_key_json(c.stratum),
                        "lower_term": c.lower,
                        "upper_term": c.upper} for c in iv.attainment],
    }


def _reference_cmd_bounds(args):
    joint = cli._load_table(args)
    experimental = cli._load_experimental(args, joint)
    quantities = (("PN", "PS", "PNS") if args.quantity == "all"
                  else (args.quantity,))
    pooled = collapse(joint, ()).only()
    intervals = []
    cli._print_data_line(joint)
    print(f"experimental input: {experimental.provenance}")
    for quantity in quantities:
        strat = pc.stratified_interval(quantity, joint, experimental)
        pooled_iv = pc.tian_pearl_interval(quantity, pooled,
                                           experimental.marginal)
        intervals.extend([strat, pooled_iv])
        print(f"{quantity:<4} stratified  [{strat.lower:.3f}, {strat.upper:.3f}]")
        print(f"{quantity:<4} tian-pearl  [{pooled_iv.lower:.3f}, {pooled_iv.upper:.3f}]")
        boxes = conditional_boxes(quantity, joint, experimental)
        intervals.extend(boxes)
        for key, box in zip(joint.keys(), boxes):
            print(f"     {key}  [{box.lower:.3f}, {box.upper:.3f}]")
    return cli._report("bounds", cli._input_json(args, joint, experimental),
                       intervals=[reference_interval_json(iv)
                                  for iv in intervals]), None


def _reference_cmd_identify(args):
    joint = cli._load_table(args,
                            stratifier=cli._parse_stratifier(args.stratifier))
    experimental = pc.adjusted_experimental(joint)
    diag = monotonicity_diagnostic(joint, experimental)
    pn, pns = diag.pn, diag.pns
    cli._print_data_line(joint)
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
        "points": [cli._estimate_json(pn), cli._estimate_json(pns)],
        "monotonicity": {
            "risk_differences": [{"stratum": reference_key_json(k),
                                  "value": rd}
                                 for k, rd in diag.risk_differences],
            "flagged": [reference_key_json(k) for k in diag.flagged],
            "pn_consistent": diag.pn_consistent,
            "pns_consistent": diag.pns_consistent,
            "plausible": diag.plausible,
        },
    }
    return cli._report("identify", cli._input_json(args, joint, experimental),
                       intervals=[reference_interval_json(diag.pn_interval),
                                  reference_interval_json(diag.pns_interval)],
                       estimates=estimates, warnings=warnings), None


def _reference_cmd_verify(args):
    joint = cli._load_table(args)
    experimental = cli._load_experimental(args, joint)
    report = pc.verify_bounds(joint, experimental, tol=args.tol)
    entries = report.entries
    max_discrepancy, failures, passed = reference_verdict(entries, report.tol)
    cli._print_data_line(joint)
    status = "PASS" if passed else "FAIL"
    print(f"checked {len(entries)} boxes in "
          f"{cli._strata_phrase(joint.n_strata)}; max discrepancy "
          f"{max_discrepancy:.3g} (tolerance {report.tol:g}): {status}")
    for entry in failures:
        print(f"  mismatch {entry.quantity} in {entry.stratum}: closed "
              f"[{entry.closed.lower:.6f}, {entry.closed.upper:.6f}] vs "
              f"searched [{entry.searched.lower:.6f}, {entry.searched.upper:.6f}]")
    verification = {
        "tol": report.tol,
        "max_discrepancy": max_discrepancy,
        "passed": passed,
        "entries": [{
            "stratum": reference_key_json(e.stratum),
            "quantity": e.quantity,
            "closed": reference_interval_json(e.closed),
            "searched": reference_interval_json(e.searched),
            "discrepancy": e.discrepancy,
        } for e in entries],
    }
    failure = None if passed else (
        f"verification failed: {len(failures)} of "
        f"{len(entries)} boxes differ by more than {report.tol:g}")
    return cli._report("verify", cli._input_json(args, joint, experimental),
                       verification=verification), failure


def reference_verdict(entries, tol):
    """max_discrepancy, failures and passed as the report worked them out
    from its entries: an entry fails unless its discrepancy is within the
    tolerance, so a NaN one fails, and makes the maximum NaN."""
    gaps = [e.discrepancy for e in entries]
    failures = tuple(e for e, gap in zip(entries, gaps) if not gap <= tol)
    worst = math.nan if any(map(math.isnan, gaps)) else max(gaps)
    return worst, failures, not failures


_REFERENCE_COMMANDS = {"bounds": _reference_cmd_bounds,
                       "identify": _reference_cmd_identify,
                       "verify": _reference_cmd_verify}


def reference_cli(argv):
    """What ``bounds``, ``identify`` or ``verify`` printed and the report it
    wrote, as (exit code, the report's text or None); stdout and stderr go
    to sys.stdout and sys.stderr."""
    args = cli.build_parser().parse_args(argv)
    try:
        report, failure = _REFERENCE_COMMANDS[args.command](args)
    except pc.PcauseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
    return (0 if failure is None else 1), json.dumps(report, indent=2) + "\n"
