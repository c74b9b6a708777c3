"""Shared fixtures and random-instance generators."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

import pcause as pc

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
    weights = rng.dirichlet(np.full(n_strata, 3.0))
    while weights.min() < 0.05:
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
    experimental = pc.ExperimentalQuantities.from_per_stratum(
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


def _sample_cells(scenario: pc.Scenario, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    order = scenario.outcome_cells()
    probs = np.array([p for _, p in order])
    return rng.multinomial(n, probs)


def sample_dataset(scenario: pc.Scenario, n: int, seed: int) -> pc.CountTable:
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
    return pc.CountTable.from_rows(rows, covariates=(scenario.s_name,
                                                     scenario.t_name))


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
    pooled = pc.collapse(joint, ()).only()
    for quantity, share in _SHARE.items():
        weights = {key: share(t) for key, t in joint.items()}
        total = 1.0 if quantity == "PNS" else sum(weights.values())
        lower = upper = 0.0
        for key, t in joint.items():
            searched = pc.feasible_extrema(t, experimental.pair(key), quantity)
            lower += weights[key] / total * searched.lower
            upper += weights[key] / total * searched.upper
        strat = pc.stratified_interval(quantity, joint, experimental)
        assert strat.lower == pytest.approx(lower, abs=tol)
        assert strat.upper == pytest.approx(upper, abs=tol)

        tp = pc.tian_pearl_interval(quantity, pooled, experimental.marginal)
        searched = pc.feasible_extrema(pooled, experimental.marginal, quantity)
        assert tp.lower == pytest.approx(searched.lower, abs=tol)
        assert tp.upper == pytest.approx(searched.upper, abs=tol)
