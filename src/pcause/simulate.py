"""Sampling experiments for the point estimators and their variances.

A :class:`Scenario` is a population over a binary exposure and two
covariates: cell probabilities P(x, s, t) plus outcome conditionals
P(y | x, s).  Because the outcome ignores t given (x, s) and four built-in
scenarios make exposure depend on covariates only through t, the premises
of :mod:`pcause.covselect` hold by construction and different covariate
sets estimate the same quantities at different precision.

:func:`replicate_study` draws many datasets of size n, computes the PN and
PNS point estimates under each stratifier, and compares the spread of the
estimates across replications with the asymptotic variance formulas.
Draw a of replication r comes from the PCG64 stream of
``SeedSequence(seed, spawn_key=(r, a))``, whatever the order in which the
draws are made: :func:`_seed_words` derives those streams' seed words for
many replications in one array pass.  Replications that produce an empty
cell under any stratifier are discarded and redrawn with the next attempt's
substream, in rounds: each round draws every replication still pending and
screens the round's draws together.  The study records how often that
happened and refuses to summarize when more than a tenth of all draws were
degenerate.  The kept draws are scored in one batch per stratifier, through
the array function behind :func:`~pcause.identify.pn_point` and
:func:`~pcause.identify.pns_point`, with the floats those give one dataset
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DegenerateScenarioError, ParseError, ValidationError
from .identify import _no_prevention, pn_point, pns_point
from .model import (
    _SUM_TOL,
    Source,
    StratifiedJoint,
    StratumKey,
    _Coded,
    _cell_slot,
    _groups,
    _normalised,
    _read_json,
)

_MAX_DISCARD_RATE = 0.10
_MAX_ATTEMPTS_PER_REP = 50

# the constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class Scenario:
    """A synthetic population with two covariates and known conditionals."""

    name: str
    cells: Mapping[tuple[int, str, str], float]
    outcome_conditionals: Mapping[tuple[int, str], float]
    s_name: str = "s"
    t_name: str = "t"

    def __post_init__(self) -> None:
        if self.s_name == self.t_name:
            raise ValidationError("covariate names must differ")
        cleaned = {}
        total = 0.0
        for (x, s, t), p in sorted(self.cells.items()):
            if x not in (0, 1):
                raise ValidationError(f"exposure level {x!r} not in {{0, 1}}")
            if not (p > 0.0):
                raise ValidationError(
                    f"cell (x={x}, {self.s_name}={s}, {self.t_name}={t}) "
                    f"needs positive probability, got {p!r}")
            cleaned[(x, str(s), str(t))] = float(p)
            total += p
        if abs(total - 1.0) > _SUM_TOL:
            raise ValidationError(f"cell probabilities sum to {total!r}, not 1")
        conds = {}
        for (x, s), p in sorted(self.outcome_conditionals.items()):
            if not (0.0 < p < 1.0):
                raise ValidationError(
                    f"outcome conditional for (x={x}, {self.s_name}={s}) "
                    f"must lie strictly inside (0, 1), got {p!r}")
            conds[(x, str(s))] = float(p)
        for (x, s, _t) in cleaned:
            if (x, s) not in conds:
                raise ValidationError(
                    f"missing outcome conditional for (x={x}, {self.s_name}={s})")
        object.__setattr__(self, "cells", cleaned)
        object.__setattr__(self, "outcome_conditionals", conds)

    def outcome_cells(self) -> tuple[tuple[tuple[int, str, str, int], float], ...]:
        """The sampling distribution over (x, s, t, y), in a fixed order."""
        out = []
        for (x, s, t), p in self.cells.items():
            q = self.outcome_conditionals[(x, s)]
            out.append(((x, s, t, 1), p * q))
            out.append(((x, s, t, 0), p * (1.0 - q)))
        return tuple(sorted(out))

    def population_joint(self, stratifier: Sequence[str],
                         n: int | None = None) -> StratifiedJoint:
        """The exact joint this scenario induces under a stratifier."""
        strat = tuple(sorted(stratifier))
        strata, positions = _stratifier_layout(self, strat)
        probs = [p for _, p in self.outcome_cells()]
        sums = np.bincount(positions, weights=probs, minlength=4 * len(strata))
        cells, weights = _normalised(sums.reshape(-1, 4), 1.0)
        return StratifiedJoint._of(strata, cells, weights, n)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "s_name": self.s_name,
            "t_name": self.t_name,
            "cells": [{"x": x, "s": s, "t": t, "p": p}
                      for (x, s, t), p in self.cells.items()],
            "outcome_conditionals": [{"x": x, "s": s, "p": p}
                                     for (x, s), p in
                                     self.outcome_conditionals.items()],
        }


def _exposure(value: object) -> int:
    """An exposure level read as an int; a float must be integral."""
    x = int(value)
    if isinstance(value, float) and x != value:
        raise ValueError(f"exposure level {value!r} is not an integer")
    return x


def load_scenario(source: Source) -> Scenario:
    data = _read_json(source, "scenario")
    try:
        cells = {(_exposure(e["x"]), str(e["s"]), str(e["t"])): float(e["p"])
                 for e in data["cells"]}
        conds = {(_exposure(e["x"]), str(e["s"])): float(e["p"])
                 for e in data["outcome_conditionals"]}
        return Scenario(name=str(data.get("name", "scenario")),
                        cells=cells,
                        outcome_conditionals=conds,
                        s_name=str(data.get("s_name", "s")),
                        t_name=str(data.get("t_name", "t")))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer too large for a float
        raise ParseError(f"malformed scenario: {exc}") from exc


def builtin_scenarios() -> tuple[Scenario, ...]:
    """Four populations with matched outcome conditionals.

    In all of them P(y | x, s) is 0.7/0.3 for the exposed in s=1/2 and
    0.8/0.4 for the unexposed, while the (x, s, t) design varies: 1 has a
    strong s-t association, 2 weakens it, 3 ties exposure strongly to t,
    and 4 is nearly balanced.
    """
    designs = {
        "setting-1": {(1, "1", "1"): 0.32, (1, "2", "1"): 0.08,
                      (1, "1", "2"): 0.02, (1, "2", "2"): 0.08,
                      (0, "1", "1"): 0.08, (0, "2", "1"): 0.02,
                      (0, "1", "2"): 0.08, (0, "2", "2"): 0.32},
        "setting-2": {(1, "1", "1"): 0.20, (1, "2", "1"): 0.05,
                      (1, "1", "2"): 0.04, (1, "2", "2"): 0.16,
                      (0, "1", "1"): 0.20, (0, "2", "1"): 0.05,
                      (0, "1", "2"): 0.06, (0, "2", "2"): 0.24},
        "setting-3": {(1, "1", "1"): 0.20, (1, "2", "1"): 0.20,
                      (1, "1", "2"): 0.04, (1, "2", "2"): 0.06,
                      (0, "1", "1"): 0.05, (0, "2", "1"): 0.05,
                      (0, "1", "2"): 0.16, (0, "2", "2"): 0.24},
        "setting-4": {(1, "1", "1"): 0.10, (1, "2", "1"): 0.10,
                      (1, "1", "2"): 0.10, (1, "2", "2"): 0.15,
                      (0, "1", "1"): 0.15, (0, "2", "1"): 0.15,
                      (0, "1", "2"): 0.10, (0, "2", "2"): 0.15},
    }
    conditionals = {(1, "1"): 0.7, (1, "2"): 0.3, (0, "1"): 0.8, (0, "2"): 0.4}
    return tuple(Scenario(name=name, cells=cells,
                          outcome_conditionals=conditionals)
                 for name, cells in designs.items())


@dataclass(frozen=True)
class ReplicationResult:
    """Variance summary for one (quantity, stratifier) combination."""

    quantity: str
    stratifier: tuple[str, ...]
    n: int
    reps: int
    empirical_var: float
    mean_avar: float
    population_avar: float


@dataclass(frozen=True)
class ReplicationStudy:
    scenario: str
    n: int
    reps: int
    seed: int
    results: tuple[ReplicationResult, ...]
    discarded: int
    attempts: int


def _stratifier_layout(scenario: Scenario, stratifier: tuple[str, ...],
                       ) -> tuple[_Coded, np.ndarray]:
    """The strata in joint order, and each sampling cell's (stratum, table
    slot) position."""
    cells = scenario.outcome_cells()
    # each sampling cell's stratum under {s, t}, in cell order: _groups
    # takes rows in any order, repeated
    index, strata = _groups(_Coded.of(
        [StratumKey(((scenario.s_name, s), (scenario.t_name, t)))
         for (_x, s, t, _y), _p in cells]), stratifier)
    positions = np.array([group * 4 + _cell_slot(x, y)
                          for group, ((x, _s, _t, y), _p) in zip(index, cells)])
    return strata, positions


def _cell_sums(draws: np.ndarray, n_strata: int,
               positions: np.ndarray) -> np.ndarray:
    """Each draw's counts summed into its (n_strata * 4) table slots."""
    sums = np.zeros((len(draws), 4 * n_strata))
    for cell, position in enumerate(positions):
        sums[:, position] += draws[:, cell]
    return sums


def _replicate_tables(draws: np.ndarray, strata: _Coded,
                      positions: np.ndarray, n: int,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Each draw's (K, 4) cells and (K,) weights under one stratifier, as
    :func:`~pcause.model._normalised` gives them from the counts and n."""
    sums = _cell_sums(draws, len(strata), positions)
    return _normalised(sums.reshape(len(draws), len(strata), 4), n)


def _word_count(entropy: object) -> int:
    """How many 32-bit words numpy splits a seed's entropy into."""
    values = [entropy] if isinstance(entropy, (int, np.integer)) else entropy
    return sum(max(1, -(-int(v).bit_length() // 32)) for v in values)


def _hashed(value: np.ndarray, hash_const: int, mult: int,
            ) -> tuple[np.ndarray, int]:
    """numpy's ``hashmix`` of uint32 words, and the advanced constant."""
    value = value ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ value >> np.uint32(16), hash_const


def _seed_words(seed: object, rows: np.ndarray, attempt: int) -> np.ndarray:
    """Row i is ``SeedSequence(seed, spawn_key=(rows[i], attempt))``'s
    ``generate_state(4, np.uint64)``, for every row in one array pass.

    numpy pads the seed's words to the pool size of 4 before the spawn
    words, so the pool of ``SeedSequence(seed)`` is the spawned pool before
    the two spawn words are mixed in; the hash constant has by then been
    advanced once per word for the first 4, 12 times in the all-to-all mix
    and 4 times per word after the fourth.  The rows must be below 2**32,
    each one spawn word.
    """
    base = np.random.SeedSequence(seed)
    hash_const = _INIT_A * pow(
        _MULT_A, 16 + 4 * (max(4, _word_count(base.entropy)) - 4),
        1 << 32) & _MASK32
    pool = np.tile(base.pool, (len(rows), 1))
    for word in (rows.astype(np.uint32),
                 np.full(len(rows), attempt, dtype=np.uint32)):
        for i in range(4):
            hashed, hash_const = _hashed(word, hash_const, _MULT_A)
            mixed = (pool[:, i] * np.uint32(_MIX_MULT_L)
                     - hashed * np.uint32(_MIX_MULT_R))
            pool[:, i] = mixed ^ mixed >> np.uint32(16)
    state = np.empty((len(rows), 8), dtype=np.uint64)
    hash_const = _INIT_B
    for i in range(8):
        state[:, i], hash_const = _hashed(pool[:, i % 4], hash_const, _MULT_B)
    # little-endian word pairs, whatever the machine's byte order
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


class _Words(ISeedSequence):
    """A seed sequence that hands a bit generator precomputed words."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def _draw(draws: np.ndarray, rows: np.ndarray, seed: object, attempt: int,
          n: int, probs: np.ndarray) -> None:
    """Draw attempt ``attempt`` of each replication in ``rows`` into its
    row of ``draws``.

    Row by row and in a function of its own, so that neither a list of the
    round's draws nor a view of the round's seed words outlives the round:
    either raised the peak resident set of a process running
    5000-replication studies by 0.6 MB or more.
    """
    for r, words in zip(rows.tolist(), _seed_words(seed, rows, attempt)):
        draws[r] = np.random.Generator(
            np.random.PCG64(_Words(words))).multinomial(n, probs)


def replicate_study(scenario: Scenario, n: int, reps: int,
                    seed: int) -> ReplicationStudy:
    """Empirical versus asymptotic variance over many replications, with
    each of {s}, {t} and {s, t} as the stratifier.

    Each replication r draws from a substream keyed by (seed, r, attempt);
    a draw with an empty (stratum, x, y) cell under any of the three is
    discarded and the attempt counter advanced, so the surviving datasets
    are reproducible regardless of how many redraws other replications
    needed.  The draws are made in rounds: round a draws attempt a of
    every replication still pending.  When a replication's 50th attempt
    fails, the error names the first such replication.  Once all draws are
    in, each stratifier's replications are scored together as one
    (reps, K, 4) array of cells.
    """
    if reps < 2:
        raise ValidationError("need at least two replications for a variance")
    if reps >= 2**32:
        # a replication's number is one 32-bit spawn word (_seed_words)
        raise ValidationError(f"reps must be below 2**32, got {reps!r}")
    if n < 1:
        raise ValidationError(f"sample size must be positive, got {n!r}")
    strat_list = [(scenario.s_name,), (scenario.t_name,),
                  tuple(sorted((scenario.s_name, scenario.t_name)))]

    layouts = {strat: _stratifier_layout(scenario, strat)
               for strat in strat_list}
    probs = np.array([p for _, p in scenario.outcome_cells()])

    # each {s} or {t} cell is a sum of {s, t} cells, so a draw has an empty
    # cell under some stratifier iff it has one under {s, t}
    strata, positions = layouts[strat_list[-1]]
    draws = np.empty((reps, len(probs)), dtype=np.int64)
    pending = np.arange(reps)
    attempts = 0
    for attempt in range(_MAX_ATTEMPTS_PER_REP):
        _draw(draws, pending, seed, attempt, n, probs)
        attempts += len(pending)
        pending = pending[(_cell_sums(draws[pending], len(strata), positions)
                           <= 0.0).any(axis=1)]
        if not len(pending):
            break
    else:
        raise DegenerateScenarioError(
            f"replication {pending.min()}: {_MAX_ATTEMPTS_PER_REP} consecutive "
            f"draws had empty cells at n={n}; the scenario is too sparse")
    discarded = attempts - reps

    if discarded / attempts > _MAX_DISCARD_RATE:
        raise DegenerateScenarioError(
            f"{discarded} of {attempts} draws had empty cells "
            f"(rate {discarded / attempts:.1%} exceeds {_MAX_DISCARD_RATE:.0%}); "
            f"increase n or merge strata")

    results = []
    for strat in strat_list:
        strata, positions = layouts[strat]
        cells, weights = _replicate_tables(draws, strata, positions, n)
        population = scenario.population_joint(strat, n)
        for quantity, point in (("PN", pn_point), ("PNS", pns_point)):
            values, avars = _no_prevention(quantity, cells, weights, n,
                                           strata)
            results.append(ReplicationResult(
                quantity=quantity,
                stratifier=strat,
                n=n,
                reps=reps,
                empirical_var=float(np.var(values, ddof=1)),
                mean_avar=float(np.mean(avars)),
                population_avar=point(population).avar,
            ))
    return ReplicationStudy(scenario=scenario.name, n=n, reps=reps, seed=seed,
                            results=tuple(results), discarded=discarded,
                            attempts=attempts)
