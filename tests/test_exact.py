"""Every printed interval against its exact value in rationals.

With sita-adjusted pairs, each box, stratified endpoint and Tian-Pearl
endpoint is a rational function of the integer counts.
``conftest.exact_intervals`` computes them in ``fractions.Fraction`` from
the bounds' closed forms, so no float enters the reference; every endpoint
the library prints must lie within 1e-12 of it.
"""

import numpy as np
import pytest

import pcause as pc

from conftest import exact_gap, reference_count_table

_CELLS = ((1, 1), (1, 0), (0, 1), (0, 0))


def _grid(shape, seed):
    """An s x t table of counts 1-999 drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    rows = [(pc.StratumKey.of(s=str(s), t=str(t)), x, y, int(n))
            for s in range(shape[0]) for t in range(shape[1])
            for (x, y), n in zip(_CELLS, rng.integers(1, 1000, size=4))]
    return reference_count_table(rows, ("s", "t"))


def test_fixture_is_exact(cancer_counts):
    assert exact_gap(cancer_counts) <= 1e-12


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_seeded_grids_are_exact(shape, seed):
    assert exact_gap(_grid(shape, seed)) <= 1e-12


@pytest.mark.xfail(strict=True, reason="the PS numerator cancels in floats: "
                   "the pair is (1.0, 1.0) before the bounds run, and PS "
                   "prints 0.0 where the exact value is 0.25")
def test_cancelling_ps_table_is_exact():
    counts = reference_count_table(
        [(pc.StratumKey(()), x, y, n)
         for (x, y), n in zip(_CELLS, (10**17, 3, 10**17, 4))], ())
    assert exact_gap(counts) <= 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="PN's excess numerator, "
                   "(1 - P(y_x'|s)) - P(y'|s), cancels in floats: in stratum "
                   "6 both terms are within 1e-9 of 1 and differ by 2.6e-10, "
                   "so its PN lower end is 1.04e-7 from the exact value")
def test_tiny_ends_table_is_exact():
    # six strata of counts 3, 10**(3 + k), 1 and 10**(4 + k) + k, whose box
    # ends run from 3e-9 to 3e-4
    counts = reference_count_table(
        [(pc.StratumKey.of(s=str(k)), x, y, n) for k in range(1, 7)
         for (x, y), n in zip(_CELLS, (3, 10**(3 + k), 1, 10**(4 + k) + k))],
        ("s",))
    assert exact_gap(counts) <= 1e-12
