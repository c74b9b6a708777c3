"""The point estimates' a.var against sympy's delta method, in exact
rationals, on seeded rational populations of one to three strata.

sympy differentiates each estimand's formula in the stratum cells, and
the quadratic form is worked out exactly under three sampling models of n
subjects:

* arms fixed: each stratum's exposed and unexposed arms are binomials of
  n P(x, s) and n P(x', s) subjects;
* shares fixed: each stratum is one multinomial of n P(s) subjects over
  its four cells;
* full: one multinomial over all 4K cells P(x, y, s).

``pn_point`` and ``pns_point`` give the arms-fixed a.var.  PNS does not
depend on the exposure shares P(x|s), so its a.var is also the
shares-fixed one, and the full multinomial adds exactly
sum_s P(s) (RD_s - PNS)^2 / n.  PN does depend on them: the shares-fixed
a.var adds exactly sum_s P(s) P(x|s) P(x'|s) E_s^2 / (n P(x,y)^2), with
E_s = P(y|x,s) (1 - PN) - P(y|x',s), which vanishes with one stratum.
"""

import random

import pytest

from pcause import StratifiedJoint, StratumKey, StratumTable
from pcause.identify import pn_point, pns_point

sp = pytest.importorskip("sympy")

N = 1000


def _symbols(k, name="q"):
    """Each stratum's four cells, in slot order (x y, x y', x' y, x' y'),
    as symbols."""
    return [sp.symbols(f"{name}{s}_0:4", positive=True) for s in range(k)]


def _estimands(cells, shares):
    """PN and PNS in each stratum's cells P(x, y | s), at the ``shares``."""
    risk_x = [xy / (xy + xny) for xy, xny, _, _ in cells]
    risk_xp = [nxy / (nxy + nxny) for _, _, nxy, nxny in cells]
    p_xy = sum(w * q[0] for w, q in zip(shares, cells))
    pn = sum(w * ((1 - rxp) - (q[1] + q[3]))
             for w, q, rxp in zip(shares, cells, risk_xp)) / p_xy
    pns = sum(w * (rx - rxp) for w, rx, rxp in zip(shares, risk_x, risk_xp))
    return {"PN": pn, "PNS": pns}


def _population(seed, k):
    """k strata's rational cells and shares, all positive."""
    rng = random.Random(seed * 10 + k)
    cells = []
    for _ in range(k):
        counts = [rng.randint(1, 60) for _ in range(4)]
        cells.append([sp.Rational(c, sum(counts)) for c in counts])
    sizes = [rng.randint(1, 30) for _ in range(k)]
    return cells, [sp.Rational(m, sum(sizes)) for m in sizes]


def _covariance(cells):
    """A multinomial's covariance per subject, over the cells' masses."""
    c = sp.Matrix(cells)
    return sp.diag(*c) - c * c.T / sum(cells)


def _held_avar(expr, symbols, values, weights, arms):
    """The delta method of ``expr``, in the cells ``symbols``, at the cells
    ``values`` and the shares ``weights``, held fixed: each stratum a
    multinomial of n P(s) subjects, or with ``arms`` two, of n P(x, s) and
    n P(x', s) subjects."""
    at = {sym: v for syms, vals in zip(symbols, values)
          for sym, v in zip(syms, vals)}
    avar = sp.Integer(0)
    for syms, q, w in zip(symbols, values, weights):
        grad = sp.Matrix([sp.diff(expr, sym).xreplace(at) for sym in syms])
        cov = (sp.diag(_covariance(q[:2]), _covariance(q[2:])) if arms
               else _covariance(q))
        avar += (grad.T * cov * grad)[0, 0] / (N * w)
    return avar


def _full_avar(expr, symbols, shares, values, weights):
    """The delta method over one multinomial of all 4K cells P(x, y, s):
    ``expr`` is in the cells ``symbols`` and the ``shares``, each of which
    becomes a function of the 4K cells."""
    joint = _symbols(len(values), "p")
    to_joint = {share: sum(p_s) for share, p_s in zip(shares, joint)}
    to_joint.update({sym: p / sum(p_s) for syms, p_s in zip(symbols, joint)
                     for sym, p in zip(syms, p_s)})
    free = expr.xreplace(to_joint)
    flat = [p for p_s in joint for p in p_s]
    point = [w * q for w, q_s in zip(weights, values) for q in q_s]
    at = dict(zip(flat, point))
    grad = sp.Matrix([sp.diff(free, p).xreplace(at) for p in flat])
    return (grad.T * _covariance(point) * grad)[0, 0] / N


def _joint(values, weights):
    strata = {StratumKey.of(g=str(s)): StratumTable(*map(float, q),
                                                    weight=float(w))
              for s, (q, w) in enumerate(zip(values, weights))}
    return StratifiedJoint(strata=strata, covariates=("g",), total_n=N)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", range(8))
class TestSymbolicAvar:
    def test_avar_is_the_arms_fixed_delta_method(self, k, seed):
        values, weights = _population(seed, k)
        symbols = _symbols(k)
        exprs = _estimands(symbols, weights)
        joint = _joint(values, weights)
        for quantity, point in (("PN", pn_point), ("PNS", pns_point)):
            exact = _held_avar(exprs[quantity], symbols, values, weights,
                               arms=True)
            assert exact > 0
            assert point(joint).avar == pytest.approx(float(exact), rel=1e-12)

    def test_pns_holds_only_the_shares_fixed(self, k, seed):
        values, weights = _population(seed, k)
        symbols = _symbols(k)
        pns = _estimands(symbols, weights)["PNS"]
        assert (_held_avar(pns, symbols, values, weights, arms=False)
                == _held_avar(pns, symbols, values, weights, arms=True))

    def test_pn_with_shares_fixed_adds_the_exposure_share_term(self, k, seed):
        values, weights = _population(seed, k)
        symbols = _symbols(k)
        pn = _estimands(symbols, weights)["PN"]
        gap = (_held_avar(pn, symbols, values, weights, arms=False)
               - _held_avar(pn, symbols, values, weights, arms=True))
        value = _estimands(values, weights)["PN"]
        p_xy = sum(w * q[0] for w, q in zip(weights, values))
        term = 0
        for (xy, xny, nxy, nxny), w in zip(values, weights):
            a = xy + xny
            e = xy / a * (1 - value) - nxy / (nxy + nxny)
            term += w * a * (1 - a) * e ** 2
        assert gap == term / (N * p_xy ** 2)
        assert (gap > 0) == (k > 1)

    def test_full_multinomial_adds_the_between_strata_term(self, k, seed):
        values, weights = _population(seed, k)
        symbols = _symbols(k)
        shares = sp.symbols(f"w0:{k}", positive=True)
        pns = _estimands(symbols, shares)["PNS"]
        fixed = _held_avar(pns.xreplace(dict(zip(shares, weights))),
                           symbols, values, weights, arms=False)
        full = _full_avar(pns, symbols, shares, values, weights)
        rds = [q[0] / (q[0] + q[1]) - q[2] / (q[2] + q[3]) for q in values]
        value = sum(w * rd for w, rd in zip(weights, rds))
        between = sum(w * (rd - value) ** 2
                      for w, rd in zip(weights, rds)) / N
        assert full - fixed == between
        assert (between > 0) == (k > 1)
