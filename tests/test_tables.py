"""The array-backed table layer against the scalar loops it replaced.

``load_counts`` parses in one pass, and ``to_probabilities``, ``collapse``,
``adjusted_experimental``, ``validate_compatibility`` and
``stratified_interval`` read a joint's cell and weight arrays.  The
``reference_*`` functions in ``conftest`` are those functions as they were,
one line or one stratum at a time; here the two must agree on the repr of
every endpoint, attainment, cell and weight, and on the text of every
error.  The examples come from ``hypothesis`` in derandomized mode.
"""

import io
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pcause as pc

from conftest import (
    random_joint,
    random_pair,
    random_stratum,
    reference_adjusted_experimental,
    reference_collapse,
    reference_load_counts,
    reference_stratified_interval,
    reference_to_probabilities,
    reference_validate_compatibility,
)

QUANTITIES = ("PN", "PS", "PNS")

repeatable = settings(derandomize=True, database=None, deadline=None,
                      max_examples=150)


def _outcome(function, *args):
    """The repr of what ``function`` returns, or its error's type and text."""
    try:
        result = function(*args)
    except pc.PcauseError as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, pc.StratifiedJoint):
        tables = [t for _, t in result.items()]
        assert result.cells.tolist() == [
            [t.p_exposed_event, t.p_exposed_noevent, t.p_unexposed_event,
             t.p_unexposed_noevent] for t in tables]
        assert result.weights.tolist() == [t.weight for t in tables]
    return repr(result)


def _violations(joint, experimental):
    report = pc.validate_compatibility(joint, experimental)
    return [(v.stratum, v.constraint, v.amount) for v in report.violations]


def assert_same_tables(joint, experimental):
    """Every array path agrees with its scalar loop on this joint and pair."""
    for quantity in QUANTITIES:
        assert _outcome(pc.stratified_interval, quantity, joint, experimental) \
            == _outcome(reference_stratified_interval, quantity, joint,
                        experimental)
    assert _outcome(_violations, joint, experimental) == _outcome(
        reference_validate_compatibility, joint, experimental)
    assert _outcome(pc.adjusted_experimental, joint) == _outcome(
        reference_adjusted_experimental, joint)
    for n_keep in range(len(joint.covariates) + 1):
        for keep in itertools.permutations(joint.covariates, n_keep):
            assert _outcome(pc.collapse, joint, keep) == _outcome(
                reference_collapse, joint, keep)


# Joints over covariates g and h.  Raw cell masses run down to 1e-3 of the
# largest, some are exactly zero, and a few repeat so that terms tie.
# Pairs sit anywhere in their range, often on an edge, and sometimes drift
# past it: within the screen's 1e-3 (clipped) or beyond it (rejected).
_mass = st.one_of([st.floats(min_value=1e-3, max_value=1.0)] * 6
                  + [st.just(0.0), st.sampled_from((0.25, 0.5))])
_position = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                      st.sampled_from((0.0, 0.5, 1.0)))
_drift = st.one_of(st.just(0.0), st.just(0.0),
                   st.floats(min_value=-0.9e-3, max_value=0.9e-3),
                   st.sampled_from((-2e-3, 2e-3)))
_stratum = st.tuples(st.lists(_mass, min_size=4, max_size=4).filter(any),
                     st.floats(min_value=1e-3, max_value=1.0),
                     _position, _position, _drift, _drift)
_levels = st.lists(st.tuples(st.sampled_from("12"), st.sampled_from("abc")),
                   min_size=1, max_size=6, unique=True)


def _joint(draws, levels, total_n=None):
    draws = draws[:len(levels)]
    total_weight = sum(w for _, w, *_ in draws)
    strata, pairs = {}, {}
    for (cells, w, u, v, du, dv), (g, h) in zip(draws, levels):
        key = pc.StratumKey.of(g=g, h=h)
        table = strata[key] = pc.StratumTable(
            *(c / sum(cells) for c in cells), weight=w / total_weight)
        pairs[key] = (
            min(1.0, max(0.0, table.p_exposed_event
                         + u * table.p_unexposed + du)),
            min(1.0, max(0.0, table.p_unexposed_event
                         + v * table.p_exposed + dv)))
    joint = pc.StratifiedJoint(strata=strata, covariates=("g", "h"),
                               total_n=total_n)
    return joint, pc.ExperimentalQuantities.from_per_stratum(
        joint, pairs, provenance="measured-experimental")


@repeatable
@given(st.lists(_stratum, min_size=6, max_size=6), _levels)
# every pair on an edge of its range, and cells with equal masses
@example([([0.25, 0.25, 0.25, 0.25], 1.0, 0.0, 1.0, 0.0, 0.0),
          ([0.5, 0.25, 0.25, 0.5], 1.0, 1.0, 0.0, 0.0, 0.0)] * 3,
         [("1", "a"), ("2", "a"), ("1", "b")])
# no exposed cases anywhere: PN is undefined
@example([([0.0, 0.5, 0.5, 0.5], 1.0, 0.5, 0.5, 0.0, 0.0)] * 6,
         [("1", "a"), ("2", "b")])
# a pair past its range by more than the screen accepts
@example([([0.3, 0.2, 0.1, 0.4], 1.0, 0.5, 1.0, 0.0, 2e-3)] * 6,
         [("1", "a"), ("1", "b"), ("2", "c")])
def test_array_paths_match_the_scalar_loops(draws, levels):
    assert_same_tables(*_joint(draws, levels))


def test_two_thousand_strata():
    # enough strata that a pairwise sum (np.sum) and the left-to-right loop
    # give different last digits
    rng = np.random.default_rng(1010)
    weights = rng.dirichlet(np.ones(2000)).tolist()
    strata = {pc.StratumKey.of(g=str(i % 40), h=str(i // 40)):
              random_stratum(rng, w) for i, w in enumerate(weights)}
    joint = pc.StratifiedJoint(strata=strata, covariates=("g", "h"),
                               total_n=10**6)
    pairs = {key: random_pair(rng, t) for key, t in joint.items()}
    assert_same_tables(joint, pc.ExperimentalQuantities.from_per_stratum(
        joint, pairs, provenance="measured-experimental"))

    counts = pc.CountTable.from_rows(
        ((key, x, y, int(rng.integers(1, 10**6)))
         for key in joint.keys() for x in (1, 0) for y in (1, 0)),
        covariates=("g", "h"))
    for smoothing in ("none", "add-half"):
        assert _outcome(pc.to_probabilities, counts, smoothing) == \
            _outcome(reference_to_probabilities, counts, smoothing)


def test_random_joint_draws_many_strata():
    joint = random_joint(np.random.default_rng(7), 2000)
    assert joint.n_strata == 2000


# Counts files: levels with commas, quotes and a leading '#', spaces around
# fields, every cell once plus duplicates on lines apart, now and then a
# missing cell, comments, blank lines and mixed line endings, and rarely a
# bad field or a huge count.  Each level keeps one spelling in a file.
_level = st.sampled_from(("1", "2", "10", "a b", "a,b", 'say "hi"', "#3",
                          "é", ""))
_pad = st.sampled_from(("", "", " ", "  ", "\t"))
_count = st.one_of(st.integers(0, 60).map(str), st.integers(0, 60).map(str),
                   st.sampled_from(("+7", "1_000", "007", "1" + "0" * 308,
                                    str(2**64 + 1), str(2**53 + 1))))
# one x, y or count field in 80 is bad
_bad = st.sampled_from((False,) * 79 + (True,))
_bad_count = st.sampled_from(("-1", "1.5", "x", ""))
_ending = st.sampled_from(("\n", "\n", "\r\n", "\r"))
_junk = st.sampled_from(("# note", "  # x,y", "", " "))


def _field(text):
    if any(c in text for c in ',"') or text.startswith("#"):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def counts_files(draw):
    names = draw(st.sampled_from((["g"], ["g", "h"], ["h", "g"], [])))
    columns = draw(st.permutations(names + ["x", "y", "count"]))
    spelled = {(name, level): draw(_pad) + level + draw(_pad)
               for name in names for level in ("1", "2", "10", "a b", "é")}
    levels = draw(st.lists(st.tuples(*[_level for _ in names]), min_size=1,
                           max_size=4, unique=True))
    cells = [(lv, x, y) for lv in levels for x in "10" for y in "10"]
    cells = cells[draw(st.sampled_from((0,) * 5 + (1,))):]
    cells += draw(st.lists(st.sampled_from(cells), max_size=6))
    lines = [",".join(draw(_pad) + c + draw(_pad) for c in columns)]
    for stratum, x, y in draw(st.permutations(cells)):
        row = {"x": draw(_pad) + ("2" if draw(_bad) else x) + draw(_pad),
               "y": ("2" if draw(_bad) else y) + draw(_pad),
               "count": draw(_pad) + draw(_bad_count if draw(_bad)
                                          else _count)}
        for name, level in zip(names, stratum):
            row[name] = spelled.get((name, level)) or _field(level)
        lines.append(",".join(row[c] for c in columns))
        lines += draw(st.lists(_junk, max_size=1))
    return "".join(line + draw(_ending) for line in lines)


def _loaded(load, text):
    counts = load(io.StringIO(text))
    return repr(counts), counts.total, list(counts.rows())


@repeatable
@given(counts_files())
@example("s,x,y,count\r\n1,1,1,3\r2,0,0,4\n# c\n\n1,1,1,5\n1,0,0,2")
@example('g,x,y,count\n"#1",1,1,3\n"a,b" , 0,0, 4\n"#1",1,1,2\n')
# a quote that the csv module would carry onto the next line
@example('g,x,y,count\n"a,1,1,3\nb",1,1,3\n')
def test_parsing_matches_the_line_by_line_loop(text):
    loaded = _outcome(_loaded, pc.load_counts, text)
    assert loaded == _outcome(_loaded, reference_load_counts, text)
    if loaded.startswith("ParseError"):
        return
    counts = pc.load_counts(io.StringIO(text))
    for smoothing in ("none", "add-half"):
        assert _outcome(pc.to_probabilities, counts, smoothing) == \
            _outcome(reference_to_probabilities, counts, smoothing)


@pytest.mark.parametrize("text", [
    "s,x,y,count\na,1,1,3\n a,1,0,4\n",
    "s,x,y,count\n\x85,1,1,3\n,1,0,4\n",
])
def test_respelled_levels_are_an_error_the_old_loop_merged(text):
    merged = reference_load_counts(io.StringIO(text))
    assert len({key for key, *_ in merged.rows()}) == 1
    with pytest.raises(pc.ParseError, match="line 3: covariate 's'"):
        pc.load_counts(io.StringIO(text))
