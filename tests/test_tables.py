"""The array-backed table layer against the scalar loops it replaced.

``load_counts`` parses in one pass, and ``to_probabilities``, ``collapse``,
``adjusted_experimental``, ``validate_compatibility`` and
``stratified_interval`` read a joint's cell and weight arrays.  Both
collapses share one grouping, and ``ExperimentalQuantities`` checks and
clips its pairs as one array.  The arrays are what a joint and its pairs
store: the per-stratum tables and pairs are views built from them.  The
``reference_*`` functions in ``conftest`` are those functions as they were,
one line, one stratum or one value at a time; here the two must agree on
the repr of every endpoint, attainment, cell, weight, count and pair, and
on the text of every error.  The examples come from ``hypothesis`` in
derandomized mode.
"""

import io
import itertools
import json
import math
import pickle
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pcause as pc
from pcause import model
from pcause.cli import run
from pcause.model import (
    CountTable,
    ExperimentalQuantities,
    _Coded,
    collapse,
    load_experimental,
    render_counts,
    validate_compatibility,
)

from conftest import (
    random_joint,
    random_pair,
    random_stratum,
    reference_adjusted_experimental,
    reference_collapse,
    reference_count_collapse,
    reference_count_table,
    reference_from_per_stratum,
    reference_joint_of,
    reference_load_counts,
    reference_load_experimental,
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
    if isinstance(result, pc.ExperimentalQuantities):
        assert not result.pairs.flags.writeable
        return repr(result), repr(result.pairs.tolist())
    if isinstance(result, CountTable):
        return repr((result.covariates, list(result.rows())))
    return repr(result)


def _violations(joint, experimental):
    report = validate_compatibility(joint, experimental)
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
    per, provenance = experimental.per_stratum, experimental.provenance
    assert _outcome(ExperimentalQuantities._weighted, joint,
                    [per[key] for key in joint.keys()], provenance) == \
        _outcome(reference_from_per_stratum, joint, per, provenance)
    for keep in _keeps(joint.covariates):
        assert _outcome(collapse, joint, keep) == _outcome(
            reference_collapse, joint, keep)


def _keeps(covariates):
    """Every ordering of every subset of the covariates, each also with its
    first name repeated, and one unknown name."""
    for n_keep in range(len(covariates) + 1):
        for keep in itertools.permutations(covariates, n_keep):
            yield keep
            yield keep + keep[:1]
    yield covariates + ("zz",)


def assert_same_counts(counts):
    """The count collapse agrees with its row loop for every ``keep``, and
    rejects a repeated name, which the row loop let through."""
    for keep in _keeps(counts.covariates):
        if len(set(keep)) < len(keep):
            with pytest.raises(pc.ValidationError,
                               match=r"^duplicate covariate names: \("):
                counts.collapse(keep)
        else:
            assert _outcome(counts.collapse, keep) == _outcome(
                reference_count_collapse, counts, keep)


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
    return joint, reference_from_per_stratum(
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
    assert_same_tables(joint, reference_from_per_stratum(
        joint, pairs, provenance="measured-experimental"))

    counts = reference_count_table(
        ((key, x, y, int(rng.integers(1, 10**6)))
         for key in joint.keys() for x in (1, 0) for y in (1, 0)),
        covariates=("g", "h"))
    for smoothing in ("none", "add-half"):
        assert _outcome(pc.to_probabilities, counts, smoothing) == \
            _outcome(reference_to_probabilities, counts, smoothing)
    assert_same_counts(counts)


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


# block sizes, in characters, that cut a counts file into many blocks
_SMALL_BLOCKS = (4, 24)


def _loaded(load, text):
    counts = load(io.StringIO(text))
    return counts.covariates, counts.total, list(counts.rows())


@repeatable
@given(counts_files())
@example("s,x,y,count\r\n1,1,1,3\r2,0,0,4\n# c\n\n1,1,1,5\n1,0,0,2")
@example('g,x,y,count\n"#1",1,1,3\n"a,b" , 0,0, 4\n"#1",1,1,2\n')
# a quote that the csv module would carry onto the next line
@example('g,x,y,count\n"a,1,1,3\nb",1,1,3\n')
# In blocks of a few characters: blocks that start with a comment and with
# a blank line,
@example("s,x,y,count\n1,1,1,3\n# c\n2,0,0,4\n\n2,1,1,1\n")
# a block of only comments after the header,
@example("s,x,y,count\n# a\n# b\n  # c\n1,1,1,3\n1,0,0,4\n")
# a quoted level only in a later block,
@example('g,x,y,count\n1,1,1,3\n1,0,0,2\n2,1,1,4\n"a,b",1,1,4\n')
# and one cell's rows in different blocks.
@example("s,x,y,count\n1,1,1,3\n2,0,0,4\n2,1,1,6\n1,1,1,5\n")
# Counts at the int64 edges: of 18 and 19 digits; of 2**63 - 1, 2**63 and
# 2**64 + 1;
@example(f"s,x,y,count\n1,1,1,{10**18 - 1}\n1,1,0,{10**18}\n1,0,1,7\n"
         "1,0,0,2\n")
@example(f"s,x,y,count\n1,1,1,{2**63 - 1}\n1,1,0,3\n1,0,1,2\n1,0,0,5\n")
@example(f"s,x,y,count\n1,1,1,{2**63}\n1,1,0,3\n2,0,1,{2**64 + 1}\n"
         "2,0,0,5\n")
# eleven rows on one cell, each within int64 while their sum is not;
@example("s,x,y,count\n" + "1,1,1,900000000000000000\n" * 11
         + "1,1,0,1\n1,0,1,1\n1,0,0,1\n")
# two strata whose total passes 2**63 while every cell fits;
@example(f"s,x,y,count\n1,1,1,{2**62}\n1,0,0,1\n2,1,1,{2**62}\n2,0,0,1\n")
# a count in Arabic-Indic digits, which int() reads as 3, and one padded
# with a no-break space;
@example("s,x,y,count\n1,1,1,\u0663\n1,1,0,\u00a07\n1,0,1,2\n1,0,0,4\n")
# and 2**53 + 1, which a float rounds.
@example(f"s,x,y,count\n1,1,1,{2**53 + 1}\n1,1,0,1\n1,0,1,1\n1,0,0,1\n")
# A lone surrogate, which text from a file-like source may hold.
@example("s,x,y,count\n\ud800,1,1,3\n\ud800,0,0,2\na\udfff,1,0,1\n")
def test_parsing_matches_the_line_by_line_loop(text):
    loaded = _outcome(_loaded, pc.load_counts, text)
    assert loaded == _outcome(_loaded, reference_load_counts, text)
    # the same, with the file cut into many blocks
    for size in _SMALL_BLOCKS:
        with patch.object(model, "_BLOCK", size):
            assert _outcome(_loaded, pc.load_counts, text) == loaded
    if loaded.startswith("ParseError"):
        return
    counts = pc.load_counts(io.StringIO(text))
    for smoothing in ("none", "add-half"):
        assert _outcome(pc.to_probabilities, counts, smoothing) == \
            _outcome(reference_to_probabilities, counts, smoothing)


# Lines that each hold one kind of fault.  Line 2 writes level 2 first, so
# " 2" respells it.
_LINE_FAULTS = {"width": "{s},1,1,3,9", "xy": "{s},1, 2,3",
                "count": "{s},0,0, -4", "spelling": " 2, 1,0,3"}


def _faulty_file(faults):
    """A counts file of 43 lines: the header, a comment on line 21, a blank
    line 22 and data on levels 0-9, except that ``faults`` maps line numbers
    to the kind of fault each holds."""
    lines = ["s,x,y,count"]
    for lineno in range(2, 44):
        level, (x, y) = lineno % 10, ((1, 1), (1, 0), (0, 1), (0, 0))[lineno % 4]
        lines.append(_LINE_FAULTS[faults[lineno]].format(s=level)
                     if lineno in faults
                     else {21: "# a comment", 22: ""}.get(
                         lineno, f"{level},{x},{y},{lineno}"))
    return "\n".join(lines) + "\n"


def _error(source, size=None):
    """The ParseError that loading ``source`` (a text or a path) raises,
    in blocks of ``size`` characters if given."""
    if isinstance(source, str):
        source = io.StringIO(source)
    with patch.object(model, "_BLOCK", size or model._BLOCK):
        with pytest.raises(pc.ParseError) as info:
            pc.load_counts(source)
    return str(info.value)


@pytest.mark.parametrize("first, second",
                         itertools.permutations(_LINE_FAULTS, 2))
def test_the_earlier_of_two_faults_in_different_blocks_is_named(first,
                                                                 second):
    text = _faulty_file({5: first, 33: second})
    alone = _faulty_file({5: first})
    expected = _error(alone)
    assert expected.startswith("line 5: ")
    if first != "spelling":
        # the line loop merged respellings, so it names the others only
        assert expected == _outcome(reference_load_counts,
                                    io.StringIO(alone)).split(": ", 1)[1]
    # in one block, and in blocks that put the two lines apart
    for size in (None, *_SMALL_BLOCKS, 40):
        assert _error(text, size) == expected
    # the later fault alone is named at its line
    assert _error(_faulty_file({33: second}), 40).startswith("line 33: ")


# In one block, and in blocks of 40 characters (the long line is one).
@pytest.mark.parametrize("size", [None, 40])
def test_a_field_over_the_size_limit_is_named_before_an_earlier_fault(size):
    text = "s,x,y,count\n1,1,1,-5\n" + "".join(
        f"{i},1,0,{i}\n" for i in range(30)) + "a" * 131_073 + ",0,0,1\n"
    assert _error(text, size) == \
        "line 33: field larger than field limit (131072)"


@pytest.mark.parametrize("size", [None, 40])
def test_a_long_line_of_short_fields_keeps_the_line_count(size):
    # 140,002 characters in two fields, each within the size limit
    text = "s,t,x,y,count\n" + "a" * 70_000 + "," + "b" * 70_000 + \
        ",1,1,3\n" + "".join(f"{i},1,1,0,{i}\n" for i in range(30)) + \
        "9,9,0,0,x\n"
    assert _error(text, size) == \
        "line 33: count must be a nonnegative integer, got 'x'"


def test_long_levels_after_many_short_rows_load_in_bounded_memory():
    # 8,000 short rows, then levels of 100,000 characters in the same
    # block: two that share their length and their last 99,999 characters,
    # one of them twice, and a padded spelling of it, which is a fault.
    long, other = "a" * 100_000, "b" + "a" * 99_999
    text = "s,t,x,y,count\n" + "0,1,1,1,1\n" * 8_000 + "".join(
        f"{s},1,{x},0,{n}\n" for s, x, n in
        [(long, 1, 2), (other, 1, 3), (long, 0, 4), ("c" * 30, 0, 5)])
    tracemalloc.start()
    try:
        loaded = pc.load_counts(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert loaded == reference_load_counts(io.StringIO(text))
    assert {dict(key.labels)["s"] for key, *_ in loaded.rows()} == \
        {"0", long, other, "c" * 30}
    for size in _SMALL_BLOCKS:
        with patch.object(model, "_BLOCK", size):
            assert pc.load_counts(io.StringIO(text)) == loaded
    padded = text + f" {long},1,1,1,1\n"
    for size in (None, *_SMALL_BLOCKS):
        assert _error(padded, size).startswith(
            f"line 8006: covariate 's' level ' {long[:10]}")


# Levels of two and four UTF-8 bytes before a bad count on the same line
# and on the next one, and after it on its line: a line number taken from a
# byte offset as if it were a character index would be wrong.
@pytest.mark.parametrize("text, line", [
    ("g,h,x,y,count\n\u00e9,\U0001f600,1,1,3\n\u00e9,\U0001f600,1,0,-2\n", 3),
    ("g,h,x,y,count\n\u00e9,\U0001f600,1,1,x\na,b,1,0,4\n", 2),
    ("g,h,x,y,count\n\u00e9\u00e9,\U0001f600,1,1,3\na,b,1,0,4\n"
     "\U0001f600,\u00e9,0,0,1.5\n", 4),
])
def test_faults_after_multibyte_levels_name_their_lines(text, line):
    for size in (None, *_SMALL_BLOCKS):
        assert _error(text, size).startswith(f"line {line}: count must be")
    assert _outcome(_loaded, reference_load_counts, text).startswith(
        f"ParseError: line {line}: count must be")


def test_counts_are_int64_below_2_63_and_python_ints_from_it():
    def loaded(*counts):
        return pc.load_counts(io.StringIO("s,x,y,count\n" + "".join(
            f"{s},1,1,{n}\n" for s, n in enumerate(counts))))

    assert loaded(2**62, 2**62 - 1)._counts.dtype == np.int64
    for table in (loaded(2**62, 2**62), loaded(2**63), loaded(10**30)):
        assert table._counts.dtype == object
        assert table.total == sum(n for *_, n in table.rows())
    assert loaded(2**62, 2**62).collapse(()).total == 2**63


def test_an_undecodable_byte_after_the_first_block(tmp_path):
    data = b"s,x,y,count\n" + b"1,1,1,3\n" * 50 + b"\xe9,0,0,2\n"
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as info:
        data.decode("utf-8-sig")
    assert _error(path, 40) == f"cannot decode {path}: {info.value}"


@pytest.mark.parametrize("text", [
    "s,x,y,count\na,1,1,3\n a,1,0,4\n",
    "s,x,y,count\n\x85,1,1,3\n,1,0,4\n",
])
def test_respelled_levels_are_an_error_the_old_loop_merged(text):
    merged = reference_load_counts(io.StringIO(text))
    assert len({key for key, *_ in merged.rows()}) == 1
    with pytest.raises(pc.ParseError, match="line 3: covariate 's'"):
        pc.load_counts(io.StringIO(text))


# Count tables over up to three covariates, with missing cells and counts
# past 64 bits.
_cell = st.sampled_from(((1, 1), (1, 0), (0, 1), (0, 0)))
_counts = st.one_of(st.integers(0, 50), st.integers(2**64, 2**70))


@st.composite
def count_tables(draw):
    names = draw(st.sampled_from(((), ("g",), ("h", "g"), ("k", "g", "h"))))
    strata = draw(st.lists(st.tuples(*[st.sampled_from("12a") for _ in names]),
                           min_size=1, max_size=8, unique=True))
    rows = []
    for levels in strata:
        key = pc.StratumKey(tuple(zip(names, levels)))
        for x, y in draw(st.lists(_cell, min_size=1, max_size=4, unique=True)):
            rows.append((key, x, y, draw(_counts)))
    return reference_count_table(rows, names)


@repeatable
@given(count_tables())
def test_count_collapse_matches_the_row_loop(counts):
    assert_same_counts(counts)


# Probabilities on and just past the ends of [0, 1], NaN, ints and a bool.
_probability = st.one_of(
    [st.floats(min_value=0.0, max_value=1.0)] * 4
    + [st.sampled_from((-0.0, 0.0, 1.0, 1 + 1e-10, -1e-10, 1e-9, -1e-9,
                        1 + 1e-9, -2e-9, 1.25, float("nan"), 0, 1, 2, -1,
                        True))])


@repeatable
@given(st.lists(st.tuples(_probability, _probability), min_size=1,
                max_size=5),
       st.permutations(range(5)),
       st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=5,
                max_size=5))
@example([(-0.0, 1 + 1e-10), (-1e-10, 1)], [1, 0, 2, 3, 4], [1.0] * 5)
def test_experimental_pairs_match_the_value_loop(pairs, order, weights):
    keys = [pc.StratumKey.of(g=i) for i in range(len(pairs))]
    total = sum(weights[:len(keys)])
    joint = pc.StratifiedJoint(
        strata={key: pc.StratumTable(0.25, 0.25, 0.25, 0.25, weight=w / total)
                for key, w in zip(keys, weights)}, covariates=("g",))
    for provenance in ("measured-experimental", "unknown"):
        # the pairs arrive out of key order
        text = json.dumps({"provenance": provenance, "strata": [
            {"levels": {"g": i}, "p_event_do_exposed": pairs[i][0],
             "p_event_do_unexposed": pairs[i][1]}
            for i in order if i < len(pairs)]})
        assert _outcome(load_experimental, io.StringIO(text), joint) == \
            _outcome(reference_load_experimental, io.StringIO(text), joint)


def test_marginal_adds_left_to_right():
    # Each product is exact and only the sum rounds: left to right it gives
    # 0.6769999999999999, math.fsum (and a compensated sum) 0.677.
    strata = {pc.StratumKey.of(g=g): pc.StratumTable(0.25, 0.25, 0.25, 0.25,
                                                     weight=w)
              for g, w in (("1", 0.5), ("2", 0.25), ("3", 0.25))}
    joint = pc.StratifiedJoint(strata=strata, covariates=("g",))
    per = dict(zip(joint.keys(), ((0.899, 0.5), (0.622, 0.5), (0.288, 0.5))))
    products = [per[key][0] * t.weight for key, t in joint.items()]
    assert math.fsum(products) == 0.677
    text = json.dumps({"strata": [
        {"levels": dict(key.labels), "p_event_do_exposed": do_x,
         "p_event_do_unexposed": do_xp} for key, (do_x, do_xp) in per.items()]})
    experimental = load_experimental(io.StringIO(text), joint)
    assert experimental.marginal == (0.6769999999999999, 0.5)


def _faulty(cells, weights, k, fault):
    if fault == "negative":
        cells[k, 2] = -0.1
    elif fault == "nan":
        cells[k, 1] = math.nan
    elif fault == "sum":
        cells[k] *= 1.0 + 2e-9
    elif fault == "zero-weight":
        weights[k] = 0.0
    elif fault == "heavy":
        weights[k] = 1.0 + 2e-9
    else:
        weights *= 1.0 + 2e-9


# Rows for a joint's arrays: cells and weights that sum to one, and now and
# then a weight total off by more than 1e-9 or a total_n that is not
# positive.  Only checked tables or positive masses reach ``_of``, so the
# faults that a table rejects are raised through the mapping constructor.
@st.composite
def stored_rows(draw):
    k = draw(st.integers(1, 6))
    masses = np.array(draw(st.lists(
        st.lists(st.one_of(st.floats(1e-3, 1.0), st.just(0.0)), min_size=4,
                 max_size=4).filter(any), min_size=k, max_size=k)))
    cells = masses / masses.sum(axis=1)[:, None]
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k,
                                     max_size=k)))
    weights /= weights.sum()
    if draw(st.booleans()):
        # a total short of one, which keeps each weight in (0, 1]
        weights *= 1.0 - 2e-9
    keys = tuple(pc.StratumKey.of(g=str(i)) for i in range(k))
    return keys, cells, weights, draw(st.sampled_from((None, 1000, 1, 0)))


def _stored(keys, cells, weights, total_n):
    """``StratifiedJoint._of`` over the strata of ``keys``, in key order."""
    return pc.StratifiedJoint._of(_Coded.of(keys), cells, weights, total_n)


def _mapped(keys, cells, weights, total_n):
    """The joint through the mapping constructor, from checked tables."""
    tables = map(pc.StratumTable, *cells.T.tolist(), weights.tolist())
    return pc.StratifiedJoint(strata=dict(zip(keys, tables)),
                              covariates=("g",), total_n=total_n)


@repeatable
@given(stored_rows())
def test_both_constructors_store_the_same_joint(rows):
    keys, cells, weights, total_n = rows
    outcome = _outcome(_stored, keys, cells, weights, total_n)
    assert outcome == _outcome(reference_joint_of, keys, cells, weights,
                               ("g",), total_n)
    if outcome.startswith("ValidationError"):
        return
    joint = _stored(keys, cells, weights, total_n)
    mapped = _mapped(keys, cells, weights, total_n)
    assert joint == mapped and repr(joint) == repr(mapped)
    assert joint.strata == mapped.strata
    assert repr(dict(joint.strata)) == repr(dict(mapped.strata))
    # the view, once built, pickles with the joint
    assert pickle.loads(pickle.dumps(joint)) == joint
    for n in (None, 7):
        again = replace(joint, total_n=n)
        assert again == replace(mapped, total_n=n) and again.total_n == n
        assert repr(again) == repr(replace(mapped, total_n=n))


@pytest.mark.parametrize("fault, text", [
    ("negative", "negative cell probability -0.1"),
    ("nan", "negative cell probability nan"),
    ("sum", "cells sum to "),
    ("zero-weight", "stratum weight 0.0 outside (0, 1]"),
    ("heavy", "stratum weight 1.000000002 outside (0, 1]"),
    ("total", "stratum weights sum to "),
])
def test_bad_rows_raise_what_their_tables_raised(fault, text):
    keys = tuple(pc.StratumKey.of(g=g) for g in "123")
    cells = np.array([[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4],
                      [0.4, 0.3, 0.2, 0.1]])
    weights = np.array([0.5, 0.25, 0.25])
    _faulty(cells, weights, 1, fault)
    if fault == "total":
        # every row passes its own check: the arrays' one fault
        outcome = _outcome(_stored, keys, cells, weights, None)
    else:
        # a later row that fails first in the check order must not speak
        # first
        cells[2, 0] = -1.0
        outcome = _outcome(_mapped, keys, cells, weights, None)
    assert outcome == _outcome(reference_joint_of, keys, cells, weights,
                               ("g",), None)
    assert outcome.startswith("ValidationError: " + text)


def test_two_thousand_strata_build_no_tables(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(1313)
    rows = [(pc.StratumKey.of(g=str(i % 40), h=str(i // 40)), x, y,
             int(rng.integers(1, 500)))
            for i in range(2000) for x in (1, 0) for y in (1, 0)]
    data = tmp_path / "counts.csv"
    data.write_text(render_counts(reference_count_table(rows, ("g", "h"))))
    joint = pc.to_probabilities(pc.load_counts(data))
    # measured pairs halfway along each stratum's range
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"strata": [
        {"levels": dict(key.labels),
         "p_event_do_exposed": c[0] + 0.5 * (c[2] + c[3]),
         "p_event_do_unexposed": c[2] + 0.5 * (c[0] + c[1])}
        for key, c in zip(joint.keys(), joint.cells.tolist())]}))

    built = []
    check = pc.StratumTable.__post_init__
    monkeypatch.setattr(pc.StratumTable, "__post_init__",
                        lambda table: (built.append(table), check(table))[1])
    joint = pc.to_probabilities(pc.load_counts(data))
    pooled = collapse(joint, ())
    collapse(joint, ("g",))
    pc.adjusted_experimental(joint)
    load_experimental(pairs, joint)
    assert built == []
    assert run(["verify", "--data", str(data)]) == 0
    assert built == []
    assert run(["bounds", "--data", str(data), "--experimental",
                str(pairs)]) == 0
    # one table for any number of strata: the pooled table that
    # tian_pearl_interval takes
    table, = built
    assert table == pooled.only()
    capsys.readouterr()
