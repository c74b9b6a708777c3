"""Properties the bounds guarantee, checked over generated joints.

The examples come from ``hypothesis`` in derandomized mode, so every run
draws the same ones, and no example database is written.  Strata have
compatible interventional pairs, including pairs on the edge of the
compatibility range and raw cell masses down to 1e-3 of the largest; the
oracle check also draws pairs up to 0.9e-3 outside the range, which the
screen accepts and moves onto it.
These add to the seeded checks in ``test_bounds.py``; they do not replace
them.

The later properties work on count tables and the command line: the CSV
round-trip, reports that ignore row order, bounds that ignore a common
scale of the counts, and ``run()`` ending in an exit code whatever its
arguments and input bytes.
"""

import io
import itertools
import operator
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

import pcause as pc
from pcause.bounds import Interval, _swap_pair
from pcause.cli import run
from pcause.model import collapse, render_counts
from pcause.oracle import feasible_extrema

from conftest import (
    assert_intervals_certified,
    cells_of,
    reference_count_table,
    reference_from_per_stratum,
    reference_stratified_interval,
    swapped,
)

QUANTITIES = ("PN", "PS", "PNS")
CONDITIONAL = {"PN": pc.pn_interval_conditional,
               "PS": pc.ps_interval_conditional,
               "PNS": pc.pns_interval_conditional}

repeatable = settings(derandomize=True, database=None, deadline=None,
                      max_examples=60)

mass = st.floats(min_value=1e-3, max_value=1.0)
# where a pair sits inside its stratum's compatibility range; 0 and 1 are
# the edges
position = st.floats(min_value=0.0, max_value=1.0)
stratum = st.tuples(st.lists(mass, min_size=4, max_size=4), mass,
                    position, position)
# how far past the range a pair is pushed: within the screen's 1e-3
drift = st.floats(min_value=-0.9e-3, max_value=0.9e-3)


def _table(cells, weight):
    total = sum(cells)
    return pc.StratumTable(*(c / total for c in cells), weight=weight)


def _pair(table, u, v, du=0.0, dv=0.0):
    """P(x,y|s) <= P(y_x|s) <= 1 - P(x,y'|s), and likewise for x'; at an
    edge (u or v 0 or 1) a drift of the right sign leaves the range."""
    return (min(1.0, max(0.0, table.p_exposed_event + u * table.p_unexposed + du)),
            min(1.0, max(0.0, table.p_unexposed_event + v * table.p_exposed + dv)))


def _instance(draws):
    total_weight = sum(w for _, w, _, _ in draws)
    strata, pairs = {}, {}
    for i, (cells, w, u, v) in enumerate(draws):
        key = pc.StratumKey.of(g=i)
        strata[key] = _table(cells, w / total_weight)
        pairs[key] = _pair(strata[key], u, v)
    return _measured(strata, pairs)


def _measured(strata, pairs):
    joint = pc.StratifiedJoint(strata=strata, covariates=("g",))
    return joint, reference_from_per_stratum(
        joint, pairs, provenance="measured-experimental")


instances = st.lists(stratum, min_size=1, max_size=6).map(_instance)


def _same(a, b):
    return (a.lower, a.upper, a.attainment) == (b.lower, b.upper, b.attainment)


@repeatable
@given(instances)
def test_stratified_nests_inside_tian_pearl(instance):
    joint, experimental = instance
    pooled = collapse(joint, ()).only()
    for quantity in QUANTITIES:
        strat = pc.stratified_interval(quantity, joint, experimental)
        tp = pc.tian_pearl_interval(quantity, pooled, experimental.marginal)
        assert tp.lower - 1e-9 <= strat.lower
        assert strat.upper <= tp.upper + 1e-9


@repeatable
@given(instances)
def test_search_certifies_stratified_and_tian_pearl(instance):
    assert_intervals_certified(*instance)


@repeatable
@given(instances)
def test_attainment_built_on_first_read_is_the_loop_s(instance):
    # the stratified interval keeps its term indices and builds its
    # TermChoice tuple when the field is first read: by hash, ==, repr or
    # the field itself, whichever comes first
    joint, experimental = instance
    first_reads = (lambda interval, _: hash(interval),
                   lambda interval, _: repr(interval), operator.eq)
    for quantity, first_read in zip(QUANTITIES, first_reads):
        interval = pc.stratified_interval(quantity, joint, experimental)
        expected = reference_stratified_interval(quantity, joint, experimental)
        assert "attainment" not in vars(interval)
        first_read(interval, expected)
        assert "attainment" in vars(interval)
        assert type(interval.attainment) is tuple
        assert interval.attainment == expected.attainment
        assert interval.attainment is interval.attainment
        assert repr(interval) == repr(expected)
        assert interval == expected and hash(interval) == hash(expected)
        made = Interval(interval.lower, interval.upper, quantity,
                        "stratified", expected.attainment)
        assert made == interval and interval == made
        assert hash(made) == hash(interval)
        assert repr(made) == repr(interval)


@repeatable
@given(stratum)
def test_ps_is_pn_on_the_swapped_table(draw):
    cells, _, u, v = draw
    table = _table(cells, 1.0)
    pair = _pair(table, u, v)
    ps = pc.ps_interval_conditional(table, pair)
    pn = pc.pn_interval_conditional(swapped(table), _swap_pair(pair))
    assert (ps.lower, ps.upper, ps.attainment) == \
        (pn.lower, pn.upper, pn.attainment)


@repeatable
@given(stratum)
def test_one_stratum_reduces_to_its_conditional_box(draw):
    cells, _, u, v = draw
    joint, experimental = _instance([(cells, 1.0, u, v)])
    (key, table), = joint.items()
    for quantity in QUANTITIES:
        strat = pc.stratified_interval(quantity, joint, experimental)
        box = CONDITIONAL[quantity](table, experimental.per_stratum[key],
                                    key=key)
        assert strat.method == "stratified"
        assert _same(strat, box)


@repeatable
@given(stratum, drift, drift)
def test_oracle_matches_each_conditional_box(draw, du, dv):
    cells, _, u, v = draw
    table = _table(cells, 1.0)
    pair = _pair(table, u, v, du, dv)
    for quantity in QUANTITIES:
        box = CONDITIONAL[quantity](table, pair)
        searched = feasible_extrema(table, pair, quantity)
        assert searched.lower == pytest.approx(box.lower, abs=1e-12)
        assert searched.upper == pytest.approx(box.upper, abs=1e-12)


@repeatable
@given(instances, st.integers(min_value=0, max_value=5))
def test_splitting_a_stratum_changes_nothing(instance, which):
    joint, experimental = instance
    keys = joint.keys()
    split_key = keys[which % len(keys)]
    strata, pairs = {}, {}
    for key, table in joint.items():
        if key != split_key:
            strata[key], pairs[key] = table, experimental.per_stratum[key]
            continue
        half = pc.StratumTable(table.p_exposed_event, table.p_exposed_noevent,
                               table.p_unexposed_event,
                               table.p_unexposed_noevent,
                               weight=table.weight / 2.0)
        for part in ("a", "b"):
            piece = pc.StratumKey.of(g=f"{dict(key.labels)['g']}{part}")
            strata[piece], pairs[piece] = half, experimental.per_stratum[key]
    split, split_experimental = _measured(strata, pairs)
    for quantity in QUANTITIES:
        a = pc.stratified_interval(quantity, joint, experimental)
        b = pc.stratified_interval(quantity, split, split_experimental)
        assert b.lower == pytest.approx(a.lower, abs=1e-12)
        assert b.upper == pytest.approx(a.upper, abs=1e-12)


# Count tables: up to two covariates whose names and levels are any text that
# survives the CSV's whitespace stripping, including the characters other
# than \n and \r at which str.splitlines() would break a line.
_text = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"),
                              include_characters="\x0b\x0c\x1c\x1d\x1e"
                                                 "\x85\u2028\u2029"),
                max_size=6).filter(lambda s: s == s.strip())
_names = st.lists(_text.filter(lambda s: s and s not in ("x", "y", "count")),
                  max_size=2, unique=True)


@st.composite
def count_tables(draw, min_count=0, max_count=10**12):
    names = draw(_names)
    levels = draw(st.lists(st.tuples(*[_text for _ in names]), min_size=1,
                           max_size=4, unique=True))
    count = st.integers(min_value=min_count, max_value=max_count)
    rows = [(pc.StratumKey(tuple(zip(names, lv))), x, y, draw(count))
            for lv in levels for x in (1, 0) for y in (1, 0)]
    return reference_count_table(rows, covariates=names)


@repeatable
@given(count_tables())
@example(reference_count_table(
    [(pc.StratumKey((("g", "a\x85b"),)), x, y, 1)
     for x in (1, 0) for y in (1, 0)], covariates=("g",)))
def test_render_then_load_gives_the_same_counts(counts):
    again = pc.load_counts(io.StringIO(render_counts(counts)))
    assert again.covariates == counts.covariates
    assert cells_of(again) == cells_of(counts)


@repeatable
@given(count_tables(), st.data())
def test_render_then_load_gives_the_same_collapsed_counts(counts, data):
    # collapse re-ranks the kept covariates' codes
    keep = data.draw(st.lists(st.sampled_from(counts.covariates), unique=True)
                     if counts.covariates else st.just([]))
    collapsed = counts.collapse(keep)
    assert pc.load_counts(io.StringIO(render_counts(collapsed))) == collapsed


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@repeatable
@given(count_tables(min_count=1, max_count=10**6), st.randoms())
def test_bounds_report_ignores_row_order(workdir, counts, random):
    data, report = workdir / "rows.csv", workdir / "rows.json"
    header, *rows = io.StringIO(render_counts(counts), newline="\n")
    results = []
    for _ in range(2):
        data.write_text(header + "".join(rows), encoding="utf-8")
        results.append((_run(["bounds", "--data", str(data),
                              "--json", str(report)]), report.read_bytes()))
        random.shuffle(rows)
    assert results[0][0][0] == 0
    assert results[0] == results[1]


@repeatable
@given(count_tables(min_count=1, max_count=10**6),
       st.integers(min_value=2, max_value=10**6))
def test_scaling_every_count_leaves_the_bounds(counts, scale):
    scaled = reference_count_table(
        ((key, x, y, n * scale) for key, x, y, n in counts.rows()),
        covariates=counts.covariates)
    intervals = []
    for table in (counts, scaled):
        joint = pc.to_probabilities(table)
        experimental = pc.adjusted_experimental(joint)
        pooled = collapse(joint, ()).only()
        intervals.append([
            iv for quantity in QUANTITIES for iv in (
                pc.stratified_interval(quantity, joint, experimental),
                pc.tian_pearl_interval(quantity, pooled, experimental.marginal))])
    for a, b in zip(*intervals):
        assert b.lower == pytest.approx(a.lower, abs=1e-12)
        assert b.upper == pytest.approx(a.upper, abs=1e-12)


# Arguments and file contents for run(): each subcommand with its required
# options plus at most one option drawn from a shared vocabulary, and a
# counts file whose strata are mostly complete, with odd counts and junk
# lines mixed in.  --n and --reps only take small values, so a draw stays
# quick.
_REQUIRED = {
    "bounds": ["--data", "FILE"],
    "identify": ["--data", "FILE"],
    "select": ["--data", "FILE", "--s", "g", "--t", "s"],
    "verify": ["--data", "FILE"],
    "simulate": ["--setting", "1", "--n", "200", "--reps", "2", "--seed", "1"],
}
_OPTIONS = ("--experimental", "--quantity", "--smoothing", "--stratifier",
            "--alpha", "--tol", "--n", "--reps", "--seed", "--json")
_VALUES = ("FILE", "PS", "add-half", "g", "s", "g,s", "0", "1", "2", "-1",
           "0.05", "nan", "inf", "x", "")
_extras = st.one_of(st.just([]), st.tuples(st.sampled_from(_OPTIONS),
                                           st.sampled_from(_VALUES)).map(list))
_ODD_COUNTS = ("0", "-1", "1.5", "", "x", "07", "100000000000000000",
               "1" + "0" * 308, "2" + "0" * 308)
_count = st.one_of(*[st.integers(1, 50).map(str)] * 9,
                   st.sampled_from(_ODD_COUNTS))
_junk = st.lists(st.sampled_from(("g", "x", "1", "0", "", '"', "#", "é", "a,b")),
                 max_size=5).map(",".join)

# a 2x2 g/s table of counts 1e306 to 6e306, whose G statistic overflows
_HUGE_COUNTS = "g,s,x,y,count" + "".join(
    f"\n{g},{s},{x},{y},{(i % 6 + 1) * 10**306}" for i, (g, s, x, y) in
    enumerate(itertools.product((1, 2), (1, 2), (1, 0), (1, 0))))


@st.composite
def _counts_file(draw):
    header = draw(st.sampled_from(("g,s,x,y,count", "g,x,y,count",
                                   "x,y,count", "count,y,x,s,g", "g,x,y")))
    names = header.split(",")
    lines = [header]
    for level in range(1, draw(st.integers(1, 3)) + 1):
        for x, y in ((1, 1), (1, 0), (0, 1), (0, 0)):
            row = {"g": str(level), "s": str(level % 2), "x": str(x),
                   "y": str(y), "count": draw(_count)}
            lines.append(",".join(row[name] for name in names))
    lines += draw(st.lists(_junk, max_size=2))
    rows = draw(st.permutations(lines[1:]))
    return "\n".join([header, *rows]).encode()


@repeatable
@given(st.sampled_from(tuple(_REQUIRED)),
       _extras,
       st.one_of(_counts_file(), _counts_file(), st.binary(max_size=64)))
@example("bounds", [],
         b"g,x,y,count\n1,1,1,2" + b"0" * 308 + b"\n1,1,0,3\n1,0,1,4\n1,0,0,5")
@example("identify", [],
         b"g,x,y,count\n1,1,1,1" + b"0" * 308 + b"\n1,1,0,1" + b"0" * 308
         + b"\n1,0,1,4\n1,0,0,5")
@example("verify", [],
         b"g,x,y,count\n1,1,1,100000000000000000\n1,1,0,3\n"
         b"1,0,1,100000000000000000\n1,0,0,4")
@example("simulate", ["--n", "1" + "0" * 22], b"")
@example("select", [], _HUGE_COUNTS.encode())
@example("bounds", [], b"g,x,y,count\n1,1,1,3\n 1,1,0,4\n1,0,1,2\n1,0,0,5")
# a level one character longer than the csv module reads
@example("bounds", [], b"g,x,y,count\n" + b"a" * 131_073 + b",1,1,3\n")
# measured pairs (the file JSON names) with an integer too large for a float
@example("bounds", ["--experimental", "JSON"],
         (b"g,x,y,count\n1,1,1,3\n1,1,0,4\n1,0,1,2\n1,0,0,5",
          b'{"strata": [{"levels": {"g": "1"}, "p_event_do_exposed": 1'
          + b"0" * 400 + b', "p_event_do_unexposed": 0.3}]}'))
def test_run_always_ends_in_an_exit_code(workdir, command, tokens, content):
    # content is the bytes of the file FILE names, or of FILE and JSON
    path, second = workdir / "input", workdir / "input.json"
    if isinstance(content, tuple):
        content, pairs = content
        second.write_bytes(pairs)
    path.write_bytes(content)
    argv = [command] + [{"FILE": str(path), "JSON": str(second)}.get(t, t)
                        for t in _REQUIRED[command] + tokens]
    # --json writes into the work directory, never into the checkout
    argv = [str(workdir / "report.json") if prev == "--json" else t
            for prev, t in zip([None] + argv, argv)]
    code, _out, err = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1

