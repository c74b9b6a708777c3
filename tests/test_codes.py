"""Strata stored as covariate levels and integer codes.

Tables, joints and pairs keep each covariate's sorted levels and a code
array in key order (``model._Coded``), and build a ``StratumKey`` only when
a caller reads one.  These tests compare the codes with the keys they stand
for, ``model._groups`` with the label-tuple grouping it replaced
(``conftest.reference_groups``), and count the keys a command line run
builds.
"""

import json
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import pcause as pc
from pcause.cli import run
from pcause.model import (
    StratumKey,
    _Coded,
    _groups,
    collapse,
    load_counts,
    load_experimental,
    render_counts,
)

from conftest import reference_count_table, reference_groups

repeatable = settings(derandomize=True, database=None, deadline=None,
                      max_examples=150)

# digit strings that sort as text ("10" < "9"), a level ending in a NUL,
# characters outside the basic multilingual plane, and the CSV's own
# separators and quote
_level = st.text(st.sampled_from(["1", "9", "0", "a", "\x00", "\U0001f600",
                                  "é", ",", '"']),
                 min_size=1, max_size=3)


@st.composite
def _tables(draw):
    """A count table over one to three covariates, from rows in the order
    drawn, with the keys its strata had before codes."""
    names = draw(st.lists(st.sampled_from(["g", "h", "a", "Z"]), min_size=1,
                          max_size=3, unique=True))
    strata = draw(st.lists(st.tuples(*[_level] * len(names)), min_size=1,
                           max_size=12, unique=True))
    keys = [StratumKey(tuple(zip(names, levels))) for levels in strata]
    rows = [(key, x, y, 1 + (3 * k + 2 * x + y) % 5)
            for k, key in enumerate(keys) for x in (1, 0) for y in (1, 0)]
    return reference_count_table(rows, names), keys


@repeatable
@given(_tables())
@example((reference_count_table(
    [(StratumKey.of(g=g), 1, 1, 2) for g in ("9", "10", "a\x00", "a")],
    ("g",)), [StratumKey.of(g=g) for g in ("9", "10", "a\x00", "a")]))
def test_code_order_is_key_order(tmp_path_factory, drawn):
    table, keys = drawn
    path = tmp_path_factory.mktemp("codes") / "counts.csv"
    path.write_text(render_counts(table), encoding="utf-8")
    loaded = load_counts(path)
    for coded in (table._coded, loaded._coded):
        codes = coded.codes.tolist()
        # rows in the order of their ranks, each level a rank in its
        # covariate's levels as Python sorts them
        assert codes == sorted(codes)
        assert len(set(map(tuple, codes))) == len(codes)
        assert all(list(levels) == sorted(set(levels))
                   for levels in coded.levels)
        # one key and all keys, built on read, are the keys built the old way
        assert coded._keys is None or coded is table._coded
        assert [coded[k] for k in range(len(coded))] == sorted(keys)
        assert coded.keys() == tuple(sorted(keys))
        assert coded.names() == [str(key) for key in sorted(keys)]
    assert loaded._coded == table._coded == _Coded.of(
        tuple(sorted(keys)), table.covariates)
    assert loaded == table


def test_strata_numbered_past_int64(tmp_path):
    # 64 covariates of two levels number the strata past 2**63, where
    # _groups ranks the numbers so far before it reads the next covariate
    names = tuple(f"c{i:02}" for i in range(64))
    keys = [StratumKey(tuple(zip(names, ("ab"[k >> i & 1] for i in range(64)))))
            for k in (2**64 - 1, 5, 0, 2**63 + 1)]
    table = reference_count_table(
        [(key, x, 1, n + x) for n, key in enumerate(keys) for x in (1, 0)],
        names)
    path = tmp_path / "wide.csv"
    path.write_text(render_counts(table))
    loaded = load_counts(path)
    assert loaded == table and loaded._coded.keys() == tuple(sorted(keys))
    _, pooled = _groups(loaded._coded, ())
    assert pooled.keys() == (StratumKey(),)
    # the rows repeated and out of order, as the parser passes them
    coded = loaded._coded
    rows = [2, 0, 3, 1, 0, 2, 2]
    for keep in (names, names[1:], names[::3]):
        index, groups = _groups(
            _Coded(names, coded.levels, coded.codes[rows]), keep)
        want_index, want_keys, _ = reference_groups(
            [coded[k] for k in rows], names, keep)
        assert index.tolist() == want_index.tolist()
        assert groups.keys() == want_keys


@repeatable
@given(_tables())
def test_groups_number_as_the_label_tuples_did(drawn):
    table, _ = drawn
    coded, covs = table._coded, table.covariates
    for size in range(len(covs) + 1):
        for keep in combinations(covs, size):
            index, groups = _groups(coded, keep[::-1])
            want_index, want_keys, want_covs = reference_groups(
                coded.keys(), covs, keep[::-1])
            assert index.tolist() == want_index.tolist()
            assert groups.keys() == want_keys
            assert groups.covariates == want_covs


@repeatable
@given(_tables(), st.data())
def test_groups_take_rows_in_any_order_repeated(drawn, data):
    # _table passes every data row, _stratifier_layout every sampling cell
    table, _ = drawn
    coded, covs = table._coded, table.covariates
    rows = data.draw(st.permutations([
        k for k in range(len(coded))
        for _ in range(data.draw(st.integers(1, 4)))]))
    shuffled = _Coded(covs, coded.levels, coded.codes[rows])
    for size in range(len(covs) + 1):
        for keep in combinations(covs, size):
            index, groups = _groups(shuffled, keep)
            want_index, want_keys, want_covs = reference_groups(
                [coded[k] for k in rows], covs, keep)
            assert index.tolist() == want_index.tolist()
            assert groups.keys() == want_keys
            assert groups.covariates == want_covs


def test_groups_check_the_kept_covariates():
    coded = pc.load_counts("tests/data/breast_cancer.csv")._coded
    for keep in (("stage", "stage"), ("grade",)):
        with pytest.raises(pc.ValidationError) as got:
            _groups(coded, keep)
        with pytest.raises(pc.ValidationError) as want:
            reference_groups(coded.keys(), coded.covariates, keep)
        assert str(got.value) == str(want.value)


def _grid(path, size):
    path.write_text("s,t,x,y,count\n" + "".join(
        f"{s},{t},{x},{y},{2 + (5 * s + 3 * t + 2 * x + y) % 9}\n"
        for s in range(size) for t in range(size)
        for x in (1, 0) for y in (1, 0)))


def _built_keys(monkeypatch, tmp_path, size):
    """How many keys the table commands build on a size x size grid."""
    data, report = tmp_path / f"grid-{size}.csv", tmp_path / "report.json"
    _grid(data, size)
    pairs = tmp_path / f"pairs-{size}.json"
    joint = pc.to_probabilities(load_counts(data))
    pairs.write_text(json.dumps({"strata": [
        {"levels": dict(key.labels),
         "p_event_do_exposed": c[0] + 0.5 * (c[2] + c[3]),
         "p_event_do_unexposed": c[2] + 0.5 * (c[0] + c[1])}
        for key, c in zip(joint.keys(), joint.cells.tolist())]}))
    built = []
    canonical, init = StratumKey._canonical, StratumKey.__init__
    with monkeypatch.context() as patched:
        patched.setattr(StratumKey, "_canonical", classmethod(
            lambda cls, labels: (built.append(labels), canonical(labels))[1]))
        patched.setattr(StratumKey, "__init__", lambda key, *args, **kw: (
            built.append(args), init(key, *args, **kw))[1])
        for argv in (["bounds", "--experimental", str(pairs)], ["bounds"],
                     ["identify"], ["identify", "--stratifier", "s"],
                     ["select", "--s", "s", "--t", "t"], ["verify"]):
            assert run([argv[0], "--data", str(data), *argv[1:],
                        "--json", str(report)]) == 0
    return len(built)


def test_table_runs_build_no_key_per_stratum(monkeypatch, tmp_path, capsys):
    small = _built_keys(monkeypatch, tmp_path, 5)
    assert _built_keys(monkeypatch, tmp_path, 20) == small
    # at most the pooled table's empty key, per quantity of each bounds run
    assert small <= 2 * 3
    capsys.readouterr()


def test_collapse_and_pairs_build_no_key(monkeypatch, tmp_path):
    data = tmp_path / "grid.csv"
    _grid(data, 6)
    joint = pc.to_probabilities(load_counts(data))
    pairs = tmp_path / "pairs.json"
    pairs.write_text('{"strata": [' + ",".join(
        f'{{"levels": {{"t": {t}, "s": {s}}}, "p_event_do_exposed": 0.5, '
        f'"p_event_do_unexposed": 0.4}}'
        for s in range(6) for t in range(6)) + "]}")
    monkeypatch.setattr(StratumKey, "_canonical", None)
    assert collapse(joint, ("t",)).n_strata == 6
    assert load_experimental(pairs, joint).pairs.shape == (36, 2)
