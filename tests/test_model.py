import io
import json
from dataclasses import replace

import numpy as np
import pytest

import pcause as pc
from pcause.model import (
    collapse,
    load_experimental,
    render_counts,
    validate_compatibility,
)

from conftest import (
    cells_of,
    experimental_to_dict,
    reference_count_table,
    reference_from_per_stratum,
    screen_violations,
)

TOL = 1e-12


class TestStratumKey:
    def test_canonical_order(self):
        a = pc.StratumKey.of(stage="2", grade="1")
        b = pc.StratumKey((("grade", "1"), ("stage", "2")))
        assert a == b
        assert a.covariates == ("grade", "stage")

    def test_levels_coerced_to_str(self):
        key = pc.StratumKey.of(stage=3)
        assert dict(key.labels)["stage"] == "3"

    def test_duplicate_covariate_rejected(self):
        with pytest.raises(pc.ValidationError):
            pc.StratumKey((("s", "1"), ("s", "2")))

    def test_str(self):
        assert str(pc.StratumKey.of(stage="1")) == "stage=1"
        assert str(pc.StratumKey(())) == "(pooled)"

    def test_keys_sort(self):
        keys = [pc.StratumKey.of(s="3"), pc.StratumKey.of(s="1"),
                pc.StratumKey.of(s="2")]
        assert [dict(k.labels)["s"] for k in sorted(keys)] == ["1", "2", "3"]


class TestStratumTable:
    def test_properties(self):
        t = pc.StratumTable(0.2, 0.3, 0.1, 0.4, weight=0.5)
        assert t.p_exposed == pytest.approx(0.5, abs=TOL)
        assert t.p_unexposed == pytest.approx(0.5, abs=TOL)
        assert t.risk_exposed == pytest.approx(0.4, abs=TOL)
        assert t.risk_unexposed == pytest.approx(0.2, abs=TOL)

    def test_weight_may_pass_one_by_1e_9(self):
        assert pc.StratumTable(0.25, 0.25, 0.25, 0.25,
                               weight=1.0 + 1e-9).weight == 1.0 + 1e-9

    def test_zero_cells_allowed_at_type_level(self):
        t = pc.StratumTable(0.3, 0.0, 0.0, 0.7, weight=1.0)
        assert t.risk_exposed == 1.0
        assert t.risk_unexposed == 0.0

    def test_risk_needs_positive_margin(self):
        t = pc.StratumTable(0.0, 0.0, 0.4, 0.6, weight=1.0)
        with pytest.raises(pc.PositivityError):
            t.risk_exposed

    def test_invalid_tables(self):
        with pytest.raises(pc.ValidationError):
            pc.StratumTable(-0.1, 0.5, 0.3, 0.3, weight=1.0)
        with pytest.raises(pc.ValidationError):
            pc.StratumTable(0.2, 0.2, 0.2, 0.2, weight=1.0)
        with pytest.raises(pc.ValidationError):
            pc.StratumTable(0.25, 0.25, 0.25, 0.25, weight=0.0)
        with pytest.raises(pc.ValidationError):
            pc.StratumTable(0.25, 0.25, 0.25, 0.25, weight=1.5)


class TestLoadCounts:
    def test_fixture(self, cancer_counts):
        assert cancer_counts.total == 192
        assert cancer_counts.covariates == ("stage",)
        assert len({key for key, *_ in cancer_counts.rows()}) == 3
        stage_3 = pc.StratumKey.of(stage="3")
        assert cells_of(cancer_counts)[(stage_3, 0, 1)] == 12

    def test_comments_and_blanks_skipped(self):
        text = "# heading\n\nstage,x,y,count\n# inline\n1,1,1,3\n1,1,0,1\n"
        counts = pc.load_counts(io.StringIO(text))
        assert counts.total == 4

    def test_duplicate_cells_summed(self):
        text = "s,x,y,count\n1,1,1,3\n1,1,1,4\n1,0,0,2\n"
        counts = pc.load_counts(io.StringIO(text))
        assert cells_of(counts)[(pc.StratumKey.of(s="1"), 1, 1)] == 7
        assert counts.total == 9

    @pytest.mark.parametrize("text,fragment", [
        ("s,x,y\n1,1,1\n", "count"),
        ("s,x,y,count\n1,2,1,3\n", "line 2"),
        ("s,x,y,count\n1,1,1,3.5\n", "line 2"),
        ("s,x,y,count\n1,1,1,-2\n", "line 2"),
        ("s,x,y,count\n1,1,1\n", "line 2"),
        ("s,x,y,count\n", "no data rows"),
        ("", "no header"),
        ("s,s,x,y,count\n1,1,1,1,2\n", "duplicate"),
    ])
    def test_parse_errors_name_the_problem(self, text, fragment):
        with pytest.raises(pc.ParseError, match=fragment):
            pc.load_counts(io.StringIO(text))

    def test_error_line_numbers_count_comments(self):
        text = "# one\n# two\ns,x,y,count\n1,1,1,2\n1,9,1,2\n"
        with pytest.raises(pc.ParseError, match="line 5"):
            pc.load_counts(io.StringIO(text))

    @pytest.mark.parametrize("text,message", [
        ("s,x,y,count\na,1,1,3\n a,1,0,4\n",
         "line 3: covariate 's' level ' a' reads as 'a', which line 2 writes 'a'"),
        ("s,t,x,y,count\n1,\x85,1,1,3\n1,2,0,0,1\n1,,1,0,4\n",
         "line 4: covariate 't' level '' reads as '', which line 2 writes '\\x85'"),
    ])
    def test_two_spellings_of_a_level_are_an_error(self, text, message):
        # both strip to one level; merging them would hide a typo
        with pytest.raises(pc.ParseError) as info:
            pc.load_counts(io.StringIO(text))
        assert str(info.value).startswith(message)

    def test_one_padded_spelling_is_not_an_error(self):
        text = "s,x,y,count\n a ,1,1,3\n a ,1,0,4\n"
        counts = pc.load_counts(io.StringIO(text))
        assert cells_of(counts) == {(pc.StratumKey.of(s="a"), 1, 0): 4,
                                    (pc.StratumKey.of(s="a"), 1, 1): 3}

    def test_missing_file(self, tmp_path):
        with pytest.raises(pc.ParseError, match="cannot read"):
            pc.load_counts(tmp_path / "nope.csv")

    def test_render_round_trip(self, cancer_counts):
        text = render_counts(cancer_counts)
        again = pc.load_counts(io.StringIO(text))
        assert again == cancer_counts
        j1 = pc.to_probabilities(cancer_counts)
        j2 = pc.to_probabilities(again)
        for key, t in j1.items():
            u = j2.strata[key]
            assert t.p_exposed_event == pytest.approx(u.p_exposed_event, abs=TOL)
            assert t.weight == pytest.approx(u.weight, abs=TOL)


    def test_render_quotes_levels_with_commas(self):
        key = pc.StratumKey.of(site='a,b', arm='say "hi"')
        counts = reference_count_table(
            [(key, 1, 1, 3), (key, 0, 0, 4)], covariates=("site", "arm"))
        text = render_counts(counts)
        assert text.splitlines()[1] == '"say ""hi""","a,b",0,0,4'
        assert pc.load_counts(io.StringIO(text)) == counts

    def test_render_quotes_leading_hash_level(self):
        one, two = pc.StratumKey.of(g="#1"), pc.StratumKey.of(g="2")
        counts = reference_count_table(
            [(one, 1, 1, 1), (one, 0, 0, 3), (two, 1, 1, 2), (two, 0, 0, 2)],
            covariates=("g",))
        text = render_counts(counts)
        assert text.splitlines()[1] == '"#1",0,0,3'
        again = pc.load_counts(io.StringIO(text))
        assert again == counts
        assert again.total == 8

    def test_render_quotes_leading_hash_covariate(self):
        key = pc.StratumKey.of(**{"#g": "a", "h": "b"})
        counts = reference_count_table([(key, 1, 1, 3)],
                                       covariates=("#g", "h"))
        text = render_counts(counts)
        assert text.splitlines()[0] == '"#g",h,x,y,count'
        assert pc.load_counts(io.StringIO(text)) == counts

    def test_render_plain_levels_unquoted(self):
        text = "s,t,x,y,count\n1,2,0,0,4\n1,2,1,1,3\n"
        assert render_counts(pc.load_counts(io.StringIO(text))) == text

    def test_rows_of_a_stratum_share_one_key(self):
        text = "t,s,x,y,count\n2,1,1,1,3\n2,1,1,0,1\n2,1,0,1,2\n2,1,0,0,5\n"
        keys = [key for key, *_ in pc.load_counts(io.StringIO(text)).rows()]
        assert len(keys) == 4
        assert all(key is keys[0] for key in keys)
        assert keys[0] == pc.StratumKey.of(s="1", t="2")

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"s,x,y,count\n\xe9,1,1,3\n")
        with pytest.raises(pc.ParseError, match="cannot decode"):
            pc.load_counts(path)


class TestCountTable:
    def test_collapse_is_integer_exact(self):
        rows = [(pc.StratumKey.of(s=s, t=t), x, y, n)
                for (s, t, x, y, n) in [("1", "1", 1, 1, 3), ("1", "2", 1, 1, 4),
                                        ("1", "1", 0, 0, 5), ("1", "2", 0, 0, 6)]]
        counts = reference_count_table(rows, covariates=("s", "t"))
        merged = counts.collapse(("s",))
        assert cells_of(merged)[(pc.StratumKey.of(s="1"), 1, 1)] == 7
        assert cells_of(merged)[(pc.StratumKey.of(s="1"), 0, 0)] == 11
        with pytest.raises(pc.ValidationError):
            counts.collapse(("bogus",))


class TestToProbabilities:
    def test_basic(self, cancer_counts, cancer_joint):
        assert cancer_joint.total_n == 192
        assert cancer_joint.covariates == ("stage",)
        weights = [t.weight for _, t in cancer_joint.items()]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        s3 = cancer_joint.strata[pc.StratumKey.of(stage="3")]
        assert s3.p_unexposed_event == pytest.approx(12 / 29, abs=TOL)
        assert s3.weight == pytest.approx(29 / 192, abs=TOL)

    def test_zero_cell_raises_naming_stratum(self):
        text = "s,x,y,count\n1,1,1,3\n1,1,0,2\n1,0,1,1\n1,0,0,0\n"
        counts = pc.load_counts(io.StringIO(text))
        with pytest.raises(pc.PositivityError, match="s=1"):
            pc.to_probabilities(counts)

    def test_add_half_smoothing(self):
        text = "s,x,y,count\n1,1,1,3\n1,1,0,2\n1,0,1,1\n1,0,0,0\n"
        counts = pc.load_counts(io.StringIO(text))
        joint = pc.to_probabilities(counts, smoothing="add-half")
        table = joint.strata[pc.StratumKey.of(s="1")]
        assert table.p_exposed_event == pytest.approx(3.5 / 8.0, abs=TOL)
        assert table.p_unexposed_noevent == pytest.approx(0.5 / 8.0, abs=TOL)
        # the recorded sample size stays at the raw total
        assert joint.total_n == 6

    def test_unknown_smoothing(self, cancer_counts):
        with pytest.raises(pc.ValidationError):
            pc.to_probabilities(cancer_counts, smoothing="laplace")

    def test_empty_table(self):
        counts = pc.load_counts(io.StringIO("s,x,y,count\n1,1,1,0\n"))
        with pytest.raises(pc.PositivityError):
            pc.to_probabilities(counts)


class TestCollapse:
    def test_pooled_matches_marginal_cells(self, cancer_joint):
        pooled = collapse(cancer_joint, ()).only()
        for cell in ("p_exposed_event", "p_exposed_noevent",
                     "p_unexposed_event", "p_unexposed_noevent"):
            marginal = sum(getattr(t, cell) * t.weight
                           for _, t in cancer_joint.items())
            assert getattr(pooled, cell) == pytest.approx(marginal, abs=TOL)
        assert pooled.weight == pytest.approx(1.0, abs=1e-9)

    def test_identity_collapse(self, cancer_joint):
        same = collapse(cancer_joint, ("stage",))
        for key, t in cancer_joint.items():
            u = same.strata[key]
            assert u.p_exposed_event == pytest.approx(t.p_exposed_event, abs=TOL)
            assert u.weight == pytest.approx(t.weight, abs=TOL)

    def test_unknown_covariate(self, cancer_joint):
        with pytest.raises(pc.ValidationError):
            collapse(cancer_joint, ("grade",))


class TestStratifiedJoint:
    def test_weights_must_partition(self):
        key = pc.StratumKey.of(s="1")
        with pytest.raises(pc.ValidationError):
            pc.StratifiedJoint(
                strata={key: pc.StratumTable(0.25, 0.25, 0.25, 0.25, weight=0.5)},
                covariates=("s",))

    def test_key_covariates_must_match(self):
        key = pc.StratumKey.of(t="1")
        with pytest.raises(pc.ValidationError):
            pc.StratifiedJoint(
                strata={key: pc.StratumTable(0.25, 0.25, 0.25, 0.25, weight=1.0)},
                covariates=("s",))

    def test_only_requires_single_stratum(self, cancer_joint):
        with pytest.raises(pc.ValidationError):
            cancer_joint.only()


def _nudged(table, toward):
    """The table with its first cell moved one unit in the last place
    toward ``toward``."""
    return replace(table, p_exposed_event=np.nextafter(
        table.p_exposed_event, toward).item())


class TestEquality:
    """== compares the stored arrays, not the views, and says what
    comparing the views said."""

    @staticmethod
    def _tables(name="g", n=2000):
        rng = np.random.default_rng(2000)
        weights = rng.dirichlet(np.ones(n))
        tables = {}
        for i, w in enumerate(weights.tolist()):
            c = rng.dirichlet(np.ones(4)).tolist()
            tables[pc.StratumKey.of(**{name: str(i)})] = pc.StratumTable(
                *c[:3], 1.0 - c[0] - c[1] - c[2], weight=w)
        return tables

    def _joint_variants(self):
        tables = self._tables()
        first, last = list(tables)[0], list(tables)[-1]
        renamed = dict(tables)
        renamed[pc.StratumKey.of(g="x")] = renamed.pop(last)
        return {
            "equal": (tables, ("g",), 10),
            "one ulp up": ({**tables, first: _nudged(tables[first], 1.0)},
                           ("g",), 10),
            "one ulp down": ({**tables, last: _nudged(tables[last], 0.0)},
                             ("g",), 10),
            "total_n": (tables, ("g",), 11),
            "no total_n": (tables, ("g",), None),
            "covariates": (self._tables("h"), ("h",), 10),
            "key": (renamed, ("g",), 10),
        }

    @pytest.mark.parametrize("variant", ["equal", "one ulp up", "one ulp down",
                                         "total_n", "no total_n",
                                         "covariates", "key"])
    def test_joints(self, variant):
        a = pc.StratifiedJoint(self._tables(), ("g",), 10)
        b = pc.StratifiedJoint(*self._joint_variants()[variant])
        same = a == b
        assert "strata" not in vars(a) and "strata" not in vars(b)
        assert same is (variant == "equal")
        assert (b == a) is same and (a != b) is not same
        assert same == ((a.strata, a.covariates, a.total_n)
                        == (b.strata, b.covariates, b.total_n))

    @pytest.mark.parametrize("variant", ["equal", "one ulp", "key",
                                         "marginal", "provenance"])
    def test_pairs(self, variant):
        joint = pc.StratifiedJoint(self._tables(), ("g",), 10)
        pairs = np.random.default_rng(3).uniform(size=(joint.n_strata, 2))
        args = [joint, pairs, "measured-experimental"]
        a = pc.ExperimentalQuantities._weighted(*args)
        if variant == "one ulp":
            args[1] = pairs.copy()
            args[1][7, 1] = np.nextafter(pairs[7, 1], 0.0)
        elif variant == "key":
            args[0] = pc.StratifiedJoint(*self._joint_variants()["key"])
        elif variant == "marginal":
            # the same strata and pairs under the weights reversed
            args[0] = pc.StratifiedJoint._of(joint._coded, joint.cells,
                                             joint.weights[::-1].copy(), 10)
        elif variant == "provenance":
            args[2] = "sita-adjusted"
        b = pc.ExperimentalQuantities._weighted(*args)
        same = a == b
        assert "per_stratum" not in vars(a) and "per_stratum" not in vars(b)
        assert same is (variant == "equal")
        assert (b == a) is same and (a != b) is not same
        assert same == ((a.per_stratum, a.marginal, a.provenance)
                        == (b.per_stratum, b.marginal, b.provenance))

    def test_other_types(self, cancer_joint, cancer_experimental):
        for value in (cancer_joint, cancer_experimental):
            assert value.__eq__(object()) is NotImplemented
            assert value != "text" and not value == 1
        assert cancer_joint.__eq__(cancer_experimental) is NotImplemented
        assert cancer_experimental.__eq__(cancer_joint) is NotImplemented


class TestExperimental:
    def test_adjusted_matches_risks(self, cancer_joint, cancer_experimental):
        assert cancer_experimental.provenance == "sita-adjusted"
        for key, t in cancer_joint.items():
            do_x, do_xp = cancer_experimental.per_stratum[key]
            assert do_x == pytest.approx(t.risk_exposed, abs=TOL)
            assert do_xp == pytest.approx(t.risk_unexposed, abs=TOL)

    def test_marginal_is_weight_average(self, cancer_joint, cancer_experimental):
        want_x = sum(cancer_experimental.per_stratum[k][0] * t.weight
                     for k, t in cancer_joint.items())
        want_xp = sum(cancer_experimental.per_stratum[k][1] * t.weight
                      for k, t in cancer_joint.items())
        assert cancer_experimental.marginal[0] == pytest.approx(want_x, abs=1e-9)
        assert cancer_experimental.marginal[1] == pytest.approx(want_xp, abs=1e-9)

    def test_mismatched_strata_rejected(self, cancer_joint):
        text = json.dumps({"strata": [{"levels": {"stage": "1"},
                                       "p_event_do_exposed": 0.5,
                                       "p_event_do_unexposed": 0.5}]})
        with pytest.raises(pc.ValidationError):
            load_experimental(io.StringIO(text), cancer_joint)

    @staticmethod
    def _pairs(pairs, provenance="measured-experimental"):
        """A pairs file's text: each (levels, P(y_x|s), P(y_x'|s))."""
        return io.StringIO(json.dumps({"provenance": provenance, "strata": [
            {"levels": levels, "p_event_do_exposed": do_x,
             "p_event_do_unexposed": do_xp} for levels, do_x, do_xp in pairs]}))

    def test_bad_provenance_and_range(self, cancer_joint):
        stages = [({"stage": s}, 0.5, 0.5) for s in ("1", "2", "3")]
        with pytest.raises(pc.ValidationError) as exc:
            load_experimental(self._pairs(stages, "guessed"), cancer_joint)
        assert str(exc.value) == "unknown provenance 'guessed'"
        stages[1] = ({"stage": "2"}, 1.5, 0.5)
        with pytest.raises(pc.ValidationError) as exc:
            load_experimental(self._pairs(stages), cancer_joint)
        assert str(exc.value) == "stratum stage=2: probability 1.5 outside [0, 1]"

    def test_range_errors_name_the_stratum_or_marginal(self):
        table = pc.StratumTable(0.25, 0.25, 0.25, 0.25, weight=1.0)
        key = pc.StratumKey.of(g=1, h="a")
        joint = pc.StratifiedJoint({key: table}, ("g", "h"))
        with pytest.raises(pc.ValidationError) as exc:
            load_experimental(self._pairs([(dict(key.labels), 0.5, 1.25)]),
                              joint)
        assert str(exc.value) == "stratum g=1,h=a: probability 1.25 outside [0, 1]"
        # a pair at the top of the range, under a weight just past 1 that
        # the joint accepts, averages to a marginal past it
        joint = pc.StratifiedJoint({key: replace(table, weight=1 + 5e-10)},
                                   ("g", "h"))
        with pytest.raises(pc.ValidationError) as exc:
            load_experimental(self._pairs([(dict(key.labels), 0.5,
                                            1 + 1e-9)]), joint)
        marginal = (1 + 1e-9) * (1 + 5e-10)
        assert str(exc.value) == \
            f"marginal: probability {marginal!r} outside [0, 1]"
        # a probability exactly 1e-9 below the range is rounding: clipped
        joint = pc.StratifiedJoint({key: table}, ("g", "h"))
        pairs = load_experimental(self._pairs([(dict(key.labels), 0.5,
                                                -1e-9)]), joint)
        assert pairs.marginal == (0.5, 0.0)


class TestCompatibility:
    def test_adjusted_is_compatible(self, cancer_joint, cancer_experimental):
        report = validate_compatibility(cancer_joint, cancer_experimental)
        assert report.compatible
        assert report.violations == ()

    def test_violation_is_named(self, cancer_joint):
        pairs = {key: (t.risk_exposed, t.risk_unexposed)
                 for key, t in cancer_joint.items()}
        bad_key = pc.StratumKey.of(stage="3")
        # drive P(y_x'|s) below the cell P(x', y|s) it must dominate
        pairs[bad_key] = (pairs[bad_key][0], 0.0)
        experimental = reference_from_per_stratum(
            cancer_joint, pairs, provenance="measured-experimental")
        report = validate_compatibility(cancer_joint, experimental)
        assert not report.compatible
        assert any(v.stratum == bad_key and v.constraint == "unexposed-lower"
                   and v.amount > 0.1 for v in report.violations)

    def test_an_excess_of_exactly_1e_3_is_forgiven(self):
        # P(x, y|s) - P(y_x|s) = 0.002 - 0.001 is exactly 1e-3
        key = pc.StratumKey.of(g="1")
        joint = pc.StratifiedJoint(
            {key: pc.StratumTable(0.002, 0.498, 0.1, 0.4, weight=1.0)},
            covariates=("g",))
        for pair, names in (((0.001, 0.45), []),
                            ((0.0009, 0.45), ["exposed-lower"])):
            experimental = reference_from_per_stratum(
                joint, {key: pair}, provenance="measured-experimental")
            report = validate_compatibility(joint, experimental)
            assert [v.constraint for v in report.violations] == names

    def test_stratum_mismatch_raises(self, cancer_joint, cancer_experimental):
        other = collapse(cancer_joint, ())
        with pytest.raises(pc.ValidationError):
            validate_compatibility(other, cancer_experimental)

    def test_screen_tolerance(self):
        t = pc.StratumTable(0.2, 0.3, 0.1, 0.4, weight=1.0)
        pair = (t.risk_exposed, t.risk_unexposed)
        assert screen_violations(t, pair) == []
        # a breach below COMPAT_TOL (1e-3) is forgiven, one above is reported
        assert screen_violations(t, (pair[0], 0.0995)) == []
        found = screen_violations(t, (pair[0], 0.05))
        assert [name for name, _ in found] == ["unexposed-lower"]


class TestJsonMirrors:
    def test_experimental_round_trip(self, cancer_joint, cancer_experimental):
        data = experimental_to_dict(cancer_experimental)
        again = load_experimental(io.StringIO(json.dumps(data)), cancer_joint)
        assert again.per_stratum == cancer_experimental.per_stratum
        assert again.provenance == "sita-adjusted"

    def test_load_experimental_file(self, tmp_path, cancer_joint,
                                    cancer_experimental):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(experimental_to_dict(cancer_experimental)))
        again = load_experimental(path, cancer_joint)
        assert again.per_stratum == cancer_experimental.per_stratum
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(pc.ParseError):
            load_experimental(bad, cancer_joint)


class TestStratumOrder:
    """Strata come out in StratumKey order: levels compare as strings."""

    LEVELS = ("2", "10", "1")
    SORTED = ["1", "10", "2"]

    def test_count_table(self):
        counts = pc.load_counts(io.StringIO("g,x,y,count\n" + "".join(
            f"{g},{x},1,1\n" for g in self.LEVELS for x in (1, 0))))
        assert [(dict(key.labels)["g"], x)
                for key, x, _, _ in counts.rows()] == \
            [(g, x) for g in self.SORTED for x in (0, 1)]

    def test_joint_and_experimental(self):
        table = pc.StratumTable(0.25, 0.25, 0.25, 0.25, weight=1 / 3)
        strata = {pc.StratumKey.of(g=g): table for g in self.LEVELS}
        joint = pc.StratifiedJoint(strata=strata, covariates=("g",))
        assert [dict(key.labels)["g"] for key in joint.keys()] == self.SORTED
        text = json.dumps({"strata": [
            {"levels": {"g": g}, "p_event_do_exposed": 0.5,
             "p_event_do_unexposed": 0.5} for g in self.LEVELS]})
        experimental = load_experimental(io.StringIO(text), joint)
        assert [dict(key.labels)["g"] for key in experimental.per_stratum] == \
            self.SORTED

    def test_multi_covariate_order_matches_key_comparison(self):
        keys = [pc.StratumKey.of(s=s, t=t)
                for s in ("b", "a,b", "a", "10") for t in ("2", "1")]
        table = pc.StratumTable(0.25, 0.25, 0.25, 0.25, weight=1 / 8)
        joint = pc.StratifiedJoint(strata=dict.fromkeys(keys, table),
                                   covariates=("t", "s"))
        assert list(joint.keys()) == sorted(keys)
        experimental = pc.adjusted_experimental(joint)
        assert list(experimental.per_stratum) == sorted(keys)
