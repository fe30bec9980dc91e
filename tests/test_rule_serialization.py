"""Tests for rules-as-data: expression formatting, NGD/RuleSet (de)serialization."""

from __future__ import annotations

import pytest

from repro.core.builtin_rules import effectiveness_rules, example_rules, phi4
from repro.core.ngd import NGD, RuleSet
from repro.datasets.figure1 import figure1_g2
from repro.detect import Detector
from repro.errors import DependencyError, ExpressionError, ParseError
from repro.expr.expressions import const
from repro.expr.format import format_expression, format_literal, format_literal_set
from repro.expr.parser import parse_expression, parse_literal, parse_literal_set
from repro.graph.pattern import Pattern


class TestExpressionFormatting:
    @pytest.mark.parametrize(
        "text",
        [
            "x.val",
            "5",
            "5.5",
            "x.val + 3",
            "(z.val - y.val)",
            "2 * (m1.val - m2.val) + 3 * n1.val",
            "x.val / 4",
            "|x.a - y.b|",
            "-x.val",
            "-(x.val + 1)",
            "||x.val||",
        ],
    )
    def test_parse_format_parse_is_identity(self, text):
        expression = parse_expression(text)
        rendered = format_expression(expression)
        assert parse_expression(rendered) == expression

    @pytest.mark.parametrize(
        "text",
        [
            "x.val = 7",
            "y.val + z.val = w.val",
            "m1.val < m2.val",
            "x.A != 0",
            "z.val - y.val >= 100",
            's.val = "living people"',
        ],
    )
    def test_literal_round_trip(self, text):
        literal = parse_literal(text)
        assert parse_literal(format_literal(literal)) == literal

    def test_literal_set_round_trip_including_empty(self):
        literals = parse_literal_set("s1.val = 1, m1.val - m2.val > 500")
        assert parse_literal_set(format_literal_set(literals)) == literals
        assert format_literal_set(parse_literal_set("")) == ""
        assert parse_literal_set(format_literal_set(parse_literal_set("∅"))) == parse_literal_set("")

    def test_string_constants_with_escapes(self):
        literal = parse_literal('x.name = "he said \\"hi\\" \\\\ done"')
        rendered = format_literal(literal)
        assert parse_literal(rendered) == literal
        assert '\\"hi\\"' in rendered

    def test_unparseable_constant_rejected(self):
        with pytest.raises(ExpressionError):
            format_expression(const(1e-30))


class TestParserStrings:
    def test_string_constant_parses(self):
        literal = parse_literal('z.val != "living people"')
        assert literal.holds_for({("z", "val"): "dead people"})
        assert not literal.holds_for({("z", "val"): "living people"})

    def test_unterminated_string_is_an_error(self):
        with pytest.raises(ParseError):
            parse_literal('x.val = "oops')


class TestPatternSerialization:
    def test_round_trip_preserves_equality_and_order(self):
        for rule in example_rules():
            rebuilt = Pattern.from_dict(rule.pattern.to_dict())
            assert rebuilt == rule.pattern
            assert rebuilt.variables == rule.pattern.variables
            assert rebuilt.edges() == rule.pattern.edges()

    def test_malformed_document_rejected(self):
        with pytest.raises(Exception):
            Pattern.from_dict({"name": "Q"})


class TestRuleSetSerialization:
    def test_example_rules_json_round_trip_exact(self):
        rules = example_rules()
        rebuilt = RuleSet.from_json(rules.to_json())
        assert rebuilt.name == rules.name
        assert len(rebuilt) == len(rules)
        for original, restored in zip(rules, rebuilt):
            assert restored.name == original.name
            assert restored.pattern == original.pattern
            assert restored.premise == original.premise
            assert restored.conclusion == original.conclusion
            assert restored == original

    def test_effectiveness_rules_round_trip(self):
        # NGD1/NGD2 compare against string constants — exercises quoting
        rules = effectiveness_rules()
        rebuilt = RuleSet.from_json(rules.to_json())
        assert [rule.name for rule in rebuilt] == [rule.name for rule in rules]
        assert all(a == b for a, b in zip(rules, rebuilt))

    def test_ngd_dict_round_trip(self):
        rule = phi4(weight_following=2, weight_follower=3, threshold=777)
        assert NGD.from_dict(rule.to_dict()) == rule

    def test_save_load_file(self, tmp_path):
        path = tmp_path / "rules.json"
        rules = example_rules()
        rules.save(path)
        loaded = RuleSet.load(path)
        assert loaded.name == rules.name
        assert loaded.rules() == rules.rules()

    def test_malformed_documents_rejected(self):
        with pytest.raises(DependencyError):
            RuleSet.from_json("{not json")
        with pytest.raises(DependencyError):
            RuleSet.from_dict({"rules": "nope"})
        with pytest.raises(DependencyError):
            NGD.from_dict({"name": "no-pattern"})

    def test_deserialized_rules_detect_identically(self):
        graph = figure1_g2()
        rules = example_rules()
        rebuilt = RuleSet.from_json(rules.to_json())
        rebuilt_result = Detector(rebuilt, engine="batch").run(graph)
        assert rebuilt_result.violations == Detector(rules, engine="batch").run(graph).violations
        assert Detector(rebuilt).run(graph).cost == Detector(rules).run(graph).cost
