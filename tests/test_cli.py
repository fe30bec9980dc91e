"""Tests for the ``repro-detect`` subcommand CLI: exit codes, JSON schema, rule files."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import format_result, main, result_to_dict
from repro.core.builtin_rules import example_rules
from repro.datasets.figure1 import figure1_g2, figure1_g4
from repro.detect import Detector, dect, inc_dect
from repro.graph.graph import Graph
from repro.graph.io import save_graph, save_update
from repro.graph.updates import BatchUpdate


@pytest.fixture
def g2_path(tmp_path):
    path = tmp_path / "g2.json"
    save_graph(figure1_g2(), path)
    return str(path)


@pytest.fixture
def clean_graph_path(tmp_path):
    graph = Graph("clean")
    graph.add_node("a", "area")
    path = tmp_path / "clean.json"
    save_graph(graph, path)
    return str(path)


@pytest.fixture
def delta_path(tmp_path):
    path = tmp_path / "delta.json"
    save_update(BatchUpdate().delete("Bhonpur", "total", "populationTotal"), path)
    return str(path)


class TestExitCodes:
    def test_run_violations_found_exits_1(self, g2_path):
        assert main(["run", g2_path]) == 1

    def test_run_clean_graph_exits_0(self, clean_graph_path):
        assert main(["run", clean_graph_path]) == 0

    def test_incremental_changes_exit_1(self, g2_path, delta_path):
        assert main(["incremental", g2_path, "--update", delta_path]) == 1

    def test_incremental_no_changes_exits_0(self, tmp_path):
        graph = Graph("clean2")
        graph.add_node("a", "area")
        graph.add_node("b", "area")
        graph_path = tmp_path / "clean2.json"
        save_graph(graph, graph_path)
        update_path = tmp_path / "noop.json"
        # an inserted edge no rule pattern mentions: ΔVio is empty
        save_update(BatchUpdate().insert("a", "b", "unrelated"), update_path)
        assert main(["incremental", str(graph_path), "--update", str(update_path)]) == 0

    def test_missing_graph_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_malformed_rules_file_exits_2(self, g2_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{definitely not rules", encoding="utf-8")
        assert main(["run", g2_path, "--rules-file", str(bad)]) == 2

    def test_structurally_bad_rules_file_exits_2(self, g2_path, tmp_path, capsys):
        # valid JSON, wrong shapes: a node entry missing its label
        bad = tmp_path / "bad_shape.json"
        bad.write_text(
            json.dumps({"rules": [{"name": "r", "pattern": {"name": "Q", "nodes": [["x"]]}}]}),
            encoding="utf-8",
        )
        assert main(["run", g2_path, "--rules-file", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "repro-detect" in capsys.readouterr().out

    def test_truncated_search_without_findings_exits_3(self, g2_path, capsys):
        # the graph has a violation, but a tiny cost budget stops before it:
        # that must not read as "verified clean"
        assert main(["run", g2_path, "--max-cost", "1", "--format", "json"]) == 3
        document = json.loads(capsys.readouterr().out)
        assert document["stopped_early"] is True
        assert document["violation_count"] == 0

    def test_nonpositive_budget_exits_2(self, g2_path, capsys):
        assert main(["run", g2_path, "--max-violations", "0"]) == 2
        assert "max_violations" in capsys.readouterr().err


class TestJsonFormat:
    def test_run_json_schema(self, g2_path, capsys):
        assert main(["run", g2_path, "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["algorithm"] == "Dect"
        assert document["violation_count"] == 1
        assert document["stopped_early"] is False
        assert document["processors"] == 1
        (entry,) = document["violations"]
        assert entry["rule"] == "phi2"
        assert entry["assignment"]["x"] == "Bhonpur"
        assert entry["variables"] == ["x", "y", "z", "w"]
        assert len(entry["nodes"]) == len(entry["variables"])

    def test_incremental_json_schema(self, g2_path, delta_path, capsys):
        assert main(["incremental", g2_path, "--update", delta_path, "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["algorithm"] == "IncDect"
        assert document["total_changes"] == 1
        assert document["introduced"] == []
        assert document["removed"][0]["rule"] == "phi2"

    def test_format_result_text_and_json_agree(self):
        result = dect(figure1_g4(), example_rules())
        text = format_result(result, "text")
        document = json.loads(format_result(result, "json"))
        assert f"{result.violation_count()} violations" in text
        assert document["violation_count"] == result.violation_count()
        assert document == result_to_dict(result)

    def test_format_result_incremental_text(self):
        graph = figure1_g2()
        delta = BatchUpdate().delete("Bhonpur", "total", "populationTotal")
        result = inc_dect(graph, example_rules(), delta)
        text = format_result(result, "text")
        assert "+0 / -1 violations" in text
        assert "- [phi2]" in text


class TestRulesSubcommand:
    def test_rules_list_text(self, capsys):
        assert main(["rules", "list"]) == 0
        output = capsys.readouterr().out
        assert "example-rules" in output
        for name in ("phi1", "phi2", "phi3", "phi4"):
            assert name in output

    def test_rules_list_json(self, capsys):
        assert main(["rules", "list", "--rules", "effectiveness", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [rule["name"] for rule in document["rules"]] == ["NGD1", "NGD2", "NGD3"]
        assert all("diameter" in rule for rule in document["rules"])

    def test_rules_export_round_trips_through_run(self, g2_path, tmp_path, capsys):
        rules_path = tmp_path / "rules.json"
        assert main(["rules", "export", "-o", str(rules_path)]) == 0
        # exported file is valid rule-set JSON
        from repro.core.ngd import RuleSet

        exported = RuleSet.load(rules_path)
        assert exported.rules() == example_rules().rules()

        # --rules-file produces the same answer as the built-in rules
        assert main(["run", g2_path, "--format", "json"]) == 1
        builtin_doc = json.loads(capsys.readouterr().out)
        assert main(["run", g2_path, "--rules-file", str(rules_path), "--format", "json"]) == 1
        file_doc = json.loads(capsys.readouterr().out)
        assert file_doc == builtin_doc

    def test_rules_export_to_stdout(self, capsys):
        assert main(["rules", "export", "--rules", "effectiveness"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["name"] == "effectiveness-rules"


class TestDetectionFlags:
    def test_max_violations_caps_output(self, tmp_path, capsys):
        graph = Graph("two-vio")
        for index in range(2):
            area = f"a{index}"
            graph.add_node(area, "area")
            graph.add_node(f"{area}f", "integer", {"val": 1})
            graph.add_node(f"{area}m", "integer", {"val": 2})
            graph.add_node(f"{area}t", "integer", {"val": 999})
            graph.add_edge(area, f"{area}f", "femalePopulation")
            graph.add_edge(area, f"{area}m", "malePopulation")
            graph.add_edge(area, f"{area}t", "populationTotal")
        path = tmp_path / "two.json"
        save_graph(graph, path)
        assert main(["run", str(path), "--max-violations", "1", "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["violation_count"] == 1
        assert document["stopped_early"] is True
        assert document["stop_reason"] == "max_violations"

    def test_parallel_engine_via_processors(self, g2_path, capsys):
        assert main(["run", g2_path, "--processors", "4"]) == 1
        assert "PDect" in capsys.readouterr().out

    def test_explicit_batch_engine_overrides_processors(self, g2_path, capsys):
        assert main(["run", g2_path, "--engine", "batch", "--processors", "4"]) == 1
        assert "Dect: 1 violations" in capsys.readouterr().out

    def test_store_flag(self, g2_path, capsys):
        for store in ("dict", "indexed"):
            assert main(["run", g2_path, "--store", store, "--format", "json"]) == 1
            assert json.loads(capsys.readouterr().out)["violation_count"] == 1

    def test_cli_matches_session_api(self, g2_path, capsys):
        assert main(["run", g2_path, "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        result = Detector(example_rules()).run(figure1_g2())
        assert document["cost"] == result.cost
        assert document["violation_count"] == result.violation_count()

    def test_no_compiled_flag_is_gone(self, g2_path, capsys):
        assert main(["run", g2_path, "--no-compiled"]) == 2
        assert "--no-compiled" in capsys.readouterr().err

    def test_profile_prints_one_literal_count(self, g2_path, capsys):
        result = Detector(example_rules(), engine="batch").run(figure1_g2())
        obs.configure(True)  # an empty registry, so the profile counts this run alone
        try:
            assert main(["run", g2_path, "--engine", "batch", "--profile"]) == 1
        finally:
            obs.configure()
        err = capsys.readouterr().err
        assert f"\nliteral evaluations: {result.stats.literal_evaluations}\n" in err
        assert "by evaluator" not in err


class TestRulesDiscover:
    """`repro-detect rules discover` mines NGDs straight into the rule-file format."""

    @pytest.fixture
    def minable_graph_path(self, tmp_path):
        from repro.datasets.synthetic import synthetic_graph

        path = tmp_path / "minable.json"
        save_graph(synthetic_graph(num_nodes=400, num_edges=800, seed=3, name="minable"), path)
        return str(path)

    def test_discover_writes_a_loadable_rule_file(self, minable_graph_path, tmp_path, capsys):
        from repro.core.ngd import RuleSet
        from repro.discovery import DiscoveryConfig, discover_ngds
        from repro.graph.io import load_graph

        out = tmp_path / "mined.json"
        code = main(
            [
                "rules",
                "discover",
                minable_graph_path,
                "-o",
                str(out),
                "--max-rules",
                "6",
                "--min-support",
                "4",
            ]
        )
        assert code == 0
        assert "discovered" in capsys.readouterr().out
        loaded = RuleSet.load(out)
        assert 0 < len(loaded) <= 6
        # the file round-trips exactly and matches a direct miner run
        assert RuleSet.from_json(loaded.to_json()).rules() == loaded.rules()
        direct = discover_ngds(
            load_graph(minable_graph_path),
            DiscoveryConfig(max_rules=6, min_support=4),
        )
        assert loaded.rules() == direct.rules()
        # mined rules are usable by the detection path
        assert main(["run", minable_graph_path, "--rules-file", str(out)]) in (0, 1)

    def test_discover_to_stdout(self, minable_graph_path, capsys):
        code = main(["rules", "discover", minable_graph_path, "--max-rules", "3", "--min-support", "4"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["rules"]

    def test_discover_without_graph_exits_2(self, capsys):
        assert main(["rules", "discover"]) == 2
        assert "needs a graph file" in capsys.readouterr().err

    def test_list_with_graph_argument_exits_2(self, g2_path, capsys):
        assert main(["rules", "list", g2_path]) == 2
        assert "only valid with 'discover'" in capsys.readouterr().err
