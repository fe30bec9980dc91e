"""Tests for the executable hardness reductions (GSSP, 3-colourability, Diophantine)."""

from __future__ import annotations

import pytest

from repro.core.validation import find_violations, graph_satisfies
from repro.detect import Detector
from repro.errors import SatisfiabilityError
from repro.graph.graph import Graph
from repro.theory.coloring import ColoringInstance, coloring_to_incremental_instance, is_three_colorable
from repro.theory.gssp import GSSPInstance, gssp_holds, gssp_to_ngds, gssp_witness_graph
from repro.theory.hilbert import DiophantineEquation, diophantine_to_ngd, has_small_solution


class TestGSSP:
    def test_brute_force_positive(self):
        # choose v1 = (1,) so that 5 + {0, 3} never equals 4
        instance = GSSPInstance(u1=(5,), u2=(3,), target=4)
        assert gssp_holds(instance)

    def test_brute_force_negative(self):
        # for every v1 some v2 hits the target: u1=(1,), u2=(1,), target can always be reached?
        # v1=0: v2=1 gives 1 = 1; v1=1: v2=0 gives 1 = 1 → no winning v1
        instance = GSSPInstance(u1=(1,), u2=(1,), target=1)
        assert not gssp_holds(instance)

    def test_encoding_produces_three_rules(self):
        rules = gssp_to_ngds(GSSPInstance(u1=(5,), u2=(3,), target=4))
        assert len(rules) == 3
        assert rules.is_linear()

    def test_witness_graph_satisfies_encoding_for_yes_instance(self):
        instance = GSSPInstance(u1=(5,), u2=(3,), target=4)
        rules = gssp_to_ngds(instance)
        witness = gssp_witness_graph(instance, v1=(1,))
        assert graph_satisfies(witness, rules)

    def test_every_choice_violates_encoding_for_no_instance(self):
        instance = GSSPInstance(u1=(1,), u2=(1,), target=1)
        rules = gssp_to_ngds(instance)
        for choice in ((0,), (1,)):
            witness = gssp_witness_graph(instance, v1=choice)
            assert not graph_satisfies(witness, rules)

    def test_empty_instance_rejected(self):
        with pytest.raises(ValueError):
            GSSPInstance(u1=(), u2=(), target=0)


class TestColoringReduction:
    def test_triangle_is_three_colorable(self):
        instance = ColoringInstance(3, ((0, 1), (1, 2), (0, 2)))
        assert is_three_colorable(instance)

    def test_k4_is_not_three_colorable(self):
        edges = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
        assert not is_three_colorable(ColoringInstance(4, edges))

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            ColoringInstance(2, ((0, 5),))

    @pytest.mark.parametrize(
        "instance",
        [
            ColoringInstance(3, ((0, 1), (1, 2), (0, 2))),  # triangle: colourable
            ColoringInstance(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4))),  # K4: not
            ColoringInstance(4, ((0, 1), (1, 2), (2, 3), (3, 0))),  # 4-cycle: colourable
        ],
    )
    def test_incremental_detection_agrees_with_colorability(self, instance):
        graph, rules, delta = coloring_to_incremental_instance(instance)
        result = Detector(rules, engine="incremental").run_incremental(graph, delta)
        assert (not result.delta.is_empty()) == is_three_colorable(instance)

    def test_constant_size_artifacts(self):
        graph, rules, delta = coloring_to_incremental_instance(ColoringInstance(3, ((0, 1),)))
        assert graph.node_count() == 3
        assert len(delta) == 6
        assert len(rules) == 1


class TestDiophantine:
    def test_evaluate(self):
        # x^2 - 4 = 0
        equation = DiophantineEquation(1, (((1), (2,)), ((-4), (0,))))
        assert equation.evaluate((2,)) == 0
        assert equation.evaluate((3,)) == 5
        assert equation.degree() == 2

    def test_has_small_solution(self):
        solvable = DiophantineEquation(1, ((1, (2,)), (-4, (0,))))
        unsolvable = DiophantineEquation(1, ((1, (2,)), (-3, (0,))))  # x² = 3
        assert has_small_solution(solvable)
        assert not has_small_solution(unsolvable)

    def test_encoding_is_nonlinear_and_validates(self):
        equation = DiophantineEquation(1, ((1, (2,)), (-4, (0,))))  # x² = 4
        rule = diophantine_to_ngd(equation)
        assert not rule.is_linear()
        graph = Graph()
        graph.add_node("x0", "var", {"val": 2})
        assert graph_satisfies(graph, [rule])
        graph.set_attribute("x0", "val", 3)
        assert len(find_violations(graph, [rule])) == 1

    def test_satisfiability_checker_refuses_nonlinear_encoding(self):
        from repro.core.ngd import RuleSet
        from repro.core.satisfiability import is_satisfiable

        rule = diophantine_to_ngd(DiophantineEquation(1, ((1, (2,)), (-4, (0,)))))
        with pytest.raises(SatisfiabilityError):
            is_satisfiable(RuleSet([rule]))

    def test_malformed_equation_rejected(self):
        with pytest.raises(ValueError):
            DiophantineEquation(2, ((1, (1,)),))
        with pytest.raises(ValueError):
            DiophantineEquation(1, ((1, (-1,)),))
