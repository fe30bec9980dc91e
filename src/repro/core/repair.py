"""Graph repairing with NGDs (the paper's first future-work topic, Section 8).

Given a graph, a rule set and the violations detected in it, a *repair*
changes attribute values so that the previously violating matches satisfy
their rules again, changing as little as possible.  This module implements a
practical value-repair engine for the linear NGD fragment:

* every violating match contributes the constraint "the conclusion's literals
  must hold" (the premise is left untouched — we never repair a violation by
  breaking its premise, which would risk masking genuine errors);
* the attributes mentioned by those conclusion literals are the *repairable*
  unknowns; all other attribute occurrences keep their current value;
* the engine minimises the total absolute change Σ |new − old| over the
  repairable attributes, solving the resulting LP/MILP exactly with HiGHS
  (the same solver backbone as the satisfiability checker);
* repairs are returned as :class:`AttributeRepair` records and can be applied
  to (a copy of) the graph, after which the repaired matches no longer
  violate their rules.

Limitations (documented, enforced with clear errors): only linear literals
without absolute values or disequalities (``≠``) can be repaired — the same
normal form the satisfiability checker uses.  Violations whose conclusion
cannot be repaired (e.g. it is empty) are reported as unrepairable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real
from typing import Optional

from repro.core.ngd import NGD, RuleSet
from repro.core.violations import Violation, ViolationSet
from repro.errors import ValidationError
from repro.expr.literals import Comparison
from repro.graph.graph import Graph

__all__ = ["AttributeRepair", "RepairPlan", "plan_repairs", "apply_repairs", "repair_graph"]


@dataclass(frozen=True)
class AttributeRepair:
    """One attribute-value change: set ``node.attribute`` from ``old_value`` to ``new_value``."""

    node: object
    attribute: str
    old_value: Real
    new_value: Real

    def magnitude(self) -> float:
        """Return |new − old|, the cost this repair contributes."""
        return abs(float(self.new_value) - float(self.old_value))


@dataclass
class RepairPlan:
    """The outcome of repair planning: the changes plus anything that could not be fixed."""

    repairs: list[AttributeRepair] = field(default_factory=list)
    unrepairable: list[Violation] = field(default_factory=list)

    def total_cost(self) -> float:
        """Return the summed magnitude of all planned changes."""
        return sum(repair.magnitude() for repair in self.repairs)

    def is_complete(self) -> bool:
        """Return True when every violation handed to the planner was repairable."""
        return not self.unrepairable


def _conclusion_constraints(
    rule: NGD, violation: Violation
) -> list[tuple[dict[tuple[object, str], Fraction], Comparison, Fraction]]:
    """Ground the conclusion literals of ``rule`` over ``violation`` into linear constraints."""
    mapping = violation.mapping()
    constraints = []
    for literal in rule.conclusion:
        if not literal.is_linear() or literal.uses_absolute_value():
            raise ValidationError(
                f"literal {literal} of rule {rule.name} is outside the repairable fragment"
            )
        if literal.comparison is Comparison.NE:
            raise ValidationError(
                f"literal {literal} of rule {rule.name} uses ≠ and cannot be value-repaired deterministically"
            )
        normal = literal.to_linear_constraint()
        grounded: dict[tuple[object, str], Fraction] = {}
        for (variable, attribute), coefficient in normal.coefficients:
            key = (mapping[variable], attribute)
            grounded[key] = grounded.get(key, Fraction(0)) + coefficient
        constraints.append((grounded, normal.comparison, normal.bound))
    return constraints


def plan_repairs(
    graph: Graph,
    rules: RuleSet | list[NGD],
    violations: ViolationSet,
    integral: bool = True,
) -> RepairPlan:
    """Plan minimal attribute-value changes that fix every repairable violation.

    ``integral`` keeps the repaired values integer (the paper's attribute
    domain); pass False to allow fractional repairs.
    """
    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(rules)
    rules_by_name = {rule.name: rule for rule in rule_set}
    plan = RepairPlan()

    constraints: list[tuple[dict[tuple[object, str], Fraction], Comparison, Fraction]] = []
    repairable_keys: set[tuple[object, str]] = set()
    for violation in violations:
        rule = rules_by_name.get(violation.rule)
        if rule is None or not len(rule.conclusion):
            plan.unrepairable.append(violation)
            continue
        try:
            grounded = _conclusion_constraints(rule, violation)
        except ValidationError:
            plan.unrepairable.append(violation)
            continue
        missing_attribute = False
        for coefficients, _, _ in grounded:
            for node_id, attribute in coefficients:
                if not graph.has_node(node_id):
                    missing_attribute = True
        if missing_attribute:
            plan.unrepairable.append(violation)
            continue
        constraints.extend(grounded)
        for coefficients, _, _ in grounded:
            repairable_keys.update(coefficients.keys())

    if not constraints:
        return plan

    solution = _solve_minimal_change(graph, sorted(repairable_keys, key=repr), constraints, integral)
    if solution is None:
        # the conclusions of different violations contradict each other; report all as unrepairable
        plan.unrepairable.extend(
            violation for violation in violations if violation not in plan.unrepairable
        )
        return plan

    for (node_id, attribute), new_value in solution.items():
        old_value = graph.node(node_id).attribute(attribute, 0)
        if not isinstance(old_value, (int, float)) or isinstance(old_value, bool):
            old_value = 0
        if new_value != old_value:
            plan.repairs.append(AttributeRepair(node_id, attribute, old_value, new_value))
    return plan


def _solve_minimal_change(
    graph: Graph,
    keys: list[tuple[object, str]],
    constraints: list[tuple[dict[tuple[object, str], Fraction], Comparison, Fraction]],
    integral: bool,
) -> Optional[dict[tuple[object, str], Real]]:
    """Minimise Σ|x − current| subject to the grounded conclusion constraints.

    Standard LP trick: each repairable value x gets a companion deviation
    variable d with d ≥ x − current and d ≥ current − x, and the objective is
    Σ d.  Strict inequalities are tightened by one (integer domain) or by a
    small epsilon (continuous domain).
    """
    index = {key: i for i, key in enumerate(keys)}
    num_values = len(keys)
    num_variables = 2 * num_values  # values then deviations

    current = []
    for node_id, attribute in keys:
        value = graph.node(node_id).attribute(attribute, 0)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            value = 0
        current.append(Fraction(value))

    upper_rows: list[list[float]] = []
    upper_bounds: list[float] = []
    equality_rows: list[list[float]] = []
    equality_bounds: list[float] = []

    for coefficients, comparison, bound in constraints:
        row = [0.0] * num_variables
        for key, coefficient in coefficients.items():
            row[index[key]] += float(coefficient)
        target = float(bound)
        if comparison is Comparison.EQ:
            equality_rows.append(row)
            equality_bounds.append(target)
        elif comparison in (Comparison.LE, Comparison.LT):
            adjustment = 1.0 if (comparison is Comparison.LT and integral) else (1e-6 if comparison is Comparison.LT else 0.0)
            upper_rows.append(row)
            upper_bounds.append(target - adjustment)
        else:  # GE / GT
            adjustment = 1.0 if (comparison is Comparison.GT and integral) else (1e-6 if comparison is Comparison.GT else 0.0)
            upper_rows.append([-value for value in row])
            upper_bounds.append(-(target + adjustment))

    # deviation constraints: x_i - d_i <= current_i  and  -x_i - d_i <= -current_i
    for i in range(num_values):
        row = [0.0] * num_variables
        row[i] = 1.0
        row[num_values + i] = -1.0
        upper_rows.append(row)
        upper_bounds.append(float(current[i]))
        row = [0.0] * num_variables
        row[i] = -1.0
        row[num_values + i] = -1.0
        upper_rows.append(row)
        upper_bounds.append(float(-current[i]))

    from scipy.optimize import linprog  # deferred: see core.satisfiability._milp_feasible

    result = linprog(
        c=[0.0] * num_values + [1.0] * num_values,
        A_ub=upper_rows,
        b_ub=upper_bounds,
        A_eq=equality_rows or None,
        b_eq=equality_bounds or None,
        bounds=[(None, None)] * num_values + [(0, None)] * num_values,
        integrality=[int(integral)] * num_values + [0] * num_values,
        method="highs",
    )
    if not result.success:
        return None
    solution: dict[tuple[object, str], Real] = {}
    for key, i in index.items():
        value = result.x[i]
        solution[key] = int(round(value)) if integral else float(value)
    return solution


def apply_repairs(graph: Graph, plan: RepairPlan, in_place: bool = False) -> Graph:
    """Apply a repair plan, returning the repaired graph (a copy unless ``in_place``)."""
    target = graph if in_place else graph.copy()
    for repair in plan.repairs:
        target.set_attribute(repair.node, repair.attribute, repair.new_value)
    return target


def repair_graph(
    graph: Graph,
    rules: RuleSet | list[NGD],
    violations: Optional[ViolationSet] = None,
    integral: bool = True,
) -> tuple[Graph, RepairPlan]:
    """Detect (if needed), plan and apply repairs; return the repaired graph and the plan."""
    from repro.core.validation import find_violations

    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(rules)
    found = violations if violations is not None else find_violations(graph, rule_set)
    plan = plan_repairs(graph, rule_set, found, integral=integral)
    return apply_repairs(graph, plan), plan
