"""Satisfiability, strong satisfiability and implication of NGDs.

Section 4 of the paper establishes that these analyses are Σp2-complete /
Πp2-complete for linear NGDs and undecidable once non-linear expressions are
allowed (Theorem 3).  An exact polynomial procedure therefore cannot exist;
this module implements the **bounded small-model search** suggested by the
upper-bound proofs:

1. Candidate models are built from the rule patterns themselves: the
   canonical graph of each pattern (wildcards instantiated with fresh labels)
   and its homomorphic quotients (label-compatible node merges).  The small
   model property guarantees that *if* a set of NGDs is satisfiable, a model
   of size polynomial in |Σ| exists; pattern canonical graphs and their
   quotients cover the models the proofs construct.
2. For a fixed candidate model, node attribute values (and their presence)
   are unknowns.  Every match of every rule contributes the requirement
   ``¬sat(X) ∨ sat(Y)``; the checker enumerates the ways of discharging each
   requirement and tests each resulting conjunction of linear constraints for
   integer feasibility with an exact MILP (scipy's HiGHS backend).

The result is sound in both directions for the bounded search space and is
exact on rule sets whose conflicts are expressible within their own patterns
(which covers the paper's examples φ5–φ9 and the rule shapes produced by the
discovery module).  Inputs that would exceed the configured search budget
raise :class:`SatisfiabilityError` rather than silently guessing.

Non-linear rules are rejected with :class:`SatisfiabilityError` referencing
Theorem 3; rules whose literals use ``|·|`` are likewise rejected here (the
absolute value is fine for validation but the satisfiability normal form does
not support it).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from repro.core.ngd import NGD, RuleSet
from repro.errors import SatisfiabilityError
from repro.expr.literals import Comparison, Literal
from repro.graph.graph import WILDCARD, Graph
from repro.matching.matchn import HomomorphismMatcher

__all__ = [
    "SatisfiabilityResult",
    "check_satisfiability",
    "is_satisfiable",
    "is_strongly_satisfiable",
    "implies",
]

#: Hard cap on the number of discharge combinations explored per model; the
#: search raises SatisfiabilityError instead of exceeding it.
MAX_CASES = 200_000
#: Patterns larger than this do not get quotient enumeration (Bell-number blowup).
MAX_QUOTIENT_NODES = 6


@dataclass
class SatisfiabilityResult:
    """Outcome of a (strong) satisfiability check."""

    satisfiable: bool
    witness: Optional[Graph] = None
    witness_attributes: Optional[dict[tuple[object, str], int]] = None

    def __bool__(self) -> bool:
        return self.satisfiable


# --------------------------------------------------------------------------
# constraint atoms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _LinearAtom:
    """``Σ coeff · value(node, attr)  ⊗  bound`` over the candidate model's nodes."""

    coefficients: tuple[tuple[tuple[object, str], Fraction], ...]
    comparison: Comparison
    bound: Fraction


@dataclass(frozen=True)
class _PresenceAtom:
    """Attribute ``attr`` of model node ``node`` must be present (or absent)."""

    node: object
    attribute: str
    present: bool


def _ground_literal(literal: Literal, match: dict[str, object]) -> tuple[list[_PresenceAtom], _LinearAtom]:
    """Ground a pattern literal over a concrete match into presence + linear atoms."""
    if literal.uses_absolute_value():
        raise SatisfiabilityError(
            f"literal {literal} uses |·|; the satisfiability normal form does not support it"
        )
    if not literal.is_linear():
        raise SatisfiabilityError(
            f"literal {literal} is non-linear; satisfiability of non-linear NGDs is undecidable (Theorem 3)"
        )
    constraint = literal.to_linear_constraint()
    presence = [
        _PresenceAtom(match[variable], attribute, True)
        for variable, attribute in literal.variables()
    ]
    grounded: dict[tuple[object, str], Fraction] = {}
    for (variable, attribute), coefficient in constraint.coefficients:
        key = (match[variable], attribute)
        grounded[key] = grounded.get(key, Fraction(0)) + coefficient
    ordered = tuple(sorted(grounded.items(), key=lambda item: (repr(item[0]), item[0][1])))
    return presence, _LinearAtom(ordered, constraint.comparison, constraint.bound)


# --------------------------------------------------------------------------
# feasibility of a conjunction of atoms (integer domain)
# --------------------------------------------------------------------------


def _split_disequalities(atoms: list[_LinearAtom]) -> Iterable[list[_LinearAtom]]:
    """Expand ``≠`` atoms into the two strict alternatives (cartesian product)."""
    fixed = [atom for atom in atoms if atom.comparison is not Comparison.NE]
    disequalities = [atom for atom in atoms if atom.comparison is Comparison.NE]
    if not disequalities:
        yield list(fixed)
        return
    for directions in itertools.product((Comparison.LT, Comparison.GT), repeat=len(disequalities)):
        case = list(fixed)
        for atom, direction in zip(disequalities, directions):
            case.append(_LinearAtom(atom.coefficients, direction, atom.bound))
        yield case


def _integer_feasible(atoms: list[_LinearAtom]) -> Optional[dict[tuple[object, str], int]]:
    """Return an integer solution of the conjunction of atoms, or None when infeasible."""
    for case in _split_disequalities(atoms):
        solution = _milp_feasible(case)
        if solution is not None:
            return solution
    return None


def _milp_feasible(atoms: list[_LinearAtom]) -> Optional[dict[tuple[object, str], int]]:
    """Integer feasibility of =, <, ≤, >, ≥ atoms via an exact MILP (HiGHS)."""
    variables = sorted({key for atom in atoms for key, _ in atom.coefficients}, key=repr)
    if not variables:
        # no unknowns: every atom is a ground numeric comparison
        for atom in atoms:
            if not atom.comparison.holds(Fraction(0), atom.bound):
                return None
        return {}
    index = {key: i for i, key in enumerate(variables)}

    upper_rows: list[list[float]] = []
    upper_bounds: list[float] = []
    equality_rows: list[list[float]] = []
    equality_bounds: list[float] = []

    for atom in atoms:
        row = [Fraction(0)] * len(variables)
        for key, coefficient in atom.coefficients:
            row[index[key]] += coefficient
        comparison, bound = atom.comparison, atom.bound
        if comparison in (Comparison.GT, Comparison.GE):
            row = [-value for value in row]
            bound = -bound
            comparison = Comparison.LT if comparison is Comparison.GT else Comparison.LE
        scale = _common_denominator([bound] + row)
        int_row = [int(value * scale) for value in row]
        int_bound = bound * scale
        if comparison is Comparison.EQ:
            if int_bound.denominator != 1:
                return None  # integer row can never equal a fractional bound
            equality_rows.append([float(v) for v in int_row])
            equality_bounds.append(float(int_bound))
        elif comparison is Comparison.LE:
            upper_rows.append([float(v) for v in int_row])
            upper_bounds.append(float(_floor_fraction(int_bound)))
        else:  # strict <, integer row: Σ a·x ≤ ceil(bound) - 1
            upper_rows.append([float(v) for v in int_row])
            upper_bounds.append(float(_strict_upper(int_bound)))

    # scipy (and numpy under it) costs 0.8 s to import and no detection path
    # solves an LP: paid here, by the first satisfiability check, and nowhere else
    from scipy.optimize import linprog

    result = linprog(
        c=[0.0] * len(variables),
        A_ub=upper_rows or None,
        b_ub=upper_bounds or None,
        A_eq=equality_rows or None,
        b_eq=equality_bounds or None,
        bounds=[(None, None)] * len(variables),
        integrality=[1] * len(variables),
        method="highs",
    )
    if not result.success:
        return None
    return {key: int(round(result.x[i])) for key, i in index.items()}


def _common_denominator(values: list[Fraction]) -> int:
    denominator = 1
    for value in values:
        denominator = denominator * value.denominator // _gcd(denominator, value.denominator)
    return denominator


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _floor_fraction(value: Fraction) -> int:
    return value.numerator // value.denominator


def _strict_upper(value: Fraction) -> int:
    """Largest integer strictly below ``value``."""
    floor = _floor_fraction(value)
    return floor - 1 if value == floor else floor


# --------------------------------------------------------------------------
# candidate models
# --------------------------------------------------------------------------


def _fresh_label(counter: int) -> str:
    return f"__fresh_{counter}"


def _canonical_model(rules: Iterable[NGD], name: str) -> Graph:
    """Disjoint union of the canonical graphs of the given rules' patterns."""
    graph = Graph(name)
    fresh = itertools.count()
    for rule_index, rule in enumerate(rules):
        for variable in rule.pattern.variables:
            node = rule.pattern.node(variable)
            label = node.label if node.label != WILDCARD else _fresh_label(next(fresh))
            graph.add_node((rule_index, variable), label)
        for edge in rule.pattern.edges():
            graph.add_edge((rule_index, edge.source), (rule_index, edge.target), edge.label)
    return graph


def _quotient_models(rule: NGD, rule_index: int) -> list[Graph]:
    """Return quotients of one pattern's canonical graph (label-compatible merges)."""
    variables = list(rule.pattern.variables)
    if not variables or len(variables) > MAX_QUOTIENT_NODES:
        return []
    models: list[Graph] = []
    for partition in _set_partitions(variables):
        if len(partition) == len(variables):
            continue  # identical to the canonical model
        labels: list[Optional[str]] = []
        compatible = True
        for block in partition:
            block_labels = {rule.pattern.node(v).label for v in block} - {WILDCARD}
            if len(block_labels) > 1:
                compatible = False
                break
            labels.append(next(iter(block_labels)) if block_labels else None)
        if not compatible:
            continue
        graph = Graph(f"{rule.pattern.name}-quotient")
        fresh = itertools.count()
        block_of = {v: i for i, block in enumerate(partition) for v in block}
        for i, block in enumerate(partition):
            label = labels[i] if labels[i] is not None else _fresh_label(next(fresh))
            graph.add_node((rule_index, f"block{i}"), label)
        for edge in rule.pattern.edges():
            graph.add_edge(
                (rule_index, f"block{block_of[edge.source]}"),
                (rule_index, f"block{block_of[edge.target]}"),
                edge.label,
            )
        models.append(graph)
    return models


def _set_partitions(items: list[str]) -> Iterable[list[list[str]]]:
    """Enumerate all partitions of ``items`` (restricted growth strings)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


# --------------------------------------------------------------------------
# model checking: does a candidate topology admit consistent attribute values?
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Requirement:
    """One rule-match pair: the match must satisfy ``¬sat(X) ∨ sat(Y)`` (or violate, for witnesses)."""

    rule: NGD
    match: tuple[tuple[str, object], ...]
    must_violate: bool = False

    def mapping(self) -> dict[str, object]:
        return dict(self.match)


def _collect_requirements(model: Graph, rules: RuleSet) -> list[_Requirement]:
    requirements: list[_Requirement] = []
    for rule in rules:
        matcher = HomomorphismMatcher(model, rule.pattern)
        for match in matcher.matches():
            requirements.append(_Requirement(rule, tuple(sorted(match.items()))))
    return requirements


def _discharge_options(requirement: _Requirement) -> list[tuple[list[_PresenceAtom], list[_LinearAtom]]]:
    """Enumerate ways to discharge a requirement as (presence atoms, linear atoms).

    For ``¬sat(X) ∨ sat(Y)`` the options are: falsify one premise literal
    (either by dropping one of its attributes or by negating its comparison),
    or satisfy every conclusion literal.  A witness requirement
    (``must_violate``) instead needs sat(X) plus a falsified conclusion literal.
    """
    match = requirement.mapping()
    rule = requirement.rule
    options: list[tuple[list[_PresenceAtom], list[_LinearAtom]]] = []

    def satisfy_all(literals: Iterable[Literal]) -> tuple[list[_PresenceAtom], list[_LinearAtom]]:
        presence: list[_PresenceAtom] = []
        linear: list[_LinearAtom] = []
        for literal in literals:
            p, atom = _ground_literal(literal, match)
            presence.extend(p)
            linear.append(atom)
        return presence, linear

    def falsify_options(literal: Literal) -> list[tuple[list[_PresenceAtom], list[_LinearAtom]]]:
        result: list[tuple[list[_PresenceAtom], list[_LinearAtom]]] = []
        presence, atom = _ground_literal(literal, match)
        # negate the comparison, keeping every attribute present
        negated = _LinearAtom(atom.coefficients, atom.comparison.negate(), atom.bound)
        result.append((presence, [negated]))
        # or drop one referenced attribute
        for p in presence:
            result.append(([_PresenceAtom(p.node, p.attribute, False)], []))
        return result

    if requirement.must_violate:
        premise_presence, premise_linear = satisfy_all(rule.premise)
        if not rule.conclusion:
            return []  # an empty conclusion is always satisfied; no violation possible
        for literal in rule.conclusion:
            for presence, linear in falsify_options(literal):
                options.append((premise_presence + presence, premise_linear + linear))
        return options

    # normal requirement: ¬sat(X) ∨ sat(Y)
    for literal in rule.premise:
        options.extend(falsify_options(literal))
    conclusion_presence, conclusion_linear = satisfy_all(rule.conclusion)
    options.append((conclusion_presence, conclusion_linear))
    return options


def _model_admits_values(
    model: Graph, requirements: list[_Requirement]
) -> Optional[dict[tuple[object, str], int]]:
    """Search discharge combinations for one whose constraints are integer-feasible."""
    all_options = [_discharge_options(requirement) for requirement in requirements]
    if any(not options for options in all_options):
        return None
    total = 1
    for options in all_options:
        total *= len(options)
        if total > MAX_CASES:
            raise SatisfiabilityError(
                f"satisfiability search budget exceeded ({total} discharge combinations; cap {MAX_CASES})"
            )

    def search(index: int, presence: dict[tuple[object, str], bool], atoms: list[_LinearAtom]):
        if index == len(all_options):
            solution = _integer_feasible(atoms)
            return solution if solution is not None else None
        for option_presence, option_atoms in all_options[index]:
            merged = dict(presence)
            consistent = True
            for atom in option_presence:
                key = (atom.node, atom.attribute)
                if key in merged and merged[key] != atom.present:
                    consistent = False
                    break
                merged[key] = atom.present
            if not consistent:
                continue
            # a linear atom may only constrain attributes marked present
            usable = True
            for linear_atom in option_atoms:
                for key, _ in linear_atom.coefficients:
                    if merged.get(key, True) is False:
                        usable = False
                        break
                if not usable:
                    break
            if not usable:
                continue
            outcome = search(index + 1, merged, atoms + list(option_atoms))
            if outcome is not None:
                return outcome
        return None

    return search(0, {}, [])


# --------------------------------------------------------------------------
# public API
# --------------------------------------------------------------------------


def _reject_nonlinear(rules: RuleSet) -> None:
    for rule in rules:
        if not rule.is_linear():
            raise SatisfiabilityError(
                f"rule {rule.name} has non-linear literals; satisfiability/implication "
                "of non-linear NGDs is undecidable (Theorem 3)"
            )


def check_satisfiability(rules: RuleSet | list[NGD], strong: bool = False) -> SatisfiabilityResult:
    """Check (strong) satisfiability of a set of NGDs within the bounded model space.

    Returns a :class:`SatisfiabilityResult`; when satisfiable, ``witness`` is a
    model graph and ``witness_attributes`` an integer attribute assignment
    satisfying every rule.
    """
    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(rules)
    if not len(rule_set):
        return SatisfiabilityResult(True, Graph("empty-model"), {})
    _reject_nonlinear(rule_set)

    candidates: list[Graph] = []
    if strong:
        candidates.append(_canonical_model(rule_set, "strong-canonical"))
    else:
        for index, rule in enumerate(rule_set):
            candidates.append(_canonical_model([rule], f"canonical-{rule.name}"))
            candidates.extend(_quotient_models(rule, index))

    for model in candidates:
        if model.node_count() == 0:
            continue
        requirements = _collect_requirements(model, rule_set)
        if strong:
            matched = {
                requirement.rule.name for requirement in requirements
            }
            if matched != {rule.name for rule in rule_set}:
                continue
        elif not requirements:
            continue
        solution = _model_admits_values(model, requirements)
        if solution is not None:
            witness = model.copy()
            for (node_id, attribute), value in solution.items():
                witness.set_attribute(node_id, attribute, value)
            return SatisfiabilityResult(True, witness, solution)
    return SatisfiabilityResult(False)


def is_satisfiable(rules: RuleSet | list[NGD]) -> bool:
    """Return True when the rule set has a model in which some pattern matches."""
    return check_satisfiability(rules, strong=False).satisfiable


def is_strongly_satisfiable(rules: RuleSet | list[NGD]) -> bool:
    """Return True when the rule set has a model in which every pattern matches."""
    return check_satisfiability(rules, strong=True).satisfiable


def implies(rules: RuleSet | list[NGD], candidate: NGD) -> bool:
    """Return True when Σ ⊨ φ within the bounded witness search.

    The checker searches for a counterexample: a model of Σ containing a match
    of φ's pattern that violates φ.  Candidate witness topologies are φ's
    canonical pattern graph and its quotients.  When no counterexample exists
    in that space the implication is reported to hold.
    """
    rule_set = rules if isinstance(rules, RuleSet) else RuleSet(rules)
    _reject_nonlinear(rule_set)
    _reject_nonlinear(RuleSet([candidate]))

    witness_models = [_canonical_model([candidate], f"witness-{candidate.name}")]
    witness_models.extend(_quotient_models(candidate, 0))

    for model in witness_models:
        if model.node_count() == 0:
            continue
        requirements = _collect_requirements(model, rule_set)
        matcher = HomomorphismMatcher(model, candidate.pattern)
        for match in matcher.matches():
            witness_requirement = _Requirement(
                candidate, tuple(sorted(match.items())), must_violate=True
            )
            solution = _model_admits_values(model, requirements + [witness_requirement])
            if solution is not None:
                return False
    return True
