"""The NGDs and patterns used throughout the paper.

This module materialises, with the exact semantics described in the paper:

* patterns **Q1–Q4** (Figure 2) and the NGDs **φ1–φ4** of Example 3, which
  catch the four inconsistencies of Example 1 / Figure 1;
* the single-node NGDs **φ5–φ9** of Example 5, used to exercise the
  satisfiability checker;
* patterns **Q5–Q7** (Figure 4(o)) and the rules **NGD1–NGD3** of the
  effectiveness study (Exp-5).

Attribute conventions follow the paper: value-carrying nodes (dates, integer
literals, booleans) expose their value through the ``val`` attribute; typed
entity nodes carry domain attributes (``type``, ``numberOfWins``).
"""

from __future__ import annotations

from repro.core.ngd import NGD, RuleSet
from repro.expr.expressions import TermExpression, const, var
from repro.expr.literals import Comparison, Literal, LiteralSet
from repro.expr.terms import Constant
from repro.graph.graph import WILDCARD
from repro.graph.pattern import Pattern

__all__ = [
    "pattern_q1",
    "pattern_q2",
    "pattern_q3",
    "pattern_q4",
    "pattern_q5",
    "pattern_q6",
    "pattern_q7",
    "phi1",
    "phi2",
    "phi3",
    "phi4",
    "phi5",
    "phi6",
    "phi7",
    "phi8",
    "phi9",
    "ngd1",
    "ngd2",
    "ngd3",
    "example_rules",
    "effectiveness_rules",
]


# ---------------------------------------------------------------- Figure 2


def pattern_q1() -> Pattern:
    """Q1: an entity with creation and destruction dates (Yago)."""
    return Pattern(
        "Q1",
        nodes=[("x", WILDCARD), ("y", "date"), ("z", "date")],
        edges=[("x", "y", "wasCreatedOnDate"), ("x", "z", "wasDestroyedOnDate")],
    )


def pattern_q2() -> Pattern:
    """Q2: an area with female, male and total population counts (Yago)."""
    return Pattern(
        "Q2",
        nodes=[("x", "area"), ("y", "integer"), ("z", "integer"), ("w", "integer")],
        edges=[
            ("x", "y", "femalePopulation"),
            ("x", "z", "malePopulation"),
            ("x", "w", "populationTotal"),
        ],
    )


def pattern_q3() -> Pattern:
    """Q3: two places in the same region with populations and population ranks (DBpedia)."""
    return Pattern(
        "Q3",
        nodes=[
            ("x", "place"),
            ("y", "place"),
            ("z", "place"),
            ("m1", "integer"),
            ("m2", "integer"),
            ("n1", "integer"),
            ("n2", "integer"),
        ],
        edges=[
            ("x", "z", "partof"),
            ("y", "z", "partof"),
            ("x", "m1", "population"),
            ("y", "m2", "population"),
            ("x", "n1", "populationRank"),
            ("y", "n2", "populationRank"),
        ],
    )


def pattern_q4() -> Pattern:
    """Q4: two accounts referring to the same company, with status/follower/following counts (Twitter)."""
    return Pattern(
        "Q4",
        nodes=[
            ("x", "account"),
            ("y", "account"),
            ("w", "company"),
            ("s1", "boolean"),
            ("s2", "boolean"),
            ("m1", "integer"),
            ("m2", "integer"),
            ("n1", "integer"),
            ("n2", "integer"),
        ],
        edges=[
            ("x", "w", "keys"),
            ("y", "w", "keys"),
            ("x", "s1", "status"),
            ("y", "s2", "status"),
            ("x", "m1", "following"),
            ("y", "m2", "following"),
            ("x", "n1", "follower"),
            ("y", "n2", "follower"),
        ],
    )


# ------------------------------------------------------------- Figure 4(o)


def pattern_q5() -> Pattern:
    """Q5: a person with a birth year and a category (DBpedia)."""
    return Pattern(
        "Q5",
        nodes=[("x", "person"), ("y", "integer"), ("z", "string")],
        edges=[("x", "y", "birthYear"), ("x", "z", "category")],
    )


def pattern_q6() -> Pattern:
    """Q6: a major event including a competition with nation and competitor counts."""
    return Pattern(
        "Q6",
        nodes=[("w", "major_event"), ("x", "competition"), ("y", "integer"), ("z", "integer")],
        edges=[("w", "x", "includes"), ("x", "y", "competitors"), ("x", "z", "nations")],
    )


def pattern_q7() -> Pattern:
    """Q7: an F1 team and two of its drivers in the same year."""
    return Pattern(
        "Q7",
        nodes=[("x", "team"), ("w1", "driver"), ("w2", "driver"), ("y", "year")],
        edges=[
            ("w1", "x", "team"),
            ("w2", "x", "team"),
            ("w1", "y", "year"),
            ("w2", "y", "year"),
            ("x", "y", "year"),
        ],
    )


# ---------------------------------------------------------------- Example 3


def phi1(min_days: int = 1) -> NGD:
    """φ1: an entity cannot be destroyed within ``min_days`` days of its creation."""
    return NGD.from_text(
        pattern_q1(),
        premise="",
        conclusion=f"z.val - y.val >= {min_days}",
        name="phi1",
    )


def phi2() -> NGD:
    """φ2: female population + male population = total population."""
    return NGD.from_text(
        pattern_q2(),
        premise="",
        conclusion="y.val + z.val = w.val",
        name="phi2",
    )


def phi3() -> NGD:
    """φ3: a smaller population implies a larger (worse) population rank."""
    return NGD.from_text(
        pattern_q3(),
        premise="m1.val < m2.val",
        conclusion="n1.val > n2.val",
        name="phi3",
    )


def phi4(weight_following: int = 1, weight_follower: int = 1, threshold: int = 50000) -> NGD:
    """φ4: an account dwarfed in followers/followings by a real account keyed to the same company is fake.

    ``weight_following`` and ``weight_follower`` are the integers a and b of
    Example 3, ``threshold`` is c.
    """
    premise = (
        f"s1.val = 1, {weight_following} * (m1.val - m2.val) "
        f"+ {weight_follower} * (n1.val - n2.val) > {threshold}"
    )
    return NGD.from_text(pattern_q4(), premise=premise, conclusion="s2.val = 0", name="phi4")


# ---------------------------------------------------------------- Example 5


def _single_node_pattern(label: str = WILDCARD, name: str = "Q") -> Pattern:
    return Pattern(name, nodes=[("x", label)])


def phi5(label: str = WILDCARD) -> NGD:
    """φ5: every node has A = 7 and B = 7."""
    return NGD.from_text(
        _single_node_pattern(label, "Q_phi5"), premise="", conclusion="x.A = 7, x.B = 7", name="phi5"
    )


def phi6(label: str = WILDCARD) -> NGD:
    """φ6: every node has A + B = 11 (conflicts with φ5 on shared nodes)."""
    return NGD.from_text(
        _single_node_pattern(label, "Q_phi6"), premise="", conclusion="x.A + x.B = 11", name="phi6"
    )


def phi7(label: str = WILDCARD) -> NGD:
    """φ7: A ≤ 3 → B > 6."""
    return NGD.from_text(
        _single_node_pattern(label, "Q_phi7"), premise="x.A <= 3", conclusion="x.B > 6", name="phi7"
    )


def phi8(label: str = WILDCARD) -> NGD:
    """φ8: A > 3 → B > 6."""
    return NGD.from_text(
        _single_node_pattern(label, "Q_phi8"), premise="x.A > 3", conclusion="x.B > 6", name="phi8"
    )


def phi9(label: str = WILDCARD) -> NGD:
    """φ9: every node has B < 6 and A ≠ 0."""
    return NGD.from_text(
        _single_node_pattern(label, "Q_phi9"), premise="", conclusion="x.B < 6, x.A != 0", name="phi9"
    )


# ------------------------------------------------------------------- Exp-5


def ngd1(cutoff_year: int = 1800) -> NGD:
    """NGD1: a person born before ``cutoff_year`` cannot be categorised as living people."""
    literal = Literal(var("z", "val"), Comparison.NE, TermExpression(Constant("living people")))
    return NGD(
        pattern_q5(),
        premise=LiteralSet.of(Literal(var("y", "val"), Comparison.LT, const(cutoff_year))),
        conclusion=LiteralSet.of(literal),
        name="NGD1",
    )


def ngd2() -> NGD:
    """NGD2: in an Olympic competition, participating nations ≤ competitors."""
    premise = Literal(var("w", "type"), Comparison.EQ, TermExpression(Constant("Olympic")))
    conclusion = Literal(var("z", "val"), Comparison.LE, var("y", "val"))
    return NGD(
        pattern_q6(),
        premise=LiteralSet.of(premise),
        conclusion=LiteralSet.of(conclusion),
        name="NGD2",
    )


def ngd3() -> NGD:
    """NGD3: a team's season wins are at least the sum of its two drivers' wins."""
    conclusion = Literal(
        var("x", "numberOfWins"),
        Comparison.GE,
        var("w1", "numberOfWins") + var("w2", "numberOfWins"),
    )
    return NGD(pattern_q7(), conclusion=LiteralSet.of(conclusion), name="NGD3")


# ------------------------------------------------------------------- sets


def example_rules(threshold: int = 50000) -> RuleSet:
    """Return Σ = {φ1, φ2, φ3, φ4}: the rules that catch the Figure 1 inconsistencies."""
    return RuleSet([phi1(), phi2(), phi3(), phi4(threshold=threshold)], name="example-rules")


def effectiveness_rules() -> RuleSet:
    """Return the Exp-5 rule set {NGD1, NGD2, NGD3}."""
    return RuleSet([ngd1(), ngd2(), ngd3()], name="effectiveness-rules")
