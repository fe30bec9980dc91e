"""Numeric graph dependencies (NGDs), the paper's central construct.

An NGD ``φ = Q[x̄](X → Y)`` pairs

* a graph pattern ``Q[x̄]`` (matched by homomorphism), and
* an attribute dependency ``X → Y`` where ``X`` and ``Y`` are conjunctions of
  comparison literals over linear arithmetic expressions of ``Q[x̄]``.

A match ``h(x̄)`` of ``Q`` in ``G`` *violates* φ when ``h(x̄) ⊨ X`` but
``h(x̄) ⊭ Y``; ``G ⊨ φ`` when no match violates it.

The classes here also expose the special cases the paper relates NGDs to:

* **GFDs** (graph functional dependencies): literals restricted to bare terms
  connected with equality;
* **CFDs** (relational conditional functional dependencies): GFDs over a
  single-node "tuple pattern" whose attributes model relation columns —
  :func:`cfd_as_ngd` builds that embedding.

An :class:`NGD` and a :class:`RuleSet` are values, like their patterns:
each is built in one constructor call and never changes, so what is
derived from a rule set (dΣ, the Σ-wide pivot index) is computed once and
kept (``RuleSet.derived``).

By default NGD construction enforces the *linear* fragment (the decidable
class of Theorems 1 and 2).  Passing ``allow_nonlinear=True`` opts into the
extended class of Theorem 3, which the library accepts for validation (which
stays coNP) but whose satisfiability/implication the checkers refuse.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path
from typing import Optional, Union

from repro._frozen import Frozen
from repro.errors import DependencyError, NonLinearExpressionError
from repro.expr.format import format_literal_set
from repro.expr.literals import Literal, LiteralSet
from repro.expr.parser import parse_literal_set
from repro.graph.pattern import Pattern

__all__ = ["NGD", "RuleSet", "gfd", "cfd_as_ngd"]


class NGD(Frozen):
    """A numeric graph dependency ``Q[x̄](X → Y)``."""

    def __init__(
        self,
        pattern: Pattern,
        premise: LiteralSet | Iterable[Literal] = (),
        conclusion: LiteralSet | Iterable[Literal] = (),
        name: Optional[str] = None,
        allow_nonlinear: bool = False,
    ) -> None:
        vars(self).update(
            pattern=pattern,
            premise=premise if isinstance(premise, LiteralSet) else LiteralSet(premise),
            conclusion=conclusion if isinstance(conclusion, LiteralSet) else LiteralSet(conclusion),
            name=name or f"ngd_{pattern.name}",
            allow_nonlinear=allow_nonlinear,
        )
        self._check_well_formed()

    # ------------------------------------------------------------ validation

    def _check_well_formed(self) -> None:
        pattern_variables = set(self.pattern.variables)
        used = self.premise.pattern_variables() | self.conclusion.pattern_variables()
        unknown = used - pattern_variables
        if unknown:
            raise DependencyError(
                f"{self.name}: literals reference variables {sorted(unknown)} "
                f"not bound by pattern {self.pattern.name!r}"
            )
        if not self.allow_nonlinear:
            for literal in self.all_literals():
                if not literal.is_linear():
                    raise NonLinearExpressionError(
                        f"{self.name}: literal {literal} has degree {literal.degree()}; "
                        "NGDs are restricted to linear arithmetic expressions "
                        "(pass allow_nonlinear=True for the extended, undecidable class)"
                    )

    # --------------------------------------------------------------- queries

    @classmethod
    def from_text(
        cls,
        pattern: Pattern,
        premise: str = "",
        conclusion: str = "",
        name: Optional[str] = None,
        allow_nonlinear: bool = False,
    ) -> "NGD":
        """Build an NGD from textual literal sets (see ``repro.expr.parser``)."""
        return cls(
            pattern,
            parse_literal_set(premise),
            parse_literal_set(conclusion),
            name=name,
            allow_nonlinear=allow_nonlinear,
        )

    @classmethod
    def from_dict(cls, document: dict) -> "NGD":
        """Rebuild an NGD from :meth:`to_dict` output.

        The premise and conclusion round-trip through the textual literal
        notation (:mod:`repro.expr.parser`), so a rule file is readable and
        editable by hand.  Raises :class:`DependencyError` on malformed
        documents and the usual parse/validation errors on bad literals.
        """
        if not isinstance(document, dict) or "pattern" not in document:
            raise DependencyError("NGD document must be a dict with a 'pattern' entry")
        premise = document.get("premise", "")
        conclusion = document.get("conclusion", "")
        if not isinstance(premise, str) or not isinstance(conclusion, str):
            raise DependencyError(
                "NGD 'premise' and 'conclusion' must be literal-set strings"
            )
        return cls.from_text(
            Pattern.from_dict(document["pattern"]),
            premise=premise,
            conclusion=conclusion,
            name=document.get("name"),
            allow_nonlinear=bool(document.get("allow_nonlinear", False)),
        )

    def to_dict(self) -> dict:
        """Return a JSON-serialisable description of this NGD.

        Shape: ``{"name", "pattern": Pattern.to_dict(), "premise",
        "conclusion"}`` with the literal sets rendered in the parser's
        textual notation (plus ``"allow_nonlinear": true`` for rules in the
        extended class), so ``NGD.from_dict(ngd.to_dict()) == ngd``.
        """
        document = {
            "name": self.name,
            "pattern": self.pattern.to_dict(),
            "premise": format_literal_set(self.premise),
            "conclusion": format_literal_set(self.conclusion),
        }
        if self.allow_nonlinear:
            document["allow_nonlinear"] = True
        return document

    def all_literals(self) -> Iterator[Literal]:
        """Iterate over the literals of X then Y."""
        yield from self.premise
        yield from self.conclusion

    def variables(self) -> tuple[str, ...]:
        """Return the pattern variable list x̄."""
        return self.pattern.variables

    def diameter(self) -> int:
        """Return d_Q, the diameter of the pattern (Section 6.1)."""
        return self.pattern.diameter()

    def size(self) -> int:
        """Return |φ|: pattern size plus number of literals (the measure used in bounds)."""
        return self.pattern.size() + len(self.premise) + len(self.conclusion)

    def is_gfd(self) -> bool:
        """Return True when every literal lies in the GFD fragment (terms + equality)."""
        return all(literal.is_gfd_literal() for literal in self.all_literals())

    def is_linear(self) -> bool:
        """Return True when every literal is linear (the decidable NGD class)."""
        return all(literal.is_linear() for literal in self.all_literals())

    # -------------------------------------------------------------- semantics

    def match_satisfies(self, assignment: Mapping[tuple[str, str], object]) -> bool:
        """Return True when a match (given as an attribute assignment) satisfies X → Y.

        The assignment maps ``(variable, attribute)`` pairs to the values
        carried by the matched nodes; missing attributes fail the literal that
        needs them.
        """
        if not self.premise.satisfied_by(assignment):
            return True
        return self.conclusion.satisfied_by(assignment)

    def match_violates(self, assignment: Mapping[tuple[str, str], object]) -> bool:
        """Return True when the match satisfies X but not Y."""
        return not self.match_satisfies(assignment)

    # ---------------------------------------------------------------- dunders

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NGD):
            return NotImplemented
        return (
            self.pattern == other.pattern
            and self.premise == other.premise
            and self.conclusion == other.conclusion
        )

    def __hash__(self) -> int:
        return hash((self.pattern, self.premise, self.conclusion))

    def __str__(self) -> str:
        return f"{self.name}: {self.pattern.name}[{', '.join(self.pattern.variables)}]({self.premise} → {self.conclusion})"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"NGD({self.name!r}, |Q|={self.pattern.size()}, |X|={len(self.premise)}, |Y|={len(self.conclusion)})"


class RuleSet(Frozen):
    """A set Σ of NGDs used as data quality rules, in declaration order."""

    def __init__(self, rules: Iterable[NGD] = (), name: str = "Σ") -> None:
        vars(self).update(name=name, _rules=tuple(rules))

    def __iter__(self) -> Iterator[NGD]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __getitem__(self, index: int) -> NGD:
        return self._rules[index]

    def __bool__(self) -> bool:
        return bool(self._rules)

    def rules(self) -> tuple[NGD, ...]:
        """Return the rules in declaration order."""
        return self._rules

    def diameter(self) -> int:
        """Return dΣ: the maximum pattern diameter over the rules (Section 6.1).

        Computed once per rule set: every incremental run asks for it.
        """
        return self.derived("diameter", lambda rules: max((rule.diameter() for rule in rules), default=0))

    def total_size(self) -> int:
        """Return |Σ|: the sum of the rule sizes (used in the cost analyses)."""
        return sum(rule.size() for rule in self._rules)

    def is_linear(self) -> bool:
        """Return True when every rule is in the linear (decidable) fragment."""
        return all(rule.is_linear() for rule in self._rules)

    def restrict(self, count: int) -> "RuleSet":
        """Return a rule set containing the first ``count`` rules (used by ‖Σ‖ sweeps)."""
        return RuleSet(self._rules[:count], name=f"{self.name}[:{count}]")

    # ----------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """Return ``{"name": ..., "rules": [NGD.to_dict(), ...]}``."""
        return {"name": self.name, "rules": [rule.to_dict() for rule in self._rules]}

    @classmethod
    def from_dict(cls, document: dict) -> "RuleSet":
        """Rebuild a rule set from :meth:`to_dict` output."""
        if not isinstance(document, dict) or not isinstance(document.get("rules"), list):
            raise DependencyError("rule-set document must be a dict with a 'rules' list")
        return cls(
            (NGD.from_dict(entry) for entry in document["rules"]),
            name=document.get("name", "Σ"),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialise the rule set to a JSON string (the rule-file format).

        The literals are stored in the parser's textual notation, so the
        file is hand-editable; ``RuleSet.from_json(rules.to_json())``
        round-trips exactly (same names, patterns, and literal ASTs).
        """
        return json.dumps(self.to_dict(), indent=indent, ensure_ascii=False)

    @classmethod
    def from_json(cls, text: str) -> "RuleSet":
        """Rebuild a rule set from :meth:`to_json` output."""
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DependencyError(f"rule-set JSON is malformed: {exc}") from exc
        return cls.from_dict(document)

    def save(self, path: Union[str, Path]) -> None:
        """Write the rule set to ``path`` as JSON (see :meth:`to_json`)."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RuleSet":
        """Load a rule set previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RuleSet({self.name!r}, {len(self._rules)} rules, dΣ={self.diameter()})"


def gfd(
    pattern: Pattern,
    premise: str | LiteralSet = "",
    conclusion: str | LiteralSet = "",
    name: Optional[str] = None,
) -> NGD:
    """Build a GFD (the equality-only fragment) and verify it really is one.

    Raises :class:`DependencyError` when a literal falls outside the fragment.
    """
    premise_set = premise if isinstance(premise, LiteralSet) else parse_literal_set(premise)
    conclusion_set = (
        conclusion if isinstance(conclusion, LiteralSet) else parse_literal_set(conclusion)
    )
    rule = NGD(pattern, premise_set, conclusion_set, name=name)
    if not rule.is_gfd():
        offending = [str(l) for l in rule.all_literals() if not l.is_gfd_literal()]
        raise DependencyError(f"literals {offending} are outside the GFD fragment")
    return rule


def cfd_as_ngd(
    relation: str,
    premise: str,
    conclusion: str,
    name: Optional[str] = None,
) -> NGD:
    """Embed a relational CFD over one relation as an NGD.

    The tuple is modelled as a single pattern node labelled ``relation`` bound
    to variable ``t``; columns become attributes of that node, so a CFD such
    as ``[country = "UK"] → [zip determines street]`` is written with literals
    over ``t.column``.  This is the embedding the paper uses to argue NGDs
    subsume CFDs.
    """
    pattern = Pattern(f"cfd_{relation}", nodes=[("t", relation)])
    return NGD.from_text(pattern, premise, conclusion, name=name or f"cfd_{relation}")
