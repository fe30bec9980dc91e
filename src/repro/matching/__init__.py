"""Subgraph homomorphism matching: compiled plans, the search core and its matcher view, update pivots."""

from repro.matching.adaptive import (
    AdaptiveController,
    CardinalityHistory,
    adaptive_enabled,
    resolve_adaptive,
)
from repro.matching.candidates import MatchStatistics
from repro.matching.incmatch import UpdatePivot, find_update_pivots
from repro.matching.matchn import HomomorphismMatcher, assignment_for_match
from repro.matching.plan import (
    GraphStatistics,
    MatchPlan,
    PlanStep,
    compile_plan,
    compile_plans,
    format_plan,
)

__all__ = [
    "AdaptiveController",
    "CardinalityHistory",
    "GraphStatistics",
    "HomomorphismMatcher",
    "MatchPlan",
    "MatchStatistics",
    "PlanStep",
    "UpdatePivot",
    "adaptive_enabled",
    "assignment_for_match",
    "compile_plan",
    "compile_plans",
    "find_update_pivots",
    "format_plan",
    "resolve_adaptive",
]
