"""Hybrid workload balancing for PIncDect.

Section 6.3: the workload of a processor is *skewed* when its queue of work
units is much longer than the others'.  PIncDect combats skew at two levels:

1. **Work-unit splitting** (cost-estimation based): expanding or verifying a
   partial solution whose anchor has a huge adjacency list is parallelised
   across all processors when the estimated parallel cost
   ``C·(k+1) + |adj|/p`` beats the sequential cost ``|adj|``.
   :func:`should_split` implements that test.
2. **Periodic redistribution**: every ``intvl`` time units the skewness
   ``|BVio_i| / avg_t |BVio_t|`` of each processor is computed; processors
   above the threshold η (3 in the paper's experiments) shed work units
   evenly to processors below η′ (0.7).  :func:`plan_rebalancing` computes
   the moves; the cluster simulator charges the messages.

The paper's Exp-1/Exp-4 ablations (PIncDect_ns / _nb / _NO) correspond to
switching these two mechanisms off individually or together, captured here by
:class:`BalancingPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BalancingPolicy",
    "rebalancing_pays",
    "should_split",
    "should_split_planned",
    "should_split_step",
    "skewness",
    "plan_rebalancing",
]

#: Skewness threshold above which a processor sheds work (η in the paper).
DEFAULT_ETA = 3.0
#: Skewness threshold below which a processor may receive work (η′ in the paper).
DEFAULT_ETA_PRIME = 0.7
#: Default communication latency parameter C (the paper fixes C = 60).
DEFAULT_LATENCY = 60.0
#: Default workload-monitoring interval (the paper fixes intvl = 45s).
DEFAULT_INTERVAL = 45.0


@dataclass(frozen=True)
class BalancingPolicy:
    """Configuration of the hybrid strategy (and of its ablations)."""

    enable_splitting: bool = True
    enable_rebalancing: bool = True
    latency: float = DEFAULT_LATENCY
    interval: float = DEFAULT_INTERVAL
    eta: float = DEFAULT_ETA
    eta_prime: float = DEFAULT_ETA_PRIME

    @classmethod
    def hybrid(cls, latency: float = DEFAULT_LATENCY, interval: float = DEFAULT_INTERVAL) -> "BalancingPolicy":
        """The full strategy used by PIncDect."""
        return cls(True, True, latency, interval)

    @classmethod
    def no_splitting(cls, latency: float = DEFAULT_LATENCY, interval: float = DEFAULT_INTERVAL) -> "BalancingPolicy":
        """PIncDect_ns: periodic redistribution only."""
        return cls(False, True, latency, interval)

    @classmethod
    def no_rebalancing(cls, latency: float = DEFAULT_LATENCY, interval: float = DEFAULT_INTERVAL) -> "BalancingPolicy":
        """PIncDect_nb: cost-estimated splitting only."""
        return cls(True, False, latency, interval)

    @classmethod
    def none(cls, latency: float = DEFAULT_LATENCY, interval: float = DEFAULT_INTERVAL) -> "BalancingPolicy":
        """PIncDect_NO: neither mechanism."""
        return cls(False, False, latency, interval)

    def variant_suffix(self) -> str:
        """Return the paper's suffix for this configuration ("", "ns", "nb" or "NO")."""
        if self.enable_splitting and self.enable_rebalancing:
            return ""
        if self.enable_rebalancing:
            return "ns"
        if self.enable_splitting:
            return "nb"
        return "NO"


def should_split(adjacency_size: int, matched_depth: int, processors: int, latency: float) -> bool:
    """Return True when the parallel cost estimate beats the sequential one.

    Sequential cost: ``|adj|``.  Parallel cost: ``C·(k+1) + |adj|/p`` where
    ``k`` is the number of already-matched pattern nodes (Section 6.3).
    """
    if processors <= 1:
        return False
    sequential = float(adjacency_size)
    parallel = latency * (matched_depth + 1) + adjacency_size / processors
    return parallel < sequential


def should_split_planned(
    remaining_estimate: float,
    adjacency_size: int,
    matched_depth: int,
    processors: int,
    latency: float,
) -> bool:
    """Plan-guided split test: workload = the plan's remaining-subtree estimate.

    The raw predicate (:func:`should_split`) only sees the *immediate*
    adjacency scan, so it splits a step whose anchor is a hub even when the
    subtree below it dies out one level later, and refuses to split a small
    scan that fans out enormously below.  With a compiled
    :class:`~repro.matching.plan.MatchPlan` the expected size of the whole
    remaining subtree is known (``MatchPlan.remaining_cost``); the same
    cost comparison — ``C·(k+1) + W/p < W`` — is applied to that estimate
    instead.  The workload measure ``W`` is the larger of the estimate and
    the actual adjacency size: the scan in front of us is a *lower bound*
    on the remaining work, so an estimate the data has already beaten never
    talks the scheduler out of a split the raw predicate would take.

    Executors charge actual sizes either way — the plan decides, the data
    pays.
    """
    if processors <= 1:
        return False
    workload = max(remaining_estimate, float(adjacency_size))
    parallel = latency * (matched_depth + 1) + workload / processors
    return parallel < workload


def should_split_step(
    plan,
    order: tuple,
    adjacency_size: int,
    matched_depth: int,
    processors: int,
    latency: float,
) -> bool:
    """Decide one expansion step's split — the kernels' shared entry point.

    :func:`should_split_planned` on the remaining-subtree estimate of the
    :class:`~repro.matching.plan.MatchPlan` executing.  Both simulated
    kernels call this for their filtering and verification steps so the
    decision logic cannot diverge between them.
    """
    return should_split_planned(
        plan.remaining_cost(order, matched_depth), adjacency_size, matched_depth, processors, latency
    )


def rebalancing_pays(
    moves: list[tuple[int, int, int]],
    latency: float,
    average_unit_cost: float,
) -> bool:
    """Return True when a planned redistribution round is worth its messages.

    Shipping units charges one message latency ``C`` to every participant
    (origins and destinations alike), so a round costs ``C · |participants|``.
    The benefit is the work the receivers take off the stragglers' critical
    path — at most the moved unit count times the *observed* average cost of
    one unit.  The same cost-vs-benefit shape as the splitting predicate
    (Section 6.3), but fed by measured unit costs rather than adjacency
    estimates: a skewed queue of tiny units is not worth a round of
    messages at large ``C``, while the same queue at small ``C`` is.

    ``average_unit_cost`` is what the executor has observed so far
    (``work_done / units_done``); with no observations yet the round is
    declined — the interval clock only advances once work has been
    charged, so this arises only in degenerate simulations.
    """
    if not moves:
        return False
    moved = sum(count for _origin, _destination, count in moves)
    participants = {
        endpoint for origin, destination, _count in moves for endpoint in (origin, destination)
    }
    return moved * average_unit_cost > latency * len(participants)


def skewness(queue_lengths: list[int]) -> list[float]:
    """Return ``|BVio_i| / avg_t |BVio_t|`` for every processor.

    When every queue is empty the skewness of every processor is defined as
    zero (there is nothing to balance).
    """
    if not queue_lengths:
        return []
    average = sum(queue_lengths) / len(queue_lengths)
    if average == 0:
        return [0.0] * len(queue_lengths)
    return [length / average for length in queue_lengths]


def plan_rebalancing(
    queue_lengths: list[int],
    eta: float = DEFAULT_ETA,
    eta_prime: float = DEFAULT_ETA_PRIME,
) -> list[tuple[int, int, int]]:
    """Return ``(origin, destination, count)`` moves that relieve skewed processors.

    Every processor whose skewness exceeds ``eta`` distributes its excess
    (the units above the average) evenly across the processors whose skewness
    is below ``eta_prime``; counts are rounded down so a move of zero units is
    never emitted.
    """
    values = skewness(queue_lengths)
    if not values:
        return []
    average = sum(queue_lengths) / len(queue_lengths)
    all_receivers = sorted(
        (i for i, value in enumerate(values) if value < eta_prime),
        key=lambda i: queue_lengths[i],
    )
    if not all_receivers:
        return []
    moves: list[tuple[int, int, int]] = []
    for origin, value in enumerate(values):
        if value <= eta:
            continue
        excess = int(queue_lengths[origin] - average)
        if excess <= 0:
            continue
        # hand the excess to the emptiest receivers; never involve more
        # receivers than there are units to ship (each extra receiver costs a message)
        receivers = [i for i in all_receivers if i != origin][: max(1, min(len(all_receivers), excess))]
        if not receivers:
            continue
        share = excess // len(receivers)
        remainder = excess - share * len(receivers)
        for position, destination in enumerate(receivers):
            count = share + (1 if position < remainder else 0)
            if count > 0:
                moves.append((origin, destination, count))
    return moves
