"""Fake-account detection on a social graph, incrementally as accounts appear.

Example 1(4) of the paper: two accounts keyed to the same company whose
follower/following counts differ wildly suggest the smaller one is fake.  The
rule is φ4, an NGD whose premise mixes arithmetic (a weighted difference of
counts) with a comparison threshold — beyond GFDs and CFDs.

The script builds a small Twitter-like graph with a handful of companies and
their genuine support accounts, then streams in new accounts (some fake) and
runs incremental detection (``Detector.run_incremental``) to flag the fakes
as soon as their edges arrive.

Run with::

    python examples/fake_account_detection.py
"""

from __future__ import annotations

import random

from repro import BatchUpdate, Detector, Graph, RuleSet, apply_update
from repro.core import phi4
from repro.graph.updates import NodePayload


def build_companies(num_companies: int, seed: int = 1) -> Graph:
    """Build companies with one genuine, well-followed support account each."""
    rng = random.Random(seed)
    graph = Graph("social")
    for index in range(num_companies):
        company = f"company{index}"
        account = f"{company}/support"
        graph.add_node(company, "company")
        graph.add_node(account, "account")
        graph.add_node(f"{account}/status", "boolean", {"val": 1})
        graph.add_node(f"{account}/following", "integer", {"val": rng.randint(5_000, 40_000)})
        graph.add_node(f"{account}/follower", "integer", {"val": rng.randint(50_000, 120_000)})
        graph.add_edge(account, company, "keys")
        graph.add_edge(account, f"{account}/status", "status")
        graph.add_edge(account, f"{account}/following", "following")
        graph.add_edge(account, f"{account}/follower", "follower")
    return graph


def new_account_update(company: str, name: str, following: int, followers: int) -> BatchUpdate:
    """The batch update describing a freshly created account keyed to ``company``."""
    return (
        BatchUpdate()
        .insert(name, company, "keys", source_payload=NodePayload("account"))
        .insert(name, f"{name}/status", "status", target_payload=NodePayload("boolean", {"val": 1}))
        .insert(
            name, f"{name}/following", "following", target_payload=NodePayload("integer", {"val": following})
        )
        .insert(
            name, f"{name}/follower", "follower", target_payload=NodePayload("integer", {"val": followers})
        )
    )


def main() -> None:
    graph = build_companies(num_companies=5)
    rules = RuleSet([phi4(threshold=50_000)], name="fake-account-rule")

    print("--- initial state: only the genuine support accounts exist ---")
    initial = Detector(rules, engine="batch").run(graph)
    print(f"initial violations: {initial.violation_count()}")

    stream = [
        ("company0", "cheap_phish_0", 3, 12),                  # obvious fake
        ("company1", "company1_community", 30_000, 80_000),     # legitimate secondary account
        ("company2", "helpdesk_scam", 1, 2),                    # obvious fake
        ("company3", "company3_press", 30_000, 100_000),        # legitimate
        ("company0", "c0_giveaway_bot", 10, 40),                # fake on an already-watched company
    ]

    print("\n--- accounts appearing over time (incremental detection per batch) ---")
    flagged: list[str] = []
    for company, name, following, followers in stream:
        delta = new_account_update(company, name, following, followers)
        # a session per graph version: each run plans against the graph it searches
        result = Detector(rules, engine="incremental").run_incremental(graph, delta)
        suspicious = sorted({violation.mapping()["y"] for violation in result.introduced()})
        verdict = f"FLAGGED {suspicious}" if suspicious else "looks fine"
        print(f"  new account {name!r} keyed to {company}: {verdict}")
        flagged.extend(suspicious)
        graph = apply_update(graph, delta)

    print("\n--- summary ---")
    print(f"accounts flagged as likely fake: {sorted(set(flagged))}")
    final = Detector(rules, engine="batch").run(graph)
    print(f"total violations in the final graph (batch re-check): {final.violation_count()}")


if __name__ == "__main__":
    main()
