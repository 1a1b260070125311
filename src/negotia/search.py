"""Early-pruning hierarchical traversal over exemplar-set space.

A breadth-first queue of (set, replace position) nodes; each node tries
replacements from the ranked candidate pool in order, keeps improving
children, and abandons the position after M consecutive non-improving
replacements. The best set seen (including the initial set) wins.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import ExemplarSet

__all__ = [
    "SearchNode",
    "Evaluation",
    "PruningEvent",
    "SearchTrace",
    "ImpactFn",
    "split_candidates",
    "search_optimal_set",
]

# Estimates the value impact of an ordered exemplar-id set. The probe set
# behind it must stay fixed for a whole search so impacts are comparable.
ImpactFn = Callable[[tuple[str, ...]], float]


@dataclass(frozen=True)
class SearchNode:
    members: tuple[str, ...]
    replace_index: int
    impact: float


@dataclass(frozen=True)
class Evaluation:
    members: tuple[str, ...]
    impact: float
    parent: Optional[tuple[str, ...]]
    delta: float


@dataclass(frozen=True)
class PruningEvent:
    members: tuple[str, ...]
    position: int
    consecutive_failures: int


@dataclass
class SearchTrace:
    evaluations: list[Evaluation] = field(default_factory=list)
    pruning_events: list[PruningEvent] = field(default_factory=list)


def split_candidates(
    ranked: list[tuple[str, float]], n: int
) -> tuple[list[str], list[str]]:
    """Split a ranked (id, impact) list into the initial set and candidates.

    The initial set is the top-n ids; the rest stay in rank order as the
    replacement pool.
    """
    if len(ranked) <= n:
        raise ValueError(f"need more than {n} ranked exemplars, got {len(ranked)}")
    ids = [eid for eid, _impact in ranked]
    return ids[:n], ids[n:]


def search_optimal_set(
    s_init: list[str],
    s_cand: list[str],
    impact_fn: ImpactFn,
    m: int,
) -> tuple[ExemplarSet, SearchTrace]:
    """Run the traversal and return the best-found set with its full trace.

    The initial set's own impact seeds the best tracker, so the search is
    total even when no replacement improves. Candidate iteration strictly
    follows the given rank order; the trace records every evaluation in
    commit order so this is assertable. Errors from ``impact_fn`` propagate.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not s_init:
        raise ValueError("initial set must be non-empty")

    k = len(s_init)
    trace = SearchTrace()
    impact_cache: dict[tuple[str, ...], float] = {}

    def impact_of(members: tuple[str, ...]) -> float:
        if members not in impact_cache:
            impact_cache[members] = impact_fn(members)
        return impact_cache[members]

    root = tuple(s_init)
    root_impact = impact_of(root)
    trace.evaluations.append(Evaluation(members=root, impact=root_impact, parent=None, delta=0.0))
    best = ExemplarSet(members=root, value_impact=root_impact)

    queue: deque[SearchNode] = deque([SearchNode(members=root, replace_index=0, impact=root_impact)])
    while queue:
        node = queue.popleft()
        if node.replace_index >= k:
            continue
        failures = 0
        for candidate in s_cand:
            if failures == m:
                trace.pruning_events.append(
                    PruningEvent(
                        members=node.members,
                        position=node.replace_index,
                        consecutive_failures=failures,
                    )
                )
                break
            if candidate in node.members:
                continue
            child = (
                node.members[: node.replace_index]
                + (candidate,)
                + node.members[node.replace_index + 1 :]
            )
            child_impact = impact_of(child)
            d = child_impact - node.impact  # non-positive counts as a failure
            trace.evaluations.append(
                Evaluation(members=child, impact=child_impact, parent=node.members, delta=d)
            )
            if d > 0:
                queue.append(
                    SearchNode(members=child, replace_index=node.replace_index + 1, impact=child_impact)
                )
                failures = 0
                if child_impact > best.value_impact:
                    best = ExemplarSet(members=child, value_impact=child_impact)
            else:
                failures += 1
    return best, trace
