"""Traversal mechanics: ordering, pruning, caching, and failure handling."""

from __future__ import annotations

import pytest

from negotia.search import search_optimal_set, split_candidates


def table_impact(table):
    calls = []

    def fn(members):
        calls.append(members)
        return table[members]

    fn.calls = calls
    return fn


def test_split_candidates():
    ranked = [("a", 0.5), ("b", 0.4), ("c", 0.3), ("d", 0.2)]
    s_init, s_cand = split_candidates(ranked, 2)
    assert s_init == ["a", "b"]
    assert s_cand == ["c", "d"]
    with pytest.raises(ValueError):
        split_candidates(ranked, 4)


def test_argument_validation():
    with pytest.raises(ValueError):
        search_optimal_set([], ["b"], lambda m: 0.0, 1)
    with pytest.raises(ValueError):
        search_optimal_set(["a"], ["b"], lambda m: 0.0, 0)


def test_root_seeds_best_when_nothing_improves():
    fn = table_impact({("a",): 1.0, ("b",): 0.1, ("c",): 0.2})
    best, trace = search_optimal_set(["a"], ["b", "c"], fn, m=5)
    assert best.members == ("a",)
    assert best.value_impact == 1.0
    assert trace.best_members == ("a",)
    # Root plus both candidates evaluated; no pruning with a large M.
    assert len(trace.evaluations) == 3
    assert trace.pruning_events == []


def test_candidates_tried_in_rank_order():
    fn = table_impact({("a",): 0.1, ("b",): 0.2, ("c",): 0.3, ("d",): 0.4})
    search_optimal_set(["a"], ["b", "c", "d"], fn, m=5)
    assert fn.calls == [("a",), ("b",), ("c",), ("d",)]


def test_improving_child_resets_failures():
    # b fails, c improves (reset), then d and e fail: M=2 prunes after e.
    table = {("a",): 0.5, ("b",): 0.4, ("c",): 0.6, ("d",): 0.5, ("e",): 0.55}
    best, trace = search_optimal_set(["a"], ["b", "c", "d", "e"], table_impact(table), m=2)
    assert best.members == ("c",)
    # All four candidates evaluated at the root: the reset kept the loop alive.
    root_children = [ev for ev in trace.evaluations if ev.parent == ("a",)]
    assert [ev.members for ev in root_children] == [("b",), ("c",), ("d",), ("e",)]


def test_pruning_stops_candidate_loop():
    table = {("a",): 0.5, ("b",): 0.1, ("c",): 0.1, ("d",): 0.9}
    best, trace = search_optimal_set(["a"], ["b", "c", "d"], table_impact(table), m=2)
    # d would win but pruning fires after the two consecutive failures.
    assert best.members == ("a",)
    assert len(trace.pruning_events) == 1
    event = trace.pruning_events[0]
    assert event.position == 0 and event.consecutive_failures == 2


def test_members_already_in_set_skipped_without_counting():
    table = {("a", "b"): 0.5, ("c", "b"): 0.4}
    fn = table_impact(table)
    best, trace = search_optimal_set(["a", "b"], ["b", "c"], fn, m=1)
    # Candidate b is a member: skipped entirely, so c is still evaluated.
    assert ("c", "b") in [ev.members for ev in trace.evaluations]


def test_depth_two_replacement_path():
    table = {
        ("a", "b"): 0.1,
        ("c", "b"): 0.2,
        ("d", "b"): 0.15,
        ("c", "d"): 0.5,
        ("d", "c"): 0.05,
    }
    best, trace = search_optimal_set(["a", "b"], ["c", "d"], table_impact(table), m=5)
    assert best.members == ("c", "d")
    assert best.value_impact == 0.5
    assert trace.best_impact == max(ev.impact for ev in trace.evaluations)


def test_impact_cache_deduplicates():
    table = {("a", "b"): 0.1, ("c", "b"): 0.3, ("d", "b"): 0.4, ("c", "d"): 0.2, ("d", "c"): 0.2}
    fn = table_impact(table)
    search_optimal_set(["a", "b"], ["c", "d"], fn, m=5)
    assert len(fn.calls) == len(set(fn.calls))


def test_impact_error_propagates_and_is_not_a_pruning():
    calls = []

    def fn(members):
        calls.append(members)
        if members == ("b",):
            raise RuntimeError("backend down")
        return {("a",): 0.5, ("c",): 0.9}[members]

    # The error ends the search; it is not counted as a failure step that
    # would prune the better candidate c unseen.
    with pytest.raises(RuntimeError, match="backend down"):
        search_optimal_set(["a"], ["b", "c"], fn, m=1)
    assert calls == [("a",), ("b",)]

    # Without the error, the same search reaches c.
    best, trace = search_optimal_set(["a"], ["c"], fn, m=1)
    assert best.members == ("c",)
