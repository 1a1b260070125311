"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Everything here runs offline against the scripted bargaining world.
"""

from __future__ import annotations

import itertools
import random
import string

import numpy as np

from negotia.backends import (
    BackendSession,
    ScriptedWorld,
    derive_seed,
    scripted_remediation_text,
)
from negotia.cli import run as cli_run
from negotia.core import Exemplar, NegotiationOutcome, PriceBounds, Speaker, Turn
from negotia.outcome import reward
from negotia.prompts import WILDCARDS, exemplar_text, format_icl_block, render
from negotia.search import search_optimal_set
from negotia.selectors import HashedNgramEmbedder, select_retrieval
from negotia.simulation import SimulationConfig, simulate
from negotia.valueimpact import build_probe_set, make_impact_fn, value_of_remediation

from conftest import QUALITIES, make_exemplar


def _report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {status}{suffix}")


def test_criterion_1_reward_exactness(bounds):
    cases = [
        (NegotiationOutcome(deal=True, price=4000, trust_delta=1, business_delta=0), 0.55),
        (NegotiationOutcome(deal=False, trust_delta=-1, business_delta=-1), -0.3),
        (NegotiationOutcome(deal=True, price=5000, trust_delta=1, business_delta=1), 1.0),
    ]
    errors = [abs(reward(o, bounds) - expected) for o, expected in cases]
    ok = all(e < 1e-12 for e in errors)
    _report(1, ok, f"max error {max(errors):.2e}")
    assert ok


def test_criterion_2_identity_zero(world, scripted_session, rollout_fn):
    config = SimulationConfig(p_c=0.6, seed=42)
    points = build_probe_set(world, config, 20, scripted_session, rollout_fn)
    values = [value_of_remediation(p, p.silver_y, rollout_fn) for p in points]
    ok = all(v == 0.0 for v in values)
    _report(2, ok, f"{len(points)} points")
    assert ok


def test_criterion_3_oracle_monotonicity(quality_pool, scripted_session, probe, rollout_fn):
    impact_fn = make_impact_fn(quality_pool, probe, scripted_session, rollout_fn)
    impacts = {e.latent_quality: impact_fn((e.id,)) for e in quality_pool}
    pairs = list(itertools.combinations(sorted(QUALITIES, reverse=True), 2))
    ok = all(impacts[hi] > impacts[lo] for hi, lo in pairs)
    _report(3, ok, f"{len(pairs)} pairwise comparisons")
    assert ok


def _reachable_sets(root: tuple[str, ...], cand: list[str]) -> set[tuple[str, ...]]:
    """Every set the traversal can visit: positions replaced in order from 0,
    each position at most once, candidates distinct from current members."""
    out: set[tuple[str, ...]] = set()

    def rec(members: tuple[str, ...], pos: int) -> None:
        out.add(members)
        if pos >= len(members):
            return
        for c in cand:
            if c in members:
                continue
            rec(members[:pos] + (c,) + members[pos + 1 :], pos + 1)

    rec(root, 0)
    return out


def test_criterion_4_search_oracle_equivalence(quality_pool, scripted_session, probe, rollout_fn):
    # Deliberately weak initial set so the traversal has room to improve.
    s_init = ["ex-0.2", "ex-0.1"]
    s_cand = ["ex-0.9", "ex-0.8", "ex-0.7", "ex-0.3"]
    impact_fn = make_impact_fn(quality_pool, probe, scripted_session, rollout_fn)

    best, trace = search_optimal_set(s_init, s_cand, impact_fn, m=len(s_cand))

    reachable = _reachable_sets(tuple(s_init), s_cand)
    oracle = {members: impact_fn(members) for members in reachable}
    oracle_max = max(oracle.values())
    argmax = {frozenset(m) for m, v in oracle.items() if v == oracle_max}

    ok = (
        best.value_impact == oracle_max
        and frozenset(best.members) in argmax
        and best.value_impact == max(ev.impact for ev in trace.evaluations)
    )
    _report(4, ok, f"{len(reachable)} reachable sets")
    assert ok


def test_criterion_5_pruning_accounting():
    impacts = {("a",): 1.0, ("b",): 0.5, ("c",): 0.4}
    best, trace = search_optimal_set(["a"], ["b", "c"], lambda m: impacts[m], m=1)
    child_evals = [ev for ev in trace.evaluations if ev.parent is not None]
    ok = (
        len(child_evals) == 1
        and len(trace.pruning_events) == 1
        and best.members == ("a",)
    )
    _report(5, ok, f"{len(child_evals)} child evals, {len(trace.pruning_events)} prunings")
    assert ok


def test_criterion_6_violation_injection_rate(world, scripted_session):
    flips = hits = 0
    for i in range(1000):
        config = SimulationConfig(p_c=0.4, seed=derive_seed(3, i))
        d = simulate(
            scripted_session, scripted_session, scripted_session, config,
            world=world, dialogue_id=f"d{i}",
        )
        for j, t in enumerate(d.turns):
            # Every seller turn after the scripted opener is coin-flipped.
            if t.speaker is Speaker.SELLER and j != 1:
                flips += 1
                hits += t.violation
    freq = hits / flips
    ok = 0.37 <= freq <= 0.43
    _report(6, ok, f"frequency {freq:.4f} over {flips} seller turns")
    assert ok


def test_criterion_7_retrieval_equivalence():
    rng = random.Random(77)
    embedder = HashedNgramEmbedder()

    def rand_text() -> str:
        words = [
            "".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 8)))
            for _ in range(rng.randint(1, 6))
        ]
        return " ".join(words)

    ok = True
    for _ in range(50):
        n = rng.randint(4, 12)
        pool = [
            Exemplar(id=f"p{i}", history=(), violation_text=rand_text(), remediation_text="r")
            for i in range(n)
        ]
        k = rng.randint(1, n)
        query = rand_text()

        qv = embedder.embed(query)
        scored = []
        for e in pool:
            ev = embedder.embed(exemplar_text(e))
            if np.linalg.norm(qv) == 0.0 or np.linalg.norm(ev) == 0.0:
                sim = float("-inf")
            else:
                sim = float(np.dot(qv, ev))
            scored.append((sim, e.id))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        expected = tuple(eid for _s, eid in scored[:k])

        got = select_retrieval(pool, query, k, embedder).members
        ok = ok and got == expected
    _report(7, ok, "50 random fixtures")
    assert ok


def test_criterion_8_cli_determinism(tmp_path):
    outputs = []
    for workers, name in [(1, "a.jsonl"), (4, "b.jsonl"), (1, "c.jsonl")]:
        out = tmp_path / name
        code = cli_run(
            ["--workers", str(workers), "simulate", "--backend", "scripted",
             "--seed", "7", "--n", "20", "--out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(8, ok, f"{len(outputs[0])} bytes")
    assert ok


def test_criterion_9_prompt_fidelity(templates):
    exemplars = tuple(make_exemplar(f"icl-{i}", 0.5) for i in range(8))
    bindings = {
        "$ICL-Examples": format_icl_block(exemplars),
        "$CONVERSATION": "buyer: Could you lower the price?",
        "$LAST_SENTENCE": "Take it or leave it!",
    }
    msgs = render(templates.get("remediator"), bindings)
    text = "\n".join(m["content"] for m in msgs)
    # The instruction text quotes both markers once; the exemplar blocks are
    # line-anchored, so count those.
    lines = text.splitlines()
    dialogue_blocks = sum(1 for ln in lines if ln == "# Dialogue:")
    violation_markers = sum(1 for ln in lines if ln.endswith("[violation]"))
    ok = (
        dialogue_blocks == 8
        and violation_markers == 8
        and not any(w in text for w in WILDCARDS)
    )
    _report(9, ok)
    assert ok


def test_criterion_10_end_to_end_direction(world, scripted_session):
    def mean_reward(p_c: float, remediator) -> float:
        total = 0.0
        for i in range(200):
            config = SimulationConfig(
                p_c=p_c,
                remediation_enabled=remediator is not None,
                seed=derive_seed(11, i),
            )
            d = simulate(
                scripted_session, scripted_session, scripted_session, config,
                remediator=remediator, world=world, dialogue_id=f"d{i}",
            )
            total += reward(d.outcome, world.bounds)
        return total / 200

    clean = mean_reward(0.0, None)
    remediated = mean_reward(0.4, lambda hist, text: scripted_remediation_text(0.9))
    unremediated = mean_reward(0.4, None)
    ok = clean - remediated >= 0.02 and remediated - unremediated >= 0.02
    _report(
        10, ok,
        f"clean {clean:.3f} >= remediated {remediated:.3f} >= unremediated {unremediated:.3f}",
    )
    assert ok
