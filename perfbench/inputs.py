"""Seeded input generators, one per workload.

Each generator writes its workload's input files into a fresh directory and
is a function of the seed alone: the same seed writes the same bytes, which
`input_digests` lets the self-check confirm. The program under test receives
only these files (and, for `remote_cached`, the stub transport built from
them).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

from negotia.backends import BackendSession, ScriptedWorld, derive_seed
from negotia.core import PriceBounds, dump_exemplars
from negotia.prompts import render_conversation
from negotia.remediate import silver_annotate
from negotia.simulation import SimulationConfig, simulate

# Workload sizes. Changing any of them changes every recorded digest.
CORPUS_DIALOGUES = 4000
VALUE_POOL = 3000
FILTER_SAMPLE = 256
PROBE_SIZE = 32
SET_K = 8
FILTER_M = 2
NOISY_M = 4
RETRIEVAL_POOL = 1000
RETRIEVAL_QUERIES = 3
SELECT_K = 8
REMOTE_DIALOGUES = 200
# Independent stub salts, each with its own 200 dialogues and cache. Dialogues
# under one salt share their early requests and so the stub moderator's first
# decisions; several salts keep one seed's cost from hanging on a few of them.
REMOTE_SALTS = 3
P_C = 0.4

BOUNDS = PriceBounds(cost_price=3500, seller_init=5000, buyer_init=3000)


def _scripted_pool(seed: int, tag: str, n_exemplars: int) -> list:
    """Silver exemplars of a scripted corpus, in corpus order.

    Simulates batches of dialogues until at least `n_exemplars` exist.
    """
    world = ScriptedWorld(bounds=BOUNDS)
    session = BackendSession(kind="scripted")
    pool = []
    i = 0
    while len(pool) < n_exemplars:
        batch = [
            simulate(
                session, session, session,
                SimulationConfig(p_c=P_C, seed=derive_seed(seed, tag, j)),
                world=world, dialogue_id=f"{tag}-{j}",
            )
            for j in range(i, i + 256)
        ]
        i += 256
        pool.extend(silver_annotate(batch, session))
    return pool


def corpus_inputs(seed: int, d: Path) -> dict:
    """A CLI config for `simulate` over a scripted corpus."""
    cfg = {"seed": seed, "n": CORPUS_DIALOGUES, "p_c": P_C, "backend": "scripted"}
    path = d / "corpus_config.json"
    path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
    return {"config": path}


def value_search_inputs(seed: int, d: Path) -> dict:
    """A silver pool with seeded latent qualities and a noisy re-ranking.

    The re-ranking orders the ids the filter samples (the same
    `Random(seed).sample(pool, FILTER_SAMPLE)` draw `rank_individuals`
    makes) as noisy singleton estimates would, with a bounded error: two
    members of the initial set are ranked too high. The m 4 search then
    improves positions 0 and 1 with one candidate each and prunes at
    positions 0, 1 and 2, in 18 evaluations on every seed. Unbounded random
    noise instead lets improving children multiply from position to
    position, so the search's cost swings by orders of magnitude between
    seeds.
    """
    pool = _scripted_pool(seed, "vs", VALUE_POOL)[:VALUE_POOL]
    rng = random.Random(derive_seed(seed, "latent_quality"))
    pool = [replace(e, latent_quality=round(rng.random(), 6)) for e in pool]
    pool_path = d / "pool.jsonl"
    dump_exemplars(pool, pool_path)

    sample = random.Random(seed).sample(pool, FILTER_SAMPLE)
    by_quality = sorted(sample, key=lambda e: (-e.latent_quality, e.id))
    rng = random.Random(derive_seed(seed, "noisy_rank"))
    # Quality-rank bands 24 ranks apart, wide enough that every swap changes
    # the impact: better[j] beats misranked[j] but not misranked[j - 1], and
    # every id ranked 128 or below loses to all of them.
    better = [by_quality[rng.randrange(64 * j, 64 * j + 8)] for j in range(2)]
    misranked = [by_quality[rng.randrange(64 * j + 32, 64 * j + 40)] for j in range(2)]
    top = rng.sample(by_quality[8:24], SET_K - 2)
    low = by_quality[128:]
    rng.shuffle(low)
    placed = {e.id for e in better + misranked + top}
    rest = [e for e in by_quality[:128] if e.id not in placed]
    order = misranked + top + [better[0]] + low[:3] + [better[1]] + low[3:] + rest
    noisy_path = d / "ranked_noisy.json"
    noisy_path.write_text(
        json.dumps([{"id": e.id, "value_impact": round(0.05 - 0.0004 * i, 6)}
                    for i, e in enumerate(order)], indent=2),
        encoding="utf-8",
    )
    return {"pool": pool_path, "noisy": noisy_path}


def retrieval_inputs(seed: int, d: Path) -> dict:
    """A pool of RETRIEVAL_POOL exemplars and queries from held-out turns.

    Each query is a history plus violation text from a dialogue whose
    exemplars are not in the pool.
    """
    exemplars = _scripted_pool(seed, "rt", RETRIEVAL_POOL + 64)
    pool = exemplars[:RETRIEVAL_POOL]
    pool_path = d / "pool.jsonl"
    dump_exemplars(pool, pool_path)
    pooled = {e.id.split("#")[0] for e in pool}
    held_out = [e for e in exemplars[RETRIEVAL_POOL:] if e.id.split("#")[0] not in pooled]
    picks = random.Random(derive_seed(seed, "queries")).sample(held_out, RETRIEVAL_QUERIES)
    queries = []
    for i, e in enumerate(picks):
        text = render_conversation(e.history) + f"\nseller: {e.violation_text}"
        path = d / f"query{i}.json"
        path.write_text(json.dumps({"text": text}), encoding="utf-8")
        queries.append(path)
    return {"pool": pool_path, "queries": queries}


def remote_inputs(seed: int, d: Path) -> dict:
    """Dialogue seeds and the stub transport's reply salts."""
    cfg = {
        "salts": [hashlib.sha256(f"stub-{seed}-{j}".encode()).hexdigest()[:16] for j in range(REMOTE_SALTS)],
        "dialogue_seeds": [derive_seed(seed, "remote", i) for i in range(REMOTE_DIALOGUES)],
        "p_c": P_C,
        "max_turns": 20,
    }
    path = d / "remote_config.json"
    path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
    return {"config": path}


GENERATORS = {
    "corpus": corpus_inputs,
    "value_search": value_search_inputs,
    "retrieval": retrieval_inputs,
    "remote_cached": remote_inputs,
}


def input_digests(d: Path) -> dict[str, str]:
    """sha256 of every file a generator wrote, keyed by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(d.iterdir())
        if p.is_file()
    }
