"""Baseline exemplar-selection strategies: random ICL, retrieval ICL, and
critic (RLNL) augmentation."""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace

import numpy as np

from .backends import BackendError, BackendSession, chat
from .core import Dialogue, Exemplar, ExemplarSet, Turn
from .prompts import TemplateStore, render, render_conversation

__all__ = [
    "HashedNgramEmbedder",
    "exemplar_text",
    "select_random",
    "select_retrieval",
    "rlnl_augment",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class HashedNgramEmbedder:
    """Deterministic offline embedder: character n-grams hashed into a fixed
    number of buckets, L2-normalized. Remote semantic embedders plug in
    behind the same embed() interface."""

    dim: int = 256
    ngram: int = 3

    def embed(self, text: str) -> np.ndarray:
        codes = np.frombuffer(text.lower().encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        m = max(len(codes) - self.ngram + 1, 0)
        # Stable (h * 131 + c) mod 2**31 hash of each n-gram (hash() is salted per
        # process); uint32 wraps mod 2**32, a multiple of 2**31, so one final mask is exact.
        h = codes[:m].copy()
        for j in range(1, self.ngram):
            h *= np.uint32(131)
            h += codes[j : j + m]
        vec = np.bincount((h & np.uint32(2**31 - 1)) % self.dim, minlength=self.dim).astype(np.float64)
        norm = float(np.linalg.norm(vec))
        if norm > 0:
            vec /= norm
        return vec


def exemplar_text(e: Exemplar) -> str:
    """The text a retrieval query is matched against: history + violation."""
    history = render_conversation(e.history)
    return f"{history}\nseller: {e.violation_text}" if history else f"seller: {e.violation_text}"


def select_random(pool: list[Exemplar], k: int, seed: int) -> ExemplarSet:
    """Uniform without-replacement sample of K exemplar ids."""
    if len(pool) < k:
        raise ValueError(f"pool of {len(pool)} too small for K={k}")
    rng = random.Random(seed)
    chosen = rng.sample(pool, k)
    return ExemplarSet(members=tuple(e.id for e in chosen))


def select_retrieval(
    pool: list[Exemplar],
    query: str,
    k: int,
    embedder: HashedNgramEmbedder,
) -> ExemplarSet:
    """Top-K pool entries by cosine similarity to the query text.

    Ties break by id ascending; zero-norm vectors rank below everything.
    """
    if len(pool) < k:
        raise ValueError(f"pool of {len(pool)} too small for K={k}")
    qv = embedder.embed(query)
    q_zero = float(np.linalg.norm(qv)) == 0.0
    scored: list[tuple[float, str]] = []
    for e in pool:
        ev = embedder.embed(exemplar_text(e))
        if q_zero or float(np.linalg.norm(ev)) == 0.0:
            sim = float("-inf")
        else:
            sim = float(np.dot(qv, ev))
        scored.append((sim, e.id))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return ExemplarSet(members=tuple(eid for _sim, eid in scored[:k]))


def rlnl_augment(
    finished: Dialogue,
    exemplar: Exemplar,
    critic: BackendSession,
    templates: TemplateStore,
) -> Exemplar:
    """Attach a critic summary of the remediation to the exemplar's rationale.

    Augmenting twice overwrites the rationale. On critic failure the
    exemplar is returned unmodified with a logged warning.
    """
    if not any(t.text == exemplar.remediation_text for t in finished.turns):
        raise ValueError("finished dialogue does not contain the exemplar's remediation")
    bindings = {
        "$CONVERSATION": render_conversation(finished.turns),
        "$LAST_SENTENCE": exemplar.violation_text,
    }
    msgs = render(templates.get("critic"), bindings)
    try:
        summary = chat(critic, msgs).strip()
    except BackendError as exc:
        log.warning("critic failed, exemplar left unmodified: %s", exc)
        return exemplar
    return replace(exemplar, rationale=summary)
