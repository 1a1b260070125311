"""Baseline exemplar-selection strategies: random ICL and retrieval ICL."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import Exemplar, ExemplarSet
from .prompts import exemplar_text

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "HashedNgramEmbedder",
    "select_random",
    "select_retrieval",
]


@dataclass(frozen=True)
class HashedNgramEmbedder:
    """Deterministic offline embedder: character n-grams hashed into a fixed
    number of buckets, L2-normalized. Remote semantic embedders plug in
    behind the same embed() interface."""

    dim: int = 256
    ngram: int = 3

    def embed(self, text: str) -> np.ndarray:
        import numpy as np  # here, not at module level: only retrieval pays for numpy

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
    # embed returns finite unit or zero vectors, so only an all-zero one has norm 0.
    qv = embedder.embed(query)
    q_zero = not qv.any()
    scored: list[tuple[float, str]] = []
    for e in pool:
        ev = embedder.embed(exemplar_text(e))
        if q_zero or not ev.any():
            sim = float("-inf")
        else:
            sim = float(qv.dot(ev))
        scored.append((sim, e.id))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return ExemplarSet(members=tuple(eid for _sim, eid in scored[:k]))
