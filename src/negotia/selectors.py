"""Baseline exemplar-selection strategies: random ICL and retrieval ICL."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import Exemplar, ExemplarSet
from .prompts import exemplar_text, render_conversation

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "HashedNgramEmbedder",
    "select_random",
    "select_retrieval",
]


# Pool exemplars rendered per embed_many call, which gets those of their texts
# not yet scored: enough to spread numpy's per-call cost over many texts, few
# enough that no pool-sized matrix is held.
_BLOCK = 64


@dataclass(frozen=True)
class HashedNgramEmbedder:
    """Deterministic offline embedder: character n-grams hashed into a fixed
    number of buckets, L2-normalized. A remote semantic embedder plugs in
    behind embed_many(), which retrieval calls at most once per block of pool
    exemplars, with that block's texts not yet scored, so such an embedder can
    serve each block with one request."""

    dim: int = 256
    ngram: int = 3

    def __post_init__(self) -> None:
        # type(x) is int: a float or a bool would construct, then fail or
        # silently embed unigrams (ngram=True) on the first embed.
        if type(self.dim) is not int or not 1 <= self.dim <= 2**31:
            raise ValueError(f"dim must be an int in [1, 2**31], got {self.dim!r}")
        if type(self.ngram) is not int or self.ngram < 1:
            raise ValueError(f"ngram must be an int >= 1, got {self.ngram!r}")

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: list[str]) -> np.ndarray:
        """One row per text, each equal to what embed(text) returns."""
        import numpy as np  # here, not at module level: only retrieval pays for numpy

        # Lowered one by one: str.lower is context-sensitive (a final sigma
        # lowers to ς only at the end of a word), so lowering the joined text
        # would change the vectors.
        lowered = [t.lower() for t in texts]
        codes = np.frombuffer("".join(lowered).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        m = max(len(codes) - self.ngram + 1, 0)
        # Stable (h * 131 + c) mod 2**31 hash of each n-gram (hash() is salted per
        # process); uint32 wraps mod 2**32, a multiple of 2**31, so one final mask is exact.
        h = codes[:m].copy()
        for j in range(1, self.ngram):
            h *= np.uint32(131)
            h += codes[j : j + m]
        h &= np.uint32(2**31 - 1)
        h %= np.uint32(self.dim)
        out = np.zeros((len(lowered), self.dim), dtype=np.float64)
        end = 0
        for i, t in enumerate(lowered):
            start, end = end, end + len(t)
            # Only the n-grams that start and end inside this text.
            if end - self.ngram + 1 > start:
                out[i] = np.bincount(h[start : end - self.ngram + 1], minlength=self.dim)
        # Counts are small integers, so the sums of squares are exact and each
        # row equals vec / np.linalg.norm(vec) bit for bit; zero rows stay zero.
        norms = np.sqrt(np.einsum("ij,ij->i", out, out))
        norms[norms == 0] = 1.0
        out /= norms[:, None]
        return out


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
    # Pools repeat texts (scripted prefixes do), and equal texts embed to equal
    # rows, so each distinct text is embedded and scored once per call.
    score: dict[str, float] = {}
    # A loaded pool's equal histories are one tuple, so each distinct history
    # object is rendered once per call; pool keeps every keyed object alive.
    conversations: dict[int, str] = {}
    scored: list[tuple[float, str]] = []
    # Scored row by row with qv.dot, not as one matrix product, which sums in
    # another order and could reorder near-ties.
    for b in range(0, len(pool), _BLOCK):
        block = pool[b : b + _BLOCK]
        texts = []
        for e in block:
            conversation = conversations.get(id(e.history))
            if conversation is None:
                conversation = conversations[id(e.history)] = render_conversation(e.history)
            texts.append(exemplar_text(e, conversation))
        new = [t for t in dict.fromkeys(texts) if t not in score]
        if new:
            vecs = embedder.embed_many(new)
            for t, ev, nonzero in zip(new, vecs, vecs.any(axis=1).tolist()):
                score[t] = float(qv.dot(ev)) if nonzero and not q_zero else float("-inf")
        scored.extend((score[t], e.id) for t, e in zip(texts, block))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return ExemplarSet(members=tuple(eid for _sim, eid in scored[:k]))
