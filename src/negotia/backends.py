"""Agent backends.

Two kinds: a remote OpenAI-compatible chat-completions client with a
persistent on-disk response cache, and a deterministic scripted bargaining
world that stands in for the role-playing LLM agents at desk scale.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .core import NegotiationOutcome, PriceBounds, format_money

__all__ = [
    "BackendSession",
    "BackendError",
    "NetworkError",
    "ContentFilterError",
    "chat",
    "ScriptedWorld",
    "BargainState",
    "scripted_step",
    "scripted_outcome",
    "scripted_remediation_text",
    "scripted_violation_text",
    "remediation_quality",
    "derive_seed",
]

API_KEY_ENV = "NEGOTIA_API_KEY"

# Quality tag parsed by the scripted world from remediation texts. The tag is
# how remediation strength flows from the remediator back into the oracle.
_QUALITY_TAG = re.compile(r"\[q=([0-9.]+)\]")


class BackendError(Exception):
    """Base class for backend failures."""


class NetworkError(BackendError):
    """Transport-level failure after exhausting retries."""


class ContentFilterError(BackendError):
    """Provider refused the request; the caller may mark the turn and go on."""


@dataclass(frozen=True)
class BackendSession:
    """Handle to an agent backend plus its generation parameters."""

    kind: str  # "remote" | "scripted"
    endpoint: Optional[str] = None
    model_name: Optional[str] = None
    temperature: float = 1.0
    max_tokens: int = 256
    cache_dir: Optional[Path] = None
    retries: int = 3
    backoff_base: float = 1.0
    transport: Optional[Callable[[dict], dict]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("remote", "scripted"):
            raise ValueError(f"unknown backend kind: {self.kind}")
        if self.kind == "remote" and (self.endpoint is None or self.model_name is None):
            raise ValueError("remote sessions need endpoint and model_name")


def derive_seed(base: int, *parts: object) -> int:
    """Stable 64-bit seed derived from a base seed and any hashable parts.

    Uses sha256 rather than hash() so results are identical across processes
    and worker counts.
    """
    h = hashlib.sha256(repr((base,) + parts).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


# ---------------------------------------------------------------------------
# Remote chat client


def _http_transport(session: BackendSession) -> Callable[[dict], dict]:
    import requests

    def post(body: dict) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        url = session.endpoint.rstrip("/") + "/chat/completions"
        try:
            resp = requests.post(url, json=body, headers=headers, timeout=60)
        except requests.RequestException as exc:
            raise NetworkError(str(exc)) from exc
        if resp.status_code != 200:
            raise NetworkError(f"HTTP {resp.status_code}: {resp.text[:500]}")
        try:
            return resp.json()
        except ValueError as exc:
            raise NetworkError(f"unreadable response body: {exc}") from exc

    return post


def chat(session: BackendSession, messages: list[dict]) -> str:
    """Run one chat completion, serving repeats from the on-disk cache.

    Cache entries are content-addressed by a digest of the canonical
    serialization of the request body (model, generation params, messages).
    Each writer renames its own temp file into place, so concurrent writers
    of one key never collide; the last rename wins with identical contents.
    Only a transport's ``NetworkError`` is retried; a malformed response or
    cache entry raises ``BackendError``.
    """
    if session.kind != "remote":
        raise BackendError("chat requires a remote session")
    if not messages:
        raise BackendError("messages must be non-empty")

    body = {
        "model": session.model_name,
        "temperature": session.temperature,
        "max_tokens": session.max_tokens,
        "messages": messages,
    }
    digest = hashlib.sha256(
        json.dumps(body, sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()
    cache_path = None
    if session.cache_dir is not None:
        cache_path = Path(session.cache_dir) / f"{digest}.json"
        if cache_path.exists():
            try:
                return json.loads(cache_path.read_text(encoding="utf-8"))["content"]
            except (ValueError, KeyError, TypeError) as exc:
                raise BackendError(f"unreadable cache entry {cache_path}: {exc!r}") from exc

    transport = session.transport or _http_transport(session)

    last_exc: Optional[NetworkError] = None
    for attempt in range(session.retries + 1):
        try:
            data = transport(body)
            break
        except NetworkError as exc:
            last_exc = exc
            if attempt < session.retries:
                time.sleep(session.backoff_base * (2**attempt))
    else:
        raise NetworkError(f"chat failed after {session.retries + 1} attempts: {last_exc}")

    try:
        choice = data["choices"][0]
        if choice.get("finish_reason") == "content_filter":
            raise ContentFilterError("provider content filter refused the completion")
        content = choice["message"]["content"]
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise BackendError(f"malformed provider response: {exc!r}") from exc
    if not isinstance(content, str):
        raise BackendError(f"malformed provider response: content is {content!r}")

    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache_path.with_name(f"{digest}.tmp{os.getpid()}-{threading.get_ident()}")
        tmp.write_text(json.dumps({"content": content}, ensure_ascii=False), encoding="utf-8")
        tmp.replace(cache_path)
    return content


# ---------------------------------------------------------------------------
# Scripted bargaining world


@dataclass(frozen=True)
class ScriptedWorld:
    """Deterministic concession-bargaining rules standing in for LLM agents.

    Goodwill starts at 2 and scales the buyer's concession speed through
    goodwill_factor = max(g, 0) / 2. A violation costs one point of goodwill;
    a remediation of quality q restores q, so the oracle's reward is
    continuous in remediation quality and value comparisons are strict.
    """

    bounds: PriceBounds
    concession_buyer: float = 0.3
    concession_seller: float = 0.3
    goodwill: float = 2.0
    max_rounds: int = 12
    close_tolerance: int = 50

    def __post_init__(self) -> None:
        if not (0.0 < self.concession_buyer < 1.0 and 0.0 < self.concession_seller < 1.0):
            raise ValueError("concession rates must lie in (0, 1)")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")


@dataclass
class BargainState:
    """Mutable rollout state; confined to a single rollout worker."""

    bid: float
    ask: float
    goodwill: float
    round: int = 0
    terminal: bool = False
    deal: bool = False
    walk_away: bool = False
    pending_ask: Optional[float] = None
    remediation_qualities: list[float] = field(default_factory=list)
    unremediated_violations: int = 0

    @classmethod
    def initial(cls, world: ScriptedWorld) -> "BargainState":
        return cls(
            bid=float(world.bounds.buyer_init),
            ask=float(world.bounds.seller_init),
            goodwill=world.goodwill,
        )


def remediation_quality(text: str) -> float:
    """Extract the scripted quality tag from a remediation; absent means 0."""
    m = _QUALITY_TAG.search(text)
    if not m:
        return 0.0
    return min(max(float(m.group(1)), 0.0), 1.0)


def scripted_remediation_text(quality: float) -> str:
    """Canned remediation whose strength the scripted world can read back."""
    quality = min(max(quality, 0.0), 1.0)
    return (
        "I understand your position; let us look for a price that works "
        f"for both sides. [q={quality:.6f}]"
    )


def scripted_violation_text(ask: float) -> str:
    """The scripted seller's norm-violating rendering of its ask."""
    return (
        f"How can you be so unreasonable? We will not go below {format_money(round(ask))}. "
        "Take it or leave it!"
    )


def scripted_step(
    world: ScriptedWorld,
    state: BargainState,
    role: str,
    violation: bool = False,
    remediation: Optional[str] = None,
) -> str:
    """Emit one utterance for the given role and update the bargain state.

    The buyer call for a round must precede the seller call; the pending bid
    and ask are computed together at the buyer call, from the previous
    round's numbers, so both move simultaneously. A seller violation
    decrements goodwill by one; an accompanying remediation restores its
    parsed quality.
    """
    if state.terminal:
        raise BackendError("scripted world stepped after terminal state")

    if role == "buyer":
        gap = state.ask - state.bid
        factor = max(state.goodwill, 0.0) / 2.0
        state.bid += world.concession_buyer * gap * factor
        state.pending_ask = state.ask - world.concession_seller * gap
        state.round += 1
        return (
            f"Would you consider selling at {format_money(round(state.bid))} per unit? "
            "That price would work well for us."
        )

    if role != "seller":
        raise BackendError(f"unknown scripted role: {role}")

    if state.pending_ask is not None:
        state.ask = state.pending_ask
        state.pending_ask = None
    if violation:
        state.goodwill -= 1.0
        if remediation is not None:
            q = remediation_quality(remediation)
            state.goodwill += q
            state.remediation_qualities.append(q)
            text = remediation
        else:
            state.unremediated_violations += 1
            text = scripted_violation_text(state.ask)
    else:
        text = (
            f"Considering our costs, we can come down to {format_money(round(state.ask))} per unit. "
            "We value a long-term relationship with you."
        )

    # Close rule, evaluated after the seller's number lands.
    if state.ask - state.bid <= world.close_tolerance or state.bid >= state.ask:
        state.terminal = True
        state.deal = True
    return text


def check_round_boundary(world: ScriptedWorld, state: BargainState) -> None:
    """Apply the walk-away rules between rounds."""
    if state.terminal:
        return
    if state.goodwill <= 0.0 or state.round >= world.max_rounds:
        state.terminal = True
        state.deal = False
        state.walk_away = True


def scripted_outcome(world: ScriptedWorld, state: BargainState) -> NegotiationOutcome:
    """Assess a terminal bargain state.

    Unremediated violations count as quality 0 in the mean; a dialogue with
    no violations at all is treated as mean quality 1 (vacuous mean).
    """
    if not state.terminal:
        raise BackendError("scripted outcome requires a terminal state")

    qualities = list(state.remediation_qualities) + [0.0] * state.unremediated_violations
    mean_q = sum(qualities) / len(qualities) if qualities else 1.0

    if not state.deal:
        return NegotiationOutcome(deal=False, trust_delta=-1, business_delta=-1)

    price = round((state.bid + state.ask) / 2.0)
    if state.unremediated_violations > 0:
        trust = -1
    elif mean_q >= 1.0:
        trust = 1
    else:
        trust = 0
    business = 1 if mean_q >= 0.5 else 0
    return NegotiationOutcome(deal=True, price=price, trust_delta=trust, business_delta=business)
