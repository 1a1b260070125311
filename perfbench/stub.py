"""Deterministic in-process chat transport for the `remote_cached` workload.

It stands where the HTTP transport would (`BackendSession.transport`),
answers at once, and derives every reply from a hash of the request and a
salt (three per seed), so a repeated request gets the same reply.

The moderator, too, answers from the request hash: it lets every
conversation reach END_FROM_LINES lines, then ends it when the hash falls in
the lowest END_PER_MILLE thousandths. Dialogues that share a prefix share
their requests. The rule is set so that the cold pass of 200 dialogues comes
near the mix measured on that workload, 4,760 `chat` calls for 384 distinct
requests: over the 36 salts of seeds 1-12 the median is 4,824 calls (4,165
to 5,907) for 392 distinct requests (199 to 718). The floor keeps the first
decisions, which every dialogue shares, from ending whole salts early.
"""

from __future__ import annotations

import hashlib
import json

# Substrings that identify each template id, tried in order; seller_normal's
# marker also occurs in seller_violate, so seller_violate comes first.
_MARKERS = (
    ("moderator", "You are the moderator"),
    ("deal_eval", "whether a deal was reached"),
    ("trust_eval", "whether trust between the parties has deepened"),
    ("business_eval", "whether the business relationship between the parties deepened"),
    ("remediator", "you are a negotiation assistant"),
    ("critic", "You are a critic"),
    ("buyer", "You are a buyer"),
    ("seller_violate", "Please read the following examples first"),
    ("seller_normal", "You are a seller"),
)

# The moderator's rule: no end before this many conversation lines (the two
# opening turns, three buyer-seller rounds and the next buyer turn), then an end on this share of
# request hashes, in thousandths.
END_FROM_LINES = 9
END_PER_MILLE = 270

_BUYER = (
    "Could you do {p} per unit? That would let us sign today.",
    "Our budget is tight; {p} per unit is what we can justify.",
    "We appreciate the offer. Would {p} per unit work for you?",
)
_SELLER = (
    "Considering our costs, we can come down to {p} per unit.",
    "We value this partnership; {p} per unit is a fair price.",
    "Let us meet halfway: {p} per unit.",
)
_VIOLATE = (
    "That is absurd. {p} per unit, take it or leave it!",
    "Stop wasting our time. We will not go below {p}.",
    "Do you even understand this market? {p} is final.",
)
_REMEDIATE = (
    "I understand your constraints; could we agree on {p} per unit?",
    "We hear you, and we would like to find a price that works: {p}.",
)
_TRUST = ("Trust Deepening", "Trust Weakening", "No Change",
          "This Conversation Does Not Involve Building Trust")
_BUSINESS = ("Business Relationship Deepening", "Business Relationship Weakening",
             "No Change", "This Conversation Does Not Involve Deepening Business Relationships")


def template_id(messages: list[dict]) -> str:
    """The template a rendered request came from, by its marker text."""
    text = "\n".join(m["content"] for m in messages)
    for tid, marker in _MARKERS:
        if marker in text:
            return tid
    raise ValueError("request matches no template marker")


def _conversation_lines(messages: list[dict]) -> list[str]:
    return [
        ln for m in messages for ln in m["content"].splitlines()
        if ln.startswith(("buyer: ", "seller: "))
    ]


class StubTransport:
    """Callable transport: request body in, chat-completions response out.

    `calls` counts every request that reached it, i.e. every cache miss.
    """

    def __init__(self, salt: str):
        self.salt = salt
        self.calls = 0

    def reply(self, messages: list[dict]) -> str:
        tid = template_id(messages)
        key = json.dumps(messages, sort_keys=True, ensure_ascii=False)
        h = int.from_bytes(hashlib.sha256((self.salt + key).encode("utf-8")).digest()[:8], "big")
        price = f"${3000 + 25 * (h % 81)}"
        if tid == "moderator":
            ended = len(_conversation_lines(messages)) >= END_FROM_LINES and h % 1000 < END_PER_MILLE
            return "Yes" if ended else "No"
        if tid == "deal_eval":
            if h % 4 == 0:
                return "No deal"
            return f"Deal\n{3000 + 25 * (h % 81)}"
        if tid == "trust_eval":
            return _TRUST[h % 4]
        if tid == "business_eval":
            return _BUSINESS[(h >> 8) % 4]
        if tid == "critic":
            return "The rewrite kept the price and removed the insult."
        table = {
            "buyer": _BUYER, "seller_normal": _SELLER,
            "seller_violate": _VIOLATE, "remediator": _REMEDIATE,
        }[tid]
        return table[(h >> 16) % len(table)].format(p=price)

    def __call__(self, body: dict) -> dict:
        self.calls += 1
        content = self.reply(body["messages"])
        return {"choices": [{"finish_reason": "stop", "message": {"content": content}}]}
