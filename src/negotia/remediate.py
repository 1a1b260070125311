"""The remediation policy: rewrite a violating utterance using an ICL
exemplar set, plus silver (zero-shot) pool annotation."""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .backends import BackendError, BackendSession, scripted_remediation_text, chat
from .core import Dialogue, Exemplar, ExemplarSet, Turn
from .prompts import TemplateStore, format_icl_block, render, render_conversation

__all__ = [
    "RemediationPolicy",
    "remediate",
    "silver_annotate",
    "SILVER_SCRIPTED_QUALITY",
]

log = logging.getLogger(__name__)

# Latent quality the scripted oracle assigns to zero-shot remediations; set
# below perfect so better exemplar sets can beat the silver baseline and
# worse ones can fall behind it.
SILVER_SCRIPTED_QUALITY = 0.5


@dataclass(frozen=True)
class RemediationPolicy:
    """An exemplar-conditioned rewriting policy.

    An empty exemplar list is the zero-shot (silver) configuration.
    """

    exemplars: tuple[Exemplar, ...]
    backend: BackendSession

    @property
    def exemplar_set(self) -> ExemplarSet:
        return ExemplarSet(members=tuple(e.id for e in self.exemplars))

    def scripted_quality(self) -> float:
        """Mean latent quality of the members, clamped to [0, 1].

        Drives the scripted oracle only. Exemplars without a latent quality
        count as the silver level; an empty set is the silver level itself.
        """
        if not self.exemplars:
            return SILVER_SCRIPTED_QUALITY
        qualities = [
            e.latent_quality if e.latent_quality is not None else SILVER_SCRIPTED_QUALITY
            for e in self.exemplars
        ]
        mean = sum(qualities) / len(qualities)
        return min(max(mean, 0.0), 1.0)


def remediate(
    policy: RemediationPolicy,
    history: tuple[Turn, ...],
    violating_text: str,
    templates: TemplateStore | None = None,
) -> str:
    """Produce a rewrite of a violating utterance.

    On backend failure or an empty completion the original text is returned
    unchanged after one retry, with a logged no-remediation marker, so
    corpora stay complete.
    """
    if not violating_text:
        raise ValueError("violating text must be non-empty")

    if policy.backend.kind == "scripted":
        return scripted_remediation_text(policy.scripted_quality())

    if templates is None:
        raise ValueError("remote remediation requires templates")
    bindings = {
        "$ICL-Examples": format_icl_block(policy.exemplars),
        "$CONVERSATION": render_conversation(history),
        "$LAST_SENTENCE": violating_text,
    }
    msgs = render(templates.get("remediator"), bindings)
    for _attempt in range(2):
        try:
            completion = chat(policy.backend, msgs).strip()
        except BackendError as exc:
            log.warning("remediation attempt failed: %s", exc)
            continue
        if completion:
            return completion
    log.warning("no-remediation: falling back to the original utterance")
    return violating_text


def silver_annotate(
    corpus: list[Dialogue],
    backend: BackendSession,
    templates: TemplateStore | None = None,
) -> list[Exemplar]:
    """Zero-shot remediation of every unremediated violation turn in a corpus.

    The corpus is not mutated; one exemplar is emitted per violation turn
    with ids "<dialogue id>#<turn index>". Already-remediated turns are
    exported as-is via their recorded rewrite; a turn whose backend fails
    keeps its original text (see ``remediate``).
    """
    policy = RemediationPolicy(exemplars=(), backend=backend)
    pool: list[Exemplar] = []
    for d in corpus:
        for i, t in enumerate(d.turns):
            if not t.violation:
                continue
            eid = f"{d.id}#{i}"
            if t.original_text is not None:
                # Turn already remediated in the corpus: export the recorded rewrite.
                pool.append(
                    Exemplar(
                        id=eid,
                        history=d.turns[:i],
                        violation_text=t.original_text,
                        remediation_text=t.text,
                    )
                )
                continue
            pool.append(
                Exemplar(
                    id=eid,
                    history=d.turns[:i],
                    violation_text=t.text,
                    remediation_text=remediate(policy, d.turns[:i], t.text, templates),
                )
            )
    return pool
