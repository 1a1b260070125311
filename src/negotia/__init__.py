"""Negotiation dialogue simulation with norm-violation remediation and
value-driven exemplar-set selection."""

from .backends import (
    BackendError,
    BackendSession,
    BargainState,
    ContentFilterError,
    NetworkError,
    ScriptedWorld,
    derive_seed,
)
from .core import (
    CorpusError,
    Dialogue,
    Exemplar,
    ExemplarSet,
    NegotiationOutcome,
    PriceBounds,
    Speaker,
    Topic,
    Turn,
)
from .outcome import MetricsReport, evaluate_corpus, reward
from .remediate import RemediationPolicy, remediate, silver_annotate
from .search import SearchTrace, search_optimal_set, split_candidates
from .selectors import HashedNgramEmbedder, select_random, select_retrieval
from .simulation import SimulationConfig, ViolationPoint, continue_rollout, simulate
from .valueimpact import (
    RemediationPoint,
    build_probe_set,
    estimate_value_impact,
    rank_individuals,
    value_of_remediation,
)

__version__ = "0.1.0"

__all__ = [
    "BackendError",
    "BackendSession",
    "BargainState",
    "ContentFilterError",
    "CorpusError",
    "Dialogue",
    "Exemplar",
    "ExemplarSet",
    "HashedNgramEmbedder",
    "MetricsReport",
    "NegotiationOutcome",
    "NetworkError",
    "PriceBounds",
    "RemediationPoint",
    "RemediationPolicy",
    "ScriptedWorld",
    "SearchTrace",
    "SimulationConfig",
    "Speaker",
    "Topic",
    "Turn",
    "ViolationPoint",
    "build_probe_set",
    "continue_rollout",
    "derive_seed",
    "estimate_value_impact",
    "evaluate_corpus",
    "rank_individuals",
    "remediate",
    "reward",
    "search_optimal_set",
    "select_random",
    "select_retrieval",
    "silver_annotate",
    "simulate",
    "split_candidates",
    "value_of_remediation",
]
