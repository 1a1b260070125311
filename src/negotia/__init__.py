"""Negotiation dialogue simulation with norm-violation remediation and
value-driven exemplar-set selection.

Each name is imported from its module (``from negotia.simulation import
simulate``); the package re-exports none of them.
"""

from . import backends, core, outcome, prompts, remediate, search, selectors, simulation, valueimpact

__version__ = "0.1.0"

__all__ = [
    "backends",
    "core",
    "outcome",
    "prompts",
    "remediate",
    "search",
    "selectors",
    "simulation",
    "valueimpact",
]
