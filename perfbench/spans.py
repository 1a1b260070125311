"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder changes no file of the program. `Tracer.install` replaces each
traced function with a wrapper under every name a caller looks it up by: the
module attributes of the `negotia` package that refer to it, the
`HashedNgramEmbedder.embed` method, and the CLI's subcommand table. A wrapper
either records a span (name, start, end, parent, run id) or, for the hottest
calls, only counts. Spans are kept in memory; `write` saves them when the run
ends. `uninstall` puts every original back, so traced and untraced passes can
alternate in one process and the difference is the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

import negotia
from negotia import backends, cli, core, outcome, prompts, search, selectors, simulation, valueimpact

from stub import StubTransport

# The package re-exports the function `remediate` under the module's name.
remediate = importlib.import_module("negotia.remediate")
MODULES = (negotia, backends, cli, core, outcome, prompts, remediate, search, selectors, simulation, valueimpact)
CLI_COMMANDS = ("simulate", "annotate", "evaluate", "filter", "search", "select")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rollout_hook(tracer, args, kwargs, result):
    point = _arg(args, kwargs, 2, "point")
    tracer.add("simulation.continue_rollout.turns", len(point.prefix))
    # Repeats are counted within one CLI command: the probe set, and so any
    # memo of rollouts, lives only that long.
    stack = tracer.stack()
    with tracer.lock:
        tracer.rollout_keys.add((stack[0] if stack else None, point.seed, _arg(args, kwargs, 3, "remediation")))


def _excluded_hook(tracer, args, kwargs, result):
    tracer.add("valueimpact.excluded_points", len(_arg(args, kwargs, 1, "probe")) - result.n_points)


def _search_hook(tracer, args, kwargs, result):
    trace = result[1]
    tracer.add("search.evaluations", len(trace.evaluations))
    tracer.add("search.prunings", len(trace.pruning_events))


# (span name, module, attribute, hook run after a successful call). A hook of
# None records the span only.
SPANNED = (
    ("core.load_dialogues", core, "load_dialogues",
     lambda t, a, k, r: t.add("core.load_dialogues.records", len(r))),
    ("core.dump_dialogues", core, "dump_dialogues",
     lambda t, a, k, r: t.add("core.dump_dialogues.records", len(_arg(a, k, 0, "dialogues")))),
    ("core.load_exemplars", core, "load_exemplars",
     lambda t, a, k, r: t.add("core.load_exemplars.records", len(r))),
    ("core.dump_exemplars", core, "dump_exemplars",
     lambda t, a, k, r: t.add("core.dump_exemplars.records", len(_arg(a, k, 0, "pool")))),
    ("simulation.simulate", simulation, "simulate", None),
    ("simulation.rollout_to_first_violation", simulation, "rollout_to_first_violation", None),
    ("simulation.continue_rollout", simulation, "continue_rollout", _rollout_hook),
    ("simulation.moderator_end", simulation, "moderator_end", None),
    ("backends.chat", backends, "chat", None),
    ("prompts.render", prompts, "render", None),
    ("prompts.render_conversation", prompts, "render_conversation", None),
    ("remediate.remediate", remediate, "remediate", None),
    ("remediate.silver_annotate", remediate, "silver_annotate",
     lambda t, a, k, r: t.add("remediate.silver_annotate.exemplars", len(r))),
    ("outcome.evaluate_corpus", outcome, "evaluate_corpus", None),
    ("outcome.assess_outcome", outcome, "assess_outcome", None),
    ("valueimpact.build_probe_set", valueimpact, "build_probe_set", None),
    ("valueimpact.rank_individuals", valueimpact, "rank_individuals", None),
    ("valueimpact.estimate_value_impact", valueimpact, "estimate_value_impact", _excluded_hook),
    ("search.search_optimal_set", search, "search_optimal_set", _search_hook),
    ("selectors.select_retrieval", selectors, "select_retrieval", None),
)

# Called too often for a span to be cheap next to the call itself: counted.
COUNTED = (
    ("backends.scripted_step.calls", backends, "scripted_step"),
    ("outcome.reward.calls", outcome, "reward"),
)

# Every per-layer metric: name, unit, which direction is better.
PER_LAYER = (
    *((f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS),
    ("cli.self_s", "s", "lower"),
    *(
        (f"core.{f}.{stat}", unit, "lower")
        for f in ("load_dialogues", "dump_dialogues", "load_exemplars", "dump_exemplars")
        for stat, unit in (("s", "s"), ("records", "count"))
    ),
    ("simulation.simulate.calls", "count", "lower"),
    ("simulation.simulate.s", "s", "lower"),
    ("simulation.rollout_to_first_violation.calls", "count", "lower"),
    ("simulation.rollout_to_first_violation.s", "s", "lower"),
    ("simulation.continue_rollout.calls", "count", "lower"),
    ("simulation.continue_rollout.s", "s", "lower"),
    ("simulation.continue_rollout.turns", "count", "lower"),
    ("simulation.moderator_end.calls", "count", "lower"),
    ("backends.scripted_step.calls", "count", "lower"),
    ("backends.chat.calls", "count", "lower"),
    ("backends.chat.s", "s", "lower"),
    ("backends.chat.hits", "count", "higher"),
    ("backends.chat.misses", "count", "lower"),
    ("backends.chat.hit_ratio", "ratio", "higher"),
    ("backends.chat.failed", "count", "lower"),
    ("backends.chat.hit_s", "s", "lower"),
    ("backends.chat.miss_s", "s", "lower"),
    ("prompts.render.calls", "count", "lower"),
    ("prompts.render.s", "s", "lower"),
    ("prompts.render_conversation.calls", "count", "lower"),
    ("prompts.render_conversation.s", "s", "lower"),
    ("remediate.remediate.calls", "count", "lower"),
    ("remediate.remediate.s", "s", "lower"),
    ("remediate.silver_annotate.s", "s", "lower"),
    ("remediate.silver_annotate.exemplars", "count", "higher"),
    ("outcome.evaluate_corpus.s", "s", "lower"),
    ("outcome.assess_outcome.calls", "count", "lower"),
    ("outcome.assess_outcome.s", "s", "lower"),
    ("outcome.reward.calls", "count", "lower"),
    ("valueimpact.build_probe_set.s", "s", "lower"),
    ("valueimpact.rank_individuals.s", "s", "lower"),
    ("valueimpact.estimate_value_impact.calls", "count", "lower"),
    ("valueimpact.estimate_value_impact.s", "s", "lower"),
    ("valueimpact.rollouts_per_impact_eval", "count", "lower"),
    ("valueimpact.excluded_points", "count", "lower"),
    ("valueimpact.unique_rollout_ratio", "ratio", "higher"),
    ("search.search_optimal_set.s", "s", "lower"),
    ("search.search_optimal_set.self_s", "s", "lower"),
    ("search.evaluations", "count", "lower"),
    ("search.prunings", "count", "higher"),
    ("search.rollouts", "count", "lower"),
    ("selectors.embed.calls", "count", "lower"),
    ("selectors.embed.s", "s", "lower"),
    ("selectors.embed.chars", "count", "lower"),
    ("selectors.select_retrieval.s", "s", "lower"),
    ("selectors.select_retrieval.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


class Tracer:
    """In-memory spans and counts for one pass of a workload.

    A span is (id, name, start, end, parent id, run id, ok). Parents follow
    the call stack of each thread; work the CLI hands to its thread pool is
    parented to the span that submitted it.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.rollout_keys: set = set()
        self.lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, n: int = 1) -> None:
        with self.lock:
            self.counts[key] += n

    def spanned(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.run_id, ok))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(key)
            return fn(*args, **kwargs)

        return wrapper

    # -- installing and removing the wrappers ---------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, fn, wrapper) -> None:
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        for name, mod, attr, hook in SPANNED:
            fn = getattr(mod, attr)
            self._patch_everywhere(fn, self.spanned(name, fn, hook))
        for key, mod, attr in COUNTED:
            fn = getattr(mod, attr)
            self._patch_everywhere(fn, self.counted(key, fn))

        embed = selectors.HashedNgramEmbedder.embed
        self._patch(
            selectors.HashedNgramEmbedder, "embed",
            self.spanned("selectors.embed", embed,
                         lambda t, a, k, r: t.add("selectors.embed.chars", len(_arg(a, k, 1, "text")))),
        )
        # A chat span with a transport child reached the stub: a cache miss.
        self._patch(StubTransport, "__call__", self.spanned("stub.transport", StubTransport.__call__))

        commands = dict(cli._COMMANDS)
        for c in CLI_COMMANDS:
            commands[c] = self.spanned(f"cli.{c}", cli._COMMANDS[c])
        self._patch(cli, "_COMMANDS", commands)

        tracer = self

        class ParentingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer.stack()
                parent = stack[-1] if stack else None

                def run(*a, **k):
                    own = tracer.stack()
                    depth = len(own)
                    if parent is not None:
                        own.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        del own[depth:]

                return super().submit(run, *args, **kwargs)

        self._patch(cli, "ThreadPoolExecutor", ParentingExecutor)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for sid, name, start, end, parent, run_id, ok in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "run": run_id, "ok": ok}))
                f.write("\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, except the tracing overhead."""
        spans = self.spans
        by_id = {s[0]: s for s in spans}
        by_name: dict[str, list] = defaultdict(list)
        children: dict[int, list] = defaultdict(list)
        for s in spans:
            by_name[s[1]].append(s)
            if s[4] is not None:
                children[s[4]].append(s)

        def busy(name: str) -> float:
            return sum(s[3] - s[2] for s in by_name[name])

        def self_time(span) -> float:
            # Children of one span may overlap (thread pool): subtract their union.
            covered, edge = 0.0, span[2]
            for _, _, start, end, *_ in sorted(children[span[0]], key=lambda c: c[2]):
                start, end = max(start, edge), min(end, span[3])
                if end > start:
                    covered += end - start
                    edge = end
            return span[3] - span[2] - covered

        def under(span, name: str) -> bool:
            parent = span[4]
            while parent is not None:
                p = by_id[parent]
                if p[1] == name:
                    return True
                parent = p[4]
            return False

        m: dict[str, float] = {}
        for c in CLI_COMMANDS:
            m[f"cli.{c}.s"] = busy(f"cli.{c}")
        m["cli.self_s"] = sum(self_time(s) for s in spans if s[1].startswith("cli."))
        for name, *_ in SPANNED:
            m[f"{name}.calls"] = len(by_name[name])
            m[f"{name}.s"] = busy(name)
        m["selectors.embed.calls"] = len(by_name["selectors.embed"])
        m["selectors.embed.s"] = busy("selectors.embed")
        m.update(self.counts)

        chat = by_name["backends.chat"]
        missed = {s[4] for s in by_name["stub.transport"]}
        misses = [s for s in chat if s[0] in missed]
        hits = [s for s in chat if s[6] and s[0] not in missed]
        m["backends.chat.hits"] = len(hits)
        m["backends.chat.misses"] = len(misses)
        m["backends.chat.hit_ratio"] = len(hits) / len(chat) if chat else 0.0
        m["backends.chat.failed"] = sum(1 for s in chat if not s[6])
        m["backends.chat.hit_s"] = sum(s[3] - s[2] for s in hits)
        m["backends.chat.miss_s"] = sum(s[3] - s[2] for s in misses)

        rollouts = by_name["simulation.continue_rollout"]
        evals = len(by_name["valueimpact.estimate_value_impact"])
        in_evals = sum(1 for s in rollouts if under(s, "valueimpact.estimate_value_impact"))
        m["valueimpact.rollouts_per_impact_eval"] = in_evals / evals if evals else 0.0
        m["valueimpact.unique_rollout_ratio"] = len(self.rollout_keys) / len(rollouts) if rollouts else 0.0
        m["search.search_optimal_set.self_s"] = sum(
            self_time(s) for s in by_name["search.search_optimal_set"]
        )
        m["search.rollouts"] = sum(1 for s in rollouts if under(s, "search.search_optimal_set"))
        m["selectors.select_retrieval.self_s"] = sum(
            self_time(s) for s in by_name["selectors.select_retrieval"]
        )
        m["trace.spans"] = len(spans)

        wanted = {name for name, _, _ in PER_LAYER} - {"trace.overhead_s"}
        return {k: float(m.get(k, 0.0)) for k in sorted(wanted)}
