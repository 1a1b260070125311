"""Command-line orchestration: subcommands, run manifests, and the
interactive human-in-the-loop session.

Configuration precedence: flags override config-file values, which override
built-in defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from .backends import BackendSession, ScriptedWorld, derive_seed
from .core import (
    CorpusError,
    Dialogue,
    Exemplar,
    PriceBounds,
    Speaker,
    Topic,
    Turn,
    dump_dialogues,
    dump_exemplars,
    load_dialogues,
    load_exemplars,
    _dialogue_to_obj,
    _turn_from_obj,
)
from .outcome import RewardWeights, evaluate_corpus
from .prompts import TemplateStore
from .remediate import RemediationPolicy, remediate, silver_annotate
from .search import search_optimal_set, split_candidates
from .selectors import HashedNgramEmbedder, select_random, select_retrieval
from .simulation import BUYER_OPENER, SimulationConfig, simulate
from .valueimpact import (
    build_probe_set,
    estimate_value_impact,
    make_scripted_rollout_fn,
    rank_individuals,
)

__all__ = ["main", "run"]

DEFAULT_BOUNDS = PriceBounds(cost_price=3500, seller_init=5000, buyer_init=3000)


class UsageError(Exception):
    pass


def _digest_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(
    command: str,
    out_path: Path,
    config_snapshot: dict,
    base_seed: int,
    started: float,
    inputs: list[Path],
    outputs: list[Path],
    counts: dict,
) -> None:
    manifest = {
        "command": command,
        "config": config_snapshot,
        "base_seed": base_seed,
        "started_at": started,
        "finished_at": time.time(),
        "inputs": {str(p): _digest_file(Path(p)) for p in inputs if Path(p).exists()},
        "outputs": {str(p): _digest_file(Path(p)) for p in outputs if Path(p).exists()},
        "counts": counts,
    }
    manifest_path = Path(str(out_path) + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")


def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    return json.loads(p.read_text(encoding="utf-8"))


def _setting(args: argparse.Namespace, cfg: dict, name: str, default):
    """Flag > config file > default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg:
        return cfg[name]
    return default


def _scripted_world(cfg: dict) -> ScriptedWorld:
    w = cfg.get("world", {})
    bounds = w.get("bounds", {})
    return ScriptedWorld(
        bounds=PriceBounds(
            cost_price=int(bounds.get("cost_price", DEFAULT_BOUNDS.cost_price)),
            seller_init=int(bounds.get("seller_init", DEFAULT_BOUNDS.seller_init)),
            buyer_init=int(bounds.get("buyer_init", DEFAULT_BOUNDS.buyer_init)),
        ),
        concession_buyer=float(w.get("concession_buyer", 0.3)),
        concession_seller=float(w.get("concession_seller", 0.3)),
        goodwill=float(w.get("goodwill", 2.0)),
        max_rounds=int(w.get("max_rounds", 12)),
        close_tolerance=int(w.get("close_tolerance", 50)),
    )


def _backend_session(args: argparse.Namespace, cfg: dict, kind: str) -> BackendSession:
    if kind == "scripted":
        return BackendSession(kind="scripted")
    api_base = _setting(args, cfg, "api_base", None)
    model = _setting(args, cfg, "model", None)
    if not api_base or not model:
        raise UsageError("remote backend requires --api-base and --model")
    cache_dir = _setting(args, cfg, "cache_dir", None)
    return BackendSession(
        kind="remote",
        endpoint=api_base,
        model_name=model,
        cache_dir=Path(cache_dir) if cache_dir else None,
    )


def _resolve_set(pool: list[Exemplar], member_ids: list[str]) -> tuple[Exemplar, ...]:
    by_id = {e.id: e for e in pool}
    missing = [m for m in member_ids if m not in by_id]
    if missing:
        raise UsageError(f"set members not in pool: {', '.join(missing)}")
    return tuple(by_id[m] for m in member_ids)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args: argparse.Namespace, cfg: dict) -> int:
    started = time.time()
    seed = int(_setting(args, cfg, "seed", 0))
    n = int(_setting(args, cfg, "n", 10))
    p_c = float(_setting(args, cfg, "p_c", 0.4))
    remediation = _setting(args, cfg, "remediate", "off") == "on"
    backend_kind = _setting(args, cfg, "backend", "scripted")
    workers = int(_setting(args, cfg, "workers", 1))
    out = Path(args.out)

    world = _scripted_world(cfg)
    templates = TemplateStore(Path(args.prompts_dir) if args.prompts_dir else None)
    session = _backend_session(args, cfg, backend_kind)

    remediator = None
    if remediation:
        exemplars: tuple[Exemplar, ...] = ()
        if args.pool and args.set:
            pool = load_exemplars(args.pool)
            member_ids = json.loads(Path(args.set).read_text(encoding="utf-8"))["members"]
            exemplars = _resolve_set(pool, member_ids)
        policy = RemediationPolicy(exemplars=exemplars, backend=session)
        remediator = lambda hist, text: remediate(policy, hist, text, templates)  # noqa: E731

    def one(i: int) -> Dialogue:
        config = SimulationConfig(
            p_c=p_c,
            remediation_enabled=remediation,
            max_turns=int(cfg.get("max_turns", 20)),
            seed=derive_seed(seed, "rollout", i),
        )
        return simulate(
            session,
            session,
            session,
            config,
            templates,
            remediator=remediator,
            evaluator=session,
            world=world,
            bounds=world.bounds,
            dialogue_id=f"sim-{i}",
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool_exec:
            dialogues = list(pool_exec.map(one, range(n)))
    else:
        dialogues = [one(i) for i in range(n)]

    dump_dialogues(dialogues, out)
    snapshot = {
        "seed": seed,
        "n": n,
        "p_c": p_c,
        "remediate": remediation,
        "backend": backend_kind,
        "workers": workers,
        "world": asdict(world),
    }
    _write_manifest(
        "simulate", out, snapshot, seed, started, [], [out], {"rollouts": n}
    )
    return 0


def _cmd_annotate(args: argparse.Namespace, cfg: dict) -> int:
    started = time.time()
    corpus = load_dialogues(args.infile)
    backend_kind = _setting(args, cfg, "backend", "scripted")
    session = _backend_session(args, cfg, backend_kind)
    templates = TemplateStore(Path(args.prompts_dir) if args.prompts_dir else None)
    pool = silver_annotate(corpus, session, templates)
    out = Path(args.out)
    dump_exemplars(pool, out)
    _write_manifest(
        "annotate",
        out,
        {"backend": backend_kind, "in": args.infile},
        0,
        started,
        [Path(args.infile)],
        [out],
        {"exemplars": len(pool)},
    )
    return 0


def _probe_and_rollout(args: argparse.Namespace, cfg: dict, seed: int):
    world = _scripted_world(cfg)
    session = BackendSession(kind="scripted")
    weights = RewardWeights()
    sim_cfg = SimulationConfig(p_c=float(_setting(args, cfg, "p_c", 0.6)), seed=seed)
    silver = RemediationPolicy(exemplars=(), backend=session)
    probe = build_probe_set(world, sim_cfg, int(args.probe_size), silver)
    rollout_fn = make_scripted_rollout_fn(world, sim_cfg, weights)
    return world, session, probe, rollout_fn


def _cmd_filter(args: argparse.Namespace, cfg: dict) -> int:
    started = time.time()
    seed = int(_setting(args, cfg, "seed", 0))
    pool = load_exemplars(args.pool)
    _world, session, probe, rollout_fn = _probe_and_rollout(args, cfg, seed)
    ranked = rank_individuals(
        pool, int(args.sample), probe, session, rollout_fn, sample_seed=seed
    )
    out = Path(args.out)
    out.write_text(
        json.dumps([{"id": eid, "value_impact": v} for eid, v in ranked], indent=2),
        encoding="utf-8",
    )
    snapshot = {"seed": seed, "sample": int(args.sample), "probe_size": int(args.probe_size)}
    _write_manifest(
        "filter", out, snapshot, seed, started, [Path(args.pool)], [out], {"ranked": len(ranked)}
    )
    return 0


def _cmd_search(args: argparse.Namespace, cfg: dict) -> int:
    started = time.time()
    seed = int(_setting(args, cfg, "seed", 0))
    k = int(_setting(args, cfg, "k", 8))
    m = int(_setting(args, cfg, "m", 2))
    pool = load_exemplars(args.pool)
    ranked_objs = json.loads(Path(args.ranked).read_text(encoding="utf-8"))
    ranked = [(o["id"], o["value_impact"]) for o in ranked_objs]
    s_init, s_cand = split_candidates(ranked, k)

    _world, session, probe, rollout_fn = _probe_and_rollout(args, cfg, seed)
    by_id = {e.id: e for e in pool}

    def impact_fn(members: tuple[str, ...]) -> float:
        policy = RemediationPolicy(
            exemplars=tuple(by_id[mid] for mid in members), backend=session
        )
        return estimate_value_impact(policy, probe, rollout_fn).mean

    best, trace = search_optimal_set(s_init, s_cand, impact_fn, m)
    out = Path(args.out)
    out.write_text(
        json.dumps({"members": list(best.members), "value_impact": best.value_impact}, indent=2),
        encoding="utf-8",
    )
    outputs = [out]
    if args.trace:
        trace_path = Path(args.trace)
        trace_path.write_text(
            json.dumps(
                {
                    "evaluations": [
                        {
                            "members": list(ev.members),
                            "impact": ev.impact,
                            "parent": list(ev.parent) if ev.parent else None,
                            "delta": ev.delta,
                        }
                        for ev in trace.evaluations
                    ],
                    "pruning_events": [
                        {
                            "members": list(pe.members),
                            "position": pe.position,
                            "consecutive_failures": pe.consecutive_failures,
                        }
                        for pe in trace.pruning_events
                    ],
                    "best": {"members": list(trace.best_members), "impact": trace.best_impact},
                },
                indent=2,
            ),
            encoding="utf-8",
        )
        outputs.append(trace_path)
    snapshot = {"seed": seed, "k": k, "m": m, "probe_size": int(args.probe_size)}
    _write_manifest(
        "search",
        out,
        snapshot,
        seed,
        started,
        [Path(args.pool), Path(args.ranked)],
        outputs,
        {"evaluations": len(trace.evaluations), "prunings": len(trace.pruning_events)},
    )
    return 0


def _cmd_select(args: argparse.Namespace, cfg: dict) -> int:
    started = time.time()
    seed = int(_setting(args, cfg, "seed", 0))
    k = int(_setting(args, cfg, "k", 8))
    pool = load_exemplars(args.pool)
    if args.strategy == "random":
        chosen = select_random(pool, k, seed)
    elif args.strategy == "retrieval":
        if not args.query:
            raise UsageError("retrieval strategy requires --query")
        query_obj = json.loads(Path(args.query).read_text(encoding="utf-8"))
        query_text = query_obj["text"] if "text" in query_obj else query_obj["query"]
        chosen = select_retrieval(pool, query_text, k, HashedNgramEmbedder())
    else:
        raise UsageError(f"unknown strategy: {args.strategy}")
    out = Path(args.out)
    out.write_text(json.dumps({"members": list(chosen.members)}, indent=2), encoding="utf-8")
    _write_manifest(
        "select",
        out,
        {"strategy": args.strategy, "k": k, "seed": seed},
        seed,
        started,
        [Path(args.pool)],
        [out],
        {"selected": k},
    )
    return 0


def _cmd_remediate(args: argparse.Namespace, cfg: dict) -> int:
    pool = load_exemplars(args.pool)
    member_ids = json.loads(Path(args.set).read_text(encoding="utf-8"))["members"]
    exemplars = _resolve_set(pool, member_ids)
    query = json.loads(Path(args.infile).read_text(encoding="utf-8"))
    history = tuple(_turn_from_obj(t) for t in query.get("history", []))
    backend_kind = _setting(args, cfg, "backend", "scripted")
    session = _backend_session(args, cfg, backend_kind)
    templates = TemplateStore(Path(args.prompts_dir) if args.prompts_dir else None)
    policy = RemediationPolicy(exemplars=exemplars, backend=session)
    print(remediate(policy, history, query["violation_text"], templates))
    return 0


def _cmd_evaluate(args: argparse.Namespace, cfg: dict) -> int:
    started = time.time()
    corpus = load_dialogues(args.infile)
    report = evaluate_corpus(corpus)
    out = Path(args.report)
    out.write_text(
        json.dumps(
            {
                "success_rate": report.success_rate,
                "mean_deal_value": report.mean_deal_value,
                "trust_improvement_rate": report.trust_improvement_rate,
                "relation_enhancement_rate": report.relation_enhancement_rate,
                "n": report.n,
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    _write_manifest(
        "evaluate",
        out,
        {"in": args.infile},
        0,
        started,
        [Path(args.infile)],
        [out],
        {"dialogues": report.n},
    )
    return 0


def _cmd_interactive(args: argparse.Namespace, cfg: dict) -> int:
    from .backends import BargainState, scripted_step

    role = Speaker(args.role)
    world = _scripted_world(cfg)
    session = BackendSession(kind="scripted")
    templates = TemplateStore(Path(args.prompts_dir) if args.prompts_dir else None)
    policy = RemediationPolicy(exemplars=(), backend=session)

    state = BargainState.initial(world)
    turns: list[Turn] = []
    choices: list[dict] = []
    counterpart = Speaker.SELLER if role is Speaker.BUYER else Speaker.BUYER

    print(f"You are the {role.value}. Type your utterance; prefix with '/flag ' to mark")
    print("a potential norm violation; '/quit' ends the session.")

    def counterpart_turn() -> Optional[str]:
        if state.terminal:
            return None
        return scripted_step(world, state, counterpart.value)

    max_turns = int(cfg.get("max_turns", 20))
    if role is Speaker.SELLER:
        # Buyer opens; keep the scripted opener.
        turns.append(Turn(speaker=Speaker.BUYER, text=BUYER_OPENER))
        print(f"{Speaker.BUYER.value}: {turns[-1].text}")
    while len(turns) < max_turns and not state.terminal:
        if turns and turns[-1].speaker is not role or not turns:
            try:
                line = input(f"{role.value}> ").strip()
            except EOFError:
                break
            if line == "/quit":
                break
            if not line:
                continue
            if line.startswith("/flag "):
                raw = line[len("/flag ") :]
                rewrite = remediate(policy, tuple(turns), raw, templates)
                print(f"proposed remediation: {rewrite}")
                try:
                    pick = input("accept remediation? [y/n] ").strip().lower()
                except EOFError:
                    pick = "n"
                accepted = pick.startswith("y")
                choices.append({"original": raw, "remediation": rewrite, "accepted": accepted})
                if accepted:
                    turns.append(Turn(speaker=role, text=rewrite, violation=True, original_text=raw))
                else:
                    turns.append(Turn(speaker=role, text=raw, violation=True))
            else:
                turns.append(Turn(speaker=role, text=line))
        reply = counterpart_turn()
        if reply is None:
            break
        turns.append(Turn(speaker=counterpart, text=reply))
        print(f"{counterpart.value}: {reply}")

    flags = len(choices)
    accepted = sum(1 for c in choices if c["accepted"])
    if flags:
        print(f"acceptance rate: {accepted}/{flags} = {accepted / flags:.2f}")

    out = Path(args.out)
    d = Dialogue(
        id="interactive-0",
        topic=Topic.PRODUCT_SALE,
        bounds=world.bounds,
        turns=tuple(turns),
    )
    record = _dialogue_to_obj(d)
    record["interactive_choices"] = choices
    out.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="negotia")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--cache-dir", dest="cache_dir", default=None)
    parser.add_argument("--api-base", dest="api_base", default=None)
    parser.add_argument("--model", default=None)
    parser.add_argument("--prompts-dir", dest="prompts_dir", default=None)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p-c", dest="p_c", type=float, default=None)
    p.add_argument("--remediate", default=None, choices=["on", "off"])
    p.add_argument("--backend", default=None, choices=["scripted", "remote"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--pool", default=None)
    p.add_argument("--set", default=None)

    p = sub.add_parser("annotate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--backend", default=None, choices=["scripted", "remote"])

    p = sub.add_parser("filter")
    p.add_argument("--pool", required=True)
    p.add_argument("--sample", type=int, required=True)
    p.add_argument("--probe-size", dest="probe_size", type=int, default=8)
    p.add_argument("--p-c", dest="p_c", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("search")
    p.add_argument("--ranked", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--probe-size", dest="probe_size", type=int, default=8)
    p.add_argument("--p-c", dest="p_c", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None)

    p = sub.add_parser("select")
    p.add_argument("--strategy", required=True, choices=["random", "retrieval"])
    p.add_argument("--pool", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--query", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("remediate")
    p.add_argument("--pool", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--backend", default=None, choices=["scripted", "remote"])

    p = sub.add_parser("evaluate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("interactive")
    p.add_argument("--role", required=True, choices=["buyer", "seller"])
    p.add_argument("--out", required=True)

    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "annotate": _cmd_annotate,
    "filter": _cmd_filter,
    "search": _cmd_search,
    "select": _cmd_select,
    "remediate": _cmd_remediate,
    "evaluate": _cmd_evaluate,
    "interactive": _cmd_interactive,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = _load_config_file(args.config)
        return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CorpusError, OSError, RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
