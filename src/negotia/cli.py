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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

from .backends import BackendError, BackendSession, ScriptedWorld, derive_seed
from .core import (
    CorpusError,
    Dialogue,
    Exemplar,
    PriceBounds,
    Speaker,
    Turn,
    dialogue_to_obj,
    dump_dialogues,
    dump_exemplars,
    load_dialogues,
    load_exemplars,
    turns_from_objs,
)
from .outcome import RewardWeights, evaluate_corpus
from .prompts import TemplateError, TemplateStore
from .remediate import RemediationPolicy, remediate, silver_annotate
from .search import ImpactFn, search_optimal_set, split_candidates
from .selectors import HashedNgramEmbedder, select_random, select_retrieval
from .simulation import SimulationConfig, play, simulate
from .valueimpact import build_probe_set, make_impact_fn, make_scripted_rollout_fn, rank_individuals

__all__ = ["main", "run"]

DEFAULT_BOUNDS = PriceBounds(cost_price=3500, seller_init=5000, buyer_init=3000)


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class Written:
    """What a subcommand wrote; the manifest sits beside the first output."""

    outputs: list[Path]
    config: dict
    counts: dict
    inputs: tuple[Path, ...] = ()
    base_seed: int = 0


def _write_manifest(command: str, started: float, written: Written) -> None:
    def digests(paths) -> dict:
        return {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths if p.exists()}

    manifest = {
        "command": command,
        "config": written.config,
        "base_seed": written.base_seed,
        "started_at": started,
        "finished_at": time.time(),
        "inputs": digests(written.inputs),
        "outputs": digests(written.outputs),
        "counts": written.counts,
    }
    manifest_path = Path(str(written.outputs[0]) + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")


def _write_json(path: str, obj) -> Path:
    out = Path(path)
    out.write_text(json.dumps(obj, indent=2), encoding="utf-8")
    return out


def _read_object(path: str, **required: type) -> dict:
    """A JSON file holding one object whose named keys have the given types."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CorpusError(f"{path}: expected a JSON object")
    for key, kind in required.items():
        if not isinstance(obj.get(key), kind):
            raise CorpusError(f"{path}: {key!r} must be a JSON {'array' if kind is list else 'string'}")
    return obj


def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    if not Path(path).exists():
        raise UsageError(f"config file not found: {path}")
    return _read_object(path)


def _setting(args: argparse.Namespace, cfg: dict, name: str, default):
    """Flag > config file > default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    return cfg.get(name, default)


def _scripted_world(cfg: dict) -> ScriptedWorld:
    """The config's "world" over ScriptedWorld's defaults; an unknown key is a usage error."""
    w = dict(cfg.get("world", {}))
    bounds = w.pop("bounds", {})
    default = ScriptedWorld(bounds=DEFAULT_BOUNDS)
    for section, given, base in (("world", w, default), ("world.bounds", bounds, DEFAULT_BOUNDS)):
        unknown = sorted(set(given) - {f.name for f in fields(base)})
        if unknown:
            raise UsageError(f"unknown {section} key: {', '.join(unknown)}")
    return replace(
        default,
        bounds=replace(DEFAULT_BOUNDS, **{k: int(v) for k, v in bounds.items()}),
        **{k: type(getattr(default, k))(v) for k, v in w.items()},
    )


def _backend_session(args: argparse.Namespace, cfg: dict) -> tuple[BackendSession, Optional[TemplateStore]]:
    """The agents' session, and the prompt templates only a remote one renders."""
    if _setting(args, cfg, "backend", "scripted") == "scripted":
        return BackendSession(kind="scripted"), None
    api_base = _setting(args, cfg, "api_base", None)
    model = _setting(args, cfg, "model", None)
    if not api_base or not model:
        raise UsageError("remote backend requires --api-base and --model")
    cache_dir = _setting(args, cfg, "cache_dir", None)
    session = BackendSession(
        kind="remote",
        endpoint=api_base,
        model_name=model,
        cache_dir=Path(cache_dir) if cache_dir else None,
    )
    return session, TemplateStore(Path(args.prompts_dir) if args.prompts_dir else None)


def _from_pool(pool: list[Exemplar], ids: list, what: str) -> tuple[Exemplar, ...]:
    """The exemplars the ids name, in their order; an id not in the pool is a usage error."""
    by_id = {e.id: e for e in pool}
    missing = [str(i) for i in ids if not isinstance(i, str) or i not in by_id]
    if missing:
        raise UsageError(f"{what} not in pool: {', '.join(missing)}")
    return tuple(by_id[i] for i in ids)


def _load_set(pool_path: str, set_path: str) -> tuple[Exemplar, ...]:
    """The exemplars a set file names, in its order, looked up in a pool file."""
    members = _read_object(set_path, members=list)["members"]
    return _from_pool(load_exemplars(pool_path), members, "set members")


# ---------------------------------------------------------------------------
# Subcommands: each returns what it wrote, or None when it writes no file.


def _cmd_simulate(args: argparse.Namespace, cfg: dict) -> Written:
    seed = int(_setting(args, cfg, "seed", 0))
    n = int(_setting(args, cfg, "n", 10))
    p_c = float(_setting(args, cfg, "p_c", 0.4))
    remediation = _setting(args, cfg, "remediate", "off") == "on"
    workers = int(_setting(args, cfg, "workers", 1))
    out = Path(args.out)

    world = _scripted_world(cfg)
    session, templates = _backend_session(args, cfg)

    remediator = None
    if remediation:
        exemplars = _load_set(args.pool, args.set) if args.pool and args.set else ()
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

    with ThreadPoolExecutor(max_workers=workers) as pool_exec:
        dialogues = list(pool_exec.map(one, range(n)))

    dump_dialogues(dialogues, out)
    snapshot = {
        "seed": seed,
        "n": n,
        "p_c": p_c,
        "remediate": remediation,
        "backend": session.kind,
        "workers": workers,
        "world": asdict(world),
    }
    return Written([out], snapshot, {"rollouts": n}, base_seed=seed)


def _cmd_annotate(args: argparse.Namespace, cfg: dict) -> Written:
    corpus = load_dialogues(args.infile)
    session, templates = _backend_session(args, cfg)
    pool = silver_annotate(corpus, session, templates)
    out = Path(args.out)
    dump_exemplars(pool, out)
    snapshot = {"backend": session.kind, "in": args.infile}
    return Written([out], snapshot, {"exemplars": len(pool)}, (Path(args.infile),))


def _impact_fn(
    args: argparse.Namespace, cfg: dict, seed: int, pool: list[Exemplar]
) -> tuple[ImpactFn, int]:
    """The value impact of pool id sets over one probe set, and its size."""
    world = _scripted_world(cfg)
    session = BackendSession(kind="scripted")
    sim_cfg = SimulationConfig(p_c=float(_setting(args, cfg, "p_c", 0.6)), seed=seed)
    rollout_fn = make_scripted_rollout_fn(world, sim_cfg, RewardWeights())
    silver = RemediationPolicy(exemplars=(), backend=session)
    probe = build_probe_set(world, sim_cfg, int(_setting(args, cfg, "probe_size", 8)), silver, rollout_fn)
    return make_impact_fn(pool, probe, session, rollout_fn), len(probe)


def _cmd_filter(args: argparse.Namespace, cfg: dict) -> Written:
    seed = int(_setting(args, cfg, "seed", 0))
    pool = load_exemplars(args.pool)
    impact_fn, probe_size = _impact_fn(args, cfg, seed, pool)
    ranked = rank_individuals(pool, int(args.sample), impact_fn, sample_seed=seed)
    out = _write_json(args.out, [{"id": eid, "value_impact": v} for eid, v in ranked])
    snapshot = {"seed": seed, "sample": int(args.sample), "probe_size": probe_size}
    return Written([out], snapshot, {"ranked": len(ranked)}, (Path(args.pool),), seed)


def _cmd_search(args: argparse.Namespace, cfg: dict) -> Written:
    seed = int(_setting(args, cfg, "seed", 0))
    k = int(_setting(args, cfg, "k", 8))
    m = int(_setting(args, cfg, "m", 2))
    pool = load_exemplars(args.pool)
    ranked_objs = json.loads(Path(args.ranked).read_text(encoding="utf-8"))
    ranked = [(o["id"], o["value_impact"]) for o in ranked_objs]
    _from_pool(pool, [eid for eid, _ in ranked], "ranked ids")
    s_init, s_cand = split_candidates(ranked, k)

    impact_fn, probe_size = _impact_fn(args, cfg, seed, pool)
    best, trace = search_optimal_set(s_init, s_cand, impact_fn, m)
    outputs = [_write_json(args.out, {"members": list(best.members), "value_impact": best.value_impact})]
    if args.trace:
        trace_obj = {
            "evaluations": [asdict(ev) for ev in trace.evaluations],
            "pruning_events": [asdict(pe) for pe in trace.pruning_events],
            "best": {"members": list(best.members), "impact": best.value_impact},
        }
        outputs.append(_write_json(args.trace, trace_obj))
    snapshot = {"seed": seed, "k": k, "m": m, "probe_size": probe_size}
    counts = {"evaluations": len(trace.evaluations), "prunings": len(trace.pruning_events)}
    return Written(outputs, snapshot, counts, (Path(args.pool), Path(args.ranked)), seed)


def _cmd_select(args: argparse.Namespace, cfg: dict) -> Written:
    seed = int(_setting(args, cfg, "seed", 0))
    k = int(_setting(args, cfg, "k", 8))
    pool = load_exemplars(args.pool)
    if args.strategy == "random":
        chosen = select_random(pool, k, seed)
    else:  # retrieval; argparse admits no other strategy
        if not args.query:
            raise UsageError("retrieval strategy requires --query")
        query_text = _read_object(args.query, text=str)["text"]
        chosen = select_retrieval(pool, query_text, k, HashedNgramEmbedder())
    out = _write_json(args.out, {"members": list(chosen.members)})
    snapshot = {"strategy": args.strategy, "k": k, "seed": seed}
    return Written([out], snapshot, {"selected": k}, (Path(args.pool),), seed)


def _cmd_remediate(args: argparse.Namespace, cfg: dict) -> None:
    exemplars = _load_set(args.pool, args.set)
    query = _read_object(args.infile, history=list, violation_text=str)
    history = turns_from_objs(query["history"])
    session, templates = _backend_session(args, cfg)
    policy = RemediationPolicy(exemplars=exemplars, backend=session)
    print(remediate(policy, history, query["violation_text"], templates))


def _cmd_evaluate(args: argparse.Namespace, cfg: dict) -> Written:
    corpus = load_dialogues(args.infile)
    scored = [d for d in corpus if d.outcome is not None]
    excluded = [d.id for d in corpus if d.outcome is None]
    # With no outcome at all, evaluate_corpus names the dialogues in its error.
    report = evaluate_corpus(scored or corpus)
    out = _write_json(args.report, asdict(report))
    counts = {"dialogues": report.n, "excluded": len(excluded), "excluded_ids": excluded[:5]}
    return Written([out], {"in": args.infile}, counts, (Path(args.infile),))


def _ask(prompt: str) -> str:
    """One stripped line of input; end of input reads as '/quit'."""
    try:
        return input(prompt).strip()
    except EOFError:
        return "/quit"


def _cmd_interactive(args: argparse.Namespace, cfg: dict) -> Written:
    role = Speaker(args.role)
    world = _scripted_world(cfg)
    policy = RemediationPolicy(exemplars=(), backend=BackendSession(kind="scripted"))
    choices: list[dict] = []
    shown = 0  # turns already on screen

    print(f"You are the {role.value}. Type your utterance; '/quit' ends the session.")
    if role is Speaker.SELLER:
        print("Prefix a line with '/flag ' to mark a potential norm violation.")

    def show(turns: tuple[Turn, ...]) -> None:
        for t in turns[shown:]:
            print(f"{t.speaker.value}: {t.text}")

    def speak(turns: tuple[Turn, ...]) -> Optional[Turn]:
        nonlocal shown
        show(turns)
        shown = len(turns) + 1  # the player's own line is not echoed
        while True:
            line = _ask(f"{role.value}> ")
            if line == "/quit":
                return None
            if line == "/flag" or line.startswith("/flag "):
                raw = line[len("/flag") :].strip()
                if role is not Speaker.SELLER:
                    print("only seller lines can be flagged; type your line again")
                elif not raw:
                    print("'/flag' needs the line to flag after it; type your line again")
                else:
                    break
            elif line:
                return Turn(speaker=role, text=line)
        rewrite = remediate(policy, turns, raw)
        print(f"proposed remediation: {rewrite}")
        accepted = _ask("accept remediation? [y/n] ").lower().startswith("y")
        choices.append({"original": raw, "remediation": rewrite, "accepted": accepted})
        if accepted:
            return Turn(speaker=role, text=rewrite, violation=True, original_text=raw)
        return Turn(speaker=role, text=raw, violation=True)

    d = play(world, role, speak, int(cfg.get("max_turns", 20)))
    show(d.turns)
    flags = len(choices)
    accepted = sum(1 for c in choices if c["accepted"])
    if flags:
        print(f"acceptance rate: {accepted}/{flags} = {accepted / flags:.2f}")

    out = Path(args.out)
    record = dialogue_to_obj(d)
    record["interactive_choices"] = choices
    out.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    snapshot = {"role": role.value, "world": asdict(world)}
    return Written([out], snapshot, {"turns": len(d.turns), "flags": flags, "accepted": accepted})


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

    # filter and search score exemplars over the same kind of probe set.
    probed = argparse.ArgumentParser(add_help=False)
    probed.add_argument("--pool", required=True)
    probed.add_argument("--probe-size", dest="probe_size", type=int, default=None)
    probed.add_argument("--p-c", dest="p_c", type=float, default=None)
    probed.add_argument("--seed", type=int, default=None)
    probed.add_argument("--out", required=True)

    p = sub.add_parser("filter", parents=[probed])
    p.add_argument("--sample", type=int, required=True)

    p = sub.add_parser("search", parents=[probed])
    p.add_argument("--ranked", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
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
        started = time.time()
        written = _COMMANDS[args.command](args, cfg)
        if written is not None:
            _write_manifest(args.command, started, written)
        return 0
    except (
        UsageError, CorpusError, BackendError, TemplateError, OSError, RuntimeError, ValueError, KeyError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
