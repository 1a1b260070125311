"""Command-line orchestration: subcommands, run manifests, and the
interactive human-in-the-loop session.

Configuration precedence: flags override config-file values, which override
the parser's defaults; a config key that names a flag is read as its text.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Optional

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
    encodable,
    load_dialogues,
    load_exemplars,
    turns_from_objs,
    write_whole,
)
from .outcome import evaluate_corpus
from .prompts import TemplateError, TemplateStore, render_conversation
from .remediate import RemediationPolicy, remediate, silver_annotate
from .search import ImpactFn, search_optimal_set, split_candidates
from .selectors import HashedNgramEmbedder, select_random, select_retrieval
from .simulation import SimulationConfig, play, simulate
from .valueimpact import ProbeError, build_probe_set, make_impact_fn, make_scripted_rollout_fn, rank_individuals

__all__ = ["main", "run"]

DEFAULT_BOUNDS = PriceBounds(cost_price=3500, seller_init=5000, buyer_init=3000)


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class Written:
    """What a subcommand wrote; the manifest sits beside the first output."""

    outputs: list[Path]
    counts: dict
    inputs: tuple[Path, ...] = ()


# A manifest hashes a file this many bytes at a time, so that it never holds
# a whole corpus or pool.
_HASH_BLOCK = 1 << 20


def _sha256(path: Path) -> Optional[str]:
    """The hex sha256 of a regular file's bytes, or None for any other path,
    such as a FIFO, whose bytes a reader has taken, or a device."""
    if not path.is_file():
        return None
    digest, block = hashlib.sha256(), bytearray(_HASH_BLOCK)
    view = memoryview(block)
    with path.open("rb", buffering=0) as f:
        while n := f.readinto(block):
            digest.update(view[:n])
    return digest.hexdigest()


def _write_manifest(args: argparse.Namespace, started: float, written: Written) -> None:
    if not written.outputs[0].is_file():  # nothing is written beside a FIFO or a device
        return

    def digests(paths) -> dict:
        return {str(p): _sha256(p) for p in paths if p.exists()}

    manifest = {
        "command": args.command,
        "config": vars(args),
        "base_seed": getattr(args, "seed", None),
        "started_at": started,
        "finished_at": time.time(),
        "inputs": digests(written.inputs),
        "outputs": digests(written.outputs),
        "counts": written.counts,
    }
    manifest_path = Path(str(written.outputs[0]) + ".manifest.json")
    # The one setting that is not JSON already is the ScriptedWorld.
    write_whole([json.dumps(manifest, indent=2, sort_keys=True, default=asdict)], manifest_path)


def _write_json(path: str, obj) -> Path:
    write_whole([json.dumps(obj, indent=2)], path)
    return Path(path)


def _read_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
        obj = json.loads(text)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CorpusError(f"{path}: not a UTF-8 JSON file: {exc}") from exc
    if "\\u" in text and not encodable(json.dumps(obj, ensure_ascii=False)):
        raise CorpusError(f"{path}: not a UTF-8 JSON file: an escape decodes to a lone surrogate")
    return obj


def _read_object(path: str, **required: type) -> dict:
    """A JSON file holding one object whose named keys have the given types."""
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise CorpusError(f"{path}: expected a JSON object")
    for key, kind in required.items():
        if not isinstance(obj.get(key), kind):
            raise CorpusError(f"{path}: {key!r} must be a JSON {'array' if kind is list else 'string'}")
    return obj


def _scalar(path: str, key: str, value, kind: type = str):
    """A config value, which must be a JSON string or number, read as a flag
    of type ``kind`` reads its text."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise CorpusError(f"{path}: {key!r} must be a JSON string or number")
    text = str(value)
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"{path}: {key!r} is an invalid {kind.__name__} value: {text!r}") from None


def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    if not Path(path).exists():
        raise UsageError(f"config file not found: {path}")
    cfg = _read_object(path)
    world = cfg.get("world", {})
    if not isinstance(world, dict) or not isinstance(world.get("bounds", {}), dict):
        raise CorpusError(f"{path}: 'world' and its 'bounds' must be JSON objects")
    return cfg


def _with_config(
    parser: argparse.ArgumentParser, argv: list[str], path: Optional[str], cfg: dict
) -> list[str]:
    """argv with each config key that names a flag spliced in as that flag's
    text, ahead of the user's own flags, so that theirs win."""

    def flags(p: argparse.ArgumentParser) -> list[str]:
        return [
            f"{a.option_strings[0]}={_scalar(path, a.dest, cfg[a.dest])}"
            for a in p._actions
            if a.option_strings and not a.required and a.dest in cfg and a.dest not in ("help", "config")
        ]

    # Every top-level flag takes one value, so the first token that is
    # neither a flag nor a flag's value names the command.
    i = 0
    while argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [*flags(parser), *argv[: i + 1], *flags(commands.choices[argv[i]]), *argv[i + 1 :]]


def _bargain(path: str, cfg: dict) -> tuple[ScriptedWorld, int]:
    """The config's "world" over ScriptedWorld's defaults, and its cap on the
    turns of one dialogue, openers included; an unknown key, or a value the
    scripted rules refuse, is a usage error."""
    w = dict(cfg.get("world", {}))
    bounds = w.pop("bounds", {})
    default = ScriptedWorld(bounds=DEFAULT_BOUNDS)
    read = {}
    for section, given, base in (("world", w, default), ("world.bounds", bounds, DEFAULT_BOUNDS)):
        unknown = sorted(set(given) - {f.name for f in fields(base)})
        if unknown:
            raise UsageError(f"unknown {section} key: {', '.join(unknown)}")
        read[section] = {
            k: _scalar(path, f"{section}.{k}", v, type(getattr(base, k))) for k, v in given.items()
        }
    try:
        world = replace(default, bounds=replace(DEFAULT_BOUNDS, **read["world.bounds"]), **read["world"])
        max_turns = _scalar(path, "max_turns", cfg.get("max_turns", SimulationConfig.max_turns), int)
        SimulationConfig(max_turns=max_turns)
    except ValueError as exc:  # a world, bounds or cap the scripted rules refuse
        raise UsageError(f"{path}: {exc}") from None
    return world, max_turns


def _backend_session(args: argparse.Namespace) -> tuple[BackendSession, Optional[TemplateStore]]:
    """The agents' session, and the prompt templates only a remote one renders."""
    if args.backend == "scripted":
        return BackendSession(kind="scripted"), None
    if not args.api_base or not args.model:
        raise UsageError("remote backend requires --api-base and --model")
    if not encodable(args.api_base + args.model):  # argv's non-UTF-8 bytes arrive as lone surrogates
        raise UsageError("--api-base and --model must be UTF-8 text")
    session = BackendSession(
        kind="remote",
        endpoint=args.api_base,
        model_name=args.model,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
    )
    return session, TemplateStore(Path(args.prompts_dir) if args.prompts_dir else None)


def _from_pool(pool: list[Exemplar], ids: list, what: str) -> tuple[Exemplar, ...]:
    """The exemplars the ids name, in their order; an id not in the pool, or repeated, is a usage error."""
    by_id = {e.id: e for e in pool}
    missing = [str(i) for i in ids if not isinstance(i, str) or i not in by_id]
    if missing:
        raise UsageError(f"{what} not in pool: {', '.join(missing)}")
    repeated = sorted(i for i, n in Counter(ids).items() if n > 1)
    if repeated:
        raise UsageError(f"{what} repeated: {', '.join(repeated)}")
    return tuple(by_id[i] for i in ids)


def _load_set(pool_path: str, set_path: str) -> tuple[Exemplar, ...]:
    """The exemplars a set file names, in its order, looked up in a pool file."""
    members = _read_object(set_path, members=list)["members"]
    return _from_pool(load_exemplars(pool_path), members, "set members")


# ---------------------------------------------------------------------------
# Subcommands: each returns what it wrote, or None when it writes no file.


def _cmd_simulate(args: argparse.Namespace) -> Written:
    if (args.pool is None) != (args.set is None):
        raise UsageError("simulate takes --pool and --set together or not at all")
    if args.pool is not None and not args.remediate:
        raise UsageError("simulate takes --pool and --set only with --remediate on")
    session, templates = _backend_session(args)

    remediator = None
    if args.remediate:
        exemplars = _load_set(args.pool, args.set) if args.pool else ()
        policy = RemediationPolicy(exemplars=exemplars, backend=session)
        remediator = lambda hist, text: remediate(policy, hist, text, templates)  # noqa: E731

    def one(i: int) -> Dialogue:
        config = SimulationConfig(
            p_c=args.p_c,
            remediation_enabled=args.remediate,
            max_turns=args.max_turns,
            seed=derive_seed(args.seed, "rollout", i),
        )
        return simulate(
            session,
            session,
            session,
            config,
            templates,
            remediator=remediator,
            evaluator=session,
            world=args.world,
            bounds=args.world.bounds,
            dialogue_id=f"sim-{i}",
        )

    if args.backend == "scripted":  # pure Python: threads would only contend for the GIL
        dialogues = [one(i) for i in range(args.n)]
    else:  # remote calls wait on I/O
        with ThreadPoolExecutor(max_workers=args.workers) as pool_exec:
            dialogues = list(pool_exec.map(one, range(args.n)))

    out = Path(args.out)
    dump_dialogues(dialogues, out)
    return Written([out], {"rollouts": args.n})


def _cmd_annotate(args: argparse.Namespace) -> Written:
    corpus = load_dialogues(args.infile)
    session, templates = _backend_session(args)
    pool = silver_annotate(corpus, session, templates)
    out = Path(args.out)
    dump_exemplars(pool, out)
    return Written([out], {"exemplars": len(pool)}, (Path(args.infile),))


def _impact_fn(args: argparse.Namespace, pool: list[Exemplar]) -> ImpactFn:
    """The value impact of pool id sets over one probe set."""
    session = BackendSession(kind="scripted")
    sim_cfg = SimulationConfig(p_c=args.p_c, max_turns=args.max_turns, seed=args.seed)
    rollout_fn = make_scripted_rollout_fn(args.world, sim_cfg)
    probe = build_probe_set(args.world, sim_cfg, args.probe_size, session, rollout_fn)
    return make_impact_fn(pool, probe, session, rollout_fn)


def _cmd_filter(args: argparse.Namespace) -> Written:
    pool = load_exemplars(args.pool)
    if args.sample > len(pool):
        raise UsageError(f"--sample {args.sample} exceeds the {len(pool)} exemplars in {args.pool}")
    ranked = rank_individuals(pool, args.sample, _impact_fn(args, pool), sample_seed=args.seed)
    out = _write_json(args.out, [{"id": eid, "value_impact": v} for eid, v in ranked])
    return Written([out], {"ranked": len(ranked)}, (Path(args.pool),))


def _cmd_search(args: argparse.Namespace) -> Written:
    pool = load_exemplars(args.pool)
    ranked_objs = _read_json(args.ranked)
    if not isinstance(ranked_objs, list) or not all(
        isinstance(o, dict) and "id" in o and "value_impact" in o for o in ranked_objs
    ):
        raise CorpusError(f"{args.ranked}: expected a JSON array of objects with 'id' and 'value_impact'")
    ranked = [(o["id"], o["value_impact"]) for o in ranked_objs]
    # The file's order is the rank; an impact must still be a number, as filter writes it.
    if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for _, v in ranked):
        raise CorpusError(f"{args.ranked}: every 'value_impact' must be a finite number")
    _from_pool(pool, [eid for eid, _ in ranked], "ranked ids")
    if args.k >= len(ranked):
        raise UsageError(f"--k {args.k} leaves no candidates among the {len(ranked)} ids in {args.ranked}")
    s_init, s_cand = split_candidates(ranked, args.k)

    best, trace = search_optimal_set(s_init, s_cand, _impact_fn(args, pool), args.m)
    outputs = [_write_json(args.out, {"members": list(best.members), "value_impact": best.value_impact})]
    if args.trace:
        trace_obj = {
            "evaluations": [asdict(ev) for ev in trace.evaluations],
            "pruning_events": [asdict(pe) for pe in trace.pruning_events],
            "best": {"members": list(best.members), "impact": best.value_impact},
        }
        outputs.append(_write_json(args.trace, trace_obj))
    counts = {"evaluations": len(trace.evaluations), "prunings": len(trace.pruning_events)}
    return Written(outputs, counts, (Path(args.pool), Path(args.ranked)))


def _cmd_select(args: argparse.Namespace) -> Written:
    if args.query is not None and args.strategy != "retrieval":
        raise UsageError("select takes --query only with --strategy retrieval")
    pool = load_exemplars(args.pool)
    if args.k > len(pool):
        raise UsageError(f"--k {args.k} exceeds the {len(pool)} exemplars in {args.pool}")
    if args.strategy == "random":
        chosen = select_random(pool, args.k, 0 if args.seed is None else args.seed)
    else:  # retrieval; argparse admits no other strategy
        if not args.query:
            raise UsageError("retrieval strategy requires --query")
        query_text = _read_object(args.query, text=str)["text"]
        chosen = select_retrieval(pool, query_text, args.k, HashedNgramEmbedder())
    out = _write_json(args.out, {"members": list(chosen.members)})
    return Written([out], {"selected": args.k}, (Path(args.pool),))


def _cmd_remediate(args: argparse.Namespace) -> None:
    exemplars = _load_set(args.pool, args.set)
    query = _read_object(args.infile, history=list, violation_text=str)
    if not query["violation_text"]:
        raise CorpusError(f"{args.infile}: 'violation_text' must be non-empty")
    try:
        history = turns_from_objs(query["history"])
    except (CorpusError, KeyError, ValueError) as exc:  # KeyError: a turn without a speaker or text
        raise CorpusError(f"{args.infile}: malformed history: {exc}") from None
    session, templates = _backend_session(args)
    policy = RemediationPolicy(exemplars=exemplars, backend=session)
    print(remediate(policy, history, query["violation_text"], templates))


def _cmd_evaluate(args: argparse.Namespace) -> Written:
    corpus = load_dialogues(args.infile)
    scored = [d for d in corpus if d.outcome is not None]
    excluded = [d.id for d in corpus if d.outcome is None]
    # evaluate_corpus scores a non-empty list of dialogues that have outcomes.
    if not corpus:
        raise CorpusError(f"{args.infile}: no dialogues")
    if not scored:
        raise CorpusError(f"{args.infile}: no dialogue has an outcome: {', '.join(excluded[:5])}")
    report = evaluate_corpus(scored)
    out = _write_json(args.report, asdict(report))
    counts = {"dialogues": report.n, "excluded": len(excluded), "excluded_ids": excluded[:5]}
    return Written([out], counts, (Path(args.infile),))


def _ask(prompt: str) -> str:
    """One stripped line of input; end of input reads as '/quit'."""
    try:
        line = input(prompt)
    except EOFError:
        return "/quit"
    except UnicodeDecodeError as exc:
        raise CorpusError(f"standard input: not UTF-8: {exc}") from None
    if not encodable(line):  # a byte UTF-8 cannot decode may arrive as a lone surrogate
        raise CorpusError(f"standard input: not UTF-8: {line!r} holds a lone surrogate")
    return line.strip()


def _cmd_interactive(args: argparse.Namespace) -> Written:
    role = Speaker(args.role)
    policy = RemediationPolicy(exemplars=(), backend=BackendSession(kind="scripted"))
    choices: list[dict] = []
    shown = 0  # turns already on screen

    print(f"You are the {role.value}. Type your utterance; '/quit' ends the session.")
    if role is Speaker.SELLER:
        print("Prefix a line with '/flag ' to mark a potential norm violation.")

    def show(turns: tuple[Turn, ...]) -> None:
        if len(turns) > shown:
            print(render_conversation(turns[shown:]))

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

    d = play(args.world, role, speak, args.max_turns)
    show(d.turns)
    flags = len(choices)
    accepted = sum(1 for c in choices if c["accepted"])
    if flags:
        print(f"acceptance rate: {accepted}/{flags} = {accepted / flags:.2f}")

    out = Path(args.out)
    record = {**dialogue_to_obj(d), "interactive_choices": choices}
    write_whole([json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"], out)
    return Written([out], {"turns": len(d.turns), "flags": flags, "accepted": accepted})


# ---------------------------------------------------------------------------
# Argument parsing


def _on_off(text: str) -> bool:
    """The value of a switch written 'on' or 'off'."""
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from 'on', 'off')")
    return text == "on"


def _ranged(kind: type, within: Callable[..., bool], rule: str) -> Callable[[str], object]:
    """The type of a numeric flag: its text read as ``kind``, in range."""

    def read(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not within(value):
            raise argparse.ArgumentTypeError(f"{rule}, not {text!r}")
        return value

    return read


_count = _ranged(int, lambda v: v >= 1, "must be at least 1")  # a flag that counts something
_probability = _ranged(float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")


def _build_parser() -> argparse.ArgumentParser:
    """Every setting's type, choices and default. Each top-level flag takes
    exactly one value, which `_with_config` relies on. The commands that play
    scripted bargains also carry the config's `world` and `max_turns`, which
    no flag sets."""
    parser = argparse.ArgumentParser(prog="negotia")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--workers", type=_count, default=1)
    parser.add_argument("--cache-dir")
    parser.add_argument("--api-base")
    parser.add_argument("--model")
    parser.add_argument("--prompts-dir")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate")
    p.add_argument("--n", type=_count, default=10)
    p.add_argument("--p-c", type=_probability, default=0.4)
    p.add_argument("--remediate", type=_on_off, default=False, metavar="{on,off}")
    p.add_argument("--backend", default="scripted", choices=["scripted", "remote"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--pool")
    p.add_argument("--set")
    p.set_defaults(world=None, max_turns=None)

    p = sub.add_parser("annotate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--backend", default="scripted", choices=["scripted", "remote"])

    # filter and search score exemplars over the same kind of probe set.
    probed = argparse.ArgumentParser(add_help=False)
    probed.add_argument("--pool", required=True)
    probed.add_argument("--probe-size", type=_count, default=8)
    probed.add_argument("--p-c", type=_probability, default=0.6)
    probed.add_argument("--seed", type=int, default=0)
    probed.add_argument("--out", required=True)
    probed.set_defaults(world=None, max_turns=None)

    p = sub.add_parser("filter", parents=[probed])
    p.add_argument("--sample", type=_count, required=True)

    p = sub.add_parser("search", parents=[probed])
    p.add_argument("--ranked", required=True)
    p.add_argument("--k", type=_count, default=8)
    p.add_argument("--m", type=_count, default=2)
    p.add_argument("--trace")

    p = sub.add_parser("select")
    p.add_argument("--strategy", required=True, choices=["random", "retrieval"])
    p.add_argument("--pool", required=True)
    p.add_argument("--k", type=_count, default=8)
    p.add_argument("--query")
    p.add_argument("--seed", type=int)  # random only; without one it draws from seed 0
    p.add_argument("--out", required=True)

    p = sub.add_parser("remediate")
    p.add_argument("--pool", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--backend", default="scripted", choices=["scripted", "remote"])

    p = sub.add_parser("evaluate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("interactive")
    p.add_argument("--role", required=True, choices=["buyer", "seller"])
    p.add_argument("--out", required=True)
    p.set_defaults(world=None, max_turns=None)

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
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        # The user's own flags, before a config's shared seed joins them.
        if args.command == "select" and args.strategy == "retrieval" and args.seed is not None:
            raise UsageError("select takes --seed only with --strategy random")
        cfg = _load_config_file(args.config)
        args = parser.parse_args(_with_config(parser, argv, args.config, cfg))
        started = time.time()
        if "world" in args:  # a command that plays scripted bargains
            args.world, args.max_turns = _bargain(args.config, cfg)
        written = _COMMANDS[args.command](args)
        if written is not None:
            _write_manifest(args, started, written)
        return 0
    except SystemExit as exc:  # argparse has printed its message
        return 1 if exc.code else 0
    except (UsageError, CorpusError, BackendError, TemplateError, ProbeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
