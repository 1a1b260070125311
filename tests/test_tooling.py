"""Checks over the source tree: the names the benchmark's tracer wraps and
the library calls the benchmark makes must stay, the README's CLI examples
parse, every exported name exists, the package's names are its modules, no
handler may catch every exception, every file opened as text names its
encoding, the CLI reports every exception class the package defines and
nothing else, no module imports a private name of another, only core
tests whether UTF-8 can encode a text, each marker a loader splits a
record line at is one core constant that its writer and loader share,
only the record writers encode turns, only prompts writes a ``speaker:
text`` transcript line, only the bargaining transition writes a bargain
state, only the rollout loop draws the violation coin, only the rollout
loop and continue_rollout loop in simulation, only core.write_whole and
the chat cache entry write a file, no module reads a whole file as bytes,
no scripted line is rendered only to be thrown away, only retrieval loads
numpy, and embed hashes through embed_many."""

from __future__ import annotations

import argparse
import ast
import importlib
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import negotia

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
CATCH_ALL = {"Exception", "BaseException"}


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from negotia import cli, simulation

    commands, continue_rollout = cli._COMMANDS, simulation.continue_rollout
    tracer = spans.Tracer("t")
    # Raises AttributeError if a function or table the tracer wraps is gone.
    tracer.install()
    try:
        assert cli._COMMANDS is not commands
        assert simulation.continue_rollout is not continue_rollout
    finally:
        tracer.uninstall()
    assert cli._COMMANDS is commands
    assert simulation.continue_rollout is continue_rollout


def test_benchmark_tracer_counts_the_rollouts_that_run(monkeypatch, tmp_path):
    # The tracer counts rollouts by wrapping simulation.continue_rollout; the
    # scripted rollout function must call it under that name, or every
    # rollout count reads 0 although the rollouts still run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from negotia import cli

    corpus, pool, ranked = (str(tmp_path / name) for name in ("corpus.jsonl", "pool.jsonl", "ranked.json"))
    assert cli.run(["simulate", "--n", "40", "--seed", "1", "--out", corpus]) == 0
    assert cli.run(["annotate", "--in", corpus, "--out", pool]) == 0
    sample, probe = 3, 4
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        code = cli.run([
            "filter", "--pool", pool, "--sample", str(sample), "--probe-size", str(probe), "--out", ranked,
        ])
    finally:
        tracer.uninstall()
    assert code == 0
    m = tracer.layer_metrics()
    # One rollout per probe point for its silver rewrite, then one per point
    # for each sampled exemplar.
    assert m["simulation.continue_rollout.calls"] == m["outcome.reward.calls"] == probe * (sample + 1)
    assert m["valueimpact.rollouts_per_impact_eval"] == probe


def test_benchmark_library_calls(monkeypatch, tmp_path):
    # The benchmark calls these library functions directly, with these
    # signatures; a change that breaks them would fail every workload.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import stub

    from negotia import backends, prompts, remediate, simulation

    pool = inputs._scripted_pool(0, "t", 4)
    assert len(pool) >= 4

    # One remote dialogue, called as the remote_cached workload calls it.
    templates = prompts.TemplateStore()
    session = backends.BackendSession(
        kind="remote", endpoint="http://stub.invalid/v1", model_name="stub",
        cache_dir=tmp_path, backoff_base=0.0, transport=stub.StubTransport("t"),
    )
    config = simulation.SimulationConfig(p_c=inputs.P_C, remediation_enabled=True, max_turns=20, seed=1)

    def run(session):
        policy = remediate.RemediationPolicy(exemplars=(), backend=session)
        return simulation.simulate(
            session, session, session, config, templates,
            remediator=lambda history, text: remediate.remediate(policy, history, text, templates),
            evaluator=session, bounds=inputs.BOUNDS, dialogue_id="remote-0",
        )

    dialogue = run(session)
    assert dialogue.error is None and dialogue.outcome is not None

    # The warm pass: a rerun through a new session on the same cache is all
    # hits, so it reaches no transport and plays the same dialogue.
    def unreachable(body):
        raise AssertionError("a warm rerun reached the transport")

    assert run(backends.BackendSession(
        kind="remote", endpoint="http://stub.invalid/v1", model_name="stub",
        cache_dir=tmp_path, backoff_base=0.0, transport=unreachable,
    )) == dialogue


def test_readme_cli_examples_parse():
    from negotia import cli

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [
        shlex.split(line)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("negotia ")
    ]
    parser = cli._build_parser()
    # parse_args exits, failing the test, on a flag the parser refuses.
    documented = {parser.parse_args(example[1:]).command for example in examples}
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert documented == set(commands.choices)


def _modules() -> list:
    """The package and each of its modules."""
    return [
        importlib.import_module("negotia" if path.stem == "__init__" else f"negotia.{path.stem}")
        for path in sorted((ROOT / "src" / "negotia").glob("*.py"))
    ]


@pytest.mark.parametrize("module", _modules(), ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    # A removed public name must leave the export lists with it.
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_names_are_its_modules():
    # `from negotia import remediate` and `import negotia.remediate as m` both
    # give the module: the package binds no module member under its own name.
    import negotia

    tree = ast.parse((ROOT / "src" / "negotia" / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        node.module or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for name in imported:
        assert getattr(negotia, name) is importlib.import_module(f"negotia.{name}")
    assert [name for name in negotia.__all__ if not isinstance(getattr(negotia, name), ModuleType)] == []


def _exception_classes() -> list[type]:
    """Every exception class defined under src/negotia, but the rollout's own _Halt."""
    found = []
    for module in _modules():
        found += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__ and obj.__name__ != "_Halt"
        ]
    return found


@pytest.mark.parametrize("exc_class", _exception_classes(), ids=lambda c: c.__name__)
def test_cli_reports_every_package_exception(monkeypatch, capsys, exc_class):
    from negotia import cli

    def fail(args):
        raise exc_class("boom")

    monkeypatch.setitem(cli._COMMANDS, "evaluate", fail)
    code = cli.run(["evaluate", "--in", "in.jsonl", "--report", "r.json"])
    assert code == (1 if exc_class is cli.UsageError else 2)
    assert capsys.readouterr().err == "error: boom\n"


def test_cli_lets_a_value_error_propagate(monkeypatch):
    # Input mistakes are refused as usage or corpus errors before a library
    # check raises ValueError, so a ValueError that reaches the CLI is a bug.
    from negotia import cli

    def fail(args):
        raise ValueError("boom")

    monkeypatch.setitem(cli._COMMANDS, "evaluate", fail)
    with pytest.raises(ValueError, match="boom"):
        cli.run(["evaluate", "--in", "in.jsonl", "--report", "r.json"])


def _catch_all_handlers(source: str) -> list[int]:
    """Line numbers of bare, Exception or BaseException handlers."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(t is None or (isinstance(t, ast.Name) and t.id in CATCH_ALL) for t in caught):
            lines.append(node.lineno)
    return lines


def test_catch_all_detector():
    assert _catch_all_handlers("try:\n    pass\nexcept:\n    pass\n") == [3]
    assert _catch_all_handlers("try:\n    pass\nexcept (ValueError, Exception):\n    pass\n") == [3]
    assert _catch_all_handlers("try:\n    pass\nexcept BaseException as e:\n    pass\n") == [3]
    assert _catch_all_handlers("try:\n    pass\nexcept (KeyError, ValueError):\n    pass\n") == []


def test_no_catch_all_handlers():
    # Only typed failures are contained; a catch-all would turn a bug into a
    # different result (a dropped probe point, a pruned candidate).
    found = {
        path.name: lines
        for path in sorted((ROOT / "src" / "negotia").glob("*.py"))
        if (lines := _catch_all_handlers(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def _locale_decoded_opens(source: str) -> list[int]:
    """Line numbers of open(), .open(), read_text() and write_text() calls
    that pass neither ``encoding=`` nor a binary mode."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else None
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            mode = node.args[0] if node.args else None
        elif isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text"):
            mode = None
        else:
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = keywords.get("mode", mode)
        binary = isinstance(mode, ast.Constant) and isinstance(mode.value, str) and "b" in mode.value
        if "encoding" not in keywords and not binary:
            lines.append(node.lineno)
    return lines


def test_locale_decoded_open_detector():
    assert _locale_decoded_opens("open(p)\nopen(p, 'w')\n") == [1, 2]
    assert _locale_decoded_opens("path.open()\npath.read_text()\npath.write_text(s)\n") == [1, 2, 3]
    assert _locale_decoded_opens("open(p, mode='r')\n") == [1]
    assert _locale_decoded_opens(
        "open(p, encoding='utf-8')\nopen(p, 'rb')\nopen(p, mode='wb')\npath.open('rb')\n"
        "path.open('w', encoding='utf-8')\npath.read_text(encoding='utf-8')\n"
        "path.write_text(s, encoding='utf-8')\npath.read_bytes()\n"
    ) == []


def test_every_text_file_names_its_encoding():
    # A file opened without an encoding is decoded with the locale's, so a
    # cache entry or corpus written on one machine could read differently,
    # or not at all, on another.
    found = {
        path.name: lines
        for path in sorted((ROOT / "src" / "negotia").glob("*.py"))
        if (lines := _locale_decoded_opens(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def _utf8_probes(source: str) -> list[int]:
    """Line numbers of ``.encode(...)`` calls made only to see whether they
    raise (statements whose result is thrown away), and of handlers that
    name ``UnicodeEncodeError``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr):
            call = node.value
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "encode":
                lines.append(node.lineno)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(t, ast.Name) and t.id == "UnicodeEncodeError" for t in caught):
                lines.append(node.lineno)
    return sorted(lines)


def test_utf8_probe_detector():
    assert _utf8_probes("text.encode()\n(a + b).encode('utf-8')\n") == [1, 2]
    assert _utf8_probes("try:\n    pass\nexcept UnicodeEncodeError:\n    pass\n") == [3]
    assert _utf8_probes("try:\n    pass\nexcept (KeyError, UnicodeEncodeError) as e:\n    pass\n") == [3]
    assert _utf8_probes(
        "data = text.encode()\nf(text.encode())\ntry:\n    pass\nexcept (UnicodeDecodeError, ValueError):\n    pass\n"
    ) == []


def test_only_core_tests_utf8_encodability():
    # core.encodable is the package's one test of the rule that every text
    # it reads, writes or sends is UTF-8; a second copy could drift from it.
    found = {
        path.name: lines
        for path in sorted((ROOT / "src" / "negotia").glob("*.py"))
        if (lines := _utf8_probes(path.read_text(encoding="utf-8")))
    }
    assert set(found) == {"core.py"}


# The markers the writers cut or splice a record line at, each with the core
# constant that names it, the writer that goes through it and the loader that
# splits a line at it, if one does.
RECORD_MARKERS = {
    '{"history": [': ("_HISTORY_HEAD", "dump_exemplars", "_split_exemplar"),
    '], "id": ': ("_HISTORY_END", "dump_exemplars", "_split_exemplar"),
    ', "turns": [': ("_TURNS_HEAD", "dump_dialogues", "_split_dialogue"),
    ', "id": ': ("_ID_KEY", "dump_dialogues", None),
}


def _marker_literals(source: str) -> list[int]:
    """Line numbers of string constants that hold a record marker, except
    the one assigned to the marker's own constant."""
    tree = ast.parse(source)
    defining = {
        id(node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        and node.value.value in RECORD_MARKERS and len(node.targets) == 1
        and getattr(node.targets[0], "id", None) == RECORD_MARKERS[node.value.value][0]
    }
    return sorted(
        node.lineno for node in ast.walk(tree)  # an f-string's literal parts are Constant nodes too
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in defining
        and any(marker in node.value for marker in RECORD_MARKERS)
    )


def test_record_marker_detector():
    assert _marker_literals("""_TURNS_HEAD = ', "turns": ['\n_HISTORY_END = '], "id": '\n""") == []
    assert _marker_literals(
        """head = ', "turns": ['\n_HISTORY_END = '{"history": ['\nx = f'{a}], "id": {b}'\n"""
        """_HISTORY_HEAD = _TURNS_HEAD = '{"history": ['\n"""
    ) == [1, 2, 3, 4]
    assert _marker_literals("""x = '"turns": ['\ny = '], "id":'\n""") == []
    # _HISTORY_END holds _ID_KEY's text: each constant may hold its own.
    assert _marker_literals("""_HISTORY_END = '], "id": '\n_ID_KEY = ', "id": '\n""") == []
    assert _marker_literals("""x = ', "id": '\n_ID_KEY = '], "id": '\n_HISTORY_END = ', "id": '\n""") == [1, 2, 3]


def test_each_record_marker_is_one_core_constant():
    # The loaders split the lines the writers write at these markers; a
    # second spelling of one could drift from the other.
    found = {
        path.name: lines
        for path in sorted((ROOT / "src" / "negotia").glob("*.py"))
        if (lines := _marker_literals(path.read_text(encoding="utf-8")))
    }
    assert found == {}
    from negotia import core

    names = {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for node in ast.walk(ast.parse(Path(core.__file__).read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    for marker, (constant, writer, loader) in RECORD_MARKERS.items():
        assert getattr(core, constant) == marker
        assert constant in names[writer] and (loader is None or constant in names[loader])


def _turn_encoder_users(source: str) -> set[str]:
    """The top-level definitions that name ``_turn_encoder`` (as a name, an
    attribute or a string), with ``<module>`` for module-level code."""
    users = set()
    for top in ast.parse(source).body:
        if any(
            (isinstance(n, ast.Name) and n.id == "_turn_encoder")
            or (isinstance(n, ast.Attribute) and n.attr == "_turn_encoder")
            or (isinstance(n, ast.Constant) and n.value == "_turn_encoder")
            for n in ast.walk(top)
        ):
            users.add(getattr(top, "name", "<module>"))
    return users


def test_turn_encoder_user_detector():
    assert _turn_encoder_users("def _turn_encoder():\n    return 1\n") == set()
    assert _turn_encoder_users(
        "def dump(x):\n    return _turn_encoder()(x)\n"
        "class Reader:\n    def f(self):\n        return core._turn_encoder\n"
        "check = getattr(core, '_turn_encoder')\n"
    ) == {"dump", "Reader", "<module>"}
    assert _turn_encoder_users("def load(x):\n    return _turn_decoder()(x)\n") == set()


def test_only_the_record_writers_encode_turns():
    # The loaders read a cut line's two parts as JSON, whatever wrote it; a
    # loader that re-encoded turns to check a line would trust only one writer.
    found = {
        path.name: users
        for path in sorted((ROOT / "src" / "negotia").glob("*.py"))
        if (users := _turn_encoder_users(path.read_text(encoding="utf-8")))
    }
    assert found == {"core.py": {"dump_dialogues", "dump_exemplars"}}


def _speaker_value(node: ast.expr, speakers: set[str]) -> bool:
    """Whether an expression is ``<x>.speaker.value``, ``Speaker.<ROLE>.value``
    or ``<s>.value`` for a name ``s`` in ``speakers``."""
    if not (isinstance(node, ast.Attribute) and node.attr == "value"):
        return False
    owner = node.value
    if isinstance(owner, ast.Name):
        return owner.id in speakers
    return isinstance(owner, ast.Attribute) and (
        owner.attr == "speaker" or (isinstance(owner.value, ast.Name) and owner.value.id == "Speaker")
    )


def _speaker_names(tree: ast.AST) -> set[str]:
    """Names bound by a loop or comprehension over ``Speaker``."""
    return {
        node.target.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name)
        and isinstance(node.iter, ast.Name) and node.iter.id == "Speaker"
    }


def _names_a_speaker(text: str) -> bool:
    return "seller: " in text or "buyer: " in text


def _transcript_lines(source: str) -> list[int]:
    """Line numbers of f-strings that format a speaker's value directly
    followed by ``": "``, and of string constants holding ``seller: `` or
    ``buyer: ``: each writes a ``speaker: text`` transcript line."""
    lines = set()
    tree = ast.parse(source)
    speakers = _speaker_names(tree)
    for node in ast.walk(tree):  # an f-string's literal parts are Constant nodes too
        if isinstance(node, ast.JoinedStr) and any(
            isinstance(a, ast.FormattedValue) and _speaker_value(a.value, speakers)
            and isinstance(b, ast.Constant) and b.value.startswith(": ")
            for a, b in zip(node.values, node.values[1:])
        ):
            lines.add(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _names_a_speaker(node.value):
            lines.add(node.lineno)
    return sorted(lines)


def test_transcript_line_detector():
    assert _transcript_lines('f"{t.speaker.value}: {t.text}"\nf"{Speaker.SELLER.value}: {x}"\n') == [1, 2]
    assert _transcript_lines('x = "seller: hi"\ny = f"{h}\\nbuyer: {x}"\n') == [1, 2]
    assert _transcript_lines('T = {s: f"{s.value}: " for s in Speaker}\nfor r in Speaker:\n    f"{r.value}: "\n') == [1, 3]
    assert _transcript_lines(
        'f"{t.speaker.value}> "\nf"You are the {role.value}: "\nf"{Speaker.SELLER.value}"\n"seller"\n'
        'T = {s: f"{s.value}> " for s in Speaker}\n[f"{c.value}: " for c in roles]\n'
    ) == []


def test_only_prompts_writes_a_transcript_line():
    # Retrieval matches against the same transcript text that prompts and
    # ICL blocks quote; a second writer of the line could drift from it.
    found = {
        path.name: lines
        for path in sorted((ROOT / "src" / "negotia").glob("*.py"))
        if (lines := _transcript_lines(path.read_text(encoding="utf-8")))
    }
    assert set(found) == {"prompts.py"}


def _private_imports(source: str) -> list[str]:
    """Underscore names imported from sibling modules (``from .x import _y``)."""
    return [
        f"{node.module or ''}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_private_import_detector():
    assert _private_imports("from .core import Turn, _turn_to_obj\n") == ["core._turn_to_obj"]
    assert _private_imports("from . import _x\n") == ["._x"]
    assert _private_imports("from .core import Turn\nfrom os import _exit\n") == []


def test_no_private_imports_between_modules():
    # The file formats live behind core's public names; a module that
    # reached past them would have to change with every format change.
    found = {
        path.name: names
        for path in sorted((ROOT / "src" / "negotia").glob("*.py"))
        if (names := _private_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


BARGAIN_FIELDS = {
    "bid", "ask", "goodwill", "terminal", "deal", "pending_ask", "remediation_qualities", "unremediated_violations",
}


def _bargain_state_writes(source: str) -> list[tuple[str, int]]:
    """The enclosing function and line of each store to a ``BargainState``
    field's name and of each ``.append`` or ``.extend`` on one."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            elif isinstance(child, ast.Attribute) and child.attr in BARGAIN_FIELDS and isinstance(child.ctx, ast.Store):
                found.append((where, child.lineno))
            elif (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("append", "extend")
                and isinstance(child.func.value, ast.Attribute) and child.func.value.attr in BARGAIN_FIELDS
            ):
                found.append((where, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_bargain_state_write_detector():
    assert _bargain_state_writes("def f(s):\n    s.bid = 1\n    s.ask += 2\n") == [("f", 2), ("f", 3)]
    assert _bargain_state_writes("class C:\n    def g(self):\n        self.s.deal, x = True, 1\n") == [("C.g", 3)]
    assert _bargain_state_writes("s.remediation_qualities.append(q)\n") == [("", 1)]
    assert _bargain_state_writes(
        "def f(s):\n    x = s.bid\n    s.turns.append(t)\n    g(goodwill=1)\n    s.other = s.ask\n"
    ) == []


def test_only_the_transition_writes_bargain_state():
    # The bargaining rules live in backends.bargain_move, which both the
    # rollout that builds a dialogue and the state-only replay call.
    writers = {
        (path.name, where)
        for path in sorted((ROOT / "src" / "negotia").glob("*.py"))
        for where, _ in _bargain_state_writes(path.read_text(encoding="utf-8"))
    }
    assert ("backends.py", "bargain_move") in writers
    assert writers <= {("backends.py", "bargain_move"), ("backends.py", "BargainState.initial")}


def _coin_draws(source: str) -> set[str]:
    """The top-level definitions that compare a ``.random()`` call with a
    ``.p_c`` attribute, with ``<module>`` for module-level code."""

    def is_draw(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "random"

    def is_p_c(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "p_c"

    users = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(map(is_draw, sides)) and any(map(is_p_c, sides)):
                    users.add(getattr(top, "name", "<module>"))
    return users


def test_coin_draw_detector():
    assert _coin_draws(
        "def a(c):\n    return rng.random() < c.p_c\n"
        "class B:\n    def f(self):\n        return self.config.p_c >= random.random()\n"
        "x = 0 < r.random() < cfg.p_c\n"
    ) == {"a", "B", "<module>"}
    assert _coin_draws(
        "def a(c):\n    return rng.random() < 0.4\n"
        "def b(c):\n    return c.p_c < 1.0\n"
        "def d(c):\n    return random() < c.p_c\n"
        "def e(c):\n    x = rng.random()\n    return x < c.p_c\n"
    ) == set()


def test_only_the_rollout_loop_draws_the_coin():
    # A violation point continues from the bargain recorded at its head; a
    # second copy of the coin rule could drift from the loop that places it.
    found = {
        path.name: users
        for path in sorted((ROOT / "src" / "negotia").glob("*.py"))
        if (users := _coin_draws(path.read_text(encoding="utf-8")))
    }
    assert found == {"simulation.py": {"_rollout"}}


def _loops(source: str) -> set[str]:
    """The top-level definitions that hold a ``for`` or ``while`` statement,
    with ``<module>`` for module-level code."""
    return {
        getattr(top, "name", "<module>")
        for top in ast.parse(source).body
        if any(isinstance(node, (ast.For, ast.AsyncFor, ast.While)) for node in ast.walk(top))
    }


def test_loop_detector():
    assert _loops(
        "def a(n):\n    while n:\n        n -= 1\n"
        "class B:\n    def f(self, xs):\n        for x in xs:\n            pass\n"
        "for i in range(3):\n    pass\n"
    ) == {"a", "B", "<module>"}
    assert _loops("def a(xs):\n    return [x for x in xs]\ndef b(n):\n    return a(range(n))\n") == set()


def test_simulation_has_one_turn_loop():
    # play runs the rollout loop over a player lane; a second turn loop could
    # drift from the first's turn cap, end check and speaker order.
    source = (ROOT / "src" / "negotia" / "simulation.py").read_text(encoding="utf-8")
    assert _loops(source) == {"_rollout", "continue_rollout"}


def _writing_mode(mode: ast.expr | None) -> bool:
    """Whether an ``open`` mode may write: any mode but a constant without
    ``w``, ``a``, ``x`` or ``+``; no mode reads."""
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set("wax+") & set(mode.value))


def _file_writes(source: str) -> set[str]:
    """The enclosing function, as ``Class.method`` within a class, of each
    ``open()`` or ``.open()`` call whose mode may write and of each
    ``write_text`` or ``write_bytes`` call, with ``<module>`` for module-level
    code."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            elif isinstance(child, ast.Call):
                func, keywords = child.func, {k.arg: k.value for k in child.keywords}
                if isinstance(func, ast.Name) and func.id == "open":
                    writes = _writing_mode(keywords.get("mode", child.args[1] if len(child.args) > 1 else None))
                elif isinstance(func, ast.Attribute) and func.attr == "open":
                    writes = _writing_mode(keywords.get("mode", child.args[0] if child.args else None))
                else:
                    writes = isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes")
                if writes:
                    found.add(where or "<module>")
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_file_write_detector():
    assert _file_writes(
        "def a(p):\n    open(p, 'w')\n"
        "class B:\n    def f(self, p, m):\n        p.open(mode=m)\n"
        "def c(p):\n    p.write_text('x')\n"
        "def d(p):\n    p.write_bytes(b'x')\n"
        "def e(p):\n    open(p, mode='a+b')\n"
        "with Path(p).open('x') as f:\n    pass\n"
    ) == {"a", "B.f", "c", "d", "e", "<module>"}
    assert _file_writes(
        "def a(p):\n    open(p)\n    open(p, 'rb')\n    p.open(encoding='utf-8')\n"
        "    p.open(mode='r')\n    p.read_text()\n    f.write('x')\n"
    ) == set()


def test_only_write_whole_and_the_cache_entry_write_files():
    # Every output is whole or not at all because core.write_whole writes it;
    # a chat cache entry keeps its own rename, since the shared writer's checks
    # would land on every cache miss.
    found = {
        (path.name, where)
        for path in sorted((ROOT / "src" / "negotia").glob("*.py"))
        for where in _file_writes(path.read_text(encoding="utf-8"))
    }
    assert found == {("core.py", "write_whole"), ("backends.py", "chat")}


def _whole_file_reads(source: str) -> list[int]:
    """Line numbers of ``.read_bytes()`` calls."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "read_bytes"
    ]


def test_whole_file_read_detector():
    assert _whole_file_reads("def a(p):\n    return p.read_bytes()\nh(Path(q).read_bytes())\n") == [2, 3]
    assert _whole_file_reads("def a(p, f):\n    p.read_text()\n    f.read(4)\n    read_bytes(p)\n") == []


def test_no_module_reads_a_whole_file_as_bytes():
    # A manifest hashes corpora and pools of many MB; reading one whole held
    # it all in memory at once. Hash or parse a file a block or a line at a time.
    found = {
        path.name: lines
        for path in sorted((ROOT / "src" / "negotia").glob("*.py"))
        if (lines := _whole_file_reads(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def _discarded_scripted_steps(source: str) -> list[int]:
    """Line numbers of ``scripted_step(...)`` calls made as statements, whose
    rendered line is thrown away."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "scripted_step":
            lines.append(node.lineno)
    return lines


def test_discarded_scripted_step_detector():
    assert _discarded_scripted_steps("scripted_step(w, s, 'buyer')\nbackends.scripted_step(w, s, r)\n") == [1, 2]
    assert _discarded_scripted_steps(
        "text = scripted_step(w, s, 'buyer')\nf(scripted_step(w, s, r))\n"
        "def g():\n    return scripted_step(w, s, r)\nbargain_move(w, s, 'seller', True)\n"
    ) == []


def test_every_rendered_scripted_line_is_kept():
    # A caller that needs only the bargain's move calls bargain_move; a
    # scripted_step whose text is dropped renders a line for nothing.
    found = {
        path.name: lines
        for path in sorted((ROOT / "src" / "negotia").glob("*.py"))
        if (lines := _discarded_scripted_steps(path.read_text(encoding="utf-8")))
    }
    assert found == {}


PIPELINE_IN_A_FRESH_PROCESS = """
import json, os, sys
import negotia
from negotia.cli import run
assert "numpy" not in sys.modules, "import"
os.chdir(sys.argv[1])
for argv in (
    ["simulate", "--backend", "scripted", "--seed", "7", "--n", "4", "--out", "corpus.jsonl"],
    ["annotate", "--in", "corpus.jsonl", "--out", "pool.jsonl"],
    ["filter", "--pool", "pool.jsonl", "--sample", "3", "--probe-size", "2", "--out", "ranked.json"],
    ["search", "--ranked", "ranked.json", "--pool", "pool.jsonl", "--k", "2", "--probe-size", "2",
     "--out", "best.json"],
    ["evaluate", "--in", "corpus.jsonl", "--report", "report.json"],
):
    assert run(argv) == 0, argv
    assert "numpy" not in sys.modules, argv[0]
with open("query.json", "w", encoding="utf-8") as f:
    json.dump({"text": "a fair price"}, f)
assert run(["select", "--strategy", "retrieval", "--pool", "pool.jsonl", "--k", "2",
            "--query", "query.json", "--out", "set.json"]) == 0
assert "numpy" in sys.modules, "select"
"""


def test_only_retrieval_loads_numpy(tmp_path):
    # Every command but retrieval starts and runs without paying for numpy.
    # The child imports negotia from where this process found it.
    package_root = os.path.dirname(os.path.dirname(negotia.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PIPELINE_IN_A_FRESH_PROCESS, str(tmp_path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_embed_is_one_row_of_embed_many(monkeypatch):
    # One n-gram hash: a second copy in embed could drift from the one
    # retrieval runs over the pool.
    from negotia.selectors import HashedNgramEmbedder

    calls = []
    embed_many = HashedNgramEmbedder.embed_many

    def spy(self, texts):
        calls.append(list(texts))
        return embed_many(self, texts)

    monkeypatch.setattr(HashedNgramEmbedder, "embed_many", spy)
    emb = HashedNgramEmbedder()
    vec = emb.embed("a fair price")
    assert calls == [["a fair price"]]
    assert vec.tolist() == embed_many(emb, ["a fair price"])[0].tolist()
