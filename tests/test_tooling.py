"""Checks over the source tree: the names the benchmark's tracer wraps must
stay, and no handler may catch every exception."""

from __future__ import annotations

import ast
from pathlib import Path

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
