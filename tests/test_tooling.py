"""The benchmark's tracer wraps program functions by name; those names must stay."""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
