"""Development tooling that reaches into the package by attribute name."""
import importlib.util
import sys
from pathlib import Path

import somcell
import somcell.cli  # noqa: F401  (the tracer wraps names in the cli namespace)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_perfbench_trace_targets_resolve(monkeypatch):
    # `perfbench/run.py --trace 1` wraps every target with getattr; a
    # refactor that drops or renames one of them breaks the traced pass
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up
    spec.loader.exec_module(tracing)
    targets = tracing.targets(somcell)
    assert targets
    for module, attr, name, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
        assert name.split(".", 1)[0] in tracing.LAYERS
