"""Development tooling: the tracer that reaches into the package by
attribute name, and the shared test helpers."""
import importlib.util
import sys
from pathlib import Path

import numpy as np

import somcell
import somcell.cli  # noqa: F401  (the tracer wraps names in the cli namespace)
from conftest import random_incidence

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


def test_random_incidence_returns_at_sparse_densities():
    # a redraw until no line is empty would almost never end here: a 5%
    # draw leaves every one of 400 rows of 60 nonempty with chance ~e^-18
    rng = np.random.default_rng(0)
    for parts, machines, density in ((400, 60, 0.05), (50, 3, 0.01), (1, 1, 0.0), (30, 40, 0.4)):
        values = random_incidence(rng, parts, machines, density)
        assert values.shape == (parts, machines) and values.dtype == np.uint8
        assert set(np.unique(values).tolist()) <= {0, 1}
        assert values.sum(axis=1).min() > 0 and values.sum(axis=0).min() > 0


def test_public_names_resolve_once():
    # a deleted function left in __all__ would break `from somcell import *`
    for module in (somcell, somcell.kernels):
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
