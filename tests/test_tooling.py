"""Development tooling: the tracer that reaches into the package by
attribute name, the shared test helpers, README's examples, and the
modules the commands load."""
import importlib.util
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import somcell
import somcell.cli  # noqa: F401  (the tracer wraps names in the cli namespace)
from conftest import random_incidence

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"
PROBLEM1 = ROOT / "corpus" / "problem1.txt"


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


def test_readme_python_examples_print_what_they_say(capsys):
    # README's python blocks run in order in one namespace, as a reader
    # would paste them, except those that open a file; each print's
    # trailing "# ..." comment is the line it must write
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    run = [block for block in blocks if "open(" not in block]
    expected = [
        line.rpartition("  # ")[2]
        for block in run
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert len(run) >= 2 and expected
    namespace = {}
    for block in run:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.splitlines() == expected


def test_commands_load_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (about 1.2 MB resident) on its first call,
    # which kernels._distinct exists to avoid; a fresh process runs four
    # commands and must end without it
    code = textwrap.dedent("""
        import contextlib, io, sys
        from somcell.cli import main
        matrix = sys.argv[1]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                ["train", "--input", matrix, "--out", "model.json"],
                ["cells", "--input", matrix, "--model", "model.json", "--out-dir", "cells"],
                ["metrics", "--input", matrix, "--assignment", "cells/assignment.json"],
                ["viz", "--input", matrix, "--model", "model.json", "--out-dir", "viz"],
            ):
                assert main(argv) == 0, argv
        print("numpy.ma" in sys.modules)
    """)
    src = str(Path(somcell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code, str(PROBLEM1)], capture_output=True, text=True, env=env, cwd=tmp_path, check=True
    )
    assert done.stdout == "False\n"


def test_problem1_copies_agree():
    # corpus/problem1.txt feeds the CLI examples, CI and perfbench, and the
    # packaged copy feeds load_problem1; an edit to one alone splits them
    packaged = Path(somcell.__file__).resolve().parent / "data" / "problem1.txt"
    assert PROBLEM1.read_bytes() == packaged.read_bytes()


def test_failing_property_test_reports_its_example(tmp_path):
    # under the repo's warning filters a failing @given test must fail like
    # any other and print its example; a warning raised while hypothesis
    # writes its report would instead end the whole run with an internal
    # error (exit 3)
    (tmp_path / "test_prop.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_five(x):
            assert x < 5
    """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_prop.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
