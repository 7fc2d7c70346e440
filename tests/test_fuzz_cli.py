"""Fuzzed command-line inputs: every mutated matrix, model, assignment or
manifest file either works (exit 0) or fails with one ``error:`` line on
stderr and exit 2, never a traceback.

A run that exits 0 writes nothing to stderr, Python warnings included.

The files start from the bundled 10x10 demo, a model trained on it once
(a version 2 file, whose codebook is one base64 string) and the
assignment ``cells`` writes for it. The same model as a version 1 file,
whose codebook is lists of decimal numbers, is also drawn, and ``cells``
and ``viz`` must refuse it. Integers drawn into them stay within
10**4 in magnitude, so no example asks for a large allocation. Codebook
values are also drawn at and past ``SomModel``'s 2**100 bound, up to the
largest float64.
"""
import binascii
import contextlib
import copy
import importlib.resources
import io
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import save_model_v1
from somcell.cli import main
from somcell.som import load_model

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

SMALL_INTS = st.integers(-10**4, 10**4)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    SMALL_INTS,
    SMALL_INTS.map(float),
    st.floats(-1e4, 1e4, allow_nan=False),
    st.text(max_size=12),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_DELETE = object()

MODEL_PATHS = [
    ("grid", "rows"),
    ("grid", "cols"),
    ("input_dim",),
    ("seed",),
    ("trained_epochs",),
    (),
    ("format",),
    ("version",),
    ("grid",),
    ("grid", "topology"),
    ("schedule",),
    ("schedule", 0),
    ("schedule", 0, "epochs"),
    ("schedule", 0, "sigma_end"),
    ("codebook",),
]
ASSIGNMENT_PATHS = [
    ("k",),
    ("part_family",),
    ("machine_cell",),
    ("part_family", 0),
    ("part_family", 9),
    (),
    ("machine_cell", 0),
    ("machine_cell", 9),
    ("part_labels",),
]
# finite codebook values far past SomModel's 2**100 bound, and the bound
# with its neighbours on either side
EDGE = 2.0**100
EXTREME_VALUES = [
    v * sign
    for v in (1e300, sys.float_info.max, EDGE, float(np.nextafter(EDGE, 0)), float(np.nextafter(EDGE, np.inf)))
    for sign in (1.0, -1.0)
]
BAD_TOKENS = ["2", "-1", "x", "", "01", "1.0", "+1", "١", "1 1", "#", "10 10"]
# the base64 alphabet, its padding and characters a decoder may skip or misread
STRING_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=" + " \n-_é"


def run_cli(argv):
    """``main``'s exit code and stderr, with every Python warning the run
    raised written to that stderr as the interpreter would print it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return rc, err.getvalue() + shown


def assert_clean_exit(rc, err):
    assert "Traceback" not in err
    assert rc in (0, 2)
    if rc == 0:
        assert err == "", err
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@st.composite
def damaged_string(draw, text: str) -> str:
    """``text`` truncated, spliced into, with one character swapped, or padded."""
    action = draw(st.sampled_from(["truncate", "splice", "swap", "pad"]))
    at = draw(st.integers(0, len(text)))
    if action == "truncate":
        return text[:at]
    if action == "splice":
        return text[:at] + draw(st.text(STRING_CHARS, min_size=1, max_size=4)) + text[at:]
    if action == "swap" and text:
        at = min(at, len(text) - 1)
        return text[:at] + draw(st.sampled_from(STRING_CHARS)) + text[at + 1:]
    return text + draw(st.sampled_from(["=", "==", "\n", "A", "AAAA", "AAAAAAAAAAA="]))


def _look_alike(value):
    """Values close to ``value``: another JSON type with the same digits, or off by a little."""
    if isinstance(value, str):
        return damaged_string(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return st.sampled_from([float(value), value + 0.5, str(value), value != 0, value + 1, -value, [value]])
    if isinstance(value, list) and value and all(isinstance(v, int) for v in value):
        return st.sampled_from([
            "".join(map(str, value)), [float(v) for v in value], [v + 0.5 for v in value],
            [v != 0 for v in value], value[:-1], value + [max(value) + 1],
        ])
    return JSON_VALUES


def _get_path(doc, path):
    try:
        for key in path:
            doc = doc[key]
    except (KeyError, IndexError, TypeError):
        return None
    return doc


def _set_path(doc, path, value):
    """Replace (or delete) the node at ``path``; a path that no longer exists is skipped."""
    if not path:
        return doc if value is _DELETE else value
    parent = _get_path(doc, path[:-1])
    try:
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass
    return doc


@st.composite
def byte_damage(draw, data: bytes) -> bytes:
    """Sometimes truncate the encoded file or splice raw bytes into it."""
    # hypothesis favours small draws, so the rare branch keys on 7, not 0
    if draw(st.integers(0, 9)) == 7:
        data = data[: draw(st.integers(0, len(data)))]
    if draw(st.integers(0, 9)) == 7:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


@st.composite
def mutated_json(draw, base, paths):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(paths))
        value = draw(st.one_of(_look_alike(_get_path(doc, path)), JSON_VALUES, st.just(_DELETE)))
        doc = _set_path(doc, path, value)
    return draw(byte_damage(json.dumps(doc).encode("utf-8")))


@st.composite
def mutated_matrix(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["token", "token", "header", "delete", "duplicate", "insert"]))
        if action == "token":
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(BAD_TOKENS) | st.text(max_size=3))
            lines[i] = " ".join(tokens)
        elif action == "header":
            lines[2] = f"{draw(SMALL_INTS)} {draw(SMALL_INTS)}"
        elif action == "delete":
            del lines[i]
            lines = lines or [""]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, draw(st.sampled_from(["", "# note", "1 0"]) | st.text(max_size=8)))
    return draw(byte_damage(("\n".join(lines) + "\n").encode("utf-8")))


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Demo matrix text, a model trained on it, its version 1 file, and the assignment `cells` finds."""
    root = tmp_path_factory.mktemp("fuzz-base")
    matrix = root / "problem1.txt"
    matrix.write_text(importlib.resources.files("somcell").joinpath("data", "problem1.txt").read_text())
    assert run_cli(["train", "--input", str(matrix), "--seed", "42", "--out", str(root / "model.json")]) == (0, "")
    assert run_cli(["cells", "--input", str(matrix), "--model", str(root / "model.json"),
                    "--out-dir", str(root / "cells")]) == (0, "")
    save_model_v1(load_model(root / "model.json"), root / "model-v1.json")
    return {
        "matrix": matrix.read_text(),
        "model": json.loads((root / "model.json").read_text()),
        "model_v1": json.loads((root / "model-v1.json").read_text()),
        "assignment": json.loads((root / "cells" / "assignment.json").read_text()),
    }


@st.composite
def damaged_codebook(draw, model):
    """A version 2 model whose codebook string alone is damaged."""
    doc = {**model, "codebook": draw(damaged_string(model["codebook"]))}
    return draw(byte_damage(json.dumps(doc).encode("utf-8")))


@st.composite
def extreme_codebook(draw, model):
    """A model with extreme finite values in its codebook: one entry, or a
    whole row, per draw."""
    dim = model["input_dim"]
    codebook = np.frombuffer(binascii.a2b_base64(model["codebook"]), dtype="<f8").reshape(-1, dim).copy()
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(0, codebook.shape[0] - 1))
        col = draw(st.sampled_from([slice(None), *range(dim)]))
        codebook[row, col] = draw(st.sampled_from(EXTREME_VALUES))
    codebook_text = binascii.b2a_base64(codebook.astype("<f8").tobytes(), newline=False).decode("ascii")
    return draw(byte_damage(json.dumps({**model, "codebook": codebook_text}).encode("utf-8")))


@st.composite
def matrix_and_model(draw, base):
    matrix = draw(st.just(base["matrix"].encode("utf-8")) | mutated_matrix(base["matrix"]))
    model = draw(
        mutated_json(base["model"], MODEL_PATHS)
        | damaged_codebook(base["model"])
        | extreme_codebook(base["model"])
        | st.sampled_from([json.dumps(base[key]).encode("utf-8") for key in ("model", "model_v1")])
    )
    return matrix, model


@pytest.mark.parametrize("command", ["cells", "viz"])
@FUZZ
@given(data=st.data())
def test_cells_and_viz_survive_mutated_inputs(tmp_path, base, command, data):
    matrix, model = data.draw(matrix_and_model(base))
    (tmp_path / "m.txt").write_bytes(matrix)
    (tmp_path / "model.json").write_bytes(model)
    rc, err = run_cli([
        command, "--input", str(tmp_path / "m.txt"), "--model", str(tmp_path / "model.json"),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert_clean_exit(rc, err)
    if model == json.dumps(base["model_v1"]).encode("utf-8"):
        assert rc == 2, "a version 1 model file was read"


@FUZZ
@given(data=st.data())
def test_metrics_survives_mutated_inputs(tmp_path, base, data):
    matrix = data.draw(st.just(base["matrix"].encode("utf-8")) | mutated_matrix(base["matrix"]))
    assignment = data.draw(mutated_json(base["assignment"], ASSIGNMENT_PATHS))
    (tmp_path / "m.txt").write_bytes(matrix)
    (tmp_path / "assignment.json").write_bytes(assignment)
    assert_clean_exit(*run_cli([
        "metrics", "--input", str(tmp_path / "m.txt"), "--assignment", str(tmp_path / "assignment.json"),
    ]))


@st.composite
def manifest_cases(draw):
    case = {}
    if draw(st.booleans()):
        case["name"] = draw(st.text(max_size=8) | JSON_VALUES)
    if draw(st.integers(0, 7)):
        case["path"] = draw(st.sampled_from(["p1.txt", "p1.txt", "mut.txt", "missing.txt", "", "."]) | JSON_VALUES)
    if draw(st.booleans()):
        case["transpose"] = draw(st.booleans() | JSON_VALUES)
    if draw(st.booleans()):
        case["target_efficacy"] = draw(st.floats(0.0, 1.0) | JSON_VALUES)
    return draw(st.just(case) | JSON_VALUES)


@FUZZ
@given(data=st.data())
def test_bench_survives_mutated_manifests(tmp_path, base, data):
    corpus = tmp_path / "corpus"
    corpus.mkdir(exist_ok=True)
    (corpus / "p1.txt").write_text(base["matrix"])
    (corpus / "mut.txt").write_bytes(data.draw(mutated_matrix(base["matrix"])))
    manifest = data.draw(st.lists(manifest_cases(), max_size=2) | JSON_VALUES)
    (corpus / "manifest.json").write_bytes(data.draw(byte_damage(json.dumps(manifest).encode("utf-8"))))
    assert_clean_exit(*run_cli([
        "bench", "--corpus", str(corpus), "--restarts", "1", "--out-dir", str(tmp_path / "bench"),
    ]))
