"""End-to-end command-line tests, run in process through main(argv)."""
import binascii
import contextlib
import csv
import errno
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from somcell import cli, form_cells, kernels, load_matrix, load_model, metrics
from somcell.cli import default_kmax, main
from somcell.incidence import load_problem1

# Two clean blocks: parts 0-2 with machines 0-2, parts 3-5 with machines 3-4.
BLOCKS_6x5 = [
    "1 1 1 0 0",
    "1 1 1 0 0",
    "1 1 1 0 0",
    "0 0 0 1 1",
    "0 0 0 1 1",
    "0 0 0 1 1",
]


def write_matrix(path, rows):
    cols = len(rows[0].split())
    path.write_text(f"{len(rows)} {cols}\n" + "\n".join(rows) + "\n")
    return path


# what `import somcell.cli` must not load: the network stack (ssl, http,
# urllib, email) and xml.sax, the bench command's thread pool, and the
# bundled-data reader behind load_problem1
NOT_AT_IMPORT = (
    "ssl", "http.client", "urllib.request", "email.parser", "xml.sax", "concurrent.futures", "importlib.resources",
)


def test_import_loads_no_network_stack():
    code = "import sys; before = set(sys.modules); import somcell.cli; print(*sorted(set(sys.modules) - before))"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = set(done.stdout.split())
    assert "somcell.cli" in loaded
    assert sorted(loaded.intersection(NOT_AT_IMPORT)) == []


@pytest.fixture()
def blocks_file(tmp_path):
    return write_matrix(tmp_path / "blocks.txt", BLOCKS_6x5)


@pytest.fixture()
def trained(tmp_path, blocks_file, capsys):
    model_path = tmp_path / "model.json"
    rc = main(["train", "--input", str(blocks_file), "--out", str(model_path), "--seed", "42"])
    assert rc == 0
    capsys.readouterr()
    return blocks_file, model_path


def test_train_writes_model_and_reports(tmp_path, blocks_file, capsys):
    model_path = tmp_path / "model.json"
    rc = main([
        "train", "--input", str(blocks_file),
        "--grid", "3x4", "--seed", "7", "--out", str(model_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trained 3x4 map on 6 parts x 5 machines (seed 7)" in out
    assert "quantization error" in out
    assert f"model written to {model_path}" in out
    model = load_model(model_path)
    assert model.grid.rows == 3 and model.grid.cols == 4
    assert model.input_dim == 5


def test_train_grid_flag_must_be_rows_x_cols(tmp_path, blocks_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--input", str(blocks_file), "--grid", "banana", "--out", str(tmp_path / "m.json")])
    assert exc.value.code == 2
    assert "grid must look like ROWSxCOLS" in capsys.readouterr().err


def test_missing_input_file_is_a_clean_error(tmp_path, capsys):
    rc = main(["train", "--input", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "m.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "cannot read matrix file" in err


def test_transpose_swaps_axes(tmp_path, capsys):
    path = write_matrix(tmp_path / "wide.txt", ["1 0 1 1 0", "0 1 0 1 1", "1 1 1 0 1"])
    rc = main(["train", "--input", str(path), "--transpose", "--out", str(tmp_path / "m.json")])
    assert rc == 0
    assert "5 parts x 3 machines" in capsys.readouterr().out


def test_cells_writes_assignment_and_score(tmp_path, trained, capsys):
    matrix_path, model_path = trained
    out_dir = tmp_path / "cells"
    rc = main([
        "cells", "--input", str(matrix_path), "--model", str(model_path),
        "--out-dir", str(out_dir),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cells: 2" in out
    assert "cell 1: machines {" in out
    assert "grouping efficacy 1/1 = 1.0000" in out
    assert f"assignment and score written to {out_dir}" in out

    assignment = json.loads((out_dir / "assignment.json").read_text())
    assert assignment["k"] == 2
    assert sorted(assignment["part_family"]) == [1, 1, 1, 2, 2, 2]
    assert len(assignment["machine_cell"]) == 5
    assert assignment["part_labels"] == [f"p{i}" for i in range(1, 7)]
    assert assignment["machine_labels"] == [f"m{j}" for j in range(1, 6)]
    # parts and machines of the same block end up in the same cell
    fam = assignment["part_family"]
    cells = assignment["machine_cell"]
    assert cells == [fam[0]] * 3 + [fam[3]] * 2

    score = json.loads((out_dir / "score.json").read_text())
    assert score["efficacy_num"] == 1 and score["efficacy_den"] == 1
    assert score["n1"] == 15 and score["n1_out"] == 0 and score["n0_in"] == 0


def test_cells_rejects_model_matrix_mismatch(tmp_path, trained, capsys):
    _, model_path = trained
    other = write_matrix(tmp_path / "other.txt", ["1 0 1", "0 1 0", "1 1 1"])
    rc = main(["cells", "--input", str(other), "--model", str(model_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "model expects 5 machines" in err


def test_viz_rejects_model_matrix_mismatch(tmp_path, trained, capsys):
    _, model_path = trained
    other = write_matrix(tmp_path / "other.txt", ["1 0 1", "0 1 0", "1 1 1"])
    out_dir = tmp_path / "viz"
    rc = main(["viz", "--input", str(other), "--model", str(model_path), "--out-dir", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("error:") == 1 and err.count("\n") == 1
    assert "model expects 5 machines" in err
    assert not out_dir.exists()


def test_cells_rejects_garbage_model_file(tmp_path, blocks_file, capsys):
    bad = tmp_path / "model.json"
    bad.write_text('{"oops": true}')
    rc = main(["cells", "--input", str(blocks_file), "--model", str(bad)])
    assert rc == 2
    assert "not a valid model file" in capsys.readouterr().err


def test_cells_rejects_non_object_model_file(tmp_path, blocks_file, capsys):
    bad = tmp_path / "model.json"
    bad.write_text("[1, 2, 3]")
    rc = main(["cells", "--input", str(blocks_file), "--model", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "not a somcell model file" in err


def test_metrics_scores_saved_assignment(tmp_path, trained, capsys):
    matrix_path, model_path = trained
    out_dir = tmp_path / "cells"
    assert main(["cells", "--input", str(matrix_path), "--model", str(model_path), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()

    score_path = tmp_path / "score.json"
    rc = main([
        "metrics", "--input", str(matrix_path),
        "--assignment", str(out_dir / "assignment.json"),
        "--r", "0.7", "--out", str(score_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "n1=15 exceptional=0 voids=0" in out
    assert "grouping efficacy 1/1 = 1.0000" in out
    assert "grouping efficiency (r=0.7): eta1=1.0000 eta2=1.0000 eta=1.0000" in out
    saved = json.loads(score_path.read_text())
    assert saved["r"] == 0.7
    assert saved["efficacy"] == 1.0


def test_metrics_rejects_bad_weight(tmp_path, trained, capsys):
    matrix_path, model_path = trained
    out_dir = tmp_path / "cells"
    assert main(["cells", "--input", str(matrix_path), "--model", str(model_path), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    rc = main([
        "metrics", "--input", str(matrix_path),
        "--assignment", str(out_dir / "assignment.json"), "--r", "1.5",
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


BLOCKS_ASSIGNMENT = {"k": 2, "part_family": [1, 1, 1, 2, 2, 2], "machine_cell": [1, 1, 1, 2, 2]}


@pytest.mark.parametrize("doc", [[1, 2], "k", None, 2], ids=["array", "string", "null", "number"])
def test_metrics_rejects_assignment_that_is_not_an_object(tmp_path, blocks_file, capsys, doc):
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps(doc))
    rc = main(["metrics", "--input", str(blocks_file), "--assignment", str(path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}: not a valid assignment file (assignment must be a JSON object)\n"


@pytest.mark.parametrize(
    "fields",
    [
        {"part_family": "111222"},
        {"part_family": [1.9, 1, 1, 2, 2, 2]},
        {"machine_cell": [True, True, True, 2, 2]},
        {"k": "2"},
        {"k": 2.0},
        {"k": 10**12},
    ],
    ids=["digit-string", "float-id", "bool-id", "string-k", "float-k", "huge-k"],
)
def test_metrics_rejects_assignment_fields_that_are_not_integers(tmp_path, blocks_file, capsys, fields):
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps({**BLOCKS_ASSIGNMENT, **fields}))
    rc = main(["metrics", "--input", str(blocks_file), "--assignment", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: not a valid assignment file (") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, flag, kind",
    [
        ("cells", "--model", "not a valid model file"),
        ("metrics", "--assignment", "not a valid assignment file"),
        ("bench", "--manifest", "not a valid manifest file"),
    ],
)
def test_deeply_nested_json_is_a_clean_error(tmp_path, blocks_file, capsys, command, flag, kind):
    # json raises RecursionError, not ValueError, past its nesting limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    args = ["--corpus", str(tmp_path)] if command == "bench" else ["--input", str(blocks_file)]
    rc = main([command, *args, flag, str(deep)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {deep}: {kind} (") and err.count("\n") == 1


def test_undecodable_matrix_file_names_its_path(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"2 2\n1 0\n0 \xff1\n")
    rc = main(["train", "--input", str(path), "--out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: not a valid matrix file ('utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


# each input file the CLI reads, as (command, flag, kind), with how it can
# fail: missing, not UTF-8, not parseable, or parseable but lacking what the
# kind requires (a matrix has no such case)
INPUT_FILES = [("cells", "--input", "matrix"), ("cells", "--model", "model"),
               ("metrics", "--assignment", "assignment"), ("bench", "--manifest", "manifest")]
INPUT_FILE_CASES = [
    pytest.param(command, flag, kind, case, id=f"{kind}-{case}")
    for command, flag, kind in INPUT_FILES
    for case in ("missing", "undecodable", "malformed", "incomplete")
    if (kind, case) != ("matrix", "incomplete")
]


@pytest.mark.parametrize("command, flag, kind, case", INPUT_FILE_CASES)
def test_input_file_errors_have_one_shape(tmp_path, trained, capsys, command, flag, kind, case):
    matrix_path, model_path = trained
    path = tmp_path / f"input-{kind}"
    if case == "missing":
        want = f"cannot read {kind} file {path}: {os.strerror(errno.ENOENT)}"
    else:
        if case == "undecodable":
            path.write_bytes(b"\xff")
            reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        elif case == "malformed" and kind == "matrix":
            path.write_text("2 2\n1 0\n0 x\n")
            reason = "line 3: entry must be 0 or 1, found 'x'"
        elif case == "malformed":
            path.write_text("[1,")
            reason = "Expecting value: line 1 column 4 (char 3)"
        else:
            model = {key: value for key, value in json.loads(model_path.read_text()).items() if key != "seed"}
            assignment = {key: value for key, value in BLOCKS_ASSIGNMENT.items() if key != "k"}
            doc, reason = {
                "model": (model, "missing key 'seed'"),
                "assignment": (assignment, "missing key 'k'"),
                "manifest": ({"name": "blocks", "path": "blocks.txt"}, "manifest must be a JSON array of cases"),
            }[kind]
            path.write_text(json.dumps(doc))
        want = f"{path}: not a valid {kind} file ({reason})"
    out_dir = tmp_path / "out"
    argv = {
        "cells": ["cells", "--input", str(matrix_path), "--model", str(model_path), "--out-dir", str(out_dir)],
        "metrics": ["metrics", "--input", str(matrix_path), "--assignment", None],
        "bench": ["bench", "--corpus", str(tmp_path), "--manifest", None, "--out-dir", str(out_dir)],
    }[command]
    argv[argv.index(flag) + 1] = str(path)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {want}\n"
    assert err.count(str(path)) == 1
    assert not out_dir.exists()


def test_viz_writes_every_surface(tmp_path, trained, capsys):
    matrix_path, model_path = trained
    out_dir = tmp_path / "viz"
    rc = main(["viz", "--input", str(matrix_path), "--model", str(model_path), "--out-dir", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    expected = (
        ["umatrix.svg"]
        + [f"plane_m{j}.svg" for j in range(1, 6)]
        + ["hits.svg", "projection.svg", "scatter.csv"]
    )
    for name in expected:
        assert (out_dir / name).exists(), name
        assert f"wrote {out_dir / name}" in out
    assert (out_dir / "umatrix.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("command", ["cells", "viz"])
def test_one_bmu_pass_per_op(tmp_path, trained, capsys, monkeypatch, command):
    # the k-sweep, the hit view and the scatter CSV share one mapping of parts
    calls = []
    real = kernels.batch_bmu

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "batch_bmu", counted)
    matrix_path, model_path = trained
    rc = main([command, "--input", str(matrix_path), "--model", str(model_path), "--out-dir", str(tmp_path / "o")])
    capsys.readouterr()
    assert rc == 0
    assert len(calls) == 1


def test_only_cells_scores_the_formed_cells(tmp_path, trained, capsys, monkeypatch):
    # viz throws the score away, so it never evaluates its efficacy; cells
    # prints and writes it, so it evaluates it exactly once
    matrix_path, model_path = trained
    matrix, model = load_matrix(matrix_path), load_model(model_path)
    calls = []
    real = metrics.grouping_efficacy

    def counted(counts):
        calls.append(counts)
        return real(counts)

    monkeypatch.setattr(metrics, "grouping_efficacy", counted)
    form_cells(model, matrix, default_kmax(matrix))
    sweep = len(calls)
    assert sweep > 0
    for command, extra in (("viz", 0), ("cells", 1)):
        calls.clear()
        rc = main([command, "--input", str(matrix_path), "--model", str(model_path), "--out-dir", str(tmp_path / command)])
        capsys.readouterr()
        assert rc == 0
        assert len(calls) == sweep + extra, command


def test_viz_only_flag_filters_outputs(tmp_path, trained, capsys):
    matrix_path, model_path = trained
    out_dir = tmp_path / "viz"
    rc = main([
        "viz", "--input", str(matrix_path), "--model", str(model_path),
        "--out-dir", str(out_dir), "--only", "umatrix", "--only", "scatter",
    ])
    assert rc == 0
    capsys.readouterr()
    assert sorted(p.name for p in out_dir.iterdir()) == ["scatter.csv", "umatrix.svg"]


def test_viz_only_does_not_carry_over_to_the_next_call(tmp_path, trained, capsys):
    # one parser serves every call in a process, so no call may inherit another's --only
    matrix_path, model_path = trained
    argv = ["viz", "--input", str(matrix_path), "--model", str(model_path), "--out-dir"]
    assert main(argv + [str(tmp_path / "only"), "--only", "hits"]) == 0
    assert main(argv + [str(tmp_path / "all")]) == 0
    capsys.readouterr()
    assert [p.name for p in (tmp_path / "only").iterdir()] == ["hits.svg"]
    # umatrix, five planes, hits, projection and scatter
    assert len(list((tmp_path / "all").iterdir())) == 9


def test_main_runs_a_command_wrapped_after_the_parser_is_built(tmp_path, trained, capsys, monkeypatch):
    # the train call in `trained` built the parser; main looks the command up at call time
    matrix_path, model_path = trained
    assert cli.build_parser() is cli.build_parser()
    real = cli.cmd_cells
    calls = []

    def wrapped(args):
        calls.append(args.command)
        return real(args)

    monkeypatch.setattr(cli, "cmd_cells", wrapped)
    rc = main(["cells", "--input", str(matrix_path), "--model", str(model_path), "--out-dir", str(tmp_path / "c")])
    capsys.readouterr()
    assert rc == 0 and calls == ["cells"]


def test_oracle_reports_exact_optimum(tmp_path, capsys):
    path = write_matrix(tmp_path / "tiny.txt", ["1 1 0 0", "1 1 0 0", "0 0 1 1", "0 0 1 1"])
    out_path = tmp_path / "best.json"
    rc = main(["oracle", "--input", str(path), "--k", "2", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "optimal grouping efficacy (k <= 2): 1/1 = 1.0000 with 2 cells" in out
    doc = json.loads(out_path.read_text())
    assert doc["k"] == 2
    assert doc["efficacy_num"] == 1 and doc["efficacy_den"] == 1 and doc["efficacy"] == 1.0
    assert doc["part_family"][0] == doc["part_family"][1] != doc["part_family"][2]


def test_oracle_refuses_oversized_instances(tmp_path, capsys):
    rows = ["1 0 1"] * 11
    path = write_matrix(tmp_path / "big.txt", rows)
    rc = main(["oracle", "--input", str(path), "--k", "2"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_oracle_rejects_nonpositive_k(tmp_path, capsys):
    path = write_matrix(tmp_path / "tiny.txt", ["1 0", "0 1"])
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--input", str(path), "--k", "0"])
    _assert_usage_error(capsys, exc, "--k", "0")
    # a positive k above the oracle's bound is the oracle's error, not the parser's
    assert main(["oracle", "--input", str(path), "--k", "4"]) == 2
    assert "exceeds the oracle bounds" in capsys.readouterr().err


def test_bench_runs_corpus_and_tolerates_case_errors(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_matrix(corpus / "blocks.txt", BLOCKS_6x5)
    manifest = [
        {"name": "blocks", "path": "blocks.txt", "target_efficacy": 1.0},
        {"name": "ghost", "path": "missing.txt"},
    ]
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    out_dir = tmp_path / "bench"
    rc = main(["bench", "--corpus", str(corpus), "--restarts", "3", "--out-dir", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0  # per-case failures are reported, never fatal
    assert "blocks: 6x5 k=2 mu=1/1=1.0000 (target 1.0000, matched)" in out
    assert "ghost: ERROR" in out
    assert "summary: 2 cases, 1 matched, 0 improved, 0 regressed, 1 errors" in out

    report = json.loads((out_dir / "report.json").read_text())
    assert report["summary"] == {"cases": 2, "matched": 1, "improved": 0, "regressed": 0, "errors": 1}
    by_name = {row["name"]: row for row in report["cases"]}
    assert by_name["blocks"]["mu"] == 1.0 and by_name["blocks"]["delta"] == 0.0
    assert by_name["ghost"]["error"]

    csv_lines = (out_dir / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "name,P,M,k,mu_num,mu_den,mu,target,delta,seconds"
    assert len(csv_lines) == 3
    assert csv_lines[1].startswith("blocks,6,5,2,1,1,1.000000,1.000000,0.000000,")


def test_bench_report_csv_quotes_names_with_commas(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_matrix(corpus / "blocks.txt", BLOCKS_6x5)
    names = ["King, 1980", 'the "blocks"', "blocks"]
    manifest = [{"name": name, "path": "blocks.txt", "target_efficacy": 1.0} for name in names]
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    out_dir = tmp_path / "bench"
    assert main(["bench", "--corpus", str(corpus), "--restarts", "1", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    text = (out_dir / "report.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["name", "P", "M", "k", "mu_num", "mu_den", "mu", "target", "delta", "seconds"]
    assert [row[0] for row in rows[1:]] == names
    assert all(len(row) == 10 for row in rows)
    assert text.splitlines()[3].startswith("blocks,6,5,2,1,1,1.000000,1.000000,0.000000,")


@pytest.mark.parametrize(
    "entry, message",
    [
        ("x", 'case must be a JSON object, got "x"'),
        ({"name": "five", "path": 5}, "case path must be a string, got 5"),
        ({"name": "flip", "path": "blocks.txt", "transpose": "no"}, 'transpose must be true or false, got "no"'),
        ({"name": "aim", "path": "blocks.txt", "target_efficacy": [1]}, "target_efficacy must be a number, got [1]"),
        (
            {"name": "huge", "path": "blocks.txt", "target_efficacy": 10**400},
            f"target_efficacy must be a number, got {10**400}",
        ),
        (
            {"name": "text", "path": "blocks.txt", "target_efficacy": "0.9615"},
            'target_efficacy must be a number, got "0.9615"',
        ),
        ({"name": "yes", "path": "blocks.txt", "target_efficacy": True}, "target_efficacy must be a number, got true"),
    ],
    ids=[
        "not-an-object",
        "path-not-a-string",
        "transpose-not-a-bool",
        "target-not-a-number",
        "target-too-big",
        "target-a-string",
        "target-a-bool",
    ],
)
def test_bench_malformed_case_is_an_error_row(tmp_path, capsys, entry, message):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_matrix(corpus / "blocks.txt", BLOCKS_6x5)
    manifest = [entry, {"name": "blocks", "path": "blocks.txt"}]
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    out_dir = tmp_path / "bench"
    rc = main(["bench", "--corpus", str(corpus), "--restarts", "1", "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 0 and "Traceback" not in captured.err
    report = json.loads((out_dir / "report.json").read_text())
    bad, good = report["cases"]
    assert bad["error"] == message and bad["parts"] is None
    assert good["error"] is None and (good["parts"], good["machines"]) == (6, 5)
    assert report["summary"]["errors"] == 1


def test_bench_undecodable_case_is_an_error_row_naming_its_path(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "latin1.txt").write_bytes(b"2 2\n1 0\n0 \xff1\n")
    (corpus / "manifest.json").write_text(json.dumps([{"name": "latin1", "path": "latin1.txt"}]))
    out_dir = tmp_path / "bench"
    assert main(["bench", "--corpus", str(corpus), "--restarts", "1", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    (row,) = json.loads((out_dir / "report.json").read_text())["cases"]
    assert row["error"].startswith(f"{corpus / 'latin1.txt'}: not a valid matrix file ('utf-8' codec can't decode byte 0xff")


def test_bench_report_does_not_depend_on_jobs(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_matrix(corpus / "blocks.txt", BLOCKS_6x5)
    src = load_problem1()
    write_matrix(corpus / "p1.txt", [" ".join(str(v) for v in row) for row in src.values])
    manifest = [
        {"name": "blocks", "path": "blocks.txt", "target_efficacy": 1.0},
        {"name": "p1", "path": "p1.txt", "target_efficacy": 0.9615},
        {"name": "p1t", "path": "p1.txt", "transpose": True},
        {"name": "ghost", "path": "missing.txt"},
    ]
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    reports = {}
    for jobs in ("1", "3"):
        out_dir = tmp_path / f"jobs{jobs}"
        assert main(["bench", "--corpus", str(corpus), "--restarts", "2", "--jobs", jobs, "--out-dir", str(out_dir)]) == 0
        reports[jobs] = json.loads((out_dir / "report.json").read_text())
        for row in reports[jobs]["cases"]:
            assert row.pop("seconds") >= 0
    capsys.readouterr()
    assert reports["1"] == reports["3"]
    assert [row["name"] for row in reports["1"]["cases"]] == ["blocks", "p1", "p1t", "ghost"]


def test_bench_requires_an_array_manifest(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "manifest.json").write_text('{"name": "x"}')
    rc = main(["bench", "--corpus", str(corpus), "--out-dir", str(tmp_path / "b")])
    assert rc == 2
    assert "manifest must be a JSON array" in capsys.readouterr().err


def test_default_kmax_scales_with_the_short_axis():
    assert default_kmax(load_problem1()) == 5


def test_cells_on_the_bundled_instance(tmp_path, capsys):
    src = load_problem1()
    lines = [" ".join(str(v) for v in row) for row in src.values]
    path = write_matrix(tmp_path / "p1.txt", lines)
    model_path = tmp_path / "model.json"
    assert main(["train", "--input", str(path), "--grid", "12x10", "--seed", "42", "--out", str(model_path)]) == 0
    capsys.readouterr()
    rc = main(["cells", "--input", str(path), "--model", str(model_path), "--kmax", "5", "--out-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cells: 2" in out
    assert "grouping efficacy 25/26 = 0.9615" in out


def test_bench_rejects_nonpositive_restarts(tmp_path, capsys):
    for value in ("0", "-1", "x", "1.5", ""):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--corpus", str(tmp_path), "--restarts", value])
        assert exc.value.code == 2
        err_lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert err_lines == [f"somcell bench: error: argument --restarts: must be a positive integer, got '{value}'"]


def _assert_usage_error(capsys, exc, flag, value, kind="positive"):
    assert exc.value.code == 2
    err_lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(err_lines) == 1
    assert err_lines[0].endswith(f"error: argument {flag}: must be a {kind} integer, got '{value}'")


@pytest.mark.parametrize("command", ["cells", "viz"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_kmax_must_be_positive(tmp_path, trained, capsys, command, value):
    matrix_path, model_path = trained
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(matrix_path), "--model", str(model_path),
              "--kmax", value, "--out-dir", str(tmp_path / "out")])
    _assert_usage_error(capsys, exc, "--kmax", value)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--kmax", "--jobs"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_bench_kmax_and_jobs_must_be_positive(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--corpus", str(tmp_path), flag, value, "--out-dir", str(tmp_path / "b")])
    _assert_usage_error(capsys, exc, flag, value)
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("value", ["-1", "-3", "x"])
def test_seed_must_be_non_negative(tmp_path, blocks_file, capsys, value):
    argvs = [
        ["train", "--input", str(blocks_file), "--out", str(tmp_path / "model.json")],
        ["bench", "--corpus", str(tmp_path), "--out-dir", str(tmp_path / "b")],
    ]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", value])
        _assert_usage_error(capsys, exc, "--seed", value, kind="non-negative")
    assert not (tmp_path / "model.json").exists()
    assert not (tmp_path / "b").exists()
    assert main([*argvs[0], "--seed", "0"]) == 0


def test_model_errors_name_the_path_once(tmp_path, blocks_file, trained, capsys):
    _, model_path = trained
    good = json.loads(model_path.read_text())
    foreign = {
        "array.json": [good],
        "version.json": {**good, "version": 3},
        "topology.json": {**good, "grid": {**good["grid"], "topology": "rectangular"}},
        "fields.json": {key: value for key, value in good.items() if key != "codebook"},
        "epochs.json": {**good, "trained_epochs": -1},
    }
    for name, doc in foreign.items():
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        rc = main(["cells", "--input", str(blocks_file), "--model", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a valid model file (") and err.count("\n") == 1
        assert err.count(str(path)) == 1, err
    (tmp_path / "broken.json").write_text("{")
    assert main(["cells", "--input", str(blocks_file), "--model", str(tmp_path / "broken.json"),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count(str(tmp_path / "broken.json")) == 1


@pytest.mark.parametrize("command", ["cells", "viz"])
@pytest.mark.parametrize("offset", [1, -1], ids=["wider", "narrower"])
def test_model_input_dim_must_match_the_codebook_width(tmp_path, trained, capsys, command, offset):
    matrix_path, model_path = trained
    doc = json.loads(model_path.read_text())
    path = tmp_path / "model-dim.json"
    path.write_text(json.dumps({**doc, "input_dim": doc["input_dim"] + offset}))
    out_dir = tmp_path / "out"
    rc = main([command, "--input", str(matrix_path), "--model", str(path), "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: not a valid model file (") and err.count("\n") == 1
    assert "input_dim" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["cells", "viz"])
@pytest.mark.parametrize(
    "fields, stored, total",
    [({"trained_epochs": 999}, 999, 30), ({"schedule": None, "trained_epochs": 5}, 5, 0)],
    ids=["more-than-the-schedule", "no-schedule"],
)
def test_model_trained_epochs_must_match_the_schedule(tmp_path, trained, capsys, command, fields, stored, total):
    matrix_path, model_path = trained
    doc = json.loads(model_path.read_text())
    path = tmp_path / "model-epochs.json"
    path.write_text(json.dumps({**doc, **fields}))
    out_dir = tmp_path / "out"
    rc = main([command, "--input", str(matrix_path), "--model", str(path), "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {path}: not a valid model file (trained_epochs is {stored} but the schedule lists {total} epochs)\n"
    assert not out_dir.exists()


@pytest.fixture(scope="module")
def problem1_model(tmp_path_factory):
    """The bundled 10x10 instance as a matrix file and a model trained on it."""
    root = tmp_path_factory.mktemp("problem1")
    lines = [" ".join(str(v) for v in row) for row in load_problem1().values]
    matrix_path = write_matrix(root / "p1.txt", lines)
    model_path = root / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--input", str(matrix_path), "--seed", "42", "--out", str(model_path)]) == 0
    return matrix_path, model_path


@pytest.mark.parametrize("value", [1e300, -1e200, sys.float_info.max])
@pytest.mark.parametrize("version", [2, 1])
@pytest.mark.parametrize("command", ["cells", "viz"])
def test_codebook_past_2_100_is_a_clean_error(tmp_path, problem1_model, capsys, command, version, value):
    # one codebook row past SomModel's 2**100 bound: the U-matrix distances
    # and the nearest-row search's squares would overflow. A version 1
    # file, its codebook as decimal lists, is refused before any value is read
    matrix_path, model_path = problem1_model
    doc = json.loads(model_path.read_text())
    raw = bytearray(binascii.a2b_base64(doc["codebook"]))
    raw[: 8 * doc["input_dim"]] = struct.pack(f"<{doc['input_dim']}d", *[value] * doc["input_dim"])
    if version == 2:
        doc["codebook"] = binascii.b2a_base64(bytes(raw), newline=False).decode("ascii")
    else:
        values = struct.unpack(f"<{len(raw) // 8}d", raw)
        dim = doc["input_dim"]
        doc = {**doc, "version": 1, "codebook": [list(values[i:i + dim]) for i in range(0, len(values), dim)]}
    path = tmp_path / f"model-v{version}.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    rc = main([command, "--input", str(matrix_path), "--model", str(path), "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: not a valid model file (") and err.count("\n") == 1, err
    assert ("finite" if version == 2 else "(unsupported model version 1)\n") in err
    assert not out_dir.exists()


@pytest.mark.parametrize("k", [3, 1], ids=["above-largest-id", "below-largest-id"])
def test_assignment_k_must_match_its_largest_id(tmp_path, blocks_file, capsys, k):
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps({**BLOCKS_ASSIGNMENT, "k": k}))
    rc = main(["metrics", "--input", str(blocks_file), "--assignment", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: not a valid assignment file (") and err.count("\n") == 1


@pytest.mark.parametrize(
    "rows",
    [["1 1 1"], ["1 1", "1 1", "1 1", "1 1"]],
    ids=["one-part", "identical-parts"],
)
def test_viz_leaves_no_partial_output_on_degenerate_matrices(tmp_path, capsys, rows):
    matrix_path = write_matrix(tmp_path / "degenerate.txt", rows)
    model_path = tmp_path / "model.json"
    assert main(["train", "--input", str(matrix_path), "--out", str(model_path)]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "viz"
    rc = main(["viz", "--input", str(matrix_path), "--model", str(model_path), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "wrote" not in captured.out
    assert not out_dir.exists()


def test_bench_empty_manifest_writes_empty_reports(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "manifest.json").write_text("[]")
    out_dir = tmp_path / "bench"
    assert main(["bench", "--corpus", str(corpus), "--restarts", "1", "--out-dir", str(out_dir)]) == 0
    assert "summary: 0 cases, 0 matched, 0 improved, 0 regressed, 0 errors" in capsys.readouterr().out
    assert (out_dir / "report.csv").read_text() == "name,P,M,k,mu_num,mu_den,mu,target,delta,seconds\n"
    report = json.loads((out_dir / "report.json").read_text())
    assert report["cases"] == []
    assert report["summary"] == {"cases": 0, "matched": 0, "improved": 0, "regressed": 0, "errors": 0}


def test_viz_after_transpose_labels_by_position(tmp_path, blocks_file, capsys):
    # the file has 6 rows and 5 columns, so the transposed matrix has 5 parts
    # and 6 machines, and every label is regenerated for the new axes
    model_path = tmp_path / "model.json"
    assert main(["train", "--input", str(blocks_file), "--transpose", "--out", str(model_path)]) == 0
    out_dir = tmp_path / "viz"
    rc = main(["viz", "--input", str(blocks_file), "--transpose", "--model", str(model_path), "--out-dir", str(out_dir)])
    capsys.readouterr()
    assert rc == 0
    planes = sorted(path.name for path in out_dir.glob("plane_*.svg"))
    assert planes == sorted(f"plane_m{j}.svg" for j in range(1, 7))
    with open(out_dir / "scatter.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["source", "label", *(f"m{j}" for j in range(1, 7)), "cell"]
    assert [row[1] for row in rows[1:] if row[0] == "data"] == [f"p{i}" for i in range(1, 6)]


@pytest.mark.parametrize("command", ["train", "bench"])
def test_huge_grid_is_a_clean_error(tmp_path, capsys, command):
    # problem1 spans a principal plane, so the codebook is laid out over all
    # 10^18 units; that needs more bytes than any 64-bit address space
    # holds, and the allocation is refused outright. train stops with one
    # error line; bench reports it as that case's row and runs the next case
    path = write_matrix(tmp_path / "p1.txt", [" ".join(str(v) for v in row) for row in load_problem1().values])
    grid = "1000000000x1000000000"
    if command == "train":
        written = tmp_path / "m.json"
        rc = main(["train", "--input", str(path), "--grid", grid, "--out", str(written)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert not written.exists()
        return
    cases = [{"name": "p1", "path": path.name}, {"name": "p1t", "path": path.name, "transpose": True}]
    (tmp_path / "manifest.json").write_text(json.dumps(cases))
    out_dir = tmp_path / "bench"
    rc = main(["bench", "--corpus", str(tmp_path), "--restarts", "1", "--grid", grid, "--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    rows = json.loads((out_dir / "report.json").read_text())["cases"]
    assert [row["name"] for row in rows] == ["p1", "p1t"]
    for row in rows:
        assert (row["parts"], row["machines"]) == (10, 10)
        assert row["error"] and row["k"] is None
    assert "summary: 2 cases, 0 matched, 0 improved, 0 regressed, 2 errors" in out


@pytest.mark.parametrize("target", ["missing/m.json", "adir"], ids=["missing-directory", "existing-directory"])
def test_write_errors_name_the_destination(tmp_path, blocks_file, capsys, monkeypatch, target):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    rc = main(["train", "--input", str(blocks_file), "--out", target])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(target) in err and ".tmp." not in err
    assert not list(tmp_path.rglob(".tmp.*.part"))
