"""Command-line front end: train maps, extract cells, score, visualize,
find exact optima on instances with few parts, and benchmark a corpus of
instances.

Every command is deterministic given its flags, and all file outputs are
written atomically (temp file plus rename).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import metrics
from ._util import JSON_NUMBERS, atomic_write_text, is_json_int
from .cells import CellAssignment, build_view, form_cells, polish
from .incidence import IncidenceMatrix, load_matrix, render_block_diagonal
from .som import (
    UNITS_PER_SQRT_PART,
    MapGrid,
    SomModel,
    default_grid,
    default_schedule,
    init_codebook,
    load_model,
    quantization_error,
    save_model,
    train,
)
from .viz import (
    HitHistogram,
    component_planes,
    compute_hits,
    compute_umatrix,
    export_scatter_data,
    export_svg,
    pca_project,
)

DEFAULT_SEED = 42
DEFAULT_RESTARTS = 10
_VIEWS = ("umatrix", "planes", "hits", "projection", "scatter")  # the surfaces `viz` can write


def _parse_grid(text: str) -> MapGrid:
    try:
        rows_text, cols_text = text.lower().split("x")
        grid = MapGrid(int(rows_text), int(cols_text))
    except (ValueError, TypeError):
        raise argparse.ArgumentTypeError(
            f"grid must look like ROWSxCOLS with positive integers, got {text!r}"
        ) from None
    return grid


def _int_at_least(low: int, kind: str):
    """argparse type: an integer >= ``low``, else "must be a <kind> integer"."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value < low:
                raise ValueError
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}") from None
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonnegative_int = _int_at_least(0, "non-negative")


def _read(path, kind: str, load):
    """``load(path)``, any failure turned into one ValueError that names the file.

    A file that cannot be opened or read gives ``cannot read <kind> file
    <path>: <reason>``; one that cannot be parsed gives ``<path>: not a
    valid <kind> file (<reason>)``. Callers pass ``load_matrix`` and
    ``load_model`` by their names in this module, looked up at call time,
    so a wrapper installed on the module sees every load.
    """
    try:
        return load(path)
    except OSError as exc:
        raise ValueError(f"cannot read {kind} file {path}: {exc.strerror or exc}") from exc
    except KeyError as exc:
        raise ValueError(f"{path}: not a valid {kind} file (missing key {exc})") from exc
    except (ValueError, TypeError, RecursionError) as exc:
        raise ValueError(f"{path}: not a valid {kind} file ({exc})") from exc


def _read_matrix(path, transpose: bool) -> IncidenceMatrix:
    matrix = _read(path, "matrix", load_matrix)
    return matrix.transposed() if transpose else matrix


def default_kmax(matrix: IncidenceMatrix) -> int:
    return max(2, math.ceil(min(matrix.parts, matrix.machines) / 2))


def train_map(matrix: IncidenceMatrix, seed: int, grid: MapGrid | None = None) -> SomModel:
    """Initialize and train with the default schedule; the shared pipeline front half."""
    if grid is None:
        grid = default_grid(matrix.parts)
    model = init_codebook(grid, matrix, seed)
    return train(model, matrix, default_schedule(grid, matrix.parts))


def extract_cells(
    model: SomModel, matrix: IncidenceMatrix, k_max: int | None = None, hits: HitHistogram | None = None
):
    """Cells plus score for a trained model; the shared pipeline back half:
    ``form_cells``, then ``polish`` at the winning cell count.

    ``hits`` is ``compute_hits(model, matrix)``, computed here when not given.
    """
    assignment = form_cells(model, matrix, default_kmax(matrix) if k_max is None else k_max, hits=hits)
    assignment = polish(matrix, assignment)
    return assignment, metrics.score(matrix, assignment)


def _assignment_dict(assignment: CellAssignment, matrix: IncidenceMatrix) -> dict:
    return {
        "k": assignment.k,
        "part_family": list(assignment.part_family),
        "machine_cell": list(assignment.machine_cell),
        "part_labels": list(matrix.part_labels),
        "machine_labels": list(matrix.machine_labels),
    }


def _parse_assignment(path) -> CellAssignment:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not is_json_int(doc["k"]):
        raise ValueError(f"k must be an integer, got {json.dumps(doc['k'])}")
    for key in ("part_family", "machine_cell"):
        if not isinstance(doc[key], list) or not all(is_json_int(v) for v in doc[key]):
            raise ValueError(f"{key} must be a list of integers")
    assignment = CellAssignment(part_family=tuple(doc["part_family"]), machine_cell=tuple(doc["machine_cell"]))
    if doc["k"] != assignment.k:
        raise ValueError(f"k is {doc['k']} but the largest id is {assignment.k}")
    return assignment


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    matrix = _read_matrix(args.input, args.transpose)
    model = train_map(matrix, args.seed, args.grid)
    save_model(model, args.out)
    qe = quantization_error(model, matrix)
    print(
        f"trained {model.grid.rows}x{model.grid.cols} map on {matrix.parts} parts x "
        f"{matrix.machines} machines (seed {args.seed}); quantization error {qe:.6f}"
    )
    print(f"model written to {args.out}")
    return 0


def cmd_cells(args) -> int:
    matrix = _read_matrix(args.input, args.transpose)
    model = _read(args.model, "model", load_model)
    assignment, grouping = extract_cells(model, matrix, args.kmax)
    view = build_view(assignment)
    print(render_block_diagonal(matrix, view), end="")
    print(f"cells: {assignment.k}")
    for cell, ((p0, p1), (m0, m1)) in enumerate(view.cell_boundaries, start=1):
        machines = ", ".join(matrix.machine_labels[j] for j in view.col_order[m0:m1])
        parts = ", ".join(matrix.part_labels[i] for i in view.row_order[p0:p1])
        print(f"  cell {cell}: machines {{{machines}}} parts {{{parts}}}")
    print(f"grouping efficacy {grouping.efficacy_text}; efficiency (r={grouping.r:g}) = {grouping.efficiency:.4f}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "assignment.json", json.dumps(_assignment_dict(assignment, matrix), indent=1))
    atomic_write_text(out_dir / "score.json", json.dumps(grouping.to_dict(), indent=1))
    print(f"assignment and score written to {out_dir}")
    return 0


def cmd_metrics(args) -> int:
    matrix = _read_matrix(args.input, args.transpose)
    assignment = _read(args.assignment, "assignment", _parse_assignment)
    grouping = metrics.score(matrix, assignment, r=args.r)
    print(f"n1={grouping.n1} exceptional={grouping.n1_out} voids={grouping.n0_in}")
    print(f"grouping efficacy {grouping.efficacy_text}")
    print(f"grouping efficiency (r={grouping.r:g}): eta1={grouping.eta1:.4f} eta2={grouping.eta2:.4f} eta={grouping.efficiency:.4f}")
    if args.out:
        atomic_write_text(args.out, json.dumps(grouping.to_dict(), indent=1))
        print(f"score written to {args.out}")
    return 0


def cmd_viz(args) -> int:
    matrix = _read_matrix(args.input, args.transpose)
    model = _read(args.model, "model", load_model)
    # one BMU pass serves the sweep, the hit view and the scatter CSV
    hits = compute_hits(model, matrix)
    assignment, _ = extract_cells(model, matrix, args.kmax, hits=hits)
    part_cells = assignment.part_family
    wanted = args.only or _VIEWS
    # every surface is computed before the first file is written, so a
    # matrix that cannot be projected leaves no partial output behind
    svgs = []  # (file name, surface, part cells)
    if "umatrix" in wanted:
        svgs.append(("umatrix.svg", compute_umatrix(model), None))
    if "planes" in wanted:
        for plane in component_planes(model):
            svgs.append((f"plane_{plane.label}.svg", plane, None))
    if "hits" in wanted:
        svgs.append(("hits.svg", hits, part_cells))
    if "projection" in wanted:
        svgs.append(("projection.svg", pca_project(model, matrix), part_cells))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, surface, cells in svgs:
        export_svg(surface, out_dir / name, part_cells=cells)
        print(f"wrote {out_dir / name}")
    if "scatter" in wanted:
        export_scatter_data(model, matrix, assignment, out_dir / "scatter.csv", hits)
        print(f"wrote {out_dir / 'scatter.csv'}")
    return 0


def cmd_oracle(args) -> int:
    matrix = _read_matrix(args.input, args.transpose)
    assignment, efficacy = metrics.oracle_best_assignment(matrix, args.k)
    print(render_block_diagonal(matrix, build_view(assignment)), end="")
    print(
        f"optimal grouping efficacy (k <= {args.k}): "
        f"{efficacy.numerator}/{efficacy.denominator} = {float(efficacy):.4f} "
        f"with {assignment.k} cells"
    )
    if args.out:
        doc = _assignment_dict(assignment, matrix)
        doc["efficacy_num"] = efficacy.numerator
        doc["efficacy_den"] = efficacy.denominator
        doc["efficacy"] = float(efficacy)
        atomic_write_text(args.out, json.dumps(doc, indent=1))
        print(f"assignment written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# bench harness

# one report row per case, keys in report.json order
_ROW_KEYS = ("name", "parts", "machines", "k", "mu_num", "mu_den", "mu", "target", "delta", "seconds", "best_seed", "error")
# report.csv columns: (header, row key, format spec); an absent value is an empty field
_CSV_COLUMNS = (
    ("name", "name", ""), ("P", "parts", ""), ("M", "machines", ""), ("k", "k", ""),
    ("mu_num", "mu_num", ""), ("mu_den", "mu_den", ""), ("mu", "mu", ".6f"),
    ("target", "target", ".6f"), ("delta", "delta", ".6f"), ("seconds", "seconds", ".3f"),
)


def _parse_manifest(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise ValueError("manifest must be a JSON array of cases")
    return doc


def _bench_case(case, base_dir: Path, restarts: int, base_seed: int, grid: MapGrid | None, kmax: int | None) -> dict:
    """One report row; a case that is malformed or runs out of memory fills
    ``error`` instead of raising."""
    row = dict.fromkeys(_ROW_KEYS)
    row["name"] = str(case.get("name", "unnamed")) if isinstance(case, dict) else "unnamed"
    start = time.perf_counter()
    try:
        if not isinstance(case, dict):
            raise ValueError(f"case must be a JSON object, got {json.dumps(case)}")
        target = case.get("target_efficacy")
        if target is not None:
            try:
                if type(target) not in JSON_NUMBERS:
                    raise TypeError
                target = float(target)
            except (TypeError, OverflowError):
                raise ValueError(f"target_efficacy must be a number, got {json.dumps(target)}") from None
            if not 0.0 < target <= 1.0:
                raise ValueError(f"target_efficacy must lie in (0, 1], got {target}")
        row["target"] = target
        rel = case.get("path")
        if not rel:
            raise ValueError("case has no matrix path")
        if not isinstance(rel, str):
            raise ValueError(f"case path must be a string, got {json.dumps(rel)}")
        transpose = case.get("transpose", False)
        if not isinstance(transpose, bool):
            raise ValueError(f"transpose must be true or false, got {json.dumps(transpose)}")
        matrix = _read_matrix(base_dir / rel, transpose)
        row["parts"], row["machines"] = matrix.parts, matrix.machines
        best: tuple[Fraction, CellAssignment, int] | None = None
        for i in range(restarts):
            seed = base_seed + i
            model = train_map(matrix, seed, grid)
            assignment, grouping = extract_cells(model, matrix, kmax)
            if best is None or grouping.efficacy > best[0]:
                best = (grouping.efficacy, assignment, seed)
        efficacy, assignment, seed = best
        row.update(
            k=assignment.k,
            mu_num=efficacy.numerator,
            mu_den=efficacy.denominator,
            mu=float(efficacy),
            best_seed=seed,
        )
        if target is not None:
            row["delta"] = float(efficacy) - target
    except (ValueError, MemoryError) as exc:
        row["error"] = str(exc)
    row["seconds"] = time.perf_counter() - start
    return row


def _bench_report_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([header for header, _, _ in _CSV_COLUMNS])
    writer.writerows(
        ["" if row[key] is None else format(row[key], spec) for _, key, spec in _CSV_COLUMNS] for row in rows
    )
    return buf.getvalue()


def cmd_bench(args) -> int:
    corpus = Path(args.corpus)
    manifest_path = Path(args.manifest) if args.manifest else corpus / "manifest.json"
    cases = _read(manifest_path, "manifest", _parse_manifest)
    # imported here: the pool loads threading, queue and logging, which no other command needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        rows = list(
            pool.map(
                lambda case: _bench_case(case, corpus, args.restarts, args.seed, args.grid, args.kmax),
                cases,
            )
        )

    summary = {"cases": len(rows), "matched": 0, "improved": 0, "regressed": 0, "errors": 0}
    for row in rows:
        if row["error"] is not None:
            summary["errors"] += 1
            print(f"{row['name']}: ERROR {row['error']}")
            continue
        note = ""
        if (delta := row["delta"]) is not None:
            # 4-decimal reporting resolution decides the verdict
            verdict = "matched" if abs(delta) <= 5e-5 else "improved" if delta > 0 else "regressed"
            summary[verdict] += 1
            change = "" if verdict == "matched" else f" by {delta:+.4f}"
            note = f" (target {row['target']:.4f}, {verdict}{change})"
        print(
            f"{row['name']}: {row['parts']}x{row['machines']} k={row['k']} "
            f"mu={row['mu_num']}/{row['mu_den']}={row['mu']:.4f}{note} "
            f"[{row['seconds']:.2f}s, best seed {row['best_seed']}]"
        )
    counts = ", ".join(f"{count} {name}" for name, count in summary.items())
    print(f"summary: {counts} (restarts {args.restarts}, seeds {args.seed}..{args.seed + args.restarts - 1})")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "report.csv", _bench_report_csv(rows))
    report = {"restarts": args.restarts, "base_seed": args.seed, "cases": rows, "summary": summary}
    atomic_write_text(out_dir / "report.json", json.dumps(report, indent=1))
    print(f"report written to {out_dir}")
    # regressions are reported, not fatal: exit 0 so sweeps keep running
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; ``main`` reuses it for every call."""
    parser = argparse.ArgumentParser(
        prog="somcell",
        description="Train self-organizing maps on part-machine incidence matrices and extract manufacturing cells.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_flags(sp):
        sp.add_argument("--input", required=True, help="matrix file (header 'P M', then P rows of M 0/1 tokens)")
        sp.add_argument("--transpose", action="store_true", help="treat file rows as machines instead of parts")

    sp = sub.add_parser("train", help="train a map and write the model JSON")
    add_matrix_flags(sp)
    sp.add_argument("--grid", type=_parse_grid, default=None, help=f"ROWSxCOLS (default: near-square, at least {UNITS_PER_SQRT_PART}*sqrt(P) units)")
    sp.add_argument("--seed", type=_nonnegative_int, default=DEFAULT_SEED)
    sp.add_argument("--out", required=True, help="model output path")

    sp = sub.add_parser("cells", help="extract cells from a trained model and score them")
    add_matrix_flags(sp)
    sp.add_argument("--model", required=True, help="model JSON from `somcell train`")
    sp.add_argument("--kmax", type=_positive_int, default=None, help="largest cell count to try (default max(2, ceil(min(P, M)/2)))")
    sp.add_argument("--out-dir", default="cells-out", help="where assignment.json and score.json go")

    sp = sub.add_parser("metrics", help="score an existing assignment against a matrix")
    add_matrix_flags(sp)
    sp.add_argument("--assignment", required=True, help="assignment JSON (as written by `somcell cells`)")
    sp.add_argument("--r", type=float, default=0.5, help="efficiency weight between in-block density and off-block sparsity")
    sp.add_argument("--out", default=None, help="optional score JSON output path")

    sp = sub.add_parser("viz", help="render map surfaces as SVG plus a scatter CSV")
    add_matrix_flags(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--kmax", type=_positive_int, default=None)
    sp.add_argument("--out-dir", default="viz-out")
    sp.add_argument(
        "--only",
        action="append",
        choices=_VIEWS,
        help="restrict output (repeatable)",
    )

    sp = sub.add_parser("oracle", help="exhaustive best assignment for small instances")
    add_matrix_flags(sp)
    sp.add_argument("--k", type=_positive_int, default=2, help="largest number of cells to consider (at most 3)")
    sp.add_argument("--out", default=None, help="optional assignment JSON output path")

    sp = sub.add_parser("bench", help="run the pipeline over a corpus and compare to targets")
    sp.add_argument("--corpus", required=True, help="directory with matrix files (and manifest.json unless --manifest)")
    sp.add_argument("--manifest", default=None, help="manifest JSON (default: <corpus>/manifest.json)")
    sp.add_argument("--restarts", type=_positive_int, default=DEFAULT_RESTARTS, help="seeds per case; the best efficacy wins")
    sp.add_argument("--seed", type=_nonnegative_int, default=DEFAULT_SEED, help="base seed; restart i uses seed+i")
    sp.add_argument("--grid", type=_parse_grid, default=None, help="override the per-case default grid")
    sp.add_argument("--kmax", type=_positive_int, default=None)
    sp.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker threads (default: 1; threads contend for the interpreter lock, so more of them rarely help)",
    )
    sp.add_argument("--out-dir", default="bench-out", help="where report.csv and report.json go")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up on the module at call time, so a wrapper installed after the first call runs
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
