"""Spans around the calls into each somcell module, and the per-layer metrics.

The tracer wraps public functions in the module namespace where their
caller looks them up: ``cells`` calls ``compute_hits`` through
``somcell.cells``, ``cli`` calls ``form_cells`` through ``somcell.cli``, so a
wrapper on the defining module alone would miss those calls. Wrappers are
installed for one traced pass and the originals restored afterwards; the
package's source is never touched.

A span records its name, start, end, parent span, op id, thread and the
thread's CPU time (``time.thread_time``). A span opened on a worker thread
with no open span of its own takes the main thread's innermost open span as
parent, which is how ``bench`` worker calls hang under the ``cli.bench``
span. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("incidence", "som", "kernels", "viz", "cells", "metrics", "cli")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    thread: int
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1  # set by the harness before each op
        self._ids = itertools.count()
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks.setdefault(ident, [])
        return stack

    def wrap(self, name: str, fn, measure=None):
        """``fn`` wrapped in a span; ``measure(args, kwargs, result)`` adds counts after it ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1].id
            else:
                main_stack = self._stacks.get(self._main)
                parent = main_stack[-1].id if main_stack else None
            span = Span(
                next(self._ids), name, parent, self.op, threading.get_ident(),
                time.perf_counter(), time.thread_time(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.cpu_end = time.thread_time()
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if measure is not None:
                span.attrs = measure(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Replace each ``(module, attribute, span name, measure)`` with a traced wrapper."""
        for module, attr, name, measure in targets:
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, measure))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                    "thread": s.thread, "start": s.start, "end": s.end,
                    "cpu_s": s.cpu, **({"attrs": s.attrs} if s.attrs else {}),
                }) + "\n")


# ---------------------------------------------------------------------------
# What to wrap, and the counts taken from each call's arguments.


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(args[1 if len(args) > 1 else 0].encode("utf-8"))}


def _parse_bytes(args, kwargs, result):
    return {"bytes": len(args[0].encode("utf-8"))}


def _train_counts(args, kwargs, result):
    model, data, schedule = args
    rows = getattr(data, "values", data)
    steps = schedule.total_epochs * len(rows)
    return {"steps": steps, "units": model.grid.units, "dim": model.input_dim}


def _train_run_counts(args, kwargs, result):
    """Operation count and bytes moved of the online update, computed from shapes.

    Per step over a (units, dim) codebook: the difference, its square and
    sum (3 flops per element), the neighbourhood scale and update (2 per
    element), plus the exp and scale per unit (2 per unit). Bytes: the
    codebook is read for the difference, read and written for the update,
    and one row of the lattice distances is read; 8 bytes per float64.
    These are minimal counts; cache misses are not included.
    """
    codebook, _samples, orders = args[0], args[1], args[2]
    units, dim = codebook.shape
    steps = orders.size
    return {
        "flops": steps * (5 * units * dim + 2 * units),
        "bytes": steps * 8 * (3 * units * dim + units + dim),
    }


def _split_counts(args, kwargs, result):
    k_eff, machines = args[0].shape
    return {"assignments": k_eff ** machines}


def _candidate_key(args, kwargs, result):
    assignment = args[1]
    return {"candidate": hash((assignment.part_family, assignment.machine_cell))}


def _bench_jobs(args, kwargs, result):
    return {"jobs": args[0].jobs}


def targets(somcell):
    """Every (module, attribute, span name, measure) the traced pass wraps."""
    cli, cells, viz, som, kernels, metrics, incidence = (
        somcell.cli, somcell.cells, somcell.viz, somcell.som,
        somcell.kernels, somcell.metrics, somcell.incidence,
    )
    out = [
        (incidence, "parse_matrix", "incidence.parse_matrix", _parse_bytes),
        (cli, "load_matrix", "incidence.load_matrix", None),
        (cli, "render_block_diagonal", "incidence.render_block_diagonal", None),
        (cli, "init_codebook", "som.init_codebook", None),
        (cli, "train", "som.train", _train_counts),
        (cli, "save_model", "som.save_model", _saved_bytes),
        (cli, "load_model", "som.load_model", _file_bytes),
        (kernels, "train_run", "kernels.train_run", _train_run_counts),
        (kernels, "batch_bmu", "kernels.batch_bmu", None),
        (kernels, "best_machine_split", "kernels.best_machine_split", _split_counts),
        (viz, "atomic_write_text", "viz.write", _text_bytes),
        (cli, "form_cells", "cells.form_cells", None),
        (cli, "build_view", "cells.build_view", None),
        (cells, "cluster_map", "cells.cluster_map", None),
        (cells, "assign_parts", "cells.assign_parts", None),
        (cells, "assign_machines", "cells.assign_machines", None),
        (metrics, "count_blocks", "metrics.count_blocks", _candidate_key),
        (metrics, "grouping_efficacy", "metrics.grouping_efficacy", None),
        (metrics, "score", "metrics.score", None),
        (metrics, "oracle_best_assignment", "metrics.oracle_best_assignment", None),
        (cli, "main", "cli.main", None),
        (cli, "cmd_bench", "cli.bench", _bench_jobs),
        (cli, "cmd_cells", "cli.cells", None),
        (cli, "cmd_viz", "cli.viz", None),
        (cli, "cmd_metrics", "cli.metrics", None),
        (cli, "train_map", "cli.train_map", None),
        (cli, "extract_cells", "cli.extract_cells", None),
        (cli, "atomic_write_text", "cli.write", _text_bytes),
    ]
    # compute_hits is looked up in three namespaces
    for module in (viz, cells, cli):
        out.append((module, "compute_hits", "viz.compute_hits", None))
    for attr in ("compute_umatrix", "component_planes", "pca_project", "export_svg",
                 "export_scatter_data"):
        out.append((cli, attr, f"viz.{attr}", None))
    return out


# ---------------------------------------------------------------------------
# Aggregation.


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


PARSE = {"incidence.load_matrix", "incidence.parse_matrix"}
SCORE = {"metrics.count_blocks", "metrics.grouping_efficacy", "metrics.score"}
EXPORT = {"viz.compute_umatrix", "viz.component_planes", "viz.pca_project",
          "viz.export_svg", "viz.export_scatter_data"}
# form_cells children whose time is not settle time
NOT_SETTLE = {"viz.compute_hits", "cells.cluster_map", "cells.assign_parts"} | SCORE


def layer_metrics(spans: list[Span], wall_s: float, ops: int) -> dict[str, float]:
    """Per-layer metrics from one traced pass of ``ops`` ops taking ``wall_s`` of op time."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(group, outermost_of=None):
        """Summed wall time, skipping spans nested inside another of ``outermost_of``."""
        out = 0.0
        for s in group:
            parent = by_id.get(s.parent)
            if outermost_of and parent is not None and parent.name in outermost_of:
                continue
            out += s.wall
        return out

    def attr_sum(group, key):
        return sum(s.attrs.get(key, 0) for s in group)

    self_wall = dict.fromkeys(LAYERS, 0.0)
    wait = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        kids = children.get(s.id, [])
        own = s.wall - _union_length([(k.start, k.end) for k in kids])
        own_cpu = s.cpu - sum(k.cpu for k in kids if k.thread == s.thread)
        self_wall[s.layer] += own
        wait[s.layer] += max(0.0, own - own_cpu)
    roots = [s for s in spans if s.parent is None]
    covered = sum(s.wall for s in roots)

    m: dict[str, float] = {}
    m["incidence.parse_s"] = total([s for s in spans if s.name in PARSE], PARSE)
    m["incidence.parse_bytes"] = attr_sum(named("incidence.parse_matrix"), "bytes")
    m["incidence.render_s"] = total(named("incidence.render_block_diagonal"))

    trains = named("som.train")
    work = sum(s.attrs["steps"] * s.attrs["units"] * s.attrs["dim"] for s in trains)
    m["som.init_s"] = total(named("som.init_codebook"))
    m["som.train_s"] = total(trains)
    m["som.train_steps"] = attr_sum(trains, "steps")
    m["som.train_ns_per_step_unit_dim"] = m["som.train_s"] * 1e9 / work if work else 0.0
    io_spans = named("som.save_model", "som.load_model")
    m["som.model_io_s"] = total(io_spans)
    m["som.model_bytes"] = attr_sum(io_spans, "bytes")

    runs = named("kernels.train_run")
    m["kernels.train_run_s"] = total(runs)
    m["kernels.batch_bmu_s"] = total(named("kernels.batch_bmu"))
    m["kernels.best_machine_split_s"] = total(named("kernels.best_machine_split"))
    m["kernels.train_flops_computed"] = attr_sum(runs, "flops")
    m["kernels.train_bytes_computed"] = attr_sum(runs, "bytes")

    m["viz.hits_s"] = total(named("viz.compute_hits"))
    m["viz.export_s"] = total([s for s in spans if s.name in EXPORT])
    m["viz.bytes_written"] = attr_sum(named("viz.write"), "bytes")

    forms = named("cells.form_cells")
    k_candidates = len(named("cells.cluster_map"))
    settle = 0.0
    distinct = 0
    for f in forms:
        kids = children.get(f.id, [])
        settle += f.wall - sum(k.wall for k in kids if k.name in NOT_SETTLE)
        distinct += len({k.attrs["candidate"] for k in kids if k.name == "metrics.count_blocks"})
    m["cells.form_s"] = total(forms)
    m["cells.cluster_s"] = total(named("cells.cluster_map"))
    m["cells.settle_s"] = settle
    m["cells.k_candidates"] = k_candidates
    m["cells.dissolves"] = len(named("cells.assign_machines")) - k_candidates
    m["cells.distinct_candidate_ratio"] = distinct / k_candidates if k_candidates else 0.0
    m["cells.form_calls_per_op"] = len(forms) / ops

    scores = [s for s in spans if s.name in SCORE]
    oracle = named("metrics.oracle_best_assignment")
    splits = named("kernels.best_machine_split")
    assignments = attr_sum(splits, "assignments")
    m["metrics.score_s"] = total(scores, SCORE)
    m["metrics.score_calls"] = len(scores)
    m["metrics.oracle_s"] = total(oracle)
    m["metrics.oracle_partitions"] = len(splits)
    m["metrics.oracle_assignments"] = assignments
    m["metrics.oracle_ns_per_assignment"] = m["metrics.oracle_s"] * 1e9 / assignments if assignments else 0.0

    benches = named("cli.bench")
    m["cli.bench_s"] = total(benches)
    m["cli.cells_s"] = total(named("cli.cells"))
    m["cli.viz_s"] = total(named("cli.viz"))
    m["cli.metrics_s"] = total(named("cli.metrics"))
    m["cli.write_bytes"] = attr_sum(named("cli.write"), "bytes")
    m["cli.bench_jobs"] = max((s.attrs["jobs"] or 0 for s in benches), default=0)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_wall[layer]
        m[f"{layer}.wait_s"] = wait[layer]
    accounted = sum(self_wall.values())
    m["trace.wall_s"] = wall_s
    m["trace.overlap_s"] = accounted - covered
    m["trace.unaccounted_s"] = wall_s - covered
    m["trace.spans"] = len(spans)
    return m
