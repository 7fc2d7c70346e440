"""The four benchmark workloads.

Each workload generates its inputs from the workload seed, then runs rounds
of ops in a closed loop: one client, the next op starts when the previous
one returns. A round is a fixed list of ops over fixed input shapes, so the
op mix is the same in every round and for every seed; the seed changes the
matrix contents, the planted blocks and the solver seeds. The fixed lists
hold an odd number of ops, or a majority of one kind, so that the median
latency falls inside one kind of op rather than between two. Each op is timed
by the clock ``run_round`` is given (``calibrate.py``), and its output is
checked outside its timed interval, against references computed here without
``somcell.metrics``.

The program is reached only through public functions looked up on their
module at call time (``cli.train_map``, ``metrics.oracle_best_assignment``)
and through ``cli.main``, so the traced pass sees every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from synth import exact_efficacy, planted

PROBLEM1_OPTIMUM = Fraction(25, 26)
TALL_K = (6, 8)  # planted cell counts for the tall instances, inclusive
NOISE = 0.05  # bit-flip rate of every planted instance


@dataclass
class Round:
    """What one round of ops did: program time, op latencies and failures."""

    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failures.append(message)
        self.failed += ops


def call_cli(cli, argv) -> tuple[int, str]:
    """``cli.main(argv)`` with its output captured; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return 1, f"{type(exc).__name__}: {exc}"
    return code, err.getvalue()


def assignment_problems(k, part_family, machine_cell) -> str | None:
    ids = set(range(1, k + 1))
    if set(part_family) != ids:
        return f"part side uses ids {sorted(set(part_family))}, expected 1..{k}"
    if set(machine_cell) != ids:
        return f"machine side uses ids {sorted(set(machine_cell))}, expected 1..{k}"
    return None


def tall_k(index: int) -> int:
    """Planted cell count of the index-th tall instance; fixed, so seeds vary content, not k."""
    return TALL_K[0] + index % (TALL_K[1] - TALL_K[0] + 1)


class Workload:
    """Inputs from the seed (``setup``), then rounds of checked ops (``run_round``)."""

    name = ""
    MIN_ROUNDS = 1  # every timed run makes at least this many rounds
    TRACE_ROUNDS = 1  # a traced run makes exactly this many, so its counts repeat exactly

    def __init__(self, somcell, root: Path, work: Path, seed: int, nproc: int):
        self.sc = somcell
        self.root = root
        self.work = work
        self.seed = seed
        self.nproc = nproc
        self.outputs: dict[str, tuple] = {}  # op key -> (k, families, cells, efficacy)
        self.ratios: dict[str, Fraction] = {}  # instance -> efficacy / reference

    def rng(self):
        """Fresh generator for this workload and seed; every set-up draws the same inputs."""
        return np.random.default_rng([self.seed, zlib.crc32(self.name.encode())])

    def record(self, key, k, part_family, machine_cell, efficacy: Fraction, reference: Fraction):
        """Keep an op's checked output; a repeat that differs is a failure."""
        out = (k, tuple(part_family), tuple(machine_cell), efficacy)
        if self.outputs.setdefault(key, out) != out:
            return f"{key}: output differs from an earlier round"
        self.ratios[key] = efficacy / reference
        return None

    def check_assignment(self, key, values, k, part_family, machine_cell, reported, reference):
        """Independent checks of one result; returns a failure message or None."""
        problem = assignment_problems(k, part_family, machine_cell)
        if problem:
            return f"{key}: {problem}"
        exact = exact_efficacy(values, part_family, machine_cell)
        if exact != reported:
            return f"{key}: reported efficacy {reported} but the assignment scores {exact}"
        return self.record(key, k, part_family, machine_cell, exact, reference)

    def scored_keys(self) -> list[str]:
        """The ops every run reaches; efficacy and digest cover these, so they repeat exactly.

        A key whose op failed its checks has no output and is left out.
        """
        return sorted(self.outputs)

    def efficacy_ratio(self) -> float:
        keys = [key for key in self.scored_keys() if key in self.ratios]
        return float(sum(self.ratios[key] for key in keys) / len(keys)) if keys else 0.0

    def digest(self) -> str:
        """sha256 over every scored assignment and efficacy fraction, in key order."""
        h = hashlib.sha256()
        for key in self.scored_keys():
            if key not in self.outputs:
                continue
            k, pf, mc, eff = self.outputs[key]
            h.update(json.dumps([key, k, pf, mc, eff.numerator, eff.denominator]).encode())
        return h.hexdigest()

    def write(self, path: Path, text: str) -> Path:
        path.write_text(text, encoding="utf-8")
        return path

    def solve_grid_bytes(self, instances) -> dict:
        """Largest codebook and lattice-distance arrays a solve of these instances holds."""
        codebook = distance = 0
        for inst in instances:
            units = self.sc.default_grid(inst.parts).units
            codebook = max(codebook, units * inst.machines * 8)
            distance = max(distance, units * units * 8)
        return {"codebook_bytes": codebook, "distance_bytes": distance}

    def finish(self, rounds: int) -> Round:
        """Checks made once, after ``rounds`` timed rounds; failures count against those ops."""
        return Round()


class CorpusBench(Workload):
    """One in-process ``somcell bench`` call per round over a generated corpus."""

    name = "corpus-bench"
    # two cases a side plus problem1: an odd count, so the median latency falls inside one side's pair
    SIDES = (10, 16, 22, 28, 34, 40) * 2
    RESTARTS = 2
    TRACE_ROUNDS = 3

    def setup(self):
        rng = self.rng()
        self.corpus = self.work / "corpus"
        self.corpus.mkdir(parents=True, exist_ok=True)
        self.planted = [planted(rng, f"planted{i:02d}-{side}", side, side, 2 + i % 3, NOISE)
                        for i, side in enumerate(self.SIDES)]
        self.references = {inst.name: inst.reference for inst in self.planted}
        for inst in self.planted:
            self.write(self.corpus / f"{inst.name}.txt", inst.to_text())
        text = (self.root / "corpus" / "problem1.txt").read_text(encoding="utf-8")
        self.write(self.corpus / "problem1.txt", text)
        self.references["problem1"] = PROBLEM1_OPTIMUM
        manifest = [{"name": name, "path": f"{name}.txt"} for name in self.references]
        self.write(self.corpus / "manifest.json", json.dumps(manifest))
        self.base_seed = int(rng.integers(0, 10_000))
        self.jobs = self.nproc
        warm = self.work / "warm"
        warm.mkdir(exist_ok=True)
        self.write(warm / "problem1.txt", text)
        self.write(warm / "manifest.json", json.dumps([{"name": "p1", "path": "problem1.txt"}]))
        code, err = call_cli(self.sc.cli, ["bench", "--corpus", str(warm), "--restarts", "1",
                                           "--jobs", "1", "--out-dir", str(warm / "out")])
        if code != 0:
            raise RuntimeError(f"warm-up bench failed: {err.strip()}")
        self.first_rows = {}  # case -> (k, efficacy, best seed) of the first round

    def working_set(self):
        return self.solve_grid_bytes(self.planted)

    def run_round(self, clock, index) -> Round:
        r = Round()
        out = self.work / "bench-out"
        report = out / "report.json"
        if report.exists():
            report.unlink()
        argv = ["bench", "--corpus", str(self.corpus), "--restarts", str(self.RESTARTS),
                "--seed", str(self.base_seed), "--jobs", str(self.jobs), "--out-dir", str(out)]
        r.attempted = len(self.references) * self.RESTARTS
        clock.begin()
        code, err = call_cli(self.sc.cli, argv)
        r.busy_s = clock.end()
        if code != 0:
            r.fail(f"bench exited {code}: {err.strip()}", r.attempted)
            return r
        try:
            rows = json.loads(report.read_text(encoding="utf-8"))["cases"]
        except (OSError, ValueError, KeyError) as exc:
            r.fail(f"unreadable report: {type(exc).__name__}: {exc}", r.attempted)
            return r
        if [row["name"] for row in rows] != list(self.references):
            r.fail("report cases do not match the manifest", r.attempted)
            return r
        for row in rows:
            r.latencies.append(row["seconds"] * clock.scale)
            problem = self.check_row(row)
            if problem:
                r.fail(problem, self.RESTARTS)
        return r

    def check_row(self, row):
        if row["error"] is not None:
            return f"{row['name']}: {row['error']}"
        mu = Fraction(row["mu_num"], row["mu_den"])
        if not 0 < mu <= 1 or (row["mu_num"], row["mu_den"]) != (mu.numerator, mu.denominator):
            return f"{row['name']}: efficacy {row['mu_num']}/{row['mu_den']} is not a reduced fraction in (0, 1]"
        key = (row["k"], mu, row["best_seed"])
        if self.first_rows.setdefault(row["name"], key) != key:
            return f"{row['name']}: result differs from an earlier round"
        return None

    def finish(self, rounds):
        """Replay each case's winning seed and check the reported efficacy against it.

        The report carries no assignment, so the best restart is solved again
        through the public API and its assignment scored independently.
        """
        r = Round()
        cli = self.sc.cli
        for name, reference in self.references.items():
            if name not in self.first_rows:
                continue  # every round already failed this case
            k, mu, seed = self.first_rows[name]
            matrix = self.sc.load_matrix(self.corpus / f"{name}.txt")
            assignment, _ = cli.extract_cells(cli.train_map(matrix, seed), matrix)
            if assignment.k != k:
                r.fail(f"{name}: report says k={k}, replay gives k={assignment.k}", self.RESTARTS * rounds)
                continue
            problem = self.check_assignment(name, matrix.values, assignment.k, assignment.part_family,
                                            assignment.machine_cell, mu, reference)
            if problem:
                r.fail(problem, self.RESTARTS * rounds)
        return r


class LargeSolve(Workload):
    """``train_map`` then ``extract_cells`` on tall noisy planted instances.

    A round is one solve; successive rounds take the next instance, so a run
    solves as many distinct instances as fit in its time.
    """

    name = "large-solve"
    SHAPE = (400, 60)
    INSTANCES = 48  # more than a run reaches
    MIN_ROUNDS = TRACE_ROUNDS = 8

    def setup(self):
        rng = self.rng()
        M = self.sc.IncidenceMatrix
        self.cases = []
        for i in range(self.INSTANCES):
            k = tall_k(i)
            inst = planted(rng, f"tall{i:02d}-k{k}", *self.SHAPE, k, NOISE)
            self.cases.append((inst, M.from_array(inst.values), int(rng.integers(0, 2**31))))
        warm = planted(rng, "warm", 200, 40, TALL_K[0], NOISE)  # a full pipeline pass at a tall shape
        matrix = M.from_array(warm.values)
        self.sc.cli.extract_cells(self.sc.cli.train_map(matrix, 0), matrix)

    def working_set(self):
        return self.solve_grid_bytes([inst for inst, _, _ in self.cases])

    def scored_keys(self):
        return [inst.name for inst, _, _ in self.cases[:self.MIN_ROUNDS]]

    def run_round(self, clock, index) -> Round:
        r = Round(attempted=1)
        cli = self.sc.cli
        inst, matrix, seed = self.cases[index % len(self.cases)]
        clock.begin()
        try:
            model = cli.train_map(matrix, seed)
            assignment, grouping = cli.extract_cells(model, matrix)
        except Exception as exc:
            r.busy_s = clock.end()
            r.fail(f"{inst.name}: {type(exc).__name__}: {exc}")
            return r
        r.busy_s = clock.end()
        r.latencies.append(r.busy_s)
        problem = self.check_assignment(inst.name, inst.values, assignment.k, assignment.part_family,
                                        assignment.machine_cell, grouping.efficacy, inst.reference)
        if problem:
            r.fail(problem)
        return r


class ModelReuse(Workload):
    """``somcell cells``, ``metrics`` and ``viz`` against models trained in set-up."""

    name = "model-reuse"
    # Eight instances, most of one middle shape, so a run averages many contents
    # and the median op sits mid-way through the seven close ones, the 250x45
    # cells ops and the 200x40 viz; metrics ops are all faster, the rest slower.
    SHAPES = ((200, 40),) + ((250, 45),) * 6 + ((400, 60),)
    VIEWS = ("umatrix.svg", "hits.svg", "projection.svg", "scatter.csv")
    TRACE_ROUNDS = 4

    def setup(self):
        rng = self.rng()
        self.cases = []
        for i, (parts, machines) in enumerate(self.SHAPES):
            inst = planted(rng, f"tall{i}-{parts}x{machines}", parts, machines, tall_k(i), NOISE)
            case = self.work / inst.name
            case.mkdir(parents=True, exist_ok=True)
            matrix = self.write(case / "matrix.txt", inst.to_text())
            model = case / "model.json"
            seed = int(rng.integers(0, 2**31))
            code, err = call_cli(self.sc.cli, ["train", "--input", str(matrix), "--seed", str(seed),
                                               "--out", str(model)])
            if code != 0:
                raise RuntimeError(f"training {inst.name} failed: {err.strip()}")
            self.cases.append((inst, case, matrix, model))
        warm = planted(rng, "warm", 40, 10, 3, NOISE)
        case = self.work / "warm"
        case.mkdir(exist_ok=True)
        matrix = self.write(case / "matrix.txt", warm.to_text())
        model = case / "model.json"
        for argv in (["train", "--input", str(matrix), "--out", str(model)],
                     ["cells", "--input", str(matrix), "--model", str(model), "--out-dir", str(case / "cells")],
                     ["metrics", "--input", str(matrix), "--assignment", str(case / "cells" / "assignment.json")],
                     ["viz", "--input", str(matrix), "--model", str(model), "--out-dir", str(case / "viz")]):
            code, err = call_cli(self.sc.cli, argv)
            if code != 0:
                raise RuntimeError(f"warm-up {argv[0]} failed: {err.strip()}")

    def working_set(self):
        return self.solve_grid_bytes([inst for inst, _, _, _ in self.cases])

    def run_round(self, clock, index) -> Round:
        r = Round()
        for inst, case, matrix, model in self.cases:
            cells_dir, viz_dir = case / "cells", case / "viz"
            assignment_path, score_path = cells_dir / "assignment.json", case / "metrics.json"
            for path in (assignment_path, cells_dir / "score.json", score_path):
                if path.exists():
                    path.unlink()
            shutil.rmtree(viz_dir, ignore_errors=True)
            ops = (
                ("cells", ["cells", "--input", str(matrix), "--model", str(model),
                           "--out-dir", str(cells_dir)], self.check_cells),
                ("metrics", ["metrics", "--input", str(matrix), "--assignment", str(assignment_path),
                             "--out", str(score_path)], self.check_metrics),
                ("viz", ["viz", "--input", str(matrix), "--model", str(model),
                         "--out-dir", str(viz_dir)], self.check_viz),
            )
            for command, argv, check in ops:
                r.attempted += 1
                clock.begin()
                code, err = call_cli(self.sc.cli, argv)
                latency = clock.end()
                r.busy_s += latency
                if code != 0:
                    r.fail(f"{inst.name} {command} exited {code}: {err.strip()}")
                    continue
                r.latencies.append(latency)
                try:
                    problem = check(inst, case)
                except (OSError, ValueError, KeyError) as exc:
                    problem = f"unreadable output: {type(exc).__name__}: {exc}"
                if problem:
                    r.fail(f"{inst.name} {command}: {problem}")
        return r

    @staticmethod
    def _read(path: Path):
        return json.loads(path.read_text(encoding="utf-8"))

    def check_cells(self, inst, case):
        doc = self._read(case / "cells" / "assignment.json")
        score = self._read(case / "cells" / "score.json")
        reported = Fraction(score["efficacy_num"], score["efficacy_den"])
        return self.check_assignment(inst.name, inst.values, doc["k"], doc["part_family"],
                                     doc["machine_cell"], reported, inst.reference)

    def check_metrics(self, inst, case):
        k, pf, mc, efficacy = self.outputs[inst.name]
        score = self._read(case / "metrics.json")
        reported = Fraction(score["efficacy_num"], score["efficacy_den"])
        if reported != efficacy:
            return f"metrics scored {reported}, the assignment scores {efficacy}"
        return None

    def check_viz(self, inst, case):
        views = list(self.VIEWS) + [f"plane_m{j + 1}.svg" for j in range(inst.machines)]
        missing = [v for v in views if not (case / "viz" / v).is_file() or not (case / "viz" / v).stat().st_size]
        return f"missing or empty outputs {missing}" if missing else None


class ExactOracle(Workload):
    """``metrics.oracle_best_assignment`` on instances small enough to enumerate."""

    name = "exact-oracle"
    # five ops a round with problem1; the median op is an 8x8 one
    SIDES = (8, 8, 8, 7)
    K = 3
    PROBLEM1_K = 2
    TRACE_ROUNDS = 4

    def setup(self):
        rng = self.rng()
        M = self.sc.IncidenceMatrix
        self.cases = []
        for i, side in enumerate(self.SIDES):
            inst = planted(rng, f"planted{i}-{side}x{side}", side, side, int(rng.integers(2, self.K + 1)),
                           NOISE)
            self.cases.append((inst.name, inst.values, M.from_array(inst.values), self.K, inst.reference))
        p1 = self.sc.load_matrix(self.root / "corpus" / "problem1.txt")
        self.cases.append(("problem1", p1.values, p1, self.PROBLEM1_K, PROBLEM1_OPTIMUM))
        warm = planted(rng, "warm", 5, 5, 2, 0.0)
        self.sc.metrics.oracle_best_assignment(M.from_array(warm.values), self.K)

    def working_set(self):
        """The enumerated machine assignments of the widest instance, as int64."""
        k, m = self.K, max(self.SIDES)
        return {"assignment_bytes": k ** m * m * 8}

    def run_round(self, clock, index) -> Round:
        r = Round()
        oracle = self.sc.metrics
        for name, values, matrix, k, reference in self.cases:
            r.attempted += 1
            clock.begin()
            try:
                assignment, efficacy = oracle.oracle_best_assignment(matrix, k)
            except Exception as exc:
                r.busy_s += clock.end()
                r.fail(f"{name}: {type(exc).__name__}: {exc}")
                continue
            latency = clock.end()
            r.busy_s += latency
            r.latencies.append(latency)
            problem = self.check_assignment(name, values, assignment.k, assignment.part_family,
                                            assignment.machine_cell, efficacy, reference)
            if problem is None and efficacy < reference:
                problem = f"{name}: oracle optimum {efficacy} is below the reference {reference}"
            if problem:
                r.fail(problem)
        return r


WORKLOADS = {w.name: w for w in (CorpusBench, LargeSolve, ModelReuse, ExactOracle)}
