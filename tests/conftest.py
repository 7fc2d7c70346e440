"""Shared fixtures and independent reference helpers for the test suite."""
import itertools
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from somcell import CellAssignment, IncidenceMatrix, MapGrid, MatrixFormatError, SomModel, load_problem1
from somcell._util import atomic_write_text
from somcell.viz import HitHistogram

# Expected two-cell grouping of the bundled demo instance (0-based indices).
P1_MACHINE_CELLS = (frozenset({0, 2, 4, 8, 9}), frozenset({1, 3, 5, 6, 7}))
P1_PART_FAMILIES = (frozenset({0, 1, 9}), frozenset(range(2, 9)))


@pytest.fixture(scope="session")
def problem1() -> IncidenceMatrix:
    return load_problem1()


def naive_bmu(codebook, x):
    """Reference best-matching-unit scan, written independently of the package:
    the first minimum of numpy's pairwise sum of squared differences."""
    d2 = ((np.asarray(codebook, dtype=np.float64) - np.asarray(x, dtype=np.float64)) ** 2).sum(axis=-1)
    return int(np.argmin(d2))


def train_run_reference(codebook, samples, orders, alphas, sigmas, dist_sq):
    """The per-step update loop ``kernels.train_run`` had before it reused
    buffers: fresh temporaries and numpy-scalar arithmetic each step, same
    float operations in the same order. Units at distance 0 from the
    matching unit get weight ``alpha * exp(0) = alpha`` at every sigma, so a
    sigma whose ``1 / (2 sigma^2)`` overflows (0 included) moves only them."""
    cb = np.array(codebook, dtype=np.float64, order="C", copy=True)
    xs = np.ascontiguousarray(samples, dtype=np.float64)
    ords = np.ascontiguousarray(orders, dtype=np.int64)
    al = np.ascontiguousarray(alphas, dtype=np.float64)
    sg = np.ascontiguousarray(sigmas, dtype=np.float64)
    d2 = np.ascontiguousarray(dist_sq, dtype=np.float64)
    for t, p in enumerate(ords.ravel()):
        diff = xs[p] - cb
        best = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = 1.0 / (2.0 * sg[t] * sg[t])
            e = np.exp(-d2[best] * inv)
        e[d2[best] == 0.0] = 1.0
        h = al[t] * e
        cb += h[:, None] * diff
    return cb


def save_model_v1(model, path):
    """The version 1 model writer, the reference for that format: the same
    metadata as ``save_model`` and the codebook as lists of decimal floats
    (``repr`` round-trips every finite float64). ``load_model`` refuses the
    file; README's recipe converts it to the file ``save_model`` writes."""
    doc = {
        "format": "somcell-model",
        "version": 1,
        "grid": {"rows": model.grid.rows, "cols": model.grid.cols, "topology": "hexagonal"},
        "input_dim": model.input_dim,
        "seed": model.seed,
        "trained_epochs": model.trained_epochs,
        "schedule": [asdict(ph) for ph in model.schedule.phases] or None,
        "codebook": [[float(v) for v in row] for row in model.codebook],
    }
    atomic_write_text(path, json.dumps(doc, indent=1))


def parse_matrix_reference(text):
    """Token-by-token parser of the plain-text matrix format.

    Same grammar and messages as ``somcell.parse_matrix``: comments and blank
    lines are skipped, a ``P M`` header comes first, and the first bad line
    raises MatrixFormatError with its line number.
    """
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise MatrixFormatError("header must be two integers: P M", lineno)
            try:
                p, m = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise MatrixFormatError("header must be two integers: P M", lineno) from None
            if p < 1 or m < 1:
                raise MatrixFormatError("P and M must both be positive", lineno)
            header = (p, m)
            continue
        if len(rows) == header[0]:
            raise MatrixFormatError("unexpected content after the last matrix row", lineno)
        if len(tokens) != header[1]:
            raise MatrixFormatError(
                f"expected {header[1]} entries in this row, found {len(tokens)}", lineno
            )
        row = []
        for tok in tokens:
            if tok == "0":
                row.append(0)
            elif tok == "1":
                row.append(1)
            else:
                raise MatrixFormatError(f"entry must be 0 or 1, found {tok!r}", lineno)
        rows.append(row)
    if header is None:
        raise MatrixFormatError("no header line found")
    if len(rows) != header[0]:
        raise MatrixFormatError(f"expected {header[0]} matrix rows, found {len(rows)}")
    return IncidenceMatrix.from_array(np.array(rows, dtype=np.uint8))


def fill_hitless_reference(codebook, hit_counts, unit_ids):
    """Per-unit loop: a unit without hits copies the id of the nearest hit
    unit in codebook space (first minimum, so ties go to the lower index)."""
    out = np.array(unit_ids, dtype=np.int64)
    hit_units = np.flatnonzero(hit_counts > 0)
    for u in np.flatnonzero(hit_counts == 0):
        out[u] = out[hit_units[naive_bmu(codebook[hit_units], codebook[u])]]
    return out


@st.composite
def clustered_maps(draw):
    """(model, hits, k) on a small map whose codebook rows often coincide or tie."""
    rows, cols, dim = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    units = rows * cols
    grid_values = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    elements = grid_values | st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False)
    codebook = draw(arrays(np.float64, (units, dim), elements=elements))
    counts = draw(arrays(np.int64, units, elements=st.integers(0, 3)))
    counts[draw(st.integers(0, units - 1))] += 1  # at least one busy unit
    hits = HitHistogram(
        grid=MapGrid(rows, cols),
        bmus=np.repeat(np.arange(units), counts),
    )
    model = SomModel(grid=MapGrid(rows, cols), codebook=codebook, seed=draw(st.integers(0, 2**32)))
    k = draw(st.integers(1, int((counts > 0).sum())))
    return model, hits, k


def random_incidence(rng, parts, machines, density=0.4):
    """Random binary matrix with no empty rows or columns: one draw, then
    one random one set in each row the draw left empty, then in each
    column still empty, so sparse densities cost no redraws."""
    v = (rng.random((parts, machines)) < density).astype(np.uint8)
    empty = np.flatnonzero(v.sum(axis=1) == 0)
    if empty.size:
        v[empty, rng.integers(machines, size=empty.size)] = 1
    empty = np.flatnonzero(v.sum(axis=0) == 0)
    if empty.size:
        v[rng.integers(parts, size=empty.size), empty] = 1
    return v


def planted_instance(rng, side=6, k_range=(2, 3), max_flips=2, min_run=2):
    """Block-diagonal matrix with planted cells, light bit noise, then shuffled.

    Blocks are at least min_run wide on both axes; instances that would end
    up with an empty row or column are resampled rather than repaired so the
    distribution stays clean.
    """
    hi = min(k_range[1], side // min_run)  # k blocks need k*min_run slots
    while True:
        k = int(rng.integers(k_range[0], hi + 1))

        def runs(n):
            while True:
                cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
                edges = np.concatenate([[0], cuts, [n]])
                if np.diff(edges).min() >= min_run:
                    return edges

        pe, me = runs(side), runs(side)
        v = np.zeros((side, side), dtype=np.uint8)
        for b in range(k):
            v[pe[b]:pe[b + 1], me[b]:me[b + 1]] = 1
        for _ in range(int(rng.integers(0, max_flips + 1))):
            i, j = int(rng.integers(side)), int(rng.integers(side))
            v[i, j] ^= 1
        if (v.sum(axis=1) == 0).any() or (v.sum(axis=0) == 0).any():
            continue
        rp, cp = rng.permutation(side), rng.permutation(side)
        return v[rp][:, cp]


def planted_tall(seed, part_runs=(30, 25, 25, 20), machine_runs=(12, 10, 10, 8), noise=0.03):
    """Shuffled block-diagonal matrix (100x40 by default) with every bit
    flipped with probability ``noise``."""
    rng = np.random.default_rng(seed)
    pf = np.repeat(np.arange(len(part_runs)), part_runs)
    mc = np.repeat(np.arange(len(machine_runs)), machine_runs)
    values = (pf[:, None] == mc[None, :]).astype(np.uint8)
    values ^= (rng.random(values.shape) < noise).astype(np.uint8)
    values = values[rng.permutation(values.shape[0])][:, rng.permutation(values.shape[1])]
    assert values.sum(axis=1).min() > 0 and values.sum(axis=0).min() > 0
    return values


# The family on which a budgeted, polished pipeline is held to the full
# 30-epoch one: every (size, k, noise), one fixed instance seed each, solved
# at each run seed. Fixed before any measurement; never changed to pass.
QUALITY_SIZES = ((150, 30), (200, 40), (250, 45), (400, 60), (800, 80))
QUALITY_KS = (5, 7)
QUALITY_NOISES = (0.05, 0.10, 0.15)
QUALITY_RUN_SEEDS = (1, 2, 3)


def quality_family():
    """``(name, values, planted)`` of each instance of the quality family, in
    a fixed order.

    Each is ``k`` diagonal blocks (every side at least 2 wide, the rest
    split by a seeded multinomial) with every bit flipped with probability
    ``noise``, rows and columns shuffled; a draw with an empty row or column
    is redrawn, not repaired. ``planted`` is the blocks' assignment of the
    shuffled rows and columns, as a ``CellAssignment`` with ids 1..k.
    """
    out = []
    for seed, ((parts, machines), k, noise) in enumerate(
        itertools.product(QUALITY_SIZES, QUALITY_KS, QUALITY_NOISES), start=2004
    ):
        rng = np.random.default_rng(seed)
        while True:
            pf, mc = (np.repeat(np.arange(k), 2 + rng.multinomial(n - 2 * k, np.full(k, 1.0 / k)))
                      for n in (parts, machines))
            values = (pf[:, None] == mc[None, :]).astype(np.uint8)
            values ^= (rng.random(values.shape) < noise).astype(np.uint8)
            if values.sum(axis=1).min() > 0 and values.sum(axis=0).min() > 0:
                break
        rows, cols = rng.permutation(parts), rng.permutation(machines)
        planted = CellAssignment(
            part_family=tuple((pf[rows] + 1).tolist()), machine_cell=tuple((mc[cols] + 1).tolist())
        )
        out.append((f"{parts}x{machines}-k{k}-noise{round(noise * 100)}", values[rows][:, cols], planted))
    return out


def random_assignment(rng, parts, machines, k):
    """Random cell assignment using every id on both sides."""
    while True:
        pf = rng.integers(1, k + 1, size=parts)
        mc = rng.integers(1, k + 1, size=machines)
        if len(set(pf.tolist())) == k and len(set(mc.tolist())) == k:
            return tuple(int(x) for x in pf), tuple(int(x) for x in mc)


_ACCEPT_RESULTS = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid and report.when == "call":
        name = report.nodeid.rsplit("::", 1)[-1]
        _ACCEPT_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPT_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPT_RESULTS):
        verdict = "PASS" if _ACCEPT_RESULTS[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")
