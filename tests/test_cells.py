"""Cell extraction: clustering, inheritance, machine pull, k sweep, polish."""
import dataclasses
import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    P1_MACHINE_CELLS,
    P1_PART_FAMILIES,
    QUALITY_RUN_SEEDS,
    clustered_maps,
    fill_hitless_reference,
    planted_instance,
    planted_tall,
    quality_family,
)
from somcell import (
    CellAssignment,
    IncidenceMatrix,
    MapGrid,
    assign_machines,
    assign_parts,
    build_view,
    cluster_map,
    compute_hits,
    count_blocks,
    default_grid,
    default_schedule,
    form_cells,
    grouping_efficacy,
    init_codebook,
    oracle_best_assignment,
    polish,
    train,
)
from somcell import cells, kernels, metrics
from somcell.cli import default_kmax, extract_cells, train_map
from somcell.cells import _settle_sweep, _ward_labels, cluster_basis
from somcell.metrics import BlockCounts
from somcell.som import Phase, TrainingSchedule
from somcell.viz import HitHistogram, nearest_hit_units


def _trained(data, seed=42, grid=None):
    grid = grid or default_grid(data.parts)
    return train(init_codebook(grid, data, seed=seed), data, default_schedule(grid, data.parts))


def test_assignment_requires_every_cell_on_both_sides():
    with pytest.raises(ValueError):
        CellAssignment(part_family=(1, 1), machine_cell=(1, 2))
    with pytest.raises(ValueError):
        CellAssignment(part_family=(1, 2), machine_cell=(1, 1))
    with pytest.raises(ValueError):
        CellAssignment(part_family=(1, 2), machine_cell=(1,))
    with pytest.raises(ValueError):
        CellAssignment(part_family=(), machine_cell=())
    with pytest.raises(ValueError):  # id 2 has no part and no machine
        CellAssignment(part_family=(1, 3), machine_cell=(3, 1))
    with pytest.raises(ValueError):
        CellAssignment(part_family=(0, 1), machine_cell=(1, 0))
    good = CellAssignment(part_family=(2, 1), machine_cell=(1, 2, 2))
    assert good.part_family == (2, 1) and good.k == 2


@pytest.mark.parametrize(
    "part_family, machine_cell",
    [((1.5, 2.9), (1, 2)), ((1, 2), (1.0, 2.0)), (("1", "2"), (1, 2)), ((1, 2), (np.float64(1), 2))],
    ids=["float-part", "float-machine", "string-part", "numpy-float"],
)
def test_assignment_rejects_non_integer_ids(part_family, machine_cell):
    # a float or string id is an error, never truncated to or parsed as an int
    with pytest.raises(TypeError):
        CellAssignment(part_family=part_family, machine_cell=machine_cell)


def test_assignment_keeps_numpy_integer_ids_as_ints():
    asg = CellAssignment(part_family=np.array([2, 1]), machine_cell=(np.int64(1), np.uint8(2)))
    assert asg.part_family == (2, 1) and asg.machine_cell == (1, 2)
    assert all(type(i) is int for i in asg.part_family + asg.machine_cell)


def test_cluster_map_labels_every_unit(problem1):
    model = _trained(problem1)
    hits = compute_hits(model, problem1)
    basis = cluster_basis(model, hits, 2)
    clusters = cluster_map(basis, 2)
    assert clusters.shape == (model.grid.units,)
    assert set(np.unique(clusters[hits.hits > 0])) == {1, 2}
    assert (hits.hits == 0).any() and (clusters[hits.hits == 0] == 0).all()
    # the gather through each unit's nearest busy unit labels every unit
    filled = basis[:, nearest_hit_units(model, hits)]
    assert set(np.unique(filled[1])) == {1, 2} and set(np.unique(filled[0])) == {1}


def test_cluster_map_bounds(problem1):
    model = _trained(problem1)
    hits = compute_hits(model, problem1)
    busy = int((hits.hits > 0).sum())
    with pytest.raises(ValueError):
        cluster_basis(model, hits, 0)
    with pytest.raises(ValueError):
        cluster_basis(model, hits, busy + 1)
    basis = cluster_basis(model, hits, 2)
    with pytest.raises(ValueError):
        cluster_map(basis, 3)
    with pytest.raises(ValueError):
        cluster_map(basis, 0)


def test_assign_parts_inherits_bmu_cluster():
    grid = MapGrid(1, 2)
    hits = HitHistogram(
        grid=grid,
        bmus=np.array([0, 1, 0]),
    )
    assert assign_parts([5, 9], hits).tolist() == [5, 9, 5]
    # a row of the read-only cluster basis: the parts get their own array
    row = np.array([5, 9], dtype=np.int64)
    row.flags.writeable = False
    assert not np.shares_memory(assign_parts(row, hits), row)
    with pytest.raises(ValueError):
        assign_parts([5], hits)


def test_assign_machines_prefers_denser_family_and_smaller_id_on_ties():
    values = np.array(
        [
            [1, 1, 1],
            [1, 0, 1],
            [0, 1, 1],
            [0, 1, 1],
        ],
        dtype=np.uint8,
    )
    data = IncidenceMatrix.from_array(values)
    _, counts, sizes = _family_tally_reference(data.values, np.array([1, 1, 2, 2]))
    got = assign_machines(counts, sizes)
    # m1 denser in family 1, m2 denser in family 2, m3 exactly tied
    assert got.tolist() == [1, 2, 1]


def test_assign_machines_idempotent_on_settled_assignments():
    rng = np.random.default_rng(4)
    for _ in range(25):
        data = IncidenceMatrix.from_array(planted_instance(rng))
        model = _trained(data, seed=11)
        asg = form_cells(model, data, k_max=3)
        _, counts, sizes = _family_tally_reference(data.values, np.array(asg.part_family))
        assert assign_machines(counts, sizes).tolist() == list(asg.machine_cell)


def test_settle_dissolves_machineless_families():
    # family 2 has lower density on every machine, so it keeps none and
    # must be folded into family 1
    values = np.array(
        [
            [1, 1, 1],
            [1, 1, 1],
            [1, 1, 0],
        ],
        dtype=np.uint8,
    )
    data = IncidenceMatrix.from_array(values)
    settled = _settle_sweep(data, [np.array([1, 1, 2])])[0]
    assert settled.k == 1
    assert settled.part_family == (1, 1, 1)
    assert settled.machine_cell == (1, 1, 1)


def test_settle_rehomes_orphans_by_density_past_uint8_counts():
    # family 3 ties family 1 on its 256 machines and loses them to the
    # smaller id; its part then uses those 256 machines fully (density 1)
    # and family 2's two machines half. A count wrapped at 256 would read 0.
    block = np.ones((2, 256), dtype=np.uint8)
    values = np.zeros((5, 258), dtype=np.uint8)
    values[0:2, :256] = block
    values[2:4, 256:] = 1
    values[4, :257] = 1
    data = IncidenceMatrix.from_array(values)
    settled = _settle_sweep(data, [np.array([1, 1, 2, 2, 3])])[0]
    assert settled.part_family == (1, 1, 2, 2, 1)
    assert settled.machine_cell == (1,) * 256 + (2, 2)


def test_settle_dissolves_every_machineless_family_in_one_round(monkeypatch):
    # families 3 (part 4) and 4 (part 5) tie on every machine they use
    # with a bigger family and lose them all in round 1, so both dissolve
    # in that round: part 4 uses family 1's machines more densely (2/2
    # against 1/2), part 5 family 2's. Neither joins the other orphan's
    # family, which owns no machine. Dissolving only family 3 first would
    # leave family 4 to a second dissolve round and a third call.
    values = np.array(
        [
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
            [1, 1, 1, 0],
            [0, 1, 1, 1],
        ],
        dtype=np.uint8,
    )
    real, calls = cells.assign_machines, []

    def recording(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(cells, "assign_machines", recording)
    settled = _settle_sweep(IncidenceMatrix.from_array(values), [np.array([1, 1, 2, 2, 3, 4])])[0]
    assert [c.tolist() for c in calls] == [[1, 1, 2, 2], [1, 1, 2, 2]]
    assert settled.part_family == (1, 1, 2, 2, 1, 2)
    assert settled.machine_cell == (1, 1, 2, 2)


def test_form_cells_validates_inputs(problem1):
    model = _trained(problem1)
    with pytest.raises(ValueError):
        form_cells(model, problem1, k_max=1)
    other = IncidenceMatrix.from_array(np.eye(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        form_cells(model, other, k_max=2)


def test_form_cells_recovers_exact_blocks():
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = planted_instance(rng, max_flips=0)
        data = IncidenceMatrix.from_array(v)
        asg = form_cells(_trained(data, seed=5), data, k_max=3)
        counts = count_blocks(data, asg)
        assert grouping_efficacy(counts) == 1


def test_form_cells_beats_every_candidate_k(problem1):
    # the returned assignment's efficacy dominates each k evaluated in the sweep
    model = _trained(problem1, seed=42, grid=MapGrid(12, 10))
    asg = form_cells(model, problem1, k_max=5)
    best = grouping_efficacy(count_blocks(problem1, asg))
    hits = compute_hits(model, problem1)
    busy = int((hits.hits > 0).sum())
    for k in range(2, min(5, busy, 10, 10) + 1):
        family = assign_parts(cluster_map(cluster_basis(model, hits, k), k), hits)
        candidate = _settle_sweep(problem1, [family])[0]
        assert best >= grouping_efficacy(count_blocks(problem1, candidate))


def test_form_cells_scores_each_distinct_candidate_once(problem1, monkeypatch):
    # on the demo every k from 2 to 4 settles into the same two cells; on
    # the planted 12x12 three of the four settle into three cells, two of
    # them alike. Each distinct assignment is scored once, in sweep order.
    from somcell import metrics

    rng = np.random.default_rng(8)
    planted_instance(rng, 12, (2, 4), 6)  # the second draw is the one wanted
    planted = IncidenceMatrix.from_array(planted_instance(rng, 12, (2, 4), 6))
    cases = [
        (_trained(problem1, seed=42, grid=MapGrid(12, 10)), problem1, 5),
        (_trained(planted, seed=5), planted, 6),
    ]
    real = metrics.count_blocks
    scored = []

    def counting(data, assignment):
        scored.append(assignment)
        return real(data, assignment)

    monkeypatch.setattr(metrics, "count_blocks", counting)
    for model, data, k_max in cases:
        hits = compute_hits(model, data)
        upper = min(k_max, int((hits.hits > 0).sum()), data.machines, data.parts)
        settled = [
            _settle_sweep(data, [assign_parts(cluster_map(cluster_basis(model, hits, k), k), hits)])[0]
            for k in range(2, upper + 1)
        ]
        distinct = list(dict.fromkeys(settled))
        assert len(distinct) < len(settled)
        scored.clear()
        asg = form_cells(model, data, k_max=k_max, hits=hits)
        assert scored == distinct
        assert asg == max(distinct, key=lambda c: grouping_efficacy(real(data, c)))


def test_form_cells_breaks_efficacy_ties_toward_the_earlier_candidate(problem1, monkeypatch):
    # B is A with its two cell ids swapped, so both score 25/26; C (one
    # cell) scores less. The repeat of A is not scored again, and the tie
    # goes to A, the smaller k's candidate.
    a = CellAssignment(part_family=(2, 2, 1, 1, 1, 1, 1, 1, 1, 2), machine_cell=(1, 2, 1, 2, 1, 2, 2, 2, 1, 1))
    b = CellAssignment(
        part_family=tuple(3 - f for f in a.part_family), machine_cell=tuple(3 - c for c in a.machine_cell)
    )
    c = CellAssignment(part_family=(1,) * 10, machine_cell=(1,) * 10)
    assert a != b
    assert grouping_efficacy(count_blocks(problem1, a)) == grouping_efficacy(count_blocks(problem1, b))
    assert grouping_efficacy(count_blocks(problem1, c)) < grouping_efficacy(count_blocks(problem1, a))
    real = metrics.count_blocks
    scored = []

    def counting(data, assignment):
        scored.append(assignment)
        return real(data, assignment)

    monkeypatch.setattr(cells, "_settle_sweep", lambda data, families: [a, b, a, c])
    monkeypatch.setattr(metrics, "count_blocks", counting)
    got = form_cells(_trained(problem1, seed=42, grid=MapGrid(12, 10)), problem1, k_max=5)
    assert got is a
    assert scored == [a, b, c]


def test_form_cells_keeps_the_traced_call_counts(monkeypatch):
    # the benchmark's tracer counts k candidates as cluster_map calls,
    # dissolves as assign_machines calls beyond one per candidate (the
    # extra settle rounds), and distinct candidates as count_blocks calls,
    # so the sweep makes one cluster_map call per k, one assign_machines
    # call per candidate per settle round, and one count_blocks and
    # grouping_efficacy call per distinct settled candidate
    values = planted_tall(1, (50, 42, 38, 35, 32, 28, 25), (9, 8, 7, 6, 6, 5, 4), noise=0.05)
    data = IncidenceMatrix.from_array(values)
    model = _trained(data)
    hits = compute_hits(model, data)
    k_max = default_kmax(data)
    upper = min(k_max, int((hits.hits > 0).sum()), data.machines, data.parts)
    basis = cluster_basis(model, hits, upper)
    families = [assign_parts(cluster_map(basis, k), hits) for k in range(2, upper + 1)]
    settled, rounds = zip(*(_settle_loop_reference(data.values, family) for family in families), strict=True)
    assert upper > 10 and max(rounds) > 1  # some candidates dissolve families
    calls = dict.fromkeys(("cluster_map", "assign_machines", "count_blocks", "grouping_efficacy"), 0)

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((cells, "cluster_map"), (cells, "assign_machines"),
                         (metrics, "count_blocks"), (metrics, "grouping_efficacy")):
        counting(module, name)
    asg = form_cells(model, data, k_max=k_max, hits=hits)
    distinct = len(set(settled))
    assert calls == {
        "cluster_map": upper - 1,
        "assign_machines": sum(rounds),
        "count_blocks": distinct,
        "grouping_efficacy": distinct,
    }
    assert asg in settled


def test_form_cells_keeps_the_ward_table_small_in_memory():
    # a seeded 400x60 planted model (70 busy units, k up to 30): the Ward
    # table is built one row of busy-unit distances at a time, so it holds
    # 70 x 70 floats and form_cells' tracemalloc peak stays near the
    # settle's own (about 0.42 MB here); all (busy unit x busy unit x dim)
    # differences at once would be 2.4 MB
    values = planted_tall(1, (70, 65, 60, 55, 55, 50, 45), (10, 10, 9, 9, 8, 7, 7), noise=0.05)
    data = IncidenceMatrix.from_array(values)
    model = train_map(data, 1)
    hits = compute_hits(model, data)
    form_cells(model, data, default_kmax(data), hits)  # warm any lazy machinery
    tracemalloc.start()
    try:
        form_cells(model, data, default_kmax(data), hits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_form_cells_on_demo_instance_matches_known_grouping(problem1):
    model = _trained(problem1, seed=42, grid=MapGrid(12, 10))
    asg = form_cells(model, problem1, k_max=5)
    assert asg.k == 2
    mach = frozenset(
        frozenset(np.flatnonzero(np.array(asg.machine_cell) == c)) for c in (1, 2)
    )
    part = frozenset(
        frozenset(np.flatnonzero(np.array(asg.part_family) == c)) for c in (1, 2)
    )
    assert mach == frozenset(P1_MACHINE_CELLS)
    assert part == frozenset(P1_PART_FAMILIES)


def test_build_view_orders_and_boundaries():
    asg = CellAssignment(part_family=(2, 1, 2), machine_cell=(1, 2))
    view = build_view(asg)
    assert view.row_order == (1, 0, 2)
    assert view.col_order == (0, 1)
    assert view.cell_boundaries == (((0, 1), (0, 1)), ((1, 3), (1, 2)))


def test_build_view_on_known_grouping(problem1):
    asg = CellAssignment(
        part_family=(2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        machine_cell=(1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
    )
    view = build_view(asg)
    (p0, p1), (m0, m1) = view.cell_boundaries[0]
    assert (p1 - p0, m1 - m0) == (7, 5)
    (p0, p1), (m0, m1) = view.cell_boundaries[1]
    assert (p1 - p0, m1 - m0) == (3, 5)


# ---------------------------------------------------------------------------
# Plain-Python references for the array-wide helpers. Each is the per-family
# or per-unit loop the helper replaced; outputs must match bit for bit.


def _family_tally_reference(values, part_family):
    ids, index, sizes = np.unique(part_family, return_inverse=True, return_counts=True)
    onehot = (index[None, :] == np.arange(ids.size)[:, None]).astype(np.float64)
    return ids, onehot @ values, sizes


def _assign_machines_reference(values, part_family):
    out = np.zeros(values.shape[1], dtype=np.int64)
    best = np.full(values.shape[1], -1.0)
    for f in np.unique(part_family):  # ascending, so strict > keeps the smaller id on ties
        density = values[part_family == f].mean(axis=0)
        better = density > best
        out[better] = f
        best[better] = density[better]
    return out


def _relabel_reference(part_family, values):
    ids, first, counts = np.unique(part_family, return_index=True, return_counts=True)
    ones = np.array([int(values[part_family == f].sum()) for f in ids])
    order = sorted(range(ids.size), key=lambda i: (-counts[i], -ones[i], first[i]))
    remap = {int(ids[i]): rank + 1 for rank, i in enumerate(order)}
    return np.array([remap[int(f)] for f in part_family], dtype=np.int64)


def _settle_loop_reference(values, part_family):
    """(settled assignment, rounds): each round relabels by size, assigns
    machines, and moves every part of every machine-less family to the
    machine-owning family whose machines it uses most densely."""
    part_family = np.asarray(part_family, dtype=np.int64).copy()
    rounds = 0
    while True:
        rounds += 1
        part_family = _relabel_reference(part_family, values)
        machine_cell = _assign_machines_reference(values, part_family)
        owners = np.unique(machine_cell)
        orphans = np.flatnonzero(~np.isin(part_family, owners))
        if orphans.size == 0:
            break
        onehot = (machine_cell[:, None] == owners[None, :]).astype(np.float64)
        density = (values[orphans].astype(np.float64) @ onehot) / onehot.sum(axis=0)
        part_family[orphans] = owners[np.argmax(density, axis=1)]
    return CellAssignment(part_family=tuple(part_family), machine_cell=tuple(machine_cell)), rounds


def _count_blocks_reference(values, part_family, machine_cell):
    """The (parts x machines) in-block mask tally."""
    in_block = np.asarray(part_family)[:, None] == np.asarray(machine_cell)[None, :]
    n1 = int(values.sum())
    n1_in = int(values[in_block].sum())
    in_elements = int(in_block.sum())
    return BlockCounts(n1, n1 - n1_in, in_elements - n1_in, int(values.size))


def _ward_reference(points, k_max):
    """Every k's Ward labels (row k - 1) by brute force, in plain Python
    floats: squared distances summed column by column (numpy's pairwise sum
    does the same below 8 columns), then n - 1 merges, each of the first
    closest live pair (a, b), a < b, scanned in order, with Lance and
    Williams' update in the same operation order as ``_ward_labels``. Each
    k's clusters are numbered by their smallest member."""
    n = points.shape[0]
    rows = points.tolist()
    d = [[math.inf] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a != b:
                total = 0.0
                for x, y in zip(rows[a], rows[b]):
                    total += (x - y) * (x - y)
                d[a][b] = total
    clusters = {a: [a] for a in range(n)}
    labels = [None] * k_max
    while True:
        if len(clusters) <= k_max:
            firsts = sorted(min(members) for members in clusters.values())
            row = [0] * n
            for members in clusters.values():
                for p in members:
                    row[p] = firsts.index(min(members))
            labels[len(clusters) - 1] = row
        if len(clusters) == 1:
            return np.array(labels, dtype=np.int64)
        live = sorted(clusters)
        i, j = live[0], live[1]
        for a in live:
            for b in live:
                if a < b and d[a][b] < d[i][j]:
                    i, j = a, b
        n_i, n_j = float(len(clusters[i])), float(len(clusters[j]))
        for c in live:
            if c not in (i, j):
                s = float(len(clusters[c]))
                d[i][c] = d[c][i] = ((s + n_i) * d[i][c] + (s + n_j) * d[j][c] - s * d[i][j]) / (s + n_i + n_j)
        clusters[i] += clusters.pop(j)


def _cluster_map_reference(model, hits, k):
    hit_units = np.flatnonzero(hits.hits > 0)
    out = np.zeros(model.grid.units, dtype=np.int64)
    out[hit_units] = _ward_reference(model.codebook[hit_units], k)[k - 1] + 1
    return out


@st.composite
def family_problems(draw):
    """(0/1 matrix, family id per part) rigged for ties.

    Rows are copies of a few base rows, so families often have exactly equal
    densities; ids come from a small gappy pool that includes 0; sometimes
    one family gets more than 255 parts, past any uint8 count.
    """
    machines = draw(st.integers(1, 6))
    base = draw(arrays(np.uint8, (draw(st.integers(1, 4)), machines), elements=st.integers(0, 1)))
    base[base.sum(axis=1) == 0, 0] = 1
    rows = draw(st.lists(st.integers(0, base.shape[0] - 1), min_size=1, max_size=14))
    pool = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True))
    family = draw(st.lists(st.sampled_from(pool), min_size=len(rows), max_size=len(rows)))
    if draw(st.booleans()):
        extra = draw(st.integers(256, 300))
        rows += [draw(st.integers(0, base.shape[0] - 1))] * extra
        family += [draw(st.sampled_from(pool))] * extra
    values = base[rows]
    values[:, values.sum(axis=0) == 0] = 1  # whole columns, so duplicate rows stay duplicates
    return values, np.array(family, dtype=np.int64)


_GAPPY = (
    np.array([[1, 0, 1], [1, 0, 1], [0, 1, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8),
    np.array([3, 7, 3, 9, 7], dtype=np.int64),
)
_BIG_FAMILY = (
    np.array([[1, 1]] * 300 + [[1, 0], [0, 1]], dtype=np.uint8),
    np.array([5] * 300 + [2, 8], dtype=np.int64),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(family_problems())
@example(_GAPPY)
@example(_BIG_FAMILY)
def test_assign_machines_matches_per_family_loop(problem):
    values, family = problem
    ids, counts, sizes = _family_tally_reference(values, family)
    got = ids[assign_machines(counts, sizes) - 1]
    want = _assign_machines_reference(values, family)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(family_problems())
@example(_GAPPY)
@example(_BIG_FAMILY)
def test_settle_matches_loop_reference(problem):
    # the same assignment, with one assign_machines call per round
    values, family = problem
    real, calls = cells.assign_machines, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cells, "assign_machines", counting)
        settled = _settle_sweep(IncidenceMatrix.from_array(values), [family])[0]
    assert (settled, len(calls)) == _settle_loop_reference(values, family)


@st.composite
def sweep_problems(draw):
    """(0/1 matrix, 1-6 candidate family arrays over its parts).

    Rows are copies of a few base rows, so densities often tie exactly;
    each candidate draws its ids from its own gappy pool, so k varies
    between candidates and a pool of one id gives a single-family one.
    """
    machines = draw(st.integers(1, 6))
    base = draw(arrays(np.uint8, (draw(st.integers(1, 4)), machines), elements=st.integers(0, 1)))
    base[base.sum(axis=1) == 0, 0] = 1
    rows = draw(st.lists(st.integers(0, base.shape[0] - 1), min_size=1, max_size=16))
    values = base[rows]
    values[:, values.sum(axis=0) == 0] = 1  # whole columns, so duplicate rows stay duplicates
    families = []
    for _ in range(draw(st.integers(1, 6))):
        pool = draw(st.lists(st.integers(0, 12), min_size=1, max_size=7, unique=True))
        family = draw(st.lists(st.sampled_from(pool), min_size=len(rows), max_size=len(rows)))
        families.append(np.array(family, dtype=np.int64))
    return values, families


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sweep_problems())
@example((_GAPPY[0], [_GAPPY[1], np.full(5, 4), np.arange(5), _GAPPY[1][::-1].copy()]))
@example((_BIG_FAMILY[0], [_BIG_FAMILY[1], np.arange(302) % 3, np.full(302, 7)]))
def test_settle_sweep_matches_reference_per_candidate(problem):
    # every candidate settles as it would alone, and as the reference
    # settles it, so candidates of one sweep cannot cross-talk
    values, families = problem
    data = IncidenceMatrix.from_array(values)
    settled = _settle_sweep(data, families)
    assert settled == [_settle_loop_reference(values, family)[0] for family in families]
    for family, got in zip(families, settled, strict=True):
        assert _settle_sweep(data, [family])[0] == got


@st.composite
def block_problems(draw):
    """``family_problems`` plus a cell id per machine, drawn from the part ids
    and from ids no part uses (0 and 13), so some machines sit in no block."""
    values, family = draw(family_problems())
    ids = sorted(set(family.tolist()) | {0, 13})
    machine_cell = draw(st.lists(st.sampled_from(ids), min_size=values.shape[1], max_size=values.shape[1]))
    return values, family, np.array(machine_cell, dtype=np.int64)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(block_problems())
@example((*_GAPPY, np.array([3, 0, 9])))
@example((*_BIG_FAMILY, np.array([5, 13])))
def test_count_blocks_matches_mask_reference(problem):
    values, family, machine_cell = problem
    assignment = SimpleNamespace(part_family=family, machine_cell=machine_cell)
    got = count_blocks(IncidenceMatrix.from_array(values), assignment)
    assert got == _count_blocks_reference(values, family, machine_cell)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(clustered_maps())
def test_cluster_map_matches_loop_reference(case):
    model, hits, k = case
    got = cluster_map(cluster_basis(model, hits, k), k)
    want = _cluster_map_reference(model, hits, k)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(clustered_maps())
def test_shared_basis_matches_standalone_cluster_map(case):
    # the sweep's single basis (one dendrogram) labels every k as a basis
    # built for that k alone would
    model, hits, _ = case
    busy = int((hits.hits > 0).sum())
    basis = cluster_basis(model, hits, busy)
    for k in range(1, busy + 1):
        shared = cluster_map(basis, k)
        assert shared.tolist() == cluster_map(cluster_basis(model, hits, k), k).tolist()
        assert shared.tolist() == _cluster_map_reference(model, hits, k).tolist()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(clustered_maps())
def test_cluster_basis_is_one_read_only_table(case):
    model, hits, _ = case
    busy = int((hits.hits > 0).sum())
    basis = cluster_basis(model, hits, busy)
    assert type(basis) is np.ndarray and basis.dtype == np.int64
    assert basis.shape == (busy, model.grid.units) and not basis.flags.writeable
    for k, row in enumerate(basis, start=1):
        clusters = cluster_map(basis, k)
        assert np.shares_memory(clusters, row) and clusters.tolist() == row.tolist()
        assert not clusters.flags.writeable
        assert set(row[hits.hits > 0].tolist()) == set(range(1, k + 1))
        assert (row[hits.hits == 0] == 0).all()
        # the gather through nearest_hit_units fills each unit without hits
        # with its nearest busy unit's id
        filled = row[nearest_hit_units(model, hits)]
        assert filled.tolist() == fill_hitless_reference(model.codebook, hits.hits, row).tolist()
        if k < busy:
            # each of k + 1's clusters over all units lies inside one of k's
            finer = basis[k]
            assert all(np.unique(row[finer == c]).size == 1 for c in range(1, k + 2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(clustered_maps())
def test_ward_labels_match_brute_force_reference(case):
    # the maps' codebook rows often coincide or tie, so first-minimum merges
    # and zero distances are common; every k is one cut of one dendrogram
    model, hits, _ = case
    points = model.codebook[np.flatnonzero(hits.hits > 0)]
    n = points.shape[0]
    labels = _ward_labels(points, n)
    assert labels.dtype == np.int64 and labels.tolist() == _ward_reference(points, n).tolist()
    for k, row in enumerate(labels.tolist(), start=1):
        # ids go by first member: 0, 1, ... in order of first appearance
        assert list(dict.fromkeys(row)) == list(range(k))
        if k < n:
            # each of k + 1's clusters lies inside one of k's
            finer = labels[k]
            assert all(np.unique(labels[k - 1][finer == c]).size == 1 for c in range(k + 1))


def test_form_cells_does_not_depend_on_the_model_seed(monkeypatch):
    # on this seeded instance a farthest-first k-means start drawn from
    # the model seed gave seeds 0 and 1 different assignments; a dendrogram
    # has no start, so only the codebook matters
    values = planted_tall(2, (12, 10, 9, 8), (6, 5, 5, 4), noise=0.2)
    data = IncidenceMatrix.from_array(values)
    model = train_map(data, 1)
    hits = compute_hits(model, data)
    got = [form_cells(dataclasses.replace(model, seed=seed), data, default_kmax(data), hits) for seed in (0, 1)]
    assert got[0] == got[1]
    # clustering makes no nearest-row search: the hitless units stay 0
    calls = []
    real = kernels.nearest_rows

    def counting(points, centers):
        calls.append(points.shape[0])
        return real(points, centers)

    monkeypatch.setattr(kernels, "nearest_rows", counting)
    cluster_basis(model, hits, 2)
    assert calls == []


def _efficacy(data, assignment):
    return grouping_efficacy(count_blocks(data, assignment))


@st.composite
def polish_problems(draw, max_parts=12, max_k=None):
    """(matrix, assignment): a 0/1 matrix with a one in every row and column,
    often with repeated rows (so efficacy ties are common), and an
    assignment that uses every id 1..k on both sides."""
    parts, machines = draw(st.integers(1, max_parts)), draw(st.integers(1, 8))
    base = draw(arrays(np.uint8, (draw(st.integers(1, parts)), machines), elements=st.integers(0, 1)))
    values = base[draw(st.lists(st.integers(0, base.shape[0] - 1), min_size=parts, max_size=parts))]
    values[values.sum(axis=1) == 0, 0] = 1
    values[0, values.sum(axis=0) == 0] = 1
    k = draw(st.integers(1, min(parts, machines, max_k or parts)))

    def ids(n):
        extra = draw(st.lists(st.integers(1, k), min_size=n - k, max_size=n - k))
        return draw(st.permutations(list(range(1, k + 1)) + extra))

    return IncidenceMatrix.from_array(values), CellAssignment(part_family=ids(parts), machine_cell=ids(machines))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(polish_problems())
def test_polish_never_lowers_efficacy_and_is_a_fixed_point(problem):
    data, assignment = problem
    polished = polish(data, assignment)
    # CellAssignment itself rejects ids that are not exactly 1..k on both sides
    assert polished.k == assignment.k
    assert _efficacy(data, polished) >= _efficacy(data, assignment)
    assert polish(data, polished) == polished


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polish_problems(max_parts=10, max_k=3))
def test_polish_stays_within_the_exact_optimum(problem):
    # the oracle's bound is at most k cells, and the polish keeps exactly k;
    # an optimum is itself a fixed point, as no step can rise above it
    data, assignment = problem
    best, optimum = oracle_best_assignment(data, assignment.k)
    assert _efficacy(data, polish(data, assignment)) <= optimum
    assert polish(data, best) == best


def test_polish_holds_many_cells_in_bounded_time_and_memory():
    # a sparse unstructured matrix whose winner has k = 28 cells: an exact
    # split over all 2^28 family subsets would need tens of gigabytes, so the
    # ascent stops at the first argmax that leaves a family empty instead
    rng = np.random.default_rng(1)
    values = (rng.random((120, 60)) < 0.03).astype(np.uint8)
    values[np.arange(120), rng.integers(60, size=120)] = 1
    values[rng.integers(120, size=60), np.arange(60)] = 1
    data = IncidenceMatrix.from_array(values)
    winner = form_cells(train_map(data, 1), data, default_kmax(data))
    assert winner.k >= 20
    tracemalloc.start()
    start = time.perf_counter()
    polished = polish(data, winner)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert polished.k == winner.k and _efficacy(data, polished) > _efficacy(data, winner)
    assert elapsed < 2.0 and peak < 2 * 2**20


def test_polish_calls_no_traced_scorer_or_split(monkeypatch):
    # the benchmark's tracer counts these by name and books k ** machines
    # assignments per best_machine_split call, which overflows float for a
    # (k x parts) tally, so the polish must reach none of them
    values = planted_tall(5, noise=0.15)
    data = IncidenceMatrix.from_array(values)
    rng = np.random.default_rng(0)
    start = CellAssignment(
        part_family=tuple(rng.permutation(np.arange(100) % 4 + 1).tolist()),
        machine_cell=tuple(rng.permutation(np.arange(40) % 4 + 1).tolist()),
    )
    before = _efficacy(data, start)

    def forbidden(*args, **kwargs):
        raise AssertionError("polish called a traced function")

    for module, name in ((metrics, "count_blocks"), (metrics, "grouping_efficacy"),
                         (cells, "assign_machines"), (kernels, "best_machine_split")):
        monkeypatch.setattr(module, name, forbidden)
    polished = polish(data, start)
    monkeypatch.undo()
    assert _efficacy(data, polished) > before


def _full_schedule(grid):
    """The 10 + 20 epoch schedule every instance trained with before the step budget."""
    sigma0 = max(1.0, max(grid.rows, grid.cols) / 2.0)
    return TrainingSchedule((Phase(10, 0.5, 0.05, sigma0, 1.0), Phase(20, 0.05, 0.01, 1.0, 0.1)))


@pytest.mark.parametrize(
    "values",
    [pytest.param(values, id=name) for name, values, _ in quality_family()
     if name.endswith("-noise15") and values.shape[0] <= 400],
)
def test_budget_and_polish_hold_the_full_schedule_efficacy(values):
    # the budgeted, polished pipeline against the 30-epoch, unpolished one,
    # on the noisiest slice of the quality family up to 400 parts
    data = IncidenceMatrix.from_array(values)
    seed = QUALITY_RUN_SEEDS[0]
    grid = default_grid(data.parts)
    full = form_cells(train(init_codebook(grid, data, seed), data, _full_schedule(grid)), data, default_kmax(data))
    _, grouping = extract_cells(train_map(data, seed), data)
    assert grouping.efficacy >= _efficacy(data, full)


@pytest.mark.parametrize(
    "values, planted",
    [pytest.param(values, planted, id=name) for name, values, planted in quality_family()
     if name.endswith("-noise15") and values.shape[0] <= 400],
)
def test_default_pipeline_reaches_the_planted_efficacy(values, planted):
    # the default pipeline at the first run seed against the blocks each
    # instance was drawn from, on the noisiest slice of the quality family
    # up to 400 parts: whatever map size default_grid picks, the cells it
    # finds are never worse than the planted ones
    data = IncidenceMatrix.from_array(values)
    _, grouping = extract_cells(train_map(data, QUALITY_RUN_SEEDS[0]), data)
    assert grouping.efficacy >= _efficacy(data, planted)
