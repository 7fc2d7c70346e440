"""Cell extraction: clustering, inheritance, machine pull, k sweep."""
import numpy as np
import pytest

from conftest import P1_MACHINE_CELLS, P1_PART_FAMILIES, planted_instance
from somcell import (
    CellAssignment,
    IncidenceMatrix,
    MapGrid,
    assign_machines,
    assign_parts,
    build_view,
    canonical_form,
    cluster_map,
    compute_hits,
    count_blocks,
    default_grid,
    default_schedule,
    form_cells,
    grouping_efficacy,
    init_codebook,
    train,
)
from somcell.cells import _settle_assignment
from somcell.viz import HitHistogram


def _trained(data, seed=42, grid=None):
    grid = grid or default_grid(data.parts)
    return train(init_codebook(grid, data, seed=seed), data, default_schedule(grid))


def test_assignment_requires_every_cell_on_both_sides():
    with pytest.raises(ValueError):
        CellAssignment(k=2, part_family=(1, 1), machine_cell=(1, 2))
    with pytest.raises(ValueError):
        CellAssignment(k=2, part_family=(1, 2), machine_cell=(1, 1))
    with pytest.raises(ValueError):
        CellAssignment(k=1, part_family=(1, 2), machine_cell=(1,))
    with pytest.raises(ValueError):
        CellAssignment(k=0, part_family=(), machine_cell=())
    good = CellAssignment(k=2, part_family=(2, 1), machine_cell=(1, 2, 2))
    assert good.part_family == (2, 1)


def test_cluster_map_labels_every_unit(problem1):
    model = _trained(problem1)
    hits = compute_hits(model, problem1)
    clusters = cluster_map(model, hits, 2)
    assert clusters.shape == (model.grid.units,)
    assert set(np.unique(clusters[hits.hits > 0])) == {1, 2}
    assert (clusters >= 1).all()  # empty units inherit a neighbor's cluster


def test_cluster_map_bounds(problem1):
    model = _trained(problem1)
    hits = compute_hits(model, problem1)
    busy = int((hits.hits > 0).sum())
    with pytest.raises(ValueError):
        cluster_map(model, hits, 0)
    with pytest.raises(ValueError):
        cluster_map(model, hits, busy + 1)


def test_assign_parts_inherits_bmu_cluster():
    grid = MapGrid(1, 2)
    hits = HitHistogram(
        grid=grid,
        hits=np.array([2, 1]),
        bmus=np.array([0, 1, 0]),
        part_labels=("p1", "p2", "p3"),
    )
    assert assign_parts([5, 9], hits).tolist() == [5, 9, 5]
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
    families = np.array([1, 1, 2, 2])
    got = assign_machines(data, families)
    # m1 denser in family 1, m2 denser in family 2, m3 exactly tied
    assert got.tolist() == [1, 2, 1]


def test_assign_machines_idempotent_on_settled_assignments():
    rng = np.random.default_rng(4)
    for _ in range(25):
        data = IncidenceMatrix.from_array(planted_instance(rng))
        model = _trained(data, seed=11)
        asg = form_cells(model, data, k_max=3)
        again = assign_machines(data, asg.part_family)
        assert again.tolist() == list(asg.machine_cell)


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
    settled = _settle_assignment(data, np.array([1, 1, 2]))
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
    settled = _settle_assignment(data, np.array([1, 1, 2, 2, 3]))
    assert settled.part_family == (1, 1, 2, 2, 1)
    assert settled.machine_cell == (1,) * 256 + (2, 2)


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
    from somcell.cells import cluster_map as cm

    model = _trained(problem1, seed=42, grid=MapGrid(12, 10))
    asg = form_cells(model, problem1, k_max=5)
    best = grouping_efficacy(count_blocks(problem1, asg))
    hits = compute_hits(model, problem1)
    busy = int((hits.hits > 0).sum())
    for k in range(2, min(5, busy, 10, 10) + 1):
        candidate = _settle_assignment(problem1, assign_parts(cm(model, hits, k), hits))
        assert best >= grouping_efficacy(count_blocks(problem1, candidate))


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


def test_form_cells_invariant_under_input_permutation():
    rng = np.random.default_rng(10)
    for _ in range(5):
        v = planted_instance(rng)
        base = IncidenceMatrix.from_array(v)
        shuffled = IncidenceMatrix.from_array(
            v[rng.permutation(v.shape[0])][:, rng.permutation(v.shape[1])]
        )
        results = []
        for data in (base, shuffled):
            canon, _, _ = canonical_form(data)
            asg = form_cells(_trained(canon, seed=3), canon, k_max=3)
            part = frozenset(
                frozenset(np.flatnonzero(np.array(asg.part_family) == c))
                for c in range(1, asg.k + 1)
            )
            mach = frozenset(
                frozenset(np.flatnonzero(np.array(asg.machine_cell) == c))
                for c in range(1, asg.k + 1)
            )
            results.append((part, mach))
        assert results[0] == results[1]


def test_build_view_orders_and_boundaries():
    asg = CellAssignment(k=2, part_family=(2, 1, 2), machine_cell=(1, 2))
    view = build_view(asg)
    assert view.row_order == (1, 0, 2)
    assert view.col_order == (0, 1)
    assert view.cell_boundaries == (((0, 1), (0, 1)), ((1, 3), (1, 2)))


def test_build_view_on_known_grouping(problem1):
    asg = CellAssignment(
        k=2,
        part_family=(2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        machine_cell=(1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
    )
    view = build_view(asg)
    (p0, p1), (m0, m1) = view.cell_boundaries[0]
    assert (p1 - p0, m1 - m0) == (7, 5)
    (p0, p1), (m0, m1) = view.cell_boundaries[1]
    assert (p1 - p0, m1 - m0) == (3, 5)
