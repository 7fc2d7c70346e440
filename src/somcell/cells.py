"""Cell extraction from a trained map.

Pipeline: cluster the codebook vectors of units that actually caught parts,
let every part inherit its BMU's cluster as a family, pull each machine
into the family that uses it most densely, dissolve families that end up
without machines, and sweep the cluster count, keeping the assignment with
the best grouping efficacy. The sweep clusters every cluster count first,
all from one Ward dendrogram of the busy units (``_ward_labels``), then
settles each candidate in turn, every machine-less family dissolving in
the same round (``_settle_sweep``), then scores them in order.
``polish`` then raises the winner's efficacy at its cell count by exact
alternating machine and part steps.
"""

from __future__ import annotations

import numpy as np

from . import kernels, metrics
from .incidence import BlockDiagonalView, IncidenceMatrix
from .metrics import CellAssignment
from .som import SomModel, _check_machines
from .viz import HitHistogram, compute_hits, nearest_hit_units


def _ward_labels(points: np.ndarray, k_max: int) -> np.ndarray:
    """Ward clustering labels of ``points`` for every k in 1..k_max, row
    k - 1, each cluster numbered from 0 in order of its first member.

    One pass of merges down the dendrogram (Ward 1963) over a table of
    squared distances, built one row at a time. Each merge joins the first
    minimum of the table in row-major order, the pair (i, j) with i < j,
    and updates row and column i by Lance and Williams' formula; dead
    slots, i and j come out inf, and j is retired into i. So slot i is
    always its cluster's smallest member, and the ids by first member are
    each point's slot ranked among the live slots.
    """
    n = points.shape[0]
    d = np.empty((n, n))
    for i in range(n):
        d[i] = ((points - points[i]) ** 2).sum(axis=1)
    np.fill_diagonal(d, np.inf)
    sizes = np.ones(n)  # each slot's cluster size, 0 once retired
    slot = np.arange(n)  # each point's slot: its cluster's smallest member
    labels = np.zeros((k_max, n), dtype=np.int64)  # k = 1 stays all 0
    for count in range(n, 1, -1):
        if count <= k_max:
            labels[count - 1] = np.searchsorted(np.flatnonzero(sizes), slot)
        i, j = divmod(int(d.argmin()), n)
        n_i, n_j = sizes[i], sizes[j]
        d[i] = ((sizes + n_i) * d[i] + (sizes + n_j) * d[j] - sizes * d[i, j]) / (sizes + n_i + n_j)
        d[:, i] = d[i]
        d[j] = d[:, j] = np.inf
        sizes[i], sizes[j] = n_i + n_j, 0.0
        slot[slot == j] = i
    return labels


def cluster_basis(model: SomModel, hits: HitHistogram, k_max: int) -> np.ndarray:
    """Every unit's cluster for every k in 1..k_max, one read-only int64
    (k_max, units) array: row k - 1 holds ids 1..k, numbered by each
    cluster's first unit with hits; k_max may not exceed those units.

    The units with hits are Ward-clustered on their codebook rows, every k
    cut from one dendrogram (``_ward_labels``), and each unit without hits
    takes the cluster of its nearest unit with hits (``nearest_hit_units``).
    """
    hit_units = np.flatnonzero(hits.hits > 0)
    if not 1 <= k_max <= hit_units.size:
        raise ValueError(f"k must lie in 1..{hit_units.size} (units with hits)")
    nearest = nearest_hit_units(model, hits)
    table = np.zeros((k_max, nearest.size), dtype=np.int64)
    table[:, hit_units] = _ward_labels(model.codebook[hit_units], k_max) + 1
    table = table[:, nearest]
    table.flags.writeable = False
    return table


def cluster_map(basis: np.ndarray, k: int) -> np.ndarray:
    """Cluster ids (1..k) for every map unit: row k - 1 of ``basis``, which
    is ``cluster_basis(model, hits, k_max)`` for some k_max >= k, as a
    read-only view.
    """
    if not 1 <= k <= basis.shape[0]:
        raise ValueError(f"k must lie in 1..{basis.shape[0]} for this basis")
    return basis[k - 1]


def assign_parts(clusters, hits: HitHistogram) -> np.ndarray:
    """Each part takes the cluster id of its BMU."""
    clusters = np.asarray(clusters, dtype=np.int64)
    if clusters.shape[0] != hits.grid.units:
        raise ValueError("need one cluster id per unit")
    return clusters[hits.bmus]


def assign_machines(counts, sizes) -> np.ndarray:
    """Pull each machine into the family that uses it most densely.

    Row f stands for family id f + 1: ``counts[f, j]`` holds the ones in
    machine column j over that family's parts, as int64 or float64, and
    ``sizes[f]`` its part count. Density of machine j in family f is the
    mean of column j over f's parts. Exact ties go to the smaller family
    id. It reads nothing but (counts, sizes), so the tally of a settled
    assignment gives back that assignment's machine cells.
    """
    # argmax's first maximum keeps the smaller id on ties
    return np.argmax(counts / sizes[:, None], axis=0) + 1


def _settle_sweep(data: IncidenceMatrix, part_families) -> list[CellAssignment]:
    """Settle each candidate of a sweep: assign machines and dissolve
    machine-less families until every family owns a machine.

    Each round tallies each family's ones per machine, once, then
    renumbers the families 1..k, biggest first, then most ones (the
    tally's row sums), then earliest part, and the tally's rows follow
    their families. ``assign_machines`` breaks density ties toward the
    smaller id, so a machine equally dense everywhere sides with the
    largest (then fullest) family instead of a small or sparse one. The
    round then assigns the machines and dissolves every family left
    without one at once: each of its parts moves to the family whose
    machines it uses most densely (its ones in them over their count,
    ties to the smaller id). Every part has a one and every machine an
    owner, so some owning family's density is above 0 and a family
    without machines, at 0, never wins. A family that owns a machine
    keeps its parts, so each round but the last removes at least one
    family. Tallies and densities are exact integers over exact integers.
    The returned ids are the last round's, so ``assign_machines`` on the
    result's tally gives back its machine cells. ``part_families`` holds a
    non-negative family id per part for each candidate.
    """
    values = data.values
    parts, machines = values.shape
    hit, machine = np.nonzero(values)
    settled = []
    for family in part_families:
        while True:
            sizes = np.bincount(family)
            first = np.full(sizes.size, parts)
            np.minimum.at(first, family, np.arange(parts))
            tally = np.bincount(family[hit] * machines + machine, minlength=sizes.size * machines)
            tally = tally.reshape(sizes.size, machines)
            # ids no part uses have size 0, so they rank last and drop out
            order = np.lexsort((first, -tally.sum(axis=1), -sizes))
            k = np.count_nonzero(sizes)
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size)
            family = rank[family]
            machine_cell = assign_machines(tally[order[:k]], sizes[order[:k]])
            owned = np.bincount(machine_cell - 1, minlength=k)
            orphans = np.flatnonzero(owned[family] == 0)
            if not orphans.size:
                break
            at, used = np.nonzero(values[orphans])
            ones = np.bincount(at * k + machine_cell[used] - 1, minlength=orphans.size * k).reshape(-1, k)
            density = np.divide(ones, owned, out=np.zeros(ones.shape), where=owned > 0)
            family[orphans] = np.argmax(density, axis=1)
        settled.append(CellAssignment(part_family=tuple((family + 1).tolist()), machine_cell=tuple(machine_cell.tolist())))
    return settled


def form_cells(
    model: SomModel, data: IncidenceMatrix, k_max: int, hits: HitHistogram | None = None
) -> CellAssignment:
    """Best assignment over a sweep of candidate cell counts.

    Tries every k from 2 up to min(k_max, units with hits, machines,
    parts): each k's unit clusters are row k - 1 of one ``cluster_basis``
    table, each part takes its BMU's cluster, then each candidate is
    settled (``_settle_sweep``) and all are scored in k order. The
    highest exact efficacy wins, ties going to the smaller k. A settled
    assignment that repeats an earlier k's cannot win that rule, so it is
    not scored again. If the sweep is empty (a single busy unit, say)
    everything lands in one cell.
    ``hits`` is ``compute_hits(model, data)``, computed here when not given.
    """
    _check_machines(model, data.machines)
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if hits is None:
        hits = compute_hits(model, data)
    busy_units = int((hits.hits > 0).sum())
    upper = min(k_max, busy_units, data.machines, data.parts)
    if upper < 2:
        return CellAssignment(part_family=(1,) * data.parts, machine_cell=(1,) * data.machines)
    basis = cluster_basis(model, hits, upper)
    families = [assign_parts(cluster_map(basis, k), hits) for k in range(2, upper + 1)]
    # dict keys keep first occurrences in order, and max keeps the first maximum
    distinct = dict.fromkeys(_settle_sweep(data, families))
    return max(distinct, key=lambda c: metrics.grouping_efficacy(metrics.count_blocks(data, c)))


def polish(data: IncidenceMatrix, assignment: CellAssignment) -> CellAssignment:
    """Alternate exact improvement steps at a fixed cell count until neither moves.

    The machines are re-split given the part families, then the parts given
    the machine cells (Goncalves & Resende 2004), each side through
    ``kernels.ascend_split``, so a side changes only on a strict rise in
    efficacy and the loop ends. Ids stay 1..k on both sides, and the result
    is its own fixed point. Each side's tally is one bincount over the
    matrix's ones.
    """
    values = data.values
    parts, machines = values.shape
    k = assignment.k
    hit, machine = np.nonzero(values)
    family = np.asarray(assignment.part_family) - 1
    cell = np.asarray(assignment.machine_cell) - 1
    while True:
        start = family, cell
        tally = np.bincount(family[hit] * machines + machine, minlength=k * machines).reshape(k, machines)
        cell = kernels.ascend_split(tally, np.bincount(family, minlength=k), cell)
        tally = np.bincount(cell[machine] * parts + hit, minlength=k * parts).reshape(k, parts)
        family = kernels.ascend_split(tally, np.bincount(cell, minlength=k), family)
        # ascend_split hands back the very array it was given when no step rose
        if family is start[0] and cell is start[1]:
            return CellAssignment(part_family=tuple((family + 1).tolist()), machine_cell=tuple((cell + 1).tolist()))


def build_view(assignment: CellAssignment) -> BlockDiagonalView:
    """Row/column orders sorted by (cell id, original index), boundaries at id changes."""
    part_family = np.asarray(assignment.part_family)
    machine_cell = np.asarray(assignment.machine_cell)
    row_order = np.argsort(part_family, kind="stable")
    col_order = np.argsort(machine_cell, kind="stable")
    # every id in 1..k is used on both sides, so each cell's run is its count
    p_ends, m_ends = (np.cumsum(np.bincount(ids)[1:]).tolist() for ids in (part_family, machine_cell))
    boundaries = zip(zip([0, *p_ends], p_ends), zip([0, *m_ends], m_ends))
    return BlockDiagonalView(tuple(row_order), tuple(col_order), tuple(boundaries))
