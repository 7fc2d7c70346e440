"""Cell extraction from a trained map.

Pipeline: cluster the codebook vectors of units that actually caught parts,
let every part inherit its BMU's cluster as a family, pull each machine
into the family that uses it most densely, dissolve families that end up
without machines, and sweep the cluster count, keeping the assignment with
the best grouping efficacy. The sweep clusters every cluster count first,
all from one Ward dendrogram of the busy units (``_ward_labels``), then
settles all the candidates together in lockstep rounds over one stacked
family tally (``_settle_sweep``), then scores them in order.
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
    return clusters[hits.bmus].copy()


def assign_machines(counts, sizes) -> np.ndarray:
    """Pull each machine into the family that uses it most densely.

    Row f stands for family id f + 1: ``counts[f, j]`` holds the ones in
    machine column j over that family's parts, as float64, and
    ``sizes[f]`` its part count. Density of machine j in family f is the
    mean of column j over f's parts. Exact ties go to the smaller family
    id. Idempotent by construction: it depends only on (values,
    part_family).
    """
    # argmax's first maximum keeps the smaller id on ties
    return np.argmax(counts / sizes[:, None], axis=0) + 1


def _relabel_by_size(
    candidate: np.ndarray, sizes: np.ndarray, ones: np.ndarray, first: np.ndarray
) -> np.ndarray:
    """The row order that renumbers each candidate's families 1..k: biggest first, then densest.

    Machine assignment breaks density ties toward the smaller family id, so
    this ordering makes a machine that is equally dense everywhere side
    with the largest (then fullest) family instead of collapsing onto a
    small or sparse one. Rows are stacked over the candidates of a sweep,
    so the candidate is the first key and each candidate's rows come out
    together, in candidate order. The other keys are each family's part
    count, its count of ones and its earliest part, which is unique within
    a candidate, so no two of its families tie.
    Ordering: candidate asc, size desc, ones desc, earliest part asc.
    """
    return np.lexsort((first, -ones, -sizes, candidate))  # last key sorts first


def _stacked_tally(values, part_families, starts, widths) -> np.ndarray:
    """Each candidate's ones per (family, machine), stacked as float64:
    row ``starts[i] + f`` is family f of candidate i, for f below
    ``widths[i]``, and ids a candidate does not use get rows of zeros.
    Each candidate is one bincount over the matrix's ones, found once.
    """
    machines = values.shape[1]
    hit, machine = np.nonzero(values)
    tally = np.empty((int(widths.sum()), machines))
    for family, start, width in zip(part_families, starts.tolist(), widths.tolist()):
        bins = family[hit]  # each one's (family, machine) bin, built in place
        bins *= machines
        bins += machine
        tally[start:start + width] = np.bincount(bins, minlength=width * machines).reshape(width, machines)
    return tally


def _densest_owners(
    at: np.ndarray, hit: np.ndarray, machine: np.ndarray, machine_cell: np.ndarray
) -> np.ndarray:
    """For each orphan part, the family (0-based) whose machines it uses most densely.

    Orphan i belongs to candidate ``at[i]``, whose machines' family ids
    (1-based) are ``machine_cell[at[i]]``; ``(hit, machine)`` lists the
    orphans' ones as (orphan, machine) pairs. Density is an orphan's ones in
    a family's machines over their count, and families that own no machine
    get -1, so argmax's first maximum is the smallest-id densest owner.
    """
    live, slots = machine_cell.shape[0], int(machine_cell.max())
    bins = machine_cell - 1 + slots * np.arange(live)[:, None]  # one per (candidate, family)
    owned = np.bincount(bins.ravel(), minlength=live * slots).reshape(live, slots).astype(np.float64)[at]
    bins = machine_cell[at[hit], machine] - 1  # each one's (orphan, family) bin, built in place
    bins += slots * hit
    density = np.bincount(bins, weights=np.ones(bins.size), minlength=owned.size).reshape(owned.shape)
    np.divide(density, owned, out=density, where=owned > 0)
    density[owned == 0] = -1
    return np.argmax(density, axis=1)


def _dissolve(values, row, gone, machine_cell, starts, counts, sizes, first) -> None:
    """Dissolve family ``gone[i]`` of each live candidate i, in place.

    ``row[i, p]`` is part p's tally row in candidate i, whose family f is
    row ``starts[i] + f - 1``, and ``machine_cell[i]`` its machines' family
    ids. Each orphan part moves to its densest owner, and its ones, its
    count and its index are added into that family's counts, size and
    earliest part.
    """
    at, orphans = np.nonzero(row == gone[:, None])  # each orphan's candidate and part
    hit, machine = np.nonzero(values[orphans])  # the orphans' ones
    to = starts[at] + _densest_owners(at, hit, machine, machine_cell)
    row[at, orphans] = to
    # counts is C-contiguous, so reshape(-1) is a view of it
    flat = to[hit]
    flat *= counts.shape[1]
    flat += machine
    np.add.at(counts.reshape(-1), flat, 1.0)
    np.add.at(sizes, to, 1)
    np.minimum.at(first, to, orphans)
    sizes[gone] = 0


def _settle_sweep(data: IncidenceMatrix, part_families) -> list[CellAssignment]:
    """Settle every candidate of a sweep: assign machines and dissolve
    machine-less families until each candidate is stable.

    Dissolving moves the orphan family's parts to whichever surviving
    family's machines they use most densely, then machines are
    re-assigned; each round removes one family, so this terminates. The
    returned ids are the canonical size-ordered ones, which keeps
    assign_machines idempotent on the result.

    The candidates settle in lockstep rounds over one stacked tally, one
    row per (candidate, family id), counted from the matrix's ones
    (``_stacked_tally``). Each round puts every live row in rank
    order at once, makes one ``assign_machines`` call per unsettled
    candidate on its rows, and dissolves the first machine-less family of
    every candidate that has one in one batched step. Tallies and
    densities are exact integers divided by exact integers, and argmax
    keeps the first maximum, so each candidate settles bit for bit as it
    would alone. ``part_families`` holds at least one candidate: a
    non-negative family id per part.
    """
    values = data.values
    parts = values.shape[0]
    # row[i, p] is part p's tally row in live candidate i, at first
    # starts[i] + its family id; the first round cuts unused ids' empty rows
    widths = np.array([int(family.max()) + 1 for family in part_families])
    starts = np.cumsum(widths) - widths
    row = np.stack(part_families)
    row += starts[:, None]
    counts = _stacked_tally(values, part_families, starts, widths)
    sizes = np.bincount(row.ravel(), minlength=counts.shape[0])
    ks = np.add.reduceat(sizes > 0, starts)  # each live candidate's family count
    candidate = np.repeat(np.arange(ks.size), widths)
    first = np.full(sizes.size, parts)
    # a flat index with a tiled b: numpy 2.4's ufunc.at reads past the end
    # of a 1-D b broadcast over a 2-D index
    np.minimum.at(first, row.ravel(), np.tile(np.arange(parts), ks.size))
    live = np.arange(ks.size)
    settled = [None] * ks.size
    while True:
        # a family's ones are its tally row's sum; dissolved families and
        # settled candidates' families have no parts left, so they are cut
        order = _relabel_by_size(candidate, sizes, counts.sum(axis=1), first)
        order = order[sizes[order] > 0]
        rank = np.empty_like(sizes)
        rank[order] = np.arange(order.size)
        row = rank[row]
        counts, sizes, first, candidate = counts[order], sizes[order], first[order], candidate[order]
        # family f of live candidate i is row starts[i] + f - 1
        starts = np.cumsum(ks) - ks
        machine_cell = np.stack([
            assign_machines(counts[s:s + k], sizes[s:s + k])
            for s, k in zip(starts.tolist(), ks.tolist())
        ])
        has_machines = np.zeros(order.size, dtype=bool)
        has_machines[machine_cell + (starts - 1)[:, None]] = True
        machineless = np.flatnonzero(~has_machines)
        # each candidate's first machine-less family leads its run of them
        lead = np.ones(machineless.size, dtype=bool)
        lead[1:] = candidate[machineless[1:]] != candidate[machineless[:-1]]
        gone = machineless[lead]
        unsettled = np.searchsorted(starts, gone, side="right") - 1
        done = np.ones(live.size, dtype=bool)
        done[unsettled] = False
        for i in np.flatnonzero(done).tolist():
            settled[live[i]] = CellAssignment(
                part_family=tuple((row[i] - (starts[i] - 1)).tolist()),
                machine_cell=tuple(machine_cell[i].tolist()),
            )
        if not unsettled.size:
            return settled
        sizes[np.repeat(done, ks)] = 0
        live, ks, row = live[unsettled], ks[unsettled] - 1, row[unsettled]
        _dissolve(values, row, gone, machine_cell[unsettled], starts[unsettled], counts, sizes, first)


def form_cells(
    model: SomModel, data: IncidenceMatrix, k_max: int, hits: HitHistogram | None = None
) -> CellAssignment:
    """Best assignment over a sweep of candidate cell counts.

    Tries every k from 2 up to min(k_max, units with hits, machines,
    parts): each k's unit clusters are row k - 1 of one ``cluster_basis``
    table, each part takes its BMU's cluster, then all candidates are
    settled together (``_settle_sweep``) and scored in k order. The
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
