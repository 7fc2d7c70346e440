"""Cell extraction from a trained map.

Pipeline: cluster the codebook vectors of units that actually caught parts,
let every part inherit its BMU's cluster as a family, pull each machine
into the family that uses it most densely, dissolve families that end up
without machines, and sweep the cluster count, keeping the assignment with
the best grouping efficacy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels, metrics
from .incidence import BlockDiagonalView, IncidenceMatrix
from .metrics import CellAssignment
from .som import SomModel, _check_machines
from .viz import HitHistogram, compute_hits, nearest_hit_units


def _farthest_first_order(points: np.ndarray, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices into ``points`` of the first ``count`` farthest-first centers,
    and the (points, count) squared distances from every point to each.

    The first is drawn from ``seed``; each next one is the point farthest
    from all chosen so far. The centers for any smaller count are a prefix
    of these (Gonzalez 1985), so one order serves a whole k-sweep, and the
    first ``k`` distance columns are k-means' first round for k.
    """
    rng = np.random.default_rng(seed)
    order = np.empty(count, dtype=np.int64)
    seed_d2 = np.empty((points.shape[0], count))
    nearest = np.full(points.shape[0], np.inf)
    for j in range(count):
        # argmax takes the first max, so ties go to the lowest index
        order[j] = np.argmax(nearest) if j else rng.integers(points.shape[0])
        seed_d2[:, j] = ((points - points[order[j]]) ** 2).sum(axis=1)
        np.minimum(nearest, seed_d2[:, j], out=nearest)
    return order, seed_d2


def _kmeans_labels(points: np.ndarray, centers: np.ndarray, first_d2: np.ndarray) -> np.ndarray:
    """Lloyd iterations from ``centers`` (updated in place) until the labels
    stop changing, at most 100 rounds. ``first_d2`` holds the squared
    distances from each point to each starting center. Every later round
    labels through ``kernels.nearest_rows``, whose answers are those of the
    pairwise sum ``first_d2`` was summed with."""
    k, dim = centers.shape
    labels = np.full(points.shape[0], -1, dtype=np.int64)
    flat_points = points.ravel()
    columns = np.arange(dim)
    norms = np.einsum("ij,ij->i", points, points)
    new_labels = np.argmin(first_d2, axis=1)  # ties to the lowest center index
    for _ in range(100):
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # bincount adds each (cluster, column) bin's weights in row order,
        # so each center is its members' in-order sum over their count
        bins = (labels[:, None] * dim + columns).ravel()
        sums = np.bincount(bins, weights=flat_points, minlength=k * dim).reshape(k, dim)
        sizes = np.bincount(labels, minlength=k)
        filled = sizes > 0  # an emptied cluster keeps its previous center
        centers[filled] = sums[filled] / sizes[filled, None]
        new_labels = kernels.nearest_rows(points, norms, centers)
    return labels


@dataclass(frozen=True, eq=False)
class ClusterBasis:
    """What clustering one map shares across k: the units with hits, their
    codebook rows, their farthest-first order, the squared distances from
    each of them to each seed in that order, and each unit's nearest unit
    with hits."""

    hit_units: np.ndarray
    points: np.ndarray
    order: np.ndarray
    seed_d2: np.ndarray
    nearest: np.ndarray


def cluster_basis(model: SomModel, hits: HitHistogram, k_max: int) -> ClusterBasis:
    """The basis for every k in 1..k_max; k_max may not exceed the units with hits."""
    hit_units = np.flatnonzero(hits.hits > 0)
    if not 1 <= k_max <= hit_units.size:
        raise ValueError(f"k must lie in 1..{hit_units.size} (units with hits)")
    points = model.codebook[hit_units]
    order, seed_d2 = _farthest_first_order(points, k_max, model.seed)
    return ClusterBasis(
        hit_units=hit_units,
        points=points,
        order=order,
        seed_d2=seed_d2,
        nearest=nearest_hit_units(model, hits),
    )


def cluster_map(basis: ClusterBasis, k: int) -> np.ndarray:
    """Cluster ids (1..k) for every map unit.

    k-means over the codebook rows of units with at least one hit:
    farthest-first seeding from the model seed, then Lloyd iterations until
    the labels stop changing (at most 100 rounds). Units with no hits
    inherit the cluster of the nearest hit unit in codebook space.
    ``basis`` is ``cluster_basis(model, hits, k_max)`` for some k_max >= k.
    """
    if not 1 <= k <= basis.order.size:
        raise ValueError(f"k must lie in 1..{basis.order.size} for this basis")
    labels = _kmeans_labels(basis.points, basis.points[basis.order[:k]], basis.seed_d2[:, :k])
    out = np.zeros(basis.nearest.size, dtype=np.int64)
    out[basis.hit_units] = labels + 1
    return out[basis.nearest]


def assign_parts(clusters, hits: HitHistogram) -> np.ndarray:
    """Each part takes the cluster id of its BMU."""
    clusters = np.asarray(clusters, dtype=np.int64)
    if clusters.shape[0] != hits.grid.units:
        raise ValueError("need one cluster id per unit")
    return clusters[hits.bmus].copy()


def assign_machines(tally) -> np.ndarray:
    """Pull each machine into the family that uses it most densely.

    ``tally`` is ``metrics.family_tally(values, part_family)``. Density of
    machine j in family f is the mean of column j over f's parts. Exact
    ties go to the smaller family id. Idempotent by construction: it
    depends only on (values, part_family).
    """
    ids, counts, sizes = tally
    # rows ascend by id, so argmax's first maximum keeps the smaller id on ties
    return ids[np.argmax(counts / sizes[:, None], axis=0)]


def _relabel_by_size(sizes: np.ndarray, ones: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The row order that renumbers the families 1..k: biggest first, then densest.

    Machine assignment breaks density ties toward the smaller family id, so
    this ordering makes a machine that is equally dense everywhere side
    with the largest (then fullest) family instead of collapsing onto a
    small or sparse one. The keys are each family's part count, its count
    of ones and its earliest part, which is unique, so no two families tie.
    Ordering: size desc, ones desc, earliest part asc.
    """
    return np.lexsort((first, -ones, -sizes))  # last key sorts first


def _settle_assignment(data: IncidenceMatrix, part_family: np.ndarray) -> CellAssignment:
    """Assign machines and dissolve machine-less families until stable.

    Dissolving moves the orphan family's parts to whichever surviving
    family's machines they use most densely, then machines are
    re-assigned; each round removes one family, so this terminates. The
    returned ids are the canonical size-ordered ones, which keeps
    assign_machines idempotent on the result.

    The parts are tallied once. Each round permutes the tally's rows into
    size order, and a dissolve adds the orphans' rows into their new
    families' rows; float64 sums of 0/1 are exact in any order, so this
    is the tally of the round's families, bit for bit.
    """
    values = data.values
    ids, counts, sizes = metrics.family_tally(values, part_family)
    row = np.searchsorted(ids, part_family)  # each part's tally row
    first = np.full(ids.size, row.size)
    np.minimum.at(first, row, np.arange(row.size))
    k = ids.size
    while True:
        # a family's ones are its tally row's sum; a dissolved family has no
        # parts left, so it sorts last and is cut
        order = _relabel_by_size(sizes, counts.sum(axis=1), first)[:k]
        rank = np.empty_like(sizes)
        rank[order] = np.arange(k)
        row = rank[row]
        counts, sizes, first = counts[order], sizes[order], first[order]
        machine_cell = assign_machines((np.arange(1, k + 1), counts, sizes))  # row f is family f + 1
        has_machines = np.bincount(machine_cell, minlength=k + 1)[1:] > 0
        if has_machines.all():
            break
        gone = int(np.argmin(has_machines))
        orphans = np.flatnonzero(row == gone)
        # one column per family that owns machines, ascending, so argmax's
        # first maximum keeps the smaller id on ties; float64 sums of 0/1
        # are exact and cannot wrap like uint8
        owners = np.flatnonzero(has_machines)
        onehot = (machine_cell[:, None] == owners[None, :] + 1).astype(np.float64)
        orphan_values = values[orphans].astype(np.float64)
        density = (orphan_values @ onehot) / onehot.sum(axis=0)
        to = owners[np.argmax(density, axis=1)]
        row[orphans] = to
        np.add.at(counts, to, orphan_values)
        np.add.at(sizes, to, 1)
        np.minimum.at(first, to, orphans)
        sizes[gone] = 0
        k -= 1
    return CellAssignment(part_family=tuple((row + 1).tolist()), machine_cell=tuple(machine_cell.tolist()))


def form_cells(
    model: SomModel, data: IncidenceMatrix, k_max: int, hits: HitHistogram | None = None
) -> CellAssignment:
    """Best assignment over a sweep of candidate cell counts.

    Tries every k from 2 up to min(k_max, units with hits, machines,
    parts); each candidate is clustered, settled, and scored, and the
    highest exact efficacy wins, ties going to the smaller k. A settled
    assignment that repeats an earlier k's cannot win that rule, so it is
    not scored again. If the sweep is empty (a single busy unit, say)
    everything lands in one cell.
    ``hits`` is ``compute_hits(model, data)``, computed here when not given.
    All candidates share one ``cluster_basis``.
    """
    _check_machines(model, data.machines)
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if hits is None:
        hits = compute_hits(model, data)
    busy_units = int((hits.hits > 0).sum())
    upper = min(k_max, busy_units, data.machines, data.parts)
    basis = cluster_basis(model, hits, upper)
    best: tuple[Fraction, CellAssignment] | None = None
    scored = set()
    for k in range(2, upper + 1):
        clusters = cluster_map(basis, k)
        candidate = _settle_assignment(data, assign_parts(clusters, hits))
        key = (candidate.part_family, candidate.machine_cell)
        if key in scored:
            continue
        scored.add(key)
        efficacy = metrics.grouping_efficacy(metrics.count_blocks(data, candidate))
        if best is None or efficacy > best[0]:
            best = (efficacy, candidate)
    if best is None:
        return CellAssignment(part_family=(1,) * data.parts, machine_cell=(1,) * data.machines)
    return best[1]


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
