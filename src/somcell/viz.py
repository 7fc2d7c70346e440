"""Visual surfaces of a trained map and their SVG/CSV exporters.

Four surfaces: the U-matrix (codebook distance between adjacent units),
one component plane per machine, a hit histogram of where parts land, and
a two-component principal projection of parts and unit prototypes.

Heatmap SVGs share one grayscale ramp per figure (low = white, high =
black) with a numeric min/max legend. Hit and projection views take a
per-part cell id sequence and color by cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels, pca
from ._util import atomic_write_text
from .incidence import IncidenceMatrix, positional_labels
from .som import MapGrid, SomModel, _check_machines

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)


@dataclass(frozen=True, eq=False)
class UMatrix:
    """Adjacent-unit codebook distances plus their per-unit means."""

    grid: MapGrid
    pair_values: np.ndarray

    @property
    def pairs(self) -> np.ndarray:
        """The adjacent unit pairs ``pair_values`` follows, row for row."""
        return self.grid.neighbor_pairs

    @cached_property
    def unit_values(self) -> np.ndarray:
        """Per unit, the mean of its incident pair values (0 with no pairs)."""
        # first ends, then second ends: bincount adds in index order, so each unit
        # sums its pairs as it is their first end, then as their second
        ends = self.pairs.T.ravel()
        units = self.grid.units
        totals = np.bincount(ends, weights=np.tile(self.pair_values, 2), minlength=units)
        counts = np.bincount(ends, minlength=units)
        # a one-unit grid has no pairs, and a weighted bincount of nothing is int64
        return np.divide(totals, counts, out=np.zeros(units), where=counts > 0)


@dataclass(frozen=True, eq=False)
class ComponentPlane:
    """One codebook column rendered over the lattice."""

    grid: MapGrid
    label: str
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class HitHistogram:
    """Per-unit sample counts plus which part landed where."""

    grid: MapGrid
    bmus: np.ndarray

    @cached_property
    def hits(self) -> np.ndarray:
        """Parts per unit."""
        return np.bincount(self.bmus, minlength=self.grid.units).astype(np.int64)

    def unit_labels(self) -> tuple[tuple[str, ...], ...]:
        """Part labels grouped by their BMU, one tuple per unit."""
        out: list[list[str]] = [[] for _ in range(self.grid.units)]
        for label, unit in zip(positional_labels("p", len(self.bmus)), self.bmus):
            out[int(unit)].append(label)
        return tuple(tuple(labels) for labels in out)


@dataclass(frozen=True, eq=False)
class Projection:
    """Parts and unit prototypes dropped onto the top two principal components."""

    grid: MapGrid
    part_points: np.ndarray
    unit_points: np.ndarray
    eigenvalues: np.ndarray


def compute_umatrix(model: SomModel) -> UMatrix:
    """Codebook distance for every adjacent unit pair; unit value = mean of its incident pairs."""
    pairs = model.grid.neighbor_pairs
    diffs = model.codebook[pairs[:, 0]] - model.codebook[pairs[:, 1]]
    return UMatrix(grid=model.grid, pair_values=np.linalg.norm(diffs, axis=1))


def component_planes(model: SomModel) -> list[ComponentPlane]:
    """One plane per input feature, in feature order, labelled ``m1..mM``."""
    return [
        ComponentPlane(grid=model.grid, label=label, values=model.codebook[:, j].copy())
        for j, label in enumerate(positional_labels("m", model.input_dim))
    ]


def compute_hits(model: SomModel, data: IncidenceMatrix) -> HitHistogram:
    """Map every part to its BMU and count arrivals per unit."""
    _check_machines(model, data.machines)
    return HitHistogram(grid=model.grid, bmus=kernels.batch_bmu(model.codebook, data.values))


def pca_project(model: SomModel, data: IncidenceMatrix) -> Projection:
    """Project parts and unit prototypes onto the data's principal plane.

    The axes are ``pca.principal_plane``'s as it returns them, signs
    included: the rows ``init_codebook`` lays the map out along, so an
    untrained map projects in its layout's order. The data mean maps to the
    origin. Parts that are all identical span no plane and raise.
    """
    _check_machines(model, data.machines)
    mean, centered, lam, axes = pca.principal_plane(data.values)
    if axes is None:
        raise ValueError("parts are all identical; nothing to project")
    return Projection(
        grid=model.grid,
        part_points=centered @ axes.T,
        unit_points=(model.codebook - mean) @ axes.T,
        eigenvalues=lam,
    )


# ---------------------------------------------------------------------------
# SVG rendering. Hand-rolled: the figures are simple enough that a template
# beats a drawing dependency.

_CELL = 42.0  # pixel distance between adjacent unit centers
_MARGIN = 30.0
_FOOTER = 56.0
_HEX_RADIUS = _CELL / math.sqrt(3.0) * 0.98
_GRAYS = tuple(f"rgb({g},{g},{g})" for g in range(256))


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, as ``xml.sax.saxutils.escape``
    writes them (which would load the network stack along with ``xml.sax``)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _hex_points(cx: float, cy: float, radius: float) -> str:
    pts = []
    for i in range(6):
        ang = math.radians(60 * i + 30)
        pts.append(f"{cx + radius * math.cos(ang):.2f},{cy + radius * math.sin(ang):.2f}")
    return " ".join(pts)


def _ramp_fills(values, lo: float, hi: float) -> list[str]:
    """Grayscale fill per value on a ramp from ``lo`` (white) to ``hi`` (black).

    Values must lie in [lo, hi]; when ``hi <= lo`` every fill is mid-gray.
    np.rint rounds half to even, as round() does.
    """
    values = np.asarray(values, dtype=np.float64)
    t = np.full(values.shape, 0.5) if hi <= lo else (values - lo) / (hi - lo)
    return [_GRAYS[g] for g in np.rint(255 * (1.0 - t)).astype(np.int64).tolist()]


def _cell_color(cell_id: int) -> str:
    return _PALETTE[(int(cell_id) - 1) % len(_PALETTE)]


def _svg_document(width: float, height: float, body: list[str], title: str) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    caption = (
        f'<text x="{_MARGIN:.1f}" y="{height - _FOOTER + 24:.1f}" '
        f'font-family="sans-serif" font-size="13">{_escape(title)}</text>'
    )
    return "\n".join([head, f'<rect width="100%" height="100%" fill="white"/>', *body, caption, "</svg>"]) + "\n"


def _legend(x: float, y: float, lo: float, hi: float) -> list[str]:
    parts = []
    for offset, val, fill in ((0.0, lo, "white"), (120.0, hi, "black")):
        parts.append(
            f'<rect x="{x + offset:.1f}" y="{y:.1f}" width="16" height="16" '
            f'fill="{fill}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x + offset + 22:.1f}" y="{y + 13:.1f}" '
            f'font-family="sans-serif" font-size="12">{val:.4f}</text>'
        )
    return parts


@lru_cache(maxsize=32)
def _lattice_canvas(grid: MapGrid):
    """Unit center pixels (read-only) and the canvas size of a lattice figure."""
    coords = grid.coords * _CELL
    xs = coords[:, 0] + _MARGIN + _CELL / 2
    ys = coords[:, 1] + _MARGIN + _CELL / 2
    xs.flags.writeable = ys.flags.writeable = False
    width = xs.max() + _CELL / 2 + _MARGIN
    height = ys.max() + _CELL / 2 + _MARGIN + _FOOTER
    return xs, ys, width, height


@lru_cache(maxsize=32)
def _unit_hexagons(grid: MapGrid) -> tuple[str, ...]:
    """Polygon points of a hexagon around every unit center, in unit order."""
    xs, ys, _, _ = _lattice_canvas(grid)
    return tuple(_hex_points(x, y, _HEX_RADIUS) for x, y in zip(xs.tolist(), ys.tolist()))


@lru_cache(maxsize=32)
def _heatmap_template(grid: MapGrid, with_pairs: bool) -> str:
    """The polygons of a heatmap, one per line, with a ``%s`` slot for each fill:
    a hexagon per unit, then (``with_pairs``) a small one at the midpoint of
    every ``grid.neighbor_pairs`` row."""
    polygons = [
        f'<polygon points="{points}" fill="%s" stroke="#666" stroke-width="0.6"/>'
        for points in _unit_hexagons(grid)
    ]
    if with_pairs:
        xs, ys, _, _ = _lattice_canvas(grid)
        xs, ys = xs.tolist(), ys.tolist()
        polygons += [
            f'<polygon points="{_hex_points((xs[a] + xs[b]) / 2, (ys[a] + ys[b]) / 2, _HEX_RADIUS * 0.52)}" '
            'fill="%s" stroke="#888" stroke-width="0.4"/>'
            for a, b in grid.neighbor_pairs.tolist()
        ]
    return "\n".join(polygons)


def _heatmap_svg(grid: MapGrid, unit_values, title: str, pair_values=None) -> str:
    """Hex heatmap over the lattice; ``pair_values`` (one per ``grid.neighbor_pairs``
    row) adds small hexes at the pair midpoints on the same ramp."""
    _, _, width, height = _lattice_canvas(grid)
    values = np.asarray(unit_values, dtype=np.float64)
    if pair_values is not None:
        values = np.concatenate([values, np.asarray(pair_values, dtype=np.float64)])
    lo, hi = float(values.min()), float(values.max())
    body = [
        _heatmap_template(grid, pair_values is not None) % tuple(_ramp_fills(values, lo, hi)),
        *_legend(_MARGIN, height - _FOOTER + 34, lo, hi),
    ]
    return _svg_document(width, height, body, title)


def unit_cells_from_hits(hits: HitHistogram, part_cells) -> np.ndarray:
    """Cell id per unit, majority vote of its parts' cells (ties to the smaller id).

    Units with no hits get 0; indexing the result with
    ``nearest_hit_units(model, hits)`` fills them in.
    """
    part_cells = np.asarray(part_cells, dtype=np.int64)
    if part_cells.shape[0] != hits.bmus.shape[0]:
        raise ValueError("need one cell id per part")
    ids, inverse = np.unique(part_cells, return_inverse=True)
    # (units x (1 + ids)) vote counts; column 0 stands for "no hits" and
    # wins only on an all-zero row, and argmax takes the first maximum, so
    # ties go to the smaller id (unique sorts ids)
    votes = np.zeros((hits.grid.units, ids.size + 1), dtype=np.int64)
    np.add.at(votes, (hits.bmus, inverse + 1), 1)
    return np.concatenate([[0], ids])[votes.argmax(axis=1)]


def nearest_hit_units(model: SomModel, hits: HitHistogram) -> np.ndarray:
    """Per unit, the nearest unit with hits in codebook space: the unit
    itself when it has hits, else the nearest hit unit (ties to the lower
    unit index)."""
    hit_units = np.flatnonzero(hits.hits > 0)
    hitless = np.flatnonzero(hits.hits == 0)
    points, centers = model.codebook[hitless], model.codebook[hit_units]
    best = kernels.nearest_rows(points, centers)
    nearest = np.arange(model.grid.units, dtype=np.int64)
    nearest[hitless] = hit_units[best]
    return nearest


def _hits_svg(hits: HitHistogram, part_cells) -> str:
    xs, ys, width, height = _lattice_canvas(hits.grid)
    counts = hits.hits
    unit_cells = unit_cells_from_hits(hits, part_cells)
    labels = hits.unit_labels()
    hexagons = _unit_hexagons(hits.grid)
    body = []
    for u in range(hits.grid.units):
        points = hexagons[u]
        if counts[u] == 0:
            # interpolative unit: hollow
            body.append(
                f'<polygon points="{points}" fill="none" stroke="#999" '
                f'stroke-width="0.8" stroke-dasharray="3,2"/>'
            )
            continue
        # a unit with hits has a majority cell
        fill = _cell_color(unit_cells[u])
        body.append(f'<polygon points="{points}" fill="{fill}" stroke="#666" stroke-width="0.6"/>')
        body.append(
            f'<text x="{xs[u]:.1f}" y="{ys[u] - 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="white">{int(counts[u])}</text>'
        )
        if labels[u]:
            shown = ",".join(labels[u])
            body.append(
                f'<text x="{xs[u]:.1f}" y="{ys[u] + 10:.1f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="6.5" fill="white">{_escape(shown)}</text>'
            )
    return _svg_document(width, height, body, "hit histogram (parts per unit; hollow = no hits)")


def _projection_svg(proj: Projection, part_cells) -> str:
    pts = np.vstack([proj.unit_points, proj.part_points])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = 480.0 / span.max()
    parts = proj.part_points.shape[0]
    cells = np.asarray(part_cells, dtype=np.int64)
    if cells.shape[0] != parts:
        raise ValueError("need one cell id per part")
    fills = [_cell_color(c) for c in cells.tolist()]
    # x grows with the first component, y is flipped so the second points up
    xs = (_MARGIN + (pts[:, 0] - lo[0]) * scale).tolist()
    ys = (_MARGIN + (hi[1] - pts[:, 1]) * scale).tolist()
    units = proj.unit_points.shape[0]
    width = _MARGIN * 2 + span[0] * scale
    height = _MARGIN * 2 + span[1] * scale + _FOOTER
    body = [
        f'<line x1="{xs[a]:.1f}" y1="{ys[a]:.1f}" x2="{xs[b]:.1f}" y2="{ys[b]:.1f}" stroke="#ccc" stroke-width="0.7"/>'
        for a, b in proj.grid.neighbor_pairs.tolist()
    ]
    body += [f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.6" fill="#aaa"/>' for x, y in zip(xs[:units], ys[:units])]
    # positional part labels (p1, p2, ...) hold nothing to escape
    body += [
        f'<circle cx="{x:.1f}" cy="{y:.1f}" r="5" fill="{fill}" stroke="black" stroke-width="0.6"/>\n'
        f'<text x="{x + 7:.1f}" y="{y + 4:.1f}" font-family="sans-serif" font-size="11">{label}</text>'
        for label, x, y, fill in zip(positional_labels("p", parts), xs[units:], ys[units:], fills)
    ]
    title = (
        "principal projection of parts (dots) and prototypes (gray net); "
        f"component variances {proj.eigenvalues[0]:.3f}, {proj.eigenvalues[1]:.3f}"
    )
    return _svg_document(width, height, body, title)


def export_svg(surface, path, part_cells=None) -> None:
    """Write any surface as a standalone SVG file (written atomically).

    Hit and projection views need ``part_cells`` (one cell id per part) and
    color by cell; heatmap surfaces ignore it.
    """
    if isinstance(surface, UMatrix):
        text = _heatmap_svg(
            surface.grid, surface.unit_values, "u-matrix (codebook distance between neighbors)", surface.pair_values
        )
    elif isinstance(surface, ComponentPlane):
        text = _heatmap_svg(surface.grid, surface.values, f"component plane {surface.label}")
    elif not isinstance(surface, (HitHistogram, Projection)):
        raise TypeError(f"cannot render {type(surface).__name__} as SVG")
    elif part_cells is None:
        raise ValueError(f"a {type(surface).__name__} view needs part_cells, one cell id per part")
    elif isinstance(surface, HitHistogram):
        text = _hits_svg(surface, part_cells)
    else:
        text = _projection_svg(surface, part_cells)
    atomic_write_text(path, text)


def export_scatter_data(model: SomModel, data: IncidenceMatrix, assignment, path, hits: HitHistogram) -> None:
    """CSV of part rows and codebook prototypes tagged with cell ids.

    Columns: source (data/prototype), label, one column per machine, cell.
    Part rows carry their family id from ``assignment``; prototype rows
    carry the majority family of their parts, and units with no parts
    inherit from the nearest hit unit in codebook space. ``hits`` is
    ``compute_hits(model, data)``.
    """
    part_cells = np.asarray(assignment.part_family, dtype=np.int64)
    unit_cells = unit_cells_from_hits(hits, part_cells)[nearest_hit_units(model, hits)]

    # every data row's entries as "d," pairs, rendered from one buffer of ASCII bytes
    width = 2 * data.machines
    buf = np.full((data.parts, width), ord(","), dtype=np.uint8)
    buf[:, 0::2] = data.values + ord("0")
    entries = buf.tobytes().decode("ascii")
    lines = [f"source,label,{','.join(positional_labels('m', model.input_dim))},cell"]
    lines += [
        f"data,{label},{entries[i * width:(i + 1) * width]}{cell}"
        for i, (label, cell) in enumerate(zip(positional_labels("p", part_cells.size), part_cells.tolist()))
    ]
    # a Python float's repr is what csv.writer writes for it (the shortest
    # round-trip form), and no field here ever needs quoting
    lines += [
        f"prototype,{label},{','.join(map(repr, row))},{cell}"
        for label, row, cell in zip(
            positional_labels("u", unit_cells.size), model.codebook.tolist(), unit_cells.tolist()
        )
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")
