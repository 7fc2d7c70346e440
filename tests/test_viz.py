"""Map surfaces and their SVG/CSV exports."""
import csv
import io
import math
from xml.sax.saxutils import escape as xml_escape

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import QUALITY_RUN_SEEDS, clustered_maps, fill_hitless_reference, quality_family
from somcell import (
    CellAssignment,
    IncidenceMatrix,
    MapGrid,
    SomModel,
    component_planes,
    compute_hits,
    compute_umatrix,
    export_scatter_data,
    export_svg,
    init_codebook,
    pca_project,
    unit_cells_from_hits,
)
from somcell import pca, viz
from somcell.cli import train_map
from somcell.viz import HitHistogram, _ramp_fills, nearest_hit_units


def _model_with(codebook, grid=None):
    codebook = np.asarray(codebook, dtype=np.float64)
    grid = grid or MapGrid(1, codebook.shape[0])
    return SomModel(grid=grid, codebook=codebook, seed=0)


def test_umatrix_of_two_units_is_their_distance():
    model = _model_with([[0.0, 0.0], [3.0, 4.0]])
    um = compute_umatrix(model)
    assert um.pairs.tolist() == [[0, 1]]
    assert um.pair_values.tolist() == [5.0]
    assert um.unit_values.tolist() == [5.0, 5.0]


def test_umatrix_of_one_unit_is_zero():
    # a 1x1 grid has no adjacent pairs, so its one unit has nothing to average
    um = compute_umatrix(_model_with([[1.0, 2.0]]))
    assert um.pairs.shape == (0, 2) and um.pair_values.size == 0
    assert um.unit_values.dtype == np.float64 and um.unit_values.tolist() == [0.0]


def test_umatrix_values_are_nonnegative_means_of_incident_pairs():
    rng = np.random.default_rng(3)
    grid = MapGrid(4, 4)
    model = _model_with(rng.normal(size=(16, 5)), grid)
    um = compute_umatrix(model)
    assert (um.pair_values >= 0).all()
    # spot-check one unit against a direct mean
    unit = 5
    mask = (um.pairs == unit).any(axis=1)
    assert um.unit_values[unit] == pytest.approx(um.pair_values[mask].mean())


def test_component_planes_expose_codebook_columns():
    model = _model_with([[1.0, 2.0], [3.0, 4.0]])
    planes = component_planes(model)
    assert [p.label for p in planes] == ["m1", "m2"]
    assert planes[0].values.tolist() == [1.0, 3.0]
    assert planes[1].values.tolist() == [2.0, 4.0]


@pytest.mark.parametrize(
    "values, planted",
    [pytest.param(values, planted, id=name) for name, values, planted in quality_family()
     if name.endswith("-noise15") and values.shape[0] <= 400],
)
def test_component_planes_of_one_cell_look_alike(values, planted):
    # the paper's "visually decipherable" planes: on the default map, each
    # planted machine cell's planes correlate with one another, on average,
    # more than with the planes of any other cell
    model = train_map(IncidenceMatrix.from_array(values), QUALITY_RUN_SEEDS[0])
    r = np.corrcoef([plane.values for plane in component_planes(model)])
    cell = np.array(planted.machine_cell)
    for c in range(1, cell.max() + 1):
        members = cell == c
        within = r[np.ix_(members, members)][~np.eye(members.sum(), dtype=bool)].mean()
        for d in range(1, cell.max() + 1):
            if d != c:
                assert within > r[np.ix_(members, cell == d)].mean(), (c, d)


def test_compute_hits_counts_and_labels(problem1):
    model = init_codebook(MapGrid(4, 4), problem1, seed=0)
    hits = compute_hits(model, problem1)
    assert hits.hits.sum() == problem1.parts
    assert hits.bmus.shape == (problem1.parts,)
    grouped = hits.unit_labels()
    assert sum(len(g) for g in grouped) == problem1.parts
    assert grouped[hits.bmus[0]].count("p1") == 1


def test_pca_project_separates_two_obvious_groups():
    data = IncidenceMatrix.from_array(
        [[1, 1, 1, 0, 0, 0], [1, 1, 1, 0, 0, 0], [1, 0, 1, 0, 0, 0],
         [0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1]]
    )
    model = init_codebook(MapGrid(3, 3), data, seed=1)
    proj = pca_project(model, data)
    a = proj.part_points[:3, 0]
    b = proj.part_points[3:, 0]
    assert a.mean() * b.mean() < 0  # opposite sides of the origin
    assert proj.part_points.shape == (6, 2)
    assert proj.unit_points.shape == (9, 2)
    assert proj.eigenvalues[0] >= proj.eigenvalues[1] > 0


def test_pca_project_sign_ignores_float_noise_in_tied_loadings(problem1, monkeypatch):
    # 8 of the demo's 10 first-axis loadings share one magnitude, so a sign
    # keyed on the largest of them could flip on a last-bit nudge. Here the
    # solver hands back every eigenvector negated, with one tied loading of
    # each axis nudged; top_eigenpairs' reference dot product must orient
    # them back, so the points move by the nudge alone
    model = init_codebook(MapGrid(4, 4), problem1, seed=0)
    reference = pca_project(model, problem1)
    solver = np.linalg.eigh

    def flipped(sym):
        values, vectors = solver(sym)
        vectors = -vectors
        vectors[3, -2:] += 1e-12  # eigh's columns ascend, so the last two are the plane
        return values, vectors

    monkeypatch.setattr(pca.np.linalg, "eigh", flipped)
    flipped_proj = pca_project(model, problem1)
    assert np.allclose(flipped_proj.part_points, reference.part_points, rtol=0, atol=1e-9)
    assert np.allclose(flipped_proj.unit_points, reference.unit_points, rtol=0, atol=1e-9)


@pytest.mark.parametrize("rows, cols", [(4, 3), (12, 10), (3, 4)])
def test_untrained_map_projects_in_its_layout_order(problem1, rows, cols):
    # init_codebook lays the longer grid side along the first principal
    # axis and the shorter along the second; the projection draws on the
    # same axes, so x rises with the major index and y with the minor one
    grid = MapGrid(rows, cols)
    proj = pca_project(init_codebook(grid, problem1, seed=0), problem1)
    r, c = np.divmod(np.arange(grid.units), cols)
    major, minor = (r, c) if rows >= cols else (c, r)
    for axis, index in ((0, major), (1, minor)):
        assert np.corrcoef(proj.unit_points[:, axis], index)[0, 1] > 0.999


def test_pca_project_rejects_identical_parts():
    data = IncidenceMatrix.from_array(np.ones((4, 3)))
    model = _model_with(np.ones((2, 3)))
    with pytest.raises(ValueError):
        pca_project(model, data)


def test_pca_project_needs_two_machines():
    # a one-machine matrix is all ones, so its parts are identical
    model = _model_with([[0.0], [1.0]])
    with pytest.raises(ValueError, match="parts are all identical"):
        pca_project(model, IncidenceMatrix.from_array(np.ones((3, 1))))


def test_unit_cells_majority_tie_and_empty_rules():
    grid = MapGrid(1, 3)
    hits = HitHistogram(
        grid=grid,
        bmus=np.array([0, 0, 0, 1, 1]),
    )
    # unit 0 majority cell 2; unit 1 ties 1 vs 2 so the smaller id wins
    cells = unit_cells_from_hits(hits, [2, 2, 1, 1, 2])
    assert cells.tolist() == [2, 1, 0]
    with pytest.raises(ValueError):
        unit_cells_from_hits(hits, [1, 2])



def unit_cells_reference(units, bmus, part_cells):
    """Per-unit loop: one np.unique over the unit's parts, first maximum count."""
    out = np.zeros(units, dtype=np.int64)
    for u in range(units):
        members = part_cells[bmus == u]
        if members.size:
            ids, counts = np.unique(members, return_counts=True)
            out[u] = int(ids[np.argmax(counts)])
    return out


@st.composite
def voted_hits(draw):
    """(hits, part cells) with tied votes, gappy ids and units without hits."""
    units, parts = draw(st.integers(1, 12)), draw(st.integers(0, 40))
    pool = draw(
        st.sampled_from([(1,), (1, 2), (3, 7, 9), (1, 2, 3, 4, 5)])
        | st.lists(st.integers(-3, 300), min_size=1, max_size=6, unique=True).map(tuple)
    )
    bmus = draw(arrays(np.int64, parts, elements=st.integers(0, units - 1)))
    cells = draw(arrays(np.int64, parts, elements=st.sampled_from(pool)))
    hits = HitHistogram(
        grid=MapGrid(1, units),
        bmus=bmus,
    )
    return hits, cells


@settings(max_examples=300, deadline=None, derandomize=True)
@given(voted_hits())
def test_unit_cells_from_hits_matches_per_unit_loop(case):
    hits, cells = case
    got = unit_cells_from_hits(hits, cells)
    want = unit_cells_reference(hits.grid.units, hits.bmus, cells)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert (got[hits.hits == 0] == 0).all()



def ramp_fill_reference(value, lo, hi):
    """Scalar grayscale ramp: round() of 255 * (1 - t), mid-gray when hi <= lo."""
    t = 0.5 if hi <= lo else (value - lo) / (hi - lo)
    g = int(round(255 * (1.0 - t)))
    return f"rgb({g},{g},{g})"


# (count, highest count) pairs whose ramp position 255 * (1 - count / highest)
# is exactly an integer plus one half in float64
HALFWAY_COUNTS = [
    (v, hi) for hi in range(1, 61) for v in range(hi + 1) if (255 * (1.0 - v / hi)) % 1 == 0.5
]


@st.composite
def ramp_inputs(draw):
    """(values, lo, hi) as the heatmap and hit views pass them."""
    kind = draw(st.sampled_from(["floats", "counts", "halfway", "flat"]))
    size = st.integers(1, 30)
    if kind == "floats":
        elements = st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False) | st.sampled_from([0.0, 0.5, 1.0, 2.0])
        values = draw(arrays(np.float64, size, elements=elements))
        return values, float(values.min()), float(values.max())
    if kind == "flat":
        value = draw(st.floats(-1e6, 1e6, allow_nan=False))
        return np.full(draw(size), value), value, value
    if kind == "counts":
        hi = draw(st.integers(1, 600))
        return draw(arrays(np.int64, size, elements=st.integers(0, hi))), 0.0, float(hi)
    v, hi = draw(st.sampled_from(HALFWAY_COUNTS))
    others = draw(arrays(np.int64, size, elements=st.integers(0, hi)))
    return np.append(others, v), 0.0, float(hi)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ramp_inputs())
def test_ramp_fills_match_scalar_round(case):
    values, lo, hi = case
    assert _ramp_fills(values, lo, hi) == [ramp_fill_reference(float(v), lo, hi) for v in values]


def test_ramp_fills_round_half_to_even():
    # 255 * (1 - 1/6) = 212.5 rounds down, 255 * (1 - 3/6) = 127.5 up
    assert _ramp_fills([1, 3], 0.0, 6.0) == ["rgb(212,212,212)", "rgb(128,128,128)"]
    assert _ramp_fills([3.0, 3.0], 3.0, 3.0) == ["rgb(128,128,128)"] * 2


@st.composite
def partly_hit_maps(draw):
    """(model, hits, unit ids) with coinciding and equidistant codebook rows."""
    units, dim = draw(st.integers(1, 20)), draw(st.integers(1, 4))
    elements = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    codebook = draw(arrays(np.float64, (units, dim), elements=elements))
    counts = draw(arrays(np.int64, units, elements=st.integers(0, 2)))
    counts[draw(st.integers(0, units - 1))] += 1  # at least one hit unit
    grid = MapGrid(1, units)
    hits = HitHistogram(
        grid=grid,
        bmus=np.repeat(np.arange(units), counts),
    )
    ids = draw(arrays(np.int64, units, elements=st.integers(0, 9)))
    return _model_with(codebook, grid), hits, ids


@settings(max_examples=200, deadline=None, derandomize=True)
@given(partly_hit_maps())
def test_fill_hitless_units_matches_per_unit_loop(case):
    # export_scatter_data fills its hitless units by this gather
    model, hits, ids = case
    got = ids[nearest_hit_units(model, hits)]
    want = fill_hitless_reference(model.codebook, hits.hits, ids)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert (got[hits.hits > 0] == ids[hits.hits > 0]).all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(clustered_maps())
def test_nearest_hit_units_match_pairwise_sum_reference(case):
    model, hits, _ = case
    got = nearest_hit_units(model, hits)
    want = fill_hitless_reference(model.codebook, hits.hits, np.arange(model.grid.units))
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_export_svg_writes_all_surface_kinds(tmp_path, problem1):
    grid = MapGrid(4, 4)
    model = init_codebook(grid, problem1, seed=0)
    hits = compute_hits(model, problem1)
    surfaces = {
        "umatrix.svg": compute_umatrix(model),
        "plane.svg": component_planes(model)[0],
        "hits.svg": hits,
        "proj.svg": pca_project(model, problem1),
    }
    for name, surface in surfaces.items():
        path = tmp_path / name
        export_svg(surface, path, part_cells=[1] * 5 + [2] * 5)
        text = path.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert 'xmlns="http://www.w3.org/2000/svg"' in text
    # grid has 16 units, so 16 filled or hollow hexes at least
    assert path.read_text().count("<circle") >= problem1.parts + grid.units


def test_export_svg_hexagon_count_matches_grid(tmp_path, problem1):
    grid = MapGrid(4, 4)
    model = init_codebook(grid, problem1, seed=0)
    path = tmp_path / "plane.svg"
    export_svg(component_planes(model)[0], path)
    body = path.read_text()
    assert body.count("<polygon") >= grid.units


def test_export_svg_categorical_palette_with_cells(tmp_path, problem1):
    grid = MapGrid(4, 4)
    model = init_codebook(grid, problem1, seed=0)
    hits = compute_hits(model, problem1)
    path = tmp_path / "hits.svg"
    export_svg(hits, path, part_cells=[1] * 5 + [2] * 5)
    assert "#1f77b4" in path.read_text()


def test_export_svg_rejects_unknown_surface(tmp_path):
    with pytest.raises(TypeError):
        export_svg(42, tmp_path / "x.svg")


def test_export_svg_hit_and_projection_views_need_part_cells(tmp_path, problem1):
    model = init_codebook(MapGrid(4, 4), problem1, seed=0)
    for surface in (compute_hits(model, problem1), pca_project(model, problem1)):
        path = tmp_path / "view.svg"
        with pytest.raises(ValueError, match=f"{type(surface).__name__} view needs part_cells"):
            export_svg(surface, path)
        assert not path.exists()


def test_export_scatter_data_layout(tmp_path, problem1):
    grid = MapGrid(4, 4)
    model = init_codebook(grid, problem1, seed=0)
    assignment = CellAssignment(
        part_family=(1, 1, 2, 2, 2, 2, 2, 2, 2, 1),
        machine_cell=(2, 1, 2, 1, 2, 1, 1, 1, 2, 2),
    )
    path = tmp_path / "scatter.csv"
    export_scatter_data(model, problem1, assignment, path, compute_hits(model, problem1))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["source", "label", *problem1.machine_labels, "cell"]
    data_rows = [r for r in rows[1:] if r[0] == "data"]
    proto_rows = [r for r in rows[1:] if r[0] == "prototype"]
    assert len(data_rows) == problem1.parts
    assert len(proto_rows) == grid.units
    assert data_rows[0][1] == "p1" and data_rows[0][-1] == "1"
    assert {r[-1] for r in proto_rows} <= {"1", "2"}  # empty units inherit a cell
    assert all(v in ("0", "1") for v in data_rows[0][2:-1])


# ---------------------------------------------------------------------------
# Rendering references: the element-by-element writers the exporters had
# before they rendered in bulk. Each output must match them byte for byte.


def _canvas_reference(grid):
    coords = grid.coords * viz._CELL
    xs = coords[:, 0] + viz._MARGIN + viz._CELL / 2
    ys = coords[:, 1] + viz._MARGIN + viz._CELL / 2
    width = xs.max() + viz._CELL / 2 + viz._MARGIN
    height = ys.max() + viz._CELL / 2 + viz._MARGIN + viz._FOOTER
    return xs, ys, width, height


def _hex_points_reference(cx, cy, radius):
    pts = []
    for i in range(6):
        ang = math.radians(60 * i + 30)
        pts.append(f"{cx + radius * math.cos(ang):.2f},{cy + radius * math.sin(ang):.2f}")
    return " ".join(pts)


def _legend_reference(x, y, lo, hi):
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


def _svg_document_reference(width, height, body, title):
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    caption = (
        f'<text x="{viz._MARGIN:.1f}" y="{height - viz._FOOTER + 24:.1f}" '
        f'font-family="sans-serif" font-size="13">{xml_escape(title)}</text>'
    )
    return "\n".join([head, '<rect width="100%" height="100%" fill="white"/>', *body, caption, "</svg>"]) + "\n"


def heatmap_svg_reference(grid, unit_values, title, pair_values=None):
    """One f-string per polygon, unit hexes then pair-midpoint hexes."""
    xs, ys, width, height = _canvas_reference(grid)
    values = np.asarray(unit_values, dtype=np.float64)
    if pair_values is not None:
        values = np.concatenate([values, np.asarray(pair_values, dtype=np.float64)])
    lo, hi = float(values.min()), float(values.max())
    fills = [ramp_fill_reference(float(v), lo, hi) for v in values]
    xs, ys = xs.tolist(), ys.tolist()
    body = [
        f'<polygon points="{_hex_points_reference(x, y, viz._HEX_RADIUS)}" fill="{fill}" '
        'stroke="#666" stroke-width="0.6"/>'
        for x, y, fill in zip(xs, ys, fills)
    ]
    if pair_values is not None:
        for (a, b), fill in zip(grid.neighbor_pairs.tolist(), fills[grid.units:]):
            points = _hex_points_reference((xs[a] + xs[b]) / 2, (ys[a] + ys[b]) / 2, viz._HEX_RADIUS * 0.52)
            body.append(f'<polygon points="{points}" fill="{fill}" stroke="#888" stroke-width="0.4"/>')
    body += _legend_reference(viz._MARGIN, height - viz._FOOTER + 34, lo, hi)
    return _svg_document_reference(width, height, body, title)


def projection_svg_reference(proj, part_cells):
    """One ``to_px`` call per net end, prototype and part."""
    pts = np.vstack([proj.unit_points, proj.part_points])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = 480.0 / span.max()

    def to_px(p):
        return viz._MARGIN + (p[0] - lo[0]) * scale, viz._MARGIN + (hi[1] - p[1]) * scale

    width = viz._MARGIN * 2 + span[0] * scale
    height = viz._MARGIN * 2 + span[1] * scale + viz._FOOTER
    body = []
    for a, b in proj.grid.neighbor_pairs:
        xa, ya = to_px(proj.unit_points[a])
        xb, yb = to_px(proj.unit_points[b])
        body.append(
            f'<line x1="{xa:.1f}" y1="{ya:.1f}" x2="{xb:.1f}" y2="{yb:.1f}" '
            f'stroke="#ccc" stroke-width="0.7"/>'
        )
    for point in proj.unit_points:
        x, y = to_px(point)
        body.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.6" fill="#aaa"/>')
    for i, point in enumerate(proj.part_points):
        x, y = to_px(point)
        fill = viz._PALETTE[(int(part_cells[i]) - 1) % len(viz._PALETTE)]
        body.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="5" fill="{fill}" stroke="black" stroke-width="0.6"/>')
        body.append(
            f'<text x="{x + 7:.1f}" y="{y + 4:.1f}" font-family="sans-serif" '
            f'font-size="11">{xml_escape(f"p{i + 1}")}</text>'
        )
    title = (
        "principal projection of parts (dots) and prototypes (gray net); "
        f"component variances {proj.eigenvalues[0]:.3f}, {proj.eigenvalues[1]:.3f}"
    )
    return _svg_document_reference(width, height, body, title)


def scatter_csv_reference(model, rows, part_cells, unit_cells):
    """``csv.writer`` over one list per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "label", *(f"m{j + 1}" for j in range(model.input_dim)), "cell"])
    writer.writerows(
        ["data", f"p{i + 1}", *row, cell]
        for i, (row, cell) in enumerate(zip(rows.astype(np.int64).tolist(), part_cells.tolist()))
    )
    writer.writerows(
        ["prototype", f"u{u + 1}", *row, cell]
        for u, (row, cell) in enumerate(zip(model.codebook.tolist(), unit_cells.tolist()))
    )
    return buf.getvalue()


# 1x1, 1xn and nx1 grids, and larger ones
grids = st.builds(MapGrid, st.integers(1, 7), st.integers(1, 7))
# coarse values make ties; "flat" makes every value equal
coarse = st.sampled_from([0.0, 0.5, 1.0, -2.0]) | st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@st.composite
def heatmap_cases(draw):
    grid = draw(grids)
    pairs = grid.neighbor_pairs.shape[0]
    flat = draw(st.booleans())
    if flat:
        value = draw(coarse)
        unit_values = np.full(grid.units, value)
        pair_values = np.full(pairs, value)
    else:
        unit_values = draw(arrays(np.float64, grid.units, elements=coarse))
        pair_values = draw(arrays(np.float64, pairs, elements=coarse))
    title = draw(st.text(alphabet="ab &<>\"'=é", max_size=12))
    return grid, unit_values, title, pair_values if draw(st.booleans()) else None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(heatmap_cases())
def test_heatmap_svg_matches_per_polygon_reference(case):
    grid, unit_values, title, pair_values = case
    assert viz._heatmap_svg(grid, unit_values, title, pair_values) == heatmap_svg_reference(
        grid, unit_values, title, pair_values
    )


@st.composite
def projection_cases(draw):
    grid = draw(grids)
    parts = draw(st.integers(1, 25))
    elements = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-50, 50, allow_nan=False, allow_subnormal=False)
    if draw(st.booleans()):
        point = draw(arrays(np.float64, 2, elements=elements))
        unit_points, part_points = np.tile(point, (grid.units, 1)), np.tile(point, (parts, 1))
    else:
        unit_points = draw(arrays(np.float64, (grid.units, 2), elements=elements))
        part_points = draw(arrays(np.float64, (parts, 2), elements=elements))
    eigenvalues = draw(arrays(np.float64, 2, elements=st.floats(0, 100, allow_nan=False)))
    proj = viz.Projection(grid=grid, part_points=part_points, unit_points=unit_points, eigenvalues=eigenvalues)
    cells = draw(arrays(np.int64, parts, elements=st.integers(-3, 14)))
    return proj, cells


@settings(max_examples=150, deadline=None, derandomize=True)
@given(projection_cases())
def test_projection_svg_matches_per_point_reference(case):
    proj, cells = case
    assert viz._projection_svg(proj, cells) == projection_svg_reference(proj, cells)


@st.composite
def incidence_matrices(draw, max_parts, max_machines, min_parts=1, min_machines=1):
    """0/1 matrices with a one in every row and column: a drawn array whose
    empty rows and columns each get a one on a wrapped diagonal."""
    parts = draw(st.integers(min_parts, max_parts))
    machines = draw(st.integers(min_machines, max_machines))
    values = draw(arrays(np.uint8, (parts, machines), elements=st.integers(0, 1)))
    for i in np.flatnonzero(~values.any(axis=1)):
        values[i, i % machines] = 1
    for j in np.flatnonzero(~values.any(axis=0)):
        values[j % parts, j] = 1
    return IncidenceMatrix.from_array(values)


@st.composite
def scatter_cases(draw):
    grid = draw(grids)
    data = draw(incidence_matrices(12, 6))
    parts, machines = data.parts, data.machines
    elements = st.sampled_from([0.0, 0.5, 1.0, -0.0, 1e-7, 123456.789]) | st.floats(-1e6, 1e6, allow_nan=False)
    codebook = draw(arrays(np.float64, (grid.units, machines), elements=elements))
    k = draw(st.integers(1, min(parts, machines)))
    part_family = list(range(1, k + 1)) + draw(st.lists(st.integers(1, k), min_size=parts - k, max_size=parts - k))
    machine_cell = list(range(1, k + 1)) + draw(st.lists(st.integers(1, k), min_size=machines - k, max_size=machines - k))
    model = _model_with(codebook, grid)
    return model, data, CellAssignment(part_family=part_family, machine_cell=machine_cell)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=scatter_cases())
def test_scatter_csv_matches_csv_writer_reference(case, tmp_path_factory):
    model, data, assignment = case
    path = tmp_path_factory.mktemp("scatter") / "scatter.csv"
    hits = compute_hits(model, data)
    export_scatter_data(model, data, assignment, path, hits)
    part_cells = np.asarray(assignment.part_family, dtype=np.int64)
    unit_cells = unit_cells_from_hits(hits, part_cells)[nearest_hit_units(model, hits)]
    want = scatter_csv_reference(model, data.values, part_cells, unit_cells)
    assert path.read_bytes() == want.encode("utf-8")


@st.composite
def distinct_part_projections(draw):
    """(model, matrix) where the matrix has at least two distinct parts."""
    data = draw(incidence_matrices(12, 8, min_parts=2, min_machines=2))
    assume(np.unique(data.values, axis=0).shape[0] >= 2)
    grid = draw(grids)
    codebook = draw(arrays(np.float64, (grid.units, data.machines), elements=coarse))
    return _model_with(codebook, grid), data


@settings(max_examples=200, deadline=None, derandomize=True)
@given(distinct_part_projections())
def test_pca_project_of_distinct_parts_spans_a_plane(case):
    # parts that differ always span a plane: they vary in some machine
    # column, whose variance is then at least 1/parts, so the first
    # component's is at least 1/(parts * machines)
    model, data = case
    proj = pca_project(model, data)
    assert np.isfinite(proj.part_points).all() and np.isfinite(proj.unit_points).all()
    assert proj.eigenvalues[0] > 1e-12
    assert proj.eigenvalues[0] >= (1 - 1e-9) / (data.parts * data.machines)
