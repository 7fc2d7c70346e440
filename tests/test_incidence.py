"""Matrix parsing, validation, views and rendering."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import parse_matrix_reference
from somcell import (
    BlockDiagonalView,
    IncidenceMatrix,
    MatrixFormatError,
    load_matrix,
    parse_matrix,
    render_block_diagonal,
)

GOOD = """\
# demo
2 3
1 0 1
0 1 0
"""


def test_parse_round_trip():
    m = parse_matrix(GOOD)
    assert m.parts == 2 and m.machines == 3
    assert m.values.tolist() == [[1, 0, 1], [0, 1, 0]]
    assert m.part_labels == ("p1", "p2")
    assert m.machine_labels == ("m1", "m2", "m3")


def test_parse_allows_comments_and_blanks_between_rows():
    text = "2 2\n1 0\n# note\n\n0 1\n# trailing comment\n"
    assert parse_matrix(text).values.tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "no header"),
        ("2\n1 0\n0 1\n", "header"),
        ("2 2\n1 0\n0 2\n", "0 or 1"),
        ("2 2\n1 0 1\n0 1\n", "expected 2"),
        ("2 2\n1 0\n", "expected 2 matrix rows"),
        ("2 2\n1 0\n0 1\n1 1\n", "after the last"),
        ("x y\n1 0\n0 1\n", "header"),
    ],
)
def test_parse_rejects_malformed_input(text, fragment):
    with pytest.raises(MatrixFormatError) as e:
        parse_matrix(text)
    assert fragment in str(e.value)


# str.split() and str.splitlines() treat more than spaces and "\n" as breaks
SPACES = [" ", " ", "  ", "\t", "\xa0", "\u3000", "\x1f"]
BREAKS = ["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
BAD_TOKENS = ["2", "-1", "x", "01", "1.0", "+1", "\u0661", "\uff11", "#", "0\x00"]


@st.composite
def matrix_texts(draw):
    """Small matrix texts, many of them well formed; the others get a bad
    header, row count, row width or token, or several of these at once."""
    faults = draw(st.sampled_from([set(), set(), {"header"}, {"rows"}, {"width"}, {"token"}, {"rows", "width", "token"}]))

    def fault(kind):
        return kind in faults and draw(st.booleans())

    p, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    header = f"{p} {m}"
    if fault("header"):
        header = draw(st.sampled_from([f"{p}", f"{p} {m} 1", "x y", f"0 {m}", f"{p} -1", f" +{p}\t0{m} ", f"{p}_0 {m}"]))
    lines = [header]
    for _ in range(draw(st.sampled_from([p + 1, p - 1, 0])) if fault("rows") else p):
        if draw(st.integers(0, 7)) == 7:
            lines.append(draw(st.sampled_from(["", "# note", "   ", "\xa0", "\u3000 ", "\xa0# 1", "#", " # 1 0"])))
        width = draw(st.sampled_from([m + 1, m - 1])) if fault("width") else m
        tokens = draw(st.lists(st.sampled_from("10"), min_size=width, max_size=width))
        if tokens and fault("token"):
            for i in draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width)):
                tokens[i] = draw(st.sampled_from(BAD_TOKENS))
        lines.append("".join(tok + draw(st.sampled_from(SPACES)) for tok in tokens))
    return "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)


def _parse_outcome(parse, text):
    try:
        values = parse(text).values
    except MatrixFormatError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", values.dtype, values.shape, values.tobytes())


@settings(max_examples=500, deadline=None, derandomize=True)
@given(matrix_texts())
@example("1 2\n1 0\n1 0 1\n")  # the row count is checked before the width
@example("1 2\n1 0\nx 1\n")  # ... and before the tokens
@example("2 3\n1 x 2\n1 1 1\n")  # the first bad token is named
@example("2 2\n1 0 1\n0 x\n")  # the first bad line wins
def test_parse_matches_token_loop_reference(text):
    assert _parse_outcome(parse_matrix, text) == _parse_outcome(parse_matrix_reference, text)


def test_parse_error_carries_line_number():
    with pytest.raises(MatrixFormatError) as e:
        parse_matrix("2 2\n1 0\n0 x\n")
    assert "line 3" in str(e.value)


def test_empty_row_and_column_rejected():
    with pytest.raises(ValueError):
        IncidenceMatrix.from_array(np.array([[1, 1], [0, 0]], dtype=np.uint8))
    with pytest.raises(ValueError):
        IncidenceMatrix.from_array(np.array([[1, 0], [1, 0]], dtype=np.uint8))


def test_from_array_rejects_non_binary_and_wrong_shape():
    with pytest.raises(ValueError):
        IncidenceMatrix.from_array(np.array([[1, 2], [1, 1]]))
    # a cast to uint8 would turn 0.5 into 0 and -1.0 into 255
    for bad in (0.5, 2.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="0 or 1"):
            IncidenceMatrix.from_array(np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(ValueError):
        IncidenceMatrix.from_array(np.ones(4, dtype=np.uint8))


def test_values_are_read_only():
    m = parse_matrix(GOOD)
    with pytest.raises(ValueError):
        m.values[0, 0] = 0


def test_transposed_swaps_axes_and_regenerates_labels():
    m = parse_matrix(GOOD)
    t = m.transposed()
    assert t.parts == 3 and t.machines == 2
    assert t.values.tolist() == [[1, 0], [0, 1], [1, 0]]
    assert t.part_labels == ("p1", "p2", "p3")
    assert t.machine_labels == ("m1", "m2")


def test_load_matrix_reads_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(GOOD)
    assert load_matrix(path).values.tolist() == [[1, 0, 1], [0, 1, 0]]


def test_problem1_shape_and_totals(problem1):
    assert problem1.parts == 10 and problem1.machines == 10
    assert int(problem1.values.sum()) == 52


def test_view_validates_permutations_and_tiling():
    with pytest.raises(ValueError):
        BlockDiagonalView(
            row_order=(0, 0),
            col_order=(0, 1),
            cell_boundaries=(((0, 2), (0, 2)),),
        )
    with pytest.raises(ValueError):
        BlockDiagonalView(
            row_order=(0, 1),
            col_order=(0, 1),
            cell_boundaries=(((0, 1), (0, 2)),),
        )
    v = BlockDiagonalView(row_order=(0, 1), col_order=(0, 1), cell_boundaries=(((0, 2), (0, 2)),))
    assert v.cell_boundaries == (((0, 2), (0, 2)),)


@pytest.mark.parametrize(
    "row_order, cell_boundaries",
    [((0.0, 1.0), (((0, 2), (0, 2)),)), (("0", "1"), (((0, 2), (0, 2)),)), ((0, 1), (((0, 2.5), (0, 2)),))],
    ids=["float-order", "string-order", "float-boundary"],
)
def test_view_rejects_non_integer_indices(row_order, cell_boundaries):
    with pytest.raises(TypeError):
        BlockDiagonalView(row_order=row_order, col_order=(0, 1), cell_boundaries=cell_boundaries)


def test_render_block_diagonal_layout():
    m = parse_matrix("2 2\n1 0\n0 1\n")
    view = BlockDiagonalView(
        row_order=(0, 1),
        col_order=(0, 1),
        cell_boundaries=(((0, 1), (0, 1)), ((1, 2), (1, 2))),
    )
    out = render_block_diagonal(m, view)
    lines = out.splitlines()
    assert out.endswith("\n")
    assert "|" in lines[1] and any(set(line.strip()) <= {"-", "+", "|", " "} for line in lines)
    assert lines[1].startswith("p1")



def _render_reference(matrix, view):
    """The per-cell renderer: every cell padded on its own, ``|`` before each cell start."""
    values = matrix.values[np.ix_(view.row_order, view.col_order)]
    row_labels = [matrix.part_labels[i] for i in view.row_order]
    col_labels = [matrix.machine_labels[j] for j in view.col_order]
    label_width = max(len(lab) for lab in row_labels)
    col_widths = [max(len(lab), 1) for lab in col_labels]
    col_starts = {bounds[1][0] for bounds in view.cell_boundaries[1:]}
    row_starts = {bounds[0][0] for bounds in view.cell_boundaries[1:]}

    def format_row(leader, cells):
        out = [leader.ljust(label_width)]
        for j, cell in enumerate(cells):
            if j in col_starts:
                out.append("|")
            out.append(cell.rjust(col_widths[j]))
        return " ".join(out)

    lines = [format_row("", col_labels)]
    width = len(lines[0])
    for i in range(values.shape[0]):
        if i in row_starts:
            lines.append("-" * width)
        lines.append(format_row(row_labels[i], [str(int(x)) for x in values[i]]))
    return "\n".join(lines) + "\n"


@st.composite
def rendered_views(draw):
    """(matrix, view): up to 3-digit labels on either axis, one to many cells,
    and sometimes the transposed matrix with the view's axes swapped, as
    ``--transpose`` renders it."""
    parts = draw(st.sampled_from([1, 2, 7, 9, 10, 12, 101]))
    machines = draw(st.sampled_from([1, 3, 9, 10, 11]))
    values = np.array(
        draw(st.lists(st.integers(0, 1), min_size=parts * machines, max_size=parts * machines)),
        dtype=np.uint8,
    ).reshape(parts, machines)
    values[np.arange(parts), np.arange(parts) % machines] = 1  # no empty row
    values[np.arange(machines) % parts, np.arange(machines)] = 1  # no empty column
    k = draw(st.integers(1, min(parts, machines)))
    rows = draw(st.permutations(range(parts)))
    cols = draw(st.permutations(range(machines)))

    def cuts(n):
        inner = draw(st.sets(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1)) if k > 1 else ()
        return [0, *sorted(inner), n]

    row_cuts, col_cuts = cuts(parts), cuts(machines)
    bounds = [((row_cuts[c], row_cuts[c + 1]), (col_cuts[c], col_cuts[c + 1])) for c in range(k)]
    matrix = IncidenceMatrix.from_array(values)
    if draw(st.booleans()):
        matrix = matrix.transposed()
        rows, cols = cols, rows
        bounds = [(m, p) for p, m in bounds]
    return matrix, BlockDiagonalView(tuple(rows), tuple(cols), tuple(bounds))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rendered_views())
def test_render_block_diagonal_matches_per_cell_reference(case):
    matrix, view = case
    assert render_block_diagonal(matrix, view) == _render_reference(matrix, view)
