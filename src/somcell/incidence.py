"""Binary part-machine incidence matrices: parsing, validation, block-diagonal rendering.

Rows are parts and columns are machines throughout. Every entry is 0 or 1,
every part must use at least one machine, and every machine must serve at
least one part; anything else is rejected on construction. Labels are
positional (p1..pP, m1..mM) and regenerated rather than parsed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MatrixFormatError",
    "IncidenceMatrix",
    "BlockDiagonalView",
    "parse_matrix",
    "positional_labels",
    "load_matrix",
    "load_problem1",
    "render_block_diagonal",
]


class MatrixFormatError(ValueError):
    """Malformed matrix text or inconsistent matrix data."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def positional_labels(prefix: str, count: int) -> tuple[str, ...]:
    """``prefix`` numbered from 1: ``p1..pP`` for parts, ``m1..mM`` for machines."""
    return tuple(f"{prefix}{i + 1}" for i in range(count))


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """Validated part-by-machine 0/1 matrix with stable positional labels."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise MatrixFormatError("matrix must be 2-D with at least one part and one machine")
        if not np.isin(v, (0, 1)).all():
            raise MatrixFormatError("entries must be 0 or 1")
        v = np.ascontiguousarray(v.astype(np.uint8))
        row_sums = v.sum(axis=1)
        if (row_sums == 0).any():
            empty = int(np.flatnonzero(row_sums == 0)[0]) + 1
            raise MatrixFormatError(f"part p{empty} uses no machine (empty row)")
        col_sums = v.sum(axis=0)
        if (col_sums == 0).any():
            empty = int(np.flatnonzero(col_sums == 0)[0]) + 1
            raise MatrixFormatError(f"machine m{empty} serves no part (empty column)")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_array(cls, values) -> "IncidenceMatrix":
        """Build from any 0/1 array-like."""
        return cls(values)

    @property
    def parts(self) -> int:
        return int(self.values.shape[0])

    @property
    def machines(self) -> int:
        return int(self.values.shape[1])

    @cached_property
    def part_labels(self) -> tuple[str, ...]:
        """``p1..pP``, one per row."""
        return positional_labels("p", self.parts)

    @cached_property
    def machine_labels(self) -> tuple[str, ...]:
        """``m1..mM``, one per column."""
        return positional_labels("m", self.machines)

    def transposed(self) -> "IncidenceMatrix":
        """Swap the part/machine roles (labels are regenerated)."""
        return IncidenceMatrix.from_array(self.values.T)


@dataclass(frozen=True)
class BlockDiagonalView:
    """Row/column permutation plus contiguous ranges marking one diagonal block per cell.

    ``cell_boundaries`` holds one ``((part_start, part_end), (machine_start,
    machine_end))`` half-open range pair per cell, in display order. The part
    ranges must tile ``0..P`` and the machine ranges ``0..M``.
    """

    row_order: tuple[int, ...]
    col_order: tuple[int, ...]
    cell_boundaries: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __post_init__(self):
        index = operator.index  # any integer, numpy's too; rejects 1.5 and "1"
        object.__setattr__(self, "row_order", tuple(map(index, self.row_order)))
        object.__setattr__(self, "col_order", tuple(map(index, self.col_order)))
        object.__setattr__(
            self,
            "cell_boundaries",
            tuple(((index(a), index(b)), (index(c), index(d))) for (a, b), (c, d) in self.cell_boundaries),
        )
        for name, order in (("row_order", self.row_order), ("col_order", self.col_order)):
            if sorted(order) != list(range(len(order))):
                raise ValueError(f"{name} is not a permutation")
        if not self.cell_boundaries:
            raise ValueError("view needs at least one cell")
        for axis, total in ((0, len(self.row_order)), (1, len(self.col_order))):
            cursor = 0
            for bounds in self.cell_boundaries:
                start, end = bounds[axis]
                if start != cursor or end <= start:
                    raise ValueError("cell ranges must be contiguous, nonempty, and start at 0")
                cursor = end
            if cursor != total:
                raise ValueError("cell ranges must cover the whole axis")


_BITS = frozenset(("0", "1"))


def parse_matrix(text: str) -> IncidenceMatrix:
    """Parse the plain-text matrix format.

    Lines starting with ``#`` and blank lines are ignored anywhere. The first
    significant line is a header ``P M``; exactly P rows of M whitespace-
    separated 0/1 tokens must follow. Raises MatrixFormatError (with a line
    number where possible) on anything else.
    """
    header: tuple[int, int] | None = None
    rows: list[str] = []
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
        if not _BITS.issuperset(tokens):
            bad = next(tok for tok in tokens if tok not in _BITS)
            raise MatrixFormatError(f"entry must be 0 or 1, found {bad!r}", lineno)
        rows.append("".join(tokens))
    if header is None:
        raise MatrixFormatError("no header line found")
    if len(rows) != header[0]:
        raise MatrixFormatError(f"expected {header[0]} matrix rows, found {len(rows)}")
    values = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8) - ord("0")
    return IncidenceMatrix.from_array(values.reshape(header))


def load_matrix(path) -> IncidenceMatrix:
    """Read and parse a matrix file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def load_problem1() -> IncidenceMatrix:
    """The bundled 10x10 demo instance."""
    import importlib.resources  # here, so importing the package does not load it

    resource = importlib.resources.files("somcell").joinpath("data").joinpath("problem1.txt")
    return parse_matrix(resource.read_text(encoding="utf-8"))


def render_block_diagonal(matrix: IncidenceMatrix, view: BlockDiagonalView) -> str:
    """Render the permuted matrix as text with cell boundaries drawn in.

    Columns are separated with spaces, ``|`` marks cell boundaries between
    column groups, and a rule of ``-`` separates row groups. The header row
    carries machine labels; each body row starts with its part label.
    """
    if len(view.row_order) != matrix.parts or len(view.col_order) != matrix.machines:
        raise ValueError("view permutation size does not match the matrix")
    values = matrix.values[np.ix_(view.row_order, view.col_order)]
    row_labels = [matrix.part_labels[i] for i in view.row_order]
    col_labels = [matrix.machine_labels[j] for j in view.col_order]

    label_width = max(len(lab) for lab in row_labels)
    col_starts = {bounds[1][0] for bounds in view.cell_boundaries[1:]}
    row_starts = {bounds[0][0] for bounds in view.cell_boundaries[1:]}
    # each column is one space and its label, with " |" before each cell
    # start; a body row puts its digit under the label's last character
    columns = [(" |" if j in col_starts else "") + " " + lab for j, lab in enumerate(col_labels)]
    header = "".join(columns)
    width = len(header)
    bars = np.frombuffer(header.encode("ascii"), dtype=np.uint8)
    rows = np.tile(np.where(bars == ord("|"), bars, np.uint8(ord(" "))), (len(row_labels), 1))
    rows[:, np.cumsum([len(col) for col in columns]) - 1] = values + ord("0")
    body = rows.tobytes().decode("ascii")

    lines = [" " * label_width + header]
    for i, label in enumerate(row_labels):
        if i in row_starts:
            lines.append("-" * (label_width + width))
        lines.append(label.ljust(label_width) + body[i * width:(i + 1) * width])
    return "\n".join(lines) + "\n"
