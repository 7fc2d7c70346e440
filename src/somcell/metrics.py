"""Grouping quality measures for cell assignments.

Two scores over the diagonal blocks an assignment induces: grouping
efficiency (weighted mix of in-block density and off-block sparsity) and
grouping efficacy, kept as an exact rational so assignments can be ranked
without float noise. An exact oracle finds the true optimum on instances
with few parts for calibration.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import kernels

ORACLE_MAX_PARTS = 10
ORACLE_MAX_MACHINES = 400
ORACLE_MAX_CELLS = 3


class OracleSizeError(ValueError):
    """Instance exceeds the exhaustive oracle's enumeration bounds."""


@dataclass(frozen=True)
class CellAssignment:
    """Partition of parts into families and machines into cells, ids 1..k.

    Every id in 1..k must appear on both sides: a cell without machines or
    without parts is not a cell.
    """

    part_family: tuple[int, ...]
    machine_cell: tuple[int, ...]

    def __post_init__(self):
        # operator.index takes any integer, numpy's too, and rejects 1.5 and "1"
        part_family = tuple(map(operator.index, self.part_family))
        machine_cell = tuple(map(operator.index, self.machine_cell))
        object.__setattr__(self, "part_family", part_family)
        object.__setattr__(self, "machine_cell", machine_cell)
        if not part_family or not machine_cell:
            raise ValueError("assignment needs at least one part and one machine")
        ids = set(part_family)
        # distinct integers from 1 up, as many as the largest: exactly 1..k
        if min(ids) < 1 or len(ids) != max(ids):
            raise ValueError("part family ids must be 1..k with every id used")
        if set(machine_cell) != ids:
            raise ValueError("machine cell ids must be the part family ids")

    @property
    def k(self) -> int:
        """The number of cells: the largest id."""
        return max(self.part_family)


@dataclass(frozen=True)
class BlockCounts:
    """Raw tallies of a matrix against an assignment's diagonal blocks.

    Entry (p, j) is in-block iff part p's family id equals machine j's cell
    id. ``n1`` counts all ones, ``n1_out`` the exceptional ones outside any
    block, ``n0_in`` the voids (zeros inside a block).
    """

    n1: int
    n1_out: int
    n0_in: int
    total_elements: int

    @property
    def in_block_elements(self) -> int:
        """Entries inside some block: its ones plus its voids."""
        return self.n1 - self.n1_out + self.n0_in


def count_blocks(data, assignment) -> BlockCounts:
    part_family = np.asarray(assignment.part_family, dtype=np.int64)
    machine_cell = np.asarray(assignment.machine_cell, dtype=np.int64)
    values = data.values
    if part_family.shape[0] != values.shape[0] or machine_cell.shape[0] != values.shape[1]:
        raise ValueError("assignment does not match the matrix dimensions")
    # values are 0/1, so their nonzero entries are their ones
    in_block = part_family[:, None] == machine_cell
    n1 = int(np.count_nonzero(values))
    n1_in = int(np.count_nonzero(values & in_block))
    return BlockCounts(
        n1=n1,
        n1_out=n1 - n1_in,
        n0_in=int(np.count_nonzero(in_block)) - n1_in,
        total_elements=int(values.size),
    )


def grouping_efficacy(counts: BlockCounts) -> Fraction:
    """(n1 - n1_out) / (n1 + n0_in), exact.

    1 exactly when the blocks are perfect (no exceptions, no voids); falls
    with every exceptional one and every void.
    """
    if counts.n1 < 1:
        raise ValueError("efficacy is undefined for a matrix with no ones")
    return Fraction(counts.n1 - counts.n1_out, counts.n1 + counts.n0_in)


@dataclass(frozen=True)
class GroupingScore(BlockCounts):
    """The block counts and the weight ``r``; both measures derive from them.

    ``eta1`` is the in-block density, ``eta2`` the off-block sparsity (a
    side with no elements counts 1, the vacuous optimum) and ``efficiency``
    their r-mix. Rejects ``r`` outside (0, 1) and a matrix with no ones.
    """

    r: float

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ValueError("r must lie strictly between 0 and 1")
        if self.n1 < 1:
            raise ValueError("efficacy is undefined for a matrix with no ones")

    @cached_property
    def efficacy(self) -> Fraction:
        return grouping_efficacy(self)

    @property
    def eta1(self) -> float:
        in_elements = self.in_block_elements
        return (self.n1 - self.n1_out) / in_elements if in_elements else 1.0

    @property
    def eta2(self) -> float:
        off_elements = self.total_elements - self.in_block_elements
        return (off_elements - self.n1_out) / off_elements if off_elements else 1.0

    @property
    def efficiency(self) -> float:
        return self.r * self.eta1 + (1.0 - self.r) * self.eta2

    @property
    def efficacy_text(self) -> str:
        return f"{self.efficacy.numerator}/{self.efficacy.denominator} = {float(self.efficacy):.4f}"

    def to_dict(self) -> dict:
        return {
            "n1": self.n1,
            "n1_out": self.n1_out,
            "n0_in": self.n0_in,
            "in_block_elements": self.in_block_elements,
            "total_elements": self.total_elements,
            "efficacy_num": self.efficacy.numerator,
            "efficacy_den": self.efficacy.denominator,
            "efficacy": float(self.efficacy),
            "efficacy_text": self.efficacy_text,
            "r": self.r,
            "eta1": self.eta1,
            "eta2": self.eta2,
            "efficiency": self.efficiency,
        }


def score(data, assignment, r: float = 0.5) -> GroupingScore:
    return GroupingScore(**vars(count_blocks(data, assignment)), r=r)


def _part_partitions(n_parts: int, max_blocks: int) -> np.ndarray:
    """Canonical partitions of n parts into at most max_blocks families.

    One row per restricted growth string, ascending lexicographic: the first
    part is family 0 and each id is at most one past the largest id before
    it. Each part repeats every row once per id it may take there.
    """
    rows = np.zeros((1, 1), dtype=np.int64)
    for _ in range(n_parts - 1):
        counts = np.minimum(rows.max(axis=1) + 2, max_blocks)
        firsts = np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([np.repeat(rows, counts, axis=0), np.arange(firsts.size) - firsts])
    return rows


def oracle_best_assignment(data, k: int):
    """Exact best-efficacy assignment for instances with few parts.

    Enumerates every partition of the parts into at most ``k`` nonempty
    families (and no more families than machines) and, for each, finds the
    best machine assignment that uses all those families with
    ``kernels.best_machine_split``; exact rational comparison throughout.
    Among ties the first optimum wins, which is the lexicographically
    smallest (part families first, then machine cells). Bounds: at most
    10 parts, 400 machines, k <= 3; larger instances raise OracleSizeError.

    Returns ``(assignment, efficacy)``.
    """
    n_parts, n_machines = data.parts, data.machines
    if k < 1:
        raise ValueError("k must be at least 1")
    if n_parts > ORACLE_MAX_PARTS or n_machines > ORACLE_MAX_MACHINES or k > ORACLE_MAX_CELLS:
        raise OracleSizeError(
            f"instance {n_parts}x{n_machines} with k={k} exceeds the oracle bounds "
            f"(parts <= {ORACLE_MAX_PARTS}, machines <= {ORACLE_MAX_MACHINES}, "
            f"k <= {ORACLE_MAX_CELLS})"
        )
    values = data.values.astype(np.int64)
    best = (-1, 1, None, None)  # every split found here beats -1/1
    # a partition with more families than machines has no surjective split
    for part_family in _part_partitions(n_parts, min(k, n_parts, n_machines)):
        # family[f, p]: part p is in family f; tallied one partition at a time
        family = part_family == np.arange(part_family.max() + 1)[:, None]
        num, den, machine_cell = kernels.best_machine_split(family @ values, family.sum(axis=1))
        if num * best[1] > best[0] * den:
            best = (num, den, part_family, machine_cell)
    assignment = CellAssignment(part_family=tuple(best[2] + 1), machine_cell=tuple(best[3] + 1))
    return assignment, Fraction(best[0], best[1])
