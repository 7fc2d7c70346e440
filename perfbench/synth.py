"""Seeded planted-block instances with a known reference assignment.

Each instance is a 0/1 part-machine matrix built from ``k`` diagonal blocks
of ones, with bits flipped at a given rate and rows and columns shuffled.
The planted assignment and its exact grouping efficacy are kept beside the
matrix; the benchmark scores the program's result against that efficacy.
Nothing here imports ``somcell``, so the reference stays independent of
the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class Instance:
    name: str
    values: np.ndarray  # (parts, machines) uint8
    part_family: tuple[int, ...]  # planted family id per part, 1..k
    machine_cell: tuple[int, ...]  # planted cell id per machine, 1..k
    reference: Fraction  # exact efficacy the result is compared with

    @property
    def parts(self) -> int:
        return self.values.shape[0]

    @property
    def machines(self) -> int:
        return self.values.shape[1]

    def to_text(self) -> str:
        """The matrix in the ``P M`` header plus 0/1 rows file format."""
        rows = [" ".join("1" if v else "0" for v in row) for row in self.values]
        return f"# {self.name}\n{self.parts} {self.machines}\n" + "\n".join(rows) + "\n"


def exact_efficacy(values, part_family, machine_cell) -> Fraction:
    """Grouping efficacy (ones in blocks) / (all ones + zeros in blocks), exact."""
    values = np.asarray(values, dtype=np.int64)
    pf = np.asarray(part_family, dtype=np.int64)
    mc = np.asarray(machine_cell, dtype=np.int64)
    if values.shape != (pf.size, mc.size):
        raise ValueError("assignment does not match the matrix shape")
    in_block = pf[:, None] == mc[None, :]
    ones = int(values.sum())
    ones_in = int(values[in_block].sum())
    voids = int(in_block.sum()) - ones_in
    return Fraction(ones_in, ones + voids)


def _run_lengths(rng, n: int, k: int, min_run: int) -> np.ndarray:
    spare = n - k * min_run
    if spare < 0:
        raise ValueError(f"cannot split {n} into {k} runs of at least {min_run}")
    return min_run + rng.multinomial(spare, np.full(k, 1.0 / k))


def planted(rng, name: str, parts: int, machines: int, k: int, noise: float,
            min_run: int = 2) -> Instance:
    """Shuffled block-diagonal matrix with every bit flipped with probability ``noise``.

    A draw that leaves an empty row or column is redrawn, not repaired.
    """
    while True:
        p_runs = _run_lengths(rng, parts, k, min_run)
        m_runs = _run_lengths(rng, machines, k, min_run)
        pf = np.repeat(np.arange(1, k + 1), p_runs)
        mc = np.repeat(np.arange(1, k + 1), m_runs)
        values = (pf[:, None] == mc[None, :]).astype(np.uint8)
        values ^= (rng.random(values.shape) < noise).astype(np.uint8)
        if values.sum(axis=1).min() > 0 and values.sum(axis=0).min() > 0:
            break
    rp = rng.permutation(parts)
    cp = rng.permutation(machines)
    values, pf, mc = values[rp][:, cp], pf[rp], mc[cp]
    return Instance(
        name=name,
        values=values,
        part_family=tuple(int(f) for f in pf),
        machine_cell=tuple(int(c) for c in mc),
        reference=exact_efficacy(values, pf, mc),
    )
