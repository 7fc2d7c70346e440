"""Hot numeric kernels, vectorized with numpy.

All three are bit-deterministic for fixed inputs: nearest-unit ties go to
the lowest unit index and exact efficacy ties to the lexicographically
smallest machine assignment.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "BACKEND",
    "batch_bmu",
    "train_run",
    "best_machine_split",
]

BACKEND = "numpy"


def batch_bmu(codebook, samples) -> np.ndarray:
    """Index of the nearest codebook row per sample (ties go to the lowest index)."""
    cb = np.ascontiguousarray(codebook, dtype=np.float64)
    xs = np.ascontiguousarray(samples, dtype=np.float64)
    # one column at a time keeps the temporary at (samples, units), not
    # (samples, units, dim)
    d2 = np.zeros((xs.shape[0], cb.shape[0]), dtype=np.float64)
    for j in range(cb.shape[1]):
        diff = xs[:, j, None] - cb[None, :, j]
        d2 += diff * diff
    # argmin returns the first minimum
    return np.argmin(d2, axis=1).astype(np.int64)


def train_run(codebook, samples, orders, alphas, sigmas, dist_sq) -> np.ndarray:
    """Run the sequential online updates and return a new codebook.

    ``orders`` is one sample permutation per epoch; ``alphas``/``sigmas``
    hold the per-step learning rate and neighborhood radius for all epochs
    concatenated; ``dist_sq`` is the precomputed squared lattice distance
    between units.
    """
    cb = np.array(codebook, dtype=np.float64, order="C", copy=True)
    xs = np.ascontiguousarray(samples, dtype=np.float64)
    ords = np.ascontiguousarray(orders, dtype=np.int64)
    al = np.ascontiguousarray(alphas, dtype=np.float64)
    sg = np.ascontiguousarray(sigmas, dtype=np.float64)
    d2 = np.ascontiguousarray(dist_sq, dtype=np.float64)
    if al.shape[0] != ords.size or sg.shape[0] != ords.size:
        raise ValueError("alphas/sigmas must provide one value per training step")
    for t, p in enumerate(ords.ravel()):
        diff = xs[p] - cb
        best = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
        if sg[t] > 0.0:
            inv = 1.0 / (2.0 * sg[t] * sg[t])
            h = al[t] * np.exp(-d2[best] * inv)
            cb += h[:, None] * diff
        else:
            # degenerate neighborhood: only the matching unit moves
            cb[best] += al[t] * diff[best]
    return cb


@lru_cache(maxsize=8)
def _assignment_matrix(k: int, m: int) -> np.ndarray:
    """All k^m machine assignments, ascending lexicographic, last column fastest."""
    axes = np.meshgrid(*([np.arange(k, dtype=np.int64)] * m), indexing="ij")
    out = np.stack(axes, axis=-1).reshape(-1, m)
    out.flags.writeable = False
    return out


def best_machine_split(block_ones, block_sizes, n_ones):
    """Best surjective machine-to-family assignment for fixed part families.

    ``block_ones[f, j]`` counts ones of machine j among family f's parts and
    ``block_sizes[f]`` is the family size. Maximizes the exact efficacy
    ratio; among optima the lexicographically smallest assignment wins.
    Returns ``(numerator, denominator, assignment)``; the numerator is -1
    when no assignment gives every family a machine.
    """
    bo = np.ascontiguousarray(block_ones, dtype=np.int64)
    bs = np.ascontiguousarray(block_sizes, dtype=np.int64)
    k, m = bo.shape
    assigns = _assignment_matrix(k, m)
    nums = bo[assigns, np.arange(m)].sum(axis=1)
    dens = int(n_ones) + bs[assigns].sum(axis=1) - nums
    cover = np.zeros(assigns.shape[0], dtype=np.int64)
    for j in range(m):
        cover |= np.int64(1) << assigns[:, j]
    valid = cover == (1 << k) - 1
    if not valid.any():
        return -1, 1, np.zeros(m, dtype=np.int64)
    ratio = np.where(valid, nums / dens, -1.0)
    top = float(ratio.max())
    # Candidate window: distinct exact ratios here differ by at least
    # 1/(den*den') >> 1e-9 for the small integers involved, so everything in
    # the window shares the exact optimum and the first one is the
    # lexicographically smallest.
    best = int(np.flatnonzero(ratio >= top - 1e-9)[0])
    return int(nums[best]), int(dens[best]), assigns[best].copy()
