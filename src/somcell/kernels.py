"""Hot numeric kernels, vectorized with numpy.

``batch_bmu``, ``train_run`` and ``best_machine_split`` are bit-deterministic
for fixed inputs: nearest-unit ties go to the lowest unit index and exact
efficacy ties to the lexicographically smallest machine assignment.

Nearest-row searches (``batch_bmu``, k-means' labels in ``cells`` and the
hitless-unit fill in ``viz``) rank through one matrix product. A
rounding-error bound certifies each row whose two nearest centers are far
enough apart that every difference-then-square sum has the same first
minimum. The rows left unsure (ties, near ties, inf, NaN, overflow) are
summed here, in one of two orders: ``batch_bmu`` adds the squares column by
column, ``nearest_rows`` with numpy's pairwise ``sum``. The two can differ
in the last bit, so on a near tie a BMU and a k-means label may go to
different rows. Every answer is the one its sum gives, whatever order BLAS
adds the product in and however many threads it uses.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "BACKEND",
    "batch_bmu",
    "nearest_rows",
    "train_run",
    "best_machine_split",
]

BACKEND = "numpy"


# float64's unit roundoff and smallest normal number
_UNIT_ROUNDOFF = 2.0**-53
_TINY = 2.0**-1022


def _certified(points, norms, centers) -> tuple[np.ndarray, np.ndarray]:
    """``(best, unsure)``: ``best`` is the first minimum of
    ``norms - 2 points @ centers.T + |centers|^2`` per row, and on every row
    that ``unsure`` does not mark it is also the first minimum of the
    squared distances summed term by term, in any order. A one-center call
    is certain.
    """
    n, dim = points.shape
    if centers.shape[0] == 1:
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    nu = (dim + 4) * _UNIT_ROUNDOFF
    # overflow and inf - inf here only mark rows unsure; the exact sums on
    # those rows warn as they always did
    with np.errstate(over="ignore", invalid="ignore"):
        center_sq = np.einsum("ij,ij->i", centers, centers)
        approx = points @ centers.T
        approx *= -2.0
        approx += norms[:, None]
        approx += center_sq
        best = np.argmin(approx, axis=1)
        rows = np.arange(n)
        first = approx[rows, best]
        approx[rows, best] = np.inf
        gap = approx.min(axis=1) - first
        # Both this expansion and a term-by-term sum are within
        # gamma(d+2) * (|x| + |c|)^2 of the exact squared distance, whatever
        # the summation order (Higham 2002, sec. 3.1: d products and
        # additions plus two more roundings each), so a gap above twice both
        # errors leaves the same unique minimum in every such sum. gamma(d+4)
        # absorbs the rounding of the bound itself, and the 8(d+4) * tiny
        # term products that underflow. (2(|x| + max|c|))^2 is inf when
        # anything could overflow, and a NaN makes the gap or the bound NaN,
        # so those rows fail the comparison and come out unsure.
        reach = 2.0 * (np.sqrt(norms) + np.sqrt(center_sq.max()))
        bound = reach * reach * (nu / (1.0 - nu)) + 8 * (dim + 4) * _TINY
    return best, ~(gap > bound)


def nearest_rows(points, norms, centers) -> np.ndarray:
    """Index of the nearest row of ``centers`` per row of ``points`` (ties go
    to the lowest index), ranked through one matrix product.

    ``norms`` holds each point's squared norm as a float sum of squares.
    Every answer is the first minimum of ``((p - c) ** 2).sum(axis=-1)``;
    only rows the product leaves unsure are summed that way.
    """
    best, unsure = _certified(points, norms, centers)
    if unsure.any():
        d2 = ((points[unsure][:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        best[unsure] = np.argmin(d2, axis=1)
    return best


def batch_bmu(codebook, samples) -> np.ndarray:
    """Index of the nearest codebook row per sample (ties go to the lowest index).

    The product settles most samples; the rest are summed column by column,
    in column order.
    """
    cb = np.asarray(codebook, dtype=np.float64)
    xs = np.asarray(samples, dtype=np.float64)
    best, unsure = _certified(xs, np.einsum("ij,ij->i", xs, xs), cb)
    if unsure.any():
        u = np.flatnonzero(unsure)
        d2 = np.zeros((u.size, cb.shape[0]))
        for j in range(cb.shape[1]):
            d2 += (xs[u, j, None] - cb[:, j]) ** 2
        best[u] = np.argmin(d2, axis=1)
    return best.astype(np.int64, copy=False)


def train_run(codebook, samples, orders, alphas, sigmas, dist_sq) -> np.ndarray:
    """Run the sequential online updates and return a new codebook.

    ``orders`` is one sample permutation per epoch; ``alphas``/``sigmas``
    hold the per-step learning rate and neighborhood radius for all epochs
    concatenated; ``dist_sq`` is the precomputed squared lattice distance
    between units.

    Each step reuses three buffers allocated once (the (units, dim)
    difference, the per-unit distances and the neighborhood weights) and
    reads its scalars as Python floats, converted one epoch at a time. The
    float operations and their order are those of a plain per-step loop
    (``h = alpha * exp(-d2[best] / (2 sigma^2))``, ``cb += h * (x - cb)``):
    ``d2 * -(1 / (2 sigma^2))`` equals ``-d2 * (1 / (2 sigma^2))`` bit for
    bit, so the codebook is bit-identical to that loop's.
    """
    cb = np.array(codebook, dtype=np.float64, order="C", copy=True)
    xs = np.ascontiguousarray(samples, dtype=np.float64)
    ords = np.ascontiguousarray(orders, dtype=np.int64)
    al = np.ascontiguousarray(alphas, dtype=np.float64)
    sg = np.ascontiguousarray(sigmas, dtype=np.float64)
    d2 = np.ascontiguousarray(dist_sq, dtype=np.float64)
    if al.shape[0] != ords.size or sg.shape[0] != ords.size:
        raise ValueError("alphas/sigmas must provide one value per training step")
    steps = ords.ravel()
    # scalars are converted one epoch at a time; empty epochs (no samples)
    # still step the slice forward
    per_epoch = max(ords.shape[-1], 1) if ords.ndim else 1
    diff = np.empty_like(cb)
    dist = np.empty(cb.shape[0], dtype=np.float64)
    h = np.empty(cb.shape[0], dtype=np.float64)
    h_col = h[:, None]
    for lo in range(0, steps.size, per_epoch):
        hi = lo + per_epoch
        # zero sigmas give inf here; those steps take the branch below
        with np.errstate(divide="ignore"):
            neg_inv = (-(1.0 / (2.0 * sg[lo:hi] * sg[lo:hi]))).tolist()
        for p, alpha, sigma, neg_inv_t in zip(
            steps[lo:hi].tolist(), al[lo:hi].tolist(), sg[lo:hi].tolist(), neg_inv
        ):
            np.subtract(xs[p], cb, out=diff)
            np.einsum("ij,ij->i", diff, diff, out=dist)
            best = int(dist.argmin())
            if sigma > 0.0:
                np.multiply(d2[best], neg_inv_t, out=h)
                np.exp(h, out=h)
                h *= alpha
                diff *= h_col
                cb += diff
            else:
                # degenerate neighborhood: only the matching unit moves
                cb[best] += alpha * diff[best]
    return cb


@lru_cache(maxsize=8)
def _assignment_matrix(k: int, m: int) -> np.ndarray:
    """All k^m machine assignments, ascending lexicographic, last column fastest."""
    axes = np.meshgrid(*([np.arange(k, dtype=np.int64)] * m), indexing="ij")
    out = np.stack(axes, axis=-1).reshape(-1, m)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=8)
def _surjective_rows(k: int, m: int) -> np.ndarray:
    """Which rows of ``_assignment_matrix(k, m)`` use every label 0..k-1."""
    cover = np.bitwise_or.reduce(np.int64(1) << _assignment_matrix(k, m), axis=1)
    out = cover == (1 << k) - 1
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
    valid = _surjective_rows(k, m)
    if not valid.any():
        return -1, 1, np.zeros(m, dtype=np.int64)
    ratio = np.where(valid, nums / dens, -1.0)
    # Equal fractions divide to equal floats, and distinct ones differ by at
    # least 1/(den*den'), far more than an ulp for the small integers
    # involved, so the first float maximum is the first exact optimum: the
    # lexicographically smallest.
    best = int(np.argmax(ratio))
    return int(nums[best]), int(dens[best]), assigns[best].copy()
