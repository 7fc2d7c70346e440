"""Hot numeric kernels, vectorized with numpy.

``batch_bmu``, ``train_run``, ``best_machine_split`` and ``ascend_split``
are bit-deterministic for fixed inputs: nearest-unit ties go to the lowest
unit index, exact efficacy ties to the lexicographically smallest machine
assignment, and gain ties in an ascent step to the smallest family.

Nearest-row searches (``batch_bmu`` and the hitless-unit fill in ``viz``)
both go through ``nearest_rows``, which ranks all centers through one
matrix product. Its inputs are finite and at most 2**100 in magnitude (0/1
rows and ``SomModel`` codebooks), so nothing it computes overflows. A
rounding-error bound certifies each row whose two nearest centers are far
enough apart that every difference-then-square sum has the same first
minimum. ``nearest_rows`` sums the rows left unsure (ties and near ties)
with numpy's pairwise ``sum``, so every answer is the first minimum of
``((p - c) ** 2).sum(axis=-1)``, whatever order BLAS adds the product in
and however many threads it uses.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "batch_bmu",
    "nearest_rows",
    "train_run",
    "best_machine_split",
    "ascend_split",
]

BACKEND = "numpy"


# float64's unit roundoff and smallest normal number
_UNIT_ROUNDOFF = 2.0**-53
_TINY = 2.0**-1022

# train_run tabulates the neighborhood weights of at most this many
# (step, distinct lattice distance) pairs at a time
_TABLE_ELEMENTS = 1 << 13


def _certified(points, centers) -> tuple[np.ndarray, np.ndarray]:
    """``(best, unsure)``, one per row of ``points``, for float64 inputs
    within ``nearest_rows``' contract.

    ``best[i]`` is the first minimum of
    ``|points|^2 - 2 points @ centers.T + |centers|^2`` for row i, and on
    every row that ``unsure`` does not mark it is also the first minimum of
    the squared distances summed term by term, in any order. A search over
    one center is certain.
    """
    n, dim = points.shape
    nu = (dim + 4) * _UNIT_ROUNDOFF
    norms = np.einsum("ij,ij->i", points, points)
    center_sq = np.einsum("ij,ij->i", centers, centers)
    approx = points @ centers.T
    approx *= -2.0
    approx += norms[:, None]
    approx += center_sq
    best = approx.argmin(axis=1)
    at = (np.arange(n), best)
    first = approx[at]
    # a lone center's runner-up is inf, so its gap is too
    approx[at] = np.inf
    gap = approx.min(axis=1) - first
    # Both this expansion and a term-by-term sum are within
    # gamma(d+2) * (|x| + |c|)^2 of the exact squared distance, whatever the
    # summation order (Higham 2002, sec. 3.1: d products and additions plus
    # two more roundings each), so a gap above twice both errors leaves the
    # same unique minimum in every such sum. gamma(d+4) absorbs the rounding
    # of the bound itself, and the 8(d+4) * tiny term products that
    # underflow. (2(|x| + max|c|))^2 is at most 16 d 2**200 within the
    # contract, far below overflow.
    reach = 2.0 * (np.sqrt(norms) + np.sqrt(center_sq.max()))
    bound = reach * reach * (nu / (1.0 - nu)) + 8 * (dim + 4) * _TINY
    return best, gap <= bound


def nearest_rows(points, centers) -> np.ndarray:
    """Index of the nearest row of ``centers`` per row of ``points`` (ties
    go to the lowest index), ranked through one matrix product.

    Every entry is finite and at most 2**100 in magnitude. Inputs are
    converted to float64, since a product or norm in a narrower dtype, such
    as a 0/1 matrix's uint8, would wrap.

    Every answer is the first minimum of ``((p - c) ** 2).sum(axis=-1)``;
    only rows the product leaves unsure are summed that way, one at a time,
    so a map whose rows all tie needs no (rows x centers x dim) temporary.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    best, unsure = _certified(points, centers)
    for row in np.flatnonzero(unsure).tolist():
        best[row] = np.argmin(((centers - points[row]) ** 2).sum(axis=-1))
    return best


def batch_bmu(codebook, samples) -> np.ndarray:
    """Index of the nearest codebook row per sample (ties go to the lowest
    index), through ``nearest_rows``."""
    return nearest_rows(samples, codebook)


def _distinct(values) -> np.ndarray:
    """The distinct values of an array, ascending: ``np.unique`` without the
    import of ``numpy.ma`` (1.2 MB) that its first call makes."""
    flat = np.sort(values, axis=None)
    return np.concatenate((flat[:1], flat[1:][flat[1:] != flat[:-1]]))


def train_run(codebook, samples, orders, alphas, sigmas, dist_sq) -> np.ndarray:
    """Run the sequential online updates and return a new codebook.

    ``orders`` is one sample permutation per epoch; ``alphas``/``sigmas``
    hold the per-step learning rate and neighborhood radius for all epochs
    concatenated; ``dist_sq`` is the precomputed squared lattice distance
    between units.

    A step's neighborhood weights depend only on the step and on each
    unit's squared distance to the matching unit, and a lattice has few
    distinct distances (101 on a 10 x 10 hex grid). So the distinct
    distances are found once, each ``dist_sq`` entry becomes an index into
    them, and each block of steps tabulates
    ``weights[t, v] = alpha_t * exp(level_v * -(1 / (2 sigma_t^2)))``, at
    most ``_TABLE_ELEMENTS`` weights at a time. A step is then six numpy
    calls on buffers allocated once: the (units, dim) difference and the
    per-unit distances (``subtract``, ``einsum``), the matching unit
    (``argmin``), its weights gathered from the step's table row by the
    unit's index row (``take``), and the update (``multiply``, ``add``).

    The codebook is bit-identical to a plain per-step loop
    (``h = alpha * exp(-d2[best] / (2 sigma^2))``, ``cb += h * (x - cb)``):
    each weight is the same product of the same operands, ``exp`` returns
    the same bits for a value wherever it sits in an array, and
    ``d2 * -(1 / (2 sigma^2))`` equals ``-d2 * (1 / (2 sigma^2))`` bit for
    bit. ``dist_sq`` must have a zero diagonal: the matching unit's level, 0,
    weighs ``alpha * exp(0) = alpha`` at every sigma. So a sigma whose
    ``1 / (2 sigma^2)`` overflows (below about 5.3e-155, 0 included) moves
    only the units at distance 0, by ``alpha``, the rest by ``exp(-inf)``;
    one whose ``2 sigma^2`` overflows moves every unit by ``alpha``.
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
    levels = _distinct(d2)
    # intp, the index dtype take wants, so no step casts its index row;
    # every index is in range, so take may clip rather than check (with
    # out, a checking take copies through a buffer)
    index = list(np.searchsorted(levels, d2))
    rows = list(xs)  # lists, so a step indexes no ndarray
    block = max(1, _TABLE_ELEMENTS // levels.size)
    diff = np.empty_like(cb)
    dist = np.empty(cb.shape[0], dtype=np.float64)
    h = np.empty(cb.shape[0], dtype=np.float64)
    h_col = h[:, None]
    subtract, einsum, multiply, add = np.subtract, np.einsum, np.multiply, np.add
    for lo in range(0, steps.size, block):
        hi = lo + block
        # 2 sigma^2 or its reciprocal overflows at the float range's ends;
        # level 0 weighs exp(0) = 1 at every finite factor, nan at -inf
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            table = multiply.outer(-(1.0 / (2.0 * sg[lo:hi] * sg[lo:hi])), levels)
        np.exp(table, out=table)
        table[:, 0] = 1.0
        table *= al[lo:hi, None]
        for p, weights in zip(steps[lo:hi].tolist(), table):
            subtract(rows[p], cb, out=diff)
            einsum("ij,ij->i", diff, diff, out=dist)
            weights.take(index[dist.argmin()], out=h, mode="clip")
            multiply(diff, h_col, out=diff)
            add(cb, diff, out=cb)
    return cb


def _gain(ones, sizes, num, den):
    """Each (family, column) pair's Dinkelbach gain at ratio num/den:
    ``(num + den) * ones[f, j] - num * sizes[f]``. An assignment's total
    gain exceeds ``num * n1`` (all ones) iff its efficacy exceeds the ratio."""
    return (num + den) * ones - num * sizes[:, None]


def _ratio(ones, sizes, n1, assignment):
    """``(ones in blocks, n1 + zeros in blocks)`` of a column assignment."""
    n = int(ones[assignment, np.arange(assignment.size)].sum())
    return n, n1 + int(sizes[assignment].sum()) - n


def best_machine_split(block_ones, block_sizes):
    """Best surjective machine-to-family assignment for fixed part families.

    ``block_ones[f, j]`` counts ones of machine j among family f's parts
    (the families partition the parts) and ``block_sizes[f]`` is the
    family size. Maximizes the exact efficacy ratio; among optima the
    lexicographically smallest assignment wins.
    Returns ``(numerator, denominator, assignment)``; the numerator is -1
    when no assignment gives every family a machine.

    Dinkelbach's method in exact integers (``_gain``): the ratio rises to
    the efficacy of the first assignment of most gain until that is the
    ratio itself; the assignments of most gain are then exactly the optima.
    """
    ones = np.asarray(block_ones, dtype=np.int64)
    sizes = np.asarray(block_sizes, dtype=np.int64)
    k, m = ones.shape
    if k > m:
        return -1, 1, np.zeros(m, dtype=np.int64)
    n1 = int(ones.sum())
    num, den = 0, 1
    while True:
        gain = _gain(ones, sizes, num, den)
        # each machine's first best family, unless that leaves a family out
        assignment = gain.argmax(axis=0)
        if np.bincount(assignment, minlength=k).min() == 0:
            # joined[f, s]: the set s of families that have a machine, plus
            # f; a walk that ends with some family left out scores -2^62
            joined = np.arange(1 << k) | (1 << np.arange(k))[:, None]
            rest = [np.where(np.arange(1 << k) == (1 << k) - 1, 0, -(1 << 62))]
            # rest[i][s]: the most gain machines m-i.. add from state s
            for j in range(m - 1, 0, -1):
                rest.append((gain[:, j, None] + rest[-1][joined]).max(axis=0))
            state = 0
            for j in range(m):
                # the smallest family that still reaches the most gain
                f = int(np.argmax(gain[:, j] + rest[m - 1 - j][joined[:, state]]))
                assignment[j], state = f, state | 1 << f
        n, d = _ratio(ones, sizes, n1, assignment)
        if n * den == num * d:
            return n, d, assignment
        num, den = n, d


def ascend_split(block_ones, block_sizes, assignment):
    """Raise the efficacy of a surjective column-to-family assignment, exactly.

    ``block_ones`` and ``block_sizes`` are as for ``best_machine_split``,
    and ``assignment`` gives each column's family (0-based), every family
    used. Dinkelbach steps from the assignment's own efficacy: each takes
    every column's first family of most gain (``_gain``), and is kept only
    when that uses every family and its efficacy is strictly higher.
    Returns the last step kept, or the input array itself when none is. It
    never searches the assignments that leave a family out, so it costs a
    few argmaxes whatever the family count, and it stops short of the
    optimum only when the argmax leaves a family empty.
    """
    ones = np.asarray(block_ones, dtype=np.int64)
    sizes = np.asarray(block_sizes, dtype=np.int64)
    n1 = int(ones.sum())
    num, den = _ratio(ones, sizes, n1, assignment)
    while True:
        step = _gain(ones, sizes, num, den).argmax(axis=0)
        if np.bincount(step, minlength=ones.shape[0]).min() == 0:
            return assignment
        n, d = _ratio(ones, sizes, n1, step)
        if n * den <= num * d:
            return assignment
        num, den, assignment = n, d, step
