"""Kernels against independent plain-Python references, plus behavior cases."""
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import naive_bmu, train_run_reference
from somcell import MapGrid, SomModel, kernels
from somcell.cells import _kmeans_labels
from somcell.viz import HitHistogram, nearest_hit_units


def _random_problem(rng, units=12, dim=7, samples=9):
    codebook = rng.normal(size=(units, dim))
    data = rng.normal(size=(samples, dim))
    return codebook, data


def test_batch_bmu_matches_naive_scan():
    rng = np.random.default_rng(0)
    for _ in range(30):
        codebook, data = _random_problem(rng)
        got = kernels.batch_bmu(codebook, data)
        assert got.dtype == np.int64
        assert got.tolist() == [naive_bmu(codebook.tolist(), x.tolist()) for x in data]


def test_batch_bmu_tie_goes_to_lowest_index():
    codebook = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    query = np.array([[0.6, 0.6], [1.0, 0.0]])
    assert kernels.batch_bmu(codebook, query).tolist() == [0, 0]


def _column_loop_bmu(codebook, samples):
    """``batch_bmu`` as it was before ``nearest_rows``: every sample's
    squared distances summed one column at a time."""
    cb_t = np.ascontiguousarray(np.asarray(codebook, dtype=np.float64).T)
    xs_t = np.ascontiguousarray(np.asarray(samples, dtype=np.float64).T)
    d2 = np.zeros((xs_t.shape[1], cb_t.shape[1]))
    for j in range(cb_t.shape[0]):
        d2 += (xs_t[j, :, None] - cb_t[j]) ** 2
    return np.argmin(d2, axis=1)


def _nearest(codebook, samples):
    return kernels._certified(samples, np.einsum("ij,ij->i", samples, samples), codebook)


@st.composite
def adversarial_bmu_problems(draw):
    """(codebook, samples, ulp pairs): duplicate rows, rows one ulp apart,
    samples that sit on codebook rows, one-unit codebooks, and a scale that
    makes the squares overflow (entries near 1e154) or underflow."""
    units, dim = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    values = st.sampled_from([0.0, 0.5, 1.0, -1.0]) | st.floats(-2.0, 2.0, allow_nan=False)
    scale = draw(st.sampled_from([1.0, 1e150, 1e154, 1e-160]))
    codebook = draw(arrays(np.float64, (units, dim), elements=values)) * scale
    for u in draw(st.lists(st.integers(0, units - 1), max_size=units)):
        codebook[u] = codebook[0]
    pairs, used = [], set()
    for src, dst in draw(st.lists(st.tuples(st.integers(0, units - 1), st.integers(0, units - 1)), max_size=3)):
        if src != dst and not {src, dst} & used:
            codebook[dst] = np.nextafter(codebook[src], draw(st.sampled_from([np.inf, -np.inf])))
            pairs.append((src, dst))
            used |= {src, dst}
    samples = draw(arrays(np.float64, (draw(st.integers(0, 10)), dim), elements=values)) * scale
    on_rows = draw(st.lists(st.integers(0, units - 1), max_size=4))
    samples = np.concatenate([samples, codebook[on_rows], codebook[[u for pair in pairs for u in pair]]])
    return codebook, samples, pairs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(adversarial_bmu_problems())
# every square underflows to 0, so the sums tie, while the product's |c|^2
# keeps one subnormal and ranks the second unit first
@example((np.array([[2e-162], [0.0]]), np.array([[1e-162]]), []))
def test_batch_bmu_matches_naive_scan_on_adversarial_codebooks(problem):
    codebook, samples, pairs = problem
    with np.errstate(all="ignore"):
        got = kernels.batch_bmu(codebook, samples)
        best, unsure = _nearest(codebook, samples)
    cb = codebook.tolist()
    want = [naive_bmu(cb, x) for x in samples.tolist()]
    assert got.dtype == np.int64 and got.tolist() == want
    # a certified row has the same first minimum in any summation order
    backward = [naive_bmu(codebook[:, ::-1].tolist(), x) for x in samples[:, ::-1].tolist()]
    for row in np.flatnonzero(~unsure).tolist():
        assert best[row] == want[row] == backward[row]
    if codebook.shape[0] == 1:
        assert not unsure.any()
    # a sample on a row with a neighbour one ulp away cannot be certified
    for src, dst in pairs:
        for u in (src, dst):
            on_row = (samples == codebook[u]).all(axis=1)
            assert unsure[on_row].all()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(adversarial_bmu_problems(), st.data())
def test_batch_bmu_keeps_its_answer_on_inf_and_nan_samples(problem, data):
    codebook, samples, _ = problem
    if samples.shape[0] == 0:
        return
    bad = data.draw(st.lists(st.integers(0, samples.shape[0] - 1), min_size=1, max_size=3))
    for row in bad:
        col = data.draw(st.integers(0, samples.shape[1] - 1))
        samples[row, col] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    with np.errstate(all="ignore"):
        got = kernels.batch_bmu(codebook, samples)
        want = _column_loop_bmu(codebook, samples)
        _, unsure = _nearest(codebook, samples)
    assert got.tolist() == want.tolist()
    if codebook.shape[0] > 1:
        assert unsure[bad].all()


def test_nearest_rows_certifies_separated_rows():
    # on ordinary data the product settles every row: the fast path is the one taken
    rng = np.random.default_rng(5)
    codebook, samples = rng.normal(size=(30, 10)), rng.normal(size=(200, 10))
    best, unsure = _nearest(codebook, samples)
    assert not unsure.any()
    assert best.tolist() == [naive_bmu(codebook.tolist(), x) for x in samples.tolist()]


def test_nearest_rows_leaves_exact_ties_unsure():
    codebook = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    query = np.array([[0.6, 0.6], [1.0, 0.0], [0.0, 0.9]])
    _, unsure = _nearest(codebook, query)
    assert unsure.tolist() == [True, True, False]


def test_each_nearest_search_settles_ties_with_its_own_sum():
    # From zeros(8), summing these rows' squares in column order gives
    # 29.01 and 29.009999999999998, while numpy's pairwise sum gives
    # 29.009999999999998 for both. BMUs follow the column order
    # (conftest.naive_bmu); k-means and the hitless fill follow the pairwise
    # sum their references use. Dimensions 1-4 cannot tell the two apart.
    rows = np.array([[1e-8, 3, 0, 3, 3, 0.1, 1, 1], [0, 0.1, 3, 1e-8, 1, 3, 3, 1]])
    origin = np.zeros((1, 8))
    assert naive_bmu(rows.tolist(), origin[0].tolist()) == 1
    assert kernels.batch_bmu(rows, origin).tolist() == [1]
    # units 0 and 1 hold the parts; unit 2 sits at the origin with none
    grid = MapGrid(1, 3)
    model = SomModel(grid=grid, codebook=np.vstack([rows, origin]), seed=0)
    hits = HitHistogram(grid=grid, bmus=np.array([0, 1]))
    assert nearest_hit_units(model, hits).tolist() == [0, 1, 0]
    # the origin and 2 * rows[0] average to rows[0] exactly, so after one
    # round the centers are the two rows and the origin ties between them
    points = np.vstack([origin, 2 * rows[0], rows[1]])
    centers = points[[1, 2]].copy()
    first_d2 = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    assert _kmeans_labels(points, centers, first_d2).tolist() == [0, 0, 1]
    assert centers.tobytes() == rows.tobytes()


def _reference_train_run(codebook, data, orders, alphas, sigmas, dist_sq):
    """Sequential online updates, one unit and one coordinate at a time."""
    cb = codebook.tolist()
    t = 0
    for order in orders.tolist():
        for p in order:
            x = data[p].tolist()
            best = naive_bmu(cb, x)
            for u, row in enumerate(cb):
                if sigmas[t] > 0.0:
                    h = alphas[t] * math.exp(-dist_sq[best, u] / (2.0 * sigmas[t] ** 2))
                else:
                    h = alphas[t] if u == best else 0.0
                for j in range(len(row)):
                    row[j] += h * (x[j] - row[j])
            t += 1
    return np.array(cb)


def test_train_run_matches_sequential_reference():
    rng = np.random.default_rng(1)
    for trial in range(10):
        codebook, data = _random_problem(rng, units=9, dim=5, samples=6)
        dist_sq = rng.random((9, 9))
        dist_sq = (dist_sq + dist_sq.T) / 2
        np.fill_diagonal(dist_sq, 0.0)
        epochs, per_epoch = 4, 6
        orders = np.stack([rng.permutation(per_epoch) for _ in range(epochs)]).astype(np.int64)
        steps = epochs * per_epoch
        alphas = np.linspace(0.5, 0.05, steps)
        sigmas = np.linspace(2.0, 0.4, steps)
        if trial % 2:
            sigmas[-per_epoch:] = 0.0  # last epoch moves only the matching unit
        got = kernels.train_run(codebook, data, orders, alphas, sigmas, dist_sq)
        want = _reference_train_run(codebook, data, orders, alphas, sigmas, dist_sq)
        assert np.allclose(got, want, rtol=0.0, atol=1e-10)


@st.composite
def train_problems(draw):
    """train_run inputs with tied codebook rows, zero sigmas mid-schedule and
    sigmas small enough for the neighborhood to underflow to 0."""
    units, dim = draw(st.integers(1, 40)), draw(st.integers(1, 30))
    n_samples, epochs = draw(st.integers(1, 20)), draw(st.integers(1, 4))
    values = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-2.0, 2.0, allow_nan=False)
    codebook = draw(arrays(np.float64, (units, dim), elements=values))
    for u in draw(st.lists(st.integers(0, units - 1), max_size=units)):
        codebook[u] = codebook[0]  # duplicate rows: BMU ties go to the lowest index
    samples = draw(arrays(np.float64, (n_samples, dim), elements=values))
    dist_sq = draw(arrays(np.float64, (units, units), elements=st.floats(0.0, 50.0)))
    dist_sq = dist_sq + dist_sq.T
    np.fill_diagonal(dist_sq, 0.0)
    orders = np.array(
        [draw(st.permutations(range(n_samples))) for _ in range(epochs)], dtype=np.int64
    )
    steps = epochs * n_samples
    alphas = draw(arrays(np.float64, steps, elements=st.floats(0.0, 1.0)))
    radius = st.sampled_from([0.0, 1e-3, 0.05, 0.5]) | st.floats(0.0, 5.0)
    sigmas = draw(arrays(np.float64, steps, elements=radius))
    return codebook, samples, orders, alphas, sigmas, dist_sq


def _explicit_problem(sigmas, tied=False):
    rng = np.random.default_rng(3)
    codebook = rng.normal(size=(6, 4))
    if tied:
        codebook[3] = codebook[4] = codebook[1]
    samples = rng.normal(size=(5, 4))
    dist_sq = rng.random((6, 6)) * 9.0
    dist_sq = dist_sq + dist_sq.T
    np.fill_diagonal(dist_sq, 0.0)
    orders = np.stack([rng.permutation(5) for _ in range(2)]).astype(np.int64)
    alphas = np.linspace(0.6, 0.1, 10)
    return codebook, samples, orders, alphas, np.asarray(sigmas, dtype=np.float64), dist_sq


@settings(max_examples=200, deadline=None, derandomize=True)
@given(train_problems())
@example(_explicit_problem([2.0, 1.5, 0.0, 0.0, 1.0, 0.8, 0.0, 0.6, 0.4, 0.2]))
@example(_explicit_problem(np.linspace(1.5, 0.3, 10), tied=True))
@example(_explicit_problem([1e-3] * 5 + [0.01] * 5))
def test_train_run_is_bit_identical_to_the_step_loop(problem):
    # sigmas near the float minimum make 2*sigma**2 underflow to 0, so the
    # neighborhood holds inf and nan; both sides must agree on those too
    with np.errstate(all="ignore"):
        got = kernels.train_run(*problem)
        want = train_run_reference(*problem)
    assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)


def test_train_run_zero_sigma_updates_only_the_bmu():
    codebook = np.zeros((3, 2))
    codebook[1] = (5.0, 5.0)
    codebook[2] = (9.0, 9.0)
    data = np.array([[1.0, 1.0]])
    dist_sq = np.full((3, 3), 4.0)
    np.fill_diagonal(dist_sq, 0.0)
    orders = np.array([[0]], dtype=np.int64)
    out = kernels.train_run(
        codebook, data, orders, np.array([0.5]), np.array([0.0]), dist_sq
    )
    assert np.allclose(out[0], [0.5, 0.5])
    assert np.allclose(out[1], [5.0, 5.0]) and np.allclose(out[2], [9.0, 9.0])


def test_train_run_validates_step_arrays():
    with pytest.raises(ValueError):
        kernels.train_run(
            np.zeros((2, 2)),
            np.zeros((1, 2)),
            np.array([[0]], dtype=np.int64),
            np.array([0.1, 0.2]),
            np.array([1.0]),
            np.zeros((2, 2)),
        )


def test_train_run_without_samples_returns_the_codebook():
    # som.train on zero rows passes epochs of empty orders
    codebook = np.arange(6.0).reshape(3, 2)
    out = kernels.train_run(
        codebook, np.zeros((0, 2)), np.zeros((4, 0), dtype=np.int64),
        np.zeros(0), np.zeros(0), np.eye(3),
    )
    assert np.array_equal(out, codebook) and out is not codebook


def test_train_run_does_not_mutate_input_codebook():
    # SomModel holds a read-only codebook; every input stays as it was, and
    # an all-zero-sigma schedule does not warn about its 1 / (2 sigma^2)
    rng = np.random.default_rng(4)
    for sigma in (1.0, 0.0):
        inputs = (
            rng.normal(size=(4, 3)),
            rng.normal(size=(3, 3)),
            np.stack([rng.permutation(3) for _ in range(2)]).astype(np.int64),
            np.full(6, 0.4),
            np.full(6, sigma),
            np.ones((4, 4)) - np.eye(4),
        )
        for arr in inputs:
            arr.flags.writeable = False
        before = [arr.copy() for arr in inputs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = kernels.train_run(*inputs)
        assert out.flags.writeable and not np.array_equal(out, inputs[0])
        for arr, was in zip(inputs, before):
            assert np.array_equal(arr, was)


def _split_cases(rng, n):
    made = 0
    while made < n:
        parts = int(rng.integers(2, 7))
        machines = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        values = rng.integers(0, 2, size=(parts, machines)).astype(np.int64)
        pf = rng.integers(0, k, size=parts).astype(np.int64)
        if len(set(pf.tolist())) != k or values.sum() == 0:
            continue
        made += 1
        yield values, pf, k


def _brute_force_split(values, pf, k):
    """First optimum over every covering machine assignment, in lexicographic order."""
    rows = values.tolist()
    families = pf.tolist()
    n1 = sum(map(sum, rows))
    best = None
    for assign in itertools.product(range(k), repeat=len(rows[0])):
        if len(set(assign)) != k:
            continue
        in_block = [
            (i, j) for i, f in enumerate(families) for j, c in enumerate(assign) if f == c
        ]
        num = sum(rows[i][j] for i, j in in_block)
        den = n1 + len(in_block) - num
        if best is None or Fraction(num, den) > Fraction(best[0], best[1]):
            best = (num, den, list(assign))
    return best


def test_best_machine_split_matches_brute_force():
    rng = np.random.default_rng(2)
    for values, pf, k in _split_cases(rng, 60):
        block_ones = np.zeros((k, values.shape[1]), dtype=np.int64)
        for c in range(k):
            block_ones[c] = values[pf == c].sum(axis=0)
        sizes = np.bincount(pf, minlength=k).astype(np.int64)
        num, den, assign = kernels.best_machine_split(block_ones, sizes, int(values.sum()))
        want = _brute_force_split(values, pf, k)
        if want is None:
            assert num < 0
        else:
            assert (num, den, assign.tolist()) == tuple(want)


def test_best_machine_split_requires_every_cell_used():
    # two cells, one machine: no covering machine assignment exists
    block_ones = np.array([[1], [1]], dtype=np.int64)
    sizes = np.array([1, 1], dtype=np.int64)
    num, den, _ = kernels.best_machine_split(block_ones, sizes, 2)
    assert num < 0 and den > 0


def test_best_machine_split_hand_case():
    # two parts, two machines, identity blocks: perfect split scores 2/2
    values = np.array([[1, 0], [0, 1]], dtype=np.int64)
    block_ones = np.stack([values[0], values[1]]).astype(np.int64)
    sizes = np.array([1, 1], dtype=np.int64)
    num, den, assign = kernels.best_machine_split(block_ones, sizes, 2)
    assert (num, den) == (2, 2)
    assert assign.tolist() == [0, 1]


def test_best_machine_split_first_optimum_wins():
    # all-ones 2x2 with two equal families: both covering assignments score
    # the same, so the lexicographically smaller one must be returned
    block_ones = np.array([[1, 1], [1, 1]], dtype=np.int64)
    sizes = np.array([1, 1], dtype=np.int64)
    num, den, assign = kernels.best_machine_split(block_ones, sizes, 4)
    assert assign.tolist() == [0, 1]
    assert (num, den) == (2, 4)
    # [0, 1, 0] scores 4/8 and [0, 1, 1] scores 5/10: one optimum written
    # with different integers, so the lexicographically first one wins
    block_ones = np.array([[1, 0, 1], [0, 2, 2]], dtype=np.int64)
    sizes = np.array([1, 4], dtype=np.int64)
    num, den, assign = kernels.best_machine_split(block_ones, sizes, 6)
    assert (num, den, assign.tolist()) == (4, 8, [0, 1, 0])


def test_best_machine_split_considers_exactly_the_covering_assignments():
    for k in range(1, 4):
        for m in range(1, 7):
            rows = kernels._assignment_matrix(k, m).tolist()
            want = [len(set(row)) == k for row in rows]
            assert kernels._surjective_rows(k, m).tolist() == want


def test_backend_flag_reports_active_backend():
    assert kernels.BACKEND == "numpy"
