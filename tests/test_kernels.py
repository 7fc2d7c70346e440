"""Kernels against independent plain-Python references, plus behavior cases."""
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import clustered_maps, naive_bmu, random_incidence, train_run_reference
from somcell import (
    IncidenceMatrix,
    MapGrid,
    SomModel,
    default_grid,
    default_schedule,
    init_codebook,
    kernels,
)
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


def _column_order_bmu(codebook, x):
    """Best-matching-unit scan that adds each unit's squares in column order,
    one coordinate at a time."""
    best, best_d = 0, None
    for i, row in enumerate(codebook):
        d = 0.0
        for c, xj in zip(row, x):
            d += (c - xj) * (c - xj)
        if best_d is None or d < best_d:
            best, best_d = i, d
    return best


# the search's contract: finite entries of magnitude at most 2**100
EDGE = 2.0**100


@st.composite
def adversarial_bmu_problems(draw):
    """(codebook, samples, ulp pairs): duplicate rows, rows one ulp apart,
    samples that sit on codebook rows, one-unit codebooks, and a scale that
    reaches the contract's edge (entries up to 2**100) or makes the squares
    underflow."""
    units, dim = draw(st.integers(1, 12)), draw(st.integers(1, 16))
    values = st.sampled_from([0.0, 0.5, 1.0, -1.0, 2.0, -2.0]) | st.floats(-2.0, 2.0, allow_nan=False)
    scale = draw(st.sampled_from([1.0, EDGE / 2, 2.0**-60, 1e-160]))
    codebook = draw(arrays(np.float64, (units, dim), elements=values)) * scale
    for u in draw(st.lists(st.integers(0, units - 1), max_size=units)):
        codebook[u] = codebook[0]
    pairs, used = [], set()
    for src, dst in draw(st.lists(st.tuples(st.integers(0, units - 1), st.integers(0, units - 1)), max_size=3)):
        if src != dst and not {src, dst} & used:
            # a neighbour past the edge is clipped back onto it, a tie
            codebook[dst] = np.clip(np.nextafter(codebook[src], draw(st.sampled_from([np.inf, -np.inf]))), -EDGE, EDGE)
            pairs.append((src, dst))
            used |= {src, dst}
    samples = draw(arrays(np.float64, (draw(st.integers(0, 10)), dim), elements=values)) * scale
    on_rows = draw(st.lists(st.integers(0, units - 1), max_size=4))
    samples = np.concatenate([samples, codebook[on_rows], codebook[[u for pair in pairs for u in pair]]])
    assert (np.abs(codebook) <= EDGE).all() and (np.abs(samples) <= EDGE).all()
    return codebook, samples, pairs


def _strict():
    """Within the contract nothing overflows or turns invalid; underflow is
    numpy's default ignore."""
    return np.errstate(over="raise", invalid="raise", divide="raise")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(adversarial_bmu_problems())
# every square underflows to 0, so the sums tie, while the product's |c|^2
# keeps one subnormal and ranks the second unit first
@example((np.array([[2e-162], [0.0]]), np.array([[1e-162]]), []))
# the contract's edge and its one-ulp neighbour inside it
@example((np.array([[EDGE, -EDGE], [np.nextafter(EDGE, 0), -EDGE]]), np.array([[EDGE, -EDGE], [-EDGE, EDGE]]), [(0, 1)]))
# a far row beside a pair of one-ulp neighbours, a sample on each
@example((np.array([[1.0, 2.0], [0.5, 0.5], np.nextafter([0.5, 0.5], 1)]), np.array([[0.5, 0.5], [1.0, 2.0]]), [(1, 2)]))
# three rows at the contract's edge
@example((np.array([[-EDGE, 0.0], [0.0, EDGE], [EDGE, EDGE]]), np.array([[EDGE, -EDGE], [0.5, 0.5]]), []))
def test_batch_bmu_matches_naive_scan_on_adversarial_codebooks(problem):
    codebook, samples, pairs = problem
    with _strict():
        got = kernels.batch_bmu(codebook, samples)
        best, unsure = kernels._certified(samples, codebook)
        want = [naive_bmu(codebook, x) for x in samples]
        # a certified row has the same first minimum in any summation order
        backward = [naive_bmu(codebook[:, ::-1], x) for x in samples[:, ::-1]]
    in_columns = [_column_order_bmu(codebook.tolist(), x) for x in samples.tolist()]
    assert got.dtype == np.int64 and got.tolist() == want
    for row in np.flatnonzero(~unsure).tolist():
        assert best[row] == want[row] == backward[row] == in_columns[row]
    if codebook.shape[0] == 1:
        assert not unsure.any()
    # a sample on a row with a neighbour one ulp away cannot be certified
    for src, dst in pairs:
        for u in (src, dst):
            on_row = (samples == codebook[u]).all(axis=1)
            assert unsure[on_row].all()


def test_nearest_rows_certifies_separated_rows():
    # on ordinary data the product settles every row: the fast path is the one taken
    rng = np.random.default_rng(5)
    codebook, samples = rng.normal(size=(30, 10)), rng.normal(size=(200, 10))
    best, unsure = kernels._certified(samples, codebook)
    assert not unsure.any()
    assert best.tolist() == [naive_bmu(codebook.tolist(), x) for x in samples.tolist()]


def test_nearest_rows_leaves_exact_ties_unsure():
    codebook = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    query = np.array([[0.6, 0.6], [1.0, 0.0], [0.0, 0.9]])
    _, unsure = kernels._certified(query, codebook)
    assert unsure.tolist() == [True, True, False]


def test_nearest_rows_sums_unsure_rows_one_at_a_time():
    # a constant codebook leaves every part tied, so every row is summed; a
    # (parts x units x machines) temporary would be 480 KB per part here
    parts, units, machines = 400, 100, 60
    values = (np.random.default_rng(4).random((parts, machines)) < 0.3).astype(np.uint8)
    codebook = np.full((units, machines), 0.5)
    tracemalloc.start()
    try:
        best = kernels.batch_bmu(codebook, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernels._certified(values.astype(np.float64), codebook)[1].all()
    assert best.tolist() == [0] * parts
    assert peak < 10 * parts * units * 8


def test_every_nearest_search_picks_the_same_row():
    # From zeros(8), summing these rows' squares in column order gives
    # 29.01 and 29.009999999999998, while numpy's pairwise sum gives
    # 29.009999999999998 for both. The product leaves the tie unsure, and
    # every search settles it with the pairwise sum, so BMUs and the
    # hitless fill both pick row 0. Dimensions 1-7 cannot tell the two sums
    # apart.
    rows = np.array([[1e-8, 3, 0, 3, 3, 0.1, 1, 1], [0, 0.1, 3, 1e-8, 1, 3, 3, 1]])
    origin = np.zeros((1, 8))
    assert _column_order_bmu(rows.tolist(), origin[0].tolist()) == 1
    assert kernels._certified(origin, rows)[1].tolist() == [True]
    assert naive_bmu(rows, origin[0]) == 0
    assert kernels.batch_bmu(rows, origin).tolist() == [0]
    # units 0 and 1 hold the parts; unit 2 sits at the origin with none
    grid = MapGrid(1, 3)
    model = SomModel(grid=grid, codebook=np.vstack([rows, origin]), seed=0)
    hits = HitHistogram(grid=grid, bmus=np.array([0, 1]))
    assert nearest_hit_units(model, hits).tolist() == [0, 1, 0]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(clustered_maps())
def test_batch_bmu_matches_naive_scan_on_clustered_map_hits(case):
    # every hit sits on its unit's codebook row, which often ties with others
    model, hits, _ = case
    samples = model.codebook[hits.bmus]
    got = kernels.batch_bmu(model.codebook, samples)
    assert got.dtype == np.int64 and got.tolist() == [naive_bmu(model.codebook, x) for x in samples]


def test_batch_bmu_converts_a_01_matrix_to_float64(monkeypatch):
    # numpy's einsum and matmul keep uint8 and wrap at 256, so a row of 300
    # ones has norm 44 there: uint8 samples would get a rounding bound from
    # the wrapped norms, and a uint8 codebook fails in the product's scaling
    values = np.zeros((4, 300), dtype=np.uint8)
    values[0, :200] = 1
    values[1] = 1
    values[2, ::3] = 1
    values[3, 150:] = 1
    assert np.einsum("ij,ij->i", values, values).tolist() == [200, 44, 100, 150]
    seen = []
    certified = kernels._certified

    def recorded(points, centers):
        seen.append((points.dtype, centers.dtype))
        return certified(points, centers)

    monkeypatch.setattr(kernels, "_certified", recorded)
    codebook = np.random.default_rng(9).random((6, 300))
    for cb in (values, codebook):
        got = kernels.batch_bmu(cb, values)
        want = kernels.batch_bmu(cb.astype(np.float64), values.astype(np.float64))
        assert got.tolist() == want.tolist() == [naive_bmu(cb, x) for x in values]
    assert kernels.batch_bmu(values, values).tolist() == [0, 1, 2, 3]
    assert set(seen) == {(np.dtype(np.float64), np.dtype(np.float64))}


def test_nearest_rows_converts_uint8_rows_to_float64():
    # a public call on 0/1 uint8 rows with 300 machines: a uint8 einsum
    # wraps a row of 300 ones to norm 44, and uint8 centers cannot take
    # the product's -2 scaling, so both sides are ranked as float64
    values = np.zeros((5, 300), dtype=np.uint8)
    values[0, :200] = 1
    values[1] = 1
    values[2, ::3] = 1
    values[3, 150:] = 1
    values[4, :10] = 1
    centers = values[[3, 1, 0]]
    got = kernels.nearest_rows(values, centers)
    want = kernels.nearest_rows(values.astype(np.float64), centers.astype(np.float64))
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist() == [naive_bmu(centers, x) for x in values] == [2, 1, 0, 0, 0]


def _split_sizes(seed, units):
    """A random split of ``units`` centers into consecutive nonempty segments."""
    cuts = np.flatnonzero(np.random.default_rng(seed).random(units - 1) < 0.5) + 1
    return np.diff([0, *cuts.tolist(), units])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(adversarial_bmu_problems(), st.integers(0, 2**32 - 1))
# a one-center segment beside a pair of one-ulp neighbours, a sample on each
@example((np.array([[1.0, 2.0], [0.5, 0.5], np.nextafter([0.5, 0.5], 1)]), np.array([[0.5, 0.5], [1.0, 2.0]]), [(1, 2)]), 8)
# the same split at the contract's edge
@example((np.array([[-EDGE, 0.0], [0.0, EDGE], [EDGE, EDGE]]), np.array([[EDGE, -EDGE], [0.5, 0.5]]), []), 8)
def test_segmented_search_is_each_segment_pairwise_first_min(problem, seed):
    # a search over any consecutive segment of the centers answers the first
    # minimum of numpy's pairwise sum over that segment alone; the problems
    # hold duplicate and one-ulp-apart rows, samples on rows, one-center
    # segments and the contract's 2**100 edge
    codebook, samples, _ = problem
    sizes = _split_sizes(seed, codebook.shape[0])
    starts = np.cumsum(sizes) - sizes
    for a, w in zip(starts.tolist(), sizes.tolist()):
        segment = codebook[a:a + w]
        with _strict():
            got = kernels.nearest_rows(samples, segment)
            want = [naive_bmu(segment, x) for x in samples]
            best, unsure = kernels._certified(samples, segment)
        assert got.dtype == np.int64 and got.shape == (samples.shape[0],)
        assert got.tolist() == want
        assert best[~unsure].tolist() == got[~unsure].tolist()
        if w == 1:
            assert not unsure.any()


def _reference_train_run(codebook, data, orders, alphas, sigmas, dist_sq):
    """Sequential online updates, one unit and one coordinate at a time."""
    cb = codebook.tolist()
    t = 0
    for order in orders.tolist():
        for p in order:
            x = data[p].tolist()
            best = _column_order_bmu(cb, x)
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
    """train_run inputs with tied codebook rows, zero sigmas mid-schedule,
    sigmas small enough for the neighborhood to underflow to 0, and sigmas
    whose 1 / (2 sigma^2) or 2 sigma^2 overflows."""
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
    radius = st.sampled_from([0.0, 1e-160, 1e-3, 0.05, 0.5, 1e200]) | st.floats(0.0, 5.0)
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
    # sigmas near the float minimum or maximum make 2*sigma**2 under- or
    # overflow; train_run trains them as the limits, finite and without a
    # warning (the suite turns warnings into errors)
    got = kernels.train_run(*problem)
    want = train_run_reference(*problem)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.isfinite(got).all()


def _lattice_problem(parts, machines, steps=360):
    """train_run inputs on ``default_grid(parts)`` with its default schedule:
    ``steps`` steps spread over the whole schedule, so the run meets both
    phases' alphas and sigmas, in three epochs."""
    values = random_incidence(np.random.default_rng(parts), parts, machines, density=0.2)
    grid = default_grid(parts)
    model = init_codebook(grid, IncidenceMatrix.from_array(values), 1)
    alphas, sigmas = default_schedule(grid, parts).step_values(parts)
    picked = np.linspace(0, alphas.size - 1, steps).astype(np.int64)
    orders = np.random.default_rng(1).permutation(parts)[:steps].reshape(3, -1)
    return model.codebook, values, orders, alphas[picked], sigmas[picked], grid.distance_sq


@pytest.mark.parametrize("schedule", ["default", "zero-sigma-tail", "underflowing-sigma"])
@pytest.mark.parametrize("parts, machines, levels", [(400, 60, 101), (2000, 300, 205)])
def test_train_run_is_bit_identical_on_real_lattices(parts, machines, levels, schedule):
    # 360 steps span several weight tables on both lattices (81 and 39 steps
    # a table); the last cases end on steps that move only the matching
    # unit, or have a sigma whose 2 sigma^2 underflows to 0 mid-table, and
    # train_run must not warn on them (the suite turns warnings into errors)
    codebook, values, orders, alphas, sigmas, dist_sq = _lattice_problem(parts, machines)
    assert np.unique(dist_sq).size == levels
    assert orders.size > 4 * kernels._TABLE_ELEMENTS // levels
    if schedule == "zero-sigma-tail":
        sigmas[-100:] = 0.0
    elif schedule == "underflowing-sigma":
        sigmas[150:153] = 1e-170
    got = kernels.train_run(codebook, values, orders, alphas, sigmas, dist_sq)
    want = train_run_reference(codebook, values, orders, alphas, sigmas, dist_sq)
    assert np.array_equal(got, want)
    assert np.isfinite(got).all()


def test_train_run_tabulates_few_steps_at_a_time():
    # the BLAS-thread check's shape: 2000x300 on a 15x15 map, three epochs
    # of 2000 steps over 205 distinct lattice distances. Besides the
    # float64 samples, the codebook and its difference buffer, train_run
    # holds a (units x units) index, the sample rows as a list and a 64 KB
    # weight table (about 0.9 MB in all here); a table for each epoch
    # (2000 x 205 x 8 bytes, 3.3 MB) or for the whole run would not fit
    parts, machines = 2000, 300
    values = random_incidence(np.random.default_rng(7), parts, machines, density=0.2)
    grid = default_grid(parts)
    model = init_codebook(grid, IncidenceMatrix.from_array(values), 1)
    alphas, sigmas = default_schedule(grid, parts).step_values(parts)
    orders = np.stack([np.random.default_rng(e).permutation(parts) for e in range(alphas.size // parts)])
    assert orders.shape == (3, parts)
    dist_sq = grid.distance_sq
    inputs = 8 * (parts * machines + 2 * grid.units * machines)
    tracemalloc.start()
    try:
        kernels.train_run(model.codebook, values, orders, alphas, sigmas, dist_sq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < inputs + 1.5 * 2**20


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
        np.zeros(0), np.zeros(0), np.ones((3, 3)) - np.eye(3),
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
    """Random splits, then tie-heavy ones: few ones, up to four families,
    sometimes as many families as machines or a family with no ones.
    """
    made = 0
    while made < n:
        tied = made >= n // 2
        k = int(rng.integers(1, 5 if tied else 4))
        parts = int(rng.integers(max(k, 2), 7))
        machines = int(rng.integers(max(k, 2), 8 if tied else 7))
        if tied and rng.random() < 0.25:
            machines = k
        values = (rng.random((parts, machines)) < (0.2 if tied else 0.5)).astype(np.int64)
        pf = rng.integers(0, k, size=parts).astype(np.int64)
        if tied and rng.random() < 0.3:
            values[pf == rng.integers(0, k)] = 0
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
    for values, pf, k in _split_cases(rng, 300):
        block_ones = np.zeros((k, values.shape[1]), dtype=np.int64)
        for c in range(k):
            block_ones[c] = values[pf == c].sum(axis=0)
        sizes = np.bincount(pf, minlength=k).astype(np.int64)
        num, den, assign = kernels.best_machine_split(block_ones, sizes)
        want = _brute_force_split(values, pf, k)
        if want is None:
            assert num < 0
        else:
            assert (num, den, assign.tolist()) == tuple(want)


def test_best_machine_split_requires_every_cell_used():
    # two cells, one machine: no covering machine assignment exists
    block_ones = np.array([[1], [1]], dtype=np.int64)
    sizes = np.array([1, 1], dtype=np.int64)
    num, den, _ = kernels.best_machine_split(block_ones, sizes)
    assert num < 0 and den > 0


def test_best_machine_split_hand_case():
    # two parts, two machines, identity blocks: perfect split scores 2/2
    values = np.array([[1, 0], [0, 1]], dtype=np.int64)
    block_ones = np.stack([values[0], values[1]]).astype(np.int64)
    sizes = np.array([1, 1], dtype=np.int64)
    num, den, assign = kernels.best_machine_split(block_ones, sizes)
    assert (num, den) == (2, 2)
    assert assign.tolist() == [0, 1]


def test_best_machine_split_first_optimum_wins():
    # all-ones 2x2 with two equal families: both covering assignments score
    # the same, so the lexicographically smaller one must be returned
    block_ones = np.array([[1, 1], [1, 1]], dtype=np.int64)
    sizes = np.array([1, 1], dtype=np.int64)
    num, den, assign = kernels.best_machine_split(block_ones, sizes)
    assert assign.tolist() == [0, 1]
    assert (num, den) == (2, 4)
    # [0, 1, 0] scores 4/8 and [0, 1, 1] scores 5/10: one optimum written
    # with different integers, so the lexicographically first one wins
    block_ones = np.array([[1, 0, 1], [0, 2, 2]], dtype=np.int64)
    sizes = np.array([1, 4], dtype=np.int64)
    num, den, assign = kernels.best_machine_split(block_ones, sizes)
    assert (num, den, assign.tolist()) == (4, 8, [0, 1, 0])


def _efficacy(values, row_family, col_family):
    """Efficacy of a block assignment counted entry by entry from the matrix."""
    n1 = inside = ones_inside = 0
    for i, row in enumerate(values.tolist()):
        for j, one in enumerate(row):
            n1 += one
            if row_family[i] == col_family[j]:
                inside += 1
                ones_inside += one
    return Fraction(ones_inside, n1 + inside - ones_inside)


def test_ascend_split_never_lowers_efficacy_and_keeps_every_family():
    rng = np.random.default_rng(11)
    for values, pf, k in _split_cases(rng, 300):
        # a random surjective machine assignment: k machines take one family
        # each, the rest any
        mc = np.concatenate([rng.permutation(k), rng.integers(0, k, size=values.shape[1] - k)])
        mc = rng.permutation(mc)
        # both sides, as the polish takes them: machines given the part
        # families, then parts given the machine cells
        for matrix, rows, columns in ((values, pf, mc), (values.T, mc, pf)):
            tally = np.stack([matrix[rows == f].sum(axis=0) for f in range(k)])
            # the rows partition the matrix, so the tally holds all its ones
            assert tally.sum() == matrix.sum()
            given = columns.copy()
            got = kernels.ascend_split(tally, np.bincount(rows, minlength=k), given)
            assert np.array_equal(given, columns)
            assert np.bincount(got, minlength=k).min() > 0
            before, after = _efficacy(matrix, rows, columns), _efficacy(matrix, rows, got)
            assert after > before if got is not given else after == before
            # from its own result no step rises, so it hands back the very array
            assert kernels.ascend_split(tally, np.bincount(rows, minlength=k), got) is got


def test_backend_flag_reports_active_backend():
    assert kernels.BACKEND == "numpy"
