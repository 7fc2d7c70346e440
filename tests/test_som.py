"""Lattice geometry, schedules, initialization, training, persistence."""
import binascii
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from somcell import (
    IncidenceMatrix,
    MapGrid,
    Phase,
    SomModel,
    TrainingSchedule,
    default_grid,
    compute_hits,
    default_schedule,
    form_cells,
    init_codebook,
    load_model,
    pca_project,
    quantization_error,
    save_model,
    train,
)
from somcell import pca
from somcell.som import STEP_BUDGET, _base64_codebook

SQ3_2 = math.sqrt(3.0) / 2.0


def test_grid_coordinates_follow_hex_offsets():
    g = MapGrid(3, 2)
    c = g.coords
    # unit (r, c) is row-major index r * cols + c
    assert np.allclose(c[0 * 2 + 0], (0.0, 0.0))
    assert np.allclose(c[0 * 2 + 1], (1.0, 0.0))
    # odd rows shift right half a unit
    assert np.allclose(c[1 * 2 + 0], (0.5, SQ3_2))
    assert np.allclose(c[2 * 2 + 1], (1.0, 2 * SQ3_2))


def test_grid_distance_matrix_properties():
    g = MapGrid(3, 3)
    d = g.distance_sq
    assert np.allclose(d, d.T)
    assert np.allclose(np.diag(d), 0.0)
    assert d[0, 1 * 3 + 0] == pytest.approx(1.0)  # units (0, 0) and (1, 0)


def test_grid_neighbor_pairs_of_small_lattice():
    # 2x2 hex block: only the two far-diagonal corners are not adjacent
    g = MapGrid(2, 2)
    pairs = {tuple(p) for p in g.neighbor_pairs.tolist()}
    assert pairs == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}


def test_grid_rejects_empty_dimensions():
    with pytest.raises(ValueError):
        MapGrid(0, 3)


def test_phase_validation():
    with pytest.raises(ValueError):
        Phase(epochs=0, alpha_start=0.5, alpha_end=0.1, sigma_start=2, sigma_end=1)
    with pytest.raises(ValueError):
        Phase(epochs=1, alpha_start=0.1, alpha_end=0.5, sigma_start=2, sigma_end=1)
    with pytest.raises(ValueError):
        Phase(epochs=1, alpha_start=0.5, alpha_end=0.1, sigma_start=1, sigma_end=2)
    with pytest.raises(ValueError):
        # the schedule's linear ramp from inf is nan
        Phase(epochs=1, alpha_start=0.5, alpha_end=0.1, sigma_start=math.inf, sigma_end=1)


def test_schedule_requires_final_sigma_at_most_one():
    with pytest.raises(ValueError):
        TrainingSchedule((Phase(1, 0.5, 0.1, 5.0, 3.0),))


def test_schedule_step_values_hit_phase_endpoints():
    sched = TrainingSchedule(
        (Phase(2, 0.5, 0.05, 3.0, 1.0), Phase(1, 0.05, 0.01, 1.0, 0.1))
    )
    alphas, sigmas = sched.step_values(samples_per_epoch=4)
    assert alphas.size == sigmas.size == 12
    assert alphas[0] == 0.5 and alphas[7] == pytest.approx(0.05)
    assert sigmas[0] == 3.0 and sigmas[7] == pytest.approx(1.0)
    assert alphas[8] == pytest.approx(0.05) and alphas[-1] == pytest.approx(0.01)
    assert sigmas[-1] == pytest.approx(0.1)
    # decay is monotone within each phase
    assert np.all(np.diff(alphas[:8]) <= 0) and np.all(np.diff(alphas[8:]) <= 0)


def test_default_schedule_shape():
    sched = default_schedule(MapGrid(12, 10), 10)
    assert sched.total_epochs == 30
    first, second = sched.phases
    assert first.alpha_start == 0.5 and first.sigma_start == 6.0
    assert second.alpha_end == 0.01 and second.sigma_end == 0.1


@pytest.mark.parametrize(
    "parts, epochs",
    [(1, (10, 20)), (133, (10, 20)), (134, (10, 20)), (135, (10, 20)), (200, (7, 13)),
     (250, (5, 11)), (400, (3, 7)), (800, (2, 3)), (1334, (1, 2)), (10**6, (1, 2))],
)
def test_default_schedule_caps_steps_on_large_instances(parts, epochs):
    # 30 epochs while they fit the step budget, then ceil(budget / parts),
    # at least 3, a third of them ordering; the endpoints never move
    sched = default_schedule(MapGrid(12, 10), parts)
    assert tuple(ph.epochs for ph in sched.phases) == epochs
    assert sched.total_epochs * parts < STEP_BUDGET + parts or sched.total_epochs == 3
    first, second = sched.phases
    assert (first.alpha_start, first.alpha_end, first.sigma_start, first.sigma_end) == (0.5, 0.05, 6.0, 1.0)
    assert (second.alpha_start, second.alpha_end, second.sigma_start, second.sigma_end) == (0.05, 0.01, 1.0, 0.1)


def test_default_schedule_needs_parts():
    with pytest.raises(ValueError, match="parts must be positive"):
        default_schedule(MapGrid(2, 2), 0)


@pytest.mark.parametrize(
    "parts, expect",
    [(10, (4, 3)), (6, (3, 3)), (100, (6, 6)), (1, (2, 2)), (250, (8, 7)), (400, (9, 8)), (2000, (13, 13))],
)
def test_default_grid_sizes(parts, expect):
    g = default_grid(parts)
    assert (g.rows, g.cols) == expect
    assert g.units >= math.ceil(3.5 * math.sqrt(parts))


def test_init_codebook_is_deterministic_and_in_data_box(problem1):
    grid = MapGrid(6, 5)
    a = init_codebook(grid, problem1, seed=3)
    b = init_codebook(grid, problem1, seed=3)
    assert np.array_equal(a.codebook, b.codebook)
    rows = problem1.values.astype(float)
    assert a.codebook.min() >= rows.min() - 1e-12
    assert a.codebook.max() <= rows.max() + 1e-12
    assert a.input_dim == 10 and a.trained_epochs == 0


def test_init_codebook_spans_a_plane():
    rng = np.random.default_rng(0)
    values = rng.random((20, 6)) < 0.5
    values[np.arange(20), np.arange(20) % 6] = True  # a one in every row and column
    model = init_codebook(MapGrid(5, 4), IncidenceMatrix.from_array(values), seed=1)
    # linear initialization keeps every unit inside an affine 2-D sheet
    centered = model.codebook - model.codebook.mean(axis=0)
    rank = np.linalg.matrix_rank(centered, tol=1e-8)
    assert rank <= 2


def test_principal_pairs_for_init_are_clamped_and_oriented():
    # init_codebook scales by the square roots of these eigenvalues and lays
    # the grid out along these rows; the all-ones matrix has eigenvalues
    # 3, 0, 0, and the zeros come out of the solver slightly negative
    for sym in (np.ones((3, 3)), np.cov(np.random.default_rng(5).normal(size=(12, 7)), rowvar=False)):
        n = sym.shape[0]
        values, vectors = pca.top_eigenpairs(sym)
        assert np.all(values >= 0.0)
        for i, row in enumerate(vectors):
            assert row @ (1.0 + (i + 1) * 1e-3 * np.arange(n)) > 0


def test_init_codebook_identical_rows_falls_back_to_noise():
    data = IncidenceMatrix.from_array(np.ones((5, 4)))
    model = init_codebook(MapGrid(3, 3), data, seed=2)
    assert np.all(np.abs(model.codebook - 1.0) < 0.2)
    again = init_codebook(MapGrid(3, 3), data, seed=2)
    assert np.array_equal(model.codebook, again.codebook)


def test_train_is_deterministic_and_counts_epochs(problem1):
    grid = MapGrid(6, 5)
    sched = default_schedule(grid, problem1.parts)
    m0 = init_codebook(grid, problem1, seed=7)
    a = train(m0, problem1, sched)
    b = train(m0, problem1, sched)
    assert np.array_equal(a.codebook, b.codebook)
    assert a.trained_epochs == 30
    assert a.schedule == sched
    assert m0.trained_epochs == 0


def test_train_continuation_differs_from_restart(problem1):
    grid = MapGrid(6, 5)
    sched = TrainingSchedule((Phase(3, 0.3, 0.05, 2.0, 0.5),))
    m0 = init_codebook(grid, problem1, seed=7)
    once = train(m0, problem1, sched)
    twice = train(once, problem1, sched)
    assert twice.trained_epochs == 6
    # the schedule lists every phase trained, one per call here
    assert once.schedule == sched and twice.schedule.phases == sched.phases * 2
    assert twice.schedule.total_epochs == twice.trained_epochs
    # continuation reshuffles from a new stream, not a replay of the first run
    replay = train(m0, problem1, sched)
    assert not np.array_equal(twice.codebook, replay.codebook)


def test_train_validates_inputs(problem1):
    grid = MapGrid(4, 4)
    model = init_codebook(grid, problem1, seed=0)
    with pytest.raises(ValueError):
        train(model, problem1, TrainingSchedule(()))


@pytest.mark.parametrize(
    "phases",
    [
        [(0.0, 0.0)],
        [(5e-324, 5e-324)],
        [(1e-160, 1e-160)],
        [(1e-150, 1e-150)],
        [(1e200, 1.0), (1.0, 0.1)],
        [(1.7e308, 1.0), (1.0, 0.1)],
    ],
    ids=["0", "5e-324", "1e-160", "1e-150", "1e200", "1.7e308"],
)
def test_train_takes_every_sigma_phase_accepts(problem1, phases):
    # 1 / (2 sigma^2) overflows below about 5.3e-155 and 2 sigma^2 above
    # about 9.5e153; training runs their limits without a warning (the
    # suite turns warnings into errors), and a sigma below 5.3e-155 trains
    # exactly as sigma 0 does: only the matching unit moves
    model = init_codebook(MapGrid(4, 3), problem1, seed=5)
    schedule = TrainingSchedule(tuple(Phase(2, 0.5, 0.05, *sigma) for sigma in phases))
    trained = train(model, problem1, schedule)
    assert np.isfinite(trained.codebook).all()
    assert not np.array_equal(trained.codebook, model.codebook)
    if phases[0][0] < 5.3e-155:
        zero = train(model, problem1, TrainingSchedule((Phase(2, 0.5, 0.05, 0.0, 0.0),)))
        assert trained.codebook.tobytes() == zero.codebook.tobytes()


def test_training_reduces_quantization_error(problem1):
    grid = MapGrid(12, 10)
    model = init_codebook(grid, problem1, seed=42)
    before = quantization_error(model, problem1)
    after = quantization_error(train(model, problem1, default_schedule(grid, problem1.parts)), problem1)
    assert after < before


def test_model_round_trip_is_exact(tmp_path, problem1):
    grid = MapGrid(5, 4)
    model = train(init_codebook(grid, problem1, seed=9), problem1, default_schedule(grid, problem1.parts))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.codebook, model.codebook)
    assert loaded.grid == model.grid
    assert loaded.seed == model.seed
    assert loaded.trained_epochs == 30
    assert loaded.schedule == model.schedule


def test_load_model_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_model(path)
    model = SomModel(grid=MapGrid(2, 2), codebook=np.zeros((4, 2)), seed=0)
    save_model(model, path)
    good = json.loads(path.read_text())
    # version 1 held the codebook as lists of decimal numbers
    good_v1 = {**good, "version": 1, "codebook": [[0.0, 0.0]] * 4}
    phase = {"epochs": 2, "alpha_start": 0.5, "alpha_end": 0.1, "sigma_start": 1.0, "sigma_end": 0.5}
    foreign = [
        [good],
        {**good, "version": 3},
        {**good, "version": 2.0},
        {**good, "version": True},
        {**good, "grid": {**good["grid"], "topology": "rectangular"}},
        # integer fields must be JSON integers, not look-alikes
        {**good, "grid": {**good["grid"], "rows": 2.0}},
        {**good, "grid": {**good["grid"], "cols": "2"}},
        {**good, "input_dim": 2.7},
        # input_dim must be the codebook's width
        {**good, "input_dim": 3},
        {**good, "input_dim": 1},
        {**good, "seed": 3.9},
        {**good, "trained_epochs": True},
        # schedule epochs are integers, rates and radii numbers
        {**good, "schedule": [{**phase, "epochs": 2.5}]},
        {**good, "schedule": [{**phase, "epochs": "2"}]},
        {**good, "schedule": [{**phase, "alpha_start": "0.5"}]},
        {**good, "schedule": [{**phase, "sigma_end": True}]},
        {**good, "schedule": [[2, 0.5, 0.1, 1.0, 0.5]]},
        # the codebook is one base64 string
        {**good, "codebook": good_v1["codebook"]},
    ]
    for doc in foreign:
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(path)
    path.write_text(json.dumps(good_v1))
    with pytest.raises(ValueError, match="^unsupported model version 1$"):
        load_model(path)
    # integer rates are JSON numbers too
    path.write_text(json.dumps({**good, "schedule": [{**phase, "alpha_end": 0}]}))
    model = load_model(path)
    assert model.schedule.total_epochs == 2 and model.schedule.phases[0].alpha_end == 0


def _base64(raw: bytes) -> str:
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


# signed zeros, the smallest subnormals, a mid subnormal and the largest finite values
FINITE_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308, -1.7976931348623157e308]
# SomModel's bound on codebook entries, and the values just inside it
EDGE = 2.0**100
EDGE_VALUES = [EDGE, -EDGE, float(np.nextafter(EDGE, 0)), -float(np.nextafter(EDGE, 0))]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)),
    data=st.data(),
)
def test_model_file_round_trips_every_finite_float(tmp_path, shape, data):
    rows, cols, dim = shape
    units = rows * cols
    # the codec: every finite float keeps its bits through the base64
    # string, read back by load_model's decoder and by the README's recipe,
    # which needs no somcell import
    finite = st.sampled_from(FINITE_EXTREMES) | st.floats(allow_nan=False, allow_infinity=False)
    raw = data.draw(arrays(np.float64, (units, dim), elements=finite))
    text = _base64(raw.astype("<f8").tobytes())
    recipe = np.frombuffer(binascii.a2b_base64(text), dtype="<f8").reshape(units, dim)
    for got in (_base64_codebook(text, units, dim), recipe):
        assert np.array_equal(got.view(np.int64), raw.view(np.int64))
    # the file: save_model and load_model keep every admitted value's bits
    admitted = st.sampled_from(FINITE_EXTREMES[:5] + EDGE_VALUES) | st.floats(-EDGE, EDGE)
    codebook = data.draw(arrays(np.float64, (units, dim), elements=admitted))
    path = tmp_path / "model.json"
    save_model(SomModel(grid=MapGrid(rows, cols), codebook=codebook, seed=3), path)
    doc = json.loads(path.read_text())
    assert doc["version"] == 2 and doc["codebook"] == _base64(codebook.astype("<f8").tobytes())
    assert np.array_equal(load_model(path).codebook.view(np.int64), codebook.view(np.int64))
    # a file holding the codec's values loads them bit for bit, or, with
    # one past 2**100, is rejected
    path.write_text(json.dumps({**doc, "codebook": text}))
    if (np.abs(raw) <= EDGE).all():
        assert np.array_equal(load_model(path).codebook.view(np.int64), raw.view(np.int64))
    else:
        with pytest.raises(ValueError, match="finite"):
            load_model(path)


def _swap_last_data_char(text: str) -> str:
    """The same decoded bytes with non-zero trailing bits: the last character
    before the padding carries bits the decoder drops."""
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    body = text.rstrip("=")
    return body[:-1] + alphabet[alphabet.index(body[-1]) | 1] + text[len(body):]


def test_load_model_rejects_a_malformed_base64_codebook(tmp_path):
    path = tmp_path / "model.json"
    save_model(SomModel(grid=MapGrid(2, 2), codebook=np.arange(8.0).reshape(4, 2) / 8, seed=0), path)
    good = json.loads(path.read_text())
    text = good["codebook"]
    assert text.endswith("==")  # 64 bytes: one byte past a 3-byte group
    bad_codebooks = {
        "list": [[0.0, 0.0]] * 4,
        "number": 0.5,
        "null": None,
        "non-alphabet": text[:8] + "!" + text[8:],
        "url-safe": text.replace("A", "-", 1),
        "non-ascii": text[:8] + "é" + text[8:],
        "newline": text[:8] + "\n" + text[8:],
        "trailing newline": text + "\n",
        "space": text[:8] + " " + text[8:],
        "missing padding": text[:-1],
        "no padding": text.rstrip("="),
        "extra padding": text + "=",
        "trailing bits": _swap_last_data_char(text),
        "empty": "",
    }
    # the decoder drops trailing bits, so only the canonical check sees them
    assert binascii.a2b_base64(bad_codebooks["trailing bits"]) == binascii.a2b_base64(text)
    for codebook in bad_codebooks.values():
        path.write_text(json.dumps({**good, "codebook": codebook}))
        with pytest.raises(ValueError, match="codebook"):
            load_model(path)
    # canonical base64 of the wrong byte count: the message names input_dim
    for size in (56, 61, 72):
        path.write_text(json.dumps({**good, "codebook": _base64(bytes(size))}))
        with pytest.raises(ValueError, match="input_dim"):
            load_model(path)
    for input_dim in (0, -1, 1, 3):
        path.write_text(json.dumps({**good, "input_dim": input_dim}))
        with pytest.raises(ValueError, match="input_dim"):
            load_model(path)
    path.write_text(json.dumps({**good, "input_dim": 0, "codebook": ""}))
    with pytest.raises(ValueError, match="input_dim"):
        load_model(path)
    for bad in (np.nan, np.inf, -np.inf, 1e300, -1e200, FINITE_EXTREMES[-2], float(np.nextafter(-EDGE, -np.inf))):
        path.write_text(json.dumps({**good, "codebook": _base64(np.array([bad] + [0.0] * 7, dtype="<f8").tobytes())}))
        with pytest.raises(ValueError, match="finite"):
            load_model(path)


def test_model_validates_codebook_shape():
    with pytest.raises(ValueError):
        SomModel(grid=MapGrid(2, 2), codebook=np.zeros((3, 2)), seed=0)
    with pytest.raises(ValueError):
        SomModel(grid=MapGrid(2, 2), codebook=np.zeros(4), seed=0)
    with pytest.raises(ValueError):
        SomModel(grid=MapGrid(2, 2), codebook=np.full((4, 2), np.nan), seed=0)
    with pytest.raises(ValueError):
        SomModel(grid=MapGrid(2, 2), codebook=np.zeros((4, 2)), seed=-1)
    # train seeds each epoch's shuffle from (seed, trained_epochs), which
    # numpy accepts only when both are non-negative
    with pytest.raises(ValueError, match="trained_epochs must be non-negative"):
        SomModel(grid=MapGrid(2, 2), codebook=np.zeros((4, 2)), seed=0, trained_epochs=-1)


def test_model_bounds_codebook_entries_by_2_100():
    # every entry within 2**100 keeps its bits; NaN, inf and any finite
    # value past the bound are rejected, so nothing downstream overflows
    inside = np.array(EDGE_VALUES * 2).reshape(4, 2)
    assert SomModel(grid=MapGrid(2, 2), codebook=inside, seed=0).codebook.tobytes() == inside.tobytes()
    for bad in (np.nextafter(EDGE, np.inf), 1e300, FINITE_EXTREMES[-2], np.inf, np.nan):
        for sign in (1.0, -1.0):
            codebook = np.zeros((4, 2))
            codebook[3, 1] = sign * bad
            with pytest.raises(ValueError, match="finite"):
                SomModel(grid=MapGrid(2, 2), codebook=codebook, seed=0)


MISMATCH_CALLS = {
    "train": lambda model, data: train(model, data, default_schedule(model.grid, data.parts)),
    "quantization_error": quantization_error,
    "compute_hits": compute_hits,
    "pca_project": pca_project,
    "form_cells": lambda model, data: form_cells(model, data, k_max=2),
    # the machine count is checked before k_max, so the mismatch is reported
    "form_cells_kmax_1": lambda model, data: form_cells(model, data, k_max=1),
}


@pytest.mark.parametrize("call", MISMATCH_CALLS.values(), ids=MISMATCH_CALLS.keys())
def test_machine_count_mismatch_has_one_message(call):
    model = init_codebook(MapGrid(3, 3), IncidenceMatrix.from_array(np.eye(5)), seed=0)
    data = IncidenceMatrix.from_array(np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1]]))
    with pytest.raises(ValueError) as exc:
        call(model, data)
    assert str(exc.value) == (
        "model expects 5 machines but the data has 3; was it trained on a different instance?"
    )
