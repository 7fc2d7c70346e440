"""Release gate: one test per shipped guarantee, tolerances pinned.

Each test prints through the conftest summary hook as a single PASS/FAIL
line, so `pytest tests/test_acceptance.py` doubles as the release checklist.
"""
import json
import time
from fractions import Fraction

import numpy as np

from conftest import (
    P1_MACHINE_CELLS,
    P1_PART_FAMILIES,
    naive_bmu,
    planted_instance,
    random_assignment,
    random_incidence,
)
from somcell import (
    CellAssignment,
    IncidenceMatrix,
    MapGrid,
    SomModel,
    cluster_basis,
    cluster_map,
    compute_hits,
    compute_umatrix,
    count_blocks,
    form_cells,
    grouping_efficacy,
    kernels,
    oracle_best_assignment,
)
from somcell.cli import extract_cells, main, train_map
from somcell.pca import top_eigenpairs
from somcell.viz import nearest_hit_units

GRID_12x10 = MapGrid(12, 10)
SEEDS = tuple(range(42, 52))

# The expected two-cell assignment of the bundled 10x10 demo instance.
P1_ASSIGNMENT = CellAssignment(
    part_family=tuple(1 if i in P1_PART_FAMILIES[0] else 2 for i in range(10)),
    machine_cell=tuple(2 if j in P1_MACHINE_CELLS[0] else 1 for j in range(10)),
)


def test_criterion_1_efficacy_counts_are_exact(problem1):
    counts = count_blocks(problem1, P1_ASSIGNMENT)  # warm any lazy machinery
    start = time.perf_counter()
    counts = count_blocks(problem1, P1_ASSIGNMENT)
    efficacy = grouping_efficacy(counts)
    elapsed = time.perf_counter() - start

    assert (counts.n1, counts.n1_out, counts.n0_in) == (52, 2, 0)
    assert efficacy == Fraction(50, 52)  # exact rational equality, not approx
    assert elapsed < 1e-3


def test_criterion_2_pipeline_recovers_known_grouping(problem1):
    expected_fams = set(P1_PART_FAMILIES)
    expected_cells = set(P1_MACHINE_CELLS)
    recovered = 0
    for seed in SEEDS:
        start = time.perf_counter()
        model = train_map(problem1, seed, GRID_12x10)
        assignment, grouping = extract_cells(model, problem1, 5)
        assert time.perf_counter() - start < 5.0
        if assignment.k != 2 or grouping.efficacy != Fraction(50, 52):
            continue
        fams = {frozenset(np.flatnonzero(np.array(assignment.part_family) == c).tolist()) for c in (1, 2)}
        cells = {frozenset(np.flatnonzero(np.array(assignment.machine_cell) == c).tolist()) for c in (1, 2)}
        if fams == expected_fams and cells == expected_cells:
            recovered += 1
    assert recovered >= 8, f"only {recovered}/10 seeds recovered the grouping"


def test_criterion_3_oracle_confirms_pipeline_optimum(problem1):
    start = time.perf_counter()
    assignment, efficacy = oracle_best_assignment(problem1, 2)
    elapsed = time.perf_counter() - start
    assert efficacy == Fraction(50, 52)
    assert assignment.k == 2
    assert elapsed < 60.0


def _flip_direction(counts, inside: bool, was_one: bool):
    """Exact predicted effect of one bit flip on efficacy, from the definition."""
    num = Fraction(counts.n1 - counts.n1_out)
    den = Fraction(counts.n1 + counts.n0_in)
    if inside and was_one:
        return (num - 1) / den, "lt"
    if inside and not was_one:
        return (num + 1) / den, "gt"
    if was_one:  # exceptional one removed
        return num / (den - 1), "ge"
    return num / (den + 1), "le"  # exceptional one added


def _check_flip_monotonicity(rng, cases):
    values = random_incidence(rng, 6, 8)
    pf, mc = random_assignment(rng, 6, 8, int(rng.integers(2, 4)))
    assignment = CellAssignment(part_family=pf, machine_cell=mc)
    data = type("Data", (), {"values": values})()
    before = count_blocks(data, assignment)
    mu = grouping_efficacy(before)

    i, j = int(rng.integers(6)), int(rng.integers(8))
    inside, was_one = pf[i] == mc[j], bool(values[i, j])
    if was_one and before.n1 == 1:
        return
    values = values.copy()
    values[i, j] ^= 1
    predicted, relation = _flip_direction(before, inside, was_one)
    mu_after = grouping_efficacy(count_blocks(type("Data", (), {"values": values})(), assignment))

    assert mu_after == predicted, (inside, was_one, mu, mu_after, predicted)
    checks = {"lt": mu_after < mu, "gt": mu_after > mu, "ge": mu_after >= mu, "le": mu_after <= mu}
    assert checks[relation], (relation, mu, mu_after)
    cases[(inside, was_one)] += 1


def _power_iteration_eigenpairs(matrix, rng, count=2):
    """Reference eigensolver: plain power iteration with deflation."""
    s = np.array(matrix, dtype=np.float64)
    values, vectors = [], []
    for _ in range(count):
        v = rng.standard_normal(s.shape[0])
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(200_000):
            w = s @ v
            norm = np.linalg.norm(w)
            if norm < 1e-300:
                break
            w /= norm
            lam_new = float(w @ s @ w)
            if abs(lam_new - lam) < 1e-15 * max(1.0, abs(lam_new)):
                v, lam = w, lam_new
                break
            v, lam = w, lam_new
        values.append(lam)
        vectors.append(v)
        s = s - lam * np.outer(v, v)
    return np.array(values), np.column_stack(vectors)


def test_criterion_4_property_suite(problem1):
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    # (a) single-bit flips move efficacy exactly as the formula predicts
    cases = {(ins, one): 0 for ins in (False, True) for one in (False, True)}
    for _ in range(500):
        _check_flip_monotonicity(rng, cases)
    assert min(cases.values()) >= 10, cases  # every flip direction exercised

    # (b) BMU matches an independent naive scan, duplicate rows included
    queries = 0
    for _ in range(20):
        units, dim = int(rng.integers(4, 30)), int(rng.integers(2, 12))
        codebook = rng.random((units, dim))
        codebook[units // 2] = codebook[0]  # duplicate row: tie must go low
        for _ in range(50):
            x = codebook[0] if queries % 10 == 0 else rng.random(dim)
            assert kernels.batch_bmu(codebook, x[None])[0] == naive_bmu(codebook, x)
            queries += 1
    assert queries == 1000

    # (c) U-matrix values are symmetric in the pair and never negative
    for _ in range(100):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        grid = MapGrid(rows, cols)
        model = SomModel(grid=grid, codebook=rng.random((grid.units, 4)), seed=0)
        um = compute_umatrix(model)
        assert (um.pair_values >= 0).all() and (um.unit_values >= 0).all()
        dist = {}
        for (a, b), val in zip(um.pairs.tolist(), um.pair_values.tolist()):
            dist[(a, b)] = val
            assert a != b
        for (a, b), val in dist.items():
            assert dist.get((b, a), val) == val  # same edge, same value

    # (d) eigenpairs agree with an independent power-iteration solver
    for _ in range(50):
        n = int(rng.integers(3, 11))
        a = rng.standard_normal((n, n))
        s = a @ a.T
        values, vectors = top_eigenpairs(s)  # vectors come back one per row
        ref_values, ref_vectors = _power_iteration_eigenpairs(s, rng)
        scale = max(1.0, float(ref_values[0]))
        assert np.allclose(values, ref_values, rtol=0, atol=1e-8 * scale)
        for lam, vec in zip(values, vectors):
            assert np.linalg.norm(s @ vec - lam * vec) < 1e-7 * scale
        gap = (ref_values[0] - ref_values[1]) / scale
        if gap > 1e-6:
            assert abs(vectors[0] @ ref_vectors[:, 0]) > 1.0 - 1e-6

    # (e) pipeline stays within 0.85 of the exhaustive optimum on planted 6x6
    exact_blocks = 0
    for _ in range(100):
        data = IncidenceMatrix.from_array(planted_instance(rng))
        model = train_map(data, 42)
        mu = grouping_efficacy(count_blocks(data, form_cells(model, data, 3)))
        _, best = oracle_best_assignment(data, 3)
        assert mu >= Fraction(85, 100) * best, (mu, best)
        if best == 1:
            assert mu == 1, "exactly block-diagonal instance missed"
            exact_blocks += 1
    assert exact_blocks >= 10  # the generator must exercise the mu == 1 clause

    assert time.perf_counter() - start < 120.0


def test_criterion_5_map_surfaces_show_structure(problem1):
    hits_ok = 0
    for seed in SEEDS:
        start = time.perf_counter()
        model = train_map(problem1, seed, GRID_12x10)
        planes = model.codebook  # column j is machine j's component plane
        corr = np.corrcoef(planes, rowvar=False)
        um = compute_umatrix(model)
        hits = compute_hits(model, problem1)
        # every unit takes part in a U-matrix pair, so fill the units without hits
        clusters = cluster_map(cluster_basis(model, hits, 2), 2)[nearest_hit_units(model, hits)]
        same = clusters[um.pairs[:, 0]] == clusters[um.pairs[:, 1]]
        assert time.perf_counter() - start < 10.0
        if not same.any() or same.all():
            continue
        ridge = um.pair_values[~same].max()
        within = float(np.median(um.pair_values[same]))
        if corr[0, 2] > 0.8 and corr[0, 1] < -0.5 and ridge > within:
            hits_ok += 1
    assert hits_ok >= 8, f"only {hits_ok}/10 seeds show the expected structure"


def test_criterion_6_bench_harness_certified(problem1, tmp_path, capsys):
    # Synthetic case with a hand-countable optimum: two 4x4 blocks of ones,
    # one void at (0,1), exceptions at (0,5) and (5,1). 33 ones total, so the
    # best efficacy is (33 - 2) / (33 + 1) = 31/34 by construction.
    planted = np.zeros((8, 8), dtype=np.uint8)
    planted[:4, :4] = 1
    planted[4:, 4:] = 1
    planted[0, 1] = 0
    planted[0, 5] = 1
    planted[5, 1] = 1
    _, oracle_mu = oracle_best_assignment(IncidenceMatrix.from_array(planted), 2)
    assert oracle_mu == Fraction(31, 34)

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    lines = [" ".join(map(str, row)) for row in problem1.values]
    (corpus / "demo.txt").write_text("10 10\n" + "\n".join(lines) + "\n")
    lines = [" ".join(map(str, row)) for row in planted]
    (corpus / "planted.txt").write_text("8 8\n" + "\n".join(lines) + "\n")
    manifest = [
        {"name": "demo", "path": "demo.txt", "target_efficacy": 0.9615},
        {"name": "planted", "path": "planted.txt", "target_efficacy": 31 / 34},
    ]
    (corpus / "manifest.json").write_text(json.dumps(manifest))

    out_dir = tmp_path / "bench"
    rc = main(["bench", "--corpus", str(corpus), "--out-dir", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "summary: 2 cases, 2 matched, 0 improved, 0 regressed, 0 errors" in out

    report = json.loads((out_dir / "report.json").read_text())
    rows = {row["name"]: row for row in report["cases"]}
    assert (rows["demo"]["mu_num"], rows["demo"]["mu_den"]) == (25, 26)
    assert abs(rows["demo"]["delta"]) <= 5e-5
    assert (rows["planted"]["mu_num"], rows["planted"]["mu_den"]) == (31, 34)
    assert rows["planted"]["delta"] == 0.0
