"""Grouping measures and the exhaustive oracle."""
import ast
import dataclasses
import inspect
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import planted_instance, random_assignment, random_incidence
from somcell import (
    CellAssignment,
    GroupingScore,
    IncidenceMatrix,
    OracleSizeError,
    count_blocks,
    grouping_efficacy,
    oracle_best_assignment,
    score,
)
import somcell.cells
import somcell.metrics
from somcell.metrics import BlockCounts, _part_partitions


def naive_counts(values, pf, mc):
    """Independent tally, straight from the definition."""
    n1 = n1_out = n0_in = in_el = 0
    for p in range(values.shape[0]):
        for j in range(values.shape[1]):
            inside = pf[p] == mc[j]
            if inside:
                in_el += 1
            if values[p, j]:
                n1 += 1
                if not inside:
                    n1_out += 1
            elif inside:
                n0_in += 1
    return n1, n1_out, n0_in, in_el


def test_count_blocks_matches_naive_tally():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        values = random_incidence(rng, p, m)
        k = int(rng.integers(1, min(p, m) + 1))
        pf, mc = random_assignment(rng, p, m, k)
        counts = count_blocks(
            IncidenceMatrix.from_array(values),
            CellAssignment(part_family=pf, machine_cell=mc),
        )
        assert (counts.n1, counts.n1_out, counts.n0_in, counts.in_block_elements) == naive_counts(values, pf, mc)
        assert counts.total_elements == p * m


def test_count_blocks_rejects_size_mismatch():
    data = IncidenceMatrix.from_array(np.eye(3, dtype=np.uint8))
    with pytest.raises(ValueError):
        count_blocks(data, CellAssignment(part_family=(1, 1), machine_cell=(1, 1, 1)))


def test_efficacy_is_exact_and_reduces():
    counts = BlockCounts(n1=52, n1_out=2, n0_in=0, total_elements=100)
    mu = grouping_efficacy(counts)
    assert mu == Fraction(50, 52)
    assert (mu.numerator, mu.denominator) == (25, 26)


def test_efficacy_one_iff_perfect_blocks():
    rng = np.random.default_rng(14)
    for _ in range(40):
        p, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        values = random_incidence(rng, p, m)
        k = int(rng.integers(1, min(p, m) + 1))
        pf, mc = random_assignment(rng, p, m, k)
        counts = count_blocks(
            IncidenceMatrix.from_array(values),
            CellAssignment(part_family=pf, machine_cell=mc),
        )
        mu = grouping_efficacy(counts)
        assert 0 <= mu <= 1
        assert (mu == 1) == (counts.n1_out == 0 and counts.n0_in == 0)


def test_efficacy_requires_some_ones():
    with pytest.raises(ValueError):
        grouping_efficacy(BlockCounts(0, 0, 0, 4))


def test_efficiency_components_and_vacuous_sides():
    sc = GroupingScore(n1=52, n1_out=2, n0_in=0, total_elements=100, r=0.5)
    assert sc.eta1 == pytest.approx(1.0)
    assert sc.eta2 == pytest.approx(0.96)
    assert sc.efficiency == pytest.approx(0.98)
    # blocks covering the whole matrix leave no off-block side
    full = GroupingScore(n1=3, n1_out=0, n0_in=1, total_elements=4, r=0.5)
    assert full.eta2 == 1.0
    with pytest.raises(ValueError):
        GroupingScore(n1=52, n1_out=2, n0_in=0, total_elements=100, r=0.0)
    with pytest.raises(ValueError):
        GroupingScore(n1=52, n1_out=2, n0_in=0, total_elements=100, r=1.0)
    with pytest.raises(ValueError):
        GroupingScore(n1=0, n1_out=0, n0_in=0, total_elements=4, r=0.5)


def test_efficiency_weighting_moves_with_r():
    def efficiency(r):
        return GroupingScore(n1=52, n1_out=2, n0_in=0, total_elements=100, r=r).efficiency

    assert efficiency(0.9) > efficiency(0.1)


@st.composite
def consistent_counts(draw):
    """(n1, n1_out, n0_in, total_elements): n1 >= 1 ones, n1_out of them
    off the blocks, n0_in voids, and room off the blocks for the n1_out."""
    n1 = draw(st.integers(1, 60))
    n1_out = draw(st.integers(0, n1))
    n0_in = draw(st.integers(0, 60))
    off_zeros = draw(st.integers(0, 60))
    return n1, n1_out, n0_in, n1 + n0_in + off_zeros


@given(consistent_counts(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example((3, 3, 0, 3), 0.5)  # no in-block area
@example((3, 0, 1, 4), 0.5)  # blocks cover the whole matrix
def test_score_measures_match_their_definitions(counts, r):
    n1, n1_out, n0_in, total = counts
    sc = GroupingScore(n1=n1, n1_out=n1_out, n0_in=n0_in, total_elements=total, r=r)
    inside = n1 - n1_out + n0_in
    off = total - inside
    eta1 = (n1 - n1_out) / inside if inside else 1.0
    eta2 = (off - n1_out) / off if off else 1.0
    assert sc.efficacy == Fraction(n1 - n1_out, n1 + n0_in)
    assert (sc.eta1, sc.eta2) == (eta1, eta2)
    assert sc.efficiency == r * eta1 + (1.0 - r) * eta2
    assert 0.0 <= sc.eta1 <= 1.0 and 0.0 <= sc.eta2 <= 1.0


def test_score_stores_only_the_counts_and_the_weight():
    names = [f.name for f in dataclasses.fields(GroupingScore)]
    assert names == ["n1", "n1_out", "n0_in", "total_elements", "r"]


def test_score_bundles_everything(problem1):
    asg = CellAssignment(
        part_family=(2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        machine_cell=(1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
    )
    sc = score(problem1, asg)
    assert (sc.n1, sc.n1_out, sc.n0_in) == (52, 2, 0)
    assert sc.efficacy == Fraction(50, 52)
    assert sc.efficacy_text.startswith("25/26 = 0.9615")
    d = sc.to_dict()
    assert d["efficacy_num"] == 25 and d["efficacy_den"] == 26
    assert d["efficacy"] == pytest.approx(50 / 52)
    assert sc.eta1 == pytest.approx(1.0) and sc.eta2 == pytest.approx(0.96)
    assert sc.efficiency == pytest.approx(0.98)


def test_score_format_is_pinned():
    # score.json is written from to_dict(), so its keys and their order are
    # the file format; the tallies must be exactly count_blocks'
    tallies = ("n1", "n1_out", "n0_in", "in_block_elements", "total_elements")
    rng = np.random.default_rng(21)
    for _ in range(20):
        p, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        data = IncidenceMatrix.from_array(random_incidence(rng, p, m))
        k = int(rng.integers(1, min(p, m) + 1))
        pf, mc = random_assignment(rng, p, m, k)
        asg = CellAssignment(part_family=pf, machine_cell=mc)
        sc = score(data, asg)
        counts = count_blocks(data, asg)
        assert [getattr(sc, name) for name in tallies] == [getattr(counts, name) for name in tallies]
        assert list(sc.to_dict()) == [
            *tallies,
            "efficacy_num",
            "efficacy_den",
            "efficacy",
            "efficacy_text",
            "r",
            "eta1",
            "eta2",
            "efficiency",
        ]


def test_part_partitions_enumerates_restricted_growth_strings():
    got = _part_partitions(3, 3).tolist()
    assert got == [
        [0, 0, 0],
        [0, 0, 1],
        [0, 1, 0],
        [0, 1, 1],
        [0, 1, 2],
    ]
    capped = _part_partitions(3, 2).tolist()
    assert capped == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]]

    def reference(n, max_blocks, prefix=(0,)):
        # each next id runs from 0 to one past the largest so far, capped
        if len(prefix) == n:
            return [list(prefix)]
        top = min(max(prefix) + 1, max_blocks - 1)
        return [s for f in range(top + 1) for s in reference(n, max_blocks, prefix + (f,))]

    for n in range(1, 9):
        for max_blocks in range(1, 4):
            assert _part_partitions(n, max_blocks).tolist() == reference(n, max_blocks), (n, max_blocks)


def test_oracle_prefers_single_block_on_all_ones():
    data = IncidenceMatrix.from_array(np.ones((3, 3), dtype=np.uint8))
    asg, mu = oracle_best_assignment(data, 2)
    assert mu == 1
    assert asg.k == 1


def test_oracle_on_identity_blocks_is_perfect():
    data = IncidenceMatrix.from_array(np.eye(4, dtype=np.uint8))
    asg, mu = oracle_best_assignment(data, 3)
    # only 3 families may form, so two of the four singleton blocks merge
    assert mu == Fraction(4, 6)
    assert asg.k == 3


def test_oracle_matches_planted_construction():
    # planted blocks with e exceptions and v voids score (n1-e)/(n1+v)
    v = np.zeros((6, 6), dtype=np.uint8)
    v[:3, :3] = 1
    v[3:, 3:] = 1
    v[0, 3] = 1  # exception
    v[4, 4] = 0  # void
    data = IncidenceMatrix.from_array(v)
    n1 = int(v.sum())
    asg, mu = oracle_best_assignment(data, 2)
    assert mu == Fraction(n1 - 1, n1 + 1)
    assert asg.part_family == (1, 1, 1, 2, 2, 2)
    assert asg.machine_cell == (1, 1, 1, 2, 2, 2)


def test_oracle_tie_prefers_first_enumerated():
    # two symmetric singleton blocks: both labelings score 1, the partition
    # enumerated first assigns part 1 to family 1
    data = IncidenceMatrix.from_array(np.eye(2, dtype=np.uint8))
    asg, mu = oracle_best_assignment(data, 2)
    assert mu == 1
    assert asg.part_family == (1, 2)
    assert asg.machine_cell == (1, 2)


def test_oracle_bounds():
    big = IncidenceMatrix.from_array(np.eye(11, dtype=np.uint8))
    with pytest.raises(OracleSizeError):
        oracle_best_assignment(big, 2)
    machines = somcell.metrics.ORACLE_MAX_MACHINES
    widest = IncidenceMatrix.from_array(np.ones((10, machines), dtype=np.uint8))
    assert oracle_best_assignment(widest, 1)[1] == 1
    wider = IncidenceMatrix.from_array(np.ones((10, machines + 1), dtype=np.uint8))
    with pytest.raises(OracleSizeError):
        oracle_best_assignment(wider, 1)
    small = IncidenceMatrix.from_array(np.eye(3, dtype=np.uint8))
    with pytest.raises(OracleSizeError):
        oracle_best_assignment(small, 4)
    with pytest.raises(ValueError):
        oracle_best_assignment(small, 0)


def test_oracle_memory_does_not_grow_with_the_partition_count():
    # the peak holds one partition's (families x machines) counts; the
    # counts of all 512 partitions at once would take about 3.3 MB here
    # (512 x 2 families x 400 machines x 8 bytes)
    rng = np.random.default_rng(8)
    data = IncidenceMatrix.from_array(random_incidence(rng, 10, 400))
    tracemalloc.start()
    try:
        oracle_best_assignment(data, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oracle_never_loses_to_any_sampled_assignment():
    rng = np.random.default_rng(15)
    for _ in range(8):
        values = planted_instance(rng, side=5)
        data = IncidenceMatrix.from_array(values)
        _, mu_star = oracle_best_assignment(data, 3)
        for _ in range(40):
            k = int(rng.integers(1, 4))
            pf, mc = random_assignment(rng, 5, 5, k)
            mu = grouping_efficacy(
                count_blocks(data, CellAssignment(part_family=pf, machine_cell=mc))
            )
            assert mu <= mu_star


def test_oracle_optimum_is_symmetric_under_transposition():
    # efficacy counts the same blocks whichever side is called the parts,
    # so the optimum over the transposed matrix is the same fraction
    rng = np.random.default_rng(22)
    for _ in range(20):
        parts, machines = (int(side) for side in rng.integers(4, 8, size=2))
        data = IncidenceMatrix.from_array(random_incidence(rng, parts, machines))
        for k in range(1, 4):
            _, mu = oracle_best_assignment(data, k)
            _, mu_transposed = oracle_best_assignment(data.transposed(), k)
            assert mu == mu_transposed, (data.values.tolist(), k)


def test_cell_assignment_lives_in_metrics_without_a_cells_import():
    assert somcell.cells.CellAssignment is CellAssignment is somcell.metrics.CellAssignment
    tree = ast.parse(inspect.getsource(somcell.metrics))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "cells" not in imported
