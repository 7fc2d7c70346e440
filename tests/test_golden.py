"""Golden outputs of the whole pipeline for fixed seeds.

Each case trains a map with ``cli.train_map`` and extracts cells with
``cli.extract_cells``; the assignment, the exact efficacy and a digest of
the trained codebook bytes must match the values pinned below bit for bit.
A refactor that changes float summation order can flip a BMU argmin, and
this is the test that notices. Regenerate the table only for a deliberate
change of results, never to absorb an accidental one.
"""
import hashlib
from fractions import Fraction

import numpy as np
import pytest

from conftest import planted_instance
from somcell import IncidenceMatrix, load_problem1
from somcell.cli import extract_cells, train_map
from somcell.viz import export_scatter_data


def _planted_tall(seed, part_runs=(30, 25, 25, 20), machine_runs=(12, 10, 10, 8), noise=0.03):
    """Shuffled block-diagonal matrix (100x40 by default) with every bit
    flipped with probability ``noise``."""
    rng = np.random.default_rng(seed)
    pf = np.repeat(np.arange(len(part_runs)), part_runs)
    mc = np.repeat(np.arange(len(machine_runs)), machine_runs)
    values = (pf[:, None] == mc[None, :]).astype(np.uint8)
    values ^= (rng.random(values.shape) < noise).astype(np.uint8)
    values = values[rng.permutation(values.shape[0])][:, rng.permutation(values.shape[1])]
    assert values.sum(axis=1).min() > 0 and values.sum(axis=0).min() > 0
    return values


def _case(name):
    """(matrix, training seed) for a case name."""
    kind, _, arg = name.partition("-")
    if kind == "problem1":
        return load_problem1(), int(arg)
    if kind == "planted6x6":
        return IncidenceMatrix.from_array(planted_instance(np.random.default_rng(int(arg)))), 42
    if kind == "planted100x40":
        return IncidenceMatrix.from_array(_planted_tall(int(arg))), 42
    if kind == "planted250x45":
        # seven blocks at 5% noise: the default sweep (k = 2..23) settles
        # 22 candidates with 54 dissolves between them
        values = _planted_tall(
            int(arg), (50, 42, 38, 35, 32, 28, 25), (9, 8, 7, 6, 6, 5, 4), noise=0.05
        )
        return IncidenceMatrix.from_array(values), 42
    raise KeyError(name)


def _codebook_sha256(model):
    return hashlib.sha256(np.ascontiguousarray(model.codebook, dtype="<f8").tobytes()).hexdigest()


GOLDEN = {
    "problem1-42": {
        "codebook_sha256": "749a9fd614dc22d9b1968a239c02ce7ace30a4838193e91234ec649f5f421990",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-43": {
        "codebook_sha256": "9d604e820b680271640aa9f716dde5dd1e6405b644b5dc48a4a25d09bc048c79",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-44": {
        "codebook_sha256": "c76f070d401dfac7e92a087c72e74c017d5852987875009b7801e72c549f241b",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-45": {
        "codebook_sha256": "1e7833e19de1ab0f8f79f65d5c9f644625594552ddd0946b557fe51f11efffec",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-46": {
        "codebook_sha256": "05c5dd48f16510c9b84cb6b6cfcf19abffb60c673c2d627be11d336bdb2eaa55",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-47": {
        "codebook_sha256": "e5632e1ecddda1b058fb88dcded981e9e59a3d15c690a894c3eaf333797d21eb",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-48": {
        "codebook_sha256": "2e37b2203eda0014e7d460edc9102e3a0d0f807e5a59bca6a26e3cddf69ac4f2",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-49": {
        "codebook_sha256": "91ae519a2849878675bab92ec8d08fd7b2e092676cbe1f0e53f680abe415d8e2",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-50": {
        "codebook_sha256": "e211a08c7203b550870fbeedb577f35539c4ff37902c7517a72ddfe09fac50ba",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-51": {
        "codebook_sha256": "26f4c9986858783ad8bd80325c4544789262b84945b9c0fd6cb5b83a333c2618",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "planted6x6-0": {
        "codebook_sha256": "b80322c8b672890e4c2b78b6110d1b7bc8d8a418c49eecf32cd3370496d2bc9e",
        "part_family": (2, 1, 2, 3, 1, 3),
        "machine_cell": (1, 3, 3, 2, 2, 1),
        "efficacy": Fraction(11, 13),
    },
    "planted6x6-1": {
        "codebook_sha256": "6f8a6c9bb1e180283a3ffc5837144778ae91a4797f5a4f16df6fb3d5fe34b2eb",
        "part_family": (1, 2, 2, 2, 1, 1),
        "machine_cell": (1, 2, 2, 1, 1, 1),
        "efficacy": Fraction(8, 9),
    },
    "planted6x6-2": {
        "codebook_sha256": "e72427cacfaea8149f31747d8114080ebaf0f928801a8da88990f72ab211178b",
        "part_family": (2, 3, 2, 1, 3, 1),
        "machine_cell": (3, 2, 1, 1, 3, 2),
        "efficacy": Fraction(11, 13),
    },
    "planted6x6-3": {
        "codebook_sha256": "3bec1f4697585a789d63771268d7c81bb69fc7fa62177cd2beb797e6f36fd299",
        "part_family": (2, 3, 2, 1, 1, 3),
        "machine_cell": (3, 1, 1, 2, 3, 2),
        "efficacy": Fraction(6, 7),
    },
    "planted6x6-4": {
        "codebook_sha256": "f03061aa5e2d3c5b29e1c7613c12460a86bbf9900f033e89ad6c55a13f55ac69",
        "part_family": (1, 2, 3, 2, 3, 1),
        "machine_cell": (3, 1, 3, 2, 1, 2),
        "efficacy": Fraction(11, 13),
    },
    "planted100x40-7": {
        "codebook_sha256": "150703ee68409ee0590f8e429dee137475ef88a12bbefbf47027689b27f48029",
        "part_family": (
            1, 3, 2, 3, 3, 1, 2, 2, 2, 1, 4, 4, 4, 2, 4, 1, 3, 1, 3, 3, 1, 4, 1, 3, 3,
            2, 2, 4, 3, 2, 3, 2, 1, 2, 1, 1, 4, 2, 4, 2, 2, 3, 1, 4, 3, 4, 1, 1, 3, 2,
            4, 1, 2, 4, 3, 2, 4, 4, 2, 2, 3, 4, 3, 1, 4, 1, 1, 1, 1, 3, 2, 3, 2, 2, 4,
            1, 1, 2, 1, 2, 2, 3, 3, 3, 1, 1, 1, 3, 4, 4, 1, 3, 1, 1, 1, 3, 4, 1, 3, 2
        ),
        "machine_cell": (
            1, 3, 3, 2, 1, 1, 4, 3, 2, 1, 3, 4, 3, 3, 2, 1, 1, 4, 4, 1, 1, 1, 2, 4, 1,
            2, 2, 3, 3, 1, 2, 3, 2, 2, 2, 4, 4, 4, 1, 3
        ),
        "efficacy": Fraction(9, 10),
    },
    "planted250x45-3": {
        "codebook_sha256": "88959eb9cb4287587f912e76de45d438a1214525b243ed495b870ebe5319236c",
        "part_family": (
            3, 6, 1, 5, 2, 7, 3, 7, 2, 1, 6, 4, 4, 5, 5, 3, 3, 3, 2, 2, 7, 6, 1, 2, 5,
            2, 2, 2, 6, 1, 4, 4, 3, 5, 1, 1, 1, 3, 3, 5, 7, 7, 4, 2, 1, 4, 6, 1, 4, 6,
            5, 3, 5, 3, 1, 6, 7, 3, 1, 4, 4, 1, 5, 7, 2, 3, 1, 5, 2, 5, 1, 1, 3, 1, 1,
            6, 5, 2, 1, 3, 7, 7, 2, 1, 6, 1, 6, 2, 3, 2, 7, 3, 6, 7, 2, 4, 5, 5, 1, 5,
            2, 1, 4, 2, 6, 7, 4, 1, 1, 4, 4, 6, 6, 4, 5, 4, 6, 2, 2, 6, 6, 1, 7, 1, 3,
            2, 2, 3, 2, 3, 6, 7, 2, 7, 7, 1, 2, 5, 2, 3, 2, 4, 1, 5, 1, 4, 1, 2, 5, 5,
            3, 7, 3, 1, 1, 4, 3, 1, 4, 2, 1, 7, 3, 1, 7, 4, 6, 5, 4, 4, 3, 1, 1, 1, 4,
            3, 3, 2, 4, 4, 2, 7, 2, 2, 3, 5, 1, 7, 1, 4, 6, 1, 1, 4, 2, 3, 7, 5, 6, 1,
            6, 5, 3, 6, 3, 5, 3, 2, 6, 7, 4, 1, 6, 2, 4, 1, 5, 2, 5, 3, 2, 3, 5, 4, 6,
            4, 6, 2, 4, 3, 2, 1, 2, 1, 3, 6, 4, 7, 7, 5, 5, 1, 2, 5, 1, 1, 5, 4, 3, 3
        ),
        "machine_cell": (
            2, 7, 4, 2, 4, 5, 3, 2, 5, 1, 2, 2, 3, 1, 7, 6, 6, 1, 5, 3, 6, 5, 2, 6, 1,
            4, 3, 1, 6, 7, 2, 5, 5, 7, 1, 1, 4, 1, 3, 4, 4, 2, 1, 3, 3
        ),
        "efficacy": Fraction(1612, 2235),
    },
}

SCATTER_GOLDEN = {
    "problem1-42": "e81aa3408ddeae40b5fc978014d39324da7584a1afda751739525dcb05a84dff",
    "planted100x40-7": "b3a9adffafb75dde512e7096e881a790a465a90aa6e30b72213d828445a4a2b5",
    "planted250x45-3": "8760f7c3381a8051f09c612f193279643856b30778b78c5d11b30a40b82099f6",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pipeline_outputs_are_pinned(name):
    matrix, seed = _case(name)
    model = train_map(matrix, seed)
    assignment, grouping = extract_cells(model, matrix)
    expected = GOLDEN[name]
    assert _codebook_sha256(model) == expected["codebook_sha256"]
    assert assignment.part_family == expected["part_family"]
    assert assignment.machine_cell == expected["machine_cell"]
    assert grouping.efficacy == expected["efficacy"]


@pytest.mark.parametrize("name", sorted(SCATTER_GOLDEN))
def test_scatter_csv_is_pinned(name, tmp_path):
    matrix, seed = _case(name)
    model = train_map(matrix, seed)
    assignment, _ = extract_cells(model, matrix)
    path = tmp_path / "scatter.csv"
    export_scatter_data(model, matrix, assignment, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCATTER_GOLDEN[name]
