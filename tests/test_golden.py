"""Golden outputs of the whole pipeline for fixed seeds.

Each case trains a map with ``cli.train_map`` and extracts cells with
``cli.extract_cells``; the assignment, the exact efficacy and a digest of
the trained codebook bytes must match the values pinned below bit for bit.
A refactor that changes float summation order can flip a BMU argmin, and
this is the test that notices. Two cases also pin the sha256 of every file
``somcell viz`` writes, so a rendering refactor must keep the bytes, two pin
the JSON files ``somcell cells`` and ``somcell metrics`` write, and one pins
the model file ``save_model`` writes. Regenerate the table only for a
deliberate change of results, never to absorb an accidental one.
"""
import hashlib
from fractions import Fraction

import numpy as np
import pytest

from conftest import planted_instance, planted_tall
from somcell import IncidenceMatrix, load_problem1
from somcell.cli import extract_cells, main, train_map
from somcell.som import save_model
from somcell.viz import compute_hits, export_scatter_data


def _case(name):
    """(matrix, training seed) for a case name."""
    kind, _, arg = name.partition("-")
    if kind == "problem1":
        return load_problem1(), int(arg)
    if kind == "planted6x6":
        return IncidenceMatrix.from_array(planted_instance(np.random.default_rng(int(arg)))), 42
    if kind == "planted100x40":
        return IncidenceMatrix.from_array(planted_tall(int(arg))), 42
    if kind == "planted250x45":
        # seven blocks at 5% noise: the default sweep (k = 2..23) settles
        # 22 candidates with 54 dissolves between them
        values = planted_tall(
            int(arg), (50, 42, 38, 35, 32, 28, 25), (9, 8, 7, 6, 6, 5, 4), noise=0.05
        )
        return IncidenceMatrix.from_array(values), 42
    raise KeyError(name)


def _codebook_sha256(model):
    return hashlib.sha256(np.ascontiguousarray(model.codebook, dtype="<f8").tobytes()).hexdigest()


GOLDEN = {
    "problem1-42": {
        "codebook_sha256": "9146b91efd7245f1b5cc87a1290f7a66c85a16cd7f931c2fa2e202c846986a0e",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-43": {
        "codebook_sha256": "894612bb2e33537c3a424a21da5401406dc7cfb5d62a731f4d2804c54511378f",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-44": {
        "codebook_sha256": "0f028a927c0499f55582eb9278b8c168c65ab61b688f8830c2ebdf5e2ad84795",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-45": {
        "codebook_sha256": "418f73325419831b25d3d8aaf17cbe7e7f51510dc82168739917f9bdacd75d65",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-46": {
        "codebook_sha256": "ea4d1077d51fc160a134f79389ca9057aeb4a93267d4ad3cd961c180071ee377",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-47": {
        "codebook_sha256": "29a2386b20aa2be3967c2aa52664fc00319d4f642ab2bf72793256d8c0e9eae3",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-48": {
        "codebook_sha256": "fc0a7b5719a9ef62443ab94e9411676f6c66a16c5d47b0f107564d34e0f6998c",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-49": {
        "codebook_sha256": "a4552b92afaae328700fd5d3e390ea25226fd407450126a8e15a4ca4e21c2747",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-50": {
        "codebook_sha256": "4fffad5f45ec282ffa5f884b82277d3d874c5a5f200f209278f0758d57e006a4",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-51": {
        "codebook_sha256": "dc0d2329a0b9f4c8c5e567a61d1232238e22431d043cfc4ab1f96d72909a7e68",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "planted6x6-0": {
        "codebook_sha256": "8f91f550692d3dd39c79ce2f47f00a8068fcceeb6491f5404f6aaca9e1140261",
        "part_family": (2, 1, 2, 3, 1, 3),
        "machine_cell": (1, 3, 3, 2, 2, 1),
        "efficacy": Fraction(11, 13),
    },
    "planted6x6-1": {
        "codebook_sha256": "22c069ed86469b31bfed3c7244796213791d624802fe2676922c6355de7d0fad",
        "part_family": (1, 2, 2, 2, 1, 1),
        "machine_cell": (1, 2, 2, 1, 1, 1),
        "efficacy": Fraction(8, 9),
    },
    "planted6x6-2": {
        "codebook_sha256": "27cb9c0c13ded2059cda1940e5cf504d2c30eea010a06b68c6996af863d213aa",
        "part_family": (2, 3, 2, 1, 3, 1),
        "machine_cell": (3, 2, 1, 1, 3, 2),
        "efficacy": Fraction(11, 13),
    },
    "planted6x6-3": {
        "codebook_sha256": "56e87207e641c795059ff08efa62d31677d6eabbde7f70c57ecaa51b23dba2d0",
        "part_family": (2, 3, 2, 1, 1, 3),
        "machine_cell": (3, 1, 1, 2, 3, 2),
        "efficacy": Fraction(6, 7),
    },
    "planted6x6-4": {
        "codebook_sha256": "4af07f90084be7ace3ddf2208f0efb28bcff4644731c2e36e485522548205ea5",
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
    "problem1-42": "9d7f0c59f568dc32edd3be17eef3a9e0b255d6904d4fc2f81684abe6c3a6a7a8",
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
    export_scatter_data(model, matrix, assignment, path, compute_hits(model, matrix))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCATTER_GOLDEN[name]


def test_saved_model_is_pinned(tmp_path):
    matrix, seed = _case("problem1-42")
    path = tmp_path / "model.json"
    save_model(train_map(matrix, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "798f3380c0342d7258529ebe728fbcfb2d26dda43a77a33725bf3b861e97f9a8"
    )


# sha256 of every file `somcell viz` writes (default flags)
VIZ_GOLDEN = {
    "problem1-42": {
        "umatrix.svg": "9618990d77c89adbb26605b34b2e3cb681808a2d113ec3b64b1895d3b86f3427",
        "plane_m1.svg": "a6535fee3e59975617481f1d1e24497b753cf04712be8eb938a6cf394ff7c4ca",
        "plane_m2.svg": "e2419e635cebf36efff40fb6eb6cbe9f93ab78fe339bb39f871a0ac0b5b0cc94",
        "plane_m3.svg": "80d7d13ff1e2cc220153a03ed5870769abb175544f22f29aafb26d3e68670b0c",
        "plane_m4.svg": "3dfe830bcd2ece5d09a5f3e22bf69c3617e7c1e1dc4b9ca8c55b25ee1e151608",
        "plane_m5.svg": "077cccd0b848405af81c844748e1cc460639f1c740ac403fc8cdc06669c6fb15",
        "plane_m6.svg": "0d5ab25cefb48be65e6271c10562c703d5879a04a9e345e4e2e587c9b80f8c65",
        "plane_m7.svg": "e39c1e20ed9c91263a7ecb5409e517f4e6786824507afaa1cac28cde22df1752",
        "plane_m8.svg": "8e14bf91f308a57a093570ae8e31a6dca4878a35f0b48488af8d1049f9693e04",
        "plane_m9.svg": "21dc178042af259cd456f231edfc13c4323caee8252c960620f9d245333cd57e",
        "plane_m10.svg": "674a147fc121ab389e7a7c646fbd8d5bbbe6fe221873ca29922bb564ea840002",
        "hits.svg": "5fe42329667266c0465cf463e2c1e65f9ee5b86f5ff6762f6198edb6e3aa8364",
        "projection.svg": "9c40e0f2efe70581e919a55bc41f896773bd8aed7d2963b55a0d0330300d4e17",
        "scatter.csv": "9d7f0c59f568dc32edd3be17eef3a9e0b255d6904d4fc2f81684abe6c3a6a7a8",
    },
    "planted250x45-3": {
        "umatrix.svg": "4f426c59cb53c01a5dd568f30e62b6e569b916b357d07bc9dbadca998924a3e8",
        "plane_m1.svg": "0db97667524b1a78761facc2d057416aa23c6be4d35c3621233674378aaa8de6",
        "plane_m2.svg": "9405789b9231eeaa4e150dca32467c12a6cac4a2ea589fc12703261e70cb21e7",
        "plane_m3.svg": "ef39e27f5e1e2de001c8feee917bef462c8f04f732ac0ebe276e86f8e9b91927",
        "plane_m4.svg": "54fee638bd803773d6d6e4f7365384898b99768ff6bd9ac4d08e6b266f202a9c",
        "plane_m5.svg": "c3e2ea69cdc72ed8247a2c2d719464e403830c91051b35d739b7552f125103ba",
        "plane_m6.svg": "70381acbb89b5e6eaf14838549d568482367a529621db4dda8063eb1efe46132",
        "plane_m7.svg": "fc5f4efd14143ad8cbb6dc167a9d6e45b3a69a22bb8f31aacfd9d32413f92519",
        "plane_m8.svg": "447a3a41e6d2de5098383236a17d521ec2fe78285e34b6c41c6261d835f609af",
        "plane_m9.svg": "deeb962b8334f6566eb0a1dc37da56475cec633c5d69d6653b4bbea9fb222987",
        "plane_m10.svg": "0a931c7973796ce7e0d2242d58132c19f6e72a766273c4b87468b3abadd4e1ad",
        "plane_m11.svg": "5dd1981749ae196bf71a02bd71f576e48b84e788c918bccbda1dd98b485a7bcf",
        "plane_m12.svg": "21e4d6c152e65465d183dbd1779859f872e67b95b32a73d513041b274e7dce8b",
        "plane_m13.svg": "34be59c8e35a7fef6d766e2d5e88c47a7e0861cfa84d70757dc548a3e85ea2f4",
        "plane_m14.svg": "5d746f4d80248b5c0e8963df4decbdd0b1bccc67379c1fc52e36e2156db41ff7",
        "plane_m15.svg": "9ec1c7d8d135dcd693b84d32186f3b21d95f4dbfddad05d5b22ae01a3e832aeb",
        "plane_m16.svg": "5cd6da1c2dddff8ae03cbe694f061789c9b4f15a6c4f98aaee7d2f36d8d0c3a7",
        "plane_m17.svg": "d81db98c0cc1c16d75a124f712b7db8994c064b2803f9ab5df4ad12ad7c13f88",
        "plane_m18.svg": "60ad12bd28bd95646b565dbc539971885af647a5d10c0b0cf3457cda10553f5d",
        "plane_m19.svg": "0a21b304fbb43788b4fc0fad92e4d0141c60ebbe3eed7bf9f7526a0cef6a4d27",
        "plane_m20.svg": "368ec066b2dd01d5321ae42c2b80d29a0d24971aa68ef21c1d007f11a7fa78d8",
        "plane_m21.svg": "74fdedd557021d2eb5e9efaff4e9f47385e875b6064032c8d16c6f7dc4365210",
        "plane_m22.svg": "0f4ca32c3eaafb6cdf10956ac2fc3a93b410ef0e340d4fc1c14616c2d8cd22a5",
        "plane_m23.svg": "d3290213e70c6b729f54e36c1d48392d2106ef75f0d914c28295ed8049889187",
        "plane_m24.svg": "8d5e1912b22f0d154d89794cbf19cabf6271d1fc1cff052dc7b5760c7c40e552",
        "plane_m25.svg": "bd0b362ae1cd1ef9f28fd757832d9674bc7bddacb940eaac1b1aa3069da22e0d",
        "plane_m26.svg": "662da08e86937be7cc5717795dfb075f3730a9c13b369e5bda55c31cee3de9bc",
        "plane_m27.svg": "8c969037a975952f4601d8bb361228655a4b9c8c9ba9fd7c1fde3beb1b7ec86f",
        "plane_m28.svg": "8d2dc5cef096731b3ab80fa103379806287fb9108bb8b41bd541f60f98957d25",
        "plane_m29.svg": "2c283e1bdc0e58a25f636817569f9d28874f0c9d7e5441f29f61fbc7dfe56b72",
        "plane_m30.svg": "90095930c338aba6dd095752171eebaffa9fda3a11f0d62f63a3ef95263f728d",
        "plane_m31.svg": "63429816edcdcbe2388a017eb0dd3be9d89e414e6e0d750849205a04397d9aa0",
        "plane_m32.svg": "c522e5cd709f45994e03584081b29dd99f52e6315332e13efe893eecf1ad5217",
        "plane_m33.svg": "44b99437fe439bf4e67765017560aed2b0fa1d60669bdc993a473d7cd22c55e5",
        "plane_m34.svg": "14b98111ff835bfdcae037cfc07518681263618e66364699fcdc6e42ad55bbeb",
        "plane_m35.svg": "bbe31dbb3c810c4bf4f30eef259eb7a9e78f5e0e3e34d694d66953f52c4c58a8",
        "plane_m36.svg": "15ed7c129d5bf0f4e59fa34d7b621f17835b7a3d69b1b9734935f9cb816d542c",
        "plane_m37.svg": "3e9fb064f4e81b63423726bb80eab2fd339894a5a2bce43c56d36575b3583cb0",
        "plane_m38.svg": "0096a9cefa5c67fa0538e9875e56697776d7f7437dd4f5b4403a782c70e38185",
        "plane_m39.svg": "3bf8fd59062b125faac7c0c932bd3ae35d6fe29dc03713cc040166c5025ddc51",
        "plane_m40.svg": "aa93795f2003b2b19f6c459fb18eacbf2d245dc1b4c615be02d0cdc4911e2461",
        "plane_m41.svg": "acdc237712f5954cdd22ad2c83b725f1bad1b7c1af3d48a255025cd459dba7cd",
        "plane_m42.svg": "02409f47d48f321521de8e5c14c55fe6b3990397beec651faa722ca85d720d6d",
        "plane_m43.svg": "9307dae0227546085c764a8afb9b30cdd0954f0f10b78bee58091fff3a8e8c27",
        "plane_m44.svg": "b5127021e2e8c75779ee24bf050d936a82e00692ebb01bd496f42835d8e22f8f",
        "plane_m45.svg": "e9d4c84cc3493c9011032e2ecefb3a49b6a4279b8fdce83738f58d884085a401",
        "hits.svg": "2f10be920409dfaa634e98da9feed8bc9775f225079d2c75ab03a95378f20f3f",
        "projection.svg": "0a7a27bd1b5e4de21d0636bb19f47764540aad191955024bd283ee20b9a4f20f",
        "scatter.csv": "8760f7c3381a8051f09c612f193279643856b30778b78c5d11b30a40b82099f6",
    },
}


def _write_case(name, tmp_path):
    """(matrix file, model file) of a case, both in ``tmp_path``."""
    matrix, seed = _case(name)
    matrix_path = tmp_path / "matrix.txt"
    rows = "\n".join(" ".join(map(str, row)) for row in matrix.values.tolist())
    matrix_path.write_text(f"{matrix.parts} {matrix.machines}\n{rows}\n")
    save_model(train_map(matrix, seed), tmp_path / "model.json")
    return matrix_path, tmp_path / "model.json"


@pytest.mark.parametrize("name", sorted(VIZ_GOLDEN))
def test_viz_files_are_pinned(name, tmp_path, capsys):
    matrix_path, model_path = _write_case(name, tmp_path)
    out_dir = tmp_path / "viz"
    rc = main(["viz", "--input", str(matrix_path), "--model", str(model_path), "--out-dir", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert digests == VIZ_GOLDEN[name]


# sha256 of the files `somcell cells` writes (default flags) and of the
# score `somcell metrics --out` writes for that assignment (default r)
SCORE_GOLDEN = {
    "problem1-42": {
        "assignment.json": "6f2819f69231e9a472f40b40ebb74b354308d9284afbdabd40469796fb76e963",
        "score.json": "a071f88956df0c9cd380ece4d3d8324a38d82c833f33ddcf21e6541ce9dac2b0",
        "metrics.json": "a071f88956df0c9cd380ece4d3d8324a38d82c833f33ddcf21e6541ce9dac2b0",
    },
    "planted250x45-3": {
        "assignment.json": "dbb5972e38e444f440693ba5fa018cfa95a2c9cb7c84b4328be415099def2cb6",
        "score.json": "224069bed6653226ab10fc6937b85849345c33c1ce4de83ccb1868f0e96f8cce",
        "metrics.json": "224069bed6653226ab10fc6937b85849345c33c1ce4de83ccb1868f0e96f8cce",
    },
}


@pytest.mark.parametrize("name", sorted(SCORE_GOLDEN))
def test_cells_and_metrics_json_are_pinned(name, tmp_path, capsys):
    matrix_path, model_path = _write_case(name, tmp_path)
    out_dir = tmp_path / "cells"
    assert main(["cells", "--input", str(matrix_path), "--model", str(model_path), "--out-dir", str(out_dir)]) == 0
    assert main(["metrics", "--input", str(matrix_path), "--assignment", str(out_dir / "assignment.json"),
                 "--out", str(out_dir / "metrics.json")]) == 0
    capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert digests == SCORE_GOLDEN[name]
