"""Golden outputs of the whole pipeline for fixed seeds.

Each case trains a map with ``cli.train_map`` and extracts cells with
``cli.extract_cells``; the assignment, the exact efficacy and a digest of
the trained codebook bytes must match the values pinned below bit for bit.
A refactor that changes float summation order can flip a BMU argmin, and
this is the test that notices. Two cases also pin the sha256 of every file
``somcell viz`` writes, so a rendering refactor must keep the bytes, two pin
the JSON files ``somcell cells`` and ``somcell metrics`` write, and one pins
the model file ``save_model`` writes (and the version 1 file of the same
model, which README's recipe must convert to it byte for byte). Regenerate
the table only for a deliberate change of results, never to absorb an
accidental one.
"""
import hashlib
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import planted_instance, planted_tall, save_model_v1
from somcell import IncidenceMatrix, load_problem1
from somcell.cli import extract_cells, main, train_map
from somcell.som import load_model, save_model
from somcell.viz import compute_hits, export_scatter_data

README = Path(__file__).resolve().parents[1] / "README.md"


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
        "codebook_sha256": "acae19742325cfdebdc514cd817a6450452b19f8aebc387cf489379a25365a54",
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
    "planted250x45-3": "9b81fc86117b869702b679e7f5cbceeafd8f026be27eae2925c991ba1543e065",
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
        "3468d7db5126404eee52990078d1fe3ddd12012c8fb83807bdcfb208ee6948c9"
    )


def test_readme_recipe_converts_the_version_1_model_to_the_version_2_file(tmp_path, monkeypatch):
    # load_model refuses the version 1 file of this model, from the
    # reference writer; README's conversion recipe, run as written, turns
    # it into the file save_model writes
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    [recipe] = [block for block in blocks if 'doc["version"] = 2' in block]
    monkeypatch.chdir(tmp_path)
    save_model_v1(train_map(*_case("problem1-42")), "model.json")
    assert hashlib.sha256(Path("model.json").read_bytes()).hexdigest() == (
        "798f3380c0342d7258529ebe728fbcfb2d26dda43a77a33725bf3b861e97f9a8"
    )
    with pytest.raises(ValueError, match="^unsupported model version 1$"):
        load_model("model.json")
    exec(compile(recipe, str(README), "exec"), {})
    assert hashlib.sha256(Path("model.json").read_bytes()).hexdigest() == (
        "3468d7db5126404eee52990078d1fe3ddd12012c8fb83807bdcfb208ee6948c9"
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
        "umatrix.svg": "a974ca76cc1e0ef5223b042a1cb253c6436afd8bc3b5b3194abb0c48b25f760c",
        "plane_m1.svg": "2dc1a7c4b41fe6e9dd339bd794dbcdcdc8689b8da569bb1ef54bed14a5c6235b",
        "plane_m2.svg": "cc90d9494c6464fe8ad806ff215e4a45dfec650dad7151e5e81c7618c2d548ca",
        "plane_m3.svg": "6078176330ad7fa3279945e7e6a0ab1a888c708f59afde55d252a5389c25baef",
        "plane_m4.svg": "dfeaf5f026e0c0394ee745391694971cf72adf9d393a0afbb075f000743306a4",
        "plane_m5.svg": "7346db8f8b08759299ff204d25506b62d20ac1f8fae729f2be0e80f169ca8fab",
        "plane_m6.svg": "23bc65cc8548eb665cf0a1ac26737caaf2f2fb39eaeb76f5147a03e6f2214308",
        "plane_m7.svg": "a967276c9c84d679a131c4513f6e5d196badf19d3a4341bc090847b92dad52d8",
        "plane_m8.svg": "ddc1fc79e34abc8de0a611e56f2d0f0ab8a564b94bea1dd1e546f8199d7a29cc",
        "plane_m9.svg": "9afc565a537086e09bcf1f08d7e0926c7accd7647f2f3768bdf67e2036615e9a",
        "plane_m10.svg": "0e0ac5a77b48401f9f620b63368983bd723f59f6ba7a13236f322eb5fb9a7977",
        "plane_m11.svg": "b9e8a15c08b8f98f365106ec29285ad23bfb32da3c155b32cece4ddbb39370c5",
        "plane_m12.svg": "8a8c5c8a0f3be8ebfba99cfbbe765ffd325071cf3aaa5e6b8731974ee728dbb3",
        "plane_m13.svg": "26f7a1d790a8b06a85d436b1ecd2415fc9af86350a0e04d821a5cc39faa35428",
        "plane_m14.svg": "c87226c60189a2ffc35835c074a9a0e23ee7e8eca49ccee3544e5f272aa398b7",
        "plane_m15.svg": "76f6040eaf059e5d6d47b21eac989cdaaac58262a200ace014e71f99214f2346",
        "plane_m16.svg": "708144f6712b9b942df6aaec34b8f487ee2b023e676b33303ff6c086ead806e0",
        "plane_m17.svg": "369f68f4716d96ee9df562a555abe22d3bf90bdd65475a6236ffa0f85567e20f",
        "plane_m18.svg": "306462c15c52476bd84b02c1f0689db984e33715de426588df6d3b5afe90cef0",
        "plane_m19.svg": "a9d7ebeba1aa91408f3e392a7a9bdc633c0ca2eb6acef6ae918e9a82992212f1",
        "plane_m20.svg": "1ea2b532ce6f6db31f84f3f8b8e90560d68bc1e7b0ca0f50c6e14d45f20e6e9f",
        "plane_m21.svg": "299a6b891a7e331d4ca93bd35e4b690f6d3e30b8d5b5dcfb24081fc26a72eab8",
        "plane_m22.svg": "eab178ec190e3f2c5078234e3acbbb21b6378a02dcda58be70e0e47ce3fd0db0",
        "plane_m23.svg": "4a76cf5357890eebe4d828899debceac229487ea5945fcea275720ed9888f7e1",
        "plane_m24.svg": "35ff88173cfaedaf881d228a3bf240a4e4b5be15d6e0a18e3504953c2d4a61ee",
        "plane_m25.svg": "6696d38840649e8429a4e563c1a18deb3ffa6e8d836cbf5bce72e5c066dc3244",
        "plane_m26.svg": "db6c351abf23c2171489edcb6134962b4bb79b1d41a596718ce5a40cc07b318e",
        "plane_m27.svg": "e01761372dd2b19d3dbfbf49c36d424a4bbc0ad3cef734c4a14e491fa1d445ae",
        "plane_m28.svg": "39517bbb64214ca36772a84fc48a1de328f432c6a4e84f2d3f5e026a468138bb",
        "plane_m29.svg": "67b0353c893b4eb47eca2d96a647e7e3da0692cb9178d3807636773f80ef6d31",
        "plane_m30.svg": "39f1848cbc961ca0f95329079077f47609b1f5deac722546d18cf83aa9e51b4a",
        "plane_m31.svg": "c81211f5c84c497a8fe2df75875b30497cb2e6e07ed7eaed7ae101a190886907",
        "plane_m32.svg": "187d71837d9803f55e08df59b3dd12c40261f8e80abb96424c88d22ab227a59d",
        "plane_m33.svg": "41656adedb4d801a2d15248d31e9c29bd71174ec453e897f7259bc34777bc637",
        "plane_m34.svg": "c5b7371c8d417666359a4105179d630bf0abefd6d6103484c2c4d95dac44e2cc",
        "plane_m35.svg": "1b4a6b87e0b2f068487abcb3b51e0111312933e4fac979a6b8d1b2551b3c7c79",
        "plane_m36.svg": "a8a740351de153a5c8b6d1c41ecb86feffb8b72a756de34c1d88b1b662214112",
        "plane_m37.svg": "a1739d137249773cbc5e79fd15e2a78808ee5133f216a574d31fcf4ee65a3480",
        "plane_m38.svg": "30e05d1237b7726e478e15109ad00b2dccba917935c879b3ad7c710223d25f19",
        "plane_m39.svg": "8acb9a74a65ec978378cfb19d95f9ecc8d63807c347f43c9ef31b4ca0c19b8bb",
        "plane_m40.svg": "250c86051bdc90a091cee5cd4f1d6c4c964d53363f8b2efd1371719b4f287567",
        "plane_m41.svg": "50fbb9a2b63de5eb56c33fa6c2ce0e1b46122b3a87d56d48715e64b7d5ef3f8d",
        "plane_m42.svg": "57298d7d4e21047592f4db6c9ca7dca0c15add0d0e3360344efbe5d240a35b6f",
        "plane_m43.svg": "15e815cd4a0d046f3e8394b663df527e81acc3f3cdca45ea2283f57b6a21383d",
        "plane_m44.svg": "ef09d1e302c55395db0c445ca123125e30e3d655619b2a800fc552f16cf5e832",
        "plane_m45.svg": "04b0fde89a8a6dc63d74705125e3e6b9a309b47f0ee043e3784196f695e559ce",
        "hits.svg": "0b12fae750a0438eb196ebe78fec7c48f7bf997e15c510479eaf788f25cf0fec",
        "projection.svg": "538a788f60090d4c05d0c4d4e197d259a595aac7dcdc9e63d117abbdc26bf17b",
        "scatter.csv": "9b81fc86117b869702b679e7f5cbceeafd8f026be27eae2925c991ba1543e065",
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
