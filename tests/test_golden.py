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
        # 22 candidates, 35 families dissolving between them
        values = planted_tall(
            int(arg), (50, 42, 38, 35, 32, 28, 25), (9, 8, 7, 6, 6, 5, 4), noise=0.05
        )
        return IncidenceMatrix.from_array(values), 42
    raise KeyError(name)


def _codebook_sha256(model):
    return hashlib.sha256(np.ascontiguousarray(model.codebook, dtype="<f8").tobytes()).hexdigest()


GOLDEN = {
    "problem1-42": {
        "codebook_sha256": "ee965879a8679c4af84313e1b84017f0238fe9f3a69aa3196db39950c8cdb90a",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-43": {
        "codebook_sha256": "e1de92fecfdc6773f6fad0f9367d8101964ae4c3ec2f3e71e37929b871beed87",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-44": {
        "codebook_sha256": "0bcd915530c719184f02dc80c0e8dc9eef2760fc2bb8c2a09f16e7d71551a5fe",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-45": {
        "codebook_sha256": "2f30290643218a6605a242e9f881aa4b1937e8ccd9b60040313f4f59700315f9",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-46": {
        "codebook_sha256": "642e58310844b259bd98b4730a2c51743b82a59ce01dafa68cfa420a64f8b242",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-47": {
        "codebook_sha256": "8415ba21c95eb1570c2928388a248e24d701c147f53d4745b814c78a85a8d3f2",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-48": {
        "codebook_sha256": "551c32d51601279ad1ff964066ec44a1dd95d107dcea0c9caf236dfb76695a2c",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-49": {
        "codebook_sha256": "e202cf53233bc31bd56cbff5fd5f5a6b5ba4a495ce6abc6868b0c853bfcc69ee",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-50": {
        "codebook_sha256": "ffed7089f47ad20dbb858878a8ef0b9cf7366e44262aff7632507ddd5dd44a83",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "problem1-51": {
        "codebook_sha256": "4bc0d31e0d54ea7e8507cb26a599931fd60b5ebac226ac1f910a6b9c821bb81c",
        "part_family": (2, 2, 1, 1, 1, 1, 1, 1, 1, 2),
        "machine_cell": (1, 2, 1, 2, 1, 2, 2, 2, 1, 1),
        "efficacy": Fraction(25, 26),
    },
    "planted6x6-0": {
        "codebook_sha256": "4e060e94938d41ec309f7017e18471f5ac06a16da30a4559191b4aa65a402f4d",
        "part_family": (2, 1, 2, 3, 1, 3),
        "machine_cell": (1, 3, 3, 2, 2, 1),
        "efficacy": Fraction(11, 13),
    },
    "planted6x6-1": {
        "codebook_sha256": "ce023e4bec58858e763e45eb95034d011b91370d8195d4ef725879375474738a",
        "part_family": (1, 2, 2, 2, 1, 1),
        "machine_cell": (1, 2, 2, 1, 1, 1),
        "efficacy": Fraction(8, 9),
    },
    "planted6x6-2": {
        "codebook_sha256": "159d3639853ba9957c808c7a0b080febbc1cb0ea81b94a48e4cfe16fc34e7d41",
        "part_family": (2, 3, 2, 1, 3, 1),
        "machine_cell": (3, 2, 1, 1, 3, 2),
        "efficacy": Fraction(11, 13),
    },
    "planted6x6-3": {
        "codebook_sha256": "81418147687f4291505d7286a7d88778d9efffddb9dcfd704d57512f1d2a0acb",
        "part_family": (2, 3, 2, 1, 1, 3),
        "machine_cell": (3, 1, 1, 2, 3, 2),
        "efficacy": Fraction(6, 7),
    },
    "planted6x6-4": {
        "codebook_sha256": "bcfdf883207b30e586638b1de3bf689e4fc97d7836cc83e98b9c1a09e39b78f7",
        "part_family": (1, 2, 3, 2, 3, 1),
        "machine_cell": (3, 1, 3, 2, 1, 2),
        "efficacy": Fraction(11, 13),
    },
    "planted100x40-7": {
        "codebook_sha256": "e67c056383945331285b448a69b72f9f10e198e332b630a1c8a99154666b1bc6",
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
        "codebook_sha256": "8df09570215a77a5b27d30589fc039442870a049ffb00990c8b350d55d9a8410",
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
    "problem1-42": "2351e5d8334f050d272d03498874ff78e4dbabea886004db42a2c0e57a7d62e5",
    "planted100x40-7": "93ed9228fea64d9175f62cf4d4f0444d3d438f9c373112db6a1f931bb7adf998",
    "planted250x45-3": "541e7385546efdaf58236d1dec8e691514fdad5625a63cc79753449edbe028e5",
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
        "671b2aaa07f74b377bb3ec851c32ab62e9f38345257b924397cbec7c8985ff32"
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
        "be015bec50d055bad77ba23510be0d8c550d2c14169367ee032d8d95b277af24"
    )
    with pytest.raises(ValueError, match="^unsupported model version 1$"):
        load_model("model.json")
    exec(compile(recipe, str(README), "exec"), {})
    assert hashlib.sha256(Path("model.json").read_bytes()).hexdigest() == (
        "671b2aaa07f74b377bb3ec851c32ab62e9f38345257b924397cbec7c8985ff32"
    )


# sha256 of every file `somcell viz` writes (default flags)
VIZ_GOLDEN = {
    "problem1-42": {
        "umatrix.svg": "c72878ad2922559f932bce0a6c5d3a0ab7a7d2eb095bfc0d4a59658f5e8bd0e6",
        "plane_m1.svg": "a141be32e0ecbb9e2a265816508322eb8f42e59ffa95470f291dd37c30bd1d62",
        "plane_m2.svg": "ac7d21bc415eeabc72a3f0d4f86f4350bf175cd15f3dd6fe6c85735263310b5f",
        "plane_m3.svg": "ac27f3092eb60c17a354ca76d3659700d8e973366a1861e05a16ade9f16a04ab",
        "plane_m4.svg": "26c705e81d979a4dea6c9da73ed180fe4fb945e5b227e5bd828e22f8a1b2a5b0",
        "plane_m5.svg": "be7093b99ab4d737a17cc3608eb550f4cac4d44c69927c941cf13e197255ab95",
        "plane_m6.svg": "f611c8cd6aa28d25dc92cb78a2ffec43e3fa9fd049b7d17e96d13d0e0bc8ba5c",
        "plane_m7.svg": "22be398e8f94ed42643290635198f2e8ca5680082d1c3c2d84dd21f33bdbdd94",
        "plane_m8.svg": "5a8574c1aaf435ddef2f02d3009d85c378c624ca481c07c33544b90f415183a3",
        "plane_m9.svg": "61cb2b0c6e6a66e81347951ee264f238314278af29eb6c62193839475d2a4ffd",
        "plane_m10.svg": "976c64e7e9227b382fd5813e1b5ded7608426612eae265c2a786eb9346613a19",
        "hits.svg": "50053186e7d6cc141d70dc7136a83837a7320a137df01d45562398aa0a7b0ae3",
        "projection.svg": "511cc9e4d6472fcb434784160c0ace3a9085e4c9d472527b021e22cde7ff0964",
        "scatter.csv": "2351e5d8334f050d272d03498874ff78e4dbabea886004db42a2c0e57a7d62e5",
    },
    "planted250x45-3": {
        "umatrix.svg": "4cbb309500d712634f8834d77a3be8940b4bb9f2dfd350ffdf28050ce0cdc962",
        "plane_m1.svg": "7b8df938303b8c2ec45baa9afc40ee1df3731cd95b6bfb76a3ff76e936076898",
        "plane_m2.svg": "b6bc7ff64e92030ab614304b23212487c63d468f505a8a8c4e23e0287a8986ed",
        "plane_m3.svg": "8acf5d0940ce4658bd85523c13128d199c57a66e203a5569c425d620ed46f272",
        "plane_m4.svg": "038d8f0e09a8d85b21b80eb555bda5748c312cdfc6deb2e7693b35cb64bfa880",
        "plane_m5.svg": "06f3010a2cc94c515a743a73039f917d5f915334d0f09045b3836fe2ceb74d44",
        "plane_m6.svg": "10adce20981f78f087f4a2f49bbde5e79654561ff1db6a76e6ae284f23f3676d",
        "plane_m7.svg": "172a8a91ff9b7aab58dc8a2ca7fd57e5e4d78e224f586a519ccc3f434c66af4a",
        "plane_m8.svg": "8c5391659911790b54ebf4ea5ecbcd631143f8801427619e8266a880d4cf74d1",
        "plane_m9.svg": "abcfefa9de9fcacbaee61a9708515e5705f598217bdc7d3d699778201ddac5c4",
        "plane_m10.svg": "506b79fefb33bacb59a61c4f0d0f6054f360e7e1af4430fac9ac5b04ecb78615",
        "plane_m11.svg": "ad34051f66ce5206c506e0a1721477d15c1d917b4da41787803274179412e568",
        "plane_m12.svg": "16ef19ab2b16b5f9e8361873af432511f01291b1d8c48b9533b741afeb9f919b",
        "plane_m13.svg": "2ca161df4458c574b00cfe6600697c72398c927af04603a27b35464909173024",
        "plane_m14.svg": "9656dd096a0a597b59e49c909bbef067f0baa2e6c3555f9eb553ca2f5af5f5a2",
        "plane_m15.svg": "c35ec2298f5c7b8850e22868ded6f115c91fdc1f50097f55582dca7825ebd11f",
        "plane_m16.svg": "da97f6fec4d748caeb70bad882eb51313afc7714c16ccc5815317e1224888702",
        "plane_m17.svg": "64fcfdaae5f10de9b42476248fb50472f61164e2f9f400f446e2420a64d6b707",
        "plane_m18.svg": "6dc7af5fdda8c1f1dc30ddd2025df4da1a2b467858cc7b1ad0826f44f92bdc86",
        "plane_m19.svg": "3061d1ca5a90b31595b78ff07b42eecce88587993d02d19d08fd6fb0bd68fb96",
        "plane_m20.svg": "8942f5e37c26763875a9fed355f1e6223dbe54d4d493851266cdcede12f5ac94",
        "plane_m21.svg": "f862200912b4e3d23d216dbeaea2c839e3b4138ce1ff583ff01303b8ea25de57",
        "plane_m22.svg": "b4bfe21ac1ace6d5f3fa8b07a0f1829ea1002fe6d910a378824c87a424589af0",
        "plane_m23.svg": "860f95362c2bc93614b098b6a54252a3054a6e9e8f8aad7c3bcd042e05bd478d",
        "plane_m24.svg": "184eef0bc028e4196c87643beeeeeb4fac8e8465394c85bacafc85eb0250c4ec",
        "plane_m25.svg": "e9bf54bb6ba1740b75a39827c4554571557422d1bfe2585370d930b80dbf6d09",
        "plane_m26.svg": "7cea241215c1680191e88cc9f988d32a3168d6b0bebf2ce0739cc5c25b933ea4",
        "plane_m27.svg": "7d8dadfb20dda20bfaef6f307c9eb58d8ae2e2748f94eb13eac0aadaf3a038b4",
        "plane_m28.svg": "512b5e7e15b913d836fa2ab264db9e106fd372af1f88cf562f14ba8d9da6e24a",
        "plane_m29.svg": "fe9b3e2db68c101f8c4577a037b00afc2eff562ae0e8fed5615f66f63df175f3",
        "plane_m30.svg": "a4433dfa5944d16a08da8b7373dad6443eadfa9b043f5991520296da5da18384",
        "plane_m31.svg": "d5dc11e0b4d14cd3a763ef6c5ee13fdfb0b560c6d613ac49622e9febfc9063ca",
        "plane_m32.svg": "04c85ea4c48fd25b1e97ecb7c22f94edd0a5ccb96a99033e22471361882e65e3",
        "plane_m33.svg": "68a13b55c6c3e215eef4b4fb8b1d468ba66091308cc10651cba9c96e51cfa79b",
        "plane_m34.svg": "4bab19783cad474ca979fc994732807edde1605de4bff02ad2ce9e9172078dfe",
        "plane_m35.svg": "b60fd10b74882010b42ef6c864a8806311f67ebf0578b047b7f3e4cdfb48aac6",
        "plane_m36.svg": "04523c8e3b0d9fd83e9e216742a5a30ac6e82558ed7a4556fc89df31992714ae",
        "plane_m37.svg": "ef580aae563603af5e8278c39e13d4a890d4df562541389edbc0da590905b2c6",
        "plane_m38.svg": "29e2d342a75ada561a8093645a642cce45d288a50da0026462477906250e4425",
        "plane_m39.svg": "a6ec274199478397f6fa2f483ec793f5a9c4b86ca5b32569096a31afb8d727d2",
        "plane_m40.svg": "ab831ec627ef4068b10ff4bcffdc920383f76cdcde3914b5071d51d2ac28cda3",
        "plane_m41.svg": "deb5e4aa010523c13ec32a029fefba2ea10d32586a8d5695c8340957bf2da557",
        "plane_m42.svg": "57e1af6d93793d4d27673d3196abcee876ffc80942b4f385e08cc9a172588f76",
        "plane_m43.svg": "011258059557609a6fd58c417b81ac3f1d334fafa86010d078076f7ffbec5d45",
        "plane_m44.svg": "c312ab26cd885d0e760c931dbe35bba224295abc4d9a1bc5e210b8d3d298b4d6",
        "plane_m45.svg": "c7b3ded5bf36a8a3a753ea4be94bbac2a16c9f17553dd0cbfbc9bdc75b0345bd",
        "hits.svg": "ff1f635c6cdfee71ba9435f635017560975430fc54a3e24977e4035831923338",
        "projection.svg": "9f5ee9fc15e50c2f15c8d02ba1905d4c256dc84749589e5d9a43a0fa53333406",
        "scatter.csv": "541e7385546efdaf58236d1dec8e691514fdad5625a63cc79753449edbe028e5",
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
