"""The outputs that simplifying the code must leave as they are (ROADMAP
aim 2): every family of `benchmarks/digest_outputs.py` but the A9 chain,
which `test_criterion_06_a9_chain` hashes, against its recorded SHA-256."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "digest_outputs.py"

DIGESTS = {
    "screen": "7beaff8ad7be36e23a4254b68d1986008ffaa6ecf57c5f42f39a8d453d47cb9f",
    "coset_tables": "fcd22358806c89329f241951bae876d83d8e60fa53de373706e142a214afe4c4",
    "low_index_e7": "5b85b355d88a19b1efa626cbeb34350aa40ba47d3668d25194e61f987ade161c",
    "low_index": "e3609871ba2cf7a3b6b51ed71861aa0de5b1adaba19189b0d5fd8eb36bddf811",
    "bar_cohomology": "3f7926f68afa6030e11cc83a5b388d6745cb81f37a7c830cc4c3a239cfd4244d",
    "relation_cohomology": "c777d336d8adef94ee750fa4c9843b073bbdf0aba54d95735381065880e91218",
    "cyclic_cohomology": "5195c31e1849c72c30ed71a3638bede3eb93fa5fa5e270ea0a2ac0d692a7c07d",
    "kernel_basis": "56fddcd8baad89e6d825558a13ab1e905afb4f915cafb9b1983be58792cdc077",
    "certificates": "668fc35c949e9d9897563edf2364c70c0586a4b7bfd565d33ca0087ebc2eb1d3",
    "jordan": "c2cb540141a976ddb958fb402d552cb0d00cb41af1faa87aa2f9d245884f9107",
    "element_index": "332a7a419c5848ddddf3d8c24026798f0c14b595e8c30bd25a324c7de4d1d5be",
}


@pytest.fixture(scope="module")
def families():
    spec = importlib.util.spec_from_file_location("digest_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FAMILIES


def test_every_family_but_the_chain_is_recorded(families):
    assert set(families) == set(DIGESTS) | {"a9_chain"}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_family_digest(families, name):
    assert families[name]() == DIGESTS[name]
