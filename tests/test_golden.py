"""Byte-identical payloads: the SHA-256 of stdout for every command in
``ALL_COMMANDS``, and for proof-mode extraction at product lengths 1 and
3, over the bundled catalog.  A change to the payload of any of them
fails here, not only a change from one run to the next."""

import hashlib

import pytest

from finhaar.cli import main

from test_cli import ALL_COMMANDS

PROOF_COMMANDS = [
    [command, "--set", spec, "--mode", "proof", "--length", length]
    for command, spec in (("extract-abelian", "inverted:id"), ("extract-engel", "splitting:id"))
    for length in ("1", "3")
]

GOLDEN = {
    "validate": "eefa4857e2d18a59a38cd33be0bcf9c4bc7fb62e96c187308a45793bdfdea999",
    "measure --set torsion:3": "450155bb8c2ee1b8d67d412fa97595b0e5564b7a0e74582e9f8d79ebf7d2e184",
    "measure --set inverted:id": (
        "cc5a80e671debdb45f3e14d90fc39aad0c853d3983476364d4c8ead111bfe58d"
    ),
    "measure --set splitting:id": (
        "94426c3e8fcee103c04262d355bb8fa1341131b527798c5a00f82a21230675e8"
    ),
    "lambda --set torsion:2 --set torsion:3 --at 0,1": (
        "0d0fe4fd4f9467eaf6c9244a4ed3411dabca6713ad60ab2568154bf4fcdebbdc"
    ),
    "average --set torsion:2 --set torsion:3": (
        "b727a28ece9fb494e30303553705b697f49ea2474707b4d9ceca0fd870e4bac4"
    ),
    "psi --n 2 --seed 11": "381636d9667c67773c03f4cf1c13a3cd8f116448b410d7a0a7d858575fe8ce31",
    "klarge --set torsion:2 --k 1": (
        "6ecf75f20ce399a17ae2a435313e906a4be9b1469cf44fb8764f01b40b5c5793"
    ),
    "torsion --set torsion:3": "04acd7063b9d974969954917b6cd212502b8ef9b3b79a05dacc7aee21c18f27f",
    "inverted --set inverted:id": (
        "849884478d5a537393c373377759eb164e03d95e998609fb25bf8b85abec1b25"
    ),
    "splitting --set splitting:id": (
        "ee0c1bf6f5588e2264c684c1a5d7a6a294c07b02288bf6d3d422d759ba1571d9"
    ),
    "witness --set torsion:2": "911a5e01d05014447875ba5204490c4aee649366174afda35bd659cf046f86dd",
    "commute-cert --set inverted:id --at 1,4 --group S3": (
        "b7442a942b15ea8438aeb4d87e684205a492c7c90a9641e619d7e8438641c2ed"
    ),
    "engel-cert --set splitting:id --at 2,5 --group S3": (
        "fdcbe40a1cf138e9c759b597ff11d7e62dcaa08cadb9a9b242138b9f25560e33"
    ),
    "extract-abelian --set inverted:id": (
        "f63d65a15a71671055f1bc8c31c1214ec21f321ca89cacff1a61ead81687ed03"
    ),
    "extract-engel --set splitting:id": (
        "319d59ff57431295a04075b23b93fc886f8d1e8f0756259ef0eab2193ffd523d"
    ),
    "engel": "41fc16a6adaeec5df64c2c396e664cfad99323f25d08da104a99b4c5c3b79c79",
    "class": "48397941f9789ea9f2d092a999074fa67100d1295b882db80ac87ed70c4589da",
    "verify lemma-2engel --max-order 27": (
        "35fc8a57fa5b1cdf66d992c004bb062f84866314a2dc59048386647458e3b330"
    ),
    "verify engel-consequences --max-order 27": (
        "4ef9cd2f33bce9d418bdab77d91634789e4db3011ceab6a673d3383c3be128a8"
    ),
    "tower --set torsion:3": "b5896fdce85af5ea7a79e4bdd1deaeecea92a1d1d486cbdc1b40f0b99bd3e363",
    "extract-abelian --set inverted:id --mode proof --length 1": (
        "98f1a7a749d6c1c1cd4084a5b3294f04a4db1e860356fbe9689db4b8d348d6c3"
    ),
    "extract-abelian --set inverted:id --mode proof --length 3": (
        "16c2ecd3be22b092496baeca552b7ab6471d1507b3d15ef0ac1c57c7f7194c6e"
    ),
    "extract-engel --set splitting:id --mode proof --length 1": (
        "e95465c5ce1c05e36e86f4cbefa37d838aba7b4fd1d224b05a585fe86729ee8e"
    ),
    "extract-engel --set splitting:id --mode proof --length 3": (
        "26021767530d6986fc1f075f00c1bbd42531c4fd5d22fd06fe918582b550e245"
    ),
}


def test_golden_covers_every_command():
    assert set(GOLDEN) == {" ".join(argv) for argv in ALL_COMMANDS + PROOF_COMMANDS}


@pytest.mark.parametrize("argv", ALL_COMMANDS + PROOF_COMMANDS, ids=" ".join)
def test_payload_matches_golden_digest(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[" ".join(argv)]
