import gc
import json

import pytest

from finhaar import catalog as catalog_module
from finhaar.catalog import (
    bundled_catalog,
    bundled_catalog_text,
    parse_catalog,
    parse_catalog_dict,
)
from finhaar.cli import main
from finhaar.errors import (
    CapExceeded,
    FinhaarError,
    InvalidPermutation,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotBijective,
    NotMultiplicative,
    NotSurjective,
    ParseError,
)
from finhaar.families import (
    cyclic_group,
    dihedral_group,
    heisenberg_group_3,
    quaternion_group,
    semidirect_c3,
    symmetric_group,
)
from finhaar.groups import (
    automorphism_from_map,
    identity_automorphism,
    inner_automorphism,
    inversion_automorphism,
)

REQUIRED_LABELS = {
    "Z2", "Z3", "Z4", "Z6", "Z7", "Z9", "Z27",
    "S3", "S4", "D8", "Q8", "Heis27", "F21",
}


@pytest.fixture(scope="module")
def catalog():
    return bundled_catalog()


def test_bundled_has_required_groups(catalog):
    assert REQUIRED_LABELS <= set(catalog.labels())
    assert len(catalog.entries) >= 12


def _aut_spec(aut):
    return {"name": aut.name, "map": list(aut.map), "order": aut.order}


def build_bundled_dict():
    """Construct the bundled catalog content from scratch.

    The packaged src/finhaar/data/catalog.json is this dictionary frozen
    to disk, and ``test_bundled_file_matches_builder`` keeps the two in
    sync.  Regenerate the file with
    ``json.dump(build_bundled_dict(), fh, indent=2, sort_keys=True)``
    followed by a newline.
    """
    groups = []

    def add_table(G, auts):
        groups.append(
            {
                "label": G.label,
                "kind": "table",
                "table": G.table(),
                "automorphisms": [_aut_spec(a) for a in auts],
            }
        )

    def add_perm(G, degree, gens, auts):
        groups.append(
            {
                "label": G.label,
                "kind": "perm",
                "degree": degree,
                "generators": [list(g) for g in gens],
                "automorphisms": [_aut_spec(a) for a in auts],
            }
        )

    for n in (2, 3, 4, 6, 9, 27):
        Z = cyclic_group(n)
        auts = [identity_automorphism(Z), inversion_automorphism(Z)]
        if n == 9:
            auts.append(
                automorphism_from_map(Z, [(4 * x) % 9 for x in range(9)], name="quad")
            )
        if n == 27:
            auts.append(
                automorphism_from_map(
                    Z, [(10 * x) % 27 for x in range(27)], name="ten"
                )
            )
        add_table(Z, auts)

    z7 = cyclic_group(7)
    double = automorphism_from_map(z7, [(2 * x) % 7 for x in range(7)], name="double")
    add_table(
        z7, [identity_automorphism(z7), inversion_automorphism(z7), double]
    )

    s3 = symmetric_group(3)
    s3_gens = [(1, 0, 2), (1, 2, 0)]
    add_perm(
        s3,
        3,
        s3_gens,
        [
            identity_automorphism(s3),
            inner_automorphism(s3, 1, name="conj-t"),
            inner_automorphism(s3, 2, name="conj-r"),
        ],
    )

    s4 = symmetric_group(4)
    s4_gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
    three_cycle = s4.index_of_perm((1, 2, 0, 3))
    add_perm(
        s4,
        4,
        s4_gens,
        [identity_automorphism(s4), inner_automorphism(s4, three_cycle, name="conj-r")],
    )

    d8 = dihedral_group(4, label="D8")
    add_table(d8, [identity_automorphism(d8), inner_automorphism(d8, 1, name="conj-r")])

    q8 = quaternion_group()
    add_table(q8, [identity_automorphism(q8)])

    heis = heisenberg_group_3()
    add_table(
        heis,
        [identity_automorphism(heis), inner_automorphism(heis, 9, name="conj-x")],
    )

    f21 = semidirect_c3(z7, double, label="F21")
    add_table(
        f21,
        [identity_automorphism(f21), inner_automorphism(f21, 7, name="conj-a")],
    )

    towers = [
        {
            "name": "pow3",
            "levels": ["Z3", "Z9", "Z27"],
            "maps": [[x % 3 for x in range(9)], [x % 9 for x in range(27)]],
        },
        {
            "name": "pow2",
            "levels": ["Z2", "Z4"],
            "maps": [[x % 2 for x in range(4)]],
        },
        {
            "name": "d8-flip",
            "levels": ["Z2", "D8"],
            "maps": [[0, 0, 0, 0, 1, 1, 1, 1]],
        },
        {
            "name": "s3-sign",
            "levels": ["Z2", "S3"],
            "maps": [[0, 1, 0, 1, 1, 0]],
        },
        {
            "name": "heis-abel",
            "levels": ["Z3", "Heis27"],
            "maps": [[idx // 9 for idx in range(27)]],
        },
    ]
    return {"groups": groups, "towers": towers}


def test_bundled_file_matches_builder():
    assert json.loads(bundled_catalog_text()) == build_bundled_dict()


def test_entries_sorted_by_label(catalog):
    labels = catalog.labels()
    assert labels == sorted(labels)


def test_required_automorphisms(catalog):
    for entry in catalog.entries:
        assert "id" in entry.automorphisms
        if entry.group.is_abelian():
            assert "inv" in entry.automorphisms
    assert catalog.get("Z7").automorphisms["double"].order == 3
    s3 = catalog.get("S3")
    assert s3.automorphisms["conj-t"].order == 2
    assert s3.automorphisms["conj-r"].order == 3


def test_frobenius_cross_check(catalog):
    z7 = catalog.get("Z7")
    f21 = catalog.get("F21")
    rebuilt = semidirect_c3(z7.group, z7.automorphisms["double"])
    assert rebuilt.table() == f21.group.table()


def test_bundled_towers(catalog):
    assert set(catalog.towers) == {"pow3", "pow2", "d8-flip", "s3-sign", "heis-abel"}
    pow3 = catalog.towers["pow3"]
    assert [G.label for G in pow3.levels] == ["Z3", "Z9", "Z27"]


def test_empty_catalog():
    cat = parse_catalog_dict({"groups": []}, source="empty")
    assert cat.entries == ()
    assert cat.towers == {}


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_catalog_dict({"groups": [{"label": "X", "kind": "table",
                                        "table": [[0, 1], [1]]}]})
    with pytest.raises(ParseError):
        parse_catalog_dict({"groups": [{"label": "X", "kind": "weird"}]})
    with pytest.raises(ParseError):
        parse_catalog_dict({"groups": [
            {"label": "X", "kind": "table", "table": [[0]]},
            {"label": "X", "kind": "table", "table": [[0]]},
        ]})
    with pytest.raises(ParseError):
        parse_catalog_dict({})


def test_declared_automorphism_order_checked():
    doc = {"groups": [{
        "label": "Z3", "kind": "table",
        "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        "automorphisms": [{"name": "inv", "map": [0, 2, 1], "order": 3}],
    }]}
    with pytest.raises(ParseError):
        parse_catalog_dict(doc)


def test_tower_label_resolution():
    doc = {
        "groups": [{"label": "Z2", "kind": "table", "table": [[0, 1], [1, 0]]}],
        "towers": [{"name": "t", "levels": ["Z2", "nope"], "maps": [[0, 1]]}],
    }
    with pytest.raises(ParseError):
        parse_catalog_dict(doc)


def test_tower_bad_map_is_validation_error():
    doc = {
        "groups": [
            {"label": "Z2", "kind": "table", "table": [[0, 1], [1, 0]]},
            {"label": "Z4", "kind": "table",
             "table": [[(i + j) % 4 for j in range(4)] for i in range(4)]},
        ],
        "towers": [{"name": "t", "levels": ["Z2", "Z4"], "maps": [[1, 0, 1, 0]]}],
    }
    with pytest.raises(NotMultiplicative):
        parse_catalog_dict(doc)


def test_parse_catalog_file(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps({"groups": [
        {"label": "triv", "kind": "table", "table": [[0]]},
    ]}))
    cat = parse_catalog(path)
    assert cat.labels() == ["triv"]
    missing = tmp_path / "missing.json"
    with pytest.raises(ParseError) as info:
        parse_catalog(missing)
    # the path once, then the reason, as main's --out message has it
    assert str(info.value) == f"{missing}: No such file or directory"
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ParseError):
        parse_catalog(bad)


# a loop of order 5 (identity 0, every element its own inverse) that is
# not a group: (1*1)*2 = 2 but 1*(1*2) = 4
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def _bad_catalogs(tmp_path):
    """Paths that parse_catalog rejects, each with the error it raises:
    invalid JSON, a missing file and a table that fails Light's test."""
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"groups": [{"label": "L5", "kind": "table", "table": LOOP5}]}))
    return [(bad_json, ParseError), (tmp_path / "missing.json", ParseError), (loop, NotAssociative)]


def test_parse_catalog_pauses_the_collector_and_restores_it(tmp_path, monkeypatch):
    labels = bundled_catalog().labels()
    seen = []
    parse_dict = catalog_module.parse_catalog_dict

    def spy(doc, source):
        seen.append(gc.isenabled())
        return parse_dict(doc, source)

    monkeypatch.setattr(catalog_module, "parse_catalog_dict", spy)
    path = tmp_path / "cat.json"
    path.write_text(bundled_catalog_text())
    assert gc.isenabled()
    assert parse_catalog(path).labels() == labels
    assert seen == [False]
    assert gc.isenabled()
    for bad, error in _bad_catalogs(tmp_path):
        with pytest.raises(error):
            parse_catalog(bad)
        assert gc.isenabled(), bad.name
    seen.clear()
    assert bundled_catalog().labels() == labels
    assert seen == [False]
    assert gc.isenabled()


def test_parse_catalog_leaves_a_paused_collector_paused(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(bundled_catalog_text())
    gc.disable()
    try:
        parse_catalog(path)
        assert not gc.isenabled()
        bundled_catalog()
        assert not gc.isenabled()
        for bad, error in _bad_catalogs(tmp_path):
            with pytest.raises(error):
                parse_catalog(bad)
            assert not gc.isenabled(), bad.name
    finally:
        gc.enable()


def test_the_bundled_catalog_is_read_like_any_catalog_file(tmp_path, monkeypatch, capsys):
    corrupt = tmp_path / "catalog.json"
    corrupt.write_text("{nope")
    monkeypatch.setattr(catalog_module, "_BUNDLED_PATH", str(corrupt))
    with pytest.raises(ParseError) as info:
        bundled_catalog()
    assert str(info.value).startswith(f"{corrupt}: invalid JSON (")
    assert gc.isenabled()
    assert main(["validate"]) == 2
    assert capsys.readouterr().err == f"finhaar: {info.value}\n"
    monkeypatch.setattr(catalog_module, "_BUNDLED_PATH", str(tmp_path / "missing.json"))
    with pytest.raises(FinhaarError) as info:
        bundled_catalog()
    assert type(info.value) is FinhaarError
    assert str(info.value) == "bundled catalog data is missing"


Z2 = {"label": "Z2", "kind": "table", "table": [[0, 1], [1, 0]]}
Z4 = {"label": "Z4", "kind": "table", "table": [[(i + j) % 4 for j in range(4)] for i in range(4)]}


def _tower(maps):
    return {"groups": [Z2, Z4], "towers": [{"name": "t", "levels": ["Z2", "Z4"], "maps": maps}]}


# every ValidationError that catalog content can raise: the document,
# and the message after the file's name
CONTENT_ERRORS = [
    (NoIdentity, {"groups": [{"label": "X", "kind": "table", "table": [[0, 0], [1, 1]]}]},
     "groups[0]: X: no two-sided identity"),
    (NoInverse, {"groups": [{"label": "X", "kind": "table", "table": [[0, 1], [1, 1]]}]},
     "groups[0]: X: element 1 has no inverse"),
    (NotAssociative, {"groups": [Z2, {"label": "L5", "kind": "table", "table": LOOP5}]},
     "groups[1]: L5: (1*1)*2 != 1*(1*2)"),
    (InvalidPermutation,
     {"groups": [{"label": "P", "kind": "perm", "degree": 3, "generators": [[0, 0, 1]]}]},
     "groups[0]: P: (0, 0, 1) is not a permutation of 0..2"),
    (CapExceeded, {"groups": [{"label": "S4", "kind": "perm", "degree": 4,
                               "generators": [[1, 2, 3, 0], [1, 0, 2, 3]], "cap": 3}]},
     "groups[0]: S4: closure exceeds cap 3"),
    (NotBijective, {"groups": [dict(Z4, automorphisms=[{"name": "f", "map": [0, 0, 1, 2]}])]},
     "groups[0]: Z4/f: map is not a permutation of indices"),
    (NotMultiplicative, {"groups": [dict(Z4, automorphisms=[{"name": "f", "map": [0, 2, 1, 3]}])]},
     "groups[0]: Z4/f: map(x*y) != map(x)*map(y) at (1,1)"),
    (NotSurjective, _tower([[0, 0, 0, 0]]), "towers[0]: t: map 0 is not onto the coarse group"),
    (NotMultiplicative, _tower([[1, 0, 1, 0]]),
     "towers[0]: t: map 0: map(x*y) != map(x)*map(y) at (0,1)"),
]


@pytest.mark.parametrize(
    "error, doc, message",
    CONTENT_ERRORS,
    ids=[f"{error.__name__}-{message.split('[')[0]}" for error, _, message in CONTENT_ERRORS],
)
def test_a_content_error_names_its_file_and_entry_and_keeps_its_class(
    tmp_path, capsys, error, doc, message
):
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error) as info:
        parse_catalog(path)
    assert type(info.value) is error
    assert str(info.value) == f"{path}: {message}"
    assert main(["validate", "--catalog", str(path)]) == 2
    assert capsys.readouterr() == ("", f"finhaar: {path}: {message}\n")


# ParseError branches that no one-node mutation of the bundled catalog
# reaches, each with its whole message
@pytest.mark.parametrize(
    "doc, message",
    [
        ({"groups": [dict(Z2, automorphisms=[{"name": "id", "map": [0, 1]}] * 2)]},
         "<dict>: groups[0]: automorphisms[1]: duplicate name 'id'"),
        ({"groups": [Z2], "towers": [{"name": "t", "levels": ["Z2"]}] * 2},
         "<dict>: towers[1]: duplicate name 't'"),
        ({"groups": [Z2, Z2]}, "<dict>: groups[1]: duplicate label 'Z2'"),
        ([], "<dict>: top level must be an object"),
        ({"groups": [{"label": "P", "kind": "perm", "degree": 2, "generators": [], "cap": 0}]},
         "<dict>: groups[0]: cap must be a positive integer"),
    ],
    ids=["automorphism-name", "tower-name", "label", "top-level", "cap"],
)
def test_a_hand_made_parse_error_has_its_message(doc, message):
    with pytest.raises(ParseError) as info:
        parse_catalog_dict(doc)
    assert str(info.value) == message


def test_parse_catalog_reads_what_parse_catalog_dict_reads(tmp_path):
    path = tmp_path / "cat.json"
    text = bundled_catalog_text()
    path.write_text(text)
    from_file, from_dict = parse_catalog(path), parse_catalog_dict(json.loads(text))
    assert from_file.labels() == from_dict.labels()
    for a, b in zip(from_file.entries, from_dict.entries):
        assert a.group.table() == b.group.table()
        assert {n: aut.map for n, aut in a.automorphisms.items()} == {
            n: aut.map for n, aut in b.automorphisms.items()
        }
    assert {n: t.maps for n, t in from_file.towers.items()} == {
        n: t.maps for n, t in from_dict.towers.items()
    }
    assert {n: [G.label for G in t.levels] for n, t in from_file.towers.items()} == {
        n: [G.label for G in t.levels] for n, t in from_dict.towers.items()
    }


def test_perm_entries_reproduce_indexing(catalog):
    s3 = catalog.get("S3").group
    assert s3.perm_of(1) == (1, 0, 2)
    assert s3.perm_of(2) == (1, 2, 0)
