import json

import pytest

from finhaar.catalog import (
    bundled_catalog,
    bundled_catalog_text,
    parse_catalog,
    parse_catalog_dict,
)
from finhaar.errors import NotMultiplicative, ParseError
from finhaar.groups import (
    automorphism_from_map,
    cyclic_group,
    dihedral_group,
    heisenberg_group_3,
    identity_automorphism,
    inner_automorphism,
    inversion_automorphism,
    quaternion_group,
    semidirect_c3,
    symmetric_group,
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


def test_perm_entries_reproduce_indexing(catalog):
    s3 = catalog.get("S3").group
    assert s3.perm_of(1) == (1, 0, 2)
    assert s3.perm_of(2) == (1, 2, 0)
