import json

import pytest

from finhaar import cli, engel, wordsets
from finhaar.cli import main
from finhaar.errors import FinhaarError

ALL_COMMANDS = [
    ["validate"],
    ["measure", "--set", "torsion:3"],
    ["measure", "--set", "inverted:id"],
    ["measure", "--set", "splitting:id"],
    ["lambda", "--set", "torsion:2", "--set", "torsion:3", "--at", "0,1"],
    ["average", "--set", "torsion:2", "--set", "torsion:3"],
    ["psi", "--n", "2", "--seed", "11"],
    ["klarge", "--set", "torsion:2", "--k", "1"],
    ["torsion", "--set", "torsion:3"],
    ["inverted", "--set", "inverted:id"],
    ["splitting", "--set", "splitting:id"],
    ["witness", "--set", "torsion:2"],
    ["commute-cert", "--set", "inverted:id", "--at", "1,4", "--group", "S3"],
    ["engel-cert", "--set", "splitting:id", "--at", "2,5", "--group", "S3"],
    ["extract-abelian", "--set", "inverted:id"],
    ["extract-engel", "--set", "splitting:id"],
    ["engel"],
    ["class"],
    ["verify", "lemma-2engel", "--max-order", "27"],
    ["verify", "engel-consequences", "--max-order", "27"],
    ["tower", "--set", "torsion:3"],
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def payload(out):
    return json.loads(out)


def test_measure_s3(capsys):
    code, out = run(capsys, ["measure", "--set", "torsion:3", "--group", "S3"])
    assert code == 0
    doc = payload(out)
    assert doc["results"] == [
        {"label": "S3", "measure": "1/2", "set": "torsion:3", "size": 3}
    ]


def test_witness_s3(capsys):
    code, out = run(capsys, ["witness", "--set", "torsion:2", "--group", "S3"])
    assert code == 0
    (res,) = payload(out)["results"]
    assert res["subgroup"]["size"] == 3
    assert res["t"] == 1
    assert res["coset"] == [1, 3, 4]
    assert res["valid"]


def test_verify_lemma_clean(capsys):
    code, out = run(capsys, ["verify", "lemma-2engel", "--max-order", "27"])
    assert code == 0
    doc = payload(out)
    scanned = [r for r in doc["results"] if "skipped" not in r]
    assert all(r["counterexample"] is None for r in scanned)
    s3 = next(r for r in scanned if r["label"] == "S3")
    assert s3["qualifying_triples"] == 27


def test_lambda_z4_example(tmp_path, capsys):
    cat = tmp_path / "z4.json"
    cat.write_text(
        json.dumps(
            {
                "groups": [
                    {
                        "label": "Z4",
                        "kind": "table",
                        "table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
                    }
                ]
            }
        )
    )
    code, out = run(
        capsys,
        ["lambda", "--catalog", str(cat), "--set", "torsion:4", "--set",
         "torsion:4", "--at", "0,0"],
    )
    assert code == 0
    (res,) = payload(out)["results"]
    assert res["measure"] == "1/1"


def test_average_reports_both_sides(capsys):
    code, out = run(
        capsys, ["average", "--set", "torsion:2", "--set", "torsion:3", "--group", "S3"]
    )
    assert code == 0
    (res,) = payload(out)["results"]
    assert res["average"] == res["product_of_measures"] == "1/3"
    assert res["identity_holds"]


def test_extract_abelian_cli(capsys):
    code, out = run(
        capsys, ["extract-abelian", "--set", "inverted:id", "--group", "S3"]
    )
    assert code == 0
    (res,) = payload(out)["results"]
    assert res["result"]["members"] == [0, 2, 5]
    assert res["verified_normal"] and res["verified_law"]
    assert res["coset_witness"]["t"] == 1


def test_skipped_entries_are_reported(capsys):
    code, out = run(capsys, ["measure", "--set", "inverted:double"])
    assert code == 0
    results = payload(out)["results"]
    by_label = {r["label"]: r for r in results}
    assert "skipped" in by_label["S3"]
    assert by_label["Z7"]["measure"] == "1/7"


def test_explicit_group_missing_automorphism_errors(capsys):
    code, _ = run(capsys, ["measure", "--set", "inverted:double", "--group", "S3"])
    assert code == 1


def test_unknown_group_label(capsys):
    code, _ = run(capsys, ["measure", "--set", "torsion:2", "--group", "nope"])
    assert code == 1


def test_bad_set_spec(capsys):
    code, _ = run(capsys, ["measure", "--set", "torsion:x"])
    assert code == 2


def test_bad_catalog_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _ = run(capsys, ["validate", "--catalog", str(bad)])
    assert code == 2


def test_unknown_command_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()


def test_lambda_requires_matching_at(capsys):
    code, _ = run(capsys, ["lambda", "--set", "torsion:2", "--at", "0,1"])
    assert code == 1


def test_verify_consequences_clean(capsys):
    code, out = run(capsys, ["verify", "engel-consequences", "--max-order", "27"])
    assert code == 0
    doc = payload(out)
    applicable = [
        r for r in doc["results"]
        if "skipped" not in r and r["applicable"]
    ]
    assert applicable and all(r["holds"] for r in applicable)


def test_verify_counterexample_exits_3(capsys, monkeypatch):
    # no real group violates the published law, so fake one to pin the
    # exit-code contract for findings
    from finhaar.engel import CommutatorReport

    def fake_check(G, max_order=64):
        return CommutatorReport(
            group=G,
            law="lemma-2engel",
            counterexample=(0, 0, 0),
            triples_checked=1,
            qualifying_triples=1,
        )

    monkeypatch.setattr("finhaar.cli.verify_cube_law", fake_check)
    code, out = run(capsys, ["verify", "lemma-2engel", "--group", "S3"])
    assert code == 3
    (res,) = payload(out)["results"]
    assert res["counterexample"] == [0, 0, 0]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(
        capsys,
        ["measure", "--set", "torsion:2", "--group", "Z6", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["results"][0]["measure"] == "1/3"  # torsion-2 in Z6 is {0, 3}


def test_csv_format(capsys):
    code, out = run(
        capsys, ["measure", "--set", "torsion:3", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "label,measure,set,size"
    assert "S3,1/2,torsion:3,3" in lines


def test_klarge_output_revalidates(capsys):
    # round trip: rebuild the certificate from the emitted report and
    # re-check it through the module validator
    from finhaar.catalog import bundled_catalog
    from finhaar.measure import LargenessCertificate, Subset
    from finhaar.wordsets import torsion_set

    code, out = run(capsys, ["klarge", "--set", "torsion:2", "--k", "2"])
    assert code == 0
    catalog = bundled_catalog()
    for res in payload(out)["results"]:
        if "skipped" in res:
            continue
        G = catalog.get(res["label"]).group
        cert = LargenessCertificate(
            group=G,
            base=torsion_set(G, 2).subset,
            k=res["k"],
            u_set=Subset.from_indices(G, res["u_members"]),
        )
        assert res["valid"] and cert.validate()


def test_tower_command(capsys):
    code, out = run(capsys, ["tower", "--set", "torsion:3"])
    assert code == 0
    doc = payload(out)
    pow3 = next(r for r in doc["results"] if r["tower"] == "pow3")
    assert pow3["measures"] == ["1/1", "1/3", "1/9"]
    assert pow3["non_increasing"] and pow3["images_contained"]
    assert pow3["upper_bound"] == {"depth": 3, "value": "1/9"}


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: " ".join(a))
def test_all_commands_deterministic(capsys, argv):
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    code4, out4 = run(capsys, argv + ["--workers", "4"])
    assert code4 == 0
    assert out4 == out1


def test_klarge_exhaustive_skips_large_groups(capsys):
    argv = ["klarge", "--set", "torsion:2", "--k", "2", "--strategy", "exhaustive"]
    code, out = run(capsys, argv)
    assert code == 0
    results = {r["label"]: r for r in payload(out)["results"]}
    for label in ("Heis27", "Z27"):
        assert results[label] == {
            "label": label,
            "skipped": "order 27 above exhaustive limit 24",
        }
    code, out = run(capsys, argv + ["--group", "S4"])
    assert code == 0
    assert payload(out)["results"] == [results["S4"]]
    code, _ = run(capsys, argv + ["--group", "Heis27"])
    assert code == 1


def test_witness_fallback_is_marked(capsys):
    argv = ["witness", "--set", "torsion:2", "--group", "S3"]
    code, out = run(capsys, argv + ["--max-order", "4"])
    assert code == 0
    (res,) = payload(out)["results"]
    assert res["fallback"] == "subgroup scan capped at order 4"
    assert res["subgroup"]["members"] == [0] and res["valid"]
    code, out = run(capsys, argv)
    assert "fallback" not in payload(out)["results"][0]


_S3_GENS = [[1, 0, 2], [1, 2, 0]]
_S3 = {"label": "S3", "kind": "perm", "degree": 3, "generators": _S3_GENS}


@pytest.mark.parametrize(
    "group, extra",
    [
        ({"label": "Z2", "kind": "table", "table": [[0, 1], [1.7, 0]]}, []),
        ({"label": "Z2", "kind": "table", "table": [[0, 1], ["a", 0]]}, []),
        ({"label": "S3", "kind": "perm", "degree": 3, "generators": _S3_GENS, "cap": "x"}, []),
        (
            {"label": "Z2", "kind": "table", "table": [[0, 1], [1, 0]],
             "automorphisms": [{"name": "x", "map": [0, 1.7]}]},
            [],
        ),
        (
            {"label": "S7", "kind": "perm", "degree": 7,
             "generators": [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]},
            [],
        ),
        (_S3, ["--out"]),
        (_S3, ["--length", "0"]),
        (_S3, ["--max-order", "-1"]),
        (_S3, ["--max-order", "-5"]),
        (_S3, ["--k", "0"]),
        (_S3, ["--n", "0"]),
        (_S3, ["--budget", "-1"]),
        (_S3, ["--seed", "-1"]),
        (_S3, ["--workers", "0"]),
        (_S3, ["--workers", "-2"]),
    ],
    ids=[
        "float-entry",
        "string-entry",
        "string-cap",
        "float-aut-map",
        "above-default-cap",
        "out-missing-dir",
        "length-0",
        "max-order-minus-1",
        "max-order-minus-5",
        "k-0",
        "n-0",
        "budget-minus-1",
        "seed-minus-1",
        "workers-0",
        "workers-minus-2",
    ],
)
def test_bad_input_exits_2_with_message(tmp_path, capsys, group, extra):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"groups": [group]}))
    if extra == ["--out"]:
        extra = extra + [str(tmp_path / "missing" / "report.json")]
    code = main(["validate", "--catalog", str(path)] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("finhaar: ")


@pytest.mark.parametrize(
    "command, spec", [("commute-cert", "inverted:id"), ("engel-cert", "splitting:id")]
)
def test_failed_recheck_exits_3_with_message(monkeypatch, capsys, command, spec):
    # every commutator reads as nontrivial, so the certificate's own
    # re-verification of the witnessed pair (e, e) must fail
    monkeypatch.setattr(wordsets, "left_normed_idx", lambda G, *xs: (G.identity + 1) % G.order)
    code = main([command, "--set", spec, "--at", "0,0", "--group", "S3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("finhaar: S3: witness 0 found but [0,0")


def test_other_package_error_exits_1(monkeypatch, capsys):
    def fail(*_args, **_kwargs):
        raise FinhaarError("unexpected")

    monkeypatch.setattr(cli, "coset_witness", fail)
    code = main(["witness", "--set", "torsion:2", "--group", "S3"])
    assert code == 1
    assert capsys.readouterr().err == "finhaar: unexpected\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--set", "torsion:x"],
        ["measure", "--set", "torsion:0"],
        ["tower", "--set", "torsion:0"],
        ["witness", "--set", "torsion:-1"],
        ["lambda", "--set", "torsion:0", "--set", "torsion:2", "--at", "0,0"],
        ["lambda", "--set", "torsion:2", "--set", "torsion:3", "--at", "0,,1"],
        ["lambda", "--set", "torsion:2", "--set", "torsion:3", "--at", "0,x"],
        ["commute-cert", "--set", "inverted:id", "--at", "1,4,", "--group", "S3"],
        ["psi", "--at", ",0,1"],
    ],
    ids=lambda a: " ".join(a),
)
def test_malformed_set_or_at_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("finhaar: ")


# every command that resolves word sets per group, with a set that only
# D8, S3 and S4 declare (conj-r has order 2 in D8, 3 in S3 and S4)
SET_COMMANDS = [
    ["measure", "--set", "inverted:conj-r"],
    ["measure", "--set", "splitting:conj-r"],
    ["lambda", "--set", "torsion:2", "--set", "inverted:conj-r", "--at", "0,0"],
    ["average", "--set", "inverted:conj-r", "--set", "torsion:2"],
    ["klarge", "--set", "inverted:conj-r"],
    ["inverted", "--set", "inverted:conj-r"],
    ["splitting", "--set", "splitting:conj-r"],
    ["witness", "--set", "inverted:conj-r"],
    ["commute-cert", "--set", "inverted:conj-r", "--at", "0,0"],
    ["engel-cert", "--set", "splitting:conj-r", "--at", "0,0"],
    ["extract-abelian", "--set", "inverted:conj-r"],
    ["extract-engel", "--set", "splitting:conj-r"],
]


def _expected_skip(entry, argv):
    if "conj-r" not in entry.automorphisms:
        return "no automorphism named 'conj-r'"
    order = entry.automorphisms["conj-r"].order
    if any(a.startswith("splitting:") for a in argv) and 3 % order:
        return f"automorphism 'conj-r' has order {order}, not dividing 3"
    return None


@pytest.mark.parametrize("argv", SET_COMMANDS, ids=lambda a: " ".join(a))
def test_sets_that_do_not_fit_are_skipped(capsys, argv):
    from finhaar.catalog import bundled_catalog

    entries = bundled_catalog().entries
    code, out = run(capsys, argv)
    assert code == 0
    results = payload(out)["results"]
    assert [r["label"] for r in results] == [e.label for e in entries]
    skipped = {}
    for entry, row in zip(entries, results):
        reason = _expected_skip(entry, argv)
        if reason is None:
            assert "skipped" not in row
        else:
            assert row == {"label": entry.label, "skipped": reason}
            skipped[entry.label] = reason
    assert 0 < len(skipped) < len(entries)
    for label, reason in skipped.items():
        code = main(argv + ["--group", label])
        assert code == 1
        assert capsys.readouterr().err == f"finhaar: {label}: {reason}\n"


def test_verify_consequences_class_above_3_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(
        engel, "is_2engel",
        lambda H: engel.CommutatorReport(group=H.group, law="two-engel", counterexample=None,
                                         triples_checked=0),
    )
    code = main(["verify", "engel-consequences", "--group", "S3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "S3: 2-Engel subject has nilpotency class None" in captured.err


@pytest.mark.parametrize(
    "argv", [["extract-abelian", "--set", "inverted:id"], ["extract-engel", "--set", "splitting:id"]],
    ids=["abelian", "engel"],
)
def test_proof_extraction_on_the_trivial_group_exits_0(tmp_path, capsys, argv):
    cat = tmp_path / "t1.json"
    cat.write_text(
        json.dumps(
            {
                "groups": [
                    {
                        "label": "T1",
                        "kind": "table",
                        "table": [[0]],
                        "automorphisms": [{"name": "id", "map": [0]}],
                    }
                ]
            }
        )
    )
    code, out = run(capsys, argv + ["--catalog", str(cat), "--mode", "proof"])
    assert code == 0
    (res,) = payload(out)["results"]
    assert res["result"]["members"] == [0]
