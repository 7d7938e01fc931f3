import csv
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from finhaar import cli, engel, wordsets
from finhaar.cli import main
from finhaar.catalog import bundled_catalog
from finhaar.errors import FinhaarError, SearchBudgetExceeded
from finhaar.measure import Subset, average_translate_intersection, k_large_certificate

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
    code = main(["measure", "--set", "torsion:2", "--group", "nope"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "finhaar: no group labelled 'nope' in catalog bundled\n"


def test_an_empty_group_label_is_a_label(capsys):
    # not a missing --group: no catalog-wide run
    code = main(["measure", "--set", "torsion:2", "--group", ""])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "finhaar: no group labelled '' in catalog bundled\n"


@pytest.mark.parametrize("option", ["--catalog", "--out"])
def test_an_empty_path_exits_2_with_one_line(capsys, option):
    # an empty path is a path that cannot be opened, not the default
    code = main(["validate", option, ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("finhaar: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["extract-abelian", "--set", "splitting:id"],
            "finhaar: extract-abelian needs an inverted:* set, got 'splitting:id'\n",
        ),
        (
            ["extract-engel", "--set", "inverted:id"],
            "finhaar: extract-engel needs a splitting:* set, got 'inverted:id'\n",
        ),
    ],
)
def test_a_set_of_the_wrong_kind_is_named_with_its_article(capsys, argv, line):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == line


# argv errors that argv alone decides, each with its one line on stderr
ARGV_ERRORS = [
    (["measure"], "this command needs exactly one --set"),
    (
        ["witness", "--set", "torsion:2", "--set", "torsion:3"],
        "this command needs exactly one --set",
    ),
    (["average"], "need at least one --set"),
    (["lambda"], "need at least one --set"),
    (["lambda", "--set", "torsion:2"], "--at is required for this command"),
    (["commute-cert", "--set", "inverted:id"], "--at a,b is required for this command"),
    (["engel-cert", "--set", "splitting:id", "--at", "0"], "--at needs 2 indices, got 1"),
    (["lambda", "--set", "torsion:2", "--at", "0,1"], "--at needs 1 indices, got 2"),
    (["psi", "--n", "3", "--at", "0,1"], "--at needs 3 indices, got 2"),
    (["torsion", "--set", "inverted:id"], "torsion needs a torsion:* set, got 'inverted:id'"),
    (["inverted", "--set", "torsion:2"], "inverted needs an inverted:* set, got 'torsion:2'"),
    (
        ["splitting", "--set", "inverted:id"],
        "splitting needs a splitting:* set, got 'inverted:id'",
    ),
    (
        ["commute-cert", "--set", "splitting:id", "--at", "0,1"],
        "commute-cert needs an inverted:* set, got 'splitting:id'",
    ),
    (
        ["engel-cert", "--set", "inverted:id", "--at", "0,1"],
        "engel-cert needs a splitting:* set, got 'inverted:id'",
    ),
    (["extract-abelian", "--set", "é"], "extract-abelian needs an inverted:* set, got 'é'"),
    (["tower", "--set", "inverted:id"], "tower needs a torsion:* set, got 'inverted:id'"),
    (
        ["measure", "--set", "é", "--group", "nope"],
        "bad set spec 'é'; use torsion:N | inverted:AUT | splitting:AUT",
    ),
    (["validate", "--k", "1_0"], "--k must be an integer >= 1, got '1_0'"),
    (["validate", "--max-order", " 8"], "--max-order must be an integer >= 1, got ' 8'"),
    (["psi", "--seed", "٣"], "--seed must be an integer >= 0, got '٣'"),
    (
        ["lambda", "--set", "torsion:2", "--at", "٣"],
        "--at must be comma separated integers, got '٣'",
    ),
    (
        ["lambda", "--set", "torsion:2", "--set", "torsion:3", "--at", "0, 1"],
        "--at must be comma separated integers, got '0, 1'",
    ),
    (["torsion", "--set", "torsion:1_0"], "bad torsion spec 'torsion:1_0'; N must be an integer >= 1"),
]


@pytest.mark.parametrize("argv, line", ARGV_ERRORS, ids=[" ".join(a) for a, _ in ARGV_ERRORS])
def test_an_argv_error_exits_2_before_the_catalog_is_read(monkeypatch, capsys, argv, line):
    loads = []
    monkeypatch.setattr(cli, "bundled_catalog", lambda: loads.append(1))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"finhaar: {line}\n"
    assert loads == []


def test_bad_set_spec(capsys):
    code, _ = run(capsys, ["measure", "--set", "torsion:x"])
    assert code == 2


def test_bad_catalog_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _ = run(capsys, ["validate", "--catalog", str(bad)])
    assert code == 2


@pytest.mark.parametrize(
    "data",
    [b'\xff\xfe{"groups": []}', b'{"groups": [{"label": "Z\xff2", "kind": "table"}]}'],
    ids=["leading-byte", "in-a-string"],
)
def test_a_catalog_that_is_not_utf8_exits_2_naming_the_path(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code = main(["validate", "--catalog", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"finhaar: {bad}: ") and captured.err.count("\n") == 1


def test_a_catalog_nested_too_deeply_exits_2_naming_the_path(tmp_path):
    # a fresh interpreter, so that an escaping RecursionError would print its traceback
    deep = tmp_path / "deep.json"
    deep.write_text('{"groups": ' + "[" * 100_000 + "]" * 100_000 + "}")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "finhaar", "validate", "--catalog", str(deep)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"finhaar: {deep}: invalid JSON (nested too deeply)\n"


def test_an_integer_past_the_digit_limit_exits_2_naming_the_path(tmp_path, capsys):
    # json.load raises a plain ValueError for it, not a JSONDecodeError
    big = tmp_path / "big.json"
    big.write_text(
        '{"groups": [{"label": "S2", "kind": "perm", "degree": '
        + "1" * 5000
        + ', "generators": [[1, 0]]}]}'
    )
    code = main(["validate", "--catalog", str(big)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"finhaar: {big}: invalid JSON (")
    assert captured.err.count("\n") == 1


def _limit_memory():
    limit = 2 * 10**9  # bytes, as CI's ulimit -v 2000000
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "generators, message",
    [
        ([[1, 0]], "S2: (1, 0) is not a permutation of 0..999999999"),
        ([], "S2: degree 1000000000 exceeds cap 4096 with no generators"),
    ],
    ids=["short-generator", "no-generators"],
)
def test_a_huge_degree_exits_2_before_building_anything_of_its_size(tmp_path, generators, message):
    # a fresh interpreter under a memory limit: a regression fails fast
    # with a MemoryError instead of taking the host's memory
    huge = tmp_path / "huge.json"
    spec = {"label": "S2", "kind": "perm", "degree": 10**9, "generators": generators}
    huge.write_text(json.dumps({"groups": [spec]}))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "finhaar", "validate", "--catalog", str(huge)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"finhaar: {message}\n"


def test_unknown_command_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()


def test_lambda_requires_matching_at(capsys):
    code = main(["lambda", "--set", "torsion:2", "--at", "0,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "finhaar: --at needs 1 indices, got 2\n"


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


def test_a_csv_cell_with_a_carriage_return_is_quoted(tmp_path, capsys):
    cat = tmp_path / "c.json"
    table = [[0, 1], [1, 0]]
    cat.write_text(json.dumps({"groups": [{"label": "Z\r2", "kind": "table", "table": table}]}))
    argv = ["measure", "--set", "torsion:2", "--catalog", str(cat), "--format", "csv"]
    code, out = run(capsys, argv)
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [
        ["label", "measure", "set", "size"],
        ["Z\r2", "1/1", "torsion:2", "2"],
    ]


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: " ".join(a))
def test_csv_reads_back_as_the_json_results(capsys, argv):
    # a nested value is one quoted cell of compact JSON, None and a
    # missing key are empty cells, and any other value is its str()
    code, out = run(capsys, argv)
    results = payload(out)["results"]
    csv_code, text = run(capsys, argv + ["--format", "csv"])
    assert csv_code == code
    rows = list(csv.DictReader(io.StringIO(text)))
    keys = sorted({k for res in results for k in res})
    assert text.split("\n", 1)[0] == ",".join(keys)
    assert len(rows) == len(results)
    for row, res in zip(rows, results):
        assert set(row) == set(keys)
        for k in keys:
            value = res.get(k)
            if isinstance(value, (dict, list)):
                assert row[k] == json.dumps(value, sort_keys=True, separators=(",", ":"))
                assert json.loads(row[k]) == value
            else:
                assert row[k] == ("" if value is None else str(value)), k


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


KLARGE_HUGE_K = (
    "import sys\n"
    "from finhaar.cli import main\n"
    "from finhaar.groups import cyclic_group\n"
    "from finhaar.measure import LargenessCertificate, Subset\n"
    "G = cyclic_group(2)\n"
    "full = Subset.full(G)\n"
    "assert LargenessCertificate(G, full, 10**9, full).validate()\n"
    "sys.exit(main(['klarge', '--set', 'torsion:2', '--k', '100000', '--group', 'Z2']))\n"
)


def test_klarge_work_is_bounded_by_u_not_by_k():
    # a fresh interpreter with a timeout and a memory limit, so that work
    # or memory growing with k (a 10^9-member tuple) fails here fast
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", KLARGE_HUGE_K],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 0, proc.stderr
    [result] = json.loads(proc.stdout)["results"]
    assert (result["k"], result["u_members"], result["valid"]) == (100000, [0, 1], True)


def test_tower_command(capsys):
    code, out = run(capsys, ["tower", "--set", "torsion:3"])
    assert code == 0
    doc = payload(out)
    pow3 = next(r for r in doc["results"] if r["tower"] == "pow3")
    assert pow3["measures"] == ["1/1", "1/3", "1/9"]
    assert pow3["non_increasing"] and pow3["images_contained"]
    assert pow3["upper_bound"] == {"depth": 3, "value": "1/9"}


@pytest.mark.parametrize(
    "label, towers",
    [("Z2", ["d8-flip", "pow2", "s3-sign"]), ("Z27", ["pow3"]), ("Q8", [])],
)
def test_tower_group_keeps_the_towers_with_that_level(capsys, label, towers):
    code, out = run(capsys, ["tower", "--set", "torsion:3", "--group", label])
    assert code == 0
    doc = payload(out)
    assert doc["parameters"]["group"] == label
    assert [r["tower"] for r in doc["results"]] == towers
    assert all(label in r["levels"] for r in doc["results"])


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
            "skipped": f"{label}: exhaustive search capped at order 24 (|G| = 27)",
        }
    code, out = run(capsys, argv + ["--group", "S4"])
    assert code == 0
    assert payload(out)["results"] == [results["S4"]]
    code, _ = run(capsys, argv + ["--group", "Heis27"])
    assert code == 1


# argv over the whole catalog, and the library call it makes for one entry
OVER_BUDGET = [
    (
        ["extract-abelian", "--set", "inverted:id", "--mode", "direct", "--max-order", "8"],
        lambda e: wordsets.extract_abelian_subgroup(
            e.group, e.automorphisms["id"], mode="direct", limit=8
        ),
    ),
    (
        ["average", "--set", "torsion:2", "--budget", "10"],
        lambda e: average_translate_intersection(
            [wordsets.torsion_set(e.group, 2).subset], budget=10
        ),
    ),
    (
        ["klarge", "--set", "torsion:2", "--k", "2", "--budget", "50"],
        lambda e: k_large_certificate(wordsets.torsion_set(e.group, 2).subset, 2, budget=50),
    ),
    (
        ["klarge", "--set", "torsion:2", "--k", "2", "--strategy", "exhaustive"],
        lambda e: k_large_certificate(
            wordsets.torsion_set(e.group, 2).subset, 2, strategy="exhaustive"
        ),
    ),
    (
        ["verify", "lemma-2engel", "--max-order", "8"],
        lambda e: engel.verify_cube_law(e.group, max_order=8),
    ),
    (
        ["verify", "engel-consequences", "--max-order", "8"],
        lambda e: engel.verify_engel_consequences(e.group, max_order=8),
    ),
]


@pytest.mark.parametrize("argv, call", OVER_BUDGET, ids=[" ".join(a) for a, _ in OVER_BUDGET])
def test_a_group_over_a_cap_or_budget_is_skipped_unless_named(capsys, argv, call):
    over = {}
    for entry in bundled_catalog().entries:
        try:
            call(entry)
        except SearchBudgetExceeded as exc:
            over[entry.label] = str(exc)
    assert over and len(over) < len(bundled_catalog().entries)
    assert all(message.startswith(f"{label}: ") for label, message in over.items())
    code, out = run(capsys, argv)
    assert code == 0
    rows = payload(out)["results"]
    assert {r["label"]: r["skipped"] for r in rows if "skipped" in r} == over
    for row in rows:
        label = row["label"]
        code = main(argv + ["--group", label])
        captured = capsys.readouterr()
        if label in over:
            assert code == 1
            assert captured.err == f"finhaar: {over[label]}\n"
        else:
            assert code == 0
            assert payload(captured.out)["results"] == [row]


def test_witness_fallback_is_marked(capsys):
    argv = ["witness", "--set", "torsion:2", "--group", "S3"]
    code, out = run(capsys, argv + ["--max-order", "4"])
    assert code == 0
    (res,) = payload(out)["results"]
    assert res["fallback"] == "S3: subgroup enumeration capped at order 4"
    assert res["subgroup"]["members"] == [0] and res["valid"]
    code, out = run(capsys, argv)
    assert "fallback" not in payload(out)["results"][0]


_S3_GENS = [[1, 0, 2], [1, 2, 0]]
_S3 = {"label": "S3", "kind": "perm", "degree": 3, "generators": _S3_GENS}
_Z2 = {"label": "Z2", "kind": "table", "table": [[0, 1], [1, 0]]}


def _s2(generators):
    return {"label": "S2", "kind": "perm", "degree": 2, "generators": generators}


def _z2_tower(maps):
    """A whole document: Z2 and one tower Z2 <- Z2 with ``maps``."""
    return {"groups": [_Z2], "towers": [{"name": "t", "levels": ["Z2", "Z2"], "maps": maps}]}


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
        ({"label": "Z2", "kind": "table", "table": [[0, 5], [1, 0]]}, []),
        (_s2([5]), []),
        (_s2(["10"]), []),
        (_s2([[1.5, 0]]), []),
        (_s2([[True, False]]), []),
        (_z2_tower([[0, 1.7]]), []),
        (_z2_tower([[0, "1"]]), []),
        (_z2_tower([5]), []),
        ({"label": "T", "kind": "perm", "degree": True, "generators": []}, []),
        (dict(_Z2, automorphisms=[{"name": "id", "map": [0, 1], "order": True}]), []),
        (dict(_Z2, automorphisms=5), []),
        ({"groups": [_Z2], "towers": 5}, []),
        ({"groups": [_Z2], "towers": [{"name": "t", "levels": [["Z2"]], "maps": []}]}, []),
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
        "table-entry-out-of-range",
        "generator-not-a-list",
        "string-generator",
        "float-generator-entry",
        "bool-generator-entries",
        "float-tower-map",
        "string-tower-map",
        "tower-map-not-a-list",
        "bool-degree",
        "bool-declared-order",
        "automorphisms-not-a-list",
        "towers-not-a-list",
        "level-not-a-label",
    ],
)
def test_bad_input_exits_2_with_message(tmp_path, capsys, group, extra):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(group if "towers" in group else {"groups": [group]}))
    if extra == ["--out"]:
        extra = extra + [str(tmp_path / "missing" / "report.json")]
    code = main(["validate", "--catalog", str(path)] + extra)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("finhaar: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, spec", [("commute-cert", "inverted:id"), ("engel-cert", "splitting:id")]
)
def test_failed_recheck_exits_3_with_message(monkeypatch, capsys, command, spec):
    # a forged word set holding all of S3 gives every pair a witness, so
    # the certificate's own re-check of a pair that breaks the law fails
    kind = spec.split(":")[0]
    forged = lambda G, aut: wordsets.WordSet(group=G, kind=kind, subset=Subset.full(G))
    monkeypatch.setattr(cli, f"{kind}_set", forged)
    at, law = ("1,2", "[1,2]") if kind == "inverted" else ("1,3", "[1,3,3]")
    code = main([command, "--set", spec, "--at", at, "--group", "S3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"finhaar: S3: witness 0 found but {law} != 1\n"


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


@pytest.mark.parametrize(
    "argv, entry_point",
    [
        (["lambda", "--set", "torsion:2", "--at", "6"], "translate_intersection_measure"),
        (["psi", "--n", "2", "--at", "0,-1"], "translate_product_mean"),
        (["commute-cert", "--set", "inverted:id", "--at", "0,6"], "commuting_certificate"),
        (["engel-cert", "--set", "splitting:id", "--at", "6,0"], "engel_pair_certificate"),
    ],
    ids=lambda a: a[0] if isinstance(a, list) else a,
)
def test_out_of_range_at_exits_1_naming_the_entry_point(capsys, argv, entry_point):
    code = main(argv + ["--group", "S3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"finhaar: {entry_point} on S3: entry ")
    assert captured.err.count("\n") == 1



@pytest.mark.parametrize(
    "at, code, err",
    [
        (["--at", "-1,0"], 1, "finhaar: commuting_certificate on S3: entry -1 out of range 0..5\n"),
        (["--at", "0,-1"], 1, "finhaar: commuting_certificate on S3: entry -1 out of range 0..5\n"),
        (["--at=-1,0"], 1, "finhaar: commuting_certificate on S3: entry -1 out of range 0..5\n"),
        (["--at", "-x,0"], 2, "finhaar: --at must be comma separated integers, got '-x,0'\n"),
        (["--a", "-1,0"], 1, "finhaar: commuting_certificate on S3: entry -1 out of range 0..5\n"),
        (["--a", "-x,0"], 2, "finhaar: --at must be comma separated integers, got '-x,0'\n"),
    ],
    ids=["-1,0", "0,-1", "=-1,0", "-x,0", "a -1,0", "a -x,0"],
)
def test_an_at_value_with_a_leading_minus_is_read_as_the_value(capsys, at, code, err):
    assert main(["commute-cert", "--set", "inverted:id", "--group", "S3", *at]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err

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


NUMPY_PROBE = """
import contextlib, io, json, sys
import finhaar, finhaar.cli
loaded = {"import": "numpy" in sys.modules}
for argv in (["validate"], ["extract-engel", "--set", "splitting:id"],
             ["psi", "--n", "2", "--seed", "11"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = finhaar.cli.main(argv)
    loaded[argv[0]] = ("numpy" in sys.modules, code)
print(json.dumps(loaded))
"""


def test_numpy_is_imported_only_by_psi():
    # a fresh interpreter: other test modules import numpy at the top
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(proc.stdout) == {
        "import": False,
        "validate": [False, 0],
        "extract-engel": [False, 0],
        "psi": [True, 0],
    }


# -- the flat parser against a frozen copy of the subparser tree it replaced -------

_OLD_COMMANDS = [
    "validate", "measure", "lambda", "average", "psi", "klarge", "torsion", "inverted",
    "splitting", "witness", "commute-cert", "engel-cert", "extract-abelian",
    "extract-engel", "engel", "class", "verify", "tower",
]


def _old_min_int(option, low):
    def parse(text):
        if int(text) >= low:
            return int(text)
        raise ValueError(f"{option} below {low}")
    return parse


def _old_build_parser():
    """One subparser per command, each copying the shared options."""
    import argparse

    parser = argparse.ArgumentParser(prog="finhaar")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--catalog")
    common.add_argument("--group")
    common.add_argument("--set", action="append", dest="sets", metavar="SPEC")
    common.add_argument("--mode", choices=["proof", "direct", "both"], default="both")
    common.add_argument("--k", type=_old_min_int("--k", 1), default=1)
    common.add_argument("--strategy", choices=["greedy", "exhaustive"], default="greedy")
    common.add_argument("--max-order", type=_old_min_int("--max-order", 1), default=None)
    common.add_argument("--budget", type=_old_min_int("--budget", 0), default=None)
    common.add_argument("--seed", type=_old_min_int("--seed", 0), default=0)
    common.add_argument("--at")
    common.add_argument("--n", type=_old_min_int("--n", 1), default=2)
    common.add_argument("--length", type=_old_min_int("--length", 1), default=2)
    common.add_argument("--workers", type=_old_min_int("--workers", 1), default=1)
    common.add_argument("--out")
    common.add_argument("--format", choices=["json", "csv"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _OLD_COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name == "verify":
            p.add_argument("law", choices=["lemma-2engel", "engel-consequences"])
    return parser


def _split(argv):
    """(positionals, options) of an argv whose options all take one value."""
    positionals, options, rest = [], [], list(argv)
    while rest:
        token = rest.pop(0)
        if token.startswith("--"):
            options += [token, rest.pop(0)]
        else:
            positionals.append(token)
    return positionals, options


def _placements(argv):
    """argv with its options before, between (verify only) and after the
    positionals, each paired with the same argv for the old parser, which
    needs the command first."""
    (command, *law), options = _split(argv)
    rest = list(argv)
    rest.remove(command)
    yield argv, [command] + rest
    yield options + [command] + law, [command] + options + law
    yield [command] + law + options, [command] + law + options
    if law:
        yield [command] + options + law, [command] + options + law


def _new_namespace(monkeypatch, argv):
    """The arguments ``main`` hands to ``run_command``."""
    seen = []

    def capture(args):
        seen.append(args)
        raise FinhaarError("parsed")

    monkeypatch.setattr(cli, "run_command", capture)
    assert main(argv) == 1
    return seen[0]


PARSER_CASES = ALL_COMMANDS + [
    ["verify", "--group", "S3", "lemma-2engel"],
    ["--max-order", "27", "verify", "engel-consequences"],
    ["--group", "S3", "validate"],
    ["witness", "--max", "5", "--set", "torsion:2"],
    [
        "klarge", "--catalog", "c.json", "--group", "S3", "--set", "torsion:2", "--set",
        "inverted:id", "--mode", "proof", "--k", "3", "--strategy", "exhaustive",
        "--max-order", "9", "--budget", "0", "--seed", "4", "--at", "0,1", "--n", "3",
        "--length", "1", "--workers", "2", "--out", "r.json", "--format", "csv",
    ],
]


def test_flat_parser_matches_the_subparser_tree(monkeypatch):
    from test_acceptance import CLI_SWEEP

    old_parser = _old_build_parser()
    for argv in PARSER_CASES + CLI_SWEEP:
        for new_argv, old_argv in _placements(argv):
            old = vars(old_parser.parse_args(old_argv))
            new = vars(_new_namespace(monkeypatch, new_argv))
            assert {k: new[k] for k in old} == old, new_argv
            assert new["law"] == old.get("law")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["verify"],
        ["verify", "--group", "S3"],
        ["witness", "lemma-2engel"],
        ["validate", "extra"],
        ["verify", "lemma-2engel", "extra"],
        ["validate", "--k", "0"],
        ["validate", "--format", "xml"],
        # argv integers are an optional sign and ASCII digits, not whatever int() reads
        ["validate", "--k", "1_0"],
        ["psi", "--seed", "٣"],
        ["lambda", "--set", "torsion:2", "--at", "٣"],
    ],
    ids=lambda a: " ".join(a) or "no-command",
)
def test_flat_parser_rejects_with_exit_2(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.rstrip("\n").split("\n")[-1].startswith("finhaar: ")
