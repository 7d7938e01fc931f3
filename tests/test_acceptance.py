"""Acceptance criteria, one test per criterion.

Each test ends by printing an "ACCEPTANCE nn PASS/FAIL" line (visible
with pytest -s or in captured output), and every tolerance is pinned
here: measure identities are exact rationals with zero tolerance, the
only floating comparison is the 1e-10 slack of criterion 9.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from finhaar.catalog import bundled_catalog
from finhaar.engel import is_2engel, verify_cube_law, verify_engel_consequences
from finhaar.families import semidirect_c3
from finhaar.measure import (
    GroupFunction,
    Subset,
    average_translate_intersection,
    l2_distance,
    translate_product_mean,
)
from finhaar.towers import torsion_measure_sequence
from finhaar.wordsets import (
    coset_witness,
    extract_abelian_subgroup,
    extract_engel_subgroup,
    inverted_set,
    splitting_set,
    torsion_set,
)

S3_TRANSPOSITIONS = [1, 3, 4]


@pytest.fixture(scope="module")
def catalog():
    return bundled_catalog()


def conclude(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_01_averaging_identity(catalog):
    started = time.perf_counter()
    failures = []
    for entry in catalog.entries:
        G = entry.group
        if G.order > 24:
            continue
        rng = random.Random(f"acc1:{entry.label}")
        for _ in range(100):
            sets = [Subset(G, rng.getrandbits(G.order)) for _ in range(2)]
            out = average_translate_intersection(sets)
            if out.average != out.product_of_measures:
                failures.append((entry.label, 2))
        if G.order <= 12:
            for _ in range(20):
                sets = [Subset(G, rng.getrandbits(G.order)) for _ in range(3)]
                out = average_translate_intersection(sets)
                if out.average != out.product_of_measures:
                    failures.append((entry.label, 3))
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s")
    conclude(1, "averaging identity exact on seeded random families", failures)


def test_criterion_02_cube_law(catalog):
    started = time.perf_counter()
    failures = []
    counts = {}
    for entry in catalog.entries:
        if entry.group.order > 27:
            continue
        report = verify_cube_law(entry.group)
        counts[entry.label] = report.qualifying_triples
        if report.counterexample is not None:
            failures.append((entry.label, report.counterexample))
    for label, count in sorted(counts.items()):
        print(f"  cube-law qualifying triples {label}: {count}")
    if counts.get("S3") != 27:
        failures.append(("S3 qualifying", counts.get("S3")))
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s")
    conclude(2, "eight cube conditions force [a,b,b]=1 on all bundled groups", failures)


def test_criterion_03_splitting_specializes_to_torsion3(catalog):
    failures = []
    for entry in catalog.entries:
        ident = entry.automorphisms["id"]
        split = splitting_set(entry.group, ident)
        tor = torsion_set(entry.group, 3)
        if split.subset.bits != tor.subset.bits:
            failures.append(entry.label)
    conclude(3, "splitting set of the identity equals the cube-root set bit for bit", failures)


def test_criterion_04_semidirect_equivalence(catalog):
    failures = []
    pairs = 0
    for entry in catalog.entries:
        G = entry.group
        for name, aut in sorted(entry.automorphisms.items()):
            if 3 % aut.order != 0:
                continue
            pairs += 1
            X = splitting_set(G, aut)
            ext = semidirect_c3(G, aut)
            for x in G.elements():
                in_split = x in X.subset
                cubes = ext.power(ext.pair_index(x, 1), 3) == ext.identity
                if in_split != cubes:
                    failures.append((entry.label, name, x))
    z7 = catalog.get("Z7")
    if splitting_set(z7.group, z7.automorphisms["double"]).measure != 1:
        failures.append("frobenius base splitting measure")
    if pairs < 13:
        failures.append(f"only {pairs} (group, automorphism) pairs scanned")
    conclude(4, "splitting membership matches cubes in the order-3 extension", failures)


def test_criterion_05_abelian_extraction_desk_instances(catalog):
    failures = []
    s3 = catalog.get("S3")
    X = inverted_set(s3.group, s3.automorphisms["id"])
    if X.measure != Fraction(2, 3):
        failures.append("S3 inverted measure")
    report = extract_abelian_subgroup(s3.group, s3.automorphisms["id"])
    if report.result.members != (0, 2, 5):
        failures.append(("S3 subgroup", report.result.members))
    W = report.coset_witness
    coset = sorted(s3.group.mul(W.t, h) for h in W.subgroup.members)
    if coset != S3_TRANSPOSITIONS or not W.validate():
        failures.append(("S3 coset", coset))
    d8 = catalog.get("D8")
    report8 = extract_abelian_subgroup(d8.group, d8.automorphisms["id"])
    if report8.result.members != (0, 1, 2, 3):
        failures.append(("D8 subgroup", report8.result.members))
    W8 = report8.coset_witness
    coset8 = sorted(d8.group.mul(W8.t, h) for h in W8.subgroup.members)
    if W8.t < 4 or coset8 != [4, 5, 6, 7] or not W8.validate():
        failures.append(("D8 coset", W8.t, coset8))
    for rep in (report, report8):
        if not (rep.verified_normal and rep.verified_law):
            failures.append("verification flags")
    conclude(5, "inverted-set extraction returns the expected subgroup and coset", failures)


def test_criterion_06_engel_extraction_desk_instances(catalog):
    failures = []
    heis = catalog.get("Heis27")
    rep_h = extract_engel_subgroup(heis.group, heis.automorphisms["id"])
    if rep_h.word_set.measure != 1 or rep_h.result.size != 27:
        failures.append(("Heis27", rep_h.result.size))
    s3 = catalog.get("S3")
    rep_s = extract_engel_subgroup(s3.group, s3.automorphisms["id"])
    if rep_s.word_set.measure != Fraction(1, 2):
        failures.append("S3 splitting measure")
    if rep_s.result.members != (0, 2, 5):
        failures.append(("S3 subgroup", rep_s.result.members))
    for rep in (rep_h, rep_s):
        if not (rep.verified_normal and rep.verified_law):
            failures.append("verification flags")
        if not (rep.result.is_normal() and is_2engel(rep.result).holds):
            failures.append("independent re-verification")
    conclude(6, "splitting-set extraction returns verified normal 2-Engel subgroups", failures)


def test_criterion_07_coset_witness_search(catalog):
    failures = []
    s3 = catalog.get("S3")
    W = coset_witness(torsion_set(s3.group, 2))
    coset = sorted(s3.group.mul(W.t, h) for h in W.subgroup.members)
    if W.subgroup.size != 3 or coset != S3_TRANSPOSITIONS:
        failures.append(("S3", W.subgroup.size, coset))
    z6 = catalog.get("Z6")
    W6 = coset_witness(torsion_set(z6.group, 3))
    if W6.subgroup.members != (0, 2, 4) or W6.t != 0:
        failures.append(("Z6", W6.subgroup.members, W6.t))
    for W_ in (W, W6):
        if not W_.validate():
            failures.append("revalidation")
    conclude(7, "maximal coset witnesses on the desk instances", failures)


def test_criterion_08_engel_consequences(catalog):
    failures = []
    scanned = 0
    for entry in catalog.entries:
        if not is_2engel(entry.group).holds:
            continue
        scanned += 1
        report = verify_engel_consequences(entry.group)
        if not report.applicable:
            failures.append((entry.label, "not applicable"))
            continue
        if report.nilpotency_class is None or report.nilpotency_class > 3:
            failures.append((entry.label, report.nilpotency_class))
        if report.counterexample is not None:
            failures.append((entry.label, report.counterexample))
    if scanned < 10:
        failures.append(f"only {scanned} 2-Engel groups scanned")
    conclude(8, "2-Engel groups have class <= 3 and satisfy the swap law", failures)


def test_criterion_09_lipschitz_bound(catalog):
    failures = []
    groups = [e.group for e in catalog.entries if e.group.order <= 24]
    rng = np.random.default_rng(90210)
    for i in range(1000):
        G = groups[i % len(groups)]
        n = (i % 3) + 1
        funcs = [GroupFunction.random_unit(G, rng) for _ in range(n)]
        xs = [int(rng.integers(G.order)) for _ in range(n)]
        ys = [int(rng.integers(G.order)) for _ in range(n)]
        lhs = abs(
            translate_product_mean(funcs, xs) - translate_product_mean(funcs, ys)
        )
        rhs = sum(
            l2_distance(f.left_translate(x), f.left_translate(y))
            for f, x, y in zip(funcs, xs, ys)
        )
        if lhs > rhs + 1e-10:
            failures.append((G.label, i, lhs - rhs))
    conclude(9, "translation Lipschitz bound holds on 1000 seeded instances", failures)


def test_criterion_10_tower_monotonicity(catalog):
    failures = []
    pow3 = catalog.towers["pow3"]
    if torsion_measure_sequence(pow3, 3) != [1, Fraction(1, 3), Fraction(1, 9)]:
        failures.append("pow3 sequence")
    for name in sorted(catalog.towers):
        tower = catalog.towers[name]
        for n in (1, 2, 3, 4, 6):
            seq = torsion_measure_sequence(tower, n)
            if not all(b <= a for a, b in zip(seq, seq[1:])):
                failures.append((name, n, seq))
    conclude(10, "torsion measures never increase toward the fine end", failures)


CLI_SWEEP = [
    ["validate"],
    ["measure", "--set", "torsion:3"],
    ["lambda", "--set", "torsion:2", "--set", "torsion:3", "--at", "0,1"],
    ["average", "--set", "torsion:2", "--set", "torsion:3"],
    ["psi", "--n", "2", "--seed", "5"],
    ["klarge", "--set", "torsion:2", "--k", "2"],
    ["torsion", "--set", "torsion:3"],
    ["inverted", "--set", "inverted:id"],
    ["splitting", "--set", "splitting:id"],
    ["witness", "--set", "torsion:2"],
    ["commute-cert", "--set", "inverted:id", "--at", "0,1"],
    ["engel-cert", "--set", "splitting:id", "--at", "0,1"],
    ["extract-abelian", "--set", "inverted:id"],
    ["extract-engel", "--set", "splitting:id"],
    ["engel"],
    ["class"],
    ["verify", "lemma-2engel", "--max-order", "27"],
    ["verify", "engel-consequences", "--max-order", "27"],
    ["tower", "--set", "torsion:3"],
]


def test_criterion_11_cli_determinism(capsys):
    from finhaar.cli import main

    failures = []
    for argv in CLI_SWEEP:
        outputs = []
        for extra in ([], [], ["--workers", "4"]):
            code = main(argv + extra)
            captured = capsys.readouterr()
            if code != 0:
                failures.append((argv, extra, code))
            outputs.append(captured.out)
        if not (outputs[0] == outputs[1] == outputs[2]):
            failures.append((argv, "drift"))
        json.loads(outputs[0])  # payload is well-formed JSON
    conclude(11, "every CLI command is byte-identical across runs and worker counts", failures)
