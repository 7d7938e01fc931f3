"""The three workloads: their inputs, their passes and their output checks.

A workload has these parts:

* ``prepare(seed, root)`` makes the inputs from the seed without
  finhaar (and writes any input file) before anything is timed.
* ``setup(fh, seed, root)`` is the finhaar work done before the first
  pass, after ``import finhaar``; ``setup_s`` times the import and this
  in fresh interpreters, so it reads only files ``prepare`` wrote.
* ``steps(state)`` returns one pass: a list of ``(operation name,
  callable(done))``, run in order; ``done`` maps the names of the steps
  run so far in this pass to their results.  The pass makes its own
  groups, so no cache carries over from one pass to the next.
* ``check(state, outputs)`` verifies the warm-up pass against
  ``oracles`` and returns a list of problems; ``summary(outputs)`` turns
  a pass into plain data, so that every timed pass can be compared with
  the checked warm-up pass.

finhaar is reached through the module object ``fh`` at call time, so
that the traced run's wrappers are the ones called.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import random
from fractions import Fraction

import oracles

A5_GENS = [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]
S4_GENS = [(1, 0, 2, 3), (1, 2, 3, 0)]
S5_GENS = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
S6_GENS = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]


# -- lattice-ladder --------------------------------------------------------------


def _lattice_ladder(fh, conj_x):
    """(label, closed-form kind, parameter, witness exponent, builder)."""
    def f21():
        z7 = fh.cyclic_group(7)
        double = fh.automorphism_from_map(z7, [(2 * x) % 7 for x in range(7)], "double")
        return fh.semidirect_c3(z7, double, label="F21")

    def heis81():
        heis = fh.heisenberg_group_3()
        aut = fh.automorphism_from_map(heis, conj_x, name="conj-x")
        return fh.semidirect_c3(heis, aut, label="Heis27:conj-x")

    return [
        ("Q8", "Q8", None, 2, lambda: fh.quaternion_group()),
        ("D8", "dihedral", 4, 2, lambda: fh.dihedral_group(4, label="D8")),
        ("D16", "dihedral", 8, 2, lambda: fh.dihedral_group(8)),
        ("S4", "S4", None, 2, lambda: fh.symmetric_group(4)),
        ("Heis27", "heisenberg", 3, 3, lambda: fh.heisenberg_group_3()),
        ("F21", "F21", None, 3, f21),
        ("D32", "dihedral", 16, 2, lambda: fh.dihedral_group(16)),
        ("Z64", "cyclic", 64, 2, lambda: fh.cyclic_group(64)),
        ("D48", "dihedral", 24, 2, lambda: fh.dihedral_group(24)),
        ("A5", "A5", None, 2, lambda: fh.build_perm_group(5, A5_GENS, label="A5")),
        ("Heis27:conj-x", None, None, 3, heis81),
    ]


class LatticeLadder:
    name = "lattice-ladder"

    def prepare(self, seed, root):
        order = list(range(len(_lattice_ladder(None, None))))
        random.Random(seed).shuffle(order)
        return {"order": order}

    def setup(self, fh, seed, root):
        heis = fh.bundled_catalog().get("Heis27")
        conj_x = list(heis.automorphisms["conj-x"].map)
        return {"fh": fh, "conj_x": conj_x}

    def steps(self, state):
        fh = state["fh"]
        ladder = _lattice_ladder(fh, state["conj_x"])

        def extract(label, fn, mode):
            def step(done):
                G = done[f"{label}/build"]
                return fn(G, fh.identity_automorphism(G), mode=mode)

            return step

        out = []
        for i in state["order"]:
            label, _kind, _param, exponent, build = ladder[i]
            G = f"{label}/build"
            out += [
                (G, lambda done, b=build: b()),
                (f"{label}/all_subgroups", lambda done, G=G: fh.all_subgroups(done[G])),
                (f"{label}/normal_subgroups", lambda done, G=G: fh.normal_subgroups(done[G])),
                (
                    f"{label}/witness",
                    lambda done, G=G, k=exponent: fh.coset_witness(fh.torsion_set(done[G], k)),
                ),
                (f"{label}/extract_abelian", extract(label, fh.extract_abelian_subgroup, "both")),
                (f"{label}/extract_engel", extract(label, fh.extract_engel_subgroup, "both")),
            ]
        # S5's lattice is out of reach today, so only proof mode runs on it
        out += [
            ("S5/build", lambda done: fh.symmetric_group(5)),
            ("S5/extract_abelian", extract("S5", fh.extract_abelian_subgroup, "proof")),
            ("S5/extract_engel", extract("S5", fh.extract_engel_subgroup, "proof")),
        ]
        return out

    def summary(self, outputs):
        out = {}
        for name, value in outputs.items():
            if name.endswith("/all_subgroups") or name.endswith("/normal_subgroups"):
                out[name] = [H.members for H in value]
            elif name.endswith("/witness"):
                out[name] = (value.subgroup.members, value.t)
            elif "/extract" in name:
                out[name] = (
                    value.result.members,
                    value.proof_following and value.proof_following.subgroup.members,
                    value.direct_search and value.direct_search.subgroup.members,
                    value.proof_following and len(value.proof_following.certificates),
                )
        return out

    def check(self, state, outputs):
        problems = []
        for label, kind, param, exponent, _build in _lattice_ladder(None, None):
            G = outputs[f"{label}/build"]
            problems += _check_lattice_group(label, kind, param, exponent, G, outputs)
        S5 = outputs["S5/build"]
        _perms, table = oracles.perm_closure(5, S5_GENS)
        if S5.table() != table:
            problems.append("S5: table differs from the permutation closure")
        order, _lcs = oracles.sympy_order_and_lcs(5, S5_GENS)
        if S5.order != order:
            problems.append(f"S5: order {S5.order}, sympy says {order}")
        for law in ("abelian", "engel"):
            problems += _check_extraction(f"S5/{law}", table, outputs[f"S5/extract_{law}"], None)
        return problems


def _group_table(label, G):
    """The Cayley table the checks trust, and any problem found with it."""
    table = G.table()
    if G.backend == "permutation":
        gens = {"S4": S4_GENS, "A5": A5_GENS}[label]
        perms, ref = oracles.perm_closure(len(gens[0]), gens)
        order, _lcs = oracles.sympy_order_and_lcs(len(gens[0]), gens)
        if table != ref or len(perms) != order:
            return table, [f"{label}: permutation table or order disagrees with sympy"]
        return table, []
    n = len(table)
    ok = all(sorted(row) == list(range(n)) for row in table) and all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )
    return table, [] if ok else [f"{label}: table is not a group table"]


def _check_lattice_group(label, kind, param, exponent, G, outputs):
    table, problems = _group_table(label, G)
    inv = oracles.inverses(table)
    lattice = oracles.all_subgroups(table)
    found = {frozenset(H.members) for H in outputs[f"{label}/all_subgroups"]}
    if found != lattice:
        problems.append(f"{label}: {len(found)} subgroups, independent scan finds {len(lattice)}")
    if kind is not None:
        expected = oracles.subgroup_count_closed_form(kind, param)
        if len(found) != expected:
            problems.append(f"{label}: {len(found)} subgroups, closed form {expected}")
    normal = {H for H in lattice if oracles.is_normal(table, inv, H)}
    if {frozenset(H.members) for H in outputs[f"{label}/normal_subgroups"]} != normal:
        problems.append(f"{label}: normal subgroups differ from the brute-force scan")

    W = outputs[f"{label}/witness"]
    X = oracles.torsion(table, exponent)
    if set(W.target.subset.indices()) != X:
        problems.append(f"{label}: torsion:{exponent} set differs")
    H = frozenset(W.subgroup.members)
    if H not in lattice or not oracles.left_translate(table, W.t, H) <= X:
        problems.append(f"{label}: coset witness is not a coset inside the set")
    best = max(
        len(K) for K in lattice if any(oracles.left_translate(table, t, K) <= X for t in X)
    )
    if len(H) != best:
        problems.append(f"{label}: witness subgroup of size {len(H)}, largest is {best}")

    for law in ("abelian", "engel"):
        problems += _check_extraction(
            f"{label}/{law}", table, outputs[f"{label}/extract_{law}"], normal
        )
    return problems


def _check_extraction(where, table, report, normal):
    """Normality and law by brute force; direct mode must reach the
    largest of the ``normal`` subgroups that satisfy the law, and every
    pair certificate must hold."""
    inv = oracles.inverses(table)
    abelian = report.kind == "abelian"

    def law(members):
        if abelian:
            return oracles.is_abelian_on(table, members)
        return oracles.is_2engel_on(table, inv, members)

    problems = []
    modes = [report.result]
    if report.proof_following:
        modes.append(report.proof_following.subgroup)
    if report.direct_search:
        modes.append(report.direct_search.subgroup)
    for H in modes:
        if not oracles.is_normal(table, inv, H.members) or not law(H.members):
            problems.append(f"{where}: result {list(H.members)} fails normality or its law")
    if not (report.verified_normal and report.verified_law):
        problems.append(f"{where}: report does not claim verification")
    if report.direct_search:
        best = max(len(N) for N in normal if law(N))
        if report.direct_search.subgroup.size != best:
            problems.append(f"{where}: direct search size is not the maximum {best}")
    X = oracles.torsion(table, 2 if abelian else 3)
    if report.proof_following:
        for cert in report.proof_following.certificates:
            problems += _check_pair_certificate(where, table, inv, X, abelian, cert)
    if abelian and report.coset_witness is not None:
        W = report.coset_witness
        if not oracles.left_translate(table, W.t, W.subgroup.members) <= X:
            problems.append(f"{where}: coset witness leaves the inverted set")
    return problems


def _check_pair_certificate(where, table, inv, X, abelian, cert):
    a, b, w = cert.a, cert.b, cert.witness
    if w is None:
        return [f"{where}: pair ({a},{b}) has no witness"]
    ab = table[a][b]
    if abelian:
        shifts = [inv[b], inv[a], inv[ab]]
        law = oracles.commutator(table, inv, a, b)
    else:
        shifts = [inv[b], a, inv[a], table[a][inv[b]], table[b][inv[a]], ab, inv[ab]]
        law = oracles.commutator(table, inv, oracles.commutator(table, inv, a, b), b)
    inside = w in X and all(w in oracles.left_translate(table, c, X) for c in shifts)
    if not inside or law != oracles.identity_of(table):
        return [f"{where}: certificate ({a},{b},{w}) does not hold"]
    return []


# -- kernel-ladder ---------------------------------------------------------------

TABLE_CYCLIC = (64, 128, 256, 512)
TABLE_DIHEDRAL = (64, 128, 256)  # D_2m for these m: orders 128, 256, 512


def _aut_order(mapping):
    ident = list(range(len(mapping)))
    current, k = list(mapping), 1
    while current != ident:
        current = [mapping[v] for v in current]
        k += 1
    return k


def _generated_catalog(rng):
    """Cayley tables of Z_n and D_2m with automorphisms and one tower.

    The seed picks the multiplier u = 5 mod 8 of each cyclic group's
    "mul" automorphism; every such u has order n/4 and inverts exactly
    the elements 0 and n/2, so the work does not depend on it."""
    groups, tables = [], {}
    for n in TABLE_CYCLIC:
        table = oracles.cyclic_table(n)
        u = 8 * rng.randrange(n // 8) + 5
        auts = {
            "id": list(range(n)),
            "inv": [(-x) % n for x in range(n)],
            "mul": [(u * x) % n for x in range(n)],
        }
        tables[f"Z{n}"] = (table, auts)
    for m in TABLE_DIHEDRAL:
        table = oracles.dihedral_table(m)
        inv = oracles.inverses(table)
        auts = {
            "id": list(range(2 * m)),
            "conj-r": [table[table[1][x]][inv[1]] for x in range(2 * m)],
        }
        tables[f"D{2 * m}"] = (table, auts)
    for label, (table, auts) in tables.items():
        groups.append(
            {
                "label": label,
                "kind": "table",
                "table": table,
                "automorphisms": [
                    {"name": name, "map": amap, "order": _aut_order(amap)}
                    for name, amap in auts.items()
                ],
            }
        )
    towers = [
        {
            "name": "z-pow2",
            "levels": ["Z64", "Z128", "Z256"],
            "maps": [[x % 64 for x in range(128)], [x % 128 for x in range(256)]],
        }
    ]
    return {"groups": groups, "towers": towers}, tables


def _kernel_catalog_path(root, seed):
    return root / "bench" / "results" / f"kernel-catalog-{seed}.json"


def _unit_values(rng, n, count):
    """``count`` functions on n points: uniform modulus in [0, 1), uniform phase."""
    return [
        [cmath.rect(rng.random(), rng.uniform(0.0, 2.0 * cmath.pi)) for _ in range(n)]
        for _ in range(count)
    ]


class KernelLadder:
    name = "kernel-ladder"

    def prepare(self, seed, root):
        rng = random.Random(seed)
        doc, tables = _generated_catalog(rng)
        path = _kernel_catalog_path(root, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
        return {
            "path": str(path),
            "tables": tables,
            "s6_values": _unit_values(rng, 720, 3),
            "s6_points": [rng.randrange(720) for _ in range(3)],
            "z_values": _unit_values(rng, 512, 3),
            "z_points": [rng.randrange(512) for _ in range(3)],
        }

    def setup(self, fh, seed, root):
        fh.parse_catalog(str(_kernel_catalog_path(root, seed)))
        return {"fh": fh}

    def steps(self, state):
        fh = state["fh"]

        def table(done, label):
            return done["tables/parse"].get(label).group

        def product_mean(G, values, points):
            return fh.translate_product_mean([fh.GroupFunction(G, v) for v in values], points)

        out = [
            ("S5/build", lambda done: fh.symmetric_group(5)),
            ("A5/build", lambda done: fh.build_perm_group(5, A5_GENS, label="A5")),
            ("S6/build", lambda done: fh.symmetric_group(6)),
        ]
        for label in ("S5", "A5", "S6"):
            G = f"{label}/build"
            out += [
                (f"{label}/torsion2", lambda done, G=G: fh.torsion_set(done[G], 2)),
                (f"{label}/torsion3", lambda done, G=G: fh.torsion_set(done[G], 3)),
                (f"{label}/lcs", lambda done, G=G: fh.lower_central_series(done[G])),
            ]
        out += [
            (
                "S6/splitting",
                lambda done: fh.splitting_set(
                    done["S6/build"], fh.identity_automorphism(done["S6/build"])
                ),
            ),
            ("S6/2engel", lambda done: fh.is_2engel(done["S6/build"])),
            (
                "S6/product_mean",
                lambda done: product_mean(
                    done["S6/build"], state["s6_values"], state["s6_points"]
                ),
            ),
            ("S6/cube", lambda done: fh.verify_cube_law(done["S6/build"], max_order=720)),
            ("tables/parse", lambda done: fh.parse_catalog(state["path"])),
        ]
        for label in sorted(state["tables"]):
            out += [
                (f"{label}/torsion2", lambda done, L=label: fh.torsion_set(table(done, L), 2)),
                (f"{label}/torsion3", lambda done, L=label: fh.torsion_set(table(done, L), 3)),
            ]

        out += [
            (
                "Z512/inverted_mul",
                lambda done: fh.inverted_set(
                    table(done, "Z512"),
                    done["tables/parse"].get("Z512").automorphisms["mul"],
                ),
            ),
            (
                "D512/average2",
                lambda done: fh.average_translate_intersection([done["D512/torsion2"].subset] * 2),
            ),
            (
                "Z64/average3",
                lambda done: fh.average_translate_intersection([done["Z64/torsion2"].subset] * 3),
            ),
            ("D256/klarge", lambda done: fh.k_large_certificate(done["D256/torsion2"].subset, 2)),
            ("D512/klarge", lambda done: fh.k_large_certificate(done["D512/torsion2"].subset, 1)),
            ("D256/validate", lambda done: done["D256/klarge"].validate()),
            ("D512/validate", lambda done: done["D512/klarge"].validate()),
            ("Z512/2engel", lambda done: fh.is_2engel(table(done, "Z512"))),
            ("D512/2engel", lambda done: fh.is_2engel(table(done, "D512"))),
            ("D512/lcs", lambda done: fh.lower_central_series(table(done, "D512"))),
            ("D256/cube", lambda done: fh.verify_cube_law(table(done, "D256"), max_order=256)),
            (
                "Z512/product_mean",
                lambda done: product_mean(
                    table(done, "Z512"), state["z_values"], state["z_points"]
                ),
            ),
            ("Heis27/build", lambda done: fh.heisenberg_group_3()),
            (
                "Heis27xC3/build",
                lambda done: fh.semidirect_c3(
                    done["Heis27/build"], fh.identity_automorphism(done["Heis27/build"])
                ),
            ),
            (
                "Heis27xC3/consequences",
                lambda done: fh.verify_engel_consequences(done["Heis27xC3/build"], max_order=81),
            ),
        ]
        return out

    def summary(self, outputs):
        def plain(v):
            if hasattr(v, "subset"):
                return v.subset.bits
            if hasattr(v, "u_set"):
                return v.u_set.bits
            if hasattr(v, "terms"):
                return [len(t.members) for t in v.terms]
            if hasattr(v, "triples_checked"):
                return (v.counterexample, v.triples_checked, v.qualifying_triples)
            if hasattr(v, "average"):
                return (v.average, v.product_of_measures)
            if isinstance(v, (bool, complex)):
                return v
            return None

        return {name: plain(value) for name, value in outputs.items()}

    def check(self, state, done):
        problems = _check_perm_kernels(state, done)
        cat = done["tables/parse"]
        tables = state["tables"]
        for label, (table, auts) in tables.items():
            entry = cat.get(label)
            if entry.group.table() != table:
                problems.append(f"{label}: parsed table differs from the generated one")
            for name, amap in auts.items():
                if entry.automorphisms[name].order != _aut_order(amap):
                    problems.append(f"{label}/{name}: automorphism order differs")
        if [G.order for G in cat.towers["z-pow2"].levels] != [64, 128, 256]:
            problems.append("tower z-pow2 has the wrong levels")

        sizes = {}
        for label, (table, _auts) in tables.items():
            for k in (2, 3):
                ref = oracles.torsion(table, k)
                sizes[(label, k)] = len(ref)
                if set(done[f"{label}/torsion{k}"].subset.indices()) != ref:
                    problems.append(f"{label}: torsion:{k} set differs from brute force")
        if set(done["Z512/inverted_mul"].subset.indices()) != {0, 256}:
            problems.append("Z512: inverted set of x -> ux is not {0, 256}")

        for name, label, count in (("D512/average2", "D512", 2), ("Z64/average3", "Z64", 3)):
            expected = Fraction(sizes[(label, 2)], len(tables[label][0])) ** count
            out = done[name]
            if not (out.identity_holds and out.average == expected):
                problems.append(f"{name}: average {out.average}, sizes give {expected}")

        for label, k in (("D256", 2), ("D512", 1)):
            cert = done[f"{label}/klarge"]
            table = tables[label][0]
            base = oracles.torsion(table, 2)
            if not (
                done[f"{label}/validate"]
                and oracles.certificate_valid(table, base, cert.u_set.indices(), k)
            ):
                problems.append(f"{label}: largeness certificate does not re-validate")

        z = done["Z512/2engel"]
        if z.counterexample is not None or z.triples_checked != 512 * 512:
            problems.append("Z512: abelian group reported not 2-Engel")
        if not _engel_counterexample_holds(tables["D512"][0], done["D512/2engel"].counterexample):
            problems.append("D512: 2-Engel counterexample does not hold")
        lcs = [t.size for t in done["D512/lcs"].terms]
        if lcs != oracles.dihedral_lcs_sizes(256):
            problems.append(f"D512: lower central series sizes {lcs}")
        cube = done["D256/cube"]
        if cube.counterexample is not None or cube.triples_checked != 256**3:
            problems.append("D256: cube law reported a counterexample")

        ref = oracles.product_mean(tables["Z512"][0], state["z_values"], state["z_points"])
        if abs(done["Z512/product_mean"] - ref) > 1e-10:
            problems.append(f"Z512: product mean {done['Z512/product_mean']} != {ref}")

        cons = done["Heis27xC3/consequences"]
        table81, bad = _group_table("Heis27xC3", done["Heis27xC3/build"])
        problems += bad
        if not oracles.is_2engel_on(table81, oracles.inverses(table81), range(81)):
            problems.append("Heis27xC3: the group is not 2-Engel after all")
        if not (
            cons.applicable
            and cons.counterexample is None
            and cons.triples_checked == 81**3
            and cons.nilpotency_class <= 3
        ):
            problems.append("Heis27xC3: Engel consequences reported a counterexample")
        return problems


def _engel_counterexample_holds(table, pair):
    inv = oracles.inverses(table)
    a, b = pair
    e = oracles.identity_of(table)
    return oracles.commutator(table, inv, oracles.commutator(table, inv, a, b), b) != e


def _check_perm_kernels(state, done):
    problems = []
    for label, degree, gens, even in (
        ("S5", 5, S5_GENS, False),
        ("A5", 5, A5_GENS, True),
        ("S6", 6, S6_GENS, False),
    ):
        order, lcs = oracles.sympy_order_and_lcs(degree, gens)
        if done[f"{label}/build"].order != order:
            problems.append(f"{label}: order differs from sympy's {order}")
        got = [t.size for t in done[f"{label}/lcs"].terms]
        if got != lcs:
            problems.append(f"{label}: lower central series sizes {got}, sympy says {lcs}")
        for k in (2, 3):
            ref = oracles.perm_power_count(degree, k, even_only=even)
            if done[f"{label}/torsion{k}"].subset.size != ref:
                problems.append(f"{label}: x^{k} = 1 count differs from {ref}")
    # the solution counts x^2 = 1 and x^3 = 1 in S5 and S6
    for label, k, expected in (("S5", 2, 26), ("S5", 3, 21), ("S6", 2, 76), ("S6", 3, 81)):
        if done[f"{label}/torsion{k}"].subset.size != expected:
            problems.append(f"{label}: x^{k} = 1 has not {expected} solutions")
    if done["S6/splitting"].subset.size != 81:
        problems.append("S6: splitting set of the identity is not the 81 cube roots")

    S6 = done["S6/build"]
    perms, table = oracles.perm_closure(6, S6_GENS)
    if [S6.perm_of(i) for i in range(720)] != perms:
        problems.append("S6: element indexing differs from the breadth-first closure")
    if not _engel_counterexample_holds(table, done["S6/2engel"].counterexample):
        problems.append("S6: 2-Engel counterexample does not hold")
    ref = oracles.product_mean(table, state["s6_values"], state["s6_points"])
    if abs(done["S6/product_mean"] - ref) > 1e-10:
        problems.append("S6: product mean differs from the plain sum")
    cube = done["S6/cube"]
    if cube.counterexample is not None or cube.triples_checked != 720**3:
        problems.append("S6: cube law reported a counterexample")
    return problems


# -- cli-catalog -------------------------------------------------------------------

_CLI_PAIR_GROUPS = ("S3", "S4", "D8", "Q8")


class CliCatalog:
    name = "cli-catalog"

    def prepare(self, seed, root):
        doc = json.loads(
            (root / "src" / "finhaar" / "data" / "catalog.json").read_text(encoding="utf-8")
        )
        tables = {}
        for spec in doc["groups"]:
            if spec["kind"] == "table":
                tables[spec["label"]] = spec["table"]
            else:
                tables[spec["label"]] = oracles.perm_closure(spec["degree"], spec["generators"])[1]
        rng = random.Random(seed)
        pair_group = rng.choice(_CLI_PAIR_GROUPS)
        n = len(tables[pair_group])

        def pair():
            return f"{rng.randrange(n)},{rng.randrange(n)}"

        # Z2 has order 2, so lambda over the whole catalog takes points in {0, 1}
        argvs = [
            ["validate"],
            ["measure", "--set", "torsion:3"],
            ["torsion", "--set", "torsion:2"],
            ["inverted", "--set", "inverted:id"],
            ["splitting", "--set", "splitting:id"],
            ["lambda", "--set", "torsion:2", "--set", "torsion:3",
             "--at", f"{rng.randrange(2)},{rng.randrange(2)}"],
            ["average", "--set", "torsion:2", "--set", "torsion:3"],
            ["psi", "--n", "3", "--seed", str(rng.randrange(10**6))],
            ["klarge", "--set", "torsion:2", "--k", "2"],
            ["witness", "--set", "torsion:2"],
            ["commute-cert", "--set", "inverted:id", "--at", pair(), "--group", pair_group],
            ["engel-cert", "--set", "splitting:id", "--at", pair(), "--group", pair_group],
            ["extract-abelian", "--set", "inverted:id"],
            ["extract-engel", "--set", "splitting:id"],
            ["engel"],
            ["class"],
            ["verify", "lemma-2engel"],
            ["verify", "engel-consequences"],
            ["tower", "--set", "torsion:3"],
        ]
        return {"argvs": argvs, "doc": doc, "tables": tables}

    def setup(self, fh, seed, root):
        import finhaar.cli  # noqa: F401  (binds fh.cli)

        fh.bundled_catalog()
        return {"fh": fh}

    def steps(self, state):
        fh = state["fh"]

        def invoke(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = fh.cli.main(list(argv))
            return code, out.getvalue()

        return [(" ".join(a), lambda done, a=a: invoke(a)) for a in state["argvs"]]

    def summary(self, outputs):
        return dict(outputs)

    def check(self, state, outputs):
        problems = []
        for name, (code, _text) in outputs.items():
            if code != 0:
                problems.append(f"{name}: exit code {code}")
        if problems:
            return problems
        doc, tables = state["doc"], state["tables"]
        inverses = {label: oracles.inverses(t) for label, t in tables.items()}
        t2 = {label: oracles.torsion(t, 2) for label, t in tables.items()}
        t3 = {label: oracles.torsion(t, 3) for label, t in tables.items()}

        def results(command):
            """The result rows of every invocation of ``command``."""
            rows = [
                row
                for name, (_code, text) in outputs.items()
                if name.split()[0] == command
                for row in json.loads(text)["results"]
            ]
            if not rows:
                problems.append(f"{command}: no results to check")
            return rows

        for r in results("measure"):
            n = len(tables[r["label"]])
            if r["size"] != len(t3[r["label"]]) or Fraction(r["measure"]) != Fraction(r["size"], n):
                problems.append(f"measure {r['label']}: size or measure differs")
        for command, ref in (("torsion", t2), ("inverted", t2), ("splitting", t3)):
            for r in results(command):
                if "skipped" not in r and set(r["members"]) != ref[r["label"]]:
                    problems.append(f"{command} {r['label']}: members differ")
        for r in results("average"):
            n = len(tables[r["label"]])
            expected = Fraction(len(t2[r["label"]]), n) * Fraction(len(t3[r["label"]]), n)
            if Fraction(r["average"]) != expected or Fraction(r["product_of_measures"]) != expected:
                problems.append(f"average {r['label']}: not the product of the measures")
        for r in results("klarge"):
            table = tables[r["label"]]
            if not (r["valid"] and oracles.certificate_valid(table, t2[r["label"]], r["u_members"], 2)):
                problems.append(f"klarge {r['label']}: certificate does not re-validate")
        for r in results("witness"):
            table = tables[r["label"]]
            H = r["subgroup"]["members"]
            coset = oracles.left_translate(table, r["t"], H)
            if not (oracles.is_subgroup(table, H) and coset <= t2[r["label"]]):
                problems.append(f"witness {r['label']}: not a coset inside the set")
        for command, law in (("extract-abelian", "abelian"), ("extract-engel", "engel")):
            for r in results(command):
                if "skipped" in r:
                    continue
                table = tables[r["label"]]
                inv = oracles.inverses(table)
                H = r["result"]["members"]
                ok_law = (
                    oracles.is_abelian_on(table, H)
                    if law == "abelian"
                    else oracles.is_2engel_on(table, inv, H)
                )
                if not (oracles.is_normal(table, inv, H) and ok_law):
                    problems.append(f"{command} {r['label']}: result fails normality or law")
        for r in results("verify"):
            if "skipped" not in r and r["applicable"] and not r["holds"]:
                problems.append(f"verify {r['label']}: counterexample to a theorem")
        for r in results("tower"):
            expected = [Fraction(len(t3[lab]), len(tables[lab])) for lab in r["levels"]]
            if [Fraction(m) for m in r["measures"]] != expected or not r["non_increasing"]:
                problems.append(f"tower {r['tower']}: measures differ")
        problems += _check_cli_validate(doc, tables, results("validate"))
        for r in results("lambda"):
            table = tables[r["label"]]
            x, y = r["at"]
            meet = oracles.left_translate(table, x, t2[r["label"]]) & oracles.left_translate(
                table, y, t3[r["label"]]
            )
            if Fraction(r["measure"]) != Fraction(len(meet), len(table)):
                problems.append(f"lambda {r['label']}: measure of the translates differs")
        for r in results("psi"):
            value = complex(r["value"]["re"], r["value"]["im"])
            if len(r["at"]) != 3 or abs(value) > 1 + 1e-12:
                problems.append(f"psi {r['label']}: mean of unit-disk products outside the disk")
        for command, sets, law in (
            ("commute-cert", t2, "commute"),
            ("engel-cert", t3, "engel"),
        ):
            for r in results(command):
                problems += _check_cli_pair(r, tables[r["label"]], sets[r["label"]], law)
        for r in results("engel"):
            table, inv = tables[r["label"]], inverses[r["label"]]
            holds = oracles.is_2engel_on(table, inv, range(len(table)))
            cx = r["counterexample"]
            if r["holds"] != holds or (cx is not None and not _engel_counterexample_holds(table, cx)):
                problems.append(f"engel {r['label']}: 2-Engel verdict differs from brute force")
        for r in results("class"):
            table, inv = tables[r["label"]], inverses[r["label"]]
            terms = oracles.lower_central_series(table, inv)
            trivial = len(terms[-1]) == 1
            if (
                [set(t) for t in r["terms"]] != [set(t) for t in terms]
                or r["sizes"] != [len(t) for t in terms]
                or r["nilpotency_class"] != (len(terms) - 1 if trivial else None)
            ):
                problems.append(f"class {r['label']}: lower central series differs")
        return problems


def _check_cli_validate(doc, tables, results):
    problems = []
    specs = {spec["label"]: spec for spec in doc["groups"]}
    seen = set()
    for r in results:
        if "tower" in r:
            levels = next(t["levels"] for t in doc["towers"] if t["name"] == r["tower"])
            if r["levels"] != levels or r["depth"] != len(levels):
                problems.append(f"validate tower {r['tower']}: levels differ")
            continue
        label = r["label"]
        seen.add(label)
        table = tables[label]
        auts = {a["name"]: _aut_order(a["map"]) for a in specs[label]["automorphisms"]}
        if (
            r["order"] != len(table)
            or r["abelian"] != oracles.is_abelian_on(table, range(len(table)))
            or {a["name"]: a["order"] for a in r["automorphisms"]} != auts
        ):
            problems.append(f"validate {label}: order, abelian flag or automorphism orders differ")
    if seen != set(specs):
        problems.append("validate: groups missing from the report")
    return problems


def _check_cli_pair(r, table, X, law):
    """A pair certificate: the verdict on the law and the least witness
    of the translate intersection, both by brute force."""
    inv = oracles.inverses(table)
    a, b = r["a"], r["b"]
    ab = table[a][b]
    e = oracles.identity_of(table)
    if law == "commute":
        shifts = [inv[b], inv[a], inv[ab]]
        holds = oracles.commutator(table, inv, a, b) == e
        claimed = r["commutator_trivial"]
    else:
        shifts = [inv[b], a, inv[a], table[a][inv[b]], table[b][inv[a]], ab, inv[ab]]
        holds = oracles.commutator(table, inv, oracles.commutator(table, inv, a, b), b) == e
        claimed = r["engel_identity_holds"]
    meet = set(X)
    for c in shifts:
        meet &= oracles.left_translate(table, c, X)
    least = min(meet) if meet else None
    if claimed != holds or r["witness"] != least or (least is not None and not holds):
        return [f"{law} certificate {r['label']} ({a},{b}): verdict or witness differs"]
    return []


WORKLOADS = {w.name: w for w in (CliCatalog(), LatticeLadder(), KernelLadder())}
