"""Command-line driver: catalog in, deterministic reports out.

``finhaar COMMAND [LAW] [options]``: one flat parser, in which options may
come before or after the positionals and the law follows ``verify`` only.
Exit codes: 0 success, 1 operation error, 2 parse/validation error
(argparse errors, a malformed --set or --at and an unwritable --out
included), 3 when a verification command found a counterexample to a
published law or a guaranteed postcondition failed (SoundnessError,
reported, never swallowed).
"""

from __future__ import annotations

import argparse
import sys
import time
import zlib

from .catalog import bundled_catalog, parse_catalog
from .engel import (
    is_2engel,
    left_normed_idx,
    lower_central_series,
    verify_cube_law,
    verify_engel_consequences,
)
from .errors import FinhaarError, OperationError, ParseError, SoundnessError, ValidationError
from .errors import SearchBudgetExceeded
from .measure import (
    GroupFunction,
    average_translate_intersection,
    k_large_certificate,
    translate_intersection_measure,
    translate_product_mean,
)
from .reports import Report, jsonable
from .towers import torsion_images_contained, torsion_measure_sequence
from .wordsets import (
    commuting_certificate,
    coset_witness,
    engel_pair_certificate,
    extract_abelian_subgroup,
    extract_engel_subgroup,
    inverted_set,
    splitting_set,
    torsion_set,
)


def _min_int(option, low):
    """argparse type for an integer >= ``low``.  Its ParseError is not
    caught by argparse, so ``main`` reports it with exit code 2."""
    def parse(text):
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise ParseError(f"{option} must be an integer >= {low}, got {text!r}")
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finhaar",
        description="exact measure, largeness and Engel computations on finite group catalogs",
    )
    parser.add_argument("command", choices=list(_HANDLERS))
    laws = ["lemma-2engel", "engel-consequences"]
    parser.add_argument("law", nargs="?", choices=laws, help="verify only")
    parser.add_argument("--catalog", help="catalog file (default: bundled)")
    parser.add_argument("--group", help="restrict to one catalog label")
    parser.add_argument(
        "--set",
        action="append",
        dest="sets",
        metavar="SPEC",
        help="word set: torsion:N | inverted:AUT | splitting:AUT (repeatable)",
    )
    parser.add_argument("--mode", choices=["proof", "direct", "both"], default="both")
    parser.add_argument("--strategy", choices=["greedy", "exhaustive"], default="greedy")
    parser.add_argument("--at", help="comma separated element indices")
    for option, low, default, text in (
        ("--k", 1, 1, None),
        ("--max-order", 1, None, None),
        ("--budget", 0, None, None),
        ("--seed", 0, 0, None),
        ("--n", 1, 2, "psi function count"),
        ("--length", 1, 2, "product length in proof mode"),
        ("--workers", 1, 1, "accepted; has no effect"),
    ):
        parser.add_argument(option, type=_min_int(option, low), default=default, help=text)
    parser.add_argument("--out", help="write the report to a file instead of stdout")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


def _join_at(argv):
    """argv with ``--at VALUE`` (or its abbreviation ``--a VALUE``) joined
    into ``--at=VALUE`` where VALUE starts with one minus sign: argparse
    would take a VALUE such as -1,0, which is no plain negative number,
    for an unknown option."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        at = len(prev) >= 3 and "--at".startswith(prev)
        if at and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def _load_catalog(args):
    if args.catalog is not None:
        return parse_catalog(args.catalog)
    return bundled_catalog()


def _entries(catalog, args):
    if args.group is not None:
        try:
            return [catalog.get(args.group)], True
        except KeyError as exc:
            raise OperationError(exc.args[0]) from None
    return list(catalog.entries), False


def _parse_at(args, expected):
    if args.at is None:
        return None
    try:
        values = [int(v) for v in args.at.split(",")]
    except ValueError:
        raise ParseError(f"--at must be comma separated integers, got {args.at!r}") from None
    if len(values) != expected:
        raise OperationError(f"--at needs {expected} indices, got {len(values)}")
    return values


def _single_set(args, kind):
    """The command's one --set; unless ``kind`` is None, it must be of that kind."""
    if not args.sets or len(args.sets) != 1:
        raise OperationError("this command needs exactly one --set")
    spec = args.sets[0]
    if kind is not None and spec.partition(":")[0] != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise OperationError(f"{args.command} needs {article} {kind}:* set, got {spec!r}")
    return spec


def _exponent(spec):
    """N of a torsion:N spec, an integer >= 1."""
    try:
        n = int(spec.partition(":")[2])
    except ValueError:
        n = 0
    if n < 1:
        raise ParseError(f"bad torsion spec {spec!r}; N must be an integer >= 1")
    return n


def _resolve_set(entry, spec):
    """WordSet for this entry, or the reason the spec does not fit it."""
    kind, _, param = spec.partition(":")
    G = entry.group
    if kind == "torsion":
        return torsion_set(G, _exponent(spec))
    if kind in ("inverted", "splitting"):
        aut = entry.automorphisms.get(param)
        if aut is None:
            return f"no automorphism named {param!r}"
        if kind == "inverted":
            return inverted_set(G, aut)
        if 3 % aut.order != 0:
            return f"automorphism {param!r} has order {aut.order}, not dividing 3"
        return splitting_set(G, aut)
    raise ParseError(f"bad set spec {spec!r}; use torsion:N | inverted:AUT | splitting:AUT")


def _per_group(entries, explicit, specs, fn):
    """One row per entry: its label plus fn(entry, *word_sets), one word
    set per spec.  The row is {"label", "skipped"} where a spec does not
    fit the entry or fn raises SearchBudgetExceeded, the library's one
    exception for a cap or budget, whose message names the group; for
    the entry named by --group, either is an error instead."""
    results = []
    for entry in entries:
        words = [_resolve_set(entry, spec) for spec in specs]
        reason = next((w for w in words if isinstance(w, str)), None)
        if reason is not None and explicit:
            raise OperationError(f"{entry.label}: {reason}")
        try:
            out = {"skipped": reason} if reason else fn(entry, *words)
        except SearchBudgetExceeded as exc:
            if explicit:
                raise
            out = {"skipped": str(exc)}
        results.append({"label": entry.label, **out})
    return results


def _caps(**options):
    """The cap and budget options the user set; the library default stands for the rest."""
    return {kw: value for kw, value in options.items() if value is not None}


# -- command handlers -----------------------------------------------------------


def _cmd_validate(catalog, entries, explicit, args):
    def fn(entry):
        return {
            "order": entry.group.order,
            "backend": entry.group.backend,
            "abelian": entry.group.is_abelian(),
            "automorphisms": [
                {"name": name, "order": entry.automorphisms[name].order}
                for name in sorted(entry.automorphisms)
            ],
        }

    results = _per_group(entries, explicit, [], fn)
    if args.group is None:
        for name in sorted(catalog.towers):
            tower = catalog.towers[name]
            results.append(
                {
                    "tower": name,
                    "depth": tower.depth,
                    "levels": [G.label for G in tower.levels],
                }
            )
    return results, False


def _cmd_measure(catalog, entries, explicit, args):
    def fn(entry, word):
        return {
            "set": word.spec_string(),
            "size": word.subset.size,
            "measure": word.measure,
        }

    return _per_group(entries, explicit, [_single_set(args, None)], fn), False


def _cmd_word_set(catalog, entries, explicit, args):
    spec = _single_set(args, args.command)
    return _per_group(entries, explicit, [spec], lambda entry, word: jsonable(word)), False


def _cmd_lambda(catalog, entries, explicit, args):
    if not args.sets:
        raise OperationError("need at least one --set")
    xs = _parse_at(args, expected=len(args.sets))
    if xs is None:
        raise OperationError("--at is required for this command")

    def fn(entry, *words):
        value = translate_intersection_measure([w.subset for w in words], xs)
        return {"sets": [w.spec_string() for w in words], "at": xs, "measure": value}

    return _per_group(entries, explicit, args.sets, fn), False


def _cmd_average(catalog, entries, explicit, args):
    if not args.sets:
        raise OperationError("need at least one --set")
    caps = _caps(budget=args.budget)

    def fn(entry, *words):
        out = average_translate_intersection([w.subset for w in words], **caps)
        return {
            "sets": [w.spec_string() for w in words],
            "average": out.average,
            "product_of_measures": out.product_of_measures,
            "identity_holds": out.identity_holds,
        }

    return _per_group(entries, explicit, args.sets, fn), False


def _cmd_psi(catalog, entries, explicit, args):
    xs_fixed = _parse_at(args, expected=args.n)

    def fn(entry):
        import numpy as np
        G = entry.group
        rng = np.random.default_rng([args.seed, zlib.crc32(entry.label.encode())])
        funcs = [GroupFunction.random_unit(G, rng) for _ in range(args.n)]
        xs = xs_fixed if xs_fixed is not None else [
            int(rng.integers(G.order)) for _ in range(args.n)
        ]
        value = translate_product_mean(funcs, xs)
        return {"n": args.n, "at": xs, "value": value}

    return _per_group(entries, explicit, [], fn), False


def _cmd_klarge(catalog, entries, explicit, args):
    caps = _caps(budget=args.budget)

    def fn(entry, word):
        cert = k_large_certificate(word.subset, args.k, strategy=args.strategy, **caps)
        return {"set": word.spec_string(), "strategy": args.strategy, **jsonable(cert)}

    return _per_group(entries, explicit, [_single_set(args, None)], fn), False


def _cmd_witness(catalog, entries, explicit, args):
    caps = _caps(limit=args.max_order)

    def fn(entry, word):
        return {"set": word.spec_string(), **jsonable(coset_witness(word, **caps))}

    return _per_group(entries, explicit, [_single_set(args, None)], fn), False


def _cmd_pair_cert(catalog, entries, explicit, args):
    commute = args.command == "commute-cert"
    spec = _single_set(args, "inverted" if commute else "splitting")
    ab = _parse_at(args, expected=2)
    if ab is None:
        raise OperationError("--at a,b is required for this command")
    a, b = ab

    def fn(entry, word):
        G = entry.group
        if commute:
            witness = commuting_certificate(word, a, b)
            law_holds = G.mul(a, b) == G.mul(b, a)
            law_key = "commutator_trivial"
        else:
            witness = engel_pair_certificate(word, a, b)
            law_holds = left_normed_idx(G, a, b, b) == G.identity
            law_key = "engel_identity_holds"
        return {
            "set": word.spec_string(),
            "a": a,
            "b": b,
            "witness": witness,
            law_key: law_holds,
        }

    return _per_group(entries, explicit, [spec], fn), False


def _cmd_extract(catalog, entries, explicit, args):
    abelian = args.command == "extract-abelian"
    spec = _single_set(args, "inverted" if abelian else "splitting")
    caps = _caps(limit=args.max_order)
    extract = extract_abelian_subgroup if abelian else extract_engel_subgroup

    def fn(entry, word):
        report = extract(entry.group, word.aut, mode=args.mode, length=args.length, **caps)
        return jsonable(report)

    return _per_group(entries, explicit, [spec], fn), False


def _cmd_series(catalog, entries, explicit, args):
    series = is_2engel if args.command == "engel" else lower_central_series

    def fn(entry):
        return jsonable(series(entry.group))

    return _per_group(entries, explicit, [], fn), False


def _cmd_verify(catalog, entries, explicit, args):
    caps = _caps(max_order=args.max_order)
    check = verify_cube_law if args.law == "lemma-2engel" else verify_engel_consequences
    results = _per_group(
        entries, explicit, [], lambda entry: jsonable(check(entry.group, **caps))
    )
    finding = any(r.get("applicable", False) and not r.get("holds", True) for r in results)
    return results, finding


def _cmd_tower(catalog, entries, explicit, args):
    n = _exponent(_single_set(args, "torsion"))
    results = []
    for name in sorted(catalog.towers):
        tower = catalog.towers[name]
        seq = torsion_measure_sequence(tower, n)
        results.append(
            {
                "tower": name,
                "levels": [G.label for G in tower.levels],
                "exponent": n,
                "measures": seq,
                "non_increasing": all(b <= a for a, b in zip(seq, seq[1:])),
                "images_contained": torsion_images_contained(tower, n),
                "upper_bound": {"depth": tower.depth, "value": seq[-1]},
            }
        )
    return results, False


_HANDLERS = {
    "validate": _cmd_validate,
    "measure": _cmd_measure,
    "lambda": _cmd_lambda,
    "average": _cmd_average,
    "psi": _cmd_psi,
    "klarge": _cmd_klarge,
    "torsion": _cmd_word_set,
    "inverted": _cmd_word_set,
    "splitting": _cmd_word_set,
    "witness": _cmd_witness,
    "commute-cert": _cmd_pair_cert,
    "engel-cert": _cmd_pair_cert,
    "extract-abelian": _cmd_extract,
    "extract-engel": _cmd_extract,
    "engel": _cmd_series,
    "class": _cmd_series,
    "verify": _cmd_verify,
    "tower": _cmd_tower,
}


def run_command(args):
    """Dispatch parsed arguments; returns (Report, finding_flag)."""
    started = time.perf_counter()
    catalog = _load_catalog(args)
    entries, explicit = _entries(catalog, args)
    results, finding = _HANDLERS[args.command](catalog, entries, explicit, args)
    parameters = {
        "group": args.group,
        "sets": args.sets,
        "mode": args.mode,
        "k": args.k,
        "strategy": args.strategy,
        "max_order": args.max_order,
        "budget": args.budget,
        "seed": args.seed,
        "at": args.at,
        "n": args.n,
        "length": args.length,
    }
    if args.command == "verify":
        parameters["law"] = args.law
    report = Report(
        command=args.command
        if args.command != "verify"
        else f"verify {args.law}",
        catalog=catalog.source,
        parameters=parameters,
        results=results,
        timing_ms=(time.perf_counter() - started) * 1000.0,
    )
    return report, finding


def main(argv=None):
    parser = build_parser()
    try:
        # intermixed: in verify --group S3 lemma-2engel, law must not match empty
        args = parser.parse_intermixed_args(_join_at(sys.argv[1:] if argv is None else argv))
        if (args.law is None) == (args.command == "verify"):
            parser.error("verify needs a law, and no other command takes one")
        report, finding = run_command(args)
    except (ParseError, ValidationError) as exc:
        print(f"finhaar: {exc}", file=sys.stderr)
        return 2
    except SoundnessError as exc:
        print(f"finhaar: {exc}", file=sys.stderr)
        return 3
    except (FinhaarError, ValueError) as exc:
        print(f"finhaar: {exc}", file=sys.stderr)
        return 1
    text = report.to_json() if args.format == "json" else report.to_csv()
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"finhaar: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    print(f"finhaar: {report.command} in {report.timing_ms:.1f} ms", file=sys.stderr)
    return 3 if finding else 0


if __name__ == "__main__":
    sys.exit(main())
