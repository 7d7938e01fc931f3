"""Command-line driver: catalog in, deterministic reports out.

``finhaar COMMAND [LAW] [options]``: one flat parser, in which options may
come before or after the positionals and the law follows ``verify`` only.
argv is parsed in one pass; only where that pass raises an argparse error
or leaves arguments over (verify --group S3 lemma-2engel) is it parsed
again intermixed, so every argv exits and prints as intermixed parsing alone
would have it.
One table, ``_COMMANDS``, says for each command how many --set values it
takes and of which kind, how many --at indices, and how it computes one
row per catalog entry; argv is checked against it before any catalog is
read.  Exit codes: 0 success; 1 operation error, which needs the catalog
(an unknown --group label, a set that does not fit the --group entry, a
--group entry over a cap or budget, an --at index out of range);
2 parse/validation error: whatever argv alone decides (argparse errors, a
missing, extra, malformed or wrong-kind --set, a malformed --at or a wrong
count of its indices), a malformed catalog and an unwritable --out; 3 when
a verification command found a counterexample to a published law or a
guaranteed postcondition failed (SoundnessError, reported, never
swallowed).
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
import zlib
from functools import partial

from .catalog import bundled_catalog, parse_catalog
from .errors import FinhaarError, OperationError, ParseError, SoundnessError, ValidationError
from .errors import SearchBudgetExceeded
from .reports import Report, jsonable
from .towers import torsion_images_contained, torsion_measure_sequence


def _int(text):
    """The integer written as an optional sign and ASCII digits; ValueError
    for anything else, which ``int`` alone would read too: spaces,
    underscores (1_0) and other scripts' digits."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


def _min_int(option, low):
    """argparse type for an integer >= ``low``.  Its ParseError is not
    caught by argparse, so ``main`` reports it with exit code 2."""
    def parse(text):
        try:
            if _int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise ParseError(f"{option} must be an integer >= {low}, got {text!r}")
    return parse


def build_parser():
    # argparse makes a HelpFormatter, which asks for the terminal size, on
    # every add_argument; this one has the width argparse would compute
    width = shutil.get_terminal_size().columns - 2
    parser = argparse.ArgumentParser(
        prog="finhaar",
        description="exact measure, largeness and Engel computations on finite group catalogs",
        formatter_class=partial(argparse.HelpFormatter, width=width),
    )
    parser.add_argument("command", choices=list(_COMMANDS))
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


def _parse_spec(spec):
    """(kind, N) of a torsion:N spec, N an integer >= 1, or (kind, AUT) of
    an inverted:AUT or splitting:AUT spec."""
    kind, _, param = spec.partition(":")
    if kind == "torsion":
        try:
            n = _int(param)
        except ValueError:
            n = 0
        if n < 1:
            raise ParseError(f"bad torsion spec {spec!r}; N must be an integer >= 1")
        return kind, n
    if kind not in ("inverted", "splitting"):
        raise ParseError(f"bad set spec {spec!r}; use torsion:N | inverted:AUT | splitting:AUT")
    return kind, param


def _resolve_set(entry, kind, param):
    """WordSet for this entry, or the reason the parsed spec does not fit it."""
    from .wordsets import inverted_set, splitting_set, torsion_set

    G = entry.group
    if kind == "torsion":
        return torsion_set(G, param)
    aut = entry.automorphisms.get(param)
    if aut is None:
        return f"no automorphism named {param!r}"
    if kind == "inverted":
        return inverted_set(G, aut)
    if 3 % aut.order != 0:
        return f"automorphism {param!r} has order {aut.order}, not dividing 3"
    return splitting_set(G, aut)


def _per_group(entries, explicit, specs, fn):
    """One row per entry: its label plus fn(entry, *word_sets), one word
    set per parsed spec.  The row is {"label", "skipped"} where a spec
    does not fit the entry or fn raises SearchBudgetExceeded, the
    library's one exception for a cap or budget, whose message names the
    group; for the entry named by --group, either is an error instead."""
    results = []
    for entry in entries:
        words = [_resolve_set(entry, *spec) for spec in specs]
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


# -- one row per catalog entry: row(args, xs, entry, *word_sets) ------------------
# A row imports what it calls, so that a command loads only the library
# modules it runs (validate: catalog, towers and groups).


def _validate_row(args, xs, entry):
    return {
        "order": entry.group.order,
        "backend": entry.group.backend,
        "abelian": entry.group.is_abelian(),
        "automorphisms": [
            {"name": name, "order": entry.automorphisms[name].order}
            for name in sorted(entry.automorphisms)
        ],
    }


def _measure_row(args, xs, entry, word):
    return {"set": word.spec_string(), "size": word.subset.size, "measure": word.measure}


def _word_set_row(args, xs, entry, word):
    return jsonable(word)


def _lambda_row(args, xs, entry, *words):
    from .measure import translate_intersection_measure

    value = translate_intersection_measure([w.subset for w in words], xs)
    return {"sets": [w.spec_string() for w in words], "at": xs, "measure": value}


def _average_row(args, xs, entry, *words):
    from .measure import average_translate_intersection

    out = average_translate_intersection([w.subset for w in words], **_caps(budget=args.budget))
    return {
        "sets": [w.spec_string() for w in words],
        "average": out.average,
        "product_of_measures": out.product_of_measures,
        "identity_holds": out.identity_holds,
    }


def _psi_row(args, xs, entry):
    import numpy as np

    from .measure import GroupFunction, translate_product_mean

    G = entry.group
    rng = np.random.default_rng([args.seed, zlib.crc32(entry.label.encode())])
    funcs = [GroupFunction.random_unit(G, rng) for _ in range(args.n)]
    if xs is None:
        xs = [int(rng.integers(G.order)) for _ in range(args.n)]
    return {"n": args.n, "at": xs, "value": translate_product_mean(funcs, xs)}


def _klarge_row(args, xs, entry, word):
    from .measure import k_large_certificate

    caps = _caps(budget=args.budget)
    cert = k_large_certificate(word.subset, args.k, strategy=args.strategy, **caps)
    return {"set": word.spec_string(), "strategy": args.strategy, **jsonable(cert)}


def _witness_row(args, xs, entry, word):
    from .wordsets import coset_witness

    witness = coset_witness(word, **_caps(limit=args.max_order))
    return {"set": word.spec_string(), **jsonable(witness)}


def _pair_cert_row(args, xs, entry, word):
    from .engel import left_normed_idx
    from .wordsets import commuting_certificate, engel_pair_certificate

    G = entry.group
    a, b = xs
    if args.command == "commute-cert":
        witness = commuting_certificate(word, a, b)
        law_holds = G.mul(a, b) == G.mul(b, a)
        law_key = "commutator_trivial"
    else:
        witness = engel_pair_certificate(word, a, b)
        law_holds = left_normed_idx(G, a, b, b) == G.identity
        law_key = "engel_identity_holds"
    return {"set": word.spec_string(), "a": a, "b": b, "witness": witness, law_key: law_holds}


def _extract_row(args, xs, entry, word):
    from .wordsets import extract_abelian_subgroup, extract_engel_subgroup

    abelian = args.command == "extract-abelian"
    extract = extract_abelian_subgroup if abelian else extract_engel_subgroup
    caps = _caps(limit=args.max_order)
    return jsonable(extract(entry.group, word.aut, mode=args.mode, length=args.length, **caps))


def _series_row(args, xs, entry):
    from .engel import is_2engel, lower_central_series

    series = is_2engel if args.command == "engel" else lower_central_series
    return jsonable(series(entry.group))


def _verify_row(args, xs, entry):
    from .engel import verify_cube_law, verify_engel_consequences

    check = verify_cube_law if args.law == "lemma-2engel" else verify_engel_consequences
    return jsonable(check(entry.group, **_caps(max_order=args.max_order)))


def _tower_row(args, specs, name, tower):
    """validate's row of one tower, or tower's: the measures of its torsion:N set."""
    levels = [G.label for G in tower.levels]
    if args.command == "validate":
        return {"tower": name, "depth": tower.depth, "levels": levels}
    ((_, n),) = specs
    seq = torsion_measure_sequence(tower, n)
    return {
        "tower": name,
        "levels": levels,
        "exponent": n,
        "measures": seq,
        "non_increasing": all(b <= a for a, b in zip(seq, seq[1:])),
        "images_contained": torsion_images_contained(tower, n),
        "upper_bound": {"depth": tower.depth, "value": seq[-1]},
    }


# command: (--set count, kind of every set, --at indices, row per entry); a
# row gets the checked --at indices as xs, or None
#   --set count: 0 (any --set is ignored), 1 (exactly one) or "1+" (one or more)
#   kind: the one kind every set must have, or None for any kind
#   --at: None (ignored), "per set" (one index per set), 2 (the pair a,b)
#         or "n" (--n indices, or none: psi draws them)
#   row: None for tower, whose rows are one per tower
_COMMANDS = {
    "validate": (0, None, None, _validate_row),
    "measure": (1, None, None, _measure_row),
    "lambda": ("1+", None, "per set", _lambda_row),
    "average": ("1+", None, None, _average_row),
    "psi": (0, None, "n", _psi_row),
    "klarge": (1, None, None, _klarge_row),
    "torsion": (1, "torsion", None, _word_set_row),
    "inverted": (1, "inverted", None, _word_set_row),
    "splitting": (1, "splitting", None, _word_set_row),
    "witness": (1, None, None, _witness_row),
    "commute-cert": (1, "inverted", 2, _pair_cert_row),
    "engel-cert": (1, "splitting", 2, _pair_cert_row),
    "extract-abelian": (1, "inverted", None, _extract_row),
    "extract-engel": (1, "splitting", None, _extract_row),
    "engel": (0, None, None, _series_row),
    "class": (0, None, None, _series_row),
    "verify": (0, None, None, _verify_row),
    "tower": (1, "torsion", None, None),
}


def _check_argv(args):
    """(specs, xs): the parsed --set specs and the --at indices (None when
    ignored or left out) of args.command, checked against its row of
    _COMMANDS.  Whatever argv alone decides raises ParseError here, before
    any catalog is read."""
    count, kind, at, _ = _COMMANDS[args.command]
    specs = (args.sets or []) if count else []
    if count == 1 and len(specs) != 1:
        raise ParseError("this command needs exactly one --set")
    if count and not specs:
        raise ParseError("need at least one --set")
    for spec in specs:
        if kind is not None and spec.partition(":")[0] != kind:
            article = "an" if kind[0] in "aeiou" else "a"
            raise ParseError(f"{args.command} needs {article} {kind}:* set, got {spec!r}")
    xs = None
    if at is not None and args.at is not None:
        try:
            xs = [_int(v) for v in args.at.split(",")]
        except ValueError:
            raise ParseError(f"--at must be comma separated integers, got {args.at!r}") from None
        expected = {"per set": len(specs), "n": args.n}.get(at, at)
        if len(xs) != expected:
            raise ParseError(f"--at needs {expected} indices, got {len(xs)}")
    elif at == "per set":
        raise ParseError("--at is required for this command")
    elif at == 2:
        raise ParseError("--at a,b is required for this command")
    return [_parse_spec(spec) for spec in specs], xs


def run_command(args):
    """Check argv, then dispatch; returns (Report, finding_flag)."""
    started = time.perf_counter()
    specs, xs = _check_argv(args)
    catalog = _load_catalog(args)
    entries, explicit = _entries(catalog, args)
    row = _COMMANDS[args.command][3]
    results = [] if row is None else _per_group(entries, explicit, specs, partial(row, args, xs))
    if args.command == "tower" or (args.command == "validate" and not explicit):
        for name, tower in sorted(catalog.towers.items()):
            # under --group, only the towers that have that group as a level
            if not explicit or any(G.label == args.group for G in tower.levels):
                results.append(_tower_row(args, specs, name, tower))
    finding = args.command == "verify" and any(
        r.get("applicable", False) and not r.get("holds", True) for r in results
    )
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


class _Retry(Exception):
    """An argparse error in the one-pass parse: parse again, intermixed."""


def _raise_retry(message):
    raise _Retry


def _parse_argv(parser, argv):
    """One parse_known_args pass over argv.  Where it raises an argparse
    error or leaves arguments over, argv is parsed again intermixed, which
    reports errors as before: in verify --group S3 lemma-2engel one pass
    matches the empty law right after verify and leaves lemma-2engel over,
    and in badcmd --mode bogus the intermixed parse names --mode first."""
    parser.error = _raise_retry  # argparse reports every error through it
    try:
        args, rest = parser.parse_known_args(argv)
    except _Retry:
        rest = True
    finally:
        del parser.error
    return parser.parse_intermixed_args(argv) if rest else args


def main(argv=None):
    parser = build_parser()
    try:
        # one pass, or the intermixed parse where that pass fails or leaves arguments over
        args = _parse_argv(parser, _join_at(sys.argv[1:] if argv is None else argv))
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
