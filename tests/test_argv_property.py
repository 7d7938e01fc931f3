"""What argv alone decides exits 2, before any catalog is read: every
argv drawn from the commands, word set specs of each kind (malformed
ones included), ``--at`` lists (a malformed one included) and an
optional ``--group`` ends with exit code 0-3 and one ``finhaar:`` line
on stderr, and exits 2 exactly when the bundled catalog was never
loaded.  The bundled catalog is valid, so once it is loaded no exit 2
is left to give.
"""

import contextlib
import io
import re

import pytest

from finhaar import cli
from finhaar.catalog import bundled_catalog

from conftest import examples

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

COMMANDS = [
    "validate", "measure", "lambda", "average", "psi", "klarge", "torsion", "inverted",
    "splitting", "witness", "commute-cert", "engel-cert", "extract-abelian",
    "extract-engel", "engel", "class", "verify", "tower",
]
LAWS = ["lemma-2engel", "engel-consequences"]
SPECS = [
    "torsion:2", "torsion:3", "torsion:0", "torsion:x",
    "inverted:id", "inverted:conj-r", "splitting:id", "splitting:conj-r", "é",
]
GROUPS = [e.label for e in bundled_catalog().entries] + ["nope"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(LAWS)))
    for spec in draw(st.lists(st.sampled_from(SPECS), max_size=2)):
        argv += ["--set", spec]
    at = draw(
        st.one_of(
            st.none(),
            st.just("0,,1"),
            st.lists(st.integers(0, 7), max_size=3).map(lambda xs: ",".join(map(str, xs))),
        )
    )
    if at is not None:
        argv.append(f"--at={at}")
    group = draw(st.sampled_from([None] + GROUPS))
    if group is not None:
        argv += ["--group", group]
    return argv


@examples(150)
@hypothesis.given(argvs())
def test_exit_2_exactly_when_no_catalog_was_read(argv):
    loads = []

    def counted():
        loads.append(1)
        return bundled_catalog()

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "bundled_catalog", counted)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's own errors
                code = exc.code
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    assert len([line for line in lines if line.startswith("finhaar: ")]) == 1
    assert all(line.startswith(("finhaar: ", "usage: ", " ")) for line in lines)
    assert (code == 2) == (not loads)


# -- one pass against the intermixed parse ------------------------------------
# main parses argv in one pass and parses it again intermixed only where that
# pass fails or leaves arguments over; every argv must exit and print as a
# main that always parses intermixed does.

NOISE = [["-h"], ["--bogus"], ["extra"], ["--"], ["--mode", "bogus"], ["--k", "0"], ["lemma-2engel"]]


def _units(argv):
    """argv cut into its command, its law and its options with their values."""
    units, rest = [], list(argv)
    while rest:
        token = rest.pop(0)
        units.append([token, rest.pop(0)] if token in ("--set", "--group") else [token])
    return units


@st.composite
def placed_argvs(draw):
    """An argv of argvs() with its units in any order and noise among them."""
    units = _units(draw(argvs()))
    units += draw(st.lists(st.sampled_from(NOISE), max_size=1))
    return [token for unit in draw(st.permutations(units)) for token in unit]


def _run(argv, parse=None):
    """(exit code, stdout, stderr) of main(argv), the timing left out of stderr;
    ``parse`` stands in for cli._parse_argv."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if parse is not None:
            mp.setattr(cli, "_parse_argv", parse)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse's own errors and help
                code = exc.code
    return code, out.getvalue(), re.sub(r" in \d+\.\d ms$", "", err.getvalue(), flags=re.M)


def _intermixed(parser, argv):
    return parser.parse_intermixed_args(argv)


@examples(200)
@hypothesis.given(argvs() | placed_argvs())
def test_one_pass_parse_matches_intermixed(argv):
    assert _run(argv) == _run(argv, _intermixed)


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["validate", "-h"],
        ["verify", "--group", "S3", "lemma-2engel"],
        ["--bogus"],
        ["badcmd", "--mode", "bogus"],
        ["badcmd", "--k", "0"],
    ],
    ids=" ".join,
)
def test_pinned_argvs_match_intermixed(argv):
    assert _run(argv) == _run(argv, _intermixed)


# "0" and "x" are no width, so both sides fall back to the terminal's or 80
@pytest.mark.parametrize("columns", ["40", "200", "0", "x"])
@pytest.mark.parametrize("argv", [["-h"], ["validate", "-h"], ["--bogus"]], ids=" ".join)
def test_help_and_usage_are_as_argparse_formats_them_at_any_width(monkeypatch, argv, columns):
    # build_parser sizes its help formatter once, and both sides of the
    # tests above call it; argparse's default formatter asks for the
    # terminal width each time it formats
    monkeypatch.setenv("COLUMNS", columns)
    sized = _run(argv)
    build_parser = cli.build_parser

    def default_formatter():
        parser = build_parser()
        parser.formatter_class = cli.argparse.HelpFormatter
        return parser

    monkeypatch.setattr(cli, "build_parser", default_formatter)
    assert sized == _run(argv)


def test_the_law_after_an_option_takes_the_intermixed_parse(monkeypatch):
    calls = []

    def intermixed(parser, argv, original=cli.argparse.ArgumentParser.parse_intermixed_args):
        calls.append(argv)
        return original(parser, argv)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_intermixed_args", intermixed)
    assert _run(["verify", "lemma-2engel", "--group", "S3"])[0] == 0
    assert calls == []
    assert _run(["verify", "--group", "S3", "lemma-2engel"])[0] == 0
    assert calls == [["verify", "--group", "S3", "lemma-2engel"]]
