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

import pytest

from finhaar import cli
from finhaar.catalog import bundled_catalog

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


@hypothesis.settings(max_examples=150, deadline=None)
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
