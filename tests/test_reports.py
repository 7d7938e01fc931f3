"""Report encoding against the stdlib: ``Report.to_json`` and the encoder
behind it must give exactly ``json.dumps(obj, indent=2, sort_keys=True)``."""

import enum
import json
from collections import OrderedDict

import pytest

from finhaar import cli
from finhaar.reports import _encode

from test_acceptance import CLI_SWEEP
from test_cli import ALL_COMMANDS
from test_golden import PROOF_COMMANDS

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


_INTS = st.integers() | st.sampled_from([2**64, -(2**64) - 1, 10**40, -1, 0])
_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300])
_TEXT = st.text(max_size=8) | st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\n\t", "é", "€𝄞", ""])
# an int list with one bool in it must not take the int-only join
_INT_LISTS = st.lists(_INTS, min_size=1).flatmap(
    lambda xs: st.integers(0, len(xs)).map(lambda i: xs[:i] + [True] + xs[i:])
)
_LEAVES = st.none() | st.booleans() | _INTS | _FLOATS | _TEXT | _INT_LISTS | st.lists(_INTS)
_TREES = st.recursive(
    _LEAVES,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(_TEXT, children)
    ),
    max_leaves=40,
)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(_TREES)
def test_the_encoder_is_json_dumps(tree):
    assert _encode(tree) == reference(tree)


_ARGVS = {" ".join(argv): argv for argv in ALL_COMMANDS + CLI_SWEEP + PROOF_COMMANDS}


@pytest.mark.parametrize("argv", _ARGVS.values(), ids=_ARGVS)
def test_every_payload_is_json_dumps(monkeypatch, capsys, argv):
    reports = []

    def record(args, run=cli.run_command):
        report, finding = run(args)
        reports.append(report)
        return report, finding

    monkeypatch.setattr(cli, "run_command", record)
    assert cli.main(argv) == 0
    (report,) = reports
    assert capsys.readouterr().out == reference(report.payload()) + "\n"


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": [{None: 0}]}, {"a": 0, 2: 1}])
def test_a_key_that_is_not_a_str_raises(obj):
    with pytest.raises(TypeError):
        _encode(obj)


class _Str(str):
    pass


class _Small(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize(
    "obj",
    [_Str("a\"b"), _Small.TWO, [_Small.TWO, 3], {"k": _Str("v")}, OrderedDict(b=1, a=[True])],
    ids=repr,
)
def test_subclasses_encode_as_json_dumps_does(obj):
    assert _encode(obj) == reference(obj)
