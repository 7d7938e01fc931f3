"""A damaged catalog file is a parse or validation error, never a crash:
``finhaar validate --catalog FILE`` on the bundled catalog with one node
replaced by a value of another JSON type, one dict key deleted or one
list entry dropped exits 0 or 2, and exit 2 comes with one ``finhaar:``
line on stderr.  Most mutations exit 2; a dropped optional key, group,
automorphism or tower can leave a valid catalog.

Besides those random draws, one sweep makes every one-node mutation of
the document (within the first two entries of a list of cells) and
requires ``parse_catalog_dict`` to accept it or raise ParseError.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from finhaar.catalog import bundled_catalog_text, parse_catalog_dict
from finhaar.cli import main
from finhaar.errors import ParseError

from conftest import examples

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TEXT = bundled_catalog_text()

# one value of each JSON type, with whole and fractional numbers apart
VALUES = (None, True, 7, 0.5, "x", [], {})


@st.composite
def mutated_catalogs(draw):
    """The bundled catalog with one mutation at a node reached by walking
    down from the root, stopping at each level with even odds."""
    doc = json.loads(TEXT)
    node = doc
    while isinstance(node, (dict, list)) and node:
        parent = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
        if draw(st.booleans()):
            break
    if draw(st.booleans()):
        others = [v for v in VALUES if type(v) is not type(node)]
        parent[key] = draw(st.sampled_from(others))
    else:
        del parent[key]
    return doc


@examples(60)
@hypothesis.given(mutated_catalogs())
def test_a_mutated_catalog_exits_0_or_2_with_one_message(doc):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "catalog.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "--catalog", path])
    assert code in (0, 2)
    if code == 2:
        message = err.getvalue()
        assert message.startswith("finhaar: ")
        assert message.count("\n") == 1 and message.endswith("\n")


# lists read entry by entry; the sweep mutates only the first two entries of
# each, at every depth
CELL_LISTS = ("table", "map", "maps", "generators")
DELETE = object()


def _mutation_sites(node, path=(), cells=False):
    """(path, value) for every one-node mutation under ``node``: each dict
    key deleted (value DELETE) and each node replaced by a value of every
    other type in VALUES."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield path + (key,), DELETE
            yield from _mutation_sites(child, path + (key,), cells or key in CELL_LISTS)
    elif isinstance(node, list):
        for pos, child in enumerate(node[:2] if cells else node):
            yield from _mutation_sites(child, path + (pos,), cells)
    for value in VALUES:
        if type(value) is not type(node):
            yield path, value


def _mutated(node, path, value):
    """A copy of ``node`` with the mutation at ``path``; only the containers
    on the path are copied."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    copy = dict(node) if isinstance(node, dict) else list(node)
    if rest:
        copy[key] = _mutated(node[key], rest, value)
    elif value is DELETE:
        del copy[key]
    else:
        copy[key] = value
    return copy


def test_every_one_node_mutation_parses_or_is_a_parse_error():
    doc = json.loads(TEXT)
    crashes = []
    for path, value in _mutation_sites(doc):
        try:
            parse_catalog_dict(_mutated(doc, path, value), source="mutant")
        except ParseError:
            pass
        except Exception as exc:
            crashes.append((path, "delete" if value is DELETE else value, repr(exc)))
    assert crashes == []
    assert doc == json.loads(TEXT)
