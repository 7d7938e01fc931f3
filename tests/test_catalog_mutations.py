"""A damaged catalog file is a parse or validation error, never a crash:
``finhaar validate --catalog FILE`` on the bundled catalog with one node
replaced by a value of another JSON type, one dict key deleted or one
list entry dropped exits 0 or 2, and exit 2 comes with one ``finhaar:``
line on stderr.  Most mutations exit 2; a dropped optional key, group,
automorphism or tower can leave a valid catalog.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from finhaar.catalog import bundled_catalog_text
from finhaar.cli import main

from conftest import examples

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TEXT = bundled_catalog_text()

# one value of each JSON type
VALUES = [None, True, 7, 0.5, "x", [], {}]


def _json_type(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


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
        others = [v for v in VALUES if _json_type(v) != _json_type(node)]
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
