"""Every name a library module imports at module level is used there."""

import ast
from pathlib import Path

import pytest

import finhaar

MODULES = sorted(
    path for path in Path(finhaar.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _imported_names(tree):
    """Names bound by the module-level imports of ``tree``, except
    ``from __future__ import ...``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    # the base of an attribute, as in ``json.dumps``, is itself a Name
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - read) == []
