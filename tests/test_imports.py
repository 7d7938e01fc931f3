"""Every name a library module imports at module level is used there, and
the command-line module starts without the stdlib's heavier machinery."""

import ast
import subprocess
import sys
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


# dataclasses pulls in inspect, and inspect ast, dis and tokenize
NOT_AT_START_UP = ("dataclasses", "inspect", "typing", "importlib.resources")


def test_the_cli_starts_without_stdlib_machinery():
    # -S: the site module imports typing and importlib.resources itself
    # on hosts whose site-packages hold some .pth files
    parent = str(Path(finhaar.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {parent!r}); "
        "import finhaar.cli; finhaar.bundled_catalog(); "
        f"print(sorted(m for m in {NOT_AT_START_UP!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
