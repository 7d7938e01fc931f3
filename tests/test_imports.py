"""Every name a library module imports at module level is used there; the
command-line module starts without the stdlib's heavier machinery; the
package's public names are pinned, each command loads only the library
modules it runs, and every name the benchmark's tracer wraps resolves.
Checks of what is loaded run in a fresh interpreter."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import tracing

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


# where this finhaar lives, first on a fresh interpreter's path
SRC = str(Path(finhaar.__file__).parent.parent)


def _fresh(code):
    """stdout of ``code`` run by a fresh ``python -S`` that imports finhaar
    from SRC; -S, since the site module imports typing and
    importlib.resources itself on hosts whose site-packages hold some
    .pth files."""
    code = f"import sys; sys.path.insert(0, {SRC!r})\n{code}"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_cli_starts_without_stdlib_machinery():
    code = (
        "import finhaar.cli; finhaar.bundled_catalog(); "
        f"print(sorted(m for m in {NOT_AT_START_UP!r} if m in sys.modules))"
    )
    assert _fresh(code) == "[]\n"


# the public names of finhaar, by the module that defines them
PUBLIC = {
    "catalog": ["Catalog", "CatalogEntry", "bundled_catalog", "parse_catalog"],
    "engel": [
        "CentralSeries", "CommutatorReport", "commutator", "is_2engel",
        "lower_central_series", "verify_cube_law", "verify_engel_consequences",
    ],
    "families": [
        "SemidirectExtension", "cyclic_group", "dihedral_group", "heisenberg_group_3",
        "quaternion_group", "semidirect_c3", "symmetric_group",
    ],
    "groups": [
        "Automorphism", "FiniteGroup", "GroupElement", "Subgroup", "automorphism_from_map",
        "build_perm_group", "build_table_group", "generate_subgroup", "identity_automorphism",
        "inner_automorphism", "inversion_automorphism",
    ],
    "lattice": ["all_subgroups", "normal_core", "normal_subgroups"],
    "measure": [
        "AveragedIntersection", "GroupFunction", "LargenessCertificate", "Subset",
        "average_translate_intersection", "format_rational", "k_large_certificate",
        "l2_distance", "measure", "translate_intersection_measure", "translate_product_mean",
    ],
    "towers": ["Tower", "build_tower", "torsion_measure_sequence"],
    "wordsets": [
        "CosetWitness", "ExtractionReport", "WordSet", "commuting_certificate",
        "coset_witness", "engel_pair_certificate", "extract_abelian_subgroup",
        "extract_engel_subgroup", "inverted_set", "splitting_set", "torsion_set",
    ],
}
PUBLIC_NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_the_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 57
    code = f"""
import finhaar, json
names = sorted(finhaar.__all__)
defined = {{
    name: getattr(finhaar, name) is vars(sys.modules["finhaar." + module])[name]
    for module, names in {PUBLIC!r}.items()
    for name in names
}}
star = {{}}
exec("from finhaar import *", star)
print(json.dumps([names, defined, sorted(set(star) - {{"__builtins__"}})]))
"""
    names, defined, star = json.loads(_fresh(code))
    assert names == PUBLIC_NAMES
    assert [name for name, same in defined.items() if not same] == []
    assert star == PUBLIC_NAMES


@pytest.mark.parametrize(
    "imports",
    [
        "import finhaar",
        "import finhaar, finhaar.wordsets",
        "import finhaar.wordsets, finhaar",
        "import finhaar; finhaar.Subset; import finhaar.wordsets",
        "from finhaar.measure import Subset; import finhaar",
        "import finhaar; from finhaar.measure import Subset",
        "import finhaar.measure",
    ],
)
def test_finhaar_measure_is_the_function_in_every_import_order(imports):
    # importing the submodule finhaar.measure binds the package attribute
    # of that name, unless the package drops that binding
    check = "print(finhaar.measure is sys.modules['finhaar.measure'].measure)"
    assert _fresh(f"{imports}\nimport finhaar\n{check}") == "True\n"


CATALOG_READ_LOADS = [
    "finhaar", "finhaar.catalog", "finhaar.errors", "finhaar.groups", "finhaar.towers"
]


def _loaded_after(call):
    """The finhaar modules loaded after ``import finhaar; CALL``."""
    code = (
        f"import finhaar; {call}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'finhaar'))"
    )
    return _fresh(code).split("'")[1::2]


def test_reading_the_bundled_catalog_loads_four_library_modules():
    assert _loaded_after("finhaar.bundled_catalog()") == CATALOG_READ_LOADS


# a table group, a permutation group with an automorphism, and a tower
SMALL_CATALOG = {
    "groups": [
        {"label": "Z2", "kind": "table", "table": [[0, 1], [1, 0]]},
        {"label": "Z4", "kind": "table",
         "table": [[(i + j) % 4 for j in range(4)] for i in range(4)]},
        {"label": "S3", "kind": "perm", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]],
         "automorphisms": [{"name": "id", "map": [0, 1, 2, 3, 4, 5], "order": 1}]},
    ],
    "towers": [{"name": "mod2", "levels": ["Z2", "Z4"], "maps": [[0, 1, 0, 1]]}],
}


def test_parsing_a_catalog_file_loads_what_the_bundled_catalog_loads(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_CATALOG), encoding="utf-8")
    parse = (
        f"c = finhaar.parse_catalog({str(path)!r}); "
        "assert c.labels() == ['S3', 'Z2', 'Z4'] and list(c.towers) == ['mod2']"
    )
    assert _loaded_after(parse) == CATALOG_READ_LOADS


def _loaded_by_command(argv):
    """The finhaar modules that ``python -m finhaar ARGV`` imports, read from
    the interpreter's own import log (-X importtime)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "finhaar", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    names = {line.rpartition("|")[2].strip() for line in lines if line.startswith("import time:")}
    return {name for name in names if name.split(".")[0] == "finhaar"}


def test_validate_loads_no_module_it_does_not_run():
    loaded = _loaded_by_command(["validate"])
    not_run = {f"finhaar.{m}" for m in ("engel", "families", "lattice", "measure", "wordsets")}
    assert {"finhaar.catalog", "finhaar.cli", "finhaar.reports"} <= loaded
    assert sorted(loaded & not_run) == []


# every name the benchmark's traced run wraps, as (module, attribute)
TRACED = [target for targets in tracing.LAYERS.values() for target in targets]


@pytest.mark.parametrize("module, attr", TRACED)
def test_every_traced_name_resolves(module, attr):
    # the tracer reads a function as a module attribute with no default,
    # and a method from its class's own namespace
    target = importlib.import_module(f"finhaar.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        target = vars(getattr(target, cls_name))[meth]
    else:
        target = getattr(target, attr)
    assert callable(target)
