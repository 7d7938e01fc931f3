"""Catalog files: named groups, automorphisms and towers in one JSON document.

Schema (top level object):

    {
      "groups": [
        {"label": "Z6", "kind": "table", "table": [[...], ...],
         "automorphisms": [{"name": "inv", "map": [...], "order": 2}]},
        {"label": "S3", "kind": "perm", "degree": 3,
         "generators": [[1,0,2], [1,2,0]], "automorphisms": [...]}
      ],
      "towers": [
        {"name": "pow3", "levels": ["Z3", "Z9", "Z27"], "maps": [[...], [...]]}
      ]
    }

A perm group may also set "cap", a positive integer (default 4096): its
closure may hold at most that many elements, or the catalog is rejected.
Permutations use one-line image notation.  Everything is validated
eagerly: a catalog that parses is a catalog whose groups, automorphisms
and towers all passed their structural checks.
"""

from __future__ import annotations

import json
import os

from .errors import FinhaarError, ParseError
from .groups import (
    DEFAULT_CLOSURE_CAP,
    _record,
    automorphism_from_map,
    build_perm_group,
    build_table_group,
)
from .towers import build_tower


@_record
class CatalogEntry:
    label: str
    group: object
    automorphisms: dict  # name -> Automorphism


@_record
class Catalog:
    source: str
    entries: tuple  # CatalogEntry, sorted by label
    towers: dict  # name -> Tower

    def labels(self):
        return [e.label for e in self.entries]

    def get(self, label):
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(f"no group labelled {label!r} in catalog {self.source}")


def _require(condition, message):
    if not condition:
        raise ParseError(message)


def _parse_group(spec, label, where):
    """The CatalogEntry of one object of ``groups``."""
    kind = spec.get("kind")
    if kind == "table":
        table = spec.get("table")
        _require(isinstance(table, list) and table, f"{where}: missing table")
        _require(all(isinstance(r, list) for r in table), f"{where}: table rows must be lists")
        group = build_table_group(table, label=label)
    elif kind == "perm":
        degree = spec.get("degree")
        gens = spec.get("generators")
        _require(type(degree) is int and degree >= 1, f"{where}: bad degree")
        _require(isinstance(gens, list), f"{where}: missing generators")
        _require(all(isinstance(g, list) for g in gens), f"{where}: generators must be lists")
        cap = spec.get("cap", DEFAULT_CLOSURE_CAP)
        _require(type(cap) is int and cap >= 1, f"{where}: cap must be a positive integer")
        group = build_perm_group(degree, gens, cap=cap, label=label)
    else:
        raise ParseError(f"{where}: kind must be 'table' or 'perm'")
    auts = {}
    aspecs = spec.get("automorphisms", [])
    _require(isinstance(aspecs, list), f"{where}: automorphisms must be a list")
    for apos, aspec in enumerate(aspecs):
        awhere = f"{where}: automorphisms[{apos}]"
        _require(isinstance(aspec, dict), f"{awhere}: must be an object")
        name = aspec.get("name")
        _require(isinstance(name, str) and name, f"{awhere}: missing name")
        _require(name not in auts, f"{awhere}: duplicate name {name!r}")
        _require(isinstance(aspec.get("map"), list), f"{awhere}: missing map")
        aut = automorphism_from_map(group, aspec["map"], name=name)
        declared = aspec.get("order")
        _require(
            declared is None or (type(declared) is int and declared == aut.order),
            f"{awhere}: declared order {declared!r} but computed {aut.order}",
        )
        auts[name] = aut
    return CatalogEntry(label=label, group=group, automorphisms=auts)


def parse_catalog_dict(doc, source="<dict>"):
    _require(isinstance(doc, dict), f"{source}: top level must be an object")
    _require("groups" in doc, f"{source}: missing 'groups'")
    _require(isinstance(doc["groups"], list), f"{source}: 'groups' must be a list")
    entries = []
    seen = set()
    for pos, spec in enumerate(doc["groups"]):
        where = f"{source}: groups[{pos}]"
        _require(isinstance(spec, dict), f"{where}: entry must be an object")
        label = spec.get("label")
        _require(isinstance(label, str) and label, f"{where}: missing label")
        _require(label not in seen, f"{where}: duplicate label {label!r}")
        seen.add(label)
        try:
            entries.append(_parse_group(spec, label, where))
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    entries.sort(key=lambda e: e.label)
    by_label = {e.label: e for e in entries}
    towers = {}
    _require(isinstance(doc.get("towers", []), list), f"{source}: 'towers' must be a list")
    for pos, tspec in enumerate(doc.get("towers", [])):
        where = f"{source}: towers[{pos}]"
        _require(isinstance(tspec, dict), f"{where}: must be an object")
        name = tspec.get("name")
        _require(isinstance(name, str) and name, f"{where}: missing name")
        _require(name not in towers, f"{where}: duplicate name {name!r}")
        levels = tspec.get("levels")
        _require(
            isinstance(levels, list) and levels and all(isinstance(x, str) for x in levels),
            f"{where}: levels must be a non-empty list of labels",
        )
        for lab in levels:
            _require(lab in by_label, f"{where}: unknown level label {lab!r}")
        maps = tspec.get("maps", [])
        _require(
            isinstance(maps, list) and all(isinstance(m, list) for m in maps),
            f"{where}: maps must be a list of lists",
        )
        try:
            towers[name] = build_tower(
                [by_label[lab].group for lab in levels], maps, name=name
            )
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    return Catalog(source=source, entries=tuple(entries), towers=towers)


def parse_catalog(path):
    """Load and eagerly validate a catalog file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc})") from exc
    return parse_catalog_dict(doc, source=str(path))


# -- the bundled catalog --------------------------------------------------------


def bundled_catalog_text():
    """The packaged data/catalog.json, a plain file beside this module
    (pyproject.toml's package-data ships it); ``build_bundled_dict`` in
    tests/test_catalog.py rebuilds it from the group constructors."""
    path = os.path.join(os.path.dirname(__file__), "data", "catalog.json")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def bundled_catalog():
    try:
        doc = json.loads(bundled_catalog_text())
    except FileNotFoundError as exc:  # packaging bug, not a user error
        raise FinhaarError("bundled catalog data is missing") from exc
    return parse_catalog_dict(doc, source="bundled")
