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
closure may hold at most that many elements, or the catalog is rejected;
with no generators, its degree may be at most the cap.
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


def _parse_group(spec, label):
    """The CatalogEntry of one object of ``groups``.  A ParseError or
    ValueError names the fault within the object; the caller adds where
    the object is, so no message is formatted unless a check fails."""
    kind = spec.get("kind")
    if kind == "table":
        table = spec.get("table")
        if not (isinstance(table, list) and table):
            raise ParseError("missing table")
        if not all(isinstance(r, list) for r in table):
            raise ParseError("table rows must be lists")
        group = build_table_group(table, label=label)
    elif kind == "perm":
        degree = spec.get("degree")
        gens = spec.get("generators")
        if not (type(degree) is int and degree >= 1):
            raise ParseError("bad degree")
        if not isinstance(gens, list):
            raise ParseError("missing generators")
        if not all(isinstance(g, list) for g in gens):
            raise ParseError("generators must be lists")
        cap = spec.get("cap", DEFAULT_CLOSURE_CAP)
        if not (type(cap) is int and cap >= 1):
            raise ParseError("cap must be a positive integer")
        group = build_perm_group(degree, gens, cap=cap, label=label)
    else:
        raise ParseError("kind must be 'table' or 'perm'")
    auts = {}
    aspecs = spec.get("automorphisms", [])
    if not isinstance(aspecs, list):
        raise ParseError("automorphisms must be a list")
    for apos, aspec in enumerate(aspecs):
        if not isinstance(aspec, dict):
            raise ParseError(f"automorphisms[{apos}]: must be an object")
        name = aspec.get("name")
        if not (isinstance(name, str) and name):
            raise ParseError(f"automorphisms[{apos}]: missing name")
        if name in auts:
            raise ParseError(f"automorphisms[{apos}]: duplicate name {name!r}")
        if not isinstance(aspec.get("map"), list):
            raise ParseError(f"automorphisms[{apos}]: missing map")
        aut = automorphism_from_map(group, aspec["map"], name=name)
        declared = aspec.get("order")
        if not (declared is None or (type(declared) is int and declared == aut.order)):
            raise ParseError(
                f"automorphisms[{apos}]: declared order {declared!r} but computed {aut.order}"
            )
        auts[name] = aut
    return CatalogEntry(label=label, group=group, automorphisms=auts)


def parse_catalog_dict(doc, source="<dict>"):
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: top level must be an object")
    if "groups" not in doc:
        raise ParseError(f"{source}: missing 'groups'")
    if not isinstance(doc["groups"], list):
        raise ParseError(f"{source}: 'groups' must be a list")
    entries = []
    seen = set()
    for pos, spec in enumerate(doc["groups"]):
        try:
            if not isinstance(spec, dict):
                raise ParseError("entry must be an object")
            label = spec.get("label")
            if not (isinstance(label, str) and label):
                raise ParseError("missing label")
            if label in seen:
                raise ParseError(f"duplicate label {label!r}")
            seen.add(label)
            entries.append(_parse_group(spec, label))
        except (ParseError, ValueError) as exc:
            raise ParseError(f"{source}: groups[{pos}]: {exc}") from exc
    entries.sort(key=lambda e: e.label)
    by_label = {e.label: e for e in entries}
    towers = {}
    tspecs = doc.get("towers", [])
    if not isinstance(tspecs, list):
        raise ParseError(f"{source}: 'towers' must be a list")
    for pos, tspec in enumerate(tspecs):
        try:
            tower = _parse_tower(tspec, by_label, towers)
        except (ParseError, ValueError) as exc:
            raise ParseError(f"{source}: towers[{pos}]: {exc}") from exc
        towers[tower.name] = tower
    return Catalog(source=source, entries=tuple(entries), towers=towers)


def _parse_tower(tspec, by_label, towers):
    """The Tower of one object of ``towers``, whose names ``towers`` holds
    so far; errors as in ``_parse_group``."""
    if not isinstance(tspec, dict):
        raise ParseError("must be an object")
    name = tspec.get("name")
    if not (isinstance(name, str) and name):
        raise ParseError("missing name")
    if name in towers:
        raise ParseError(f"duplicate name {name!r}")
    levels = tspec.get("levels")
    if not (isinstance(levels, list) and levels and all(isinstance(x, str) for x in levels)):
        raise ParseError("levels must be a non-empty list of labels")
    for lab in levels:
        if lab not in by_label:
            raise ParseError(f"unknown level label {lab!r}")
    maps = tspec.get("maps", [])
    if not (isinstance(maps, list) and all(isinstance(m, list) for m in maps)):
        raise ParseError("maps must be a list of lists")
    return build_tower([by_label[lab].group for lab in levels], maps, name=name)


def parse_catalog(path):
    """Load and eagerly validate a catalog file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:  # a ValueError, so it comes first
        raise ParseError(f"{path}: not UTF-8 ({exc})") from exc
    except RecursionError as exc:  # json recurses once per open bracket
        raise ParseError(f"{path}: invalid JSON (nested too deeply)") from exc
    except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
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
