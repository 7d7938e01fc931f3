"""Deterministic report rendering for the command-line driver.

The payload (tool, catalog, command, parameters, results) is fully
reproducible: rationals are "p/q" strings, subgroups are sorted index
lists, keys are emitted sorted.  Timing never enters the payload.

``Report.to_json`` renders the report in one walk: the encoder writes
plain JSON data as it meets it and hands anything else (a Fraction, a
complex, a Subgroup or a record) to ``jsonable`` at that point, so no
converted copy of the payload is built first.  A list of dicts that
share one key set and hold only exact ints, such as proof-mode pair
certificates, is written from one format string built for that list.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter

from . import __version__
from .groups import Subgroup

TOOL_NAME = "finhaar"


def jsonable(obj):
    """Convert domain objects into JSON-ready structures.  A Fraction or a
    record is told by its class's module and name, so that rendering
    imports none of the modules that define them."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Subgroup):
        return {
            "size": obj.size,
            "members": list(obj.members),
            "index": obj.index(),
        }
    kind = f"{type(obj).__module__}.{type(obj).__qualname__}"
    if kind == "fractions.Fraction":
        # lowest terms, positive denominator: measure.format_rational(obj)
        return f"{obj.numerator}/{obj.denominator}"
    if kind == "finhaar.wordsets.WordSet":
        return {
            "set": obj.spec_string(),
            "size": obj.subset.size,
            "measure": jsonable(obj.measure),
            "members": obj.subset.indices(),
        }
    if kind == "finhaar.wordsets.CosetWitness":
        out = {
            "subgroup": jsonable(obj.subgroup),
            "t": obj.t,
            "coset": list(obj.subgroup.left_coset(obj.t)),
            "valid": obj.validate(),
        }
        if obj.fallback is not None:
            out["fallback"] = obj.fallback
        return out
    if kind == "finhaar.measure.LargenessCertificate":
        return {
            "k": obj.k,
            "base_size": obj.base.size,
            "base_measure": jsonable(obj.base.measure),
            "u_size": obj.u_set.size,
            "u_members": obj.u_set.indices(),
            "valid": obj.validate(),
        }
    if kind == "finhaar.wordsets.ModeResult":
        return {
            "mode": obj.mode,
            "subgroup": jsonable(obj.subgroup),
            "seed_set": list(obj.seed_set),
            "certificates": [
                {"a": a, "b": b, "witness": w} for a, b, w in obj.certificates
            ],
        }
    if kind in ("finhaar.wordsets.ExtractionReport", "finhaar.engel.CommutatorReport"):
        # every field but the group, which the result row names by its label
        out = {k: jsonable(getattr(obj, k)) for k in obj.__match_args__ if k != "group"}
        if kind == "finhaar.engel.CommutatorReport":
            out["holds"] = obj.holds
        return out
    if kind == "finhaar.engel.CentralSeries":
        return {
            "terms": [list(t.members) for t in obj.terms],
            "sizes": [t.size for t in obj.terms],
            "stabilized": obj.stabilized,
            "nilpotency_class": obj.nilpotency_class,
        }
    raise TypeError(f"cannot serialize {type(obj)!r}")


_SCALARS = {
    int: int.__repr__,
    str: _encode_str,
    bool: {True: "true", False: "false"}.get,
    type(None): lambda _: "null",
}


def _int_rows(rows, inner):
    """The items of rows, each a dict with the key set of the first and
    only exact ints as values, written from one format string; None when
    rows are not such a list."""
    first = rows[0]
    if (
        {*map(type, rows)} != {dict}
        or not all(map(first.keys().__eq__, map(dict.keys, rows)))
        or {*map(type, chain.from_iterable(map(dict.values, rows)))} != {int}
    ):
        return None
    keys = sorted(first)
    deeper = inner + "  "
    fields = ("," + deeper).join(_encode_str(k).replace("%", "%%") + ": %d" for k in keys)
    template = "{" + deeper + fields + inner + "}"
    # itemgetter of one key gives the value itself, which % takes as well
    return list(map(template.__mod__, map(itemgetter(*keys), rows)))


def _encode(obj, indent="\n"):
    """``json.dumps(jsonable(obj), indent=2, sort_keys=True)`` in one walk,
    without the pure-Python encoder that any indent selects: a value that
    is not plain JSON data goes through ``jsonable`` where the walk meets
    it, an int-only list is joined at once and an int-only list of dicts
    with one key set is written from one template (``_int_rows``).  A
    dict key that is not a str raises TypeError, where jsonable would
    have made it one.  ``indent`` precedes obj's closing bracket."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [_encode_str(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        if {*map(type, obj)} == {int}:
            items = map(int.__repr__, obj)
        else:
            items = _int_rows(obj, inner) or [_encode(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, (str, int, float)):
        return json.dumps(obj)
    return _encode(jsonable(obj), indent)


class Report:
    # a plain class: @dataclass execs its generated methods at every import
    def __init__(self, command, catalog, parameters, results, timing_ms=0.0):
        self.command = command
        self.catalog = catalog
        self.parameters = parameters
        self.results = results
        self.timing_ms = timing_ms

    def _fields(self):
        return {
            "tool": {"name": TOOL_NAME, "version": __version__},
            "catalog": self.catalog,
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
        }

    def payload(self):
        return jsonable(self._fields())

    def to_json(self):
        """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte, and
        a newline, in one walk over the fields: the payload is not built."""
        return _encode(self._fields()) + "\n"

    def to_csv(self):
        rows = [r if isinstance(r, dict) else {"value": r} for r in self.results]
        keys = sorted({k for row in rows for k in row})
        out = [",".join(keys)]
        for row in rows:
            cells = []
            for k in keys:
                v = jsonable(row.get(k))
                if isinstance(v, (dict, list)):
                    v = json.dumps(v, sort_keys=True, separators=(",", ":"))
                cell = "" if v is None else str(v)
                if any(c in cell for c in ",\"\n\r"):
                    cell = '"' + cell.replace('"', '""') + '"'
                cells.append(cell)
            out.append(",".join(cells))
        return "\n".join(out) + "\n"
