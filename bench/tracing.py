"""Per-layer spans for the traced run, installed from outside finhaar.

`Tracer.install()` wraps the public functions of every finhaar module
and rebinds each wrapper wherever a module holds the original, so that
names imported with ``from .groups import generate_subgroup`` (lattice,
wordsets, engel) and ``from .lattice import all_subgroups`` (wordsets)
are traced too.  Per-element arithmetic (FiniteGroup.mul, inv,
GroupElement) is left alone: a wrapper there would cost more than the
work it measures.

Each span is (name, start, end, parent, pass, ref) and is kept in
memory; `write()` dumps them as JSON lines when the run ends.  ``ref``
is the time the reference sampler (`refloop.Sampler`) took inside the
span, which is left out of it.  A layer's self time is its span minus
its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# metric prefix -> (module, attribute) pairs; "Class.method" patches a method
LAYERS = {
    "catalog.parse": [
        ("catalog", "parse_catalog_dict"),
        ("catalog", "parse_catalog"),
        ("catalog", "bundled_catalog"),
        ("catalog", "bundled_catalog_text"),
    ],
    "groups.perm_build": [("groups", "build_perm_group"), ("groups", "symmetric_group")],
    "groups.table_build": [
        ("groups", "build_table_group"),
        ("groups", "cyclic_group"),
        ("groups", "dihedral_group"),
        ("groups", "quaternion_group"),
        ("groups", "heisenberg_group_3"),
    ],
    "groups.aut_build": [
        ("groups", "automorphism_from_map"),
        ("groups", "identity_automorphism"),
        ("groups", "inversion_automorphism"),
        ("groups", "inner_automorphism"),
    ],
    "groups.semidirect": [("groups", "semidirect_c3")],
    "groups.closure": [("groups", "generate_subgroup")],
    "groups.normal_core": [("groups", "normal_core")],
    "groups.normality": [("groups", "Subgroup.is_normal")],
    "lattice.enumerate": [
        ("lattice", "all_subgroups"),
        ("lattice", "normal_subgroups"),
        ("lattice", "maximal_subgroup_satisfying"),
    ],
    "measure.translate": [("measure", "Subset.left_translate")],
    "measure.average": [
        ("measure", "average_translate_intersection"),
        ("measure", "translate_intersection_measure"),
    ],
    "measure.klarge": [("measure", "k_large_certificate")],
    "measure.certificate_check": [("measure", "LargenessCertificate.validate")],
    "measure.product_mean": [("measure", "translate_product_mean")],
    "wordsets.word_set": [
        ("wordsets", "torsion_set"),
        ("wordsets", "inverted_set"),
        ("wordsets", "splitting_set"),
    ],
    "wordsets.witness": [("wordsets", "coset_witness")],
    "wordsets.pair_cert": [
        ("wordsets", "commuting_certificate"),
        ("wordsets", "engel_pair_certificate"),
    ],
    "wordsets.extract": [
        ("wordsets", "extract_abelian_subgroup"),
        ("wordsets", "extract_engel_subgroup"),
    ],
    "engel.two_engel": [("engel", "is_2engel")],
    "engel.lcs": [("engel", "lower_central_series")],
    "engel.cube_law": [("engel", "verify_cube_law")],
    "engel.consequences": [("engel", "verify_engel_consequences")],
    "towers.build": [("towers", "build_tower")],
    "reports.render": [
        ("reports", "jsonable"),
        ("reports", "Report.payload"),
        ("reports", "Report.to_json"),
        ("reports", "Report.to_csv"),
    ],
    "cli.self": [("cli", "main"), ("cli", "run_command")],
}

COUNT_METRICS = [
    "groups.closure_calls",
    "lattice.subgroups_found",
    "measure.translate_calls",
    "wordsets.pair_cert_calls",
    "engel.pairs_checked",
]

_COUNTED_CALLS = {
    "groups.closure": "groups.closure_calls",
    "measure.translate": "measure.translate_calls",
    "wordsets.pair_cert": "wordsets.pair_cert_calls",
}
_TRIPLE_REPORTERS = {"engel.two_engel", "engel.cube_law", "engel.consequences"}


class Tracer:
    """Records spans only while ``pass_index`` is not None."""

    def __init__(self, sampler):
        self.spans = []  # [name, start, end, parent, pass, ref]
        self._sampler = sampler
        self.pass_index = None
        self.counts = defaultdict(int)  # metric -> count over the timed passes
        self._stack = []  # (span index, original function)
        self._origin = time.perf_counter()
        self._installed = []  # (owner, attribute, original)

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "finhaar" or name.startswith("finhaar.")
        }
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = modules.get(f"finhaar.{module_name}")
                if module is None:
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._installed.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(layer, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original)
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._installed.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, layer, fn):
        tracer = self
        clock = time.perf_counter
        sampler = self._sampler

        def traced(*args, **kwargs):
            stack = tracer._stack
            # direct recursion (reports.jsonable) stays inside one span
            if tracer.pass_index is None or (stack and stack[-1][1] is fn):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            record = [layer, 0.0, 0.0, parent, tracer.pass_index, 0.0]
            stack.append((len(tracer.spans), fn))
            tracer.spans.append(record)
            fresh_lattice = layer == "lattice.enumerate" and (
                getattr(args[0], "_subgroups", None) is None
            )
            sampled = sampler.total
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                record[5] = sampler.total - sampled
                stack.pop()
            tracer._count(layer, fn, record, result, fresh_lattice)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _count(self, layer, fn, record, result, fresh_lattice):
        counter = _COUNTED_CALLS.get(layer)
        if counter:
            self.counts[counter] += 1
            if layer == "groups.closure" and record[3] >= 0:
                if self.spans[record[3]][0] == "lattice.enumerate":
                    self.counts["lattice.closure_calls"] += 1
        elif layer in _TRIPLE_REPORTERS:
            self.counts["engel.pairs_checked"] += result.triples_checked
        elif fresh_lattice and fn.__name__ == "all_subgroups":
            self.counts["lattice.subgroups_found"] += len(result)

    def per_pass_metrics(self, passes):
        """Every per-layer metric over the ``passes`` timed passes: self
        times and counts per pass, and the lattice closure yield."""
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        for _name, start, end, parent, _p, ref in self.spans:
            if parent >= 0:
                child_time[parent] += end - start - ref
        for i, (name, start, end, _parent, _p, ref) in enumerate(self.spans):
            self_time[name] += end - start - ref - child_time[i]
        out = {}
        for layer in LAYERS:
            out[f"{layer}_ms"] = (self_time[layer] * 1000.0 / passes, "ms")
        for metric in COUNT_METRICS:
            out[metric] = (self.counts[metric] / passes, "count")
        closures = self.counts["lattice.closure_calls"]
        found = self.counts["lattice.subgroups_found"]
        out["lattice.closure_yield"] = (found / closures if closures else 0.0, "ratio")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, p, ref in self.spans:
                span = {
                    "name": name,
                    "start": start - self._origin,
                    "end": end - self._origin,
                    "parent": parent,
                    "pass": p,
                    "ref": ref,
                }
                fh.write(json.dumps(span) + "\n")
