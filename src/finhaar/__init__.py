"""Exact counting-measure, largeness and Engel-law computations on finite groups.

``import finhaar`` loads no library module: each public name is imported
from its module when it is first read, and then bound here, so a command
compiles and runs only the modules it uses.
"""

import sys

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "catalog": ("Catalog", "CatalogEntry", "bundled_catalog", "parse_catalog"),
    "engel": (
        "CentralSeries",
        "CommutatorReport",
        "commutator",
        "is_2engel",
        "lower_central_series",
        "verify_cube_law",
        "verify_engel_consequences",
    ),
    "families": (
        "SemidirectExtension",
        "cyclic_group",
        "dihedral_group",
        "heisenberg_group_3",
        "quaternion_group",
        "semidirect_c3",
        "symmetric_group",
    ),
    "groups": (
        "Automorphism",
        "FiniteGroup",
        "GroupElement",
        "Subgroup",
        "automorphism_from_map",
        "build_perm_group",
        "build_table_group",
        "generate_subgroup",
        "identity_automorphism",
        "inner_automorphism",
        "inversion_automorphism",
    ),
    "lattice": ("all_subgroups", "normal_core", "normal_subgroups"),
    "measure": (
        "AveragedIntersection",
        "GroupFunction",
        "LargenessCertificate",
        "Subset",
        "average_translate_intersection",
        "format_rational",
        "k_large_certificate",
        "l2_distance",
        "measure",
        "translate_intersection_measure",
        "translate_product_mean",
    ),
    "towers": ("Tower", "build_tower", "torsion_measure_sequence"),
    "wordsets": (
        "CosetWitness",
        "ExtractionReport",
        "WordSet",
        "commuting_certificate",
        "coset_witness",
        "engel_pair_certificate",
        "extract_abelian_subgroup",
        "extract_engel_subgroup",
        "inverted_set",
        "splitting_set",
        "torsion_set",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# the modules read as attributes of the package (``finhaar.groups``);
# ``finhaar.measure`` is the public function of that name
_SUBMODULES = frozenset(_EXPORTS) - {"measure"} | {"errors"}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """A public name, imported from its module and bound here, or one of
    ``_SUBMODULES`` (``finhaar.errors.SearchBudgetExceeded``), imported."""
    public = name in _MODULE_OF
    if not public and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_MODULE_OF[name] if public else name}"
    __import__(module)
    value = sys.modules[module]
    if public:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


class _Package(type(sys)):
    """The package's module type.  Importing the submodule ``finhaar.measure``
    binds it as the package attribute ``measure``, the public function of
    that name; that one binding is dropped, in any import order."""

    def __setattr__(self, name, value):
        if name != "measure" or not isinstance(value, type(sys)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
