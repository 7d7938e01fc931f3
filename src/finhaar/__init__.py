"""Exact counting-measure, largeness and Engel-law computations on finite groups."""

__version__ = "0.1.0"

from .catalog import Catalog, CatalogEntry, bundled_catalog, parse_catalog
from .engel import (
    CentralSeries,
    CommutatorReport,
    commutator,
    is_2engel,
    lower_central_series,
    verify_cube_law,
    verify_engel_consequences,
)
from .groups import (
    Automorphism,
    FiniteGroup,
    GroupElement,
    SemidirectExtension,
    Subgroup,
    automorphism_from_map,
    build_perm_group,
    build_table_group,
    cyclic_group,
    dihedral_group,
    generate_subgroup,
    heisenberg_group_3,
    identity_automorphism,
    inner_automorphism,
    inversion_automorphism,
    normal_core,
    quaternion_group,
    semidirect_c3,
    symmetric_group,
)
from .lattice import all_subgroups, normal_subgroups
from .measure import (
    AveragedIntersection,
    GroupFunction,
    LargenessCertificate,
    Subset,
    average_translate_intersection,
    format_rational,
    k_large_certificate,
    l2_distance,
    measure,
    translate_intersection_measure,
    translate_product_mean,
)
from .towers import Tower, build_tower, torsion_measure_sequence
from .wordsets import (
    CosetWitness,
    ExtractionReport,
    WordSet,
    commuting_certificate,
    coset_witness,
    engel_pair_certificate,
    extract_abelian_subgroup,
    extract_engel_subgroup,
    inverted_set,
    splitting_set,
    torsion_set,
)
