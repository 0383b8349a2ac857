"""Supercharacter theories of small finite groups, in exact arithmetic.

The package computes character tables (modular method), enumerates all
supercharacter theories of a group, builds their induced theories on
quotients, evaluates the Camina / vanishing-off / VZ structure theory, and
mechanically verifies the full set of structural theorems over a corpus of
groups.  Every value lives in a cyclotomic field with exact rational
coordinates; no predicate is tolerance-based.
"""

from .chartab import (
    CharacterTable,
    character_table_of,
    class_mult_coefficients,
    dixon_character_table,
    ingest_table,
    quotient_character_table,
    validate_table,
)
from .cyclotomic import Cyclotomic, cyclotomic_polynomial, euler_phi
from .errors import (
    CharacterTableError,
    ConsistencyError,
    GroupConstructionError,
    SuperTheoryError,
)
from .groups import (
    ElementPartition,
    GroupTable,
    SubgroupSet,
    build_group,
    catalog_group,
    conjugacy_classes,
    full_subgroup,
    generated_subgroup,
    group_from_table_text,
    normal_subgroups,
    permutation_group,
    quotient_group,
    quotient_image,
    subgroup_product,
    trivial_subgroup,
)
from .reports import Check, CheckReport
from .structure import (
    SeriesResult,
    hypercenter,
    irr_over,
    is_s_abelian,
    lower_series,
    s_center,
    s_commutator,
    s_commutator_full,
    s_nilpotence_class,
    s_normal_subgroups,
    super_kernel,
    upper_series,
)
from .supertheory import (
    SuperCharacter,
    SuperTheory,
    coarsest,
    deflation,
    enumerate_scts,
    finest,
    is_delta_product,
    sct_from_class_partition,
    star_construct,
)
from .vanishing import (
    CaminaVerdict,
    camina_masks,
    gcp_holds,
    is_camina_element,
    is_camina_pair,
    is_camina_triple,
    is_s_gcp,
    is_vz,
    nonvanishing_mask,
    scd_check,
    u_chain,
    u_rel,
    u_theory,
    v_rel,
    v_series,
    v_theory,
    vanish_off,
)
from .verifier import (
    DEFAULT_CATALOG,
    THEOREM_DESCRIPTIONS,
    THEOREM_IDS,
    corpus_json_bytes,
    failing_reports,
    run_corpus,
    run_suite,
)

__version__ = "0.1.0"
