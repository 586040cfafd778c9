"""Finite sum tables, relational algebras, their marked complexes, and the
decision procedures connecting them.

The library covers: validation of (pseudo) effect algebra sum tables and of
relational algebras against the monoid, comonoid, and compatibility laws;
the passage from tables to relational algebras and on to edge-marked
2-truncated complexes; recognition of such complexes by unique marked horn
filling; classification (commutativity, cancellativity, orthoalgebra and
orthomodularity flags, braiding) cross-checked against order-theoretic
oracles; first homology and universal groups through Smith normal form;
mapping complexes, hom objects, and the evaluation fibration; exhaustive
enumeration of small structures; and a JSON exchange format with a builtin
catalog, all behind the ``fa`` command line tool.
"""

__version__ = "0.1.0"

from .algebra import (
    CheckResult,
    EffectAlgebraTable,
    InvariantError,
    PseudoEffectAlgebraTable,
    RelFA,
    SumTable,
    ValidationReport,
    VALIDATE_KINDS,
    atoms,
    derived_order,
    height_order,
    relabel_relfa,
    relabel_table,
    supplements,
    to_relfa,
    validate,
)
from .catalog import (
    boolean,
    chain,
    construct_catalog,
    cyclic_group_algebra,
    group_algebra,
    horizontal_sum,
    klein_group_algebra,
    wright_triangle,
    zk_interval,
)
from .complexes import (
    ComplexMorphism,
    LiftingReport,
    SHAPE_NAMES,
    ShapeInclusion,
    TruncatedEpsilonComplex,
    assoc_shape,
    boundary,
    box_inclusion,
    braiding_shape,
    braiding_square,
    check_lifting,
    count_homs,
    hom_maps,
    hom_maps_iter,
    horn,
    make_complex,
    mark_edge_shape,
    marked_horn,
    product,
    shape_from_name,
    simplex,
    subcomplex_on_faces,
    union_subcomplexes,
    vertex_in_edge_shape,
    wedge_shape,
)
from .nerve import (
    OPTIONAL_SHAPES,
    RECOGNITION_SHAPES,
    cross_validate,
    element_endpoints,
    nerve,
    nerve_to_algebra,
    recognize_nerve,
    rotations,
    unit_vertices,
)
from .ortho import (
    ClassificationFlags,
    boxslash_order_oracle,
    boxslash_relation,
    classify,
    coherence_check,
    epsilon_boxslash,
    inverse_analysis,
    is_cancellative,
    is_commutative,
    perp_relation,
    rotate_edge,
)
from .homology import (
    AbelianGroupPresentation,
    chain_matrices,
    full_chain_h1,
    h1_of_complex,
    h1_universal_group,
    universal_group_presentation,
)
from .mapping import (
    FIBRATION_SHAPES,
    HomObject,
    HomObjectComponent,
    MappingComplex,
    PMMorphism,
    conjugate,
    enriched_compose,
    eval_fibration_check,
    find_isomorphism,
    hom_complex_invariants,
    hom_object_ea,
    interval_algebra,
    mapping_complex,
    pm_morphisms,
    verify_mapping_theorem,
)
from .enumerate_small import (
    CANDIDATE_BOUND,
    RELATIONAL_BOUND,
    TABLE_BOUND,
    enumerate_small,
    tables_isomorphic,
    transported_delta,
)
from .structio import (
    StructureError,
    load_structure,
    parse_structure,
    save_structure,
    serialize_structure,
    structure_to_doc,
)
