"""Minimum excitation design and direct data-driven property identification
for unknown discrete linear systems x+ = A x + B u.

The package decides, over exact rational arithmetic, whether a set of
one-step excitations can identify a property of interest, synthesizes the
smallest such set, identifies the property directly from input and
feedback data, and constructs certifying counterexample pairs when a plan
is insufficient.
"""

from .errors import (
    DimensionMismatch,
    GainNotApplicable,
    InconsistentDataset,
    InternalFault,
    NotSufficientlyRich,
    SectionIsRich,
    SpecValidationError,
)
from .ratmat import (
    EIG_MARGIN,
    Mat,
    SpectralInfo,
    Subspace,
    contains,
    format_matrix,
    format_rational,
    image,
    invert,
    kernel,
    parse_matrix,
    rank,
    solve_right,
    spectral_radius_info,
)
from .properties import (
    And,
    BoundedSet,
    Controllability,
    Dims,
    Identifiability,
    Leaf,
    LinearConstraint,
    LinearStructure,
    Mode,
    Or,
    Problem,
    SetExpr,
    Sparsity,
    Stabilizability,
    SystemPair,
    build_constraint_matrix,
    evaluate_expr,
    format_expr,
    has_property,
    is_controllable,
    is_stabilizable,
    minimum_subspace,
    parse_expr,
    sparsity_columns,
    validate_property,
    vec,
    vec_inv,
)
from .richness import (
    Dataset,
    InputSection,
    consistent_set_contains,
    design_minimum_input,
    is_sufficiently_rich,
    missing_directions,
    split_stacked,
)
from .identify import (
    GainResult,
    NotIdentifiable,
    SparsityReport,
    StructureReport,
    Verdict,
    counterexample_for,
    gain_from_data,
    identify_controllability,
    identify_linear_structure,
    identify_sparsity,
    identify_stabilizability,
    recover_model,
)
from .adversary import (
    CounterexamplePair,
    algorithm1_signs,
    algorithm2_signs,
    counterexample_controllability,
    counterexample_stabilizability,
    counterexample_structure,
    distinct_consistent_pair,
    find_annihilator,
)
from .harness import (
    EfficiencyRow,
    RunReport,
    Scenario,
    efficiency_csv,
    efficiency_text,
    excite,
    report_efficiency,
    run,
)

__version__ = "0.1.0"
