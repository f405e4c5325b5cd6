"""Exact potential theory on weighted graphs over non-Archimedean ordered
fields: effective capacity, Dirichlet problems, Green functions, Hardy
weights, superharmonic certificates and transition-operator series,
computed in exact arithmetic with certified precision.
"""

from .errors import (
    ConvergenceNotCertifiedError,
    DisconnectedSetError,
    FieldParseError,
    HardyConstructionError,
    HorizonExhaustedError,
    IncompatibleProfileError,
    IndeterminateComparisonError,
    NacapError,
    NonpositiveWeightError,
    PoleError,
    PrecisionError,
    PrecisionExhaustedError,
    PreconditionError,
    SpecFileError,
    TermOverflowError,
)
from .field import (
    INF,
    LCElement,
    PrecisionConfig,
    active_precision,
    format_element,
    parse_element,
    precision,
)
from .ratfunc import RFElement
from .graphs import (
    ConstantMeasure,
    ConstantRule,
    ConstantSize,
    DegreeMeasure,
    ExplicitListRule,
    FactorialMonomialRule,
    HalfPowerRule,
    ListMeasure,
    ListSize,
    MonomialRule,
    PeriodicRule,
    PowerSize,
    SphericalProfile,
    Trend,
    WeightedGraph,
    make_explicit,
    make_path,
    make_spherical,
)
from .dirichlet import (
    DirichletSolution,
    dirichlet_inverse_apply,
    effective_capacity,
    energy,
    green_matrix,
    laplacian_apply,
    pairing,
    solve_dp,
    solve_renormalized,
)
from .capacity import (
    CapacitySequence,
    CapacityVerdict,
    capacity_sequence,
    classify,
    monotone_compare,
    nash_williams,
    real_sweep,
)
from .potential import (
    HardyWeight,
    construct_superharmonic,
    energy_difference_bound,
    ground_state_transform_check,
    hardy_construct,
    hardy_verify,
    harnack_constant,
    is_superharmonic,
    sphere_weight_split,
)
from .transition import (
    TransitionContext,
    full_decay_certificate,
    min_mean_cycle_valuation,
    neumann_inverse_check,
    neumann_partial,
    nonvanishing_certificate,
    pi_element,
    restricted_decay_certificate,
    transition_powers,
)
from .specfile import build_graph, load_spec

__version__ = "0.1.0"
