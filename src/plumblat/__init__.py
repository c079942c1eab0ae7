"""Exact lattice invariants of negative-definite plumbing trees."""

from .errors import (
    BoxTooLarge,
    Disconnected,
    DisconnectedSubgraph,
    DisconnectedSupport,
    EmptyFeasibleRegion,
    ExtremalNotMinimizer,
    GraphParseError,
    GraphStructureError,
    HypothesisViolation,
    InvariantViolation,
    NegativeInput,
    NoSuchEdge,
    NoSuchVertex,
    NotATree,
    NotElliptic,
    NotInSemigroup,
    NotNegativeDefinite,
    NotStar,
    PlumblatError,
)
from .graph import (
    Cycle,
    IntersectionForm,
    ResolutionGraph,
    build_form,
    is_minimal_resolution,
)
from .minimize import (
    ChiMinResult,
    Constraint,
    Extremal,
    SearchStats,
    laufer_zmin,
    min_chi,
    minimizer_join,
    minimizer_meet,
)
from .invariants import (
    GraphClass,
    InvariantReport,
    MaxIdealCycle,
    SingularityClass,
    TwistedH1,
    big_cycle,
    classify,
    e_dimension,
    geometric_genus,
    h1_bundle,
    h1_cycle,
    h1_twisted,
    hilbert_h,
    in_analytic_semigroup,
    invariant_report,
    maximal_ideal_cycle,
    min_chi_lattice,
    min_chi_positive,
    minimally_elliptic_cycle,
)
from .basepoints import (
    BasePointReport,
    Distinctness,
    DistinctnessReport,
    StarCondition,
    VertexBaseData,
    base_point_data,
    base_point_report,
    distinct_base_points_check,
    multiplicity_generic,
    star_condition,
)
from .transforms import BlowUpResult, blow_up_edge, blow_up_generic, restrict_class
from .oracle import brute_min_chi, brute_semigroup, brute_zmin

__version__ = "0.1.0"
