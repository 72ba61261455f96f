"""Numerical SU(3) character evaluation and bound certification.

Three independent evaluation routes (Weyl quotient, wall-descent regrouping,
Gelfand-Tsetlin pattern sum) behind one stable dispatcher, the six-term
pointwise envelope with ratio sweeps, Haar Lp norms with the predicted
exponent formulas, and a CLI for the certification runs.
"""

from .cartan import (
    ALPHA0,
    ALPHA1,
    ALPHA2,
    EXTENDED_ROOTS,
    IDENTITY,
    POSITIVE_ROOTS,
    WEYL_GROUP,
    DominantWeight,
    MuStats,
    RegularTriple,
    Root,
    TorusPoint,
    WeylElement,
    dim,
    mu_stats,
    reflection,
    theta_from_alcove,
    wall_coset,
)
from .character import (
    CharValue,
    DescentTerm,
    DescentTermSet,
    GRID_METHOD_NAMES,
    ResourceLimitError,
    SingularInputError,
    WallTooSmallError,
    chi_on_grid,
    chi_rank1,
    chi_schur,
    chi_stable,
    chi_weyl,
    descent_terms,
    multiplicities,
)
from .bounds import (
    EnvelopeValue,
    GridSpec,
    PointwiseBound,
    RatioRecord,
    SweepReport,
    build_grid,
    c_of_H,
    envelope_min,
    pointwise_singular_bound,
    rank1_bound_margin,
    ratio,
    sweep_constant,
)
from .quadrature import (
    ConvergenceError,
    QuadratureResult,
    adaptive_triangle,
    periodic_trapezoid_2d,
)
from .lpnorms import (
    FitResult,
    I_bound,
    I_numeric,
    I_numeric_table,
    LpReport,
    QuadratureSpec,
    ScalingRow,
    family_weight,
    haar_lp_norm,
    predicted_dimension_bound,
    predicted_regular_bound,
    predicted_singular_bound,
    scaling_fit,
)
from .reports import emit_json, emit_report, read_report_csv

__version__ = "0.1.0"
