"""wulff-lab: numerical verification of pointwise potential estimates for
the p-Laplace system -div(|grad u|^{p-2} grad u) = -div F.

The package evaluates truncated Wulff and composed Riesz potentials on grid
fields, solves the regularized system for manufactured and Dirichlet data,
computes rearrangement-invariant and oscillation norms, and checks the
resulting inequalities empirically with seeded random families.
"""

from .errors import (
    AlphaOutOfRange,
    BallBelowResolution,
    BallOutsideDomain,
    ConfigError,
    DegenerateGrid,
    DimensionMismatch,
    FinitenessFailure,
    GridTooCoarse,
    InadmissibleParams,
    InsufficientRadii,
    MalformedHeader,
    NoAdmissibleBalls,
    NonConvergence,
    NonFiniteValue,
    NonNegativityViolation,
    ParameterRangeViolation,
    QuadratureFailure,
    QuasiIncreasingViolation,
    ResidualTooLarge,
    SearchRangeExhausted,
    ShapeMismatch,
    WulffLabError,
)
from .field_grid import (
    Ball,
    GridField,
    GridGeometry,
    NestedBalls,
    ShellPlan,
    ball_average,
    ball_cells,
    ball_oscillation,
    encode_field,
    gradient,
    nested_balls,
    read_field,
    shell_plan,
    value_at,
    write_field,
)
from .function_spaces import (
    BalanceReport,
    EnvelopeReport,
    LorentzParams,
    Rearrangement,
    SupScanResult,
    TransformPair,
    WeightFunction,
    YoungFunction,
    balance_report,
    campanato_seminorm,
    lorentz_zygmund_norm,
    luxemburg_norm,
    monotone_envelope,
    morrey_norm,
    potential_young_transforms,
    rearrange,
    weight_power,
    young_dexp,
    young_exp,
    young_power,
    young_zygmund,
)
from .inequality_lab import (
    FAMILY_VERSION,
    GatedPair,
    NormPart,
    PointwiseTerms,
    SampleRecord,
    VerificationReport,
    gate_pair,
    pointwise_terms,
    potential_norm_part,
    random_field,
    verify_domination,
    verify_energy_inequalities,
    verify_hardy,
    verify_oscillation,
    verify_pointwise,
    verify_pointwise_osc,
    verify_potential_norm_maps,
    verify_regularity_exponents,
    verify_telescope,
)
from .plaplace_solver import (
    DirichletProblem,
    SolveResult,
    SystemParams,
    manufacture,
    solve,
    weak_residual,
)
from .potential_engine import (
    PotentialParams,
    RadialQuadrature,
    havin_mazya_at,
    havin_mazya_map,
    max_admissible_radius,
    oscillation_potential,
    riesz_map,
    wulff_potential,
)

__version__ = "0.1.0"
