"""Deficiency-index certificates for Schrodinger operators whose potentials
carry countably many uniformly separated singularities.

The total defect of such an operator is the extended-natural sum of the
defects of the localized single-singularity pieces; this package computes
the per-piece values and assembles machine-readable certificates of
essential self-adjointness.  Point and custom pieces are decided by the
closed-form channel rule, and their entries hold closed-form channel
classes only; shells are decided by the numeric limit-point /
limit-circle oracle, and their entries hold each side's numeric class and
fitted exponent only.  Agreement between the closed form and the oracle
is checked by the acceptance suite, not per certificate.
"""

__version__ = "0.1.0"

from .core import (
    Background,
    CustomRadial,
    DefectRecord,
    INF,
    InverseSquarePoint,
    LatticeGenerator,
    PlacedSingularity,
    PowerProfile,
    SampledProfile,
    Shell,
    SingularityConfig,
    ValidatedConfig,
    add_defects,
    dump_config,
    load_config,
    validate_config,
)
from .weyl import (
    DEFAULT_SETTINGS,
    EndpointClass,
    LIMIT_CIRCLE,
    LIMIT_POINT,
    RadialProblem,
    WeylDiagnostics,
    WeylSettings,
    classify_endpoint_detailed,
    combine_endpoint_counts,
    count_L2_solutions,
    frobenius_classify_inverse_square,
    perturbation_stability_check,
    weyl_classify_numeric,
)
from .channels import (
    channel_spectrum,
    effective_coupling,
    harmonic_multiplicity,
    point_defect,
    shell_defect,
    zero_defect_threshold,
)
from .decouple import (
    DefectCertificate,
    LocalizedConfig,
    aggregate_defect,
    essential_selfadjointness,
    localize,
)
from .bounds import (
    PartitionData,
    RelativeBound,
    commutator_to_iii,
    defect_invariance_gate,
    hardy_form_bound,
    loc_unif_Lp_check,
    morgan_form_bound,
    morgan_operator_bound,
    operator_commutator_gate,
)
from .partition import (
    Ball,
    ComplementOfBall,
    CutoffFamily,
    CutoffFunction,
    HalfSpace,
    UnionOfBalls,
    build_cutoff,
    build_family,
    partition_constants,
    verify_cutoff,
)
from .support import (
    GridFunction,
    check_support_laws,
    essential_support,
    plus_set,
)
