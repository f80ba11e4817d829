"""Support-function toolkit for curvature-measure integral functionals.

Smooth convex bodies are carried as support functions on the unit sphere;
the k-th curvature-measure density is an elementary symmetric function of
the tangential Hessian form, and the integral functionals built from it are
probed here for monotonicity under inclusion and Brunn-Minkowski-type power
concavity — deciding the pointwise eigenvalue-sum condition that governs
both, constructing counterexamples when it fails, and verifying the
flat-body/cylinder splitting that reduces the top-order case to the circle.
"""

__version__ = "0.1.0"

from .bodies import (
    Certificate,
    SupportBody,
    ball,
    certify_c2plus,
    combine,
    ellipsoid,
    perturb,
)
from .conditions import (
    ConditionReport,
    EigenSumScan,
    check_mi,
    eigen_sum,
)
from .errors import (
    ConstructionError,
    DomainError,
    EvaluationError,
    KernelError,
    SearchError,
)
from .experiments import (
    CounterexampleReport,
    HuntReport,
    MonotonicityReport,
    SegmentProbe,
    bm_segment_test,
    bm_violation_hunt,
    corpus,
    monotonicity_counterexample,
    monotonicity_test,
    nested_pairs,
    theorem_roundtrip,
)
from .functionals import (
    ConcavityReport,
    concavity_criterion,
    first_variation,
    functional_difference,
    functional_segment,
    functional_value,
    mixed_area_integral,
    mixed_volume_smooth,
    second_variation,
)
from .identities import (
    IbpReport,
    ibp_second_order_residual,
    ibp_symmetry_residual,
)
from .mollify import (
    MollifierKernel,
    RotationAverage,
    mollify,
    mollify_preserves_monotone,
    sup_distance,
)
from .reduction import (
    FlattenedBody,
    cylinder,
    cylinder_lemma_residual,
    dimension_reduction_limit,
    flattened_ellipse,
    needle,
    segment_factor_identity,
)
from .sphere import (
    QuadratureGrid,
    SphericalFunction,
    bump,
    combination,
    constant,
    latitude_grid,
    linear,
    make_grid,
    polynomial,
    q_batch,
    q_matrix,
    quadratic_support,
)
from .symfun import (
    cofactor,
    contract2,
    elem_sym,
    elem_sym_batch,
    elem_sym_from_eigs,
    elem_sym_kronecker,
    mixed_discriminant_batch,
    trace_pair,
)
