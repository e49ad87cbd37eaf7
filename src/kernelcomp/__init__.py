"""Desk-scale numerical experiments with reproducing kernels and weighted
composition operators: certified section norms, positivity certificates, and
reproducible batch experiments."""

__version__ = "0.1.0"

from .series import (  # noqa: F401
    BallMap,
    BallPoly,
    DiskPoly,
    ParameterError,
    SelfMapDisk,
    SingularSymbolError,
    blaschke_factor,
    compose,
    h2_norm,
    poly_from_json_dict,
    reciprocal,
    sup_norm_circle,
)
from .operators import (  # noqa: F401
    NormBound,
    SectionMatrix,
    SpaceSpec,
    adjoint_kernel_check,
    adjoint_mult_check,
    comp_matrix,
    grlex_monomials,
    monomial_norms,
    mult_matrix,
    op_norm_lower,
    weighted_comp_matrix,
)
from .kernels import (  # noqa: F401
    NEGATIVE,
    PSD,
    DomainError,
    GramMatrix,
    KernelSpec,
    PointSet,
    PositivityCertificate,
    SamplingError,
    check_psd,
    eval_kernel,
    find_negative_witness,
    gram,
    sample_point_set,
)
from .dbr import (  # noqa: F401
    HbNorm,
    KernelCombo,
    KernelPositivityError,
    OnbApprox,
    combo_to_poly,
    defect_matrix,
    hb_norm_combo,
    hb_norm_defect,
    kernel_section_poly,
    onb_defect,
    summation_partial,
    szego_residual,
    weight_upper_estimate,
)
from .ball import (  # noqa: F401
    BrResult,
    RowCheckResult,
    br_experiment,
    br_map,
    inv_kernel_mult_norm,
    row_mult_norm,
)
from .sampling import (  # noqa: F401
    random_ball_row_contraction,
    random_disk_symbol,
    random_kernel_combo,
)
