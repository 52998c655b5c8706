"""Lossless (inner) extensions of rational Schur functions.

Given a state-space realization of a p x p symmetric rational Schur
function strictly contractive at infinity, this package computes
2p x 2p inner extensions from Hermitian solutions of an algebraic
Riccati equation, symmetric extensions unitary on the imaginary axis,
and the minimal-degree symmetric inner extension (McMillan degree
n + kappa), with numerical certification of innerness, symmetry and
degree at every step.
"""
from .errors import (
    ConvergenceError,
    DarlingtonError,
    DimensionError,
    NotContractiveError,
    NotSymmetricError,
    PoleError,
    ReductionError,
    SpectralSplitError,
    SubspaceError,
    ValidationError,
)
from .linalg import (
    SvdResult,
    TakagiResult,
    svd_analysis,
    takagi,
)
from .realization import (
    DegreeCertificate,
    Realization,
    compose,
    direct_sum,
    evaluate,
    freqresp,
    frequency_grid,
    kalman_check,
    minimal_realization,
    mobius_precondition,
    probe_points,
    symmetrize,
    symmetry_residual,
    transpose,
)
from .riccati import (
    HatData,
    HSpectrum,
    RiccatiSolution,
    analyze_spectrum,
    build_hamiltonian,
    build_hat,
    riccati_residual,
    solve_extremal,
)
from .extension import (
    ExtensionBlocks,
    QFactor,
    apply_gauge,
    build_extension,
    compare_extensions,
    extension_from_left_factor,
    innerness_residual,
    symmetric_unitary_extension,
)
from .reduction import (
    BlaschkeFactor,
    SynthesisResult,
    find_reduction_vector,
    minimize_symmetric,
    reduce_once,
)
from .scalar import (
    ScalarFactorization,
    compute_mu,
    poly_para,
    scalar_minimal_extension,
    siso_realization,
    spectral_factor_poly,
)
from .realcase import (
    FeasibilityReport,
    SignatureRealization,
    is_real_extension,
    real_symmetric_feasibility,
    signature_realization,
)

__version__ = "0.1.0"
