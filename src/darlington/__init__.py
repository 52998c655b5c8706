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
from .realization import (
    DegreeCertificate,
    Realization,
    compose,
    direct_sum,
    freqresp,
    minimal_realization,
    mobius_precondition,
    symmetrize,
)
from .riccati import (
    HatData,
    RiccatiSolution,
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
    symmetric_unitary_extension,
)
from .reduction import (
    SynthesisResult,
    minimize_symmetric,
)
from .scalar import (
    ScalarFactorization,
    compute_mu,
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
