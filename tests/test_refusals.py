"""Refusals of outside input at the public entry points: each raises a
typed DarlingtonError that names what is wrong, never a bare numpy or
LinAlgError."""
import numpy as np
import pytest
from conftest import coupled_pair_realization

from darlington import (
    Realization,
    SignatureRealization,
    apply_gauge,
    build_extension,
    build_hat,
    compare_extensions,
    compose,
    compute_mu,
    find_reduction_vector,
    linalg,
    minimize_symmetric,
    mobius_precondition,
    solve_extremal,
    spectral_factor_poly,
    symmetrize,
)
from darlington.errors import DimensionError, NotSymmetricError, ValidationError
from darlington.scalar import siso_realization


def extension(R):
    pmin, _ = solve_extremal(build_hat(R))
    return build_extension(R, pmin)


def lag(d=0.0):
    return Realization([[-1.0]], [[1.0]], [[0.5]], [[d]])


CASES = [
    ("mobius-not-contractive", lambda: mobius_precondition(siso_realization([1.0], [1.0, 1.0]), 0.0),
     ValidationError, "not strictly contractive at i\\*0"),
    ("symmetrize-non-square",
     lambda: symmetrize(Realization([[-1.0]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]])),
     NotSymmetricError, "must be square"),
    ("compose-mismatch", lambda: compose(lag(), coupled_pair_realization(2.0)),
     DimensionError, "cannot compose 1x1 with 2x2"),
    ("gauge-3x3", lambda: apply_gauge(extension(coupled_pair_realization(2.0)),
                                      np.eye(3), np.eye(2)),
     DimensionError, "U1 must be 2x2"),
    ("compare-different-p", lambda: compare_extensions(extension(lag()),
                                                       extension(coupled_pair_realization(2.0))),
     DimensionError, "different block sizes"),
    ("takagi-3d", lambda: linalg.takagi(np.zeros((2, 2, 2))),
     DimensionError, "2-dimensional"),
    ("takagi-non-finite", lambda: linalg.takagi([[np.nan, 0.0], [0.0, 1.0]]),
     ValidationError, "non-finite"),
    ("takagi-non-square", lambda: linalg.takagi(np.zeros((2, 3))),
     DimensionError, "must be square"),
    ("sqrt-negative", lambda: linalg.hermitian_sqrt(-np.eye(2)),
     ValidationError, "not PSD"),
    ("signature-zero-in-j", lambda: SignatureRealization(lag(), [0.0]),
     ValidationError, "J must be a \\+-1 vector"),
    ("support-too-large",
     lambda: find_reduction_vector(minimize_symmetric(coupled_pair_realization(2.0)).extension,
                                   [1.0], support=5),
     ValidationError, "support must be in 1..4"),
    ("mu-zero-p1", lambda: compute_mu([0.0], [1.0, 1.0]),
     ValidationError, "identically zero"),
    ("mu-improper", lambda: compute_mu([1.0, 0.5, 0.1], [1.0, 1.0]),
     ValidationError, "deg p1 must not exceed deg q"),
    ("mu-vanishes", lambda: compute_mu([1.0, -1.0], [1.0, 1.0]),
     ValidationError, "mu vanishes identically"),
    ("factor-not-para-symmetric", lambda: spectral_factor_poly([1.0, 1.0]),
     ValidationError, "not para-symmetric"),
    ("factor-non-finite", lambda: spectral_factor_poly([np.nan, 0.0, -1.0]),
     ValidationError, "m has non-finite coefficients"),
    ("siso-improper", lambda: siso_realization([1.0, 1.0, 1.0], [1.0, 1.0]),
     ValidationError, "improper"),
]


@pytest.mark.parametrize("call, error, named", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_outside_input_is_refused_by_type(call, error, named):
    with pytest.raises(error, match=named):
        call()
