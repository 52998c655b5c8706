"""Refusals of outside input at the public entry points: each raises a
typed DarlingtonError that names what is wrong, never a bare numpy or
LinAlgError.  Every function of the package root has a case here or an
entry in EXEMPT that says why no input of the right type is malformed."""
import inspect

import numpy as np
import pytest
from conftest import coupled_pair_realization

import darlington
from darlington import (
    HatData,
    Realization,
    SignatureRealization,
    apply_gauge,
    build_extension,
    build_hat,
    compare_extensions,
    compose,
    compute_mu,
    extension_from_left_factor,
    freqresp,
    is_real_extension,
    linalg,
    minimize_symmetric,
    mobius_precondition,
    riccati_residual,
    scalar_minimal_extension,
    signature_realization,
    siso_realization,
    solve_extremal,
    spectral_factor_poly,
    symmetric_unitary_extension,
    symmetrize,
)
from darlington.errors import (
    DimensionError,
    NotContractiveError,
    NotSymmetricError,
    ValidationError,
)
from darlington.reduction import find_reduction_vector
from darlington.riccati import analyze_spectrum


def extension(R):
    pmin, _ = solve_extremal(build_hat(R))
    return build_extension(R, pmin)


def lag(d=0.0):
    return Realization([[-1.0]], [[1.0]], [[0.5]], [[d]])


# (id, the function that refuses, the call, the error, what it names)
CASES = [
    ("mobius-not-contractive", mobius_precondition,
     lambda: mobius_precondition(siso_realization([1.0], [1.0, 1.0]), 0.0),
     ValidationError, "not strictly contractive at i\\*0"),
    ("symmetrize-non-square", symmetrize,
     lambda: symmetrize(Realization([[-1.0]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]])),
     NotSymmetricError, "must be square"),
    ("compose-mismatch", compose, lambda: compose(lag(), coupled_pair_realization(2.0)),
     DimensionError, "cannot compose 1x1 with 2x2"),
    ("freqresp-nan-point", freqresp, lambda: freqresp(lag(), [1.0, np.nan]),
     ValidationError, "evaluation point 1 is nan"),
    ("hat-not-contractive", build_hat, lambda: build_hat(lag(1.0)),
     NotContractiveError, "not strictly contractive at infinity"),
    ("residual-3x3", riccati_residual,
     lambda: riccati_residual(build_hat(coupled_pair_realization(2.0)), np.eye(3)),
     DimensionError, "P must be 2x2"),
    ("extremal-nan-hat", solve_extremal,
     lambda: solve_extremal(HatData(np.full((1, 1), np.nan), np.eye(1), np.eye(1))),
     ValidationError, "H contains non-finite entries"),
    ("spectrum-non-square", analyze_spectrum, lambda: analyze_spectrum(np.zeros((2, 3))),
     DimensionError, "H must be square"),
    ("spectrum-non-finite", analyze_spectrum,
     lambda: analyze_spectrum(np.full((2, 2), np.nan)),
     ValidationError, "H contains non-finite entries"),
    ("spectrum-odd-order", analyze_spectrum, lambda: analyze_spectrum(np.eye(3)),
     DimensionError, "H must have even order"),
    ("extension-nan-p", build_extension, lambda: build_extension(lag(), [[np.nan]]),
     ValidationError, "P must be finite"),
    ("left-factor-other-dynamics", extension_from_left_factor,
     lambda: extension_from_left_factor(lag(), Realization([[-2.0]], [[1.0]], [[0.5]], [[1.0]])),
     ValidationError, "share the \\(C, A\\) pair"),
    ("gauge-3x3", apply_gauge, lambda: apply_gauge(extension(coupled_pair_realization(2.0)),
                                                   np.eye(3), np.eye(2)),
     DimensionError, "U1 must be 2x2"),
    ("compare-different-p", compare_extensions,
     lambda: compare_extensions(extension(lag()), extension(coupled_pair_realization(2.0))),
     DimensionError, "different block sizes"),
    ("symmetric-extension-degree", symmetric_unitary_extension,
     lambda: symmetric_unitary_extension(extension(coupled_pair_realization(2.0)), 5),
     ValidationError, "degree of Q must be in 0..2, got 5"),
    ("symmetric-extension-fractional-degree", symmetric_unitary_extension,
     lambda: symmetric_unitary_extension(extension(coupled_pair_realization(2.0)), 0.5),
     ValidationError, "degree of Q must be an integer, got 0.5"),
    ("minimize-non-square", minimize_symmetric,
     lambda: minimize_symmetric(Realization([[-1.0]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]])),
     NotSymmetricError, "stage 'symmetrize': .*must be square"),
    ("takagi-3d", linalg.takagi, lambda: linalg.takagi(np.zeros((2, 2, 2))),
     DimensionError, "2-dimensional"),
    ("takagi-non-finite", linalg.takagi, lambda: linalg.takagi([[np.nan, 0.0], [0.0, 1.0]]),
     ValidationError, "non-finite"),
    ("takagi-non-square", linalg.takagi, lambda: linalg.takagi(np.zeros((2, 3))),
     DimensionError, "must be square"),
    ("sqrt-negative", linalg.hermitian_sqrt, lambda: linalg.hermitian_sqrt(-np.eye(2)),
     ValidationError, "not PSD"),
    ("signature-zero-in-j", SignatureRealization, lambda: SignatureRealization(lag(), [0.0]),
     ValidationError, "J must be a \\+-1 vector"),
    ("signature-complex", signature_realization,
     lambda: signature_realization(Realization([[-1.0]], [[1j]], [[1.0]], [[0.0]])),
     ValidationError, "B is not real"),
    ("real-extension-nan-p", is_real_extension,
     lambda: is_real_extension(np.full((1, 1), np.nan), lag()),
     ValidationError, "P must be finite"),
    ("support-too-large", find_reduction_vector,
     lambda: find_reduction_vector(minimize_symmetric(coupled_pair_realization(2.0)).extension,
                                   [1.0], support=5),
     ValidationError, "support must be in 1..4"),
    ("mu-zero-p1", compute_mu, lambda: compute_mu([0.0], [1.0, 1.0]),
     ValidationError, "p1 must not be identically zero"),
    ("mu-zero-q", compute_mu, lambda: compute_mu([1.0], [0.0]),
     ValidationError, "q must not be identically zero"),
    ("mu-improper", compute_mu, lambda: compute_mu([1.0, 0.5, 0.1], [1.0, 1.0]),
     ValidationError, "deg p1 must not exceed deg q"),
    ("mu-vanishes", compute_mu, lambda: compute_mu([1.0, -1.0], [1.0, 1.0]),
     ValidationError, "mu vanishes identically"),
    ("factor-not-para-symmetric", spectral_factor_poly, lambda: spectral_factor_poly([1.0, 1.0]),
     ValidationError, "not para-symmetric"),
    ("factor-non-finite", spectral_factor_poly,
     lambda: spectral_factor_poly([np.nan, 0.0, -1.0]),
     ValidationError, "m has non-finite coefficients"),
    ("scalar-improper", scalar_minimal_extension,
     lambda: scalar_minimal_extension([1.0, 1.0, 1.0], [1.0, 1.0]),
     ValidationError, "deg p1 must not exceed deg q"),
    ("siso-improper", siso_realization, lambda: siso_realization([1.0, 1.0, 1.0], [1.0, 1.0]),
     ValidationError, "improper"),
    ("siso-zero-denominator", siso_realization, lambda: siso_realization([1.0], [0.0]),
     ValidationError, "denominator must not be identically zero"),
]

# root functions without a case: every input of the types they take is valid
EXEMPT = {
    "direct_sum": "accepts any two Realizations",
    "minimal_realization": "accepts any Realization",
    "real_symmetric_feasibility": "takes a SignatureRealization, validated when it is built",
}


# a numerical warning on the way to the refusal would be a bare exception
# under -W error::RuntimeWarning
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, error, named", [c[2:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_outside_input_is_refused_by_type(call, error, named):
    with pytest.raises(error, match=named):
        call()


def test_every_root_function_has_a_case_or_an_exemption():
    root = {name for name, value in vars(darlington).items() if inspect.isfunction(value)}
    covered = {case[1] for case in CASES}
    missing = sorted(name for name in root - EXEMPT.keys()
                     if getattr(darlington, name) not in covered)
    assert missing == []
    assert EXEMPT.keys() <= root
