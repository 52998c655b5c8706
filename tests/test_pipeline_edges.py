"""Edge paths of the synthesis pipeline: error labels, preconditioning
with a nonzero anchor frequency, wide blocks, larger instances."""
import numpy as np
import pytest

from darlington import (
    Realization,
    analyze_spectrum,
    build_extension,
    build_hamiltonian,
    build_hat,
    evaluate,
    extension_from_left_factor,
    minimal_realization,
    minimize_symmetric,
    mobius_precondition,
    solve_extremal,
    symmetrize,
)
from darlington.errors import ReductionError, SpectralSplitError, ValidationError


def test_minimize_rejects_nonminimal_with_stage_label():
    R = Realization(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]),
                    np.array([[1.0, 0.0]]), np.array([[0.0]]))
    with pytest.raises(ValidationError, match="symmetrize"):
        minimize_symmetric(R)


def test_analyze_spectrum_flags_non_schur():
    # f(0) = 2.1 > 1: not a Schur function, so the Hamiltonian has
    # simple imaginary-axis eigenvalues and the split must refuse
    R = Realization(np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]),
                    np.array([[1.0, 2.0]]), np.array([[0.1]]))
    Rs = symmetrize(R)
    with pytest.raises(SpectralSplitError, match="odd multiplicity"):
        analyze_spectrum(build_hamiltonian(build_hat(Rs)))


def test_mobius_nonzero_anchor():
    # S = (s^2+s+1)/(s+1)^2 touches modulus one at 0 and infinity; the
    # anchor w0 = 1 moves a strictly contractive point to infinity
    from darlington.scalar import siso_realization
    R, _ = minimal_realization(siso_realization([1.0, 1.0, 1.0], [1.0, 2.0, 1.0]))
    out = mobius_precondition(R, 1.0)
    assert np.linalg.norm(out.d, 2) < 1.0 - 1e-9
    for s in (0.6 + 0.2j, 2.0 - 1.0j):
        assert np.allclose(evaluate(out, s), evaluate(R, 1j + 1.0 / s),
                           atol=1e-10)
    res = minimize_symmetric(out)
    assert res.degree == 2 and res.kappa == 0 and res.n0 == 2


def test_left_factor_round_trip_p3(instance_suite):
    inst = next(i for i in instance_suite if i.p == 3)
    Rs = symmetrize(inst.realization)
    pmin, _ = solve_extremal(build_hat(Rs))
    E = build_extension(Rs, pmin)
    E2 = extension_from_left_factor(Rs, E.s21)
    assert np.linalg.norm(E2.p_matrix - E.p_matrix, 2) <= \
        1e-9 * (1 + np.linalg.norm(E.p_matrix, 2))


def test_large_instance_smoke(large_instance):
    # p = 4, n = 8 assembled from four kappa-0 scalar parts: pi has four
    # roots in the right half-plane, and Sigma has degree n without a division
    inst = large_instance
    assert (inst.p, inst.n) == (4, 8)
    res = minimize_symmetric(inst.realization)
    assert res.degree == 8 and res.kappa == 0
    assert sum(m // 2 for _, m, lab in res.solution.spectrum.clusters if lab == "plus") == 4
    assert max(res.innerness, res.symmetry, res.block_match) <= 1e-7


def test_ill_conditioned_lattice_certifies_or_names_its_conditioning():
    # seed 7 of ten kappa-0 degree-2 parts (p = 10, n = 20) has
    # ||P_max|| = ||P_min^-1|| ~ 7e4; the synthesis either certifies or
    # reports the conditioning of its Riccati solution behind its failure
    from test_contract import draw
    inst = draw(("congruence", [(2, 0, 0)] * 10), 7)
    assert (inst.p, inst.n) == (10, 20)
    try:
        res = minimize_symmetric(inst.realization)
    except ReductionError as exc:
        for label in ("||P|| =", "||P^-1|| =", "cond X ="):
            assert label in str(exc)
    else:
        assert res.degree == 20 and res.kappa == 0
