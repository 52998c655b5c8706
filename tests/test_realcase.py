"""Real-coefficient analysis: realness of extensions and feasibility of
real symmetric extensions at degree n."""
import numpy as np
import pytest

import darlington.realcase
from darlington import (
    Realization,
    SignatureRealization,
    build_extension,
    build_hat,
    evaluate,
    is_real_extension,
    real_symmetric_feasibility,
    signature_realization,
    solve_extremal,
)
from darlington.errors import ValidationError
from darlington.realization import probe_points, transpose

SQ3 = np.sqrt(3.0)


def identity_signature(R: Realization) -> SignatureRealization:
    return SignatureRealization(realization=R, j=np.ones(R.n, dtype=int))


class TestIsRealExtension:
    def test_unique_solution_is_real(self, zeta1):
        pmin, _ = solve_extremal(build_hat(zeta1))
        assert is_real_extension(pmin, zeta1)

    def test_complex_involutive_solution_is_not(self, zeta2):
        P = np.array([[2.0, 1j * SQ3], [-1j * SQ3, 2.0]])
        assert not is_real_extension(P, zeta2)
        # ... yet the complex symmetric extension itself exists
        E = build_extension(zeta2, P)
        from darlington.realization import symmetry_residual
        assert symmetry_residual(E.realization) < 1e-9

    def test_real_minimal_solution_not_involutive(self, zeta2):
        pmin, _ = solve_extremal(build_hat(zeta2))
        assert is_real_extension(pmin, zeta2)
        P = pmin.p
        assert np.linalg.norm(P @ P.T - np.eye(2), 2) > 0.5

    def test_rejects_complex_realization(self):
        R = Realization(np.array([[-1.0 + 0.2j]]), np.array([[1.0]]),
                        np.array([[1.0]]), np.array([[0.0]]))
        with pytest.raises(ValidationError):
            is_real_extension(np.array([[1.0]]), R)


class TestSignatureRealization:
    def test_identity_signature_for_symmetric(self, zeta2):
        SR = identity_signature(zeta2)
        assert np.all(SR.j == 1)

    def test_construction_from_unstructured_real(self):
        # real minimal realization of a symmetric transfer function that
        # is not itself signature symmetric
        R = Realization(np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]),
                        np.array([[1.0, 2.0]]), np.array([[0.1]]))
        SR = signature_realization(R)
        Rs, J = SR.realization, SR.j_matrix
        assert np.linalg.norm(Rs.a.T - J @ Rs.a @ J) < 1e-8
        assert np.linalg.norm(Rs.b.T - Rs.c @ J) < 1e-8
        # same transfer function
        for s in probe_points(R):
            assert np.linalg.norm(evaluate(Rs, s) - evaluate(R, s)) < 1e-8

    def test_rejects_wrong_structure(self, zeta2):
        with pytest.raises(ValidationError):
            SignatureRealization(realization=zeta2, j=np.array([1, -1]))

    @pytest.mark.parametrize("b, c, match", [
        ([[1.0], [0.0]], [[1.0, 2.0]], "not reachable"),
        ([[1.0], [1.0]], [[1.0, 0.0]], "not observable"),
    ])
    def test_rejects_non_minimal(self, b, c, match):
        R = Realization(np.diag([-1.0, -2.0]), np.array(b), np.array(c),
                        np.array([[0.1]]))
        with pytest.raises(ValidationError, match=match):
            signature_realization(R)

    @pytest.mark.parametrize("c01, match", [(2.0, "intertwining residual"),
                                            (1e-8, "not signature symmetric")])
    def test_rejects_non_symmetric(self, c01, match):
        # C (sI - A)^-1 with an upper off-diagonal entry only; the small
        # one escapes the intertwining residual but not the signature
        # structure of the output
        R = Realization(np.diag([-1.0, -2.0]), np.eye(2),
                        np.array([[1.0, c01], [0.0, 1.0]]), np.zeros((2, 2)))
        with pytest.raises(ValidationError, match=match):
            signature_realization(R)

    @pytest.mark.parametrize("which", ["zeta1", "zeta2"])
    def test_structural_input_needs_no_sylvester_solve(self, which, zeta1,
                                                       zeta2, monkeypatch):
        # A = A^T and B = C^T: T = I, and the Gramian alone certifies
        # minimality
        import scipy.linalg
        R = {"zeta1": zeta1, "zeta2": zeta2}[which]
        monkeypatch.setattr(scipy.linalg, "solve_sylvester",
                            lambda *a: pytest.fail("solve_sylvester called"))
        SR = signature_realization(R)
        assert np.all(SR.j == 1)
        assert np.array_equal(SR.realization.a, R.a)


class TestFeasibility:
    def test_feasible_at_unit_damping(self, zeta1):
        rep = real_symmetric_feasibility(identity_signature(zeta1))
        assert rep.feasible and rep.kind == "feasible_at_degree_n"
        assert np.allclose(rep.witness, np.eye(2), atol=1e-8)

    def test_infeasible_at_two(self, zeta2):
        rep = real_symmetric_feasibility(identity_signature(zeta2))
        assert not rep.feasible and rep.kind == "infeasible_at_degree_n"
        assert "chi_H" in rep.obstruction

    def test_boundary_family_feasible(self):
        # f = d + c (s - a)^{-1} c with d = 0, c = 1, a = -c^2/(1-d) = -1,
        # duplicated on the diagonal: the unique solution is the identity
        R = Realization(-np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
        rep = real_symmetric_feasibility(identity_signature(R))
        assert rep.feasible
        assert np.allclose(rep.witness, np.eye(2), atol=1e-8)


class TestInvariants:
    def test_extremal_solutions_real_for_real_input(self, instance_suite):
        from darlington import symmetrize
        for inst in instance_suite[:4]:
            R = inst.realization
            if np.linalg.norm(R.a.imag) + np.linalg.norm(R.b.imag) > 1e-12:
                continue
            pmin, pmax = solve_extremal(build_hat(symmetrize(R)))
            # symmetrize may go complex; use the raw real realization if
            # it is already symmetric
            Rs = symmetrize(R)
            if np.linalg.norm(Rs.a.imag) > 1e-9:
                continue
            assert np.linalg.norm(pmin.p.imag, 2) < 1e-8
            assert np.linalg.norm(pmax.p.imag, 2) < 1e-8

    def test_j_conjugate_transposes_extension(self):
        # S_{J P^{-T} J} = S_P^T for signature-symmetric realizations
        R = Realization(np.diag([-1.0, -2.0]), np.array([[0.3], [0.3]]),
                        np.array([[0.3, 0.6]]), np.array([[0.1]]))
        SR = signature_realization(R)
        Rs, J = SR.realization, SR.j_matrix
        pmin, pmax = solve_extremal(build_hat(Rs))
        P = pmin.p
        Pt = J @ np.linalg.inv(P.T) @ J
        E1 = build_extension(Rs, P)
        E2 = build_extension(Rs, Pt)
        T1 = transpose(E1.realization)
        for s in probe_points(E1.realization, E2.realization):
            assert np.linalg.norm(evaluate(E2.realization, s)
                                  - evaluate(T1, s), 2) < 1e-7

    def test_conjugate_symmetry_certificate(self, zeta2):
        pmin, _ = solve_extremal(build_hat(zeta2))
        E = build_extension(zeta2, pmin)
        rng = np.random.default_rng(12)
        for _ in range(16):
            s = complex(1.0 + 2 * rng.random(), 3 * (rng.random() - 0.5))
            if abs(s.imag) < 0.05:
                continue
            v1 = evaluate(E.realization, np.conj(s))
            v2 = np.conj(evaluate(E.realization, s))
            assert np.linalg.norm(v1 - v2, 2) < 1e-10


def test_realness_is_sampled_once_on_the_probe_grid(zeta2, monkeypatch):
    # conjugate symmetry S(conj(s)) = conj(S(s)) is tested from one
    # response of the extension on its probe grid and the mirror image
    calls = []
    original = darlington.realcase.freqresp

    def recording(R, points):
        calls.append((R, np.asarray(points)))
        return original(R, points)

    monkeypatch.setattr(darlington.realcase, "freqresp", recording)
    pmin, _ = solve_extremal(build_hat(zeta2))
    assert is_real_extension(pmin, zeta2)
    ((T, pts),) = calls
    grid = probe_points(T)
    assert np.array_equal(pts, np.concatenate([grid, grid.conj()]))
