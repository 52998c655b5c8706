"""Real-coefficient analysis: realness of extensions and feasibility of
real symmetric extensions at degree n."""
import numpy as np
import pytest
import scipy.linalg as sla
from conftest import coupled_pair_realization

import darlington.realcase
import darlington.riccati
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
from darlington.riccati import _extremal

SQ3 = np.sqrt(3.0)


def identity_signature(R: Realization) -> SignatureRealization:
    return SignatureRealization(realization=R, j=np.ones(R.n, dtype=int))


def boundary_pair(d: float, c: float, U=np.eye(2)) -> Realization:
    """U^T diag(f, f) U with f = d + c (s - a)^{-1} c, a = -c^2/(1-d):
    |f(0)| = 1, so the Hamiltonian spectrum lies on the imaginary axis."""
    a = -c * c / (1 - d)
    return Realization(a * np.eye(2), c * U, c * U.T, d * np.eye(2))


def real_draw(seed: int) -> Realization:
    """U^T diag(f_1, ..., f_p) U with a random real orthogonal U and
    f_i = d_i + sum_j r_ij / (s + a_ij), |d_i| + sum_j |r_ij| / a_ij = 0.9,
    so each f_i, and S, is a real symmetric Schur function."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 3))
    poles, bs, cs, ds = [], [], [], []
    for _ in range(p):
        a = rng.uniform(0.3, 2.0, int(rng.integers(1, 3)))
        r, d = rng.uniform(-1, 1, a.size), rng.uniform(-0.5, 0.5)
        scale = 0.9 / (abs(d) + np.sum(np.abs(r) / a))
        poles.append(-a)
        bs.append(np.sqrt(scale * np.abs(r))[:, None])
        cs.append(np.sign(r) * np.sqrt(scale * np.abs(r)))
        ds.append(scale * d)
    U = np.linalg.qr(rng.normal(size=(p, p)))[0]
    return Realization(np.diag(np.concatenate(poles)), sla.block_diag(*bs) @ U,
                       U.T @ sla.block_diag(*cs), U.T @ np.diag(ds) @ U)


ROTATION = np.array([[0.6, 0.8], [-0.8, 0.6]])
REAL_CASES = {
    "zeta1": lambda: coupled_pair_realization(1.0),
    "zeta2": lambda: coupled_pair_realization(2.0),
    "boundary-d0.3": lambda: boundary_pair(0.3, 0.8),
    "boundary-d-0.5-rotated": lambda: boundary_pair(-0.5, 1.2, ROTATION),
    **{f"draw{seed}": (lambda seed=seed: real_draw(seed)) for seed in range(12)},
}


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
        R = {"zeta1": zeta1, "zeta2": zeta2}[which]
        solve = darlington.linalg._schur_solve

        def lyapunov_only(left, Q, right=None):
            assert right is None, "Sylvester solve called"
            return solve(left, Q)

        monkeypatch.setattr(darlington.linalg, "_schur_solve", lyapunov_only)
        SR = signature_realization(R)
        assert np.all(SR.j == 1)
        assert np.array_equal(SR.realization.a, R.a)


def test_constant_real_s_has_the_empty_signature_form():
    D = np.array([[0.3, 0.1], [0.1, -0.2]])
    SR = signature_realization(Realization(np.zeros((0, 0)), np.zeros((0, 2)),
                                           np.zeros((2, 0)), D))
    assert SR.j.shape == (0,) and SR.realization.n == 0
    assert np.array_equal(SR.realization.d, D)
    rep = real_symmetric_feasibility(SR)
    assert rep.feasible and rep.witness.shape == (0, 0)
    assert is_real_extension(rep.witness, SR.realization)


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

    @pytest.mark.parametrize("name", REAL_CASES)
    def test_verdict_is_n0_equals_n(self, name):
        # an extremal solution is fixed by the J-involution exactly when
        # P_min = P_max, that is when the whole Hamiltonian spectrum lies
        # on the imaginary axis
        SR = signature_realization(REAL_CASES[name]())
        rep = real_symmetric_feasibility(SR)
        (pmin,) = _extremal(build_hat(SR.realization), ("minimal",))
        assert rep.feasible == (pmin.spectrum.n0 == SR.realization.n)
        if rep.feasible:
            assert np.array_equal(rep.witness, pmin.p.real)
        else:
            assert rep.witness is None and "chi_H" in rep.obstruction

    def test_one_minimal_graph_solve(self, zeta1, zeta2, monkeypatch):
        kinds = []

        def recording(hat, which):
            kinds.append(which)
            return _extremal(hat, which)

        def refuse(*args):
            pytest.fail("P_max or a Riccati residual was computed")

        monkeypatch.setattr(darlington.realcase, "_extremal", recording)
        monkeypatch.setattr(darlington.riccati, "solve_extremal", refuse)
        monkeypatch.setattr(darlington.riccati, "riccati_residual", refuse)
        for R in (zeta1, zeta2):
            real_symmetric_feasibility(identity_signature(R))
        assert kinds == [("minimal",)] * 2


class TestInvariants:
    def test_extremal_solutions_real_for_real_input(self):
        # the frozen suite realizations are all complex, so the real
        # instances are built here
        for make in REAL_CASES.values():
            R = signature_realization(make()).realization
            for sol in solve_extremal(build_hat(R)):
                assert np.linalg.norm(sol.p.imag) <= 1e-8 * np.linalg.norm(sol.p)

    @pytest.mark.parametrize("name", REAL_CASES)
    def test_j_involution_swaps_the_extremal_solutions(self, name):
        # P -> J P^{-T} J reverses the order of the Riccati solutions,
        # so it maps P_min onto P_max: the identity the feasibility
        # verdict rests on
        SR = signature_realization(REAL_CASES[name]())
        J = SR.j_matrix
        pmin, pmax = solve_extremal(build_hat(SR.realization))
        conj = J @ np.linalg.inv(pmin.p.T) @ J
        assert np.linalg.norm(conj - pmax.p) <= 1e-9 * np.linalg.norm(pmax.p)

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
