"""Real-coefficient analysis: realness of extensions and feasibility of
real symmetric extensions at degree n."""
from pathlib import Path

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
    is_real_extension,
    real_symmetric_feasibility,
    signature_realization,
    solve_extremal,
)
from darlington.errors import ValidationError
from darlington.realization import evaluate, probe_points, transfer_distance, transpose
from darlington.riccati import _extremal, riccati_residual
from darlington.scalar import siso_realization

SQ3 = np.sqrt(3.0)
# real SISO draws of the probe in tests/data/freeze_signature_witnesses.py
SIGNATURE_WITNESSES = Path(__file__).parent / "data" / "signature_witnesses.npz"


def signature_witness(name: str) -> Realization:
    with np.load(SIGNATURE_WITNESSES) as z:
        return Realization(*(z[f"{name}/{k}"] for k in "abcd"))


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


def real_kappa0_draw(seed: int) -> Realization:
    """U^T diag(f_1, f_2) U with a random real orthogonal U and
    f_i = c_i ((s - a_i)/(s + a_i))^2: mu_i = c_i^2 (a_i^2 - s^2)^2 is a
    perfect square with no axis root, so kappa = 0 and n0 = 0 < n = 4."""
    rng = np.random.default_rng(seed)
    blocks = []
    for a, c in zip(rng.uniform(0.3, 2.0, 2), rng.uniform(0.3, 0.85, 2)):
        R = siso_realization(c * np.array([a * a, -2 * a, 1.0]), [a * a, 2 * a, 1.0])
        blocks.append([M.real for M in (R.a, R.b, R.c, R.d)])
    U = np.linalg.qr(rng.normal(size=(2, 2)))[0]
    A, B, C, D = (sla.block_diag(*Ms) for Ms in zip(*blocks))
    return Realization(A, B @ U, U.T @ C, U.T @ D @ U)


ROTATION = np.array([[0.6, 0.8], [-0.8, 0.6]])
REAL_CASES = {
    "zeta1": lambda: coupled_pair_realization(1.0),
    "zeta2": lambda: coupled_pair_realization(2.0),
    "boundary-d0.3": lambda: boundary_pair(0.3, 0.8),
    "boundary-d-0.5-rotated": lambda: boundary_pair(-0.5, 1.2, ROTATION),
    **{f"draw{seed}": (lambda seed=seed: real_draw(seed)) for seed in range(12)},
    "kappa0-draw0": lambda: real_kappa0_draw(0),
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

    @pytest.mark.parametrize("c2, j", [(2.0, [1, 1]), (-2.0, [1, -1])])
    def test_mirror_pair_has_a_signature_form(self, c2, j):
        # the poles -1 and 1 form a mirror pair; the intertwiner
        # T = diag(1, c2), solved on A - 2 I, gives J = sign T
        R = Realization(np.diag([-1.0, 1.0]), np.array([[1.0], [1.0]]),
                        np.array([[1.0, c2]]), np.array([[0.0]]))
        SR = signature_realization(R)
        assert SR.j.tolist() == j
        assert transfer_distance(SR.realization, R) <= 1e-14

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
        with pytest.raises(ValidationError, match=match) as info:
            signature_realization(R)
        assert "symmetrize" not in str(info.value)

    @pytest.mark.parametrize("c01, match", [(2.0, "intertwining residual"),
                                            (1e-8, "not structurally symmetric for J")])
    def test_rejects_non_symmetric(self, c01, match):
        # C (sI - A)^-1 with an upper off-diagonal entry only; the small
        # one escapes the intertwining residual but not the structural
        # check that symmetrize shares
        R = Realization(np.diag([-1.0, -2.0]), np.eye(2),
                        np.array([[1.0, c01], [0.0, 1.0]]), np.zeros((2, 2)))
        with pytest.raises(ValidationError, match=match):
            signature_realization(R)

    def test_well_conditioned_draw_certifies_exactly(self, monkeypatch):
        # the 1e-10 structure test of SignatureRealization once refused
        # it; the symmetric-form path projects onto J-symmetry exactly,
        # with M^-1 in closed form
        R = signature_witness("p251")
        inverses = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda M: inverses.append(M) or inv(M))
        SR = signature_realization(R)
        assert inverses == []
        Rs, J = SR.realization, SR.j_matrix
        assert np.array_equal(Rs.a.T, J @ Rs.a @ J) and np.array_equal(Rs.b.T, Rs.c @ J)
        assert np.array_equal(Rs.d, Rs.d.T)
        assert transfer_distance(Rs, R) <= 1e-8

    def test_similarity_gate_refuses_a_projection_that_moves_s(self):
        # the transformed realization passes the 1e-9 structural check,
        # but its projection misses C by a relative 1.6e-8
        with pytest.raises(ValidationError, match="changed the transfer function"):
            signature_realization(signature_witness("p2563"))

    @pytest.mark.parametrize("which", ["zeta1", "zeta2"])
    def test_structural_input_needs_no_sylvester_solve(self, which, zeta1,
                                                       zeta2, monkeypatch):
        # A = A^T and B = C^T: T = I, and the Gramian alone certifies
        # minimality
        R = {"zeta1": zeta1, "zeta2": zeta2}[which]
        solve = darlington.linalg._schur_solve

        def lyapunov_only(form, Q, conjugate=False):
            assert not conjugate, "Sylvester solve called"
            return solve(form, Q)

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
        # n0 = n (P_min = P_max, the whole Hamiltonian spectrum on the
        # imaginary axis) makes the one solution J-fixed and real, but it is
        # not necessary: the verdict is feasible exactly when kappa = 0 and
        # the symmetric solution, mapped to signature coordinates, is a real
        # J-fixed solution, as on the kappa = 0 draw with n0 = 0
        SR = signature_realization(REAL_CASES[name]())
        R, J = SR.realization, SR.j_matrix
        rep = real_symmetric_feasibility(SR)
        (pmin,) = _extremal(build_hat(R), ("minimal",))
        if pmin.spectrum.n0 == R.n or name.startswith("kappa0"):
            assert rep.feasible
        if rep.feasible:
            P = rep.witness
            assert pmin.spectrum.kappa == 0 and np.isrealobj(P)
            assert riccati_residual(build_hat(R), P) <= 1e-10 * (1 + np.linalg.norm(P, 2) ** 2)
            assert np.linalg.norm(J @ np.linalg.inv(P.T) @ J - P, 2) <= 1e-8 * (
                1 + np.linalg.norm(P, 2))
            assert is_real_extension(P, R)
        else:
            assert rep.witness is None and "chi_H" in rep.obstruction

    def test_one_minimal_graph_solve(self, zeta1, zeta2, monkeypatch):
        # the verdict reads the one symmetric solution: no P_min, P_max or
        # Riccati residual
        kinds = []

        def recording(hat, which):
            kinds.append(which)
            return _extremal(hat, which)

        def refuse(*args):
            pytest.fail("P_max or a Riccati residual was computed")

        monkeypatch.setattr(darlington.realcase, "_extremal", recording)
        monkeypatch.setattr(darlington.riccati, "solve_extremal", refuse)
        monkeypatch.setattr(darlington.riccati, "riccati_residual", refuse)
        reports = [real_symmetric_feasibility(identity_signature(R)) for R in (zeta1, zeta2)]
        assert kinds == [("symmetric",)] * 2
        assert [rep.feasible for rep in reports] == [True, False]


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
        # so it maps P_min onto P_max
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
