"""Acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints a single PASS line when it holds; any failure is a
plain assertion failure.  Criteria 3-7 run over the randomized instance
suite from conftest (20 symmetric Schur instances, p in {1,2,3},
n in 1..6, ||D|| <= 0.9 by construction).
"""
from dataclasses import dataclass

import numpy as np
import pytest

from darlington import (
    Realization,
    SignatureRealization,
    build_extension,
    build_hat,
    compare_extensions,
    is_real_extension,
    minimal_realization,
    minimize_symmetric,
    real_symmetric_feasibility,
    riccati_residual,
    scalar_minimal_extension,
    solve_extremal,
    symmetric_unitary_extension,
    symmetrize,
)
from darlington.extension import innerness_residual
from darlington.linalg import cluster_ladder, default_cluster_tol, svd_analysis, takagi
from darlington.realization import evaluate, kalman_check, symmetry_residual
from darlington.reduction import BlaschkeFactor
from darlington.riccati import analyze_spectrum, build_hamiltonian
from darlington.scalar import siso_realization

from conftest import blaschke_realization, sequential_minimize, sorted_schur_subspace

SQ3 = np.sqrt(3.0)


def _ok(num: int, msg: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {msg}")


@dataclass
class Artifacts:
    name: str
    n: int
    p: int
    rs: Realization
    hat: object
    spectrum: object
    pmin: object
    pmax: object
    e_min: object
    e_max: object
    synth: object


@pytest.fixture(scope="session")
def pipeline_artifacts(instance_suite):
    out = []
    for inst in instance_suite:
        rs = symmetrize(inst.realization)
        hat = build_hat(rs)
        spectrum = analyze_spectrum(build_hamiltonian(hat))
        pmin, pmax = solve_extremal(hat)
        e_min = build_extension(rs, pmin)
        e_max = build_extension(rs, pmax)
        synth = minimize_symmetric(inst.realization)
        out.append(Artifacts(name=inst.name, n=rs.n, p=rs.outputs, rs=rs,
                             hat=hat, spectrum=spectrum, pmin=pmin,
                             pmax=pmax, e_min=e_min, e_max=e_max,
                             synth=synth))
        if inst.expected_kappa is not None:
            assert synth.kappa == inst.expected_kappa, \
                f"{inst.name}: kappa {synth.kappa} != expected {inst.expected_kappa}"
        if inst.expected_n0 is not None:
            assert synth.n0 == inst.expected_n0, \
                f"{inst.name}: n0 {synth.n0} != expected {inst.expected_n0}"
    return out


def test_criterion_1_worked_example_strong_damping(zeta2):
    hat = build_hat(zeta2)
    pmin, pmax = solve_extremal(hat)
    assert np.linalg.norm(pmin.p - (2 - SQ3) * np.eye(2), 2) <= 1e-8
    assert np.linalg.norm(pmax.p - (2 + SQ3) * np.eye(2), 2) <= 1e-8
    P = np.array([[2.0, 1j * SQ3], [-1j * SQ3, 2.0]])
    assert riccati_residual(hat, P) <= 1e-10
    assert np.linalg.norm(P @ P.T - np.eye(2), 2) <= 1e-10
    E = build_extension(zeta2, P)
    sigma, q, _, _ = symmetric_unitary_extension(E, 0)  # P^-T = P
    assert q.degree == 0
    assert innerness_residual(sigma) <= 1e-8
    assert symmetry_residual(sigma) <= 1e-8
    assert kalman_check(sigma).mcmillan_degree == 2
    _ok(1, "zeta=2 worked example: extremal solutions, involutive complex "
           "solution, and its degree-2 symmetric inner extension")


def test_criterion_2_worked_example_boundary_damping(zeta1, zeta2):
    pmin, pmax = solve_extremal(build_hat(zeta1))
    assert np.linalg.norm(pmin.p - np.eye(2), 2) <= 1e-8
    assert np.linalg.norm(pmax.p - np.eye(2), 2) <= 1e-8
    assert is_real_extension(pmin, zeta1)
    res = minimize_symmetric(zeta1)
    assert res.degree == 2
    # the minimal extension here is real: check conjugate symmetry
    rng = np.random.default_rng(42)
    for _ in range(8):
        s = complex(1.5 + rng.random(), 1.0 + rng.random())
        v1 = evaluate(res.extension, np.conj(s))
        v2 = np.conj(evaluate(res.extension, s))
        assert np.linalg.norm(v1 - v2, 2) <= 1e-8
    rep1 = real_symmetric_feasibility(
        SignatureRealization(realization=zeta1, j=np.array([1, 1])))
    assert rep1.feasible
    rep2 = real_symmetric_feasibility(
        SignatureRealization(realization=zeta2, j=np.array([1, 1])))
    assert not rep2.feasible
    _ok(2, "zeta=1 gives the unique solution P=I and a real degree-2 "
           "symmetric inner extension; zeta=2 is infeasible over the reals")


def test_criterion_3_minimal_degree_on_suite(pipeline_artifacts):
    assert len(pipeline_artifacts) == 20
    for art in pipeline_artifacts:
        res = art.synth
        assert res.degree == art.n + res.kappa, art.name
        assert res.innerness <= 1e-7, art.name
        assert res.symmetry <= 1e-7, art.name
        assert res.block_match <= 1e-7, art.name
    _ok(3, "20 randomized instances reach degree n+kappa with innerness, "
           "symmetry and block residuals <= 1e-7")


def test_criterion_4_scalar_oracle_equivalence(scalar_suite):
    assert len(scalar_suite) == 20
    for p1, q in scalar_suite:
        ext, fac, _, _ = scalar_minimal_extension(p1, q)
        R, _ = minimal_realization(siso_realization(p1, q))
        res = minimize_symmetric(R)
        assert res.degree == ext.n, (p1, q)
        assert res.kappa == fac.kappa, (p1, q)
    _ok(4, "20 scalar instances: state-space degree equals the polynomial "
           "pipeline degree and the two kappa counts agree")


def test_criterion_5_spectral_factor_quotients(pipeline_artifacts):
    for art in pipeline_artifacts:
        gamma = art.pmax.p - art.pmin.p
        scale = max(1.0, np.linalg.norm(art.pmax.p, 2))
        rank = int(np.sum(np.linalg.svd(gamma, compute_uv=False)
                          > 1e-7 * scale))
        q = compare_extensions(art.e_min, art.e_max)
        assert q.degree == rank, art.name
        assert q.inner_flag, art.name
        q_rev = compare_extensions(art.e_max, art.e_min)
        assert q_rev.degree == rank, art.name
        if rank > 0:
            assert not q_rev.inner_flag, art.name
    _ok(5, "Q = S21(min)^{-1} S21(max) has degree rank(Pmax-Pmin) and is "
           "inner; the reversed quotient is not")


def test_criterion_6_max_degree_symmetric_extension(pipeline_artifacts):
    for art in pipeline_artifacts:
        w = np.abs(np.linalg.eigvalsh(art.pmax.p - art.pmin.p))
        scale = max(1.0, w.max()) if w.size else 1.0
        n0 = int(np.sum(w <= 1e-7 * scale))
        sigma, q, _, _ = symmetric_unitary_extension(art.e_min, art.n - n0)
        assert q.inner_flag, art.name
        assert kalman_check(sigma).mcmillan_degree == 2 * art.n - n0, art.name
        assert art.synth.n0 == n0, art.name
    _ok(6, "Sigma built on the minimal solution has degree 2n - n0 with "
           "n0 = dim ker(Pmax - Pmin)")


def test_criterion_7_inverse_transpose_pairing(pipeline_artifacts):
    for art in pipeline_artifacts:
        assert np.linalg.norm(np.linalg.inv(art.pmin.p.T) - art.pmax.p, 2) \
            <= 1e-8, art.name
        assert riccati_residual(art.hat, np.linalg.inv(art.pmin.p.T)) \
            <= 1e-8, art.name
        assert riccati_residual(art.hat, np.linalg.inv(art.pmax.p.T)) \
            <= 1e-8, art.name
    _ok(7, "P_min^{-T} = P_max and the solution set is closed under "
           "P -> P^{-T} for symmetric realizations")


def test_criterion_8_structural_identities(pipeline_artifacts, zeta2):
    # Hamiltonian structure on every instance
    for art in pipeline_artifacts:
        H = build_hamiltonian(art.hat)
        J = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(len(H) // 2))
        assert np.linalg.norm(H.conj().T @ J + J @ H, 2) <= 1e-10, art.name
    # det B_{xi,u} = b_xi at 10 sample points
    rng = np.random.default_rng(5)
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    f = BlaschkeFactor(xi=0.8 + 0.3j, u=z)
    B = blaschke_realization(f)
    for w in np.linspace(-4, 4, 10):
        d = np.linalg.det(evaluate(B, 1j * w))
        assert abs(d - f.scalar(1j * w)) <= 1e-12
    # every division of the Blaschke cascade from Sigma on P_min drops the
    # degree by exactly 2, down to the degree of the synthesis
    for R, s in [(zeta2, minimize_symmetric(zeta2))] + [
            (art.rs, art.synth) for art in pipeline_artifacts]:
        final, steps = sequential_minimize(R)
        assert all(out.n == T.n - 2 for T, _, out in steps)
        assert final.n == s.degree == (2 * R.n - s.n0) - 2 * len(steps)
    _ok(8, "Hamiltonian identity to 1e-10, det of elementary factors to "
           "1e-12, and every Blaschke division drops the degree by exactly 2")


def test_criterion_9_linalg_property_suite():
    rng = np.random.default_rng(99)
    # reconstruction of decompositions on matrices up to 40 x 40
    for _ in range(12):
        n = int(rng.integers(1, 41))
        m = int(rng.integers(1, 41))
        M = (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)))
        M *= 10.0 ** rng.integers(-1, 4) / 10.0  # norms up to ~1e3
        res = svd_analysis(M)
        k = min(n, m)
        recon = res.u[:, :k] @ np.diag(res.singular_values) @ res.v[:, :k].conj().T
        assert np.linalg.norm(recon - M, 2) <= 1e-10 * max(1.0, np.linalg.norm(M, 2))
    for _ in range(8):
        n = int(rng.integers(2, 16))
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        _, clusters = cluster_ladder(np.linalg.eigvals(M), default_cluster_tol(M))
        centers = [center for center, _ in clusters]
        # spectral subspace of each eigenvalue cluster from a sorted
        # Schur form: verify invariance residual
        for idx, (_, members) in enumerate(clusters):
            basis = sorted_schur_subspace(M, centers, {idx})
            assert basis.shape[1] == len(members)
            resid = M @ basis - basis @ (basis.conj().T @ M @ basis)
            assert np.linalg.norm(resid, 2) <= 1e-9 * max(1.0, np.linalg.norm(M, 2))
    # Takagi invariants on 50 random complex symmetric matrices
    for _ in range(50):
        p = int(rng.integers(1, 21))
        F = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
        F = F + F.T
        tk = takagi(F)
        scale = max(1.0, np.linalg.norm(F, 2))
        assert np.linalg.norm(tk.u @ np.diag(tk.values) @ tk.u.T - F, 2) \
            <= 1e-10 * scale
        assert np.linalg.norm(tk.u @ tk.u.conj().T - np.eye(p), 2) <= 1e-10
        sv = np.linalg.svd(F, compute_uv=False)
        assert np.allclose(np.sort(tk.values), np.sort(sv), atol=1e-10 * scale)
    _ok(9, "decomposition reconstruction <= 1e-10 relative and Takagi "
           "invariants on 50 random complex symmetric matrices")
