"""Riccati layer: shifted data, Hamiltonian structure, extremal
solutions, spectrum split."""
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import hermitian_order, sorted_schur_subspace

from darlington import (
    Hamiltonian,
    Realization,
    analyze_spectrum,
    build_hamiltonian,
    build_hat,
    linalg,
    minimize_symmetric,
    riccati_residual,
    solve_extremal,
    symmetrize,
)
from darlington.errors import NotContractiveError, SpectralSplitError
from darlington.riccati import _extremal, _newton_refine, _residual_matrix

SQ3 = np.sqrt(3.0)


def symmetric_scalar(a: float, c: float, d: float) -> Realization:
    """f(s) = d + c (s - a)^{-1} c with its symmetric 1-state realization."""
    return Realization(np.array([[a]]), np.array([[c]]),
                       np.array([[c]]), np.array([[d]]))


class TestBuildHat:
    def test_d_zero_collapses(self, zeta2):
        hat = build_hat(zeta2)
        assert np.allclose(hat.a_hat, zeta2.a)
        assert np.allclose(hat.bbs, np.eye(2))
        assert np.allclose(hat.csc, np.eye(2))

    def test_worked_example_formula(self):
        # for A = a I, B = C = c I, D = d I the shifted dynamics is
        # (a (1-|d|^2) + c^2 conj(d)) / (1-|d|^2) times the identity
        a, c, d = -2.0, 1.0, 0.0
        R = Realization(a * np.eye(2), c * np.eye(2), c * np.eye(2),
                        d * np.eye(2))
        hat = build_hat(R)
        expected = (a * (1 - abs(d) ** 2) + c ** 2 * np.conj(d)) / (1 - abs(d) ** 2)
        assert np.allclose(hat.a_hat, expected * np.eye(2))

    def test_scalar_hand_riccati(self):
        # d = 1/2, c = sqrt(3)/2, a = -3/2 (Schur boundary family
        # a = -c^2/(1-d)): hat data collapses to A_hat = -1,
        # BBs = CsC = 1, so R(p) = (p - 1)^2 and P = 1 is the unique
        # solution
        R = symmetric_scalar(-1.5, SQ3 / 2, 0.5)
        hat = build_hat(R)
        assert abs(hat.a_hat[0, 0] + 1.0) < 1e-14
        assert abs(hat.bbs[0, 0] - 1.0) < 1e-14
        assert abs(hat.csc[0, 0] - 1.0) < 1e-14
        assert riccati_residual(hat, np.array([[1.0]])) < 1e-14
        pmin, pmax = solve_extremal(hat)
        assert abs(pmin.p[0, 0] - 1.0) < 1e-8
        assert abs(pmax.p[0, 0] - 1.0) < 1e-8

    def test_rejects_unit_d(self):
        R = symmetric_scalar(-1.0, 0.5, 1.0)
        with pytest.raises(NotContractiveError):
            build_hat(R)


class TestHamiltonian:
    def test_structure_identity(self, zeta2):
        ham = build_hamiltonian(build_hat(zeta2))
        assert ham.structure_residual() <= 1e-10

    def test_worked_example_spectrum(self, zeta2):
        ham = build_hamiltonian(build_hat(zeta2))
        lam = np.sort(np.linalg.eigvals(ham.matrix).real)
        assert np.allclose(lam, [-SQ3, -SQ3, SQ3, SQ3], atol=1e-8)

    def test_nilpotent_case(self, zeta1):
        ham = build_hamiltonian(build_hat(zeta1))
        lam = np.linalg.eigvals(ham.matrix)
        assert np.max(np.abs(lam)) < 1e-7
        # nilpotent of index 2
        H2 = ham.matrix @ ham.matrix
        assert np.linalg.norm(H2, 2) < 1e-12

    def test_spectrum_mirror_symmetry(self):
        rng = np.random.default_rng(17)
        A = np.diag([-1.0, -2.0]) + 0.1 * (rng.normal(size=(2, 2))
                                           + 1j * rng.normal(size=(2, 2)))
        A = (A + A.T) / 2
        B = rng.normal(size=(2, 2)) * 0.3
        R = Realization(A, B, B.T, np.zeros((2, 2)))
        ham = build_hamiltonian(build_hat(R))
        lam = np.linalg.eigvals(ham.matrix)
        mirrored = -np.conj(lam)
        for z in lam:
            assert np.min(np.abs(mirrored - z)) < 1e-8


class TestResidual:
    def test_extremal_roots_of_quadratic(self, zeta2):
        hat = build_hat(zeta2)
        # eigenvalues solve p^2 - 4p + 1 = 0
        assert riccati_residual(hat, (2 - SQ3) * np.eye(2)) < 1e-12
        assert riccati_residual(hat, (2 + SQ3) * np.eye(2)) < 1e-12

    def test_complex_solution(self, zeta2):
        hat = build_hat(zeta2)
        P = np.array([[2.0, 1j * SQ3], [-1j * SQ3, 2.0]])
        assert riccati_residual(hat, P) < 1e-12
        assert np.linalg.norm(P @ P.T - np.eye(2), 2) < 1e-12

    def test_zero_gives_bbs_norm(self, zeta2):
        hat = build_hat(zeta2)
        assert abs(riccati_residual(hat, np.zeros((2, 2)))
                   - np.linalg.norm(hat.bbs, 2)) < 1e-14


def over_floor(hat, P) -> float:
    """||R(P)||_F over its rounding floor eps (2 ||A_hat|| ||P|| +
    ||C_hat* C_hat|| ||P||^2 + ||B_hat B_hat*||), all Frobenius norms."""
    na, nc, nb, nP = (np.linalg.norm(M) for M in (hat.a_hat, hat.csc, hat.bbs, P))
    floor = np.finfo(float).eps * (2 * na * nP + nc * nP ** 2 + nb)
    return float(np.linalg.norm(_residual_matrix(hat, P)) / floor)


class TestNewtonRefine:
    @staticmethod
    def counting(monkeypatch) -> list:
        solves = []
        original = linalg._schur_solve
        monkeypatch.setattr(linalg, "_schur_solve",
                            lambda *args: solves.append(1) or original(*args))
        return solves

    def test_one_correction_per_p_min(self, instance_suite, monkeypatch):
        # the graph-subspace P_min takes one Newton correction, which
        # brings it to the rounding floor of R(P).  With imaginary-axis
        # eigenvalues (n0 > 0) the Lyapunov equation is singular and the
        # residual decides whether the correction is kept
        solves = self.counting(monkeypatch)
        for inst in instance_suite:
            hat = build_hat(symmetrize(inst.realization))
            del solves[:]
            (pmin,) = _extremal(hat, ("minimal",))
            assert len(solves) == 1, inst.name
            if inst.expected_n0 == 0:
                assert over_floor(hat, pmin.p) <= 1.0, inst.name

    def test_perturbed_p_min_is_refined_in_one_step(self, instance_suite,
                                                    monkeypatch):
        # P_min off by 1e-6 relative: the one step is quadratically
        # convergent, so it lowers the residual far below its bound
        rng = np.random.default_rng(7)
        solves = self.counting(monkeypatch)
        for inst in (inst for inst in instance_suite if inst.expected_n0 == 0):
            hat = build_hat(symmetrize(inst.realization))
            P = _extremal(hat, ("minimal",))[0].p
            E = rng.normal(size=P.shape) + 1j * rng.normal(size=P.shape)
            E = (E + E.conj().T) / np.linalg.norm(E + E.conj().T)
            start = P + 1e-6 * np.linalg.norm(P) * E
            del solves[:]
            refined, res = _newton_refine(hat, start)
            assert len(solves) == 1, inst.name
            assert res * 1e5 <= riccati_residual(hat, start), inst.name
            assert res <= 1e-3 * 1e-8 * (1 + np.linalg.norm(P, 2) ** 2), inst.name
            assert res == riccati_residual(hat, refined)

    @staticmethod
    def failing_solve(form, Q):
        raise np.linalg.LinAlgError("singular")

    @pytest.mark.parametrize("solve", [
        lambda form, Q: 1e3 * np.ones_like(Q),
        lambda form, Q: np.full_like(Q, np.nan),
        failing_solve,
    ], ids=["large-step", "nan-step", "failed-solve"])
    def test_a_step_that_does_not_lower_the_residual_is_not_kept(
            self, zeta2, monkeypatch, solve):
        hat = build_hat(zeta2)
        P = _extremal(hat, ("minimal",))[0].p
        monkeypatch.setattr(linalg, "_schur_solve", solve)
        refined, res = _newton_refine(hat, P)
        assert refined is P
        assert res == riccati_residual(hat, P)


def test_newton_step_on_a_singular_lyapunov_equation_does_not_warn(zeta1):
    # zeta1 has n0 = 2, so Z has a mirror pair of axis eigenvalues and
    # Z dP + dP Z* = -R(P) is singular: scipy's solver warned, and the
    # Schur solve perturbs it silently to the same result, bit for bit
    hat = build_hat(zeta1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pmin = _extremal(hat, ("minimal",))[0]
    assert pmin.spectrum.n0 == 2
    start = pmin.p
    R = _residual_matrix(hat, start)
    with pytest.warns(RuntimeWarning, match="very close to or exactly zero"):
        dP = sla.solve_continuous_lyapunov(hat.a_hat + start @ hat.csc, -R)
    cand = start + (dP + dP.conj().T) / 2
    res, cand_res = riccati_residual(hat, start), riccati_residual(hat, cand)
    want = (cand, cand_res) if cand_res < res else (start, res)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        refined, got = _newton_refine(hat, start)
    assert np.array_equal(refined, want[0]) and got == want[1]


class TestSolveExtremal:
    def test_worked_example(self, zeta2):
        pmin, pmax = solve_extremal(build_hat(zeta2))
        assert np.allclose(pmin.p, (2 - SQ3) * np.eye(2), atol=1e-8)
        assert np.allclose(pmax.p, (2 + SQ3) * np.eye(2), atol=1e-8)
        assert pmin.kind == "minimal" and pmax.kind == "maximal"

    def test_unique_solution_case(self, zeta1):
        pmin, pmax = solve_extremal(build_hat(zeta1))
        assert np.allclose(pmin.p, np.eye(2), atol=1e-9)
        assert np.allclose(pmax.p, np.eye(2), atol=1e-9)

    def test_scalar_quadratic(self):
        # S = 0.5/(s+1) with the symmetric realization c^2 = 0.5: the
        # eigenvalue equation is p^2 - 4p + 1 = 0
        R = symmetric_scalar(-1.0, np.sqrt(0.5), 0.0)
        pmin, pmax = solve_extremal(build_hat(R))
        assert abs(pmin.p[0, 0] - (2 - SQ3)) < 1e-10
        assert abs(pmax.p[0, 0] - (2 + SQ3)) < 1e-10
        assert pmin.residual_norm < 1e-10 and pmax.residual_norm < 1e-10

    def test_closed_loop_spectra_split_hamiltonian(self, zeta2):
        hat = build_hat(zeta2)
        ham = build_hamiltonian(hat)
        pmin, _ = solve_extremal(hat)
        z_eigs = np.linalg.eigvals(pmin.z)
        anti = np.linalg.eigvals(-pmin.z.conj().T)
        union = np.sort_complex(np.concatenate([z_eigs, anti]))
        h_eigs = np.sort_complex(np.linalg.eigvals(ham.matrix))
        assert np.allclose(union, h_eigs, atol=1e-8)

    def test_minimal_has_stable_closed_loop(self, zeta2):
        pmin, pmax = solve_extremal(build_hat(zeta2))
        assert np.max(np.linalg.eigvals(pmin.z).real) <= 1e-8
        assert np.min(np.linalg.eigvals(pmax.z).real) >= -1e-8

    @pytest.mark.parametrize("name", ["zeta1", "zeta2"])
    def test_solutions_carry_the_spectrum(self, request, name):
        hat = build_hat(request.getfixturevalue(name))
        want = analyze_spectrum(build_hamiltonian(hat))
        for sol in solve_extremal(hat):
            assert (sol.spectrum.kappa, sol.spectrum.n0) == (want.kappa, want.n0)
            assert [(m, lab) for _, m, lab in sol.spectrum.clusters] \
                == [(m, lab) for _, m, lab in want.clusters]
            assert np.allclose([c for c, _, _ in sol.spectrum.clusters],
                               [c for c, _, _ in want.clusters], atol=1e-12)


def per_cluster_graph(hat, side):
    """Oracle: P from one sorted Schur form per eigenvalue cluster of the
    given half-plane (for spectra without axis clusters)."""
    ham = build_hamiltonian(hat)
    H, spec = ham.matrix, analyze_spectrum(ham)
    centers = [c for c, _, _ in spec.clusters]
    cols = [sorted_schur_subspace(H, centers, {i})
            for i, (_, _, lab) in enumerate(spec.clusters) if lab == side]
    Mb = np.hstack(cols)
    n = hat.n
    P = Mb[n:] @ np.linalg.inv(Mb[:n])
    return (P + P.conj().T) / 2


class TestHalfPlaneSchur:
    @pytest.mark.parametrize("source", ["zeta2", "generic"])
    def test_matches_per_cluster_construction(self, request, instance_suite, source):
        from darlington import symmetrize
        if source == "zeta2":
            R = request.getfixturevalue("zeta2")
        else:
            inst = next(i for i in instance_suite
                        if i.p == 2 and i.expected_kappa == i.n == 6)
            R = symmetrize(inst.realization)
        hat = build_hat(R)
        pmin, pmax = solve_extremal(hat)
        assert pmin.spectrum.n0 == 0
        for sol, side in ((pmin, "plus"), (pmax, "minus")):
            P = per_cluster_graph(hat, side)
            assert np.linalg.norm(sol.p - P, 2) <= 1e-10 * (1 + np.linalg.norm(P, 2))
            assert sol.subspace_condition <= np.sqrt(1 + np.linalg.norm(sol.p, 2) ** 2)


@pytest.mark.parametrize("which", ["zeta1", "zeta2", "suite"])
def test_one_schur_form_per_riccati_solve(which, zeta1, zeta2, instance_suite,
                                          monkeypatch):
    # instance 13 has an imaginary-axis cluster (n0 = 1) and one Blaschke step
    R = {"zeta1": zeta1, "zeta2": zeta2,
         "suite": instance_suite[13].realization}[which]
    hat = build_hat(symmetrize(R))
    H = build_hamiltonian(hat).matrix
    schurs, spectra = [], []
    schur, eigvals = sla.schur, np.linalg.eigvals

    def recording_schur(M, *args, **kwargs):
        schurs.append(np.array(M))
        return schur(M, *args, **kwargs)

    def recording_eigvals(M):
        spectra.append(np.array(M))
        return eigvals(M)

    def is_h(M):
        return M.shape == H.shape and np.allclose(M, H)

    monkeypatch.setattr(sla, "schur", recording_schur)
    monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
    pmin, _ = _extremal(hat, ("minimal", "maximal"))
    assert pmin.spectrum.n0 == {"zeta1": 2, "zeta2": 0, "suite": 1}[which]
    # H's one Schur form, then one of the closed loop Z per Newton step
    assert len(schurs) == 3 and np.array_equal(schurs[0], H)
    assert all(Z.shape == hat.a_hat.shape for Z in schurs[1:])
    assert not spectra
    assert minimize_symmetric(R).n0 == pmin.spectrum.n0
    assert not any(map(is_h, spectra))
    # the recorder is live: it sees the poles of a realization with A = H
    m = H.shape[0]
    Realization(H, np.zeros((m, 1)), np.zeros((1, m)), np.zeros((1, 1))).poles()
    assert is_h(spectra[-1])


class TestAnalyzeSpectrum:
    def test_even_double_pair(self, zeta2):
        spec = analyze_spectrum(build_hamiltonian(build_hat(zeta2)))
        assert (spec.kappa, spec.n0) == (0, 0)
        mults = sorted(m for _, m, _ in spec.clusters)
        assert mults == [2, 2]

    def test_axis_cluster(self, zeta1):
        spec = analyze_spectrum(build_hamiltonian(build_hat(zeta1)))
        assert (spec.kappa, spec.n0) == (0, 2)

    def test_simple_scalar(self):
        R = symmetric_scalar(-1.0, np.sqrt(0.5), 0.0)
        spec = analyze_spectrum(build_hamiltonian(build_hat(R)))
        assert (spec.kappa, spec.n0) == (1, 0)
        assert len(spec.chi_plus_roots) == 1
        assert abs(spec.chi_plus_roots[0] - SQ3 / 2) < 1e-8

    def test_unmirrored_eigenvalues_raise(self):
        # 1 and -2 are no mirror pair: the split refuses instead of
        # reporting kappa = 1
        with pytest.raises(SpectralSplitError, match="mirrored partner"):
            analyze_spectrum(Hamiltonian(np.diag([1.0, -2.0])))

    def test_pi_reassembly(self, zeta2):
        spec = analyze_spectrum(build_hamiltonian(build_hat(zeta2)))
        assert 2 * sum(m for _, m in spec.pi_roots) + 2 * spec.kappa == 4


class TestLatticeInvariants:
    @pytest.mark.parametrize("idx", range(6))
    def test_suite_invariants(self, instance_suite, idx):
        inst = instance_suite[idx]
        R = inst.realization
        from darlington import symmetrize
        Rs = symmetrize(R)
        hat = build_hat(Rs)
        pmin, pmax = solve_extremal(hat)
        # residual bounds
        assert pmin.residual_norm <= 1e-8
        assert pmax.residual_norm <= 1e-8
        # Loewner order
        assert hermitian_order(pmin.p, pmax.p) in (
            "less_equal", "equal")
        # inverse-transpose pairing for symmetric realizations
        assert np.linalg.norm(np.linalg.inv(pmin.p.T) - pmax.p, 2) <= \
            1e-8 * (1 + np.linalg.norm(pmax.p, 2))
        # solution set closed under P -> P^{-T}
        assert riccati_residual(hat, np.linalg.inv(pmin.p.T)) <= 1e-8

    def test_hat_data_inherits_symmetry(self, instance_suite):
        # for a symmetric realization: A_hat = A_hat^T and BBs = CsC^T
        from darlington import symmetrize
        for inst in instance_suite[:6]:
            hat = build_hat(symmetrize(inst.realization))
            scale = 1.0 + np.linalg.norm(hat.a_hat, 2)
            assert np.linalg.norm(hat.a_hat - hat.a_hat.T, 2) <= 1e-9 * scale
            assert np.linalg.norm(hat.bbs - hat.csc.T, 2) <= 1e-9 * scale

    def test_kernel_dimension_is_n0(self, instance_suite):
        from darlington import symmetrize
        for inst in instance_suite:
            if inst.expected_n0 is None:
                continue
            Rs = symmetrize(inst.realization)
            hat = build_hat(Rs)
            pmin, pmax = solve_extremal(hat)
            gap = pmax.p - pmin.p
            w = np.linalg.eigvalsh(gap)
            scale = max(1.0, abs(w).max())
            n0 = int(np.sum(np.abs(w) <= 1e-7 * scale))
            assert n0 == inst.expected_n0, inst.name


@pytest.mark.parametrize("d", [[[0.3]], [[0.2, 0.1j], [0.1j, -0.3]]])
def test_degree_zero_gives_empty_solutions(d):
    D = np.array(d, dtype=complex)
    p = D.shape[0]
    R = Realization(np.zeros((0, 0)), np.zeros((0, p)), np.zeros((p, 0)), D)
    for sol in solve_extremal(build_hat(R)):
        assert sol.p.shape == (0, 0) and sol.z.shape == (0, 0)
        assert (sol.spectrum.kappa, sol.spectrum.n0) == (0, 0)
