"""Riccati layer: shifted data, Hamiltonian structure, extremal
solutions, spectrum split."""
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import hermitian_order, pi_roots, sorted_schur_subspace

import darlington.riccati
from darlington import (
    Realization,
    build_hat,
    linalg,
    minimize_symmetric,
    riccati_residual,
    solve_extremal,
    symmetrize,
)
from darlington.errors import (
    DimensionError,
    NotContractiveError,
    SpectralSplitError,
    SubspaceError,
    ValidationError,
)
from darlington.realization import direct_sum
from darlington.riccati import (
    _extremal,
    _newton_refine,
    _residual_matrix,
    analyze_spectrum,
    build_hamiltonian,
)

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
        H = build_hamiltonian(build_hat(zeta2))
        J = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(len(H) // 2))
        assert np.linalg.norm(H.conj().T @ J + J @ H, 2) <= 1e-10

    def test_worked_example_spectrum(self, zeta2):
        H = build_hamiltonian(build_hat(zeta2))
        lam = np.sort(np.linalg.eigvals(H).real)
        assert np.allclose(lam, [-SQ3, -SQ3, SQ3, SQ3], atol=1e-8)

    def test_nilpotent_case(self, zeta1):
        H = build_hamiltonian(build_hat(zeta1))
        lam = np.linalg.eigvals(H)
        assert np.max(np.abs(lam)) < 1e-7
        # nilpotent of index 2
        H2 = H @ H
        assert np.linalg.norm(H2, 2) < 1e-12

    def test_spectrum_mirror_symmetry(self):
        rng = np.random.default_rng(17)
        A = np.diag([-1.0, -2.0]) + 0.1 * (rng.normal(size=(2, 2))
                                           + 1j * rng.normal(size=(2, 2)))
        A = (A + A.T) / 2
        B = rng.normal(size=(2, 2)) * 0.3
        R = Realization(A, B, B.T, np.zeros((2, 2)))
        H = build_hamiltonian(build_hat(R))
        lam = np.linalg.eigvals(H)
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


@pytest.mark.parametrize("P, error, match", [
    (np.eye(3), DimensionError, r"P must be 2x2, got shape \(3, 3\)"),
    (np.ones(2), DimensionError, r"P must be 2x2, got shape \(2,\)"),
    (np.full((2, 2), np.nan), ValidationError, "P must be finite"),
    (np.full((2, 2), np.inf), ValidationError, "P must be finite"),
], ids=["3x3", "1-d", "nan", "inf"])
def test_riccati_residual_refuses_a_p_it_cannot_take(zeta2, P, error, match):
    # as build_extension does: no numpy error, no warning, no silent value
    hat = build_hat(zeta2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=match):
            riccati_residual(hat, P)


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
        monkeypatch.setattr(linalg, "_schur_solve", lambda *args, **kwargs:
                            solves.append(1) or original(*args, **kwargs))
        return solves

    def test_one_correction_per_p_min(self, instance_suite, monkeypatch):
        # the graph-subspace P_min takes one Newton correction, which
        # brings it to the rounding floor of R(P).  With imaginary-axis
        # eigenvalues (n0 > 0) the Lyapunov equation is singular: the graph
        # P is kept with its own residual, and no equation is solved
        solves = self.counting(monkeypatch)
        for inst in instance_suite:
            hat = build_hat(symmetrize(inst.realization))
            del solves[:]
            (pmin,) = _extremal(hat, ("minimal",))
            assert pmin.spectrum.n0 == inst.expected_n0, inst.name
            assert len(solves) == (0 if inst.expected_n0 else 1), inst.name
            if inst.expected_n0:
                assert pmin.residual_norm == riccati_residual(hat, pmin.p), inst.name
            else:
                assert over_floor(hat, pmin.p) <= 1.0, inst.name

    @pytest.mark.parametrize("idx", range(20))
    def test_closed_loop_form_from_h_refines_as_a_fresh_one(self, instance_suite, idx,
                                                             monkeypatch):
        # with n0 = 0 the Newton step takes Z*'s Schur form from H's reordered
        # one; its residual stays within 10x that of the same step on a fresh
        # Schur form of Z, for both kinds and both forms of H.  With axis
        # half-chains (n0 > 0) no step is taken and no Z is factored
        refine, steps = _newton_refine, []
        monkeypatch.setattr(darlington.riccati, "_newton_refine", lambda hat, P, form:
                            steps.append((P, form)) or refine(hat, P, form))
        schur, closed_loops = linalg._schur, []
        monkeypatch.setattr(linalg, "_schur", lambda M: closed_loops.append(M) or schur(M))
        raw = instance_suite[idx].realization
        for R in (raw, symmetrize(raw)):
            hat = build_hat(R)
            del steps[:]
            sols = solve_extremal(hat)
            assert not closed_loops
            if sols[0].spectrum.n0:
                assert not steps
                for sol in sols:
                    assert sol.residual_norm == riccati_residual(hat, sol.p), (idx, sol.kind)
                continue
            for sol, (P, form) in zip(sols, steps):
                # a Schur form of Z* up to the backward error of H's, times cond X
                T, U = form
                Z = hat.a_hat + P @ hat.csc
                H = build_hamiltonian(hat)
                assert np.array_equal(T, np.triu(T))
                assert np.linalg.norm(U.conj().T @ U - np.eye(len(U))) <= 1e-13
                assert np.linalg.norm(U @ T @ U.conj().T - Z.conj().T, 2) <= (
                    1e-12 * np.linalg.norm(H, 2) * sol.subspace_condition)
                R0 = _residual_matrix(hat, P)
                dP = linalg._schur_solve(schur(Z), -R0)
                fresh = min(riccati_residual(hat, P + (dP + dP.conj().T) / 2),
                            riccati_residual(hat, P))
                assert sol.residual_norm <= 10 * fresh, (idx, sol.kind)

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
            refined, res = _newton_refine(
                hat, start, linalg._schur((hat.a_hat + start @ hat.csc).conj().T))
            assert len(solves) == 1, inst.name
            assert res * 1e5 <= riccati_residual(hat, start), inst.name
            assert res <= 1e-3 * 1e-8 * (1 + np.linalg.norm(P, 2) ** 2), inst.name
            assert res == riccati_residual(hat, refined)

    @staticmethod
    def failing_solve(form, Q, adjoint=False):
        raise np.linalg.LinAlgError("singular")

    @pytest.mark.parametrize("solve", [
        lambda form, Q, adjoint=False: 1e3 * np.ones_like(Q),
        lambda form, Q, adjoint=False: np.full_like(Q, np.nan),
        failing_solve,
    ], ids=["large-step", "nan-step", "failed-solve"])
    def test_a_step_that_does_not_lower_the_residual_is_not_kept(
            self, zeta2, monkeypatch, solve):
        hat = build_hat(zeta2)
        P = _extremal(hat, ("minimal",))[0].p
        monkeypatch.setattr(linalg, "_schur_solve", solve)
        refined, res = _newton_refine(hat, P, linalg._schur((hat.a_hat + P @ hat.csc).conj().T))
        assert refined is P
        assert res == riccati_residual(hat, P)


def test_newton_step_on_a_singular_lyapunov_equation_does_not_warn(zeta1, monkeypatch):
    # zeta1 has n0 = 2, so Z has a mirror pair of axis eigenvalues and
    # Z dP + dP Z* = -R(P) is singular: scipy's solver warns on it.  The
    # graph basis holds axis half-chains, so the solve takes no Newton step:
    # it factors no Z, solves no equation and keeps the graph P
    hat = build_hat(zeta1)
    calls = []
    for name in ("_schur", "_schur_solve"):
        monkeypatch.setattr(linalg, name, lambda *args, name=name, **kwargs:
                            calls.append(name))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pmin, pmax = _extremal(hat, ("minimal", "maximal"))
    assert pmin.spectrum.n0 == 2 and not calls
    for sol in (pmin, pmax):
        assert sol.residual_norm == riccati_residual(hat, sol.p) < 1e-15
    R = _residual_matrix(hat, pmin.p)
    with pytest.warns(RuntimeWarning, match="very close to or exactly zero"):
        sla.solve_continuous_lyapunov(pmin.z, -R)


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
        H = build_hamiltonian(hat)
        pmin, _ = solve_extremal(hat)
        z_eigs = np.linalg.eigvals(pmin.z)
        anti = np.linalg.eigvals(-pmin.z.conj().T)
        union = np.sort_complex(np.concatenate([z_eigs, anti]))
        h_eigs = np.sort_complex(np.linalg.eigvals(H))
        assert np.allclose(union, h_eigs, atol=1e-8)

    def test_minimal_has_stable_closed_loop(self, zeta2):
        pmin, pmax = solve_extremal(build_hat(zeta2))
        assert np.max(np.linalg.eigvals(pmin.z).real) <= 1e-8
        assert np.min(np.linalg.eigvals(pmax.z).real) >= -1e-8

    def test_axis_half_chains_at_a_large_frequency_scale(self, zeta1):
        # zeta = 1 as (-a I, sqrt(a) I, sqrt(a) I, 0) at a = 1e8 has the
        # same P_min; a half-chain tolerance in units of the cluster band,
        # not of ||N||, found no chain at the double axis root
        a = 1e8
        R = Realization(-a * np.eye(2), np.sqrt(a) * np.eye(2), np.sqrt(a) * np.eye(2),
                        np.zeros((2, 2)))
        pmin, _ = solve_extremal(build_hat(R))
        (want, _) = solve_extremal(build_hat(zeta1))
        assert pmin.spectrum.n0 == 2
        assert np.abs(pmin.p - want.p).max() <= 1e-14

    def test_singular_graph_matrix_is_refused(self, zeta2):
        # a state that B reaches and C does not see (C = 0) leaves P_min
        # defined, but the graph of P_max has a singular X: it is refused
        # before the triangular solve could fail on it
        hat = build_hat(direct_sum(zeta2, Realization([[-1.0]], [[1.0]], [[0.0]], [[0.0]])))
        (pmin,) = _extremal(hat, ("minimal",))
        assert pmin.p_eigenvalues[0] > 0
        with pytest.raises(SubspaceError, match="graph-subspace matrix X is singular"):
            solve_extremal(hat)

    def test_residual_over_its_bound_is_refused(self, zeta2):
        # zeta = 2 as (a A, sqrt(a) B, sqrt(a) C, D) at a = 1e11 has the same
        # P_min, but R(P) rounds at the scale of ||A_hat|| ||P|| and the bound
        # 1e-8 (1 + ||P||^2) does not grow with it
        a = 1e11
        R = Realization(a * zeta2.a, np.sqrt(a) * zeta2.b, np.sqrt(a) * zeta2.c, zeta2.d)
        with pytest.raises(ValidationError, match="Riccati residual .* exceeds tolerance "
                                                  "for the minimal solution"):
            solve_extremal(build_hat(R))

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
    H = build_hamiltonian(hat)
    spec = analyze_spectrum(H)
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


@pytest.mark.parametrize("which", ["zeta1", "zeta2", "suite", "unsymmetrized"])
def test_one_schur_form_per_riccati_solve(which, zeta1, zeta2, instance_suite,
                                          monkeypatch):
    # instance 13 has an imaginary-axis cluster (n0 = 1) and one Blaschke step;
    # its realization before symmetrize is not exactly symmetric
    raw = instance_suite[13].realization
    R = {"zeta1": symmetrize(zeta1), "zeta2": symmetrize(zeta2),
         "suite": symmetrize(raw), "unsymmetrized": raw}[which]
    hat = build_hat(R)
    H = build_hamiltonian(hat)
    schurs, spectra = [], []
    schur, dgees, eigvals = sla.schur, sla.lapack.dgees, np.linalg.eigvals

    def recording_schur(M, *args, **kwargs):
        schurs.append((np.array(M), kwargs.get("output", args[0] if args else "real")))
        return schur(M, *args, **kwargs)

    def recording_dgees(select, M, *args, **kwargs):
        schurs.append((np.array(M), "real"))
        return dgees(select, M, *args, **kwargs)

    def recording_eigvals(M):
        spectra.append(np.array(M))
        return eigvals(M)

    def is_h(M):
        return M.shape == H.shape and np.allclose(M, H)

    monkeypatch.setattr(sla, "schur", recording_schur)
    monkeypatch.setattr(sla.lapack, "dgees", recording_dgees)
    monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
    pmin, _ = _extremal(hat, ("minimal", "maximal"))
    assert pmin.spectrum.n0 == {"zeta1": 2, "zeta2": 0, "suite": 1, "unsymmetrized": 1}[which]
    (F, output), closed_loops = schurs[0], schurs[1:]
    if which == "unsymmetrized":
        # H's one complex Schur form
        assert not np.array_equal(raw.a, raw.a.T)
        assert output == "complex" and np.array_equal(F, H)
    else:
        # one real Schur form of the real K = V*(iH)V, none of H
        n = hat.n
        V = np.block([[np.eye(n), 1j * np.eye(n)], [np.eye(n), -1j * np.eye(n)]]) / np.sqrt(2)
        assert output == "real" and F.dtype == float and F.shape == H.shape
        assert np.allclose(F, V.conj().T @ (1j * H) @ V, rtol=0,
                           atol=1e-14 * np.linalg.norm(H, 2))
    # the Newton step reads the closed loop's Schur form off H's reordered
    # form; with axis half-chains (n0 > 0) no step is taken.  No Z is factored
    assert not closed_loops
    assert not spectra
    assert minimize_symmetric(R).n0 == pmin.spectrum.n0
    assert not any(map(is_h, spectra))
    # the recorder is live: it sees the poles of a realization with A = H
    m = H.shape[0]
    Realization(H, np.zeros((m, 1)), np.zeros((1, m)), np.zeros((1, 1))).poles()
    assert is_h(spectra[-1])


@pytest.mark.parametrize("idx", range(20))
def test_structured_schur_form_of_a_symmetric_realization(instance_suite, idx):
    hat = build_hat(symmetrize(instance_suite[idx].realization))
    H = build_hamiltonian(hat)
    spec = analyze_spectrum(H)
    T, U = spec.schur
    m, eps = len(H), np.finfo(float).eps
    # kappa, n0 and the pi multiplicities of the reference complex form
    base = linalg.default_cluster_tol(sla.matrix_balance(H, permute=False)[0])
    ref = linalg.mirror_split(np.diag(sla.schur(H, output="complex")[0]), base)[1]
    assert spec.kappa == sum(1 for _, k, lab in ref if lab == "plus" and k % 2)
    assert spec.n0 == sum(k for _, k, lab in ref if lab == "axis") // 2
    assert sorted(k for _, k in pi_roots(spec)) == sorted(k // 2 for _, k, _ in ref if k > 1)
    # the spectrum is closed under lambda -> -conj(lambda) bit for bit, and
    # the real eigenvalues of K = V*(iH)V (1 x 1 blocks of its real form)
    # lie exactly on the axis
    lam = np.diag(T)
    key = lambda z: (z.real, z.imag)  # noqa: E731
    assert sorted(lam.tolist(), key=key) == sorted((-lam.conj()).tolist(), key=key)
    n = hat.n
    A, G = H[n:, n:], -H[:n, n:]
    K = np.block([[G.imag - A.imag, A.real - G.real], [-(A.real + G.real), -(A.imag + G.imag)]])
    V = np.block([[np.eye(n), 1j * np.eye(n)], [np.eye(n), -1j * np.eye(n)]]) / np.sqrt(2)
    assert np.allclose(K, V.conj().T @ (1j * H) @ V, rtol=0, atol=1e-14 * np.linalg.norm(H, 2))
    blocks = np.count_nonzero(np.diagonal(sla.schur(K, output="real")[0], -1))
    assert np.sum(lam.real == 0) == m - 2 * blocks
    # a backward stable Schur form
    assert np.array_equal(T, np.triu(T))
    assert np.linalg.norm(U @ T @ U.conj().T - H, 2) <= 100 * eps * np.linalg.norm(H, 2)
    assert np.linalg.norm(U.conj().T @ U - np.eye(m), 2) <= 100 * eps


def test_structured_schur_form_of_degree_zero():
    spec = analyze_spectrum(np.zeros((0, 0), complex))
    assert (spec.kappa, spec.n0, spec.clusters) == (0, 0, ())
    assert all(M.shape == (0, 0) for M in spec.schur)


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
            analyze_spectrum(np.diag([1.0, -2.0]))

    def test_pi_reassembly(self, zeta2):
        spec = analyze_spectrum(build_hamiltonian(build_hat(zeta2)))
        assert 2 * sum(m for _, m in pi_roots(spec)) + 2 * spec.kappa == 4


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
