"""Blaschke factors, two-sided reduction by the kept
division helpers, and the minimal symmetric synthesis from one Riccati
solution, against the Blaschke cascade as its oracle."""
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import darlington.extension
import darlington.realization
import darlington.reduction
import darlington.riccati
from darlington import (
    Realization,
    build_extension,
    build_hat,
    compose,
    minimal_realization,
    minimize_symmetric,
    solve_extremal,
    symmetric_unitary_extension,
    symmetrize,
)
from darlington.errors import NotContractiveError, ReductionError, ValidationError
from darlington.extension import _lossless_residual, innerness_residual
from darlington.linalg import cluster_ladder, default_cluster_tol, spectral_norm
from darlington.realization import (
    _values_and_derivatives,
    direct_sum,
    evaluate,
    freqresp,
    kalman_check,
    probe_points,
    symmetry_residual,
    transfer_distance,
    transpose,
)
from darlington.reduction import BlaschkeFactor, find_reduction_vector, reduce_once
from darlington.scalar import siso_realization

from conftest import (
    blaschke_inverse_eval,
    blaschke_realization,
    invert,
    pi_roots,
    random_unitary,
    sequential_minimize,
)

SQ3 = np.sqrt(3.0)


def sigma_min(R: Realization) -> Realization:
    """Sigma on P_min, of degree 2n - n0."""
    pmin, _ = solve_extremal(build_hat(R))
    E = build_extension(R, pmin)
    sigma, _, _, _ = symmetric_unitary_extension(E, R.n - pmin.spectrum.n0)
    return sigma


def first_round(R: Realization) -> tuple[Realization, list]:
    """Sigma on P_min of a symmetric R and the right-half-plane roots of pi,
    one division point each."""
    pmin, _ = solve_extremal(build_hat(R))
    return sigma_min(R), [xi for xi, _ in pi_roots(pmin.spectrum) if xi.real > 0]


@pytest.fixture(scope="module")
def double_root() -> Realization:
    """U^T diag(f2, f2, f2, f2, f3, f3) U with f_z = 1/(s + z): pi has the
    roots sqrt(3) of multiplicity 2 and sqrt(8) of multiplicity 1, so the
    Blaschke cascade from Sigma on P_min divides three times."""
    U = random_unitary(np.random.default_rng(3), 6)
    return Realization(np.diag([-2.0] * 4 + [-3.0] * 2), U, U.T, np.zeros((6, 6)))


class TestBlaschke:
    def test_vanishes_at_zero_in_direction(self):
        u = np.array([0.6, 0.8j])
        f = BlaschkeFactor(xi=0.9 + 0.4j, u=u)
        assert np.linalg.norm(f(f.xi) @ f.u) < 1e-14

    def test_det_unimodular_on_axis(self):
        f = BlaschkeFactor(xi=1.3 - 0.2j, u=np.array([1.0, 1j]) / np.sqrt(2))
        R = blaschke_realization(f)
        for w in np.linspace(-8, 8, 10):
            d = np.linalg.det(evaluate(R, 1j * w))
            assert abs(abs(d) - 1.0) < 1e-12
            assert abs(d - f.scalar(1j * w)) < 1e-12

    def test_coordinate_direction_is_diagonal(self):
        f = BlaschkeFactor(xi=2.0, u=np.array([1.0, 0.0, 0.0]))
        V = f(1j * 0.7)
        assert abs(V[0, 0] - f.scalar(1j * 0.7)) < 1e-14
        assert np.allclose(V[1:, 1:], np.eye(2))
        assert np.linalg.norm(V[0, 1:]) + np.linalg.norm(V[1:, 0]) < 1e-14

    def test_realization_is_inner_degree_one(self):
        f = BlaschkeFactor(xi=0.5 + 1.0j, u=np.array([0.6, 0.8]))
        R = blaschke_realization(f)
        assert kalman_check(R).mcmillan_degree == 1
        assert innerness_residual(R) < 1e-12

    def test_inverse_eval(self):
        f = BlaschkeFactor(xi=0.7, u=np.array([1.0, 2.0j]) / np.sqrt(5))
        s = 1j * 1.3
        assert np.allclose(f(s) @ blaschke_inverse_eval(f, s), np.eye(2),
                           atol=1e-13)

    def test_rejects_left_half_plane_zero(self):
        with pytest.raises(ValidationError):
            BlaschkeFactor(xi=-1.0, u=np.array([1.0]))

    @pytest.mark.parametrize("xi, u", [(np.nan, [np.nan]), (complex(1.0, np.nan), [1.0]),
                                       (np.inf, [1.0]), (1.0, [np.nan, 1.0]),
                                       (1.0, [np.inf, 0.0])])
    def test_rejects_non_finite_input(self, xi, u):
        with pytest.raises(ValidationError, match="xi must|u must"):
            BlaschkeFactor(xi=xi, u=np.array(u))


class TestFindReductionVector:
    def test_double_scalar_zero(self):
        # T = diag(b_xi^2, 1): double zero at xi with kernel span(e1);
        # (b^2)'(xi) = 0 so the second condition is automatic
        f = BlaschkeFactor(xi=1.0, u=np.array([1.0, 0.0]))
        B = blaschke_realization(f)
        T = compose(B, B)
        u = find_reduction_vector(T, [1.0])[0]
        assert abs(abs(u[0]) - 1.0) < 1e-9
        assert abs(u[1]) < 1e-9

    def test_worked_example_case_two(self, zeta2):
        sigma = sigma_min(zeta2)
        u = find_reduction_vector(sigma, [SQ3], support=2)[0]
        Txi = evaluate(sigma, SQ3)
        Tpxi = _values_and_derivatives(sigma, [SQ3])[1][0]
        assert np.linalg.norm(Txi @ u) <= 1e-8
        assert abs(u @ Tpxi @ u) <= 1e-8
        assert np.linalg.norm(u[2:]) == 0.0

    def test_conjugated_double_zero_recovers_direction(self):
        # T = B^T M B with M = diag(b_eta, b_rho) invertible at xi:
        # the kernel of T(xi) is spanned by e1 and the zero there is
        # double, so the reduction direction is e1
        xi = 1.2
        f = BlaschkeFactor(xi=xi, u=np.array([1.0, 0.0]))
        B = blaschke_realization(f)
        M = compose(
            blaschke_realization(BlaschkeFactor(xi=0.5, u=np.array([1.0, 0.0]))),
            blaschke_realization(BlaschkeFactor(xi=2.5, u=np.array([0.0, 1.0]))))
        from darlington.realization import transpose
        T = compose(compose(transpose(B), M), B)
        u = find_reduction_vector(T, [xi])[0]
        assert abs(abs(u[0]) - 1.0) < 1e-7
        assert abs(u[1]) < 1e-7

    @pytest.mark.parametrize("block", [
        [[1.0, 0.5j], [0.5j, -2.0]],   # R1 invertible
        [[1.0, 2j], [2j, -4.0]],       # rank 1: ac = b^2
        [[0.0, 0.0], [0.0, 0.0]],      # R1 = 0
        [[0.0, 1.5], [1.5, 0.0]],      # a = c = 0 != b
    ], ids=["invertible", "rank-1", "zero", "off-diagonal"])
    def test_two_dimensional_kernel(self, block):
        # T(s) = D + N/(s + 1) at xi = 1: T(1) = diag(0, 0, 1) and
        # T'(1) = -N/4 hold exactly in dyadic arithmetic, so the kernel
        # basis is +-e1, +-e2 and R1 is -block/4 up to signs and order
        N = np.zeros((3, 3), dtype=complex)
        N[:2, :2] = block
        N[2, :] = N[:, 2] = [0.25, -0.5j, 1.0]
        T = Realization(-np.eye(3), np.eye(3), N, np.diag([0.0, 0.0, 1.0]) - N / 2)
        Txi, Tpxi = evaluate(T, 1.0), _values_and_derivatives(T, [1.0])[1][0]
        assert np.array_equal(Txi, np.diag([0.0, 0.0, 1.0]))
        assert np.array_equal(Tpxi, -N / 4)
        u = find_reduction_vector(T, [1.0])[0]
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-15
        assert np.linalg.norm(Txi @ u) <= 1e-15
        assert abs(u @ Tpxi @ u) <= 1e-15

    def test_no_kernel_raises(self, zeta2):
        sigma = sigma_min(zeta2)
        with pytest.raises(ReductionError):
            find_reduction_vector(sigma, [2.0], support=2)  # kernel not in block

    def test_no_kernel_names_its_point_in_a_batch(self, zeta2):
        sigma = sigma_min(zeta2)
        with pytest.raises(ReductionError, match=r"T\(2\+0j\) has no kernel"):
            find_reduction_vector(sigma, [SQ3, 2.0], support=2)

    def test_batch_is_the_one_point_searches(self, double_root):
        # the points of a round share one search; each row is the one-point
        # result at its point
        T, points = first_round(symmetrize(double_root))
        assert len(points) == 2
        U = find_reduction_vector(T, points, support=6)
        assert U.shape == (2, 12)
        for xi, u in zip(points, U):
            assert np.allclose(u, find_reduction_vector(T, [xi], support=6)[0],
                               rtol=0, atol=1e-12)

    def test_two_stacked_solves_and_one_pole_guard(self, double_root, monkeypatch):
        # every T(xi) and T'(xi) of a round come from one pole guard and
        # two stacked solves of the pencils xi I - A, every kernel from
        # one stacked SVD
        T, points = first_round(symmetrize(double_root))
        solves, guards, svds = [], [], []
        solve, off_poles, svd = np.linalg.solve, darlington.realization._off_poles, np.linalg.svd
        monkeypatch.setattr(np.linalg, "solve", lambda M, b: solves.append(M.shape) or solve(M, b))
        monkeypatch.setattr(darlington.realization, "_off_poles",
                            lambda R, s: guards.append(s) or off_poles(R, s))

        def recording(M, **kwargs):  # spectral norms pass compute_uv=False
            if kwargs.get("compute_uv", True):
                svds.append(M.shape)
            return svd(M, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        find_reduction_vector(T, points, support=6)
        assert solves == [(2, T.n, T.n)] * 2
        assert len(guards) == 1 and np.array_equal(guards[0], points)
        assert svds == [(2, 12, 6)]


class TestReduceOnce:
    def test_worked_example_four_to_two(self, zeta2):
        sigma = sigma_min(zeta2)
        u = find_reduction_vector(sigma, [SQ3], support=2)[0]
        out, cert = reduce_once(sigma, [BlaschkeFactor(xi=SQ3, u=u)])
        assert out.n == 2
        assert cert == _lossless_residual(out, np.eye(2)) <= 1e-7
        assert innerness_residual(out) <= 1e-7
        assert symmetry_residual(out) <= 1e-7
        # lower-right block still realizes S
        for w in (0.0, 0.6, -4.0):
            g = evaluate(out, 1j * w)[2:, 2:]
            r = evaluate(zeta2, 1j * w)
            assert np.linalg.norm(g - r, 2) < 1e-9

    def test_bad_direction_fails(self, zeta2):
        sigma = sigma_min(zeta2)
        bad = BlaschkeFactor(xi=SQ3, u=np.array([0.0, 0.0, 1.0, 0.0]))
        with pytest.raises(ReductionError, match="not a double zero direction"):
            reduce_once(sigma, [bad])

    def test_bad_direction_is_named_in_a_round(self, double_root):
        # a round at sqrt(3) and sqrt(8) whose second direction is wrong
        _, steps = sequential_minimize(double_root)
        T, f, _ = steps[0]
        bad = BlaschkeFactor(xi=np.sqrt(8.0), u=np.eye(12)[0])
        with pytest.raises(ReductionError, match="not a double zero direction at 2.82843"):
            reduce_once(T, [f, bad])

    def test_unbalanced_input_fails(self, zeta2):
        # the same division, on Sigma under the diagonal similarity
        # diag(t), whose Gramian diag(t)^2 is not I
        sigma, t = sigma_min(zeta2), np.array([1.0, 2.0, 0.5, 3.0])
        bad = Realization(sigma.a * t[:, np.newaxis] / t, sigma.b * t[:, np.newaxis],
                          sigma.c / t, sigma.d)
        assert transfer_distance(bad, sigma) <= 1e-12
        u = find_reduction_vector(bad, [SQ3], support=2)[0]
        with pytest.raises(ReductionError, match="balanced coordinates"):
            reduce_once(bad, [BlaschkeFactor(xi=SQ3, u=u)])

    def test_rejects_malformed_rounds(self, zeta2):
        sigma = sigma_min(zeta2)
        f = BlaschkeFactor(xi=SQ3, u=find_reduction_vector(sigma, [SQ3], support=2)[0])
        for factors in ([], [f, f, f], [BlaschkeFactor(xi=SQ3, u=[1.0, 0.0])]):
            with pytest.raises(ValidationError, match="reduce_once needs"):
                reduce_once(sigma, factors)
        with pytest.raises(ValidationError, match="distinct"):
            reduce_once(sigma, [f, f])


def reducing_instances(zeta2, instance_suite, double_root) -> list[Realization]:
    """zeta2, the frozen suite's reducing instances and double_root."""
    return [zeta2] + [inst.realization for inst in instance_suite
                      if inst.expected_kappa < inst.n] + [double_root]


@pytest.fixture(scope="module")
def suite_steps(zeta2, instance_suite, double_root) -> list:
    """(T, factors, R) for every division R = reduce_once(T, factors) of the
    Blaschke cascade on the reducing instances: 19 divisions before
    double_root, and three on it."""
    steps = [(T, (f,), out) for R in reducing_instances(zeta2, instance_suite, double_root)
             for T, f, out in sequential_minimize(R)[1]]
    assert len(steps) == 22
    return steps


class TestLosslessCertificate:
    # every step output is balanced: its controllability Gramian is I
    def test_accepts_every_step_output(self, suite_steps):
        for _, _, R in suite_steps:
            assert _lossless_residual(R, np.eye(R.n)) <= 1e-12

    def test_rejects_perturbed_b(self, suite_steps):
        for _, _, R in suite_steps:
            bad = Realization(R.a, R.b * (1 + 1e-6), R.c, R.d)
            assert _lossless_residual(bad, np.eye(R.n)) > 1e-7

    def test_rejects_scaled_d(self, suite_steps):
        for _, _, R in suite_steps:
            bad = Realization(R.a, R.b, R.c, R.d * (1 + 1e-6))
            assert _lossless_residual(bad, np.eye(R.n)) > 1e-7

    def test_rejects_unobservable_state(self, suite_steps):
        # an extra stable state that no output sees: still inner on the
        # grid, but C X + D B* = 0 fails on its column (its Gramian is 1/2)
        hidden = Realization([[-1.0]], [[1.0]], [[0.0]], [[1.0]])
        R = direct_sum(suite_steps[-1][2], hidden)
        assert innerness_residual(R) <= 1e-10
        X = sla.block_diag(np.eye(R.n - 1), 0.5)
        assert _lossless_residual(R, X) > 1e-7

    def test_rejects_unreachable_state(self, suite_steps):
        # an extra stable state that no input reaches: X is singular
        hidden = Realization([[-1.0]], [[0.0]], [[1.0]], [[1.0]])
        R = direct_sum(suite_steps[-1][2], hidden)
        assert innerness_residual(R) <= 1e-10
        X = sla.block_diag(np.eye(R.n - 1), 0.0)
        assert _lossless_residual(R, X) == np.inf

    def test_rejects_unstable_all_pass(self):
        # (s + 1)/(s - 1) is unitary on the axis but has a pole at 1: it
        # is all-pass only on its Gramian -1/2, so no X > 0 certifies it
        R = Realization([[1.0]], [[1.0]], [[2.0]], [[1.0]])
        assert innerness_residual(R) <= 1e-15
        assert _lossless_residual(R, [[-0.5]]) <= 1e-15
        for x in (0.5, 1.0, 2.0):
            assert _lossless_residual(R, [[x]]) > 1e-7
        stable = Realization([[-1.0]], [[1.0]], [[-2.0]], [[1.0]])
        assert _lossless_residual(stable, [[0.5]]) <= 1e-15


def test_every_step_passes_the_grid_oracles(suite_steps):
    # the grids no reduce_once call runs any more, on every round output
    for _, _, R in suite_steps:
        assert innerness_residual(R) <= 1e-8
        assert symmetry_residual(R) <= 1e-8


def test_every_cascade_step_is_the_composed_division(zeta2, instance_suite,
                                                     double_root):
    # one factor per step, against the composed B^-T T B^-1
    for R in reducing_instances(zeta2, instance_suite, double_root):
        for T, f, out in sequential_minimize(R)[1]:
            right = invert(blaschke_realization(f))
            raw = compose(compose(transpose(right), T), right)
            assert transfer_distance(out, raw) <= 1e-8


@pytest.mark.parametrize("seed", [None, *range(18)],
                         ids=lambda s: "as-built" if s is None else f"rotated-{s}")
def test_rounds_match_the_root_by_root_cascade(zeta2, instance_suite, double_root,
                                               monkeypatch, seed):
    # the oracle divides Sigma on P_min, of degree 2n - n0, root by root
    # with the kept helpers; minimize_symmetric divides nothing, and the two
    # must agree on the degree and the S block, both certified.  A unitary
    # similarity keeps Sigma on P_min balanced and changes nothing exact, so
    # it must keep the match
    rng = np.random.default_rng(seed)

    def rotated(E, degree, _original=darlington.extension.symmetric_unitary_extension):
        sigma, *rest = _original(E, degree)
        if seed is not None:
            W = random_unitary(rng, sigma.n)
            sigma = Realization(W.conj().T @ sigma.a @ W, W.conj().T @ sigma.b,
                                sigma.c @ W, sigma.d)
        return (sigma, *rest)

    for R in reducing_instances(zeta2, instance_suite, double_root):
        res = minimize_symmetric(R)
        with monkeypatch.context() as mp:
            mp.setattr(sys.modules["conftest"], "symmetric_unitary_extension", rotated)
            oracle, steps = sequential_minimize(R)
        assert steps and res.degree == oracle.n == R.n + res.kappa
        assert _lossless_residual(oracle, np.ones(oracle.n)) <= 1e-7
        assert max(res.innerness, res.symmetry, res.block_match) <= 1e-7
        p, pts = R.outputs, probe_points(oracle, res.extension)
        blocks = [freqresp(T, pts)[:, p:, p:] for T in (oracle, res.extension)]
        assert np.max(spectral_norm(blocks[0] - blocks[1])) <= 1e-9


def test_one_certificate_and_spectrum_per_round(double_root, monkeypatch):
    # a division at two points is one closed-form deflation: one lossless
    # certificate and one eigvals on its output, none per point
    T, points = first_round(double_root)
    U = find_reduction_vector(T, points, support=6)
    spectra, certified = [], []
    eigvals, lossless = np.linalg.eigvals, darlington.reduction._lossless_residual
    monkeypatch.setattr(darlington.reduction, "_lossless_residual",
                        lambda R, *args: certified.append(R) or lossless(R, *args))
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: spectra.append(np.array(M)) or eigvals(M))
    out, _ = reduce_once(T, [BlaschkeFactor(xi=xi, u=u) for xi, u in zip(points, U)])
    assert out.n == T.n - 4 and certified == [out]
    assert sum(M.shape == out.a.shape and np.array_equal(M, out.a) for M in spectra) == 1


def test_a_round_is_the_cascade_with_mapped_directions():
    # B^T diag(f2, f2, f3, f3) B for a Blaschke factor B at 1 with a full
    # direction: pi has the roots 1, sqrt(3) and sqrt(8), whose reduction
    # directions are not orthogonal.  A division at all three points is, in
    # exact arithmetic, the root-by-root cascade with u_j mapped through the
    # earlier factors, B_{j-1}(xi_j) ... B_1(xi_j) u_j; unmapped, the second
    # direction is no zero direction
    w = [1, 1j] @ np.random.default_rng(5).standard_normal((2, 4))
    Bf = blaschke_realization(BlaschkeFactor(xi=1.0, u=w))
    f = Realization(-np.diag([2.0, 2.0, 3.0, 3.0]), np.eye(4), np.eye(4), np.zeros((4, 4)))
    R = symmetrize(minimal_realization(compose(transpose(Bf), compose(f, Bf)))[0])
    T, points = first_round(R)
    assert R.n == 6 and np.allclose(points, [1, SQ3, np.sqrt(8)])
    factors = [BlaschkeFactor(xi=xi, u=u)
               for xi, u in zip(points, find_reduction_vector(T, points, support=4))]
    assert abs(np.vdot(factors[0].u, factors[1].u)) > 0.5
    out, _ = reduce_once(T, factors)
    cascade, done = T, []
    for g in factors:
        u = g.u
        for h in done:
            u = h(g.xi) @ u
        done.append(BlaschkeFactor(xi=g.xi, u=u))
        cascade, _ = reduce_once(cascade, done[-1:])
    assert out.n == cascade.n == 6 and transfer_distance(out, cascade) <= 1e-9
    with pytest.raises(ReductionError, match="double zero direction"):
        reduce_once(reduce_once(T, factors[:1])[0], factors[1:2])
    res = minimize_symmetric(R)
    assert res.degree == 6 and transfer_distance(res.extension, out) <= 1e-9


class TestMinimizeSymmetric:
    def test_worked_example(self, zeta2):
        # kappa = 0: the solution is a fixed point P^-T = P of the
        # involution, like [[2, i sqrt(3)], [-i sqrt(3), 2]]
        res = minimize_symmetric(zeta2)
        assert res.degree == 2 and res.kappa == 0 and res.n0 == 0
        P = res.solution.p
        assert res.solution.kind == "symmetric"
        assert np.linalg.norm(P @ P.T - np.eye(2), 2) <= 1e-12
        assert res.innerness <= 1e-7 and res.symmetry <= 1e-7
        assert res.block_match <= 1e-7

    def test_unique_solution_case(self, zeta1):
        # P_min = P_max = I, and 2n - n0 = 2 = n + kappa
        res = minimize_symmetric(zeta1)
        assert res.degree == 2 and res.kappa == 0 and res.n0 == 2
        assert np.linalg.norm(res.solution.p - np.eye(2), 2) <= 1e-7

    def test_scalar_kappa_one(self):
        # no pi root: the symmetric solution is P_min
        R, _ = __import__("darlington").minimal_realization(
            siso_realization([0.5], [1.0, 1.0]))
        res = minimize_symmetric(R)
        assert res.degree == 2 and res.kappa == 1
        pmin, _ = solve_extremal(build_hat(symmetrize(R)))
        assert np.array_equal(res.solution.p, pmin.p)

    def test_squared_blaschke_scaled(self):
        # S = 0.6 ((s-1)/(s+1))^2: mu = 0.64 (1-s^2)^2, kappa = 0, n = 2:
        # a Jordan pi root, whose leading half chain gives P^-T = P
        p1 = 0.6 * np.array([1.0, -2.0, 1.0])
        q = np.array([1.0, 2.0, 1.0])
        R, _ = __import__("darlington").minimal_realization(siso_realization(p1, q))
        res = minimize_symmetric(R)
        assert res.degree == 2 and res.kappa == 0
        P = res.solution.p
        assert np.linalg.norm(np.linalg.inv(P.T) - P, 2) <= 1e-7 * np.linalg.norm(P, 2)

    def test_determinant_is_blaschke_of_degree(self, zeta2):
        res = minimize_symmetric(zeta2)
        T = res.extension
        for w in (0.0, 0.9, -3.0):
            d = np.linalg.det(evaluate(T, 1j * w))
            assert abs(abs(d) - 1.0) < 1e-9

    def test_q_degree_lower_bound(self, zeta2):
        # deg(S21^{-1} S12^T) = rank(P^-T - P) >= kappa for every solution,
        # and Sigma certifies at that degree (kappa = 0 here, and 1 on a
        # scalar)
        import darlington as dl
        scalar = dl.symmetrize(dl.minimal_realization(
            siso_realization([0.5], [1.0, 1.0]))[0])
        for R, kappa in ((zeta2, 0), (scalar, 1)):
            for sol in solve_extremal(build_hat(R)):
                gap = np.linalg.inv(sol.p.T) - sol.p
                rank = np.linalg.matrix_rank(gap, tol=1e-9 * np.linalg.norm(gap, 2))
                _, Q, _, _ = symmetric_unitary_extension(build_extension(R, sol), rank)
                assert Q.degree == rank >= kappa


def _norm_one_at_infinity(name: str) -> Realization:
    if name.startswith("diag"):  # diag(s/(s + 2), 0.5 (s - 1)/(s + 1))
        return direct_sum(siso_realization([0.0, 1.0], [2.0, 1.0]),
                          siso_realization([-0.5, 0.5], [1.0, 1.0]))
    p1, q = {"(s + 0.5)/(s + 1)": ([0.5, 1.0], [1.0, 1.0]),
             "s/(s + 2)": ([0.0, 1.0], [2.0, 1.0]),
             "(s^2 + 1)/(s + 1)^2": ([1.0, 0.0, 1.0], [1.0, 2.0, 1.0])}[name]
    return minimal_realization(siso_realization(p1, q))[0]


@pytest.mark.parametrize("name, omega0, degree, kappa", [
    ("(s + 0.5)/(s + 1)", 0.0, 1, 0),
    ("s/(s + 2)", 0.0, 1, 0),
    ("(s^2 + 1)/(s + 1)^2", 1.0, 2, 0),  # ||S(0)|| = 1 too
    ("diag(s/(s + 2), 0.5 (s - 1)/(s + 1))", 0.2, 3, 1),
])
def test_norm_one_at_infinity_is_moved_to_a_grid_point(name, omega0, degree, kappa,
                                                      count_calls):
    # ||D|| = 1: the synthesis runs on S(i omega0 + 1/s) at the grid point
    # where ||S(iw)|| is smallest and maps Sigma back to an extension of S,
    # of degree n + kappa; the map keeps its Gramian I.  It symmetrizes
    # only the moved realization
    R = _norm_one_at_infinity(name)
    seen = count_calls(symmetrize)
    res = minimize_symmetric(R)
    assert len(seen["symmetrize"]) == 1 and seen["symmetrize"][0].norm_d < 1 - 1e-6
    assert res.trace[0] == {"stage": "symmetrize", "seconds": res.trace[0]["seconds"],
                            "omega0": omega0}
    assert (res.degree, res.kappa) == (degree, kappa) and res.degree == R.n + kappa
    assert max(res.innerness, res.symmetry, res.block_match) <= 1e-12
    T = res.extension
    assert _lossless_residual(T, np.ones(T.n)) <= res.innerness
    assert np.linalg.norm(T.d - T.d.T, 2) <= 1e-12
    if R.outputs == 1:
        assert abs(evaluate(T, 2.0)[1, 1] - evaluate(R, 2.0)[0, 0]) <= 1e-12


def test_inner_input_is_not_contractive_anywhere():
    # (s - 1)/(s + 1) has norm 1 at every axis point
    with pytest.raises(NotContractiveError,
                       match="stage 'symmetrize': S is not strictly contractive at any point"):
        minimize_symmetric(siso_realization([-1.0, 1.0], [1.0, 1.0]))


def test_contractivity_is_refused_before_symmetry():
    # [[0, (s - 1)/(s + 1)], [1, 0]] is inner and not symmetric, with
    # ||D|| = 1: the contractive entry runs before symmetrize and refuses it
    R = Realization([[-1.0]], [[0.0, 1.0]], [[-2.0], [0.0]], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotContractiveError,
                       match="stage 'symmetrize': S is not strictly contractive at any point"):
        minimize_symmetric(R)


def test_non_finite_grid_response_is_a_staged_validation_error(nan_response):
    # s/(s + 2) has ||D|| = 1, so omega0 is read off the grid response
    with pytest.raises(ValidationError, match="^stage 'symmetrize': S has a non-finite "
                                              "response on the frequency grid$"):
        minimize_symmetric(siso_realization([0.0, 1.0], [2.0, 1.0]))


@pytest.mark.parametrize("d", [[[0.3]], [[0.2, 0.1j], [0.1j, -0.3]]])
def test_constant_function_certifies_at_degree_zero(d):
    D = np.array(d, dtype=complex)
    p = D.shape[0]
    R = Realization(np.zeros((0, 0)), np.zeros((0, p)), np.zeros((p, 0)), D)
    res = minimize_symmetric(R)
    assert (res.degree, res.kappa, res.n0, res.solution.p.shape) == (0, 0, 0, (0, 0))
    T = res.extension.d
    assert np.linalg.norm(T @ T.conj().T - np.eye(2 * p), 2) <= 1e-12
    assert np.linalg.norm(T - T.T, 2) <= 1e-12
    assert np.linalg.norm(T[p:, p:] - D, 2) <= 1e-12


def test_non_minimal_input_fails_in_symmetrize():
    # diag(f, f), f = 1/(s + 2), with a disconnected third state; the
    # realization is structurally symmetric but not minimal
    R = Realization(np.diag([-2.0, -2.0, -3.0]), np.eye(3, 2), np.eye(2, 3),
                    np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="stage 'symmetrize'.*minimal"):
        minimize_symmetric(R)
    with pytest.raises(ValidationError, match="minimal"):
        symmetrize(R)


@pytest.mark.parametrize("which", ["suite", "g12"])
def test_no_step_sigma_needs_a_positive_definite_gramian(which, instance_suite,
                                                         monkeypatch):
    # handed P_max, the pipeline builds a Sigma of degree n + kappa
    # whose lossless identities hold (innerness near 1e-15), but with poles
    # in the right half-plane: only its Gramian diag(J_Q, I), with
    # J_Q = Q.gramian not I, rejects it, naming the solution's conditioning
    if which == "suite":
        R = instance_suite[14].realization
    else:  # main.npz g12 #0, n = 12, p = 4
        with np.load(Path(__file__).parents[1] / "perfbench/inputs/main.npz") as z:
            R = Realization(*(z[f"g12.{k}"][0] for k in "abcd"))
    assert minimize_symmetric(R).kappa == R.n
    monkeypatch.setattr(darlington.reduction, "_extremal",
                        lambda hat, kinds: darlington.riccati._extremal(hat, ("maximal",)))
    with pytest.raises(ReductionError, match=r"stage 'symmetric-extension': the Gramian .* "
                       r"not positive definite \(\|\|P\|\| = .*, \|\|P\^-1\|\| = "
                       r".*, cond X = "):
        minimize_symmetric(R)


def test_sigma_of_the_wrong_degree_fails_its_stage(zeta2, monkeypatch):
    # handed P_min, whose Sigma has degree 2n - n0 = 4, in place of the
    # symmetric solution, whose Sigma has degree n + kappa = 2
    original = darlington.reduction.symmetric_unitary_extension
    monkeypatch.setattr(darlington.reduction, "_extremal",
                        lambda hat, kinds: darlington.riccati._extremal(hat, ("minimal",)))
    monkeypatch.setattr(darlington.reduction, "symmetric_unitary_extension",
                        lambda E, degree: original(E, 2))
    with pytest.raises(ValidationError) as excinfo:
        minimize_symmetric(zeta2)
    assert str(excinfo.value) == ("stage 'symmetric-extension': degree 4 of the unitary "
                                  "extension differs from n + kappa = 2")


@pytest.mark.parametrize("which", ["suite", "g12", "degree-0"])
def test_trace_records_each_stage_with_the_results_values(which, instance_suite):
    # the suite instance has kappa = 0 and pi roots, main.npz g12 #0 has
    # kappa = n; one record per stage, in order, within the call
    if which == "suite":
        R = instance_suite[18].realization
    elif which == "g12":
        with np.load(Path(__file__).parents[1] / "perfbench/inputs/main.npz") as z:
            R = Realization(*(z[f"g12.{k}"][0] for k in "abcd"))
    else:
        R = Realization(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                        np.diag([0.3, -0.2]))
    start = time.perf_counter()
    res = minimize_symmetric(R)
    wall = time.perf_counter() - start
    assert [rec["stage"] for rec in res.trace] == [
        "symmetrize", "riccati", "symmetric-extension", "finalize"]
    seconds = [rec["seconds"] for rec in res.trace]
    assert min(seconds) >= 0 and sum(seconds) <= wall
    symmetrized, riccati, sigma, final = (
        {k: v for k, v in rec.items() if k not in ("stage", "seconds")} for rec in res.trace)
    assert symmetrized == {"omega0": None}  # ||D|| < 1: no map
    sol, spec = res.solution, res.solution.spectrum
    chi = spec.chi_plus_roots
    gaps = [abs(a - b) / (1 + abs(a)) for i, a in enumerate(chi)
            for j, b in enumerate(chi) if i != j]
    assert riccati == {
        "kappa": res.kappa, "n0": res.n0, "cluster_tolerance": spec.cluster_tolerance,
        "riccati_residual": sol.residual_norm,
        # both norms read 0 at degree 0
        "p_norm": pytest.approx(np.linalg.norm(sol.p, 2) if R.n else 0.0, rel=1e-12),
        "p_inv_norm": pytest.approx(np.linalg.norm(np.linalg.inv(sol.p), 2) if R.n
                                    else 0.0, rel=1e-10),
        "cond_x": sol.subspace_condition,
        "chi_plus_gap": pytest.approx(min(gaps), rel=1e-12) if gaps else None}
    _, _, sres, cert = symmetric_unitary_extension(build_extension(symmetrize(R), sol),
                                                   res.kappa)
    assert sigma == {"degree": R.n + res.kappa, "lossless_residual": cert,
                     "symmetry_residual": sres, "q_inner": True}
    assert res.degree == sigma["degree"] and res.innerness == cert
    assert final == {"innerness": res.innerness, "symmetry": res.symmetry,
                     "block_match": res.block_match}
    json.dumps(res.trace, allow_nan=False)  # plain JSON, with no nan or infinity


def assert_factors_at_multiple_zeros(R: Realization) -> int:
    """Every point of the Blaschke cascade of R is a zero of Sigma on P_min
    of multiplicity at least 2; returns the number of factors.  The zeros
    of an inner Sigma are the mirrors -conj(lambda) of its poles."""
    steps = sequential_minimize(R)[1]
    sigma = sigma_min(symmetrize(R))
    _, clusters = cluster_ladder(-np.conj(sigma.poles()), default_cluster_tol(sigma.a))
    multiple = np.array([z for z, members in clusters if len(members) >= 2])
    for _, f, _ in steps:
        assert np.min(np.abs(multiple - f.xi)) <= 1e-8 * (1.0 + abs(f.xi))
    return len(steps)


def test_factor_points_are_multiple_zeros_of_sigma(zeta2, instance_suite):
    assert assert_factors_at_multiple_zeros(zeta2) == 1
    steps = [assert_factors_at_multiple_zeros(inst.realization)
             for inst in instance_suite if inst.expected_kappa < inst.n]
    assert sum(steps) > 0


@pytest.mark.parametrize("which", ["zeta2", "zeta1", "suite"])
def test_each_certificate_runs_once_per_realization(
        which, zeta1, zeta2, instance_suite, count_calls):
    # zeta2 has a semisimple pi root, zeta1 axis half-chains, the suite
    # instance Jordan pi roots
    R = {"zeta1": zeta1, "zeta2": zeta2,
         "suite": instance_suite[18].realization}[which]
    seen = count_calls(darlington.extension.innerness_residual,
                       darlington.realization.symmetry_residual,
                       darlington.realization.kalman_check,
                       darlington.realization.transfer_distance,
                       darlington.realization.freqresp)
    res = minimize_symmetric(R)
    # symmetrize is certified by its Gramian and intertwiner, the
    # extension, Q and Sigma by Gramian, and the final innerness is Sigma's
    # certificate.  The symmetry grid runs once, on Sigma, as its stage
    # check; the final realization, Sigma, is evaluated once, for its
    # symmetry and S block, in that cached response
    assert len(seen["symmetry_residual"]) == 1
    assert seen["symmetry_residual"][0] is res.extension
    finals = sum(T is res.extension for T in seen["freqresp"])
    assert finals == 1
    assert seen["innerness_residual"] == []
    assert seen["kalman_check"] == []
    assert seen["transfer_distance"] == []


@pytest.mark.parametrize("which", ["zeta2", "zeta1", "suite"])
def test_innerness_is_the_last_stage_certificate(which, zeta1, zeta2,
                                                 instance_suite):
    # the certificates of S_P and Q, taken before their lossless projection,
    # are reported; after it Sigma is balanced (Gramian I) to rounding.  The
    # grid oracle agrees
    R = {"zeta1": zeta1, "zeta2": zeta2,
         "suite": instance_suite[18].realization}[which]
    res = minimize_symmetric(R)
    T = res.extension
    E = build_extension(symmetrize(R), res.solution)
    _, Q, _, cert = symmetric_unitary_extension(E, res.kappa)
    assert res.innerness == cert == max(E.certificate, Q.unitary_residual) <= 1e-8
    assert _lossless_residual(T, np.eye(T.n)) <= 1e-14
    assert innerness_residual(T) <= 1e-8


@pytest.mark.parametrize("which", ["zeta2", "zeta1", "suite"])
def test_cholesky_factors_only_n_by_n(which, zeta1, zeta2, instance_suite,
                                      monkeypatch):
    # S_P is balanced by the Cholesky factor of P; Sigma, of n + kappa
    # states, is used as it comes
    R = {"zeta1": zeta1, "zeta2": zeta2,
         "suite": instance_suite[18].realization}[which]
    shapes, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda M, *args, **kwargs: shapes.append(np.shape(M))
                        or cholesky(M, *args, **kwargs))
    minimize_symmetric(R)
    assert shapes == [(R.n, R.n)]


@pytest.mark.parametrize("index", [0, 8, 18])
def test_one_svd_of_d_per_synthesis(index, instance_suite, monkeypatch):
    # the contractive entry reads ||D||_2 of the caller's R, and build_hat
    # and build_extension both require ||D||_2 < 1 of the one symmetrized
    # realization, which caches that norm as norm_d; a nonzero D (p = 1,
    # 2, 3) tells its SVD apart from those of other matrices.  Its D is
    # (D + D^T)/2, R's D up to rounding: bit for bit (suite inputs 0 and
    # 8), symmetrize hands it R's norm, so the SVD of R's D is its only one
    R = instance_suite[index].realization
    D = symmetrize(R).d
    assert np.any(D)
    R = Realization(R.a, R.b, R.c, R.d)  # nothing cached yet
    inputs, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda M, *args, **kwargs:
                        inputs.append(np.array(M)) or svd(M, *args, **kwargs))
    minimize_symmetric(R)
    assert sum(M.shape == D.shape and np.array_equal(M, D) for M in inputs) == 1


def test_a_nan_certificate_fails_the_final_gate(zeta2, monkeypatch):
    # nan compares false with every bound, so it must not pass as small
    original = darlington.reduction.symmetric_unitary_extension
    monkeypatch.setattr(darlington.reduction, "symmetric_unitary_extension",
                        lambda E, degree: (*original(E, degree)[:3], np.nan))
    with pytest.raises(ValidationError, match=r"stage 'finalize'.*innerness_residual nan"):
        minimize_symmetric(zeta2)


def test_a_nan_response_of_sigma_fails_the_symmetric_extension(zeta2, monkeypatch):
    # the probe response whose symmetry is sampled, Sigma's (S_P itself at
    # zeta2's kappa = 0), is nan: refused in its own stage, not raised by a norm
    response = darlington.realization.freqresp

    def nan_probe(R, pts):
        F = response(R, pts)
        return np.full(F.shape, np.nan) if sys._getframe(1).f_code.co_name == "_probe" else F

    monkeypatch.setattr(darlington.realization, "freqresp", nan_probe)
    with pytest.raises(ValidationError, match=r"stage 'symmetric-extension': symmetric "
                       r"extension failed the symmetry check \(nan\)"):
        minimize_symmetric(Realization(zeta2.a, zeta2.b, zeta2.c, zeta2.d))


@pytest.mark.parametrize("which, solves", [("zeta2", 1), ("zeta1", 1),
                                           ("suite", 1)])
def test_one_lyapunov_solve_per_synthesis(which, solves, zeta1, zeta2,
                                          instance_suite, monkeypatch):
    # the input's own Gramian, which the symmetrizer reads, is the only
    # Lyapunov solve outside the Newton refinement of P: the certificates
    # add none.  The coupled pairs are structurally symmetric
    # and need no intertwiner, but their Gramian P > 0 still certifies
    # them minimal.  A fresh R: the session fixtures keep a cached Gramian
    S = {"zeta1": zeta1, "zeta2": zeta2,
         "suite": instance_suite[18].realization}[which]
    R = Realization(S.a, S.b, S.c, S.d)
    callers = []
    original = darlington.linalg._schur_solve

    def counting(form, Q, conjugate=False, adjoint=False):
        if not conjugate:  # a Lyapunov solve
            callers.append(sys._getframe(1).f_code.co_name)
        return original(form, Q, conjugate, adjoint)

    monkeypatch.setattr(darlington.linalg, "_schur_solve", counting)
    res = minimize_symmetric(R)
    others = [name for name in callers if name != "_newton_refine"]
    assert others == ["_gramian"] * solves
    # a basis with pi or axis half-chains (zeta1, n0 = 2) is no ZTRSEN
    # block, and its graph P is kept uncorrected
    assert callers.count("_newton_refine") == 0
    assert res.n0 == {"zeta2": 0, "zeta1": 2, "suite": 0}[which]


@pytest.mark.parametrize("which", ["zeta2", "zeta1", "suite"])
def test_sigma_runs_no_eigvals(which, zeta1, zeta2, instance_suite, monkeypatch):
    # Sigma = S_P diag(Q, I) takes the spectra of S_P and Q, which their
    # certificates computed; eigvals still runs on the smaller matrices
    R = {"zeta1": zeta1, "zeta2": zeta2,
         "suite": instance_suite[18].realization}[which]
    res = minimize_symmetric(R)
    sigma = symmetric_unitary_extension(build_extension(symmetrize(R), res.solution),
                                        res.kappa)[0]
    seen = []
    eigvals = np.linalg.eigvals

    def recording(M):
        seen.append(np.array(M))
        return eigvals(M)

    def is_sigma_a(M):
        return M.shape == sigma.a.shape and np.allclose(M, sigma.a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    minimize_symmetric(R)
    assert not any(map(is_sigma_a, seen))
    # the recorder is live: it sees the poles of a fresh copy of Sigma
    Realization(sigma.a, sigma.b, sigma.c, sigma.d).poles()
    assert is_sigma_a(seen[-1])


def test_minimize_symmetric_never_solves_for_p_max(zeta2, instance_suite,
                                                    monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_extremal called")

    original = darlington.riccati.solve_extremal
    for modname, mod in list(sys.modules.items()):
        if modname == "darlington" or modname.startswith("darlington."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, refuse)
    for R in (zeta2, instance_suite[18].realization):
        assert minimize_symmetric(R).solution.kind == "symmetric"
