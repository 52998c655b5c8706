"""Inner extensions, unitary gauges, spectral-factor quotients, and the
symmetric unitary extension."""
import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import blaschke_realization, hermitian_order, invert, random_unitary

from darlington import (
    Realization,
    apply_gauge,
    build_extension,
    build_hat,
    compare_extensions,
    extension_from_left_factor,
    minimal_realization,
    riccati_residual,
    solve_extremal,
    symmetric_unitary_extension,
    symmetrize,
)
from darlington.errors import (
    DimensionError,
    NotContractiveError,
    NotSymmetricError,
    ValidationError,
)
from darlington.extension import (
    _lossless_projection,
    _lossless_residual,
    innerness_residual,
)
from darlington.realization import (
    compose,
    direct_sum,
    evaluate,
    frequency_grid,
    kalman_check,
    probe_points,
    symmetry_residual,
    transfer_distance,
)
from darlington.reduction import BlaschkeFactor
from darlington.scalar import poly_para, spectral_factor_poly
import numpy.polynomial.polynomial as npp

SQ3 = np.sqrt(3.0)


@pytest.fixture(scope="module")
def zeta2_pair(zeta2):
    pmin, pmax = solve_extremal(build_hat(zeta2))
    return zeta2, pmin, pmax


class TestBuildExtension:
    def test_worked_example_blocks(self, zeta2_pair):
        R, pmin, _ = zeta2_pair
        E = build_extension(R, pmin)
        # D = 0 so the constant block is the antidiagonal unitary
        DD = E.realization.d
        assert np.allclose(DD[:2, :2], np.zeros((2, 2)))
        assert np.allclose(DD[:2, 2:], np.eye(2))
        assert np.allclose(DD[2:, :2], np.eye(2))
        assert np.linalg.norm(DD @ DD.conj().T - np.eye(4), 2) < 1e-12
        assert kalman_check(E.realization).mcmillan_degree == 2
        assert innerness_residual(E.realization) <= 1e-8

    def test_s22_block_is_input(self, zeta2_pair):
        R, pmin, _ = zeta2_pair
        E = build_extension(R, pmin)
        for s in probe_points(R):
            assert np.linalg.norm(evaluate(E.s22, s) - evaluate(R, s), 2) < 1e-12

    def test_complex_solution_gives_symmetric_extension(self, zeta2):
        P = np.array([[2.0, 1j * SQ3], [-1j * SQ3, 2.0]])
        E = build_extension(zeta2, P)
        assert symmetry_residual(E.realization) < 1e-10
        assert innerness_residual(E.realization) <= 1e-9

    def test_scalar_lower_left_is_spectral_factor(self):
        # S = 0.5/(s+1); the outer factor from the polynomial pipeline
        # satisfies |S21|^2 = 1 - |S|^2 with stable zeros
        c = np.sqrt(0.5)
        R = Realization(np.array([[-1.0]]), np.array([[c]]),
                        np.array([[c]]), np.array([[0.0]]))
        pmin, _ = solve_extremal(build_hat(R))
        E = build_extension(R, pmin)
        q = np.array([1.0, 1.0])
        mu = npp.polysub(npp.polymul(q, poly_para(q)),
                         npp.polymul([0.5], poly_para([0.5])))
        p2 = spectral_factor_poly(mu)  # = s + sqrt(3)/2
        for w in (0.0, 0.4, -2.5):
            got = abs(evaluate(E.s21, 1j * w)[0, 0])
            want = abs(npp.polyval(1j * w, p2) / npp.polyval(1j * w, q))
            assert abs(got - want) < 1e-9
            total = abs(evaluate(E.s21, 1j * w)[0, 0]) ** 2 \
                + abs(evaluate(E.s22, 1j * w)[0, 0]) ** 2
            assert abs(total - 1.0) < 1e-10

    def test_rejects_bad_residual(self, zeta2):
        with pytest.raises(ValidationError, match="Riccati residual"):
            build_extension(zeta2, np.eye(2))  # R(I) != 0 for zeta = 2

    def test_rejects_d_not_strictly_contractive(self):
        # ||D|| = 1 leaves I - D D* singular; refused before any inverse
        R = Realization([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(NotContractiveError):
            build_extension(R, np.eye(1))

    @pytest.mark.parametrize("sign", [-1.0, 0.0])
    def test_rejects_p_not_positive_definite(self, zeta2_pair, sign):
        # -P_min and 0 are refused before any inverse of P is formed
        R, pmin, _ = zeta2_pair
        with pytest.raises(ValidationError, match="positive definite"):
            build_extension(R, sign * pmin.p)

    @pytest.mark.parametrize("P", [np.eye(2), np.ones(1)])
    def test_rejects_p_of_the_wrong_shape(self, P):
        R = Realization([[-1.0]], [[0.5]], [[0.5]], [[0.0]])
        with pytest.raises(DimensionError, match="P must be 1x1"):
            build_extension(R, P)

    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_rejects_non_finite_p_by_name(self, x):
        # refused before any product with P, so numpy warns of nothing
        R = Realization([[-1.0]], [[0.5]], [[0.5]], [[0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="P must be finite"):
                build_extension(R, np.array([[x]]))


class TestApplyGauge:
    def test_identity_gauge(self, zeta2_pair):
        R, pmin, _ = zeta2_pair
        E = build_extension(R, pmin)
        E2 = apply_gauge(E, np.eye(2), np.eye(2))
        assert np.allclose(E2.realization.d, E.realization.d)
        assert np.allclose(E2.realization.b, E.realization.b)
        assert np.allclose(E2.realization.c, E.realization.c)

    def test_transpose_gauge_symmetrizes(self, zeta2):
        # with P P^T = I the gauge U1 = U2^T keeps the extension
        # symmetric; identity already does here
        P = np.array([[2.0, 1j * SQ3], [-1j * SQ3, 2.0]])
        E = build_extension(zeta2, P)
        rng = np.random.default_rng(1)
        Z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        U, _ = np.linalg.qr(Z)
        E2 = apply_gauge(E, U, U.T)
        assert symmetry_residual(E2.realization) < 1e-9
        assert innerness_residual(E2.realization) <= 1e-8

    def test_random_gauge_preserves_innerness_and_s22(self, zeta2_pair):
        R, pmin, _ = zeta2_pair
        E = build_extension(R, pmin)
        rng = np.random.default_rng(7)
        Z1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        Z2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        U1, _ = np.linalg.qr(Z1)
        U2, _ = np.linalg.qr(Z2)
        E2 = apply_gauge(E, U1, U2)
        assert innerness_residual(E2.realization) <= 1e-8
        s = 1j * 0.3
        assert np.allclose(evaluate(E2.s22, s), evaluate(E.s22, s))

    def test_rejects_nonunitary(self, zeta2_pair):
        R, pmin, _ = zeta2_pair
        E = build_extension(R, pmin)
        with pytest.raises(ValidationError):
            apply_gauge(E, 2 * np.eye(2), np.eye(2))

    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_rejects_non_finite_gauge(self, zeta2_pair, x):
        # named before the unitarity check, whose SVD would not converge
        R, pmin, _ = zeta2_pair
        E = build_extension(R, pmin)
        bad = np.array([[x, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="U1 must be finite"):
            apply_gauge(E, bad, np.eye(2))
        with pytest.raises(ValidationError, match="U2 must be finite"):
            apply_gauge(E, np.eye(2), bad)


class TestFromLeftFactor:
    def test_round_trip(self, zeta2_pair):
        R, pmin, _ = zeta2_pair
        E = build_extension(R, pmin)
        E2 = extension_from_left_factor(R, E.s21)
        assert np.linalg.norm(E2.p_matrix - E.p_matrix, 2) < 1e-9

    def test_outer_factor_gives_minimal_solution(self):
        c = np.sqrt(0.5)
        R = Realization(np.array([[-1.0]]), np.array([[c]]),
                        np.array([[c]]), np.array([[0.0]]))
        pmin, _ = solve_extremal(build_hat(R))
        E = build_extension(R, pmin)
        E2 = extension_from_left_factor(R, E.s21)
        assert abs(E2.p_matrix[0, 0] - pmin.p[0, 0]) < 1e-10

    def test_hand_lyapunov(self):
        # A = -1, B = C = 1, D = 0: Lyapunov -2P + b1^2 + 1 = 0
        R = Realization(np.array([[-1.0]]), np.array([[1.0]]),
                        np.array([[1.0]]), np.array([[0.0]]))
        pmin, _ = solve_extremal(build_hat(R))
        E = build_extension(R, pmin)
        b1 = E.realization.b[0, 0]
        P_hand = (abs(b1) ** 2 + 1.0) / 2.0
        assert abs(P_hand - pmin.p[0, 0]) < 1e-10

    def test_rejects_wrong_value_at_infinity(self, zeta2_pair):
        R, pmin, _ = zeta2_pair
        E = build_extension(R, pmin)
        bad = Realization(E.s21.a, E.s21.b, E.s21.c, 0.5 * E.s21.d)
        with pytest.raises(ValidationError):
            extension_from_left_factor(R, bad)

    def test_rejects_a_off_by_a_relative_2e_6(self, zeta2_pair):
        # the 1e-12 bound is absolute: a relative difference of 2e-6
        # would otherwise give the extension of a different A
        R, pmin, _ = zeta2_pair
        S21 = build_extension(R, pmin).s21
        bad = Realization(S21.a * (1 + 2e-6), S21.b, S21.c, S21.d)
        with pytest.raises(ValidationError, match=r"must share the \(C, A\) pair"):
            extension_from_left_factor(R, bad)

    def test_rejects_unstable_a_by_its_eigenvalue(self):
        # A = diag(-1, 1) has no imaginary eigenvalue, but the Lyapunov
        # equation for P needs A Hurwitz
        R = Realization(np.diag([-1.0, 1.0]), np.array([[1.0], [1.0]]),
                        np.array([[1.0, 1.0]]), np.array([[0.0]]))
        S21 = Realization(R.a, np.array([[0.5], [0.5]]), R.c, np.array([[1.0]]))
        with pytest.raises(ValidationError, match=r"eigenvalue 1\+0j.*Hurwitz"):
            extension_from_left_factor(R, S21)

    def test_rejects_a_pole_within_the_guard_of_the_axis(self):
        # -1e-8 is left of any fixed absolute bound like -1e-10, but within
        # half the pole guard 1e-7 (1 + ||A||), where the pole is its own mirror
        R = Realization(np.diag([-1.0, -1e-8]), np.array([[1.0], [1.0]]),
                        np.array([[1.0, 1.0]]), np.array([[0.0]]))
        S21 = Realization(R.a, np.array([[0.5], [0.5]]), R.c, np.array([[1.0]]))
        with pytest.raises(ValidationError, match="not in the open left half-plane"):
            extension_from_left_factor(R, S21)


class TestCompareExtensions:
    def test_equal_extensions_give_constant_identity(self, zeta2_pair):
        R, pmin, _ = zeta2_pair
        E = build_extension(R, pmin)
        Q = compare_extensions(E, E)
        assert Q.degree == 0
        assert np.allclose(Q.realization.d, np.eye(2), atol=1e-12)
        assert Q.inner_flag

    def test_min_to_max_inner_of_full_rank(self, zeta2_pair):
        R, pmin, pmax = zeta2_pair
        E1 = build_extension(R, pmin)
        E2 = build_extension(R, pmax)
        Q = compare_extensions(E1, E2)
        assert Q.degree == 2
        assert Q.inner_flag
        assert np.max(Q.realization.poles().real) < 0

    def test_reversed_order_not_inner(self, zeta2_pair):
        R, pmin, pmax = zeta2_pair
        E1 = build_extension(R, pmin)
        E2 = build_extension(R, pmax)
        Q = compare_extensions(E2, E1)
        assert Q.degree == 2
        assert not Q.inner_flag
        assert Q.unitary_residual <= 1e-8

    def test_rejects_s_block_off_by_a_relative_2e_6(self, zeta2_pair):
        # the 1e-10 bound is absolute, so the extension of a different S
        # is refused as such, not as a quotient that fails its lossless
        # certificate
        R, pmin, _ = zeta2_pair
        R2 = Realization(R.a * (1 + 2e-6), R.b, R.c, R.d)
        E2 = build_extension(R2, solve_extremal(build_hat(R2))[1])
        with pytest.raises(ValidationError, match="do not share the same S block"):
            compare_extensions(build_extension(R, pmin), E2)

    def test_p_to_extension_injective(self, zeta2_pair):
        R, pmin, pmax = zeta2_pair
        E1 = build_extension(R, pmin)
        E2 = build_extension(R, pmax)
        diff = max(
            np.linalg.norm(evaluate(E1.s21, s) - evaluate(E2.s21, s), 2)
            for s in probe_points(E1.realization, E2.realization))
        assert diff > 1e-3


def _extremal_extensions(instance_suite, name):
    inst = next(i for i in instance_suite if i.name == name)
    Rs = symmetrize(inst.realization)
    pmin, pmax = solve_extremal(build_hat(Rs))
    return inst, pmin, build_extension(Rs, pmin), build_extension(Rs, pmax)


class TestClosedFormQuotient:
    @pytest.mark.parametrize("name", ["p1-n3-k0-ax1", "p2-n3k0-n1kg", "p2-n2k0-n2k0"])
    def test_matches_staircase_oracle(self, instance_suite, name):
        inst, pmin, E1, E2 = _extremal_extensions(instance_suite, name)
        Q = compare_extensions(E1, E2)
        assert Q.realization.n == inst.n - inst.expected_n0
        # Q on all n states of the closed loop, minimized by the staircase
        C = E1.s22.c
        d21inv = np.linalg.inv(E1.s21.d)
        gamma = E2.p_matrix - E1.p_matrix
        raw = Realization(pmin.z, gamma @ C.conj().T @ d21inv, -d21inv @ C,
                          np.eye(inst.p))
        oracle, _ = minimal_realization(raw)
        assert transfer_distance(Q.realization, oracle) <= 1e-8

    def test_rotated_range_fails_invariance(self, instance_suite):
        # same rank as P_max - P_min, but a range that Z does not keep
        inst, _, E1, E2 = _extremal_extensions(instance_suite, "p1-n3-k0-ax1")
        assert inst.expected_n0 == 1
        W = random_unitary(np.random.default_rng(3), inst.n)
        gamma = E2.p_matrix - E1.p_matrix
        bad = dataclasses.replace(
            E2, p_matrix=E1.p_matrix + W @ gamma @ W.conj().T)
        with pytest.raises(ValidationError, match="invariance residual"):
            compare_extensions(E1, bad)


class TestSymmetricUnitaryExtension:
    def test_involutive_solution_gives_constant_q(self, zeta2, monkeypatch):
        P = np.array([[2.0, 1j * SQ3], [-1j * SQ3, 2.0]])
        E = build_extension(zeta2, P)

        def no_inverse(M):
            raise AssertionError("a degree-0 quotient inverted a matrix")
        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        sigma, Q, _, _ = symmetric_unitary_extension(E, 0)  # P^-T = P
        monkeypatch.undo()
        # no cascade with a 0-state identity, and its probe response read
        # no ||A||_2: the Frobenius bracket cleared every probe point
        assert "_operands" not in vars(sigma)
        assert "_probe" in vars(sigma) and "norm_a" not in vars(sigma)
        assert Q.degree == 0
        # Q = I, constant: Sigma is the projected S_P on the state L^-1 x
        assert Q.realization.n == 0 and Q.unitary_residual == 0.0 and Q.inner_flag
        assert Q.gramian.shape == (0, 0)
        big, L = E.realization, np.linalg.cholesky(E.p_matrix)
        LB = sla.solve_triangular(L, np.hstack([big.a @ L, big.b]), lower=True)
        sp = Realization(LB[:, :2], LB[:, 2:], big.c @ L, big.d)
        projected = _lossless_projection(sp, np.ones(2))
        assert all(np.array_equal(getattr(sigma, k), getattr(projected, k)) for k in "abcd")
        assert kalman_check(sigma).mcmillan_degree == 2
        assert innerness_residual(sigma) <= 1e-8
        assert symmetry_residual(sigma) <= 1e-8

    def test_minimal_solution_doubles_degree(self, zeta2_pair):
        R, pmin, _ = zeta2_pair
        E = build_extension(R, pmin)
        sigma, Q, _, cert = symmetric_unitary_extension(E, 2)
        assert "_operands" in vars(sigma)
        assert "_probe" in vars(sigma) and "norm_a" not in vars(sigma)
        assert Q.degree == 2 and Q.inner_flag
        assert kalman_check(sigma).mcmillan_degree == 4  # 2n - n0
        # the returned residual is the larger factor certificate before the
        # projection; after it Sigma's holds on diag(Q.gramian, I) = I to
        # rounding: Sigma comes balanced
        assert np.array_equal(Q.gramian, np.eye(2))
        assert cert == max(E.certificate, Q.unitary_residual) <= 1e-8
        assert _lossless_residual(sigma, np.eye(4)) <= 1e-14
        assert innerness_residual(sigma) <= 1e-8
        assert symmetry_residual(sigma) <= 1e-8

    @pytest.mark.parametrize("degree", [-1, 3])
    def test_rejects_a_degree_of_q_outside_the_states(self, zeta2_pair, degree):
        R, pmin, _ = zeta2_pair
        with pytest.raises(ValidationError, match=f"degree of Q must be in 0..2, got {degree}"):
            symmetric_unitary_extension(build_extension(R, pmin), degree)

    def test_maximal_solution_not_inner(self, zeta2_pair):
        R, _, pmax = zeta2_pair
        E = build_extension(R, pmax)
        sigma, Q, _, _ = symmetric_unitary_extension(E, 2)
        assert Q.degree == 2 and not Q.inner_flag
        assert symmetry_residual(sigma) <= 1e-8
        # unitary on the axis even though not inner
        from darlington.extension import innerness_residual
        assert innerness_residual(sigma) <= 1e-8

    def test_rejects_nonsymmetric_source(self):
        rng = np.random.default_rng(2)
        A = np.diag([-1.0, -2.0])
        B = rng.normal(size=(2, 2)) * 0.4
        C = rng.normal(size=(2, 2)) * 0.4
        R = Realization(A, B, C, np.zeros((2, 2)))
        pmin, _ = solve_extremal(build_hat(R))
        E = build_extension(R, pmin)
        with pytest.raises(NotSymmetricError):
            symmetric_unitary_extension(E, 2)


@pytest.fixture(scope="module")
def suite_sigmas(zeta2, instance_suite) -> list:
    """(E, symmetric_unitary_extension(E)) for P_min and P_max of zeta2
    and every frozen-suite instance."""
    out = []
    for R in [zeta2] + [inst.realization for inst in instance_suite]:
        Rs = symmetrize(R)
        for P in solve_extremal(build_hat(Rs)):
            E = build_extension(Rs, P)
            out.append((E, symmetric_unitary_extension(E, Rs.n - P.spectrum.n0)))
    return out


@pytest.fixture(scope="module")
def suite_stages(suite_sigmas) -> list:
    """(name, realization, Gramian) of S_P, Q and Sigma for P_min and
    P_max of zeta2 and every frozen-suite instance."""
    stages = []
    for E, (sigma, Q, _, _) in suite_sigmas:
        stages += [("S_P", E.realization, E.p_matrix),
                   ("Q", Q.realization, Q.gramian),
                   ("Sigma", sigma, sla.block_diag(Q.gramian, np.eye(E.realization.n)))]
    return stages


def test_lossless_projection_restores_the_identities(suite_sigmas):
    # each factor of Sigma, once certified on its Gramian J = diag(j), is
    # replaced by its projection, on which both lossless identities hold to
    # rounding; it moves A and C by about the residual it removes
    for _, (_, Q, _, _) in suite_sigmas:
        j, R = np.diag(Q.gramian), Q.realization
        if not R.n:
            continue
        bad = Realization(R.a, R.b * (1 + 1e-9), R.c, R.d)
        out = _lossless_projection(bad, j)
        assert np.array_equal(out.poles(), bad.poles())
        assert _lossless_residual(out, j) <= 1e-14 < _lossless_residual(bad, j)
        scale = 1 + np.linalg.norm(R.a, 2) + np.linalg.norm(R.b, 2) ** 2
        assert np.linalg.norm(out.a - bad.a, 2) + np.linalg.norm(out.c - bad.c, 2) <= 1e-8 * scale


def test_sigma_is_certified_on_a_signature(suite_sigmas):
    # Q.gramian is a +-1 diagonal, I exactly when Q is inner (on P_min);
    # Sigma's certificate on diag(Q.gramian, I) holds to rounding, and the
    # one returned is its factors' before their projection
    inner = []
    for E, (sigma, Q, _, cert) in suite_sigmas:
        J = np.diag(Q.gramian)
        assert np.array_equal(Q.gramian, np.diag(J))
        assert np.all(np.isin(J, (-1.0, 1.0)))
        assert np.all(J == 1.0) == Q.inner_flag
        X = sla.block_diag(Q.gramian, np.eye(E.realization.n))
        assert cert == max(E.certificate, Q.unitary_residual) <= 1e-10
        assert _lossless_residual(sigma, X) <= 1e-14
        inner.append(Q.inner_flag)
    # P_min gives an inner Sigma, P_max one that is not (unless Q is constant)
    assert all(inner[::2]) and not all(inner[1::2])


class TestGramianCertificates:
    """The lossless identities on the closed-form Gramians, against the
    frequency grid and the Kalman ranks as oracles."""

    def test_accepts_every_stage(self, suite_stages):
        assert len(suite_stages) == 126
        for name, R, X in suite_stages:
            assert _lossless_residual(R, X) <= 1e-10, name
            assert innerness_residual(R) <= 1e-8, name
            assert kalman_check(R).mcmillan_degree == R.n, name

    def test_rejects_scaled_b(self, suite_stages):
        for name, R, X in suite_stages:
            bad = Realization(R.a, R.b * (1 + 1e-6), R.c, R.d)
            assert _lossless_residual(bad, X) > 1e-8, name

    def test_rejects_unobservable_state(self, suite_stages):
        # an extra stable state that no output sees, with its own Gramian
        # 1/2: unitary on the grid, but C X + D B* = 0 fails
        hidden = Realization([[-1.0]], [[1.0]], [[0.0]], np.eye(1))
        for name, R, X in suite_stages:
            ext = direct_sum(R, hidden)
            assert innerness_residual(ext) <= 1e-8, name
            assert _lossless_residual(ext, sla.block_diag(X, 0.5)) > 1e-8, name

    def test_rejects_wrong_gramian(self, suite_stages):
        for name, R, X in suite_stages:
            assert _lossless_residual(R, X * (1 + 1e-6)) > 1e-8, name

    def test_mirror_pole_pair_leaves_minimality_to_kalman(self, instance_suite):
        # on P_max, a pole of Q lies 2.8e-6 from the mirror -conj(lambda)
        # of a pole of S.  Balanced Sigma's pole guard, 1.9e-6, just misses
        # it; under the diagonal similarity diag(t), whose larger ||A||
        # widens the guard to 4.3e-6, the pair is inside, yet Sigma is
        # minimal and certified on diag(t) X diag(t)
        inst = next(i for i in instance_suite if i.name == "p1-n6-kg-ax0")
        Rs = symmetrize(inst.realization)
        pmax = solve_extremal(build_hat(Rs))[1]
        sigma, Q, _, _ = symmetric_unitary_extension(build_extension(Rs, pmax),
                                                     Rs.n - pmax.spectrum.n0)
        t = np.linspace(1.0, 10.0, sigma.n)
        scaled = Realization(sigma.a * t[:, None] / t, sigma.b * t[:, None],
                             sigma.c / t, sigma.d)
        lam = scaled.poles()
        assert np.min(np.abs(lam[:, None] + lam.conj())) <= scaled.pole_guard
        X = sla.block_diag(Q.gramian, np.eye(Rs.n))
        assert _lossless_residual(scaled, t[:, None] * X * t) <= 1e-10

    def test_mirror_pole_pair_with_a_cancellation_is_not_minimal(self):
        # B B^-1 = I is all-pass with D = I, but its poles -conj(xi) and xi
        # form a mirror pair and cancel, so the Kalman ranks refuse it on
        # any nonsingular X
        B = blaschke_realization(BlaschkeFactor(xi=1.2 + 0.1j, u=np.array([1.0, 0.0])))
        R = compose(B, invert(B))
        lam = R.poles()
        assert np.min(np.abs(lam[:, None] + lam.conj())) <= R.pole_guard
        assert not kalman_check(R).minimal
        assert _lossless_residual(R, np.eye(R.n)) == np.inf

    def test_rejects_the_other_extremal_solution(self, zeta2_pair):
        R, pmin, pmax = zeta2_pair
        E = build_extension(R, pmin)
        assert _lossless_residual(E.realization, pmax.p) > 1e-2


class TestSuiteInvariants:
    def test_q_degree_equals_gamma_rank(self, instance_suite):
        from darlington import symmetrize
        for inst in instance_suite[:8]:
            Rs = symmetrize(inst.realization)
            pmin, pmax = solve_extremal(build_hat(Rs))
            E1 = build_extension(Rs, pmin)
            E2 = build_extension(Rs, pmax)
            Q = compare_extensions(E1, E2)
            tol = 1e-9 * max(1.0, np.linalg.norm(pmax.p, 2))
            assert Q.degree == np.linalg.matrix_rank(pmax.p - pmin.p, tol), inst.name
            assert Q.inner_flag, inst.name
            assert hermitian_order(pmin.p, pmax.p) in ("less_equal", "equal")
            # the reversed quotient has the same degree and is not inner
            reverse = compare_extensions(E2, E1)
            assert reverse.degree == Q.degree > 0, inst.name
            assert not reverse.inner_flag, inst.name
            assert hermitian_order(pmax.p, pmin.p) == "greater_equal", inst.name

    @pytest.mark.parametrize("kind", [0, 1], ids=["P_min", "P_max"])
    def test_extension_carries_the_riccati_data(self, instance_suite, kind):
        # R(P) is the extension's Lyapunov residual A P + P A* + B1 B1* + B B*,
        # and A - B1 D21^{-1} C is the closed loop Z = A_hat + P C_hat* C_hat
        for inst in instance_suite:
            Rs = symmetrize(inst.realization)
            hat = build_hat(Rs)
            sol = solve_extremal(hat)[kind]
            E = build_extension(Rs, sol)
            big, P, p = E.realization, E.p_matrix, inst.p
            scale = 1.0 + np.linalg.norm(P, 2) ** 2
            # B1 B1* + B B* is R(P) - A P - P A*, each side of order ||P||^2
            BB = big.b @ big.b.conj().T
            shift = hat.a_hat - Rs.a
            rest = P @ hat.csc @ P + shift @ P + P @ shift.conj().T + hat.bbs
            assert np.linalg.norm(BB - rest, 2) <= 1e-12 * scale, inst.name
            lyap = Rs.a @ P + P @ Rs.a.conj().T + BB
            assert abs(np.linalg.norm(lyap, 2) - riccati_residual(hat, P)) \
                <= 1e-12 * scale, inst.name
            Z = big.a - big.b[:, :p] @ np.linalg.inv(big.d[p:, :p]) @ big.c[p:]
            assert np.linalg.norm(Z - sol.z, 2) <= \
                1e-12 * max(1.0, np.linalg.norm(sol.z, 2)), inst.name

    def test_outer_factor_zeros_stable(self, instance_suite):
        from darlington import symmetrize
        for inst in instance_suite[:8]:
            Rs = symmetrize(inst.realization)
            pmin, _ = solve_extremal(build_hat(Rs))
            E = build_extension(Rs, pmin)
            zeros = np.linalg.eigvals(pmin.z)
            assert np.max(zeros.real) <= 1e-7, inst.name


def test_frequency_grid_has_61_points():
    g = frequency_grid()
    assert len(g) == 61
    assert 0.0 in g
    assert np.max(np.abs(g)) == 750.0
