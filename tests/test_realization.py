"""Realization algebra: evaluation, minimality, composition calculus,
symmetrization, Moebius preconditioning."""
import re

import numpy as np
import pytest
import scipy.linalg as sla

import darlington.realization
from darlington import (
    DegreeCertificate,
    Realization,
    apply_gauge,
    build_extension,
    build_hat,
    compose,
    freqresp,
    linalg,
    minimal_realization,
    minimize_symmetric,
    mobius_precondition,
    solve_extremal,
    symmetric_unitary_extension,
    symmetrize,
)
from darlington.errors import (
    DimensionError,
    NotSymmetricError,
    PoleError,
    ValidationError,
)
from darlington.realization import (
    _computed,
    _exactly_symmetric,
    _intertwiner,
    _structurally_symmetric,
    _values_and_derivatives,
    direct_sum,
    evaluate,
    frequency_grid,
    kalman_check,
    probe_points,
    symmetry_residual,
    transfer_distance,
    transpose,
)
from darlington.linalg import spectral_norm
from darlington.reduction import BlaschkeFactor
from darlington.riccati import _extremal

from conftest import blaschke_realization, invert, para_conjugate


def scalar_lag(a=-1.0, b=1.0, c=1.0, d=0.0) -> Realization:
    return Realization(np.array([[a]]), np.array([[b]]),
                       np.array([[c]]), np.array([[d]]))


def mirror_pair() -> Realization:
    """1/(s + 1) + 2/(s - 1), minimal, whose poles -1 and 1 form a mirror
    pair: the Gramian equations of A are singular, those of A - 2 I not."""
    return Realization(np.diag([-1.0, 1.0]), np.array([[1.0], [1.0]]),
                       np.array([[1.0, 2.0]]), np.array([[0.0]]))


class TestEvaluate:
    def test_first_order(self):
        assert abs(evaluate(scalar_lag(), 0.0)[0, 0] - 1.0) < 1e-14

    def test_infinity_returns_d(self):
        R = Realization(np.array([[-2.0]]), np.array([[1.0]]),
                        np.array([[1.0]]), np.array([[0.0]]))
        assert evaluate(R, float("inf"))[0, 0] == 0.0

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            evaluate(scalar_lag(), -1.0)

    def test_derivative_at_a_pole_rejected(self):
        with pytest.raises(PoleError, match="point -1"):
            _values_and_derivatives(scalar_lag(), [-1.0])

    def test_derivative_of_first_order(self):
        # d/ds 1/(s + 1) = -1/(s + 1)^2
        assert abs(_values_and_derivatives(scalar_lag(), [1.0])[1][0, 0, 0] + 0.25) < 1e-15

    def test_partial_fraction_oracle(self):
        # random 2-state diagonalizable system against sum of simple poles
        rng = np.random.default_rng(11)
        lam = np.array([-1.3 + 0.4j, -0.6 - 1.1j])
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        R = Realization(np.diag(lam), b.reshape(2, 1), c.reshape(1, 2),
                        np.array([[0.3]]))
        s = 1j
        expected = 0.3 + sum(c[k] * b[k] / (s - lam[k]) for k in range(2))
        assert abs(evaluate(R, s)[0, 0] - expected) < 1e-12


class TestFreqresp:
    def random_system(self, n=4, p=2, m=3, seed=5):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) - 3 * np.eye(n)
        return Realization(A, rng.normal(size=(n, m)), rng.normal(size=(p, n)),
                           rng.normal(size=(p, m)))

    def test_matches_resolvent_oracle(self):
        R = self.random_system()
        pts = [0.0, 2.5j, -0.7j, 1.0 + 1.0j, np.inf, -4.0 + 0.3j]
        F = freqresp(R, pts)
        assert F.shape == (len(pts), 2, 3)
        for s, val in zip(pts, F):
            if np.isinf(s):
                want = R.d
            else:
                want = R.c @ np.linalg.inv(s * np.eye(R.n) - R.a) @ R.b + R.d
            assert np.linalg.norm(val - want, 2) <= 1e-12 * (1 + np.linalg.norm(want, 2))

    def test_zero_state_gives_stacked_d(self):
        D = np.array([[0.5, 1j], [2.0, -1.0]])
        R = Realization(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), D)
        F = freqresp(R, [1j, 3.0, np.inf])
        assert F.shape == (3, 2, 2)
        assert all(np.array_equal(val, D) for val in F)

    def test_one_pole_rejects_the_batch(self):
        with pytest.raises(PoleError, match="point -1"):
            freqresp(scalar_lag(), [0.0, 1j, -1.0, 2.0])

    @pytest.mark.parametrize("ratio, reads_norm, raises", [(0.5, True, True),
                                                          (1.05, True, False),
                                                          (1.2, False, False)])
    def test_the_pole_guard_reads_norm_a_only_inside_the_frobenius_bracket(
            self, ratio, reads_norm, raises):
        # ||A||_2 = 2 < ||A||_F = sqrt 5: a point farther than 1e-7 (1 + sqrt 5)
        # from the pole -1 is cleared without the SVD of A, a nearer one is
        # decided by the guard 1e-7 (1 + 2) with the same PoleError
        R = Realization(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.zeros((2, 2)))
        s = -1.0 + ratio * 3e-7
        if raises:
            with pytest.raises(PoleError) as info:
                freqresp(R, [1j, s])
            assert str(info.value) == (f"evaluation point {complex(s):g} is within "
                                       f"{R.pole_guard:g} of a pole")
        else:
            freqresp(R, [1j, s])
        assert ("norm_a" in vars(R)) == reads_norm

    def test_evaluate_is_the_single_point_case(self):
        R = self.random_system()
        for s in (0.3j, -2.0 + 1.0j, np.inf):
            assert np.array_equal(evaluate(R, s), freqresp(R, [s])[0])


class TestKalman:
    def test_minimal_first_order(self):
        cert = kalman_check(scalar_lag())
        assert cert.minimal and cert.mcmillan_degree == 1

    def test_disconnected_state(self):
        R = Realization(np.diag([-1.0, -2.0]), np.array([[1.0], [0.0]]),
                        np.array([[1.0, 0.0]]), np.array([[0.0]]))
        cert = kalman_check(R)
        assert cert.reachable_rank == 1
        assert not cert.minimal
        assert cert.mcmillan_degree == 1

    def test_coupled_pair_is_minimal(self, zeta2):
        cert = kalman_check(zeta2)
        assert cert.minimal and cert.mcmillan_degree == 2


class TestCalculus:
    def test_invert_formula(self):
        Ri = invert(scalar_lag(-1, 1, 1, 1))
        assert Ri.a[0, 0] == -2 and Ri.b[0, 0] == 1
        assert Ri.c[0, 0] == -1 and Ri.d[0, 0] == 1

    def test_invert_requires_invertible_d(self):
        with pytest.raises(ValidationError):
            invert(scalar_lag())

    def test_para_conjugate_on_axis(self):
        R = scalar_lag()
        Rp = para_conjugate(R)
        for w in (0.0, 0.7, -2.0):
            lhs = evaluate(Rp, 1j * w)
            rhs = evaluate(R, 1j * w).conj().T
            assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_para_conjugate_involution(self):
        # double application flips the signs of B and C but realizes the
        # identical function (pointwise, not just on the axis)
        R = scalar_lag(-2.0, 0.5, 1.5, 0.2)
        Rpp = para_conjugate(para_conjugate(R))
        assert np.array_equal(R.a, Rpp.a) and np.array_equal(R.d, Rpp.d)
        for s in (0.3, 1j * 0.9, 1.0 + 2.0j):
            assert np.allclose(evaluate(Rpp, s), evaluate(R, s), atol=1e-14)

    def test_transpose_evaluates_to_transpose(self):
        rng = np.random.default_rng(4)
        R = Realization(np.diag([-1.0, -2.0]), rng.normal(size=(2, 2)),
                        rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        s = 0.5 + 0.3j
        assert np.allclose(evaluate(transpose(R), s), evaluate(R, s).T)

    def test_compose_degree_adds_for_inner(self):
        f1 = blaschke_realization(BlaschkeFactor(xi=1.0 + 0.5j, u=np.array([1.0])))
        f2 = blaschke_realization(BlaschkeFactor(xi=0.4 - 0.2j, u=np.array([1.0])))
        prod = compose(f1, f2)
        assert kalman_check(prod).mcmillan_degree == 2

    def test_compose_evaluates_to_product(self):
        rng = np.random.default_rng(9)
        R1 = Realization(np.diag([-1.0]), rng.normal(size=(1, 2)),
                         rng.normal(size=(2, 1)), rng.normal(size=(2, 2)))
        R2 = Realization(np.diag([-2.0, -3.0]), rng.normal(size=(2, 2)),
                         rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        s = 1j * 0.8
        assert np.allclose(evaluate(compose(R1, R2), s),
                           evaluate(R1, s) @ evaluate(R2, s))


class TestMinimalRealization:
    def test_already_minimal_unchanged_degree(self):
        R = scalar_lag()
        out, cert = minimal_realization(R)
        assert out.n == 1 and cert.minimal

    def test_gramian_minimal_input_is_returned_unverified(self, count_calls):
        # both Gramians of R are nonsingular, which proves R minimal: no
        # state is cut, so there is nothing to verify
        seen = count_calls(darlington.realization.kalman_check,
                           darlington.realization.transfer_distance)
        R = Realization(np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]),
                        np.array([[1.0, 2.0]]), np.array([[0.5]]))
        out, cert = minimal_realization(R)
        assert out is R
        assert cert.minimal and cert.mcmillan_degree == 2
        assert seen == {"kalman_check": [], "transfer_distance": []}

    def test_stable_minimal_input_is_proved_by_its_gramians(self, count_calls):
        # both Gramians of a stable R are nonsingular: R is minimal, and no
        # Krylov staircase, Kalman rank test or transfer distance runs
        seen = count_calls(darlington.realization._krylov_span,
                           darlington.realization.kalman_check,
                           darlington.realization.transfer_distance)
        R = Realization(np.diag([-1.0, -2.0 + 1j, -3.0]), np.array([[1.0], [1.0], [0.5]]),
                        np.array([[1.0, 2.0, 1j]]), np.array([[0.5]]))
        out, cert = minimal_realization(R)
        assert out is R and cert == DegreeCertificate(3, 3, 3, 3)
        assert all(calls == [] for calls in seen.values())
        # the Gramian test factored A once, and R's poles are that form's diagonal
        assert np.array_equal(R.poles(), np.diag(R._schur[0]))

    def test_unstable_minimal_input_is_proved_by_its_gramians(self, count_calls):
        # with no mirror pair lambda_i + conj(lambda_j) = 0 both Gramians
        # exist and are nonsingular exactly when R is minimal, stable or not
        B = np.array([[1.0], [0.5]])
        R = Realization([[1.0, 0.3], [0.3, 2.0]], B, B.T, np.zeros((1, 1)))
        assert np.min(np.linalg.eigvals(R.a).real) > 0 and kalman_check(R).minimal
        seen = count_calls(darlington.realization._krylov_span)
        out, cert = minimal_realization(R)
        assert out is R and cert.minimal and cert.mcmillan_degree == 2
        assert seen == {"_krylov_span": []}

    def test_minimal_mirror_pair_is_proved_by_its_shifted_gramians(self, count_calls):
        # the Gramians are solved on A - sigma I, sigma = max Re lambda +
        # rho(A) = 2, whose poles -3 and -1 form no mirror pair
        seen = count_calls(darlington.realization._krylov_span)
        R = mirror_pair()
        out, cert = minimal_realization(R)
        assert out is R and cert == DegreeCertificate(2, 2, 2, 2)
        assert seen == {"_krylov_span": []}
        assert np.array_equal(np.sort(np.diag(R._shifted[0]).real), [-3.0, -1.0])

    @pytest.mark.parametrize("eps", [2e-9, 1e-11, 1e-13])
    def test_small_pole_keeps_its_degree(self, count_calls, eps):
        # 0.5 eps / (s + eps) has S(0) = 0.5; its pole lies within the
        # absolute pole guard 1e-7 (1 + eps) of its mirror, and the
        # Gramians of the shifted form (here sigma = -eps + rho(A) = 0)
        # prove the one state minimal, where the staircase cut it
        seen = count_calls(darlington.realization._krylov_span)
        R = scalar_lag(-eps, 1.0, 0.5 * eps)
        out, cert = minimal_realization(R)
        assert out is R and cert == DegreeCertificate(1, 1, 1, 1)
        assert seen == {"_krylov_span": []}

    @pytest.mark.parametrize("case", ["unstable", "unreachable", "below-rank-rule"])
    def test_the_staircase_decides_where_the_gramians_prove_nothing(self, count_calls,
                                                                     case):
        # the unstable pole xi of B^-1 cancels the pole -conj(xi) of B, so
        # the Gramians of the shifted form are singular; a state that B
        # does not reach makes P singular; and a P whose smallest
        # eigenvalue is 2.5e-16 of its largest, below n eps = 4.4e-16,
        # fails the rank rule, so the staircase's verified cut refuses it
        seen = count_calls(darlington.realization._krylov_span)
        if case == "unstable":
            B = blaschke_realization(BlaschkeFactor(xi=1.2 + 0.1j, u=np.array([1.0, 0.0])))
            out, cert = minimal_realization(compose(B, invert(B)))
            assert out.n == cert.mcmillan_degree == 0
        elif case == "unreachable":
            R = Realization(np.diag([-1.0, -2.0, -3.0]), np.array([[1.0], [0.0], [2.0]]),
                            np.array([[1.0, 1.0, 1.0]]), np.array([[0.0]]))
            out, cert = minimal_realization(R)
            assert out.n == cert.mcmillan_degree == 2
        else:
            R = Realization(np.diag([-1.0, -1e-3]), np.array([[1.0], [5e-10]]),
                            np.array([[1.0, 1e4]]), np.zeros((1, 1)))
            w = np.abs(np.linalg.eigvalsh(sla.solve_continuous_lyapunov(R.a, -R.b @ R.b.T)))
            assert w.min() < 2 * np.finfo(float).eps * w.max()
            with pytest.raises(ValidationError, match="transfer distance"):
                minimal_realization(R)
        assert len(seen["_krylov_span"]) >= 2

    def test_blaschke_cancellation(self):
        f = BlaschkeFactor(xi=1.2 + 0.1j, u=np.array([1.0, 0.0]) / 1.0)
        B = blaschke_realization(f)
        prod = compose(B, invert(B))
        out, cert = minimal_realization(prod)
        assert cert.mcmillan_degree == 0
        assert np.allclose(out.d, np.eye(2), atol=1e-10)

    def test_transfer_preserved(self):
        R = Realization(np.diag([-1.0, -2.0, -3.0]),
                        np.array([[1.0], [0.0], [2.0]]),
                        np.array([[1.0, 0.0, 1.0]]), np.array([[0.0]]))
        out, _ = minimal_realization(R)
        assert out.n == 2  # the -2 mode is disconnected
        assert transfer_distance(out, R) < 1e-9

    def test_inverse_sandwich_has_degree_zero(self):
        R = scalar_lag(-1.0, 1.0, 1.0, 0.5)
        sandwich = invert(compose(R, invert(R)))
        assert kalman_check(sandwich).mcmillan_degree == 0


class TestSymmetrize:
    def test_already_symmetric_returned_as_is(self, zeta2):
        assert symmetrize(zeta2) is zeta2

    def test_siso_symmetrization(self):
        R = Realization(np.diag([-1.0, -2.0]), np.array([[1.0], [1.0]]),
                        np.array([[1.0, 2.0]]), np.array([[0.0]]))
        out = symmetrize(R)
        assert np.linalg.norm(out.a - out.a.T) < 1e-9
        assert np.linalg.norm(out.b - out.c.T) < 1e-9
        assert transfer_distance(out, R) < 1e-8

    def test_signature_symmetric_real_input(self):
        # real signature-symmetric (J = diag(1, -1)) data with a
        # symmetric transfer function; output must be complex symmetric
        J = np.diag([1.0, -1.0])
        rng = np.random.default_rng(21)
        M = rng.normal(size=(2, 2))
        A = -np.eye(2) * 2.5 + J @ M.T @ J @ M * 0.1
        A = (A + J @ A.T @ J) / 2  # enforce A^T = J A J
        B = np.array([[1.0], [0.5]])
        C = (J @ B).T
        R = Realization(A, B, C, np.array([[0.1]]))
        assert symmetry_residual(R) < 1e-10  # signature symmetry => symmetric S
        out = symmetrize(R)
        assert np.linalg.norm(out.a - out.a.T) < 1e-8
        assert np.linalg.norm(out.b - out.c.T) < 1e-8

    @pytest.mark.parametrize("idx", range(20))
    def test_nearly_structural_input_comes_back_exactly_symmetric(self, instance_suite, idx,
                                                                   monkeypatch):
        # a 1e-12 asymmetric perturbation passes the 1e-9 structural check;
        # its exactly symmetric part reaches the real Schur form of the
        # Hamiltonian and certifies at the same degree
        inst = instance_suite[idx]
        Rs = symmetrize(inst.realization)
        rng = np.random.default_rng(idx)
        n, p = Rs.n, Rs.outputs
        R = Realization(Rs.a + 1e-12 * rng.normal(size=(n, n)),
                        Rs.b + 1e-12 * rng.normal(size=(n, p)), Rs.c, Rs.d)
        assert _structurally_symmetric(R) and not _exactly_symmetric(R)
        out = symmetrize(R)
        assert np.array_equal(out.a, out.a.T) and np.array_equal(out.c, out.b.T)
        assert np.array_equal(out.d, out.d.T)
        forms = []
        dgees = sla.lapack.dgees
        monkeypatch.setattr(sla.lapack, "dgees",
                            lambda *args, **kwargs: forms.append(1) or dgees(*args, **kwargs))
        assert minimize_symmetric(R).degree == inst.n + inst.expected_kappa
        assert forms == [1]

    @pytest.mark.parametrize("alpha", [1e6, 1e8])
    def test_frequency_rescaled_input_comes_back_exactly_symmetric(self, alpha):
        # R_alpha realizes S(s / alpha) for the symmetric S = (A0, B0, B0^T,
        # D0) under a similarity; the intertwining residual of its computed
        # T grows with ||A|| ~ alpha, which the intertwining bound allows for
        rng = np.random.default_rng(3)
        G = rng.standard_normal((4, 4))
        A0 = (G + G.T) / 2 - 4 * np.eye(4)
        B0 = 0.3 * rng.standard_normal((4, 2))
        S = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        Si = np.linalg.inv(S)
        R = Realization(S @ (alpha * A0) @ Si, S @ (np.sqrt(alpha) * B0),
                        np.sqrt(alpha) * B0.T @ Si, 0.1 * np.eye(2))
        out = symmetrize(R)
        assert _exactly_symmetric(out)
        pts = 1j * alpha * np.array([0.1, 1.0, 10.0])
        assert linalg.max_norm(freqresp(out, pts) - freqresp(R, pts)) <= 1e-8

    def test_rejects_asymmetric_transfer(self):
        rng = np.random.default_rng(3)
        R = Realization(np.diag([-1.0, -2.0]), rng.normal(size=(2, 2)),
                        rng.normal(size=(2, 2)), np.zeros((2, 2)))
        with pytest.raises(NotSymmetricError):
            symmetrize(R)


def with_extra_state(R: Realization, b_row, c_col) -> Realization:
    """R with one more state at -1, fed by ``b_row`` and seen through
    ``c_col``."""
    A = np.block([[R.a, np.zeros((R.n, 1))], [np.zeros((1, R.n)), -np.ones((1, 1))]])
    return Realization(A, np.vstack([R.b, b_row]), np.hstack([R.c, c_col]), R.d)


class TestSymmetrizeCertificate:
    """symmetrize is decided by its Gramian P and intertwiner T alone:
    each certificate quantity raises its own error, and no probe grid,
    Kalman rank or transfer distance runs, but for a structurally
    symmetric input with a mirror pair of poles (no Gramian)."""

    @pytest.fixture
    def general(self, instance_suite):
        R = instance_suite[10].realization  # p = 2, n = 4
        assert not _structurally_symmetric(R)
        return R

    @pytest.fixture
    def fallback_calls(self, monkeypatch):
        """Names of the sampled or Kalman checks symmetrize calls."""
        calls = []
        for name in ("symmetry_residual", "kalman_check", "transfer_distance"):
            original = getattr(darlington.realization, name)
            monkeypatch.setattr(darlington.realization, name,
                                lambda R, _o=original, _n=name: calls.append(_n) or _o(R))
        return calls

    def test_perturbed_b_is_not_symmetric(self, general, fallback_calls):
        B = general.b.copy()
        B[0, 0] *= 1 + 1e-6
        with pytest.raises(NotSymmetricError, match="not structurally symmetric"):
            symmetrize(Realization(general.a, B, general.c, general.d))
        assert fallback_calls == []

    def test_unreachable_state_is_not_minimal(self, general, fallback_calls):
        R = with_extra_state(general, np.zeros((1, 2)), np.ones((2, 1)))
        with pytest.raises(ValidationError, match="requires a minimal realization"):
            symmetrize(R)
        assert fallback_calls == []

    def test_unobservable_state_is_not_minimal(self, general, fallback_calls):
        R = with_extra_state(general, np.ones((1, 2)), np.zeros((2, 1)))
        with pytest.raises(ValidationError, match="not observable"):
            symmetrize(R)
        assert fallback_calls == []

    def test_reachability_is_checked_before_symmetry(self, general,
                                                     fallback_calls):
        # unreachable and not symmetric: the Gramian decides first
        B = general.b.copy()
        B[0, 0] *= 1 + 1e-3
        R = with_extra_state(Realization(general.a, B, general.c, general.d),
                             np.zeros((1, 2)), np.ones((2, 1)))
        with pytest.raises(ValidationError, match="not reachable"):
            symmetrize(R)
        assert fallback_calls == []

    def test_structurally_symmetric_non_minimal_is_rejected(self, zeta2):
        R = with_extra_state(zeta2, np.zeros((1, 2)), np.zeros((2, 1)))
        assert _structurally_symmetric(R)
        with pytest.raises(ValidationError, match="requires a minimal realization"):
            symmetrize(R)

    def test_mirror_pair_is_certified(self, fallback_calls):
        # a scalar function is symmetric; lambda = -1, 1 is a mirror pair
        # and the realization is not structurally symmetric, so the
        # Gramian and the intertwiner come from the shifted form A - 2 I
        R = mirror_pair()
        out = symmetrize(R)
        assert fallback_calls == []
        assert _exactly_symmetric(out)
        assert np.array_equal(out.poles(), R.poles())
        assert transfer_distance(out, R) <= 1e-14

    def test_structural_axis_pole_is_decided_by_the_shifted_gramian(self, fallback_calls):
        # the pole 1j is its own mirror, so the Gramian is solved on
        # A - 2 I, which proves R minimal with no Kalman ranks
        B = np.array([[1.0], [1.0]])
        R = Realization(np.diag([1j, -2.0]), B, B.T, np.array([[0.0]]))
        assert symmetrize(R) is R
        assert fallback_calls == []

    @pytest.mark.parametrize("which", ["structural", "general"])
    def test_non_hurwitz_input_fails_in_riccati(self, which, zeta2, general,
                                                monkeypatch):
        # P is indefinite but nonsingular, so the certificate accepts the
        # minimal symmetric realization with no Kalman ranks, and the
        # Riccati stage rejects the function
        S = {"structural": zeta2, "general": general}[which]
        R = Realization(-S.a, S.b, S.c, S.d)
        calls = []
        monkeypatch.setattr(darlington.realization, "kalman_check",
                            lambda R: calls.append(R) or kalman_check(R))
        assert transfer_distance(symmetrize(R), R) <= 1e-8
        assert calls == []
        assert transfer_distance(symmetrize(S), S) <= 1e-8
        assert calls == []
        with pytest.raises(ValidationError, match="stage 'riccati': symmetric "
                           "solution is not positive definite"):
            minimize_symmetric(R)

    @pytest.mark.parametrize("which", ["zeta1", "zeta2"])
    def test_structural_input_needs_no_sylvester_solve(self, which, zeta1, zeta2,
                                                       monkeypatch):
        R = {"zeta1": zeta1, "zeta2": zeta2}[which]
        solve = linalg._schur_solve

        def lyapunov_only(form, Q, conjugate=False):
            assert not conjugate, "Sylvester solve called"
            return solve(form, Q)

        monkeypatch.setattr(linalg, "_schur_solve", lyapunov_only)
        assert symmetrize(R) is R


def kronecker_intertwiner(A, B, C):
    """Oracle: least-squares T of T A = A^T T, T B = C^T in Kronecker
    form, O(n^6); only for checking the Gramian solve."""
    n = A.shape[0]
    I = np.eye(n)
    M = np.vstack([np.kron(A.T, I) - np.kron(I, A.T), np.kron(B.T, I)])
    rhs = np.concatenate([np.zeros(n * n), C.T.flatten(order="F")])
    T = np.linalg.lstsq(M, rhs, rcond=None)[0].reshape((n, n), order="F")
    return (T + T.T) / 2


def assert_matches_kronecker(R):
    T = _intertwiner(R)
    T_kron = kronecker_intertwiner(R.a, R.b, R.c)
    assert np.linalg.norm(T - T_kron, 2) <= 1e-10 * np.linalg.norm(T_kron, 2)


class TestIntertwiner:
    @pytest.mark.parametrize("idx", range(20))
    def test_matches_kronecker_on_suite(self, instance_suite, idx):
        assert_matches_kronecker(instance_suite[idx].realization)

    def test_matches_kronecker_on_jordan_block(self):
        # 0.6 ((s-1)/(s+1))^2: A carries a 2 x 2 Jordan block at -1
        from darlington.scalar import siso_realization
        R, _ = minimal_realization(siso_realization(
            0.6 * np.array([1.0, -2.0, 1.0]), np.array([1.0, 2.0, 1.0])))
        assert_matches_kronecker(R)

    def test_matches_kronecker_on_complex_p3(self):
        from test_contract import draw
        R = draw(("congruence", [(2, 0, 0), (2, None, 0), (1, None, 0)]), 31).realization
        assert R.outputs == 3 and np.linalg.norm(R.b.imag) > 1e-3
        assert_matches_kronecker(R)

    def test_real_data_stays_real(self):
        A = np.diag([-1.0, -2.0])
        R = Realization(A, np.array([[1.0], [1.0]]), np.array([[1.0, 2.0]]),
                        np.array([[0.0]]))
        T = _intertwiner(R)
        assert np.linalg.norm(T.imag) <= 1e-15 * np.linalg.norm(T)

    def test_symmetrize_computes_the_spectrum_of_a_once(self, monkeypatch,
                                                        instance_suite):
        # one Schur form of A gives the spectrum, the Gramian and the
        # Sylvester solve, and the unitary Takagi factor gives M^-1 in
        # closed form: no Schur form of A^T and no inverse of M
        S = instance_suite[10].realization
        R = Realization(S.a, S.b, S.c, S.d)  # nothing cached yet
        assert not _structurally_symmetric(R)
        schurs, spectra, inverses = [], [], []
        schur, eigvals, inv = sla.schur, np.linalg.eigvals, np.linalg.inv

        def recording_schur(M, *args, **kwargs):
            schurs.append(np.array(M))
            return schur(M, *args, **kwargs)

        def recording_eigvals(M):
            spectra.append(np.array(M))
            return eigvals(M)

        monkeypatch.setattr(sla, "schur", recording_schur)
        monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
        monkeypatch.setattr(np.linalg, "inv", lambda M: inverses.append(M) or inv(M))
        out = symmetrize(R)
        assert len(schurs) == 1 and np.array_equal(schurs[0], R.a)
        assert not any(np.array_equal(M, R.a) for M in spectra)
        assert inverses == []
        # the spectrum is the Schur diagonal, which the output keeps
        assert np.array_equal(R.poles(), np.diag(R._schur[0]))
        assert np.array_equal(out.poles(), R.poles())

    def test_mirrored_eigenvalues_are_solved_on_the_shifted_form(self):
        # A = diag(-1, 1): lambda_1 + conj(lambda_2) = 0 makes both
        # equations singular in A, not in A - 2 I, which keeps the
        # intertwiner: T = diag(1, 2) maps B to C^T
        T = _intertwiner(mirror_pair())
        assert np.allclose(T, np.diag([1.0, 2.0]), rtol=0, atol=1e-14)


class TestMobius:
    def test_boundary_case_moves_contractivity(self):
        # S(s) = s/(s+2): |S(inf)| = 1 but S(0) = 0
        R = Realization(np.array([[-2.0]]), np.array([[1.0]]),
                        np.array([[-2.0]]), np.array([[1.0]]))
        out = mobius_precondition(R, 0.0)
        assert np.linalg.norm(out.d, 2) < 1.0 - 1e-9
        # value matches S(i w0 + 1/s)
        for s in (1.0 + 0.5j, 2.0):
            assert np.allclose(evaluate(out, s), evaluate(R, 1.0 / s))

    def test_matches_the_change_of_variable_on_probe_points(self):
        rng = np.random.default_rng(11)
        A = -2.0 * np.eye(5) + 0.5 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        R = Realization(A, 0.3 * rng.normal(size=(5, 2)), 0.3 * rng.normal(size=(2, 5)),
                        0.1 * rng.normal(size=(2, 2)))
        w0 = 0.7
        out = mobius_precondition(R, w0)
        pts = probe_points(out)
        pts = pts[pts != 0]  # s = 0 maps to infinity, where both are D
        ref = freqresp(R, 1j * w0 + 1.0 / pts)
        assert np.max(np.abs(freqresp(out, pts) - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(out.d, R.d - R.c @ out.b)  # D is S(i w0) = D - C M B

    def test_pole_raises(self):
        R = Realization(np.array([[0.5j]]), np.array([[1.0]]), np.array([[1.0]]),
                        np.array([[0.0]]))
        with pytest.raises(PoleError):
            mobius_precondition(R, 0.5)

    @pytest.mark.parametrize("w0", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_raises(self, w0):
        # named before any arithmetic, whose SVD would not converge
        R = Realization(np.array([[-2.0]]), np.array([[1.0]]),
                        np.array([[-2.0]]), np.array([[1.0]]))
        with pytest.raises(ValidationError, match="omega0 must be finite"):
            mobius_precondition(R, w0)

    def test_degree_preserved(self):
        # S(s) = 1.1 (s/(s+1))^3: degree 3, |S(0)| = 0 but |S(inf)| > 1
        from darlington.scalar import siso_realization
        import numpy.polynomial.polynomial as npp
        q = npp.polyfromroots([-1.0, -1.0, -1.0])
        R = siso_realization(1.1 * np.array([0, 0, 0, 1.0]), q)
        assert np.linalg.norm(R.d, 2) > 1.0
        out = mobius_precondition(R, 0.0)
        assert np.linalg.norm(out.d, 2) < 1e-9
        assert kalman_check(out).mcmillan_degree == 3


def test_inner_degree_equals_det_zero_count():
    # for an inner function the degree equals the number of right-half-
    # plane zeros of its determinant (= eigenvalues of A - B D^{-1} C)
    u = np.array([0.6, 0.8j])
    B1 = blaschke_realization(BlaschkeFactor(xi=0.7 + 0.2j, u=u))
    B2 = blaschke_realization(BlaschkeFactor(xi=1.5, u=np.array([1.0, 0.0])))
    T = compose(B1, B2)
    cert = kalman_check(T)
    Az = T.a - T.b @ np.linalg.solve(T.d, T.c)
    zeros = np.linalg.eigvals(Az)
    assert cert.mcmillan_degree == 2
    assert int(np.sum(zeros.real > 0)) == 2


def test_direct_sum_blocks():
    R1 = scalar_lag()
    R2 = scalar_lag(-2.0, 1.0, 2.0, 0.5)
    D = direct_sum(R1, R2)
    s = 1j * 0.4
    V = evaluate(D, s)
    assert abs(V[0, 1]) < 1e-14 and abs(V[1, 0]) < 1e-14
    assert abs(V[0, 0] - evaluate(R1, s)[0, 0]) < 1e-14
    assert abs(V[1, 1] - evaluate(R2, s)[0, 0]) < 1e-14


class TestCascadeSpectra:
    """compose and direct_sum take the union of their operands' spectra,
    the eigenvalues of the diagonal blocks of their block-triangular A."""

    @staticmethod
    def operands():
        rng = np.random.default_rng(12)

        def draw(n, p, m):
            return Realization(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                               rng.normal(size=(n, m)), rng.normal(size=(p, n)),
                               rng.normal(size=(p, m)))
        return draw(4, 2, 5), draw(3, 3, 2), draw(0, 2, 2)

    def test_spectra_match_eigvals_of_the_assembled_a(self):
        R1, R2, static = self.operands()
        # the last is Sigma's shape, S_P diag(Q, I)
        for R in (compose(R2, R1), direct_sum(R1, R2), direct_sum(static, R2),
                  compose(R1, direct_sum(R2, static))):
            lam, ref = R.poles(), np.linalg.eigvals(R.a)
            assert lam.size == ref.size and not lam.flags.writeable
            gap = np.abs(lam[:, np.newaxis] - ref)
            assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= R.pole_guard

    def test_no_eigvals_of_the_assembled_a(self, monkeypatch):
        R1, R2, _ = self.operands()
        R1.poles(), R2.poles()
        monkeypatch.setattr(np.linalg, "eigvals", None)  # any call fails
        assert compose(R2, R1).poles().size == direct_sum(R1, R2).poles().size == 7


class TestCascadeResponse:
    """freqresp evaluates Sigma = compose(S_P, direct_sum(Q, I)) through
    its operands, as S_P(s) diag(Q(s), I), under Sigma's own pole guard."""

    @staticmethod
    def sigmas(instance_suite):
        """(Sigma, Q, S_P) on P_min for every frozen suite instance."""
        out = []
        for inst in instance_suite:
            Rs = symmetrize(inst.realization)
            (pmin,) = _extremal(build_hat(Rs), ("minimal",))
            E = build_extension(Rs, pmin)
            sigma, Q, _, _ = symmetric_unitary_extension(E, Rs.n - pmin.spectrum.n0)
            out.append((sigma, Q.realization, E.realization))
        return out

    def test_matches_the_flat_realization(self, instance_suite):
        for sigma, _, _ in self.sigmas(instance_suite):
            flat = Realization(sigma.a, sigma.b, sigma.c, sigma.d)
            pts = np.concatenate([probe_points(sigma), 1j * frequency_grid(),
                                  [0.5 + 2j, np.inf, 3.0, -np.inf]])
            F, ref = freqresp(sigma, pts), freqresp(flat, pts)
            assert np.all(spectral_norm(F - ref) <= 1e-12 * (1.0 + spectral_norm(ref)))
            # infinite points give D
            assert np.array_equal(F[-3], sigma.d) and np.array_equal(F[-1], sigma.d)

    def test_one_solve_per_factor(self, instance_suite, monkeypatch):
        # no solve of Sigma's size: one of n states for S_P, one of
        # deg Q = n - n0 states for Q, and none for the identity
        solve, sizes = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve",
                            lambda M, b: sizes.append(M.shape[-1]) or solve(M, b))
        for sigma, Q, SP in self.sigmas(instance_suite):
            del sizes[:]
            freqresp(sigma, probe_points(sigma))
            assert sizes == [n for n in (SP.n, Q.n) if n]

    def test_poles_of_each_factor_are_named(self, instance_suite):
        cases = [(sigma, Q, SP) for sigma, Q, SP in self.sigmas(instance_suite) if Q.n]
        assert cases
        for sigma, Q, SP in cases:
            for pole in (Q.poles()[0], SP.poles()[0]):
                with pytest.raises(PoleError, match=re.escape(f"evaluation point {pole:g} ")):
                    freqresp(sigma, [2.0, pole, 3.0])


def test_probe_points_avoid_poles(zeta2):
    pts = probe_points(zeta2)
    assert len(pts) == 32
    for s in pts:
        evaluate(zeta2, s)  # must not raise PoleError


class TestOwner:
    """A realization owns read-only copies of its data and computes the
    spectrum of A once."""

    @pytest.mark.parametrize("b, c", [((3, 1), (1, 2)), ((2, 1), (1, 3)),
                                      ((1, 2), (1, 2)), ((2, 1), (2, 1))],
                             ids=["b-3x1", "c-1x3", "b-1x2", "c-2x1"])
    def test_b_or_c_that_does_not_fit_n_is_a_dimension_error(self, b, c):
        # numpy's reshape would raise a bare ValueError ("cannot reshape"),
        # and a 2-d B or C of the right size but the wrong shape would be
        # reordered into the right one
        with pytest.raises(DimensionError,
                           match=re.escape(f"B must be 2x1 and C 1x2, got {b} and {c}")):
            Realization(-np.eye(2), np.zeros(b), np.zeros(c), [[0.0]])

    def test_arrays_are_read_only(self, zeta2):
        with pytest.raises(ValueError):
            zeta2.a[0, 0] = 1.0
        with pytest.raises(ValueError):
            zeta2.poles()[0] = 1.0

    def test_caller_array_is_copied(self):
        A = np.array([[-1.0 + 0.5j]])
        R = Realization(A, np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]]))
        A[0, 0] = -7.0
        assert R.a[0, 0] == -1.0 + 0.5j
        assert R.poles()[0] == -1.0 + 0.5j

    @pytest.mark.parametrize("name", "abcd")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=str)
    def test_non_finite_entry_is_refused(self, name, bad):
        data = dict(zip("abcd", (-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), [[0.5]])))
        data[name] = np.array(data[name], dtype=complex)
        data[name][0, -1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            Realization(*data.values())

    def test_entries_whose_sum_overflows_are_accepted(self):
        big = np.full((2, 2), 1e308)
        R = Realization(-big, big, big, [[1e308, 1e308], [1e308, 1e308]])
        assert all(np.array_equal(getattr(R, k), big) for k in "bcd")

    def test_stored_arrays_are_read_only_and_unaliased(self):
        # complex inputs need no dtype conversion, and 1-d B and C a reshape,
        # yet each stored array is a read-only copy
        data = [np.array([[-1.0, 0.5], [0.0, -2.0]], dtype=complex),
                np.array([1.0, 2.0], dtype=complex), np.array([3.0j, 4.0]),
                np.array([[0.5j]])]
        R = Realization(*data)
        assert (R.b.shape, R.c.shape) == ((2, 1), (1, 2))
        for M, given in zip((R.a, R.b, R.c, R.d), data):
            assert not M.flags.writeable and not np.shares_memory(M, given)
            with pytest.raises(ValueError):
                M[0, 0] = 1.0
        for given in data:
            given[...] = 9.0
        assert R.a[0, 0] == -1.0 and R.b[1, 0] == 2.0 and R.c[0, 0] == 3.0j

    def test_spectrum_computed_once(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def counting(M):
            calls.append(M.shape)
            return eigvals(M)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        R = Realization(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.zeros((2, 2)))
        freqresp(R, [1j, 2j])
        freqresp(R, [0.5, 3j])
        assert calls == [(2, 2)]

    def test_probe_response_computed_once(self, zeta2, count_calls):
        # the symmetry residual reads the cached response on probe_points
        seen = count_calls(darlington.realization.freqresp)
        R = Realization(zeta2.a, zeta2.b, zeta2.c, zeta2.d)
        first = symmetry_residual(R)
        assert symmetry_residual(R) == first
        pts, F, sym = R._probe
        assert seen["freqresp"] == [R]
        assert np.array_equal(pts, probe_points(R)) and sym == first
        assert np.array_equal(F, freqresp(R, pts))

    @pytest.mark.parametrize("name", "abcd")
    def test_computed_realization_refuses_a_nan(self, name):
        # the package's own constructor skips the copy and the shape check,
        # not the finiteness check
        data = dict(zip("abcd", (-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), [[0.5]])))
        data = {k: np.array(M, dtype=complex) for k, M in data.items()}
        R = _computed(*data.values())
        assert all(getattr(R, k) is M and not M.flags.writeable for k, M in data.items())
        data = {k: M.copy() for k, M in data.items()}
        data[name][0, -1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            _computed(*data.values())

    @pytest.mark.parametrize("which", ["zeta1", "zeta2", "suite"])
    def test_synthesis_builds_every_realization_unchecked(self, which, zeta1, zeta2,
                                                         instance_suite, monkeypatch):
        # the realizations a synthesis computes are not copied or checked
        # again: Realization.__post_init__ runs for the caller's input only
        S = {"zeta1": zeta1, "zeta2": zeta2, "suite": instance_suite[18].realization}[which]
        R = Realization(S.a, S.b, S.c, S.d)  # fresh: nothing cached yet
        calls = []
        post_init = Realization.__post_init__
        monkeypatch.setattr(Realization, "__post_init__",
                            lambda self: calls.append(1) or post_init(self))
        res = minimize_symmetric(R)
        assert calls == [] and res.degree == R.n + res.kappa

    def test_realizations_on_the_same_a_share_its_spectrum(self, instance_suite):
        # the extension S_P, its gauge transforms and its blocks are built
        # on the A of the symmetrized realization and keep what it cached
        Rs = symmetrize(instance_suite[10].realization)
        poles, norm_a = Rs.poles(), Rs.norm_a
        E = build_extension(Rs, solve_extremal(build_hat(Rs))[0])
        I = np.eye(Rs.outputs)
        for R in (E.realization, E.s21, E.s22, apply_gauge(E, I, I).realization):
            assert R.poles() is poles and R.norm_a == norm_a


def probe_points_loop(*realizations):
    """The seeded rejection loop probe_points once ran."""
    poles = np.concatenate([R.poles() for R in realizations]) \
        if realizations else np.zeros(0, dtype=complex)

    def clear(z):
        return poles.size == 0 or np.min(np.abs(poles - z)) > 1e-3

    fixed = [1j * w
             for w in (0.0, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0, 100.0, -100.0)
             if clear(1j * w)]
    right = float(np.max(poles.real)) + 1.0 if poles.size else 1.0
    rng = np.random.default_rng(0x5D1F)
    extra = []
    while len(extra) < 32 - len(fixed):
        z = complex(right + 3.0 * rng.random(), 6.0 * (rng.random() - 0.5))
        if clear(z):
            extra.append(z)
    return np.array(fixed + extra)


def test_probe_points_match_the_seeded_loop(zeta2, instance_suite):
    # an axis pole at i and 0 removes two of the fixed points
    axis = Realization(np.diag([1j, 0.0]), np.eye(2), np.eye(2), np.zeros((2, 2)))
    cases = [(), (zeta2,), (axis,), (axis, zeta2)] \
        + [(inst.realization,) for inst in instance_suite]
    for rs in cases:
        new, old = probe_points(*rs), probe_points_loop(*rs)
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
