"""Polynomial pipeline: para-conjugation, root clustering, the parity
split of mu, spectral factorization, and the explicit 2 x 2 extension."""
import json
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
import scipy.linalg as sla
from conftest import SPLIT_DRAWS

import darlington.extension
import darlington.realization
from darlington import (
    compute_mu,
    minimize_symmetric,
    scalar_minimal_extension,
    spectral_factor_poly,
)
from darlington.errors import SpectralSplitError, ValidationError
from darlington.extension import innerness_residual
from darlington.realization import evaluate, minimal_realization, symmetry_residual
from darlington.scalar import _para_split, poly_para, siso_realization

SQ3 = np.sqrt(3.0)
POOL = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "main.npz"
DATA = Path(__file__).resolve().parent / "data"


class TestPolyBasics:
    def test_para_of_linear(self):
        # (s + 1)* = -s + 1
        assert np.allclose(poly_para([1.0, 1.0]), [1.0, -1.0])

    def test_para_gives_modulus_on_axis(self):
        q = np.array([1.0, 1.0])
        qqs = npp.polymul(q, poly_para(q))
        val = npp.polyval(2j, qqs)
        assert abs(val - 5.0) < 1e-14  # |q(2i)|^2 = 5


class TestComputeMu:
    def test_half_over_lag(self):
        # a constant p1 has no root, so it passes the coprimality test
        fac = compute_mu([0.5], [1.0, 1.0])
        assert np.allclose(fac.mu, [0.75, 0.0, -1.0])
        assert fac.kappa == 1
        assert np.allclose(fac.r1, [1.0])
        assert np.allclose(fac.r2, [SQ3 / 2, 1.0], atol=1e-10)
        assert abs(fac.constant - 1.0) < 1e-10

    def test_split_double_root_counts_twice(self):
        # the roots z +- 2.5e-6 scale and their mirrors are one double
        # root of mu on each side, which puts nothing into kappa
        z = -0.7 + 0.4j
        scale = 1.0 + abs(z)
        roots = [z - 2.5e-6 * scale, z + 2.5e-6 * scale]
        mu = npp.polyfromroots(roots + [-np.conj(w) for w in roots])
        axis, pairs, _ = _para_split(mu)
        assert axis == [] and [m for _, m in pairs] == [2]

    def test_perfect_square(self):
        p1 = 0.6 * np.array([1.0, -2.0, 1.0])   # 0.6 (s-1)^2
        q = np.array([1.0, 2.0, 1.0])           # (s+1)^2
        fac = compute_mu(p1, q)
        assert fac.kappa == 0
        assert np.allclose(fac.mu, [0.64, 0.0, -1.28, 0.0, 0.64], atol=1e-12)
        assert np.allclose(fac.r1, [1.0, 1.0], atol=1e-8)  # s + 1
        assert fac.r2.size == 1
        assert abs(fac.constant - 0.64) < 1e-10

    def test_two_simple_pairs(self):
        # p1 = s - 1, q = s^2 + 3 s + 2: mu = s^4 - 4 s^2 + 3
        fac = compute_mu([-1.0, 1.0], [2.0, 3.0, 1.0])
        assert np.allclose(fac.mu, [3.0, 0.0, -4.0, 0.0, 1.0], atol=1e-12)
        assert fac.kappa == 2

    def test_axis_root_does_not_count(self):
        # q = (s+1)^2, p1 = s^2 + beta s + 1 gives mu = (4 - beta^2) w^2
        # at s = i w: a double axis root at 0 and kappa = 0
        beta = 1.0
        fac = compute_mu([1.0, beta, 1.0], [1.0, 2.0, 1.0])
        assert fac.kappa == 0
        assert fac.r2_axis.size == 2  # simple axis factor s
        roots = npp.polyroots(fac.mu)
        assert roots.size == 2 and np.max(np.abs(roots)) < 1e-8

    def test_rejects_unstable_q(self):
        with pytest.raises(ValidationError):
            compute_mu([0.5], [-1.0, 1.0])  # root at +1

    def test_rejects_common_roots(self):
        p1 = npp.polyfromroots([-1.0]) * 0.5
        q = npp.polyfromroots([-1.0, -2.0])
        with pytest.raises(ValidationError, match="coprime"):
            compute_mu(p1, q)

    def test_rejects_a_root_within_the_separation_bound(self):
        # p1 = (1 + 1e-9) + s over q = (1 + s)(2 + s): the root of p1 is
        # not the root -1 of q, but lies within 1e-7 (1 + max |root|) of it
        with pytest.raises(ValidationError, match="coprime"):
            compute_mu([1.0 + 1e-9, 1.0], [2.0, 3.0, 1.0])

    def test_rejects_contractivity_violation(self):
        # over q = 1 + s: 2 exceeds |q| below w = sqrt(3), so mu has odd
        # axis roots; 3 + 2s exceeds it on the whole axis, so c < 0
        with pytest.raises(SpectralSplitError, match="odd multiplicity"):
            compute_mu([2.0], [1.0, 1.0])
        with pytest.raises(SpectralSplitError, match="constant .* is not positive"):
            compute_mu([3.0, 2.0], [1.0, 1.0])


@pytest.mark.parametrize("call, named", [
    (lambda: compute_mu([0.5], [1.0, 1.0, np.nan]), "q"),  # read as 0.5/(1 + s)
    (lambda: compute_mu([0.5], [1.0, np.nan, 1.0]), "q"),  # a bare LinAlgError
    (lambda: compute_mu([0.5, np.inf], [1.0, 1.0]), "p1"),
    (lambda: spectral_factor_poly([1.0, 0.0, np.nan]), "m"),  # read as m = 1
])
def test_non_finite_coefficients_are_refused(call, named):
    # poly_trim would read a trailing nan as a zero and drop it
    with pytest.raises(ValidationError, match=f"^{named} has non-finite coefficients"):
        call()


class TestSpectralFactor:
    def test_simple(self):
        p2 = spectral_factor_poly([1.0, 0.0, -1.0])  # 1 - s^2
        assert np.allclose(p2.real, [1.0, 1.0], atol=1e-10)

    def test_square(self):
        m = np.array([0.64, 0.0, -1.28, 0.0, 0.64])  # 0.64 (1 - s^2)^2
        p2 = spectral_factor_poly(m)
        assert np.allclose(p2.real, [0.8, 1.6, 0.8], atol=1e-8)

    def test_shifted(self):
        p2 = spectral_factor_poly([0.75, 0.0, -1.0])  # 3/4 - s^2
        assert np.allclose(p2.real, [SQ3 / 2, 1.0], atol=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            spectral_factor_poly([-1.0, 0.0, -1.0])

    def test_gain_peak_between_grid_points_is_a_validation_error(self):
        # m = q q* - p1 p1* for p1 = 0.432, q = s^2 + 0.08 s + 16: |p1/q|
        # peaks at 1.35 near w = 4, between the grid points 3 and 5, so m
        # changes sign there; the split, not the grid, refuses it
        q = np.array([16.0, 0.08, 1.0])
        m = npp.polysub(npp.polymul(q, poly_para(q)), [0.432 ** 2])
        with pytest.raises(ValidationError, match="odd multiplicity"):
            spectral_factor_poly(m)

    @pytest.mark.parametrize("m", [[0.0], [-2.0]], ids=["zero", "negative"])
    def test_constant_must_be_positive(self, m):
        with pytest.raises(ValidationError, match="constant .* is not positive"):
            spectral_factor_poly(m)

    def test_positive_constant(self):
        assert np.array_equal(spectral_factor_poly([4.0]), [2.0])

    @pytest.mark.parametrize("roots, c", [([-1.0], 4.0), ([0.5j, -1.0 + 0.3j, -0.2], 9.0)],
                             ids=["lag", "axis-root"])
    def test_scale_is_the_split_constant(self, roots, c):
        # m = c h h* for the monic h on roots (m = 4 - 4 s^2 for the lag):
        # p2 = sqrt(c) h, its leading coefficient sqrt(c) exactly
        h = npp.polyfromroots(roots)
        m = c * npp.polymul(h, poly_para(h))
        p2 = spectral_factor_poly(m)
        assert p2[-1] == np.sqrt(c)
        assert np.max(np.abs(p2 - np.sqrt(c) * h)) <= 1e-14
        assert np.linalg.norm(npp.polymul(p2, poly_para(p2)) - m) <= 1e-14 * np.linalg.norm(m)

    def test_axis_roots_halved(self):
        # m = w^2 (1 + w^2) at s = i w: -s^2 (1 - s^2)
        m = npp.polymul([0.0, 0.0, -1.0], [1.0, 0.0, -1.0])
        p2 = spectral_factor_poly(m)
        res = sorted((round(z.real, 6), round(z.imag, 6)) for z in npp.polyroots(p2))
        assert res == [(-1.0, 0.0), (0.0, 0.0)]


class TestScalarExtension:
    def test_half_over_lag_degree_two(self):
        ext, fac, sym, inner = scalar_minimal_extension([0.5], [1.0, 1.0])
        assert ext.n == 2 and fac.kappa == 1
        assert innerness_residual(ext) <= 1e-8 and inner <= 1e-8
        assert sym == symmetry_residual(ext) <= 1e-8

    def test_scaled_blaschke(self):
        # p1 = 0.9 (1 - s), q = s + 1: mu = 0.19 (1 - s^2), kappa = 1
        ext, fac, _, _ = scalar_minimal_extension([0.9, -0.9], [1.0, 1.0])
        assert fac.kappa == 1
        assert ext.n == 2

    def test_axis_factor_cancels_in_degree(self):
        # double axis zero of mu at 0: the axis factor of r2 cancels and
        # the extension stays at degree deg q = 2
        ext, _, _, _ = scalar_minimal_extension([1.0, 1.0, 1.0], [1.0, 2.0, 1.0])
        assert ext.n == 2
        assert innerness_residual(ext) <= 1e-8

    def test_matches_matrix_pipeline(self, scalar_suite):
        for p1, q in scalar_suite[:6]:
            ext, fac, _, _ = scalar_minimal_extension(p1, q)
            R, _ = minimal_realization(siso_realization(p1, q))
            res = minimize_symmetric(R)
            assert res.degree == ext.n
            assert res.kappa == fac.kappa
            # both lower-right blocks realize p1/q
            s = 0.7 + 0.4j
            want = npp.polyval(s, np.asarray(p1, dtype=complex)) / \
                npp.polyval(s, np.asarray(q, dtype=complex))
            assert abs(evaluate(ext, s)[1, 1] - want) < 1e-8
            assert abs(evaluate(res.extension, s)[1, 1] - want) < 1e-7

    def test_runs_no_staircase_and_no_sampled_innerness(self, count_calls,
                                                        scalar_suite):
        seen = count_calls(darlington.realization.minimal_realization,
                           darlington.realization.kalman_check,
                           darlington.realization.transfer_distance,
                           darlington.extension.innerness_residual)
        for p1, q in scalar_suite:
            scalar_minimal_extension(p1, q)
        assert all(calls == [] for calls in seen.values()), seen

    def test_evaluates_the_extension_once(self, count_calls, scalar_suite):
        # symmetry and the S block come from one frequency response on
        # the probe grid, and the symmetry residual is returned with it
        seen = count_calls(darlington.realization.freqresp,
                           darlington.realization.symmetry_residual)
        for p1, q in scalar_suite:
            ext, _, sym, _ = scalar_minimal_extension(p1, q)
            assert sum(T is ext for T in seen["freqresp"]) == 1
            assert seen["symmetry_residual"] == []
        assert sym == symmetry_residual(ext)


def transfer(T, s) -> np.ndarray:
    """C (sI - A)^{-1} B + D at each point of s, by a plain stacked solve."""
    pencil = s[:, np.newaxis, np.newaxis] * np.eye(T.n) - T.a
    return T.c @ np.linalg.solve(pencil, np.broadcast_to(T.b, (s.size,) + T.b.shape)) + T.d


def assert_independently_certified(T, p1, q, degree: int, label) -> None:
    """Checks independent of the package: Hankel singular values from
    T's own Lyapunov solves, innerness on a dense axis grid, symmetry
    and the S block p1/q at points off the axis, each at 1e-7; label
    names the fraction in a failure."""
    w = np.logspace(-3, 3, 400)
    axis = 1j * np.concatenate([[0.0], w, -w])
    pts = np.array([0.3 + 2j, 1.1 - 0.7j, 2.5 + 0.1j, 0.05 - 4j])
    Wc = sla.solve_continuous_lyapunov(T.a, -T.b @ T.b.conj().T)
    Wo = sla.solve_continuous_lyapunov(T.a.conj().T, -T.c.conj().T @ T.c)
    hsv = np.sqrt(np.abs(np.linalg.eigvals(Wc @ Wo)))
    assert T.n == np.sum(hsv > 0.5) == degree, label
    V = transfer(T, axis)
    gap = V @ V.conj().transpose(0, 2, 1) - np.eye(2)
    assert np.max(np.linalg.norm(gap, 2, axis=(1, 2))) <= 1e-7, label
    V = transfer(T, pts)
    assert np.max(np.abs(V[:, 0, 1] - V[:, 1, 0])) <= 1e-7, label
    want = npp.polyval(pts, p1) / npp.polyval(pts, q)
    assert np.max(np.abs(V[:, 1, 1] - want)) <= 1e-7, label


# the fractions of these rungs whose extension misses the 1e-8
# certificate: none since the second column is one companion block
# (with one block per entry, s7g #31 missed by lossless 2.3e-7 and s8g #9
# by symmetry 1.0e-8)
STILL_RAISING = set()


def test_benchmark_fractions_certify_or_raise():
    # the p = 1 generic n = 7, 8 fractions of the benchmark pool, whose
    # companion blocks reach cond(A) ~ 1e9
    raised = set()
    with np.load(POOL) as z:
        manifest = json.loads(str(z["manifest"]))
        for rung in ("s7g", "s8g"):
            meta = manifest["rungs"][rung]
            for i in range(meta["count"]):
                p1, q = (np.trim_zeros(z[f"{rung}.{k}"][i], "b") for k in ("p1", "q"))
                try:
                    T, _, _, _ = scalar_minimal_extension(p1, q)
                except ValidationError:
                    raised.add((rung, i))
                    continue
                assert_independently_certified(T, p1, q, meta["n"] + meta["kappa"],
                                               (rung, i))
    assert raised <= STILL_RAISING


def test_certificate_miss_raises():
    # a fresh s7g fraction, perfbench/gen.py draw_rung(101, RUNG["s7g"],
    # 120) #63 (#65 before symmetrize's output was made exactly symmetric:
    # the draw's filter runs symmetrize), whose companion realization is
    # at its accuracy limit: its truncation's certificate is 2.4e-8 > 1e-8
    doc = json.loads((DATA / "scalar_s7g_101_65.json").read_text())
    p1, q = (np.array([complex(*v) for v in doc[k]]) for k in ("p1", "q"))
    with pytest.raises(ValidationError, match=r"scalar extension failed certification "
                                              r"\(lossless [0-9.e-]+, symmetric"):
        scalar_minimal_extension(p1, q)


def test_one_block_for_the_second_column():
    # main s8g #9 (frozen in tests/data): the realization to truncate has
    # 3 deg q + kappa = 32 states, and the extension certifies, where the
    # four entry blocks (40 states) missed the symmetry bound (1.01e-8)
    doc = json.loads((DATA / "scalar_s8g_9.json").read_text())
    p1, q = (np.array([complex(*v) for v in doc[k]]) for k in ("p1", "q"))
    balance = sla.matrix_balance
    sizes = []

    def recording(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return balance(A, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sla, "matrix_balance", recording)
        T, fac, sym, inner = scalar_minimal_extension(p1, q)
    assert fac.kappa == 8 and sizes == [3 * 8 + 8]
    assert sym <= 1e-8 and inner <= 1e-8
    assert_independently_certified(T, p1, q, 16, "s8g #9")


@pytest.mark.parametrize("j", range(len(SPLIT_DRAWS)),
                         ids=[f"n{n}-seed{seed}" for n, _, seed in SPLIT_DRAWS])
def test_split_double_roots_certify_at_degree_n(split_fractions, j):
    # kappa = 0: every root of mu is double, and rounding splits some
    # pairs by about 1e-5 of their scale; the cluster ladder rejoins
    # them, where a split taken at 1e-6 counted them as simple roots
    # (degree 8 instead of 4 or 6, or a raise)
    p1, q, n = split_fractions[j]
    T, fac, _, _ = scalar_minimal_extension(p1, q)
    assert fac.kappa == 0
    assert_independently_certified(T, p1, q, n, SPLIT_DRAWS[j])
