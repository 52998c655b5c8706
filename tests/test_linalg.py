"""Decomposition-layer tests: half chains, SVD analysis, Takagi
factorization, and the Loewner-order oracle of conftest."""
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import hermitian_order

from darlington import Realization, build_hat, linalg, symmetrize
from darlington.errors import DimensionError, NotSymmetricError, SpectralSplitError
from darlington.linalg import (
    cluster_ladder,
    half_chain_basis,
    hermitian_sqrt,
    mirror_split,
    svd_analysis,
    takagi,
)
from darlington.riccati import build_hamiltonian


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


class TestHalfChain:
    CHAIN4 = np.diag([1.0, 1.0, 1.0], 1)  # one chain of length 4
    CHAINS42 = sla.block_diag(CHAIN4, np.diag([1.0], 1))  # lengths 4 and 2

    @staticmethod
    def assert_half(L, diagonal):
        # leading halves as a subspace: its projector, which no basis choice moves
        assert L.shape == (len(diagonal), int(sum(diagonal)))
        assert np.linalg.norm(L @ L.conj().T - np.diag(diagonal)) < 1e-8

    @pytest.fixture
    def svds(self, monkeypatch):
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        return calls

    def test_single_even_block(self):
        self.assert_half(half_chain_basis(self.CHAIN4), [1, 1, 0, 0])  # span(e1, e2)

    def test_mixed_blocks(self):
        self.assert_half(half_chain_basis(self.CHAINS42), [1, 1, 0, 0, 1, 0])

    @pytest.mark.parametrize("name, half", [("CHAIN4", [1, 1, 0, 0]),
                                            ("CHAINS42", [1, 1, 0, 0, 1, 0])],
                             ids=["4-chain", "4+2-chains"])
    def test_spectral_norm_above_one_sets_the_scale(self, name, half):
        self.assert_half(half_chain_basis(3.0 * getattr(self, name)), half)

    def test_frobenius_norm_at_most_one_scales_without_an_svd(self, monkeypatch):
        def no_norm(M):
            raise AssertionError("spectral_norm ran although ||N||_F <= 1")
        monkeypatch.setattr(linalg, "spectral_norm", no_norm)
        self.assert_half(half_chain_basis(0.5 * np.diag([1.0], 1)), [1, 0])

    def test_ladder_stops_on_the_frobenius_norm(self, svds):
        # ||N^2||_F = 1e-9 <= tol: N is a 2-chain and a 1-chain at tol, and
        # the ladder ends before the SVD of N^2; SVDs of N, of the kernel
        # against the image, and the final orthonormalization remain
        N = np.diag([1.0, 1e-9], 1)
        self.assert_half(half_chain_basis(N), [1, 0, 0])
        assert len(svds) == 3

    def test_zero_matrix_has_no_half_chains(self, svds):
        assert half_chain_basis(np.zeros((3, 3))).shape == (3, 0)
        assert not svds


class TestSvd:
    def test_zero_matrix(self):
        res = svd_analysis(np.zeros((2, 2)))
        assert res.rank == 0
        assert res.kernel.shape == (2, 2)

    def test_diag_rank_one(self):
        res = svd_analysis(np.diag([3.0, 0.0]))
        assert res.rank == 1
        k = res.kernel
        assert k.shape[1] == 1
        assert abs(abs(k[1, 0]) - 1.0) < 1e-12

    def test_hermitian_singular_values(self):
        # this is the complex Riccati solution of the worked example
        P = np.array([[2.0, 1j * np.sqrt(3)], [-1j * np.sqrt(3), 2.0]])
        res = svd_analysis(P)
        assert np.allclose(sorted(res.singular_values),
                           sorted([2 + np.sqrt(3), 2 - np.sqrt(3)]), atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        shape = (rng.integers(1, 12), rng.integers(1, 12))
        M = random_complex(rng, shape, scale=10.0 ** rng.integers(-1, 3))
        res = svd_analysis(M)
        k = min(shape)
        recon = res.u[:, :k] @ np.diag(res.singular_values) @ res.v[:, :k].conj().T
        assert np.linalg.norm(recon - M, 2) <= 1e-10 * max(1, np.linalg.norm(M, 2))


class TestTakagi:
    def test_zero(self):
        res = takagi(np.zeros((3, 3)))
        assert np.allclose(res.values, 0)
        assert np.allclose(res.u @ res.u.conj().T, np.eye(3))

    def test_diag_with_kernel_first(self):
        res = takagi(np.diag([0.0, 2.0]))
        assert np.allclose(res.values, [0.0, 2.0])
        # kernel-related column comes first: F conj(u_0) = 0
        F = np.diag([0.0, 2.0])
        assert np.linalg.norm(F @ np.conj(res.u[:, 0])) < 1e-12

    def test_offdiagonal(self):
        F = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = takagi(F)
        assert np.allclose(res.values, [1.0, 1.0])
        assert np.linalg.norm(res.u @ np.diag(res.values) @ res.u.T - F) < 1e-12

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetricError):
            takagi(np.array([[0.0, 1.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_properties(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = int(rng.integers(1, 21))
        F = random_complex(rng, (p, p))
        F = F + F.T
        res = takagi(F)
        scale = max(1.0, np.linalg.norm(F, 2))
        assert np.linalg.norm(res.u @ np.diag(res.values) @ res.u.T - F, 2) <= 1e-10 * scale
        assert np.linalg.norm(res.u @ res.u.conj().T - np.eye(p), 2) <= 1e-10
        # values are the singular values of F
        sv = np.linalg.svd(F, compute_uv=False)
        assert np.allclose(np.sort(res.values), np.sort(sv), atol=1e-10 * scale)

    def test_kernel_columns_conjugate_kernel(self):
        rng = np.random.default_rng(5)
        w = random_complex(rng, (3, 1))
        F = w @ w.T  # symmetric, rank 1
        res = takagi(F)
        # two zero values first; F conj(u_j) = 0 for those columns
        assert np.sum(res.values < 1e-10) == 2
        assert np.linalg.norm(F @ np.conj(res.u[:, :2])) < 1e-10

    def test_equal_values_straddling_branch_cut(self):
        # diag(-2.4, 2.4) has one doubled singular value; a tiny symmetric
        # perturbation puts the phase eigenvalues on both sides of -1
        rng = np.random.default_rng(2400)
        for _ in range(200):
            E = random_complex(rng, (2, 2))
            F = np.diag([-2.4, 2.4]) + 1e-16 * (E + E.T)
            tk = takagi(F)
            assert np.linalg.norm(tk.u @ np.diag(tk.values) @ tk.u.T - F, 2) <= 1e-10
            assert np.linalg.norm(tk.u.conj().T @ tk.u - np.eye(2), 2) <= 1e-10


    @staticmethod
    def symmetric_with_values(seed, values):
        rng = np.random.default_rng(seed)
        W, _ = np.linalg.qr(random_complex(rng, (len(values), len(values))))
        return W @ np.diag(values) @ W.T

    @pytest.mark.parametrize("k", [1, 2])
    def test_kernel_columns_of_complex_symmetric(self, k):
        F = self.symmetric_with_values(40 + k, [0.0] * k + [0.7, 1.3, 2.9])
        res = takagi(F)
        assert np.all(res.values[:k] <= 1e-13) and np.all(res.values[k:] > 0.5)
        assert np.linalg.norm(F @ np.conj(res.u[:, :k]), 2) <= 1e-12
        assert np.linalg.norm(res.u.conj().T @ res.u - np.eye(k + 3), 2) <= 1e-12

    def test_triple_repeated_value(self):
        F = self.symmetric_with_values(43, [2.0, 2.0, 2.0, 0.5])
        res = takagi(F)
        assert np.allclose(res.values, [0.5, 2.0, 2.0, 2.0], atol=1e-12)
        assert np.linalg.norm(res.u @ np.diag(res.values) @ res.u.T - F, 2) <= 1e-12
        assert np.linalg.norm(res.u.conj().T @ res.u - np.eye(4), 2) <= 1e-12

    def test_tiny_nonzero_values_keep_u_unitary(self):
        # values 1e-12 and 3e-11 are kept, but their eigenvalues +-sigma
        # in the real 2p x 2p form are nearly equal and their
        # eigenvectors mix
        F = self.symmetric_with_values(44, [1e-12, 3e-11, 1.0, 2.0])
        res = takagi(F)
        assert np.allclose(res.values, [1e-12, 3e-11, 1.0, 2.0], rtol=1e-3, atol=0)
        assert np.linalg.norm(res.u.conj().T @ res.u - np.eye(4), 2) <= 1e-12
        assert np.linalg.norm(res.u @ np.diag(res.values) @ res.u.T - F, 2) <= 1e-12


class TestSchurSolve:
    """linalg._schur_solve solves both equations from the one Schur form
    of A that linalg._schur computes: the Lyapunov equation bit for bit
    as scipy does, the conjugate Sylvester equation to rounding."""

    def test_matches_scipy_on_the_suite(self, instance_suite):
        for inst in instance_suite:
            R = inst.realization
            form = linalg._schur(R.a)
            Q = -R.b @ R.b.conj().T
            assert np.array_equal(linalg._schur_solve(form, Q),
                                  sla.solve_continuous_lyapunov(R.a, Q)), inst.name
            # the pair (A, conj A) that _intertwiner solves
            Q = -R.b @ R.c.conj()
            X = linalg._schur_solve(form, Q, conjugate=True)
            res = np.linalg.norm(R.a @ X + X @ R.a.conj() - Q, 2)
            assert res <= 1e-13 * (np.linalg.norm(R.a, 2) * np.linalg.norm(X, 2)
                                   + np.linalg.norm(Q, 2)), inst.name
            X_ref = sla.solve_sylvester(R.a, R.a.conj(), Q)
            assert np.linalg.norm(X - X_ref, 2) <= 1e-10 * np.linalg.norm(X_ref, 2), inst.name

    def test_empty(self, monkeypatch):
        monkeypatch.setattr(sla, "schur", None)  # n = 0 factors nothing
        form = linalg._schur(np.zeros((0, 0), dtype=complex))
        assert [M.shape for M in form] == [(0, 0), (0, 0)]
        X = linalg._schur_solve(form, np.zeros((0, 0)))
        assert X.shape == (0, 0) and X.dtype == complex

    def test_non_finite_raises(self):
        A = np.array([[-1.0, np.nan], [0.0, -2.0]])
        with pytest.raises(ValueError):
            linalg._schur(A)
        form = linalg._schur(np.diag([-1.0, -2.0]))
        with pytest.raises(ValueError):
            linalg._schur_solve(form, np.full((2, 2), np.inf))


class TestSpectralNorm:
    """One primitive for ||.||_2: it matches np.linalg.norm(., 2), and the
    screened comparison decides exactly as the SVD would."""

    SHAPES = [(6, 6), (7, 3), (2, 5), (1, 1), (0, 0), (0, 4), (3, 0)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_matches_numpy(self, shape):
        M = random_complex(np.random.default_rng(sum(shape)), shape)
        ref = np.linalg.norm(M, 2)
        assert abs(linalg.spectral_norm(M) - ref) <= 1e-14 * ref

    def test_stack_gives_each_norm(self):
        F = random_complex(np.random.default_rng(3), (5, 4, 3))
        ref = np.linalg.norm(F, 2, axis=(1, 2))
        assert np.allclose(linalg.spectral_norm(F), ref, rtol=1e-14, atol=0)

    STACKS = [(6, 5, 5), (4, 7, 3), (4, 2, 5), (3, 1, 1), (2, 3, 4, 4),
              (2, 0, 0), (2, 0, 4), (2, 3, 0), (0, 3, 3)]

    @pytest.mark.parametrize("magnitude", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("shape", STACKS, ids=str)
    def test_stack_matches_numpy(self, shape, magnitude):
        # tall, wide and empty matrices, entries far from 1, and one
        # exactly zero matrix, whose norm is 0 and not nan
        M = random_complex(np.random.default_rng(sum(shape)), shape, magnitude)
        M[:1] = 0.0
        ref = np.linalg.norm(M, 2, axis=(-2, -1)) if M.size else np.zeros(shape[:-2])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = linalg.spectral_norm(M)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)

    def test_max_norm_is_the_largest_norm_of_the_stack(self):
        # magnitudes spread over eight decades, so the Frobenius screen
        # leaves most matrices out
        rng = np.random.default_rng(4)
        M = random_complex(rng, (32, 6, 4)) * np.logspace(-8, 0, 32)[:, None, None]
        assert linalg.max_norm(M) == np.max(linalg.spectral_norm(M))
        assert linalg.max_norm(M[:0]) == 0.0 == linalg.max_norm(np.zeros((3, 2, 2)))
        M[5, 1, 1] = np.nan  # a non-finite matrix is never screened out:
        assert np.isnan(linalg.max_norm(M))  # its nan reaches the caller's gate
        M[5, 1, 1] = np.inf
        assert np.isnan(linalg.max_norm(M))

    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_hermitian_variant_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        M = random_complex(rng, (n, n))
        for H in (M + M.conj().T, M @ M.conj().T, -(M @ M.conj().T)):
            ref = np.linalg.norm(H, 2)
            assert abs(linalg.hermitian_norm(H) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("kind", ["random", "rank-one", "flat", "rectangular", "empty"])
    def test_screen_agrees_with_the_exact_comparison(self, kind):
        rng = np.random.default_rng(5)
        M = {"random": random_complex(rng, (6, 6)),
             "rank-one": np.outer(random_complex(rng, 5), random_complex(rng, 4)),
             "flat": 3.0 * np.linalg.qr(random_complex(rng, (5, 5)))[0],
             "rectangular": random_complex(rng, (8, 3)),
             "empty": np.zeros((0, 3))}[kind]
        ref, fro = np.linalg.norm(M, 2), np.linalg.norm(M)
        k = np.sqrt(max(1, min(M.shape)))
        # bounds on both sides of ||M||_2 and of both Frobenius screens
        for mid in (ref, fro, fro / k, 1.0):
            for f in (0.5, 1 - 1e-9, 1 + 1e-9, 2.0):
                bound = mid * f
                assert linalg.norm_at_most(M, bound) == (ref <= bound)

    def test_screen_runs_no_svd_far_from_the_bound(self, monkeypatch):
        # count every factorization spectral_norm may run: the SVD of a
        # matrix and eigvalsh of the Gram matrices of a stack
        calls = []
        for name in ("svd", "eigvalsh"):
            f = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, f=f, **k: calls.append(1) or f(*a, **k))
        M = random_complex(np.random.default_rng(7), (6, 6))
        fro = np.linalg.norm(M)
        assert linalg.norm_at_most(M, 2 * fro) and not linalg.norm_at_most(M, 1e-3 * fro)
        assert calls == []
        linalg.norm_at_most(M, 0.6 * fro)  # between fro / sqrt(6) and fro
        assert calls == [1]


    @pytest.mark.parametrize("kind", ["random", "rank-one", "flat", "rectangular", "empty"])
    def test_relative_bound_agrees_with_the_exact_norm(self, kind, monkeypatch):
        # ||G|| <= rel max(floor, ||M||) decided as with the spectral norm of
        # M, which runs only when the Frobenius bracket of ||M|| cannot decide
        rng = np.random.default_rng(6)
        M = {"random": random_complex(rng, (6, 6)),
             "rank-one": np.outer(random_complex(rng, 5), random_complex(rng, 4)),
             "flat": 3.0 * np.linalg.qr(random_complex(rng, (5, 5)))[0],
             "rectangular": random_complex(rng, (8, 3)),
             "empty": np.zeros((0, 3))}[kind]
        G = random_complex(rng, (4, 4))
        ref, fro, g = np.linalg.norm(M, 2), np.linalg.norm(M), np.linalg.norm(G, 2)
        norms = []
        spectral_norm = linalg.spectral_norm
        monkeypatch.setattr(linalg, "spectral_norm",
                            lambda X: norms.append(X is M) or spectral_norm(X))
        for floor in (0.0, 1.0):
            for mid in (ref, fro, fro / np.sqrt(max(1, min(M.shape))), 1.0):
                for f in (0.5, 1 - 1e-9, 1 + 1e-9, 2.0):
                    rel = g / (mid * f) if mid else 1.0
                    want = g <= rel * max(floor, ref)
                    for gaps in ((G,), (0 * G, G, G)):
                        norms.clear()
                        assert linalg._within(gaps, rel, M, floor) == want
                        assert sum(norms) <= 1
        norms.clear()
        assert linalg._within((1e-3 * G,), 1e3 * g, M) and not any(norms)


class TestHermitianOrder:
    def test_less_equal(self):
        assert hermitian_order(np.eye(2), 2 * np.eye(2)) == "less_equal"

    def test_equal(self):
        P = np.array([[2.0, 1j], [-1j, 3.0]])
        assert hermitian_order(P, P.copy()) == "equal"

    def test_incomparable(self):
        assert hermitian_order(np.diag([1.0, 3.0]), np.diag([2.0, 2.0])) == "incomparable"

    def test_greater_equal(self):
        assert hermitian_order(2 * np.eye(3), np.eye(3)) == "greater_equal"

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotSymmetricError):
            hermitian_order(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


class TestClusterLadder:
    @pytest.fixture
    def calls(self, monkeypatch):
        count = []
        original = linalg.cluster_points

        def counting(points, tol):
            count.append(tol)
            return original(points, tol)

        monkeypatch.setattr(linalg, "cluster_points", counting)
        return count

    def test_stops_at_first_agreeing_pair(self, calls):
        tol, clusters = cluster_ladder([0.0, 1.0, 2.0 + 1j], 1e-6)
        assert tol == 1e-6 and len(clusters) == 3
        assert len(calls) == 2

    def test_settles_on_a_later_rung(self, calls):
        # the pair 5e-6 apart merges at the second rung and stays merged
        tol, clusters = cluster_ladder([0.0, 5e-6, 1.0], 1e-6)
        assert tol == pytest.approx(1e-5)
        assert sorted(len(m) for _, m in clusters) == [1, 2]
        assert len(calls) == 3

    def test_never_stabilized_warns_and_keeps_base(self, calls):
        # one pair merges at each rung: 5e-6, 5e-5, 5e-4 and 5e-3 apart
        pts = [c + d for c, d in zip((0.0, 10.0, 20.0, 30.0),
                                     (5e-6, 5e-5, 5e-4, 5e-3))]
        pts += [0.0, 10.0, 20.0, 30.0]
        with pytest.warns(UserWarning, match="never stabilized"):
            tol, clusters = cluster_ladder(pts, 1e-6)
        assert tol == 1e-6 and len(clusters) == 8
        assert len(calls) == 5


class TestMirrorSplit:
    def test_labels_and_moves_axis_centers(self):
        pts = [1.0 + 2j, -1.0 + 2j, 0.5j + 1e-9, 0.5j - 1e-9]
        tol, clusters, index = mirror_split(pts, 1e-6)
        assert tol == 1e-6
        assert sorted(lab for _, _, lab in clusters) == ["axis", "minus", "plus"]
        assert (0.5j, 2, "axis") in clusters
        assert [clusters[k][2] for k in index] == ["plus", "minus", "axis", "axis"]

    def test_equal_points_share_their_cluster(self):
        pts = [-1.0 + 1j, 1.0 + 1j, -1.0 + 1j, 1.0 + 1j, 2j, 2j]
        _, clusters, index = mirror_split(pts, 1e-6)
        assert [clusters[k][:2] for k in index] == [
            (-1.0 + 1j, 2), (1.0 + 1j, 2), (-1.0 + 1j, 2), (1.0 + 1j, 2), (2j, 2), (2j, 2)]

    def test_odd_axis_multiplicity_raises(self):
        with pytest.raises(SpectralSplitError, match="odd multiplicity"):
            mirror_split([0.5j, 1.0 + 1j, -1.0 + 1j], 1e-6)

    def test_unpaired_right_half_plane_point_raises(self):
        with pytest.raises(SpectralSplitError, match="mirrored partner"):
            mirror_split([1.0 + 1j, -1.0 + 1j, 2.0], 1e-6)

    def test_split_double_root_is_rejoined(self):
        # a mirrored double root that rounding split by 5e-6 of the
        # scale stays one cluster of multiplicity 2 on each side
        z = -0.7 + 0.4j
        scale = 1.0 + abs(z)
        pts = [z - 2.5e-6 * scale, z + 2.5e-6 * scale]
        pts += [-np.conj(w) for w in pts]
        tol, clusters, index = mirror_split(pts, 1e-6 * scale)
        assert tol == pytest.approx(1e-5 * scale)
        assert sorted((lab, m) for _, m, lab in clusters) == [("minus", 2), ("plus", 2)]
        assert index[0] == index[1] != index[2] == index[3]


def cluster_points_loop(points, tol: float):
    """Oracle: the pure-Python loop cluster_points replaced."""
    pts = sorted(np.asarray(points, dtype=complex),
                 key=lambda z: (z.real, z.imag))
    groups: list[list] = []
    for z in pts:
        for g in groups:
            if abs(z - g[0]) <= tol:
                g[1].append(z)
                g[0] = np.mean(g[1])
                break
        else:
            groups.append([z, [z]])
    merged = True
    while merged and len(groups) > 1:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if abs(groups[i][0] - groups[j][0]) <= 2 * tol:
                    groups[i][1].extend(groups[j][1])
                    groups[i][0] = np.mean(groups[i][1])
                    del groups[j]
                    merged = True
                    break
            if merged:
                break
    return [(complex(g[0]), list(g[1])) for g in groups]


POOL = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "main.npz"


def hamiltonian_spectra(instance_suite):
    """eigvals(H) of every frozen-suite instance and of the first three
    instances of seven rungs of the benchmark pool (double roots on the
    axis and off it, kappa = 1, generic, scalar)."""
    systems = [inst.realization for inst in instance_suite]
    with np.load(POOL) as z:
        for rung in ("k0n8", "k0n12", "k1n11", "ax1n9", "g12", "g20", "s3ax1"):
            systems += [Realization(*(z[f"{rung}.{k}"][i] for k in "abcd"))
                        for i in range(3)]
    for R in systems:
        H = build_hamiltonian(build_hat(symmetrize(R)))
        yield np.linalg.eigvals(H), linalg.default_cluster_tol(H)


def test_cluster_points_matches_the_loop(instance_suite):
    merged = 0
    for lam, base in hamiltonian_spectra(instance_suite):
        for k in range(5):  # every rung of the cluster ladder
            got = linalg.cluster_points(lam, base * 10.0 ** k)
            want = cluster_points_loop(lam, base * 10.0 ** k)
            assert [c for c, _ in got] == [c for c, _ in want]
            assert [m for _, m in got] == [m for _, m in want]
            merged += len(got) < lam.size
    assert merged > 0  # the merging passes ran, not only the fast path
    # a chain of 1.5e-6 steps near 1: single linkage joins all of it once
    # 2 tol reaches one step, where the loop leaves its last point alone
    pts = [0.0, 5e-6, 1.0, 1.0 + 1.5e-6j, 1.0 + 3e-6j, 2.0]
    for tol, sizes in ((1e-7, [1] * 6), (1e-6, [1, 1, 3, 1]),
                       (2e-6, [1, 1, 3, 1]), (1e-5, [2, 3, 1])):
        assert [len(m) for _, m in linalg.cluster_points(pts, tol)] == sizes


def partition(clusters):
    return {frozenset(members) for _, members in clusters}


def test_mirror_images_cluster_alike():
    # a chain of two steps of 1.5 t: joined at tol t, one step at a time
    t = 1e-6
    chain = 1.0 + 0.5j + np.array([0.0, 1.5 * t, 3 * t])
    mirror = -chain.conj()
    for tol in (t / 10, t, 10 * t):
        want = {frozenset(-np.conj(list(g))) for g in
                partition(linalg.cluster_points(chain, tol))}
        assert partition(linalg.cluster_points(mirror, tol)) == want
    tol, clusters, _ = mirror_split(np.concatenate([chain, mirror]), t)
    assert tol == t
    assert sorted((lab, m) for _, m, lab in clusters) == [("minus", 3), ("plus", 3)]


def test_larger_tolerance_unites_clusters(instance_suite):
    for lam, base in hamiltonian_spectra(instance_suite):
        for k in range(4):
            coarse = linalg.cluster_points(lam, base * 10.0 ** (k + 1))
            where = {z: i for i, (_, members) in enumerate(coarse) for z in members}
            for _, members in linalg.cluster_points(lam, base * 10.0 ** k):
                assert len({where[z] for z in members}) == 1


def test_cluster_points_edge_cases():
    assert linalg.cluster_points([], 1e-6) == []
    assert linalg.cluster_points([1.0 + 2j], 1e-6) == [(1.0 + 2j, [1.0 + 2j])]


def test_hermitian_sqrt_squares_back():
    rng = np.random.default_rng(8)
    M = random_complex(rng, (5, 5))
    H = M @ M.conj().T
    S = hermitian_sqrt(H)
    assert np.linalg.norm(S @ S - H, 2) <= 1e-10 * np.linalg.norm(H, 2)
