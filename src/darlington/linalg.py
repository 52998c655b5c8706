"""Dense complex-matrix decompositions and spectral utilities.

Eigenvalue and singular-value work is delegated to LAPACK through
numpy; this module adds the layers the rest of the package relies on:
point clustering with the one persistence policy (cluster_ladder) that
decides multiplicities, the one split of a point set symmetric about
the imaginary axis into axis, plus and minus clusters (mirror_split,
which maps each point to its cluster), the leading-half chain basis of
a nilpotent matrix, Takagi factorization of complex symmetric matrices
from one real symmetric eigendecomposition, the one Lyapunov/Sylvester
solve (from the one complex Schur form its callers factor), and the
package's one spectral norm (spectral_norm: an SVD for a matrix, the largest
eigenvalue of a Gram matrix for each matrix of a stack; with
hermitian_norm for Hermitian matrices, max_norm for the largest norm in
a stack, norm_at_most for checks that only compare it with a bound, and
_within for a bound relative to another matrix's norm).

All returned objects are immutable value types, all functions are
pure, and every tolerance is fixed at its point of use.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    ConvergenceError,
    DimensionError,
    NotSymmetricError,
    SpectralSplitError,
    ValidationError,
)

__all__ = [
    "DEFAULT_RANK_TOL",
    "SvdResult",
    "TakagiResult",
    "cluster_ladder",
    "cluster_points",
    "default_cluster_tol",
    "half_chain_basis",
    "hermitian_norm",
    "hermitian_sqrt",
    "max_norm",
    "mirror_split",
    "norm_at_most",
    "spectral_norm",
    "svd_analysis",
    "takagi",
]

DEFAULT_RANK_TOL = 1e-9


def spectral_norm(M):
    """||M||_2 of a matrix (its largest singular value), or of each matrix
    in a stack: sqrt(max eigvalsh) of the smaller Gram matrix of each
    M / max |M_ij|, which cannot overflow and beats a stacked SVD.
    An empty or zero matrix has norm 0; a non-finite stack raises
    LinAlgError."""
    M = np.asarray(M)
    if M.size == 0:
        return np.zeros(M.shape[:-2])[()]
    if M.ndim < 3:
        return np.linalg.svd(M, compute_uv=False)[0]
    scale = np.max(np.abs(M), axis=(-2, -1))
    if not np.isfinite(scale).all():
        raise np.linalg.LinAlgError("spectral norm of a non-finite matrix")
    N = M * (1.0 / np.maximum(scale, np.finfo(float).tiny))[..., np.newaxis, np.newaxis]
    H = N.conj().swapaxes(-1, -2)
    top = np.linalg.eigvalsh(N @ H if M.shape[-2] <= M.shape[-1] else H @ N)[..., -1]
    return np.sqrt(np.maximum(top, 0.0)) * scale


def max_norm(M) -> float:
    """max_k ||M_k||_2 over a stack (0 if empty, nan if not finite), from
    spectral_norm of the M_k of largest Frobenius norm, then of only the
    others whose Frobenius norm, an upper bound of their 2-norm (widened by
    1e-12 relative, as in _within), exceeds that first 2-norm."""
    M = np.asarray(M)
    if not np.isfinite(M).all():
        return np.nan
    if M.size == 0:
        return 0.0
    M = M.reshape((-1, *M.shape[-2:]))  # one matrix, or a stack of any shape
    fro = np.linalg.norm(M, axis=(-2, -1))
    k = int(np.argmax(fro))
    top = spectral_norm(M[k:k + 1])[0]
    rest = fro * (1 + 1e-12) > top
    rest[k] = False
    return float(max(top, np.max(spectral_norm(M[rest]), initial=0.0)))


def hermitian_norm(M) -> float:
    """spectral_norm of a Hermitian M, as max |eigvalsh(M)| (which reads
    one triangle)."""
    return float(np.max(np.abs(np.linalg.eigvalsh(M)), initial=0.0))


def norm_at_most(M, bound: float) -> bool:
    """||M||_2 <= bound.  ||M||_F / sqrt(min(M.shape)) <= ||M||_2 <= ||M||_F
    decides it without spectral_norm unless the bound lies between the two."""
    M = np.asarray(M)
    fro = np.linalg.norm(M)
    if fro <= bound or fro > bound * np.sqrt(min(M.shape)):
        return bool(fro <= bound)
    return bool(spectral_norm(M) <= bound)


def _blocks(rows) -> np.ndarray:
    """np.block of a list of rows of 2-d arrays, each row of one height and
    every row of one width, filled into one preallocated array."""
    heights, widths = [row[0].shape[0] for row in rows], [M.shape[1] for M in rows[0]]
    out = np.empty((sum(heights), sum(widths)),
                   dtype=np.result_type(*(M for row in rows for M in row)))
    i = 0
    for h, row in zip(heights, rows):
        j = 0
        for M in row:
            out[i:i + h, j:j + M.shape[1]] = M
            j += M.shape[1]
        i += h
    return out


def _norm_floor(M) -> float:
    """max(1, ||M||_2): 1 without spectral_norm when ||M||_F <= 1."""
    return max(1.0, spectral_norm(M)) if np.linalg.norm(M) > 1 else 1.0


def _within(gaps, rel: float, M, floor: float = 1.0) -> bool:
    """||G||_2 <= rel max(floor, ||M||_2) for every G in gaps (stopping at the
    first that fails), for a norm of M that only sets the bound:
    ||M||_F / sqrt(min(M.shape)) <= ||M||_2 <= ||M||_F brackets it, and
    spectral_norm(M) runs, once, only for a G that the bracket cannot decide."""
    M = np.asarray(M)
    fro = np.linalg.norm(M)
    # widened by 1e-12 relative, so that rounding cannot move a decision
    low = rel * max(floor, fro / np.sqrt(max(1, min(M.shape))) * (1 - 1e-12))
    high, exact = rel * max(floor, fro * (1 + 1e-12)), None
    for G in gaps:
        if norm_at_most(G, low):
            continue
        if exact is None:
            if not norm_at_most(G, high):
                return False
            exact = rel * max(floor, spectral_norm(M))
        if not norm_at_most(G, exact):
            return False
    return True


def default_cluster_tol(M: np.ndarray) -> float:
    """Default eigenvalue clustering tolerance, 1e-7 * (1 + ||M||)."""
    return 1e-7 * (1.0 + spectral_norm(M))


def as_matrix(M, name: str = "matrix", square: bool = False) -> np.ndarray:
    """Coerce to a 2-d complex array and validate finiteness."""
    A = np.atleast_2d(np.asarray(M, dtype=complex))
    if A.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValidationError(f"{name} contains non-finite entries")
    if square and A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    return A


def cluster_points(points, tol: float):
    """Single-linkage clustering of complex points at distance 2 tol
    (Gower & Ross 1969): two points share a cluster when a chain of
    points, each within 2 tol of the next, joins them.  The clusters
    depend on distances alone, so a larger tol only unites clusters, and
    the mirror images -conj(z) of a set cluster into the mirror images of
    its clusters.  Returns (center, members) pairs in the (real, imag)
    order of their first member; the members are the input values in
    that order, and the center is their mean.
    """
    pts = sorted(np.asarray(points, dtype=complex).tolist(),
                 key=lambda z: (z.real, z.imag))
    near, n = np.abs(np.subtract.outer(pts, pts)) <= 2 * tol, len(pts)
    label, last = np.arange(n), None
    while not np.array_equal(label, last):  # each takes the least label in reach
        label, last = np.min(np.where(near, label, n), axis=1, initial=n), label
    groups: dict[int, list] = {}
    for k, z in zip(label.tolist(), pts):
        groups.setdefault(k, []).append(z)
    return [(complex(np.mean(m)) if len(m) > 1 else m[0], m) for m in groups.values()]


def cluster_ladder(points, base_tol: float):
    """Persistence-based clustering: walk a tolerance ladder and accept
    the first rung whose multiplicity structure agrees with the next
    one, computing the rungs only up to that pair.  Each rung's clusters
    are unions of the clusters of the rung below, so two rungs agree
    exactly when no clusters merged between them.

    Double eigenvalues computed in floating point split far wider than
    the base tolerance (roughly the square root of the backward error),
    and this recovers them without merging genuinely distinct
    eigenvalues, which sit orders of magnitude apart at desk scale.
    Returns (tolerance used, clusters as (center, members) pairs).
    """
    def rung(k):
        tol = base_tol * 10.0 ** k
        cl = cluster_points(points, tol)
        return tol, cl, sorted(len(m) for _, m in cl)

    first = prev = rung(0)
    for k in range(1, 5):
        cur = rung(k)
        if prev[2] == cur[2]:
            return prev[:2]
        prev = cur
    warnings.warn("cluster structure never stabilized along the tolerance "
                  "ladder; using the base tolerance")
    return first[:2]


def mirror_split(points, base_tol: float):
    """Cluster a point set symmetric about the imaginary axis with
    cluster_ladder and label each cluster by its half-plane.  Single
    linkage commutes with the mirror z -> -conj(z), so a mirror-symmetric
    set clusters into mirror-image clusters at every rung.

    A cluster whose center has ``|Re c| <= tol`` is labeled "axis" and
    its center moved onto the axis; the others are "plus" or "minus" by
    the sign of Re c.  Returns (tolerance used, ((center, multiplicity,
    label), ...) in the ladder's cluster order, index), where index[i]
    is the position of the cluster of points[i] in that tuple.

    Raises
    ------
    SpectralSplitError
        If an axis cluster has odd multiplicity, or the plus and minus
        clusters do not pair up as mirrors -conj(c) of equal
        multiplicity within 10 tol.
    """
    tol, clusters = cluster_ladder(points, base_tol)
    labeled = []
    for c, members in clusters:
        m = len(members)
        if abs(c.real) > tol:
            labeled.append((c, m, "plus" if c.real > 0 else "minus"))
            continue
        c = complex(0.0, c.imag)
        if m % 2:
            raise SpectralSplitError(
                f"imaginary-axis point {c:g} has odd multiplicity {m} at "
                f"cluster tolerance {tol:g}; the input is not a Schur "
                "function, or the clustering failed")
        labeled.append((c, m, "axis"))
    minus = [(c, m) for c, m, lab in labeled if lab == "minus"]
    for c, m, lab in labeled:
        if lab != "plus":
            continue
        near = [t for t in minus if abs(t[0] + c.conjugate()) <= 10 * tol]
        partner = min(near, key=lambda t: abs(t[0] + c.conjugate()), default=None)
        if partner is None or partner[1] != m:
            raise SpectralSplitError(
                f"point {c:g} (multiplicity {m}) lacks a mirrored partner "
                f"of equal multiplicity (cluster tolerance {tol:g})")
        minus.remove(partner)
    if minus:
        raise SpectralSplitError(f"unpaired left-half-plane points {minus} "
                                 f"(cluster tolerance {tol:g})")
    # cluster members are the input values, and equal values always share
    # a cluster, so each value names its cluster exactly
    where = {z: k for k, (_, members) in enumerate(clusters) for z in members}
    index = np.array([where[z] for z in np.asarray(points, dtype=complex).tolist()], dtype=int)
    return tol, tuple(labeled), index


def _orth_columns(M: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the column span of M at the given tolerance."""
    if M.size == 0:
        return np.zeros((M.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    r = int(np.sum(s > tol * max(1.0, s[0])))
    return U[:, :r]


def _kernels(M: np.ndarray, tol: float, scales) -> list[np.ndarray]:
    """Orthonormal bases of the (right) kernels of a stack of nonempty
    matrices, from one stacked SVD.

    Each rank decision uses tol * max(scale, sigma_max) with that
    matrix's scale, which keeps a near-zero matrix from counting as
    full rank.
    """
    _, s, Vh = np.linalg.svd(M)
    ranks = [int(np.sum(sv > tol * max(scale, sv[0]))) for sv, scale in zip(s, scales)]
    return [V[r:].conj().T for V, r in zip(Vh, ranks)]


def half_chain_basis(N: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of the span of the leading halves of all Jordan
    chains of a nilpotent matrix.

    For a nilpotent N this equals ``sum_l ker(N^l) intersect im(N^l)``: on a
    single Jordan block of size 2k the term l=k produces exactly the
    first k chain vectors, and smaller/larger l contribute subspaces of
    it.  The construction is basis-free, so no explicit chain vectors
    are ever computed.  tol bounds the singular values of the powers of
    N / max(1, ||N||_2), whose 2-norm is read only when ||N||_F > 1; the
    ladder stops at the first power of Frobenius norm at most tol.
    """
    m = N.shape[0]
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    Nn = N / _norm_floor(N)
    cols = []
    P = np.eye(m, dtype=complex)
    for _ in range(m):
        P = P @ Nn
        # ||P||_2 <= ||P||_F: no singular value exceeds tol (widened by 1e-12
        # relative, as in _within, so that rounding cannot move the decision)
        if np.linalg.norm(P) * (1 + 1e-12) <= tol:
            break
        U, s, Vh = np.linalg.svd(P)
        r = int(np.sum(s > tol))
        if r == 0:
            break
        ker = Vh[r:].conj().T
        if ker.shape[1] == 0:
            continue
        im = U[:, :r]
        # intersection of ker and im: kernel columns with no component
        # outside the image
        resid = ker - im @ (im.conj().T @ ker)
        _, s2, Vh2 = np.linalg.svd(resid)
        null = Vh2[int(np.sum(s2 > tol)):].conj().T
        if null.shape[1]:
            cols.append(ker @ null)
    if not cols:
        return np.zeros((m, 0), dtype=complex)
    return _orth_columns(np.hstack(cols), tol)


@dataclass(frozen=True)
class SvdResult:
    """Singular value decomposition with rank and kernel extraction.

    ``u @ diag(singular_values) @ v.conj().T`` reconstructs the input;
    ``kernel`` is an orthonormal basis of the right null space at
    DEFAULT_RANK_TOL * max(1, sigma_max).
    """
    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray
    rank: int
    kernel: np.ndarray


def svd_analysis(M) -> SvdResult:
    """SVD of M with rank and kernel determined at
    DEFAULT_RANK_TOL * max(1, sigma_max)."""
    A = as_matrix(M, "M")
    try:
        U, s, Vh = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD failed to converge: {exc}") from exc
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > DEFAULT_RANK_TOL * max(1.0, smax) * (smax > 0)))
    kernel = Vh[rank:].conj().T
    return SvdResult(u=U, singular_values=s, v=Vh.conj().T, rank=rank,
                     kernel=kernel)


@dataclass(frozen=True)
class TakagiResult:
    """Takagi factorization F = U diag(values) U^T of a complex
    symmetric matrix, with ``values`` nonnegative and ascending so that
    kernel-related columns come first.

    Note the kernel normalization: the columns u of U with value 0
    satisfy F @ conj(u) = 0, i.e. their conjugates form an orthonormal
    basis of ker F (the two coincide when the kernel is
    conjugation-invariant, in particular for real F).
    """
    u: np.ndarray
    values: np.ndarray


def takagi(F) -> TakagiResult:
    """Takagi factorization of a complex symmetric matrix.

    The real symmetric M = [[Re F, Im F], [Im F, -Re F]] has the
    eigenvalues +-sigma_i, and an eigenvector [x; y] at sigma gives
    F conj(x + iy) = sigma (x + iy), so the p largest eigenpairs of one
    eigh call give U = X + iY.  Values at most 1e-13 * max(1, sigma_max)
    count as zero; their columns complete the others to a unitary and
    come first.  The completion is one QR of the other columns, largest
    value first, which also undoes the mixing of the nearly equal
    eigenvalues +-sigma of a tiny sigma in M: that mixing rotates
    x + iy out of its complex line and would cost U its unitarity.

    Raises
    ------
    NotSymmetricError
        If ``||F - F^T|| > 1e-9 * max(1, ||F||)``.
    """
    return _takagi(as_matrix(F, "F", square=True))


def _takagi(A: np.ndarray) -> TakagiResult:
    """takagi of a validated square A, whose bounds read ||A||_2 by _within."""
    if not _within((A - A.T,), 1e-9, A):
        raise NotSymmetricError("matrix is not symmetric to tolerance 1e-09")
    A = (A + A.T) / 2
    p = A.shape[0]
    if p == 0:
        return TakagiResult(u=np.zeros((0, 0)), values=np.zeros(0))
    w, V = np.linalg.eigh(_blocks([[A.real, A.imag], [A.imag, -A.real]]))
    lam = w[p:].copy()
    k = int(np.sum(lam <= 1e-13 * max(1.0, lam[-1])))
    lam[:k] = 0.0
    Q, R = np.linalg.qr((V[:p, p + k:] + 1j * V[p:, p + k:])[:, ::-1],
                        mode="complete")
    phase = np.diag(R) / np.abs(np.diag(R))
    U = np.hstack([Q[:, p - k:], (Q[:, :p - k] * phase)[:, ::-1]])
    if not _within((U @ np.diag(lam) @ U.T - A,), 1e-10, A):
        raise ValidationError("Takagi reconstruction failed its tolerance")
    return TakagiResult(u=U, values=lam)


def hermitian_sqrt(M) -> np.ndarray:
    """Hermitian square root of a Hermitian PSD matrix via eigh."""
    A = as_matrix(M, "M", square=True)
    A = (A + A.conj().T) / 2
    w, V = np.linalg.eigh(A)
    if w.size and w[0] < -1e-9 * max(1.0, abs(w[-1])):
        raise ValidationError(f"matrix is not PSD: min eigenvalue {w[0]:g}")
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T


def _schur(M) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form (T, U) of a square M = U T U*, read-only:
    sla.schur, which raises ValueError for a non-finite M, or two empty
    matrices for n = 0."""
    T, U = sla.schur(M, output="complex") if len(M) else (np.zeros((0, 0), complex),) * 2
    T.flags.writeable = U.flags.writeable = False
    return T, U


def _schur_solve(form, Q, conjugate: bool = False, adjoint: bool = False) -> np.ndarray:
    """Solution X of A X + X A* = Q, with ``conjugate`` of A X + X conj(A) = Q
    or with ``adjoint`` of A* X + X A = Q (Bartels & Stewart, CACM 1972), from
    the ``_schur`` form (R, U) of A: one ztrsyl of R Y + Y R* = scale U* Q U,
    R Y + Y conj(R) = scale U* Q conj(U) (conj(A) = conj(U) conj(R) U^T) or
    R* Y + Y R = scale U* Q U, and X = U Y U* (U Y U^T).  The first is bit for
    bit scipy's solve_continuous_lyapunov(A, Q).  LAPACK perturbs a singular
    equation without a warning, and the caller's residual decides; a
    non-finite Q raises ValueError."""
    Q = np.asarray_chkfinite(Q)
    if Q.size == 0:
        return np.zeros(Q.shape, complex)
    R, U = form
    S, V = (R.conj(), U.conj()) if conjugate else (R, U)
    trana, tranb = ("C", "N") if adjoint else ("N", "N" if conjugate else "C")
    Y, scale, _ = sla.lapack.ztrsyl(R, S, U.conj().T.dot(Q.dot(V)), trana=trana, tranb=tranb)
    return U.dot(scale * Y).dot(V.conj().T)
