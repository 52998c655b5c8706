"""State-space realization algebra for proper rational matrix functions.

A realization is a quadruple (A, B, C, D) representing
S(s) = C (sI - A)^{-1} B + D.  This module provides evaluation,
Kalman minimality analysis, series composition, direct sums,
transposition, SVD-staircase minimal realization, construction of
complex symmetric realizations for symmetric transfer functions, and
the Moebius change of variable that moves strict contractivity from a
finite imaginary point to infinity.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionError,
    NotSymmetricError,
    PoleError,
    SubspaceError,
    ValidationError,
)
from .linalg import DEFAULT_RANK_TOL

__all__ = [
    "Realization",
    "DegreeCertificate",
    "freqresp",
    "evaluate",
    "kalman_check",
    "minimal_realization",
    "compose",
    "transpose",
    "direct_sum",
    "subrealization",
    "probe_points",
    "transfer_distance",
    "symmetry_residual",
    "symmetrize",
    "mobius_precondition",
]

_PROBE_SEED = 0x5D1F  # fixed so probe grids are reproducible
_PROBE_COUNT = 32
# (real, imaginary) offsets in [0, 1) of the probe points drawn to the
# right of the poles, one row per point
_PROBE_OFFSETS = np.random.default_rng(_PROBE_SEED).random((_PROBE_COUNT, 2))
_AXIS_PROBES = 1j * np.array([0.0, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0, 100.0, -100.0])


@dataclass(frozen=True)
class Realization:
    """Immutable state-space quadruple (A, B, C, D).

    A is n x n, B is n x m, C is p x n, D is p x m; entries are stored
    as read-only complex128 copies and must be finite.  The spectrum of
    A (the diagonal of its Schur form when one was computed), that form,
    the pole-guard radius and the response on the probe grid are
    computed at most once per instance.
    """
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        # one owned complex copy of each matrix, in its memory layout
        a, d = (np.atleast_2d(np.array(M, dtype=complex)) for M in (self.a, self.d))
        if a.ndim != 2 or d.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"A must be square and D 2-dimensional, got shapes "
                                 f"{a.shape} and {d.shape}")
        (n, _), (p, m) = a.shape, d.shape
        b = np.array(self.b, dtype=complex).reshape(n, -1) if n else np.zeros((0, m), complex)
        c = np.array(self.c, dtype=complex).reshape(-1, n) if n else np.zeros((p, 0), complex)
        if b.shape != (n, m) or c.shape != (p, n):
            raise DimensionError(f"B must be {n}x{m} and C {p}x{n}, got {b.shape} and {c.shape}")
        if not all(np.isfinite(M).all() for M in (a, b, c, d)):
            raise ValidationError("realization contains non-finite entries")
        for name, M in zip("abcd", (a, b, c, d)):
            M.flags.writeable = False
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def outputs(self) -> int:
        return self.d.shape[0]

    @property
    def inputs(self) -> int:
        return self.d.shape[1]

    @cached_property
    def _schur(self) -> tuple[np.ndarray, np.ndarray]:
        """Complex Schur form (T, U) of A, A = U T U*, read-only."""
        return linalg._schur(self.a)

    @cached_property
    def _poles(self) -> np.ndarray:
        # the diagonal of A's Schur form once it exists, else eigvals(A)
        form = vars(self).get("_schur")
        if form is not None:
            lam = np.diag(form[0]).copy()
        else:
            lam = np.linalg.eigvals(self.a) if self.n else np.zeros(0, dtype=complex)
        lam.flags.writeable = False
        return lam

    @cached_property
    def norm_a(self) -> float:
        """Spectral norm ||A||_2."""
        return float(linalg.spectral_norm(self.a))

    @cached_property
    def norm_d(self) -> float:
        """Spectral norm ||D||_2 (0 for an empty D)."""
        return float(linalg.spectral_norm(self.d))

    @cached_property
    def pole_guard(self) -> float:
        """Distance to the spectrum of A within which a point counts as a
        pole, linalg.default_cluster_tol(A) = 1e-7 (1 + ||A||_2)."""
        return 1e-7 * (1.0 + self.norm_a)

    def poles(self) -> np.ndarray:
        """Eigenvalues of A (read-only)."""
        return self._poles

    @cached_property
    def _probe(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(probe_points(self), the response F there, max ||F - F^T||)."""
        pts = probe_points(self)
        F = freqresp(self, pts)
        return pts, F, linalg.max_norm(F - F.transpose(0, 2, 1))


@dataclass(frozen=True)
class DegreeCertificate:
    """Outcome of the Kalman reachability/observability test."""
    mcmillan_degree: int
    reachable_rank: int
    observable_rank: int
    state_dim: int

    @property
    def minimal(self) -> bool:
        return (self.reachable_rank == self.state_dim
                and self.observable_rank == self.state_dim)


def _off_poles(R: Realization, points) -> None:
    """Raise PoleError naming the first point within ``R.pole_guard`` of
    the spectrum of A."""
    s = np.atleast_1d(points)
    near = np.min(np.abs(s[:, np.newaxis] - R.poles()), axis=1, initial=np.inf) <= R.pole_guard
    if near.any():
        raise PoleError(
            f"evaluation point {s[np.argmax(near)]:g} is within {R.pole_guard:g} of a pole")


def _response(R: Realization, s: np.ndarray) -> np.ndarray:
    """R(s) stacked over finite points s that R's pole guard cleared.  A
    realization built by compose or direct_sum is evaluated through its
    operands ``_operands`` = (combine, R1, R2); their poles and ||A|| are
    bounded by its own, so its guard implies theirs."""
    cascade = vars(R).get("_operands")
    if cascade is not None:
        combine, R1, R2 = cascade
        return combine(_response(R1, s), _response(R2, s))
    if R.n == 0:
        return np.repeat(R.d[np.newaxis], s.size, axis=0)
    pencil = s[:, np.newaxis, np.newaxis] * np.eye(R.n) - R.a
    # a 3-d right-hand side is a matrix stack under every numpy version
    return R.c @ np.linalg.solve(pencil, R.b[np.newaxis]) + R.d


def freqresp(R: Realization, points) -> np.ndarray:
    """Values of the transfer function at every point, stacked into a
    (k, p, m) array; infinite points give D.

    All finite points share one stacked solve; a realization built by
    compose or direct_sum takes one per operand instead.  Raises
    PoleError naming the first finite point within ``R.pole_guard`` of
    the spectrum of A.
    """
    s = np.asarray(points, dtype=complex).ravel()
    out = np.repeat(R.d[np.newaxis], s.size, axis=0)
    finite = ~np.isinf(s)
    if R.n == 0 or not finite.any():
        return out
    s = s[finite]
    _off_poles(R, s)
    out[finite] = _response(R, s)
    return out


def evaluate(R: Realization, s: complex) -> np.ndarray:
    """Value of the transfer function at s; s = inf returns D.

    Raises PoleError if s lies within the eigenvalue clustering
    tolerance of the spectrum of A.
    """
    return freqresp(R, [s])[0]


def _values_and_derivatives(R: Realization, points) -> tuple[np.ndarray, np.ndarray]:
    """(S(s_k), S'(s_k)) stacked over finite points, as (C Y + D,
    -C (sI-A)^{-1} Y) with Y = (sI-A)^{-1} B, from one pole guard and
    two stacked solves of the pencils sI - A; raises PoleError as
    freqresp does."""
    s = np.asarray(points, dtype=complex).ravel()
    _off_poles(R, s)
    pencil = s[:, np.newaxis, np.newaxis] * np.eye(R.n) - R.a
    Y = np.linalg.solve(pencil, R.b[np.newaxis])
    return R.c @ Y + R.d, -R.c @ np.linalg.solve(pencil, Y)


def derivative(R: Realization, s: complex) -> np.ndarray:
    """Exact derivative S'(s) = -C (sI-A)^{-2} B of the rational matrix;
    raises PoleError as evaluate does."""
    return _values_and_derivatives(R, [s])[1][0]


def _system_scale(*mats: np.ndarray) -> float:
    return max([1.0] + [linalg.spectral_norm(M) for M in mats])


def _krylov_span(A: np.ndarray, B: np.ndarray, tol: float,
                 scale: float) -> np.ndarray:
    """Orthonormal basis of the smallest A-invariant subspace containing
    the columns of B (the reachable subspace).

    Rank decisions compare singular values against tol * scale, with
    scale the overall system magnitude; a self-relative threshold would
    keep numerically-zero input directions alive.
    """
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    An = A / max(1.0, linalg.spectral_norm(A))
    U, s, _ = np.linalg.svd(B, full_matrices=False)
    V = U[:, s > tol * scale]
    for _ in range(n):
        if V.shape[1] >= n:
            break
        W = An @ V
        W = W - V @ (V.conj().T @ W)
        W = W - V @ (V.conj().T @ W)  # reorthogonalize once
        U, s, _ = np.linalg.svd(W, full_matrices=False)
        new = U[:, s > tol * scale]
        if new.shape[1] == 0:
            break
        V = np.linalg.qr(np.hstack([V, new]))[0]
    return V


def kalman_check(R: Realization) -> DegreeCertificate:
    """Ranks of the reachability and observability Krylov subspaces and
    the McMillan degree (rank of the observability x reachability
    product), all at DEFAULT_RANK_TOL."""
    scale = _system_scale(R.a, R.b, R.c)
    V = _krylov_span(R.a, R.b, DEFAULT_RANK_TOL, scale)
    W = _krylov_span(R.a.conj().T, R.c.conj().T, DEFAULT_RANK_TOL, scale)
    prod = W.conj().T @ V  # empty without states: degree 0
    s = np.linalg.svd(prod, compute_uv=False) if prod.size else np.zeros(1)
    deg = int(np.sum(s > DEFAULT_RANK_TOL * max(1.0, s[0])))
    return DegreeCertificate(mcmillan_degree=deg, reachable_rank=V.shape[1],
                             observable_rank=W.shape[1], state_dim=R.n)


def probe_points(*realizations: Realization) -> np.ndarray:
    """Deterministic probe grid for transfer-function comparisons.

    The union of the fixed imaginary points i*w for
    w in {0, +-0.1, +-1, +-10, +-100} and points drawn to the right of
    every pole of the given realizations (margin 1), avoiding poles;
    32 points in all, drawn from a fixed seed.
    """
    poles = np.concatenate([R.poles() for R in realizations]) \
        if realizations else np.zeros(0, dtype=complex)
    gap = np.min(np.abs(poles[:, np.newaxis] - _AXIS_PROBES), axis=0, initial=np.inf)
    fixed = _AXIS_PROBES[gap > 1e-3]
    # every drawn point lies at least 1 to the right of every pole
    right = float(np.max(poles.real)) + 1.0 if poles.size else 1.0
    off = _PROBE_OFFSETS[:_PROBE_COUNT - len(fixed)]
    extra = right + 3.0 * off[:, 0] + 6j * (off[:, 1] - 0.5)
    return np.concatenate([fixed, extra])


def transfer_distance(R1: Realization, R2: Realization) -> float:
    """max over the probe grid of ||R1(s) - R2(s)|| / (1 + ||R1(s)||)."""
    pts = probe_points(R1, R2)
    v1 = freqresp(R1, pts)
    v2 = freqresp(R2, pts)
    gap = linalg.spectral_norm(v1 - v2)
    return float(np.max(gap / (1.0 + linalg.spectral_norm(v1)), initial=0.0))


def symmetry_residual(R: Realization) -> float:
    """max over the probe grid of ||S(s) - S(s)^T||, read from R's cached
    probe response."""
    return R._probe[2]


def _with_poles(out: Realization, *blocks: Realization) -> Realization:
    """out, whose A is block triangular with the blocks' A on its
    diagonal (or similar to one block's A), given their cached spectra:
    a backward stable spectrum (of the block, for a similarity)."""
    lam = np.concatenate([R.poles() for R in blocks])
    lam.flags.writeable = False
    vars(out)["_poles"] = lam
    return out


def _block_diagonal(F1: np.ndarray, F2: np.ndarray) -> np.ndarray:
    """diag(F1, F2) of two matrices, or of each pair k of two stacks."""
    *k, p1, m1 = F1.shape
    p2, m2 = F2.shape[-2:]
    out = np.zeros((*k, p1 + p2, m1 + m2), dtype=complex)
    out[..., :p1, :m1], out[..., p1:, m1:] = F1, F2
    return out


def compose(R1: Realization, R2: Realization) -> Realization:
    """Series product: realization of s -> R1(s) @ R2(s), which freqresp
    evaluates as that product of its operands' responses."""
    if R1.inputs != R2.outputs:
        raise DimensionError(
            f"cannot compose {R1.outputs}x{R1.inputs} with {R2.outputs}x{R2.inputs}")
    A = _block_diagonal(R2.a, R1.a)
    A[R2.n:, :R2.n] = R1.b @ R2.c
    B = np.vstack([R2.b, R1.b @ R2.d])
    C = np.hstack([R1.d @ R2.c, R1.c])
    D = R1.d @ R2.d
    out = _with_poles(Realization(A, B, C, D), R2, R1)
    vars(out)["_operands"] = (np.matmul, R1, R2)
    return out


def transpose(R: Realization) -> Realization:
    """Realization of S^T, i.e. (A^T, C^T, B^T, D^T)."""
    return Realization(R.a.T, R.c.T, R.b.T, R.d.T)


def direct_sum(R1: Realization, R2: Realization) -> Realization:
    """Realization of the block-diagonal function diag(R1(s), R2(s)),
    which freqresp evaluates block by block."""
    out = _with_poles(Realization(*(_block_diagonal(getattr(R1, k), getattr(R2, k))
                                    for k in "abcd")), R1, R2)
    vars(out)["_operands"] = (_block_diagonal, R1, R2)
    return out


def _same_a(R: Realization, b, c, d) -> Realization:
    """(R.a, b, c, d), keeping R's cached spectrum and norm of A."""
    out = Realization(R.a, b, c, d)
    vars(out).update({k: v for k, v in vars(R).items() if k in ("_poles", "norm_a")})
    return out


def subrealization(R: Realization, rows: slice, cols: slice) -> Realization:
    """View of a block of the transfer function: same (A, *), with the
    selected output rows of C/D and input columns of B/D."""
    return _same_a(R, R.b[:, cols], R.c[rows, :], R.d[rows, cols])


def minimal_realization(R: Realization) -> tuple[Realization, DegreeCertificate]:
    """Minimal realization via a two-stage SVD staircase at
    DEFAULT_RANK_TOL.

    Restricts first to the reachable subspace, then cuts the
    unobservable part.  A cut is verified on the probe grid to a
    transfer distance of 1e-8; with none, R itself is returned.
    """
    scale = _system_scale(R.a, R.b, R.c)
    V = _krylov_span(R.a, R.b, DEFAULT_RANK_TOL, scale)
    A1, B1, C1 = V.conj().T @ R.a @ V, V.conj().T @ R.b, R.c @ V
    W = _krylov_span(A1.conj().T, C1.conj().T, DEFAULT_RANK_TOL, scale)
    if W.shape[1] == R.n:
        return R, DegreeCertificate(R.n, R.n, R.n, R.n)
    out = Realization(W.conj().T @ A1 @ W, W.conj().T @ B1, C1 @ W, R.d)
    cert = kalman_check(out)
    dist = transfer_distance(out, R)
    if dist > 1e-8:
        raise ValidationError(
            f"staircase reduction changed the transfer function: transfer distance "
            f"{dist:g} exceeds 1e-8 at rank tolerance {DEFAULT_RANK_TOL:g}")
    return out, cert


def _intertwiner(R: Realization, structural: bool = False) -> tuple[np.ndarray, float]:
    """Symmetric solution T of T A = A^T T, T B = C^T as
    T = conj(P^{-1} X), from the Gramian A P + P A* + B B* = 0 and
    A X + X conj(A) + B conj(C) = 0: P conj(T) solves the second
    equation since conj(T) conj(A) = A* conj(T), B* conj(T) = conj(C).
    Returns T and ||T||_2.  A ``structural`` R (A = A^T, B = C^T) has
    T = I and skips the second solve.  R's Schur form of A gives its
    poles, P and one factor of X; the other is a Schur form of A^T.

    Both equations are uniquely solvable unless two poles form a mirror
    pair lambda_i + conj(lambda_j) = 0.  Then P is singular exactly when
    (A, B) is not reachable (inertia: x* A = lambda x*, x* B = 0 give
    (A + conj(lambda)) P x = 0, so P x = 0; P x = 0 gives B* x = 0 and
    P A* x = 0), and P need not be definite.  Given reachability, T
    exists exactly when S = S^T, and T maps the reachability matrix of
    (A, B) onto that of (A^T, C^T), so rank T is the observability rank.

    Raises SubspaceError on a mirror pair to within ``R.pole_guard``,
    ValidationError when the smallest |eigenvalue| of P is at most
    n eps times the largest, and NotSymmetricError when the residual
    exceeds 1e-7 * max(1, ||T||).
    """
    form = R._schur  # first, so that R.poles() reads its diagonal
    gap = np.min(np.abs(R.poles()[:, np.newaxis] + R.poles().conj()), initial=np.inf)
    if gap <= R.pole_guard:
        raise SubspaceError(f"Gramian equations are singular: two eigenvalues of A satisfy "
                            f"lambda_i + conj(lambda_j) = 0 (to {gap:.3g})")
    P = linalg._schur_solve(form, -R.b @ R.b.conj().T)
    w = np.abs(np.linalg.eigvalsh(P))
    if w.size and not w.min() > R.n * np.finfo(float).eps * w.max():
        raise ValidationError("the symmetric form requires a minimal realization: (A, B) is "
                              "not reachable (the Gramian P is singular)")
    if structural:
        return np.eye(R.n), 1.0
    X = linalg._schur_solve(form, -R.b @ R.c.conj(), linalg._schur(R.a.T))
    T = np.linalg.solve(P, X).conj()
    T = (T + T.T) / 2
    gaps = (T @ R.a - R.a.T @ T, T @ R.b - R.c.T)
    norm = float(linalg.spectral_norm(T))
    bound = 1e-7 * max(1.0, norm)
    if not all(linalg.norm_at_most(G, bound) for G in gaps):
        res = max(linalg.spectral_norm(G) for G in gaps)
        raise NotSymmetricError(f"intertwining residual {res:g}: S is not symmetric")
    return T, norm


def _structurally_symmetric(R: Realization) -> bool:
    """A = A^T, B = C^T and D = D^T to 1e-9 * max(1, ||A||)."""
    bound = 1e-9 * max(1.0, R.norm_a)
    return all(linalg.norm_at_most(G, bound)
               for G in (R.a - R.a.T, R.b - R.c.T, R.d - R.d.T))


def symmetrize(R: Realization) -> Realization:
    """Complex symmetric realization (A = A^T, B = C^T, D = D^T) of a
    symmetric transfer function from a minimal realization.

    Finds the similarity T A = A^T T, T B = C^T by ``_intertwiner`` in
    O(n^3), factors T = M^T M by Takagi, and returns
    (A_s, B_s, C_s, D) = (M A M^-1, M B, C M^-1, D).  Its certificate
    decides every outcome: a mirror pair of poles raises SubspaceError,
    a singular Gramian P ValidationError (not reachable), an
    intertwining residual NotSymmetricError, a Takagi-singular T
    ValidationError (not observable), an output that is not
    structurally symmetric NotSymmetricError, and a similarity residual
    ||M A - A_s M|| / (||M|| ||A||) or ||C - C_s M|| / ||C|| above 1e-8
    ValidationError.  A structurally symmetric input is returned once P
    is nonsingular, since its observability is the reachability of the
    same pair; with a mirror pair, ``kalman_check`` decides its
    minimality instead.
    """
    if R.outputs != R.inputs:
        raise NotSymmetricError("a symmetric transfer function must be square")
    structural = _structurally_symmetric(R)
    try:
        T, norm = _intertwiner(R, structural)
    except SubspaceError:
        # no Gramian: a structurally symmetric R is its own answer if minimal
        if not (structural and kalman_check(R).minimal):
            raise
    if structural:
        return R
    out, gaps = R, ()
    if R.n:
        tk = linalg._takagi(T, norm)  # T is exactly symmetric
        if tk.values[0] <= 1e-12 * max(1.0, tk.values[-1]):
            raise ValidationError("symmetrize requires a minimal realization: (C, A) is not "
                                  "observable (the intertwiner T is singular)")
        M = np.diag(np.sqrt(tk.values)) @ tk.u.T
        Minv = np.linalg.inv(M)
        # similar to R: it keeps R's spectrum
        out = _with_poles(Realization(M @ R.a @ Minv, M @ R.b, R.c @ Minv, R.d), R)
        # ||M|| = sqrt(sigma_max(T)), as M^T M = T with M = diag(sqrt(values)) U^T
        gaps = ((M @ R.a - out.a @ M, np.sqrt(tk.values[-1]) * R.norm_a),
                (R.c - out.c @ M, linalg.spectral_norm(R.c)))
    if not _structurally_symmetric(out):
        raise NotSymmetricError("the symmetrized realization is not structurally symmetric")
    if not all(linalg.norm_at_most(G, 1e-8 * scale) for G, scale in gaps):
        res = max(linalg.spectral_norm(G) / scale for G, scale in gaps)
        raise ValidationError(f"symmetrization changed the transfer function (residual {res:g})")
    return out


def mobius_precondition(R: Realization, omega0: float) -> Realization:
    """Realization of s -> S(i*omega0 + 1/s).

    The map sends infinity to i*omega0 and the right half-plane onto
    itself, so if S is strictly contractive at i*omega0 the result is
    strictly contractive at infinity, with the same McMillan degree:
    with M = (A - i omega0 I)^{-1}, from one LU factorization, it is
    (M, M B, -C M, S(i omega0)) and S(i omega0) = D - C M B.  Raises
    PoleError as evaluate does, ValidationError for a non-finite omega0.
    """
    if not np.isfinite(omega0):
        raise ValidationError(f"omega0 must be finite, got {omega0!r}")
    s0 = 1j * omega0
    _off_poles(R, s0)
    M = np.linalg.inv(R.a - s0 * np.eye(R.n))
    MB = M @ R.b
    val = R.d - R.c @ MB
    nrm = linalg.spectral_norm(val)
    if nrm >= 1.0 - 1e-12:
        raise ValidationError(
            f"S is not strictly contractive at i*{omega0:g} (norm {nrm:g})")
    return Realization(M, MB, -R.c @ M, val)


def _mobius_inverse(R: Realization, omega0: float) -> Realization:
    """Realization of s -> S(1/(s - i*omega0)), undoing
    mobius_precondition: with M = A^{-1} (A must be invertible), it is
    (i omega0 I + M, i M B, i C M, D - C M B).  It keeps the degree and
    structural symmetry, and every Gramian X of R (A X + X A* + B B* = 0
    and C X + D B* = 0) is one of the result: multiply the first by M
    and M*, and use D B* = -C X in the second."""
    M = np.linalg.inv(R.a)
    MB = M @ R.b
    return Realization(1j * omega0 * np.eye(R.n) + M, 1j * MB, 1j * R.c @ M, R.d - R.c @ MB)
