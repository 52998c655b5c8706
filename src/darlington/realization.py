"""State-space realization algebra for proper rational matrix functions.

A realization is a quadruple (A, B, C, D) representing
S(s) = C (sI - A)^{-1} B + D.  This module provides evaluation,
Kalman minimality analysis, series composition, direct sums,
transposition, Gramian-tested minimal realization, construction of
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
    NotContractiveError,
    NotSymmetricError,
    PoleError,
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
    "frequency_grid",
]

_PROBE_SEED = 0x5D1F  # fixed so probe grids are reproducible
_PROBE_COUNT = 32
# (real, imaginary) offsets in [0, 1) of the probe points drawn to the
# right of the poles, one row per point
_PROBE_OFFSETS = np.random.default_rng(_PROBE_SEED).random((_PROBE_COUNT, 2))
_AXIS_PROBES = 1j * np.array([0.0, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0, 100.0, -100.0])
_CONTRACTIVE_BOUND = 1.0 - 1e-12  # ||D|| below it: strictly contractive at infinity


@dataclass(frozen=True)
class Realization:
    """Immutable state-space quadruple (A, B, C, D).

    A is n x n, B is n x m, C is p x n, D is p x m; entries are stored
    as read-only complex128 copies and must be finite (``_computed`` keeps
    only the finiteness check, for arrays the package computed).  The
    spectrum of A (the diagonal of its Schur form when one was computed),
    that form, its ``_shifted`` form and Gramian, the pole-guard radius and
    the response on the probe grid are computed at most once per instance.
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
        b, c = np.array(self.b, dtype=complex), np.array(self.c, dtype=complex)
        b = b.reshape(n, m) if b.size == n * m else b
        c = c.reshape(p, n) if c.size == p * n else c
        if b.shape != (n, m) or c.shape != (p, n):
            raise DimensionError(f"B must be {n}x{m} and C {p}x{n}, got {b.shape} and {c.shape}")
        _store(self, a, b, c, d)

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
    def _shifted(self) -> tuple[np.ndarray, np.ndarray]:
        """Schur form (T - sigma I, U) of A - sigma I, read-only: sigma = 0 unless
        ``_mirror_gap`` is at most the pole guard, else max Re lambda + rho(A)
        (+ 1 for rho(A) = 0), so that no two poles of A - sigma I are mirrors."""
        T, U = self._schur  # first, so that self.poles() reads its diagonal
        if _mirror_gap(self) > self.pole_guard:
            return T, U
        lam = np.diag(T)
        T = T - (np.max(lam.real) + (np.max(np.abs(lam)) or 1.0)) * np.eye(self.n)
        T.flags.writeable = False
        return T, U

    @cached_property
    def _gramian(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, eigvalsh(P)), P the ``_shifted`` form's controllability Gramian."""
        P = linalg._schur_solve(self._shifted, -self.b @ self.b.conj().T)
        return P, np.linalg.eigvalsh(P)

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


def _store(R: Realization, *mats: np.ndarray) -> None:
    """Set R's (A, B, C, D) to the complex arrays ``mats``, made read-only in
    place; raises ValidationError if one has a non-finite entry."""
    if not all(np.isfinite(M).all() for M in mats):
        raise ValidationError("realization contains non-finite entries")
    for name, M in zip("abcd", mats):
        M.flags.writeable = False
        object.__setattr__(R, name, M)


def _computed(a, b, c, d) -> Realization:
    """Realization of arrays of consistent shapes that the package computed:
    no copy (a complex array is made read-only in place) and no shape check,
    but a non-finite entry still raises ValidationError."""
    out = object.__new__(Realization)
    _store(out, *(np.asarray(M, dtype=complex) for M in (a, b, c, d)))
    return out


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


def _pencils(s: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The stack s_k I - A: -A repeated, s_k added on einsum's diagonal view."""
    pencil = np.repeat(-A[np.newaxis], s.size, axis=0)
    np.einsum("kii->ki", pencil)[...] += s[:, np.newaxis]
    return pencil


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
    # a 3-d right-hand side is a matrix stack under every numpy version
    return R.c @ np.linalg.solve(_pencils(s, R.a), R.b[np.newaxis]) + R.d


def freqresp(R: Realization, points) -> np.ndarray:
    """Values of the transfer function at every point, stacked into a
    (k, p, m) array; infinite points give D.

    All finite points share one stacked solve; a realization built by
    compose or direct_sum takes one per operand instead.  Raises
    ValidationError naming the first finite point that is nan, and
    PoleError naming the first within ``R.pole_guard`` of the spectrum
    of A.
    """
    s = np.asarray(points, dtype=complex).ravel()
    finite = ~np.isinf(s)
    nan = np.isnan(s) & finite
    if nan.any():
        raise ValidationError(f"evaluation point {np.argmax(nan)} is nan: {s[nan][0]}")
    out = np.repeat(R.d[np.newaxis], s.size, axis=0)
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
    pencil = _pencils(s, R.a)
    Y = np.linalg.solve(pencil, R.b[np.newaxis])
    return R.c @ Y + R.d, -R.c @ np.linalg.solve(pencil, Y)


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
    """max over the probe grid of ||R1(s) - R2(s)|| / (1 + ||R1(s)||), nan if not finite."""
    pts = probe_points(R1, R2)
    v1, v2 = freqresp(R1, pts), freqresp(R2, pts)
    if not (np.isfinite(v1).all() and np.isfinite(v2).all()):
        return np.nan
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
    out = _with_poles(_computed(A, B, C, D), R2, R1)
    vars(out)["_operands"] = (np.matmul, R1, R2)
    return out


def transpose(R: Realization) -> Realization:
    """Realization of S^T, i.e. (A^T, C^T, B^T, D^T)."""
    return Realization(R.a.T, R.c.T, R.b.T, R.d.T)


def direct_sum(R1: Realization, R2: Realization) -> Realization:
    """Realization of the block-diagonal function diag(R1(s), R2(s)),
    which freqresp evaluates block by block."""
    out = _with_poles(_computed(*(_block_diagonal(getattr(R1, k), getattr(R2, k))
                                  for k in "abcd")), R1, R2)
    vars(out)["_operands"] = (_block_diagonal, R1, R2)
    return out


def _same_a(R: Realization, b, c, d) -> Realization:
    """(R.a, b, c, d), keeping R's cached spectrum and norm of A."""
    out = _computed(R.a, b, c, d)
    vars(out).update({k: v for k, v in vars(R).items() if k in ("_poles", "norm_a")})
    return out


def subrealization(R: Realization, rows: slice, cols: slice) -> Realization:
    """View of a block of the transfer function: same (A, *), with the
    selected output rows of C/D and input columns of B/D."""
    return _same_a(R, R.b[:, cols], R.c[rows, :], R.d[rows, cols])


def minimal_realization(R: Realization) -> tuple[Realization, DegreeCertificate]:
    """Minimal realization.  R is returned if both Gramians of its ``_shifted``
    form, ``_gramian`` P and (A - sigma I)* Q + Q (A - sigma I) + C* C = 0,
    pass ``_nonsingular``, stable or not (Moore 1981; Glover 1984;
    ``_intertwiner``).  Else a two-stage SVD staircase at DEFAULT_RANK_TOL
    cuts the unreachable, then the unobservable part, verified on the probe
    grid to a transfer distance of 1e-8 (R itself with no cut)."""
    if _nonsingular(R._gramian[1]) and _nonsingular(np.linalg.eigvalsh(
            linalg._schur_solve(R._shifted, -R.c.conj().T @ R.c, adjoint=True))):
        return R, DegreeCertificate(R.n, R.n, R.n, R.n)
    scale = _system_scale(R.a, R.b, R.c)
    V = _krylov_span(R.a, R.b, DEFAULT_RANK_TOL, scale)
    A1, B1, C1 = V.conj().T @ R.a @ V, V.conj().T @ R.b, R.c @ V
    W = _krylov_span(A1.conj().T, C1.conj().T, DEFAULT_RANK_TOL, scale)
    if W.shape[1] == R.n:
        return R, DegreeCertificate(R.n, R.n, R.n, R.n)
    out = Realization(W.conj().T @ A1 @ W, W.conj().T @ B1, C1 @ W, R.d)
    cert = kalman_check(out)
    dist = transfer_distance(out, R)
    if not dist <= 1e-8:  # a nan fails too
        raise ValidationError(
            f"staircase reduction changed the transfer function: transfer distance "
            f"{dist:g} exceeds 1e-8 at rank tolerance {DEFAULT_RANK_TOL:g}")
    return out, cert


def _mirror_gap(R: Realization) -> float:
    """min |lambda_i + conj(lambda_j)| over the poles of R (inf without states); at
    most ``R.pole_guard`` a mirror pair makes the Gramian equations of A singular."""
    lam = R.poles()
    return float(np.min(np.abs(lam[:, np.newaxis] + lam.conj()), initial=np.inf))


def _nonsingular(w: np.ndarray) -> bool:
    """min |w| > n eps max |w| for the n eigenvalues w of a Gramian (nan fails)."""
    w = np.abs(w)
    return bool(not w.size or w.min() > w.size * np.finfo(float).eps * w.max())


def _intertwiner(R: Realization, structural: bool = False) -> np.ndarray:
    """Symmetric solution T of T A = A^T T, T B = C^T as T = conj(P^{-1} X),
    from R's cached ``_gramian`` P and (A - sigma I) X + X conj(A - sigma I)
    + B conj(C) = 0 on its ``_shifted`` form: P conj(T) solves the second
    equation for every real sigma, since conj(T) conj(A) = A* conj(T) and
    B* conj(T) = conj(C).  A ``structural`` R (A = A^T, B = C^T) has T = I
    and skips the second solve.  No two poles of A - sigma I are mirrors, so
    both equations are uniquely solvable, and P is singular exactly when
    (A, B) is not reachable (inertia: x* A = lambda x*, x* B = 0 give P x = 0;
    P x = 0 gives B* x = 0 and P A* x = 0); P need not be definite.  Given
    reachability, T exists exactly when S = S^T, and rank T is the
    observability rank.

    Raises ValidationError when P fails ``_nonsingular``, NotSymmetricError
    when the residual exceeds 1e-7 max(1, ||T||) max(1, ||A||): that of a
    computed T grows with ||A||, as in S(s / a).
    """
    P, w = R._gramian
    if not _nonsingular(w):
        raise ValidationError("the symmetric form requires a minimal realization: (A, B) is "
                              "not reachable (the Gramian P is singular)")
    if structural:
        return np.eye(R.n)
    X = linalg._schur_solve(R._shifted, -R.b @ R.c.conj(), conjugate=True)
    T = np.linalg.solve(P, X).conj()
    T = (T + T.T) / 2
    gaps = (T @ R.a - R.a.T @ T, T @ R.b - R.c.T)
    if not linalg._within(gaps, 1e-7 * max(1.0, R.norm_a), T):
        res = max(linalg.spectral_norm(G) for G in gaps)
        raise NotSymmetricError(f"intertwining residual {res:g}: S is not symmetric")
    return T


def _structurally_symmetric(R: Realization) -> bool:
    """A = A^T, B = C^T and D = D^T to 1e-9 * max(1, ||A||)."""
    bound = 1e-9 * max(1.0, R.norm_a)
    return all(linalg.norm_at_most(G, bound)
               for G in (R.a - R.a.T, R.b - R.c.T, R.d - R.d.T))


def _exactly_symmetric(R: Realization) -> bool:
    """A = A^T, C = B^T and D = D^T bit for bit."""
    return all(np.array_equal(X, Y.T) for X, Y in ((R.a, R.a), (R.c, R.b), (R.d, R.d)))


def _symmetric_form(R: Realization, V: np.ndarray,
                    v: np.ndarray) -> tuple[Realization, np.ndarray]:
    """The J-symmetric form of R, J = diag(sign v), and sign v, from a factor
    T = V diag(v) V^T (V unitary) of its intertwiner T A = A^T T, T B = C^T.
    M = diag(|v|^1/2) V^T has T = M^T J M and M^-1 = conj(V) diag(|v|^-1/2),
    so (A', B', C', D) = (M A M^-1, M B, C M^-1, D) is J-symmetric; its
    projection A_s = (A' + J A'^T J)/2, B_s = (B' + J C'^T)/2 = J C_s^T,
    D_s = (D + D^T)/2, exact in floating point as J = +-1, keeps R's
    spectrum.  Raises ValidationError on a singular T (min |v| at most
    1e-12 max(1, max |v|): not observable), NotSymmetricError on an
    (A', B', C', D) not J-symmetric to 1e-9 max(1, ||A'||), and
    ValidationError on a similarity residual ||M A - A_s M|| / (||M|| ||A||)
    or ||C - C_s M|| / ||C|| above 1e-8."""
    w = np.abs(v)
    if np.min(w, initial=np.inf) <= 1e-12 * max(1.0, np.max(w, initial=0.0)):
        raise ValidationError("the symmetric form requires a minimal realization: (C, A) is "
                              "not observable (the intertwiner T is singular)")
    j, root = np.sign(v), np.sqrt(w)
    M, Minv = root[:, np.newaxis] * V.T, V.conj() / root
    A, B, C = M @ R.a @ Minv, M @ R.b, R.c @ Minv
    JAJ, JC = j[:, np.newaxis] * A.T * j, j[:, np.newaxis] * C.T  # J A'^T J, J C'^T
    if not linalg._within((A - JAJ, B - JC, R.d - R.d.T), 1e-9, A):
        raise NotSymmetricError("(M A M^-1, M B, C M^-1, D) is not structurally symmetric "
                                "for J = sign v")
    out = _with_poles(_computed((A + JAJ) / 2, (B + JC) / 2, (C + B.T * j) / 2,
                                (R.d + R.d.T) / 2), R)
    if "norm_d" in vars(R) and np.array_equal(out.d, R.d):
        vars(out)["norm_d"] = R.norm_d  # the same D: no second SVD
    gap_a, gap_c = M @ R.a - out.a @ M, R.c - out.c @ M
    scale = np.max(root, initial=0.0) * R.norm_a  # ||M|| ||A||
    if not (linalg.norm_at_most(gap_a, 1e-8 * scale)
            and linalg._within((gap_c,), 1e-8, R.c, floor=0.0)):
        res = max(linalg.spectral_norm(gap_a) / scale,
                  linalg.spectral_norm(gap_c) / linalg.spectral_norm(R.c))
        raise ValidationError(f"the similarity changed the transfer function (residual {res:g})")
    return out, j


def symmetrize(R: Realization) -> Realization:
    """Complex symmetric realization (A = A^T, B = C^T, D = D^T) of a symmetric
    transfer function from a minimal realization: the ``_symmetric_form``
    (J = I) of R on the Takagi factor T = U diag(sigma) U^T of its
    ``_intertwiner`` T, found in O(n^3); their certificates decide every
    outcome, and both raise as they document.  A structurally symmetric R has
    T = I (its observability is the reachability of the same pair), so V = I,
    v = 1, and is itself the answer if exactly symmetric.
    """
    if R.outputs != R.inputs:
        raise NotSymmetricError("a symmetric transfer function must be square")
    structural = _structurally_symmetric(R)
    T = _intertwiner(R, structural)
    if structural and _exactly_symmetric(R):
        return R
    tk = (linalg.TakagiResult(np.eye(R.n), np.ones(R.n)) if structural
          else linalg._takagi(T))  # T is exactly symmetric
    return _symmetric_form(R, tk.u, tk.values)[0]


def frequency_grid() -> np.ndarray:
    """Standard 61-point frequency grid: 0 and +-j*10^k for
    j in {1, 1.5, 2, 3, 5, 7.5} and k in {-2, ..., 2}."""
    mags = [j * 10.0 ** k for k in range(-2, 3) for j in (1.0, 1.5, 2.0, 3.0, 5.0, 7.5)]
    return np.array([0.0] + [w for m in mags for w in (m, -m)])


def _contractive_entry(R: Realization) -> tuple[Realization, float | None]:
    """The one entry of synthesis and check: (R, None) if ||D|| < _CONTRACTIVE_BOUND, else
    (mobius_precondition(R, w0), w0) at the frequency_grid() point w0 of least ||S(i w0)||.
    A rational S is strictly contractive at all but finitely many axis points or at none:
    NotContractiveError unless that norm is < 1 - 1e-6; ValidationError for non-finite S(iw)."""
    if R.norm_d < _CONTRACTIVE_BOUND:
        return R, None
    grid = frequency_grid()
    vals = freqresp(R, 1j * grid)
    if not np.isfinite(vals).all():
        raise ValidationError("S has a non-finite response on the frequency grid")
    norms = linalg.spectral_norm(vals)
    k = int(np.argmin(norms))
    if not norms[k] < 1.0 - 1e-6:
        raise NotContractiveError(f"S is not strictly contractive at any point of the "
                                  f"frequency grid (smallest ||S(iw)||_2 {norms[k]:.6g})")
    return mobius_precondition(R, float(grid[k])), float(grid[k])


def mobius_precondition(R: Realization, omega0: float) -> Realization:
    """Realization of s -> S(i*omega0 + 1/s).

    The map sends infinity to i*omega0 and the right half-plane onto
    itself, so if S is strictly contractive at i*omega0 the result is
    strictly contractive at infinity, with the same McMillan degree:
    with M = (A - i omega0 I)^{-1}, from one LU factorization, it is
    (M, M B, -C M, S(i omega0)) and S(i omega0) = D - C M B.  Raises
    PoleError as freqresp does, ValidationError for a non-finite omega0.
    """
    if not np.isfinite(omega0):
        raise ValidationError(f"omega0 must be finite, got {omega0!r}")
    s0 = 1j * omega0
    _off_poles(R, s0)
    M = np.linalg.inv(R.a - s0 * np.eye(R.n))
    MB = M @ R.b
    val = R.d - R.c @ MB
    nrm = linalg.spectral_norm(val)
    if nrm >= _CONTRACTIVE_BOUND:
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
