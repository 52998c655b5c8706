"""Degree-preserving inner extensions and symmetric unitary extensions.

Every Hermitian solution P of the Riccati equation yields a 2p x 2p
inner function sharing the dynamics matrix A of the embedded Schur
function S:

    [[A | B1, B], [C1; C | DD]],   DD = [[-D*, (I-D*D)^{1/2}],
                                         [(I-DD*)^{1/2}, D]],

    B1 = -(P C* + B D*) (I - D D*)^{-1/2},
    C1 = -(I - D* D)^{-1/2} (B* P^{-1} + D* C).

Two such extensions with the same S block differ by the unitary factor
Q = S21^{-1} S21~ whose degree equals rank(P~ - P) and which is inner
exactly when P~ >= P.  Since Z Gamma + Gamma Z~* = R(P~) - R(P) = 0
for the closed loops Z = A_hat + P C_hat* C_hat and Z~ of the two
solutions and Gamma = P~ - P, range(Gamma) is Z-invariant and holds
the input matrix of Q, so Q is realized minimally on it in closed form.
For a symmetric realization of a symmetric S, right-multiplying an
extension by diag(Q, I) with Q = S21^{-1} S12^T (that is, P~ = P^{-T})
produces a symmetric extension, unitary on the imaginary axis.
Each stage is certified on a Gramian known in closed form: P for S_P,
a signature J_Q = diag(+-1) for Q, and diag(J_Q, I) for the symmetric
extension, which takes S_P on the state L^{-1} x (P = L L*): I, so
balanced, when it is inner.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import linalg
from .errors import DimensionError, NotSymmetricError, ValidationError
from .realization import (
    Realization,
    _block_diagonal,
    _computed,
    _mirror_gap,
    _nonsingular,
    _same_a,
    _structurally_symmetric,
    _with_poles,
    compose,
    direct_sum,
    freqresp,
    frequency_grid,
    kalman_check,
    subrealization,
    symmetry_residual,
)
from .riccati import RiccatiSolution, _require_contractive, _require_p

__all__ = [
    "ExtensionBlocks",
    "QFactor",
    "innerness_residual",
    "build_extension",
    "apply_gauge",
    "extension_from_left_factor",
    "compare_extensions",
    "symmetric_unitary_extension",
]


def innerness_residual(R: Realization) -> float:
    """max over the frequency grid of || T(iw) T(iw)* - I ||: unitarity
    on the imaginary axis (stability not implied)."""
    T = freqresp(R, 1j * frequency_grid())
    gap = T @ T.conj().transpose(0, 2, 1) - np.eye(R.outputs)
    return linalg.max_norm(gap)


def _lossless_residual(R: Realization, X, w=None, lyap=None) -> float:
    """Lossless bounded-real certificate on a controllability Gramian X
    known in closed form (Anderson & Vongpanitlerd 1973; Glover 1984), a
    diagonal one given as its real diagonal: A X + X A* + B B* = 0,
    C X + D B* = 0 and D D* = I make R all-pass.
    A nonsingular X maps an unreachable state to an eigenvector at the
    mirror -conj(lambda) of its pole, so R is minimal unless two poles
    form a mirror pair (``_mirror_gap``; then the Kalman ranks decide);
    it is inner exactly when X > 0.

    Returns the largest residual (Lyapunov in the Frobenius norm relative
    to 2 ||A|| ||X|| + ||B||^2, cross term relative to ||B||), or inf if R
    is not minimal or X fails ``_nonsingular``.  The Hermitian D D* - I, X
    and B* B give their 2-norms by eigvalsh; a caller that has the
    eigenvalues ``w`` of a dense X or ``lyap`` = A X + X A* + B B* passes
    them.  A diagonal X forms no dense A X or C X: A X is A's columns scaled,
    and X A* its conjugate transpose.
    """
    A, B, C, D = R.a, R.b, R.c, R.d
    unit = linalg.hermitian_norm(D @ D.conj().T - np.eye(R.outputs))
    if R.n == 0:
        return unit
    if _mirror_gap(R) <= R.pole_guard and not kalman_check(R).minimal:
        return np.inf
    X = np.asarray(X)
    if X.ndim == 1:
        X = X.real
        w, AX, CX = X, A * X, C * X
        lyap = AX + AX.conj().T + B @ B.conj().T
    else:
        X = np.asarray(X, dtype=complex)
        X = (X + X.conj().T) / 2
        w = np.linalg.eigvalsh(X) if w is None else w
        if lyap is None:
            lyap = A @ X + X @ A.conj().T + B @ B.conj().T
        CX = C @ X
    w = np.abs(w)
    if not _nonsingular(w):
        return np.inf
    top = np.max(w)
    # X nonsingular needs B != 0; with D unitary, ||D B*|| = ||C X|| = ||B||
    nB = np.sqrt(linalg.hermitian_norm(B.conj().T @ B))
    lyap = np.linalg.norm(lyap) / (2 * R.norm_a * top + nB ** 2)
    cross = linalg.spectral_norm(CX + D @ B.conj().T) / nB
    return float(np.max([lyap, cross, unit]))  # keeps a nan


@dataclass(frozen=True)
class ExtensionBlocks:
    """A 2p x 2p inner extension S_P of S and its Riccati solution P.

    ``realization`` is the full extension (A | [B1 B]; [C1; C] | DD)
    with n states; the S block sits in the lower-right p x p corner,
    and B1, C1 and the blocks of DD are slices of it.  ``p_eigenvalues``
    is eigvalsh(P), ``certificate`` the lossless residual on P.
    """
    realization: Realization
    p: int
    p_matrix: np.ndarray
    p_eigenvalues: np.ndarray
    certificate: float

    @property
    def s21(self) -> Realization:
        return subrealization(self.realization, slice(self.p, 2 * self.p), slice(0, self.p))

    @property
    def s22(self) -> Realization:
        return subrealization(self.realization, slice(self.p, 2 * self.p),
                              slice(self.p, 2 * self.p))


@dataclass(frozen=True)
class QFactor:
    """Quotient Q = S21^{-1} S21~ of the left spectral factors of two
    extensions; unitary on the imaginary axis, realized minimally on
    range(P~ - P); certified on its Gramian ``gramian``, diag(+-1)."""
    realization: Realization
    degree: int
    inner_flag: bool
    unitary_residual: float
    gramian: np.ndarray


def build_extension(R: Realization, P) -> ExtensionBlocks:
    """Inner 2p x 2p extension of S associated with a Riccati solution P.

    Parameters
    ----------
    R : Realization
        Minimal realization of a Schur function, strictly contractive
        at infinity.
    P : RiccatiSolution or array_like
        Hermitian positive-definite solution.  Its Riccati residual R(P)
        is the extension's own Lyapunov residual A P + P A* + B1 B1* + B B*,
        verified against ``1e-8 * (1 + ||P||^2)``.

    Returns
    -------
    ExtensionBlocks
        The extension has the same McMillan degree as S and a unitary
        value at infinity, certified inner and minimal to 1e-8 on its
        Gramian P.
    """
    _require_contractive(R)
    Pm = _require_p(P.p if isinstance(P, RiccatiSolution) else P, R.n)
    Pm = (Pm + Pm.conj().T) / 2  # a RiccatiSolution's P is exactly Hermitian
    w = P.p_eigenvalues if isinstance(P, RiccatiSolution) else np.linalg.eigvalsh(Pm)
    if w.size and w[0] <= 0:
        raise ValidationError("P must be positive definite")
    p = R.outputs
    Ip = np.eye(p)
    d21 = linalg.hermitian_sqrt(Ip - R.d @ R.d.conj().T)
    d12 = linalg.hermitian_sqrt(Ip - R.d.conj().T @ R.d)
    d11 = -R.d.conj().T
    Pinv = np.linalg.inv(Pm)
    c1 = -np.linalg.inv(d12) @ (R.b.conj().T @ Pinv + R.d.conj().T @ R.c)
    b1 = -(Pm @ R.c.conj().T + R.b @ R.d.conj().T) @ np.linalg.inv(d21)
    big = _same_a(R, np.hstack([b1, R.b]), np.vstack([c1, R.c]),
                  linalg._blocks([[d11, d12], [d21, R.d]]))
    lyap = R.a @ Pm + Pm @ R.a.conj().T + big.b @ big.b.conj().T  # = R(P)
    if not linalg.norm_at_most(lyap, 1e-8 * (1.0 + np.max(w, initial=0.0) ** 2)):  # ||Pm||
        raise ValidationError(f"Riccati residual {linalg.spectral_norm(lyap):g} "
                              "too large for an inner extension")
    DD = big.d
    if not linalg.norm_at_most(DD @ DD.conj().T - np.eye(2 * p), 1e-10):
        raise ValidationError("value at infinity is not unitary")
    resid = _lossless_residual(big, Pm, w, lyap)
    if not resid <= 1e-8:  # a nan fails too
        raise ValidationError(f"extension is not certified inner and "
                              f"minimal (lossless residual {resid:g})")
    return ExtensionBlocks(realization=big, p=p, p_matrix=Pm, p_eigenvalues=w,
                           certificate=resid)


def apply_gauge(E: ExtensionBlocks, U1, U2) -> ExtensionBlocks:
    """Constant unitary gauge diag(U2, I) S_P diag(U1, I): the
    congruence (A | B diag(U1, I); diag(U2, I) C | diag(U2, I) D diag(U1, I));
    preserves innerness, P and the S block; the output carries its own
    lossless certificate on P."""
    p = E.p
    U1, U2 = (np.asarray(U, dtype=complex) for U in (U1, U2))
    for name, U in (("U1", U1), ("U2", U2)):
        if U.shape != (p, p):
            raise DimensionError(f"{name} must be {p}x{p}")
        if not np.all(np.isfinite(U)):
            raise ValidationError(f"{name} must be finite")
        if not linalg.norm_at_most(U @ U.conj().T - np.eye(p), 1e-10):
            raise ValidationError(f"{name} is not unitary")
    R = E.realization
    V1, V2 = (_block_diagonal(U, np.eye(p)) for U in (U1, U2))
    big = _same_a(R, R.b @ V1, V2 @ R.c, V2 @ R.d @ V1)
    Pm, w = E.p_matrix, E.p_eigenvalues
    return ExtensionBlocks(realization=big, p=p, p_matrix=Pm, p_eigenvalues=w,
                           certificate=_lossless_residual(big, Pm, w))


def extension_from_left_factor(R: Realization, S21: Realization) -> ExtensionBlocks:
    """Unique inner extension of S whose lower-left block is a given
    minimal left spectral factor of I - S S*.

    S21 must share the dynamics and output matrices of R (realization
    [S21 S] = (A | [B1 B]; C | [D21 D])) and take the normalized value
    (I - D D*)^{1/2} at infinity.  P is recovered from the Lyapunov
    equation A P + P A* + B1 B1* + B B* = 0, which has a unique
    (Hermitian, positive definite) solution since A is stable.
    """
    if S21.n != R.n or not (np.allclose(S21.a, R.a, rtol=0, atol=1e-12) and
                            np.allclose(S21.c, R.c, rtol=0, atol=1e-12)):
        raise ValidationError(
            "S21 must share the (C, A) pair of the realization of S")
    p = R.outputs
    d21_expected = linalg.hermitian_sqrt(np.eye(p) - R.d @ R.d.conj().T)
    if not linalg.norm_at_most(S21.d - d21_expected, 1e-8):
        raise ValidationError(
            "S21 has the wrong value at infinity; expected (I - DD*)^{1/2}")
    form = R._schur  # R.poles() reads its diagonal
    lam = R.poles()
    # a pole within the guard of its own mirror is no stable pole (_mirror_gap)
    if lam.size and np.max(lam.real) >= -R.pole_guard / 2:
        raise ValidationError(
            f"A has the eigenvalue {lam[np.argmax(lam.real)]:.6g}, not in the "
            "open left half-plane; the Lyapunov equation for P needs A Hurwitz")
    B1 = S21.b
    G = B1 @ B1.conj().T + R.b @ R.b.conj().T
    P = linalg._schur_solve(form, -G)
    P = (P + P.conj().T) / 2
    E = build_extension(R, P)
    if not linalg.norm_at_most(E.realization.b[:, :p] - B1,
                               1e-8 * (1.0 + linalg.spectral_norm(B1))):
        raise ValidationError(
            "the given S21 is not a minimal left spectral factor of "
            "I - S S* (input matrix mismatch after the Lyapunov solve)")
    return E


def _identity(p: int) -> Realization:
    """The constant p x p identity, with no states."""
    return _computed(np.zeros((0, 0)), np.zeros((0, p)), np.zeros((p, 0)), np.eye(p))


def _quotient(E: ExtensionBlocks, P2, degree: int | None) -> QFactor:
    """Q = S21^{-1} S21~ for a second Riccati solution P2, restricted to
    range(Gamma), Gamma = P2 - P.  S21^{-1} has the dynamics
    Z = A - B1 D21^{-1} C (the closed loop A_hat + P C_hat* C_hat); with
    V the ``degree`` eigenvectors of Gamma of largest modulus (None: those
    whose eigenvalues exceed 1e-9 max(1, ||P||, ||P2||) in modulus),
    Q = (V* Z V | V* Gamma C* D21^{-1}; -D21^{-1} C V | I) has the
    Gramian F = V* Gamma V (Z Gamma + Gamma Z* + Gamma C_hat* C_hat Gamma =
    R(P2) - R(P) = 0).  With the equilibrated t F t = W diag(g) W*,
    t = diag(|F_ii|^{-1/2}), the state |g|^{-1/2} W* t V* x has the
    Gramian diag(sign g).  Certified on that state by the invariance
    residual ||Z V - V (V* Z V)|| <= 1e-7 max(1, ||Z||) and on
    diag(sign g) to 1e-8, minimal of degree rank(Gamma); inner exactly
    when P <= P2, that is when every g > 0.  At ``degree`` 0, Q is the
    constant I with no states (residual 0, inner, a 0 x 0 Gramian), and
    P2 is not read.
    """
    if degree == 0:
        return QFactor(realization=_identity(E.p), degree=0, inner_flag=True,
                       unitary_residual=0.0, gramian=np.zeros((0, 0)))
    p, P1, big = E.p, E.p_matrix, E.realization
    P2 = (P2 + P2.conj().T) / 2
    gamma = P2 - P1
    w, U = np.linalg.eigh(gamma)
    if degree is None:
        cut = linalg.DEFAULT_RANK_TOL * max(
            1.0, np.max(np.abs(E.p_eigenvalues), initial=0.0), linalg.hermitian_norm(P2))
        V = U[:, np.abs(w) > cut]
    else:  # in eigh's order
        V = U[:, np.sort(np.argsort(np.abs(w))[w.size - degree:])]
    C = big.c[p:]
    d21inv = np.linalg.inv(big.d[p:, :p])
    Z = big.a - big.b[:, :p] @ d21inv @ C
    ZV = Z @ V
    gap = ZV - V @ (V.conj().T @ ZV)
    if not linalg._within((gap,), 1e-7, Z):
        raise ValidationError(
            f"range(P~ - P) is not invariant under the closed loop Z (invariance "
            f"residual {linalg.spectral_norm(gap):g}); P~ is not a Riccati solution")
    F = V.conj().T @ gamma @ V
    t = 1.0 / np.sqrt(np.abs(np.diagonal(F)))[:, np.newaxis]
    g, W = np.linalg.eigh(t * F * t.T)
    # the state is Yl* x / s, and Yr s maps it back
    s, Yl, Yr = np.sqrt(np.abs(g)), V @ (t * W), V @ (W / t)
    Q = _computed(Yl.conj().T @ Z @ Yr * s / s[:, np.newaxis],
                  Yl.conj().T @ gamma @ C.conj().T @ d21inv / s[:, np.newaxis],
                  -d21inv @ C @ Yr * s, np.eye(p))
    ures = _lossless_residual(Q, np.sign(g))
    if not ures <= 1e-8:
        raise ValidationError(f"Q is not certified unitary and minimal "
                              f"(lossless residual {ures:g})")
    return QFactor(realization=Q, degree=V.shape[1], inner_flag=bool(np.all(g > 0)),
                   unitary_residual=ures, gramian=np.diag(np.sign(g)))


def compare_extensions(E1: ExtensionBlocks, E2: ExtensionBlocks) -> QFactor:
    """Unitary quotient Q = S21^{-1} S21~ of two extensions of the same S.

    Q is realized on the closed loop Z of the first extension, restricted
    to its invariant subspace range(P~ - P):
    (V* Z V | V* (P~-P) C* D21^{-1}; -D21^{-1} C V | I).  Its degree
    equals rank(P~ - P) and it is inner exactly when P~ >= P in the
    Loewner order.
    """
    if E1.p != E2.p:
        raise DimensionError("extensions have different block sizes")
    R1, R2 = E1.s22, E2.s22
    if R1.n != R2.n or not all(np.allclose(getattr(R1, k), getattr(R2, k), rtol=0, atol=1e-10)
                               for k in "abcd"):
        raise ValidationError("extensions do not share the same S block")
    return _quotient(E1, E2.p_matrix, None)


def _lossless_projection(R: Realization, j: np.ndarray) -> Realization:
    """The realization nearest R in which the lossless identities hold
    exactly on the Gramian J = diag(j), j = +-1: with the Lyapunov residual
    E = A J + J A* + B B*, (A - E J / 2, B, -D B* J, D).  It keeps R's cached
    spectrum, which its certificate bounds."""
    AJ = R.a * j
    E = AJ + AJ.conj().T + R.b @ R.b.conj().T
    return _with_poles(_computed(R.a - E * j / 2, R.b, -(R.d @ R.b.conj().T) * j, R.d), R)


def symmetric_unitary_extension(E: ExtensionBlocks, degree: int
                                ) -> tuple[Realization, QFactor, float, float]:
    """Symmetric extension Sigma_P = S_P diag(Q, I), Q = S21^{-1} S12^T.

    Requires the source realization of S to be symmetric (A = A^T,
    B = C^T, D = D^T), which makes P^{-T} another Riccati solution with
    S_{P^{-T}} = S_P^T.  The result is unitary on the imaginary axis and
    symmetric; it is inner if and only if P^{-T} - P is positive
    semidefinite.  Sigma has deg S + deg Q states, and the caller passes
    ``degree`` = deg Q = rank(P^{-T} - P) >= kappa: kappa for the symmetric
    Riccati solution, n - n0 for an extremal one; a non-integer degree
    raises ValidationError.  The states are Q's, then
    S_P's on L^{-1} x, P = L L*, each factor certified to 1e-8 on its own
    Gramian and then given its ``_lossless_projection`` there, which makes
    the lossless identities of Sigma on diag(Q.gramian, I) (I, balanced,
    when it is inner) hold to rounding; at degree 0, Sigma is S_P's
    projection itself.  Returns (Sigma, Q, symmetry
    residual of Sigma, the larger factor certificate before the projection).
    """
    if not _structurally_symmetric(E.s22):
        raise NotSymmetricError(
            "the source realization is not symmetric; run symmetrize first")
    if not isinstance(degree, (int, np.integer)):
        raise ValidationError(f"the degree of Q must be an integer, got {degree!r}")
    if not 0 <= degree <= E.realization.n:
        raise ValidationError(f"the degree of Q must be in 0..{E.realization.n}, got {degree}")
    Q = _quotient(E, np.linalg.inv(E.p_matrix.T) if degree else None, degree)
    big = E.realization
    try:
        L = np.linalg.cholesky(E.p_matrix)
    except np.linalg.LinAlgError as exc:
        raise ValidationError("P is not positive definite") from exc
    LB = sla.solve_triangular(L, np.hstack([big.a @ L, big.b]), lower=True)
    sp = _with_poles(_computed(LB[:, :big.n], LB[:, big.n:], big.c @ L, big.d), big)
    sigma = _lossless_projection(sp, np.ones(big.n))
    if degree:  # at degree 0, Q is the constant I and Sigma is S_P
        j = np.diag(Q.gramian)
        sigma = compose(sigma, direct_sum(_lossless_projection(Q.realization, j),
                                          _identity(E.p)))
    sres = symmetry_residual(sigma)
    if not sres <= 1e-8:  # a nan fails too
        raise ValidationError(
            f"symmetric extension failed the symmetry check ({sres:g})")
    return sigma, Q, sres, max(E.certificate, Q.unitary_residual)
