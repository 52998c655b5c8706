"""Independent checker for the benchmark's outputs.

It shares no code with the package: transfer functions are evaluated
with its own batched numpy solve, innerness is checked on its own dense
frequency grid (not the package's 61-point grid), and the McMillan
degree of an inner result comes from its Hankel singular values, which
are all 1 for a minimal square inner realization and 0 on any
unreachable or unobservable part.

Every check returns the worst residual it found and raises CheckFailed
when a result is wrong.  TOL is the package's own certification
tolerance, so ``log10(TOL / residual)`` says how far inside it a
result sits.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla

TOL = 1e-7
# smallest residual reported, so a margin in digits stays finite
FLOOR = 1e-17

# 0 and +-w for 500 log-spaced w in [1e-3, 1e3]
GRID = np.concatenate([[0.0], np.logspace(-3, 3, 500), -np.logspace(-3, 3, 500)])
# fixed right-half-plane points for symmetry and block checks; every
# input and every inner result has its poles in the open left half-plane
_prng = np.random.default_rng(0xC0FFEE)
POINTS = _prng.uniform(0.05, 3.0, 16) + 1j * _prng.uniform(-5.0, 5.0, 16)
_CHUNK = 32  # points per stacked solve, bounding the checker's memory


class CheckFailed(Exception):
    """A result the benchmark's checker rejects."""


def transfer(sys, s) -> np.ndarray:
    """C (sI - A)^{-1} B + D at each point of s; shape (len(s), p, m)."""
    A, B, C, D = sys
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    out = np.empty((s.size,) + D.shape, dtype=complex)
    if A.shape[0] == 0:
        out[:] = D
        return out
    eye = np.eye(A.shape[0])
    for k in range(0, s.size, _CHUNK):
        z = s[k:k + _CHUNK]
        X = np.linalg.solve(z[:, None, None] * eye - A, np.broadcast_to(B, (z.size,) + B.shape))
        out[k:k + _CHUNK] = C @ X + D
    return out


def _norms(M: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix in a stack."""
    return np.linalg.norm(M, 2, axis=(1, 2)) if M.size else np.zeros(len(M))


def mcmillan_degree_inner(sys) -> int:
    """McMillan degree of a stable square inner realization: the number
    of its Hankel singular values above 1/2 (they are 1 on the minimal
    part and 0 elsewhere)."""
    A, B, C, _ = sys
    if A.shape[0] == 0:
        return 0
    Wc = sla.solve_continuous_lyapunov(A, -B @ B.conj().T)
    Wo = sla.solve_continuous_lyapunov(A.conj().T, -C.conj().T @ C)
    hsv = np.sqrt(np.abs(np.linalg.eigvals(Wc @ Wo)))
    return int(np.sum(hsv > 0.5))


def _fail(what: str, value: float) -> None:
    if not np.isfinite(value) or value > TOL:
        raise CheckFailed(f"{what} residual {value:.3g} exceeds {TOL:g}")


def check_inner_extension(T, S, degree: int, symmetric: bool,
                          lower_right=None) -> float:
    """Check a 2p x 2p inner extension T of the p x p Schur function S.

    T must be stable, of McMillan degree ``degree`` with exactly that
    many states, unitary on the dense grid, symmetric at POINTS when
    ``symmetric``, and its lower-right block must match S at POINTS (or
    the callable ``lower_right`` of the points, when given).
    """
    A = T[0]
    if A.shape[0] != degree:
        raise CheckFailed(f"{A.shape[0]} states, expected degree {degree}")
    p2 = T[3].shape[0]
    if T[3].shape != (p2, p2) or p2 % 2:
        raise CheckFailed(f"extension has shape {T[3].shape}, expected square of even size")
    p = p2 // 2
    if degree and np.max(np.linalg.eigvals(A).real) >= 0:
        raise CheckFailed("extension is not stable")
    deg = mcmillan_degree_inner(T)
    if deg != degree:
        raise CheckFailed(f"McMillan degree {deg}, expected {degree}")
    V = transfer(T, 1j * GRID)
    inner = float(np.max(_norms(V @ V.conj().transpose(0, 2, 1) - np.eye(p2))))
    _fail("innerness", inner)
    V = transfer(T, POINTS)
    worst = inner
    if symmetric:
        sym = float(np.max(_norms(V - V.transpose(0, 2, 1))))
        _fail("symmetry", sym)
        worst = max(worst, sym)
    want = transfer(S, POINTS) if lower_right is None else lower_right(POINTS)
    block = float(np.max(_norms(V[:, p:, p:] - want)))
    _fail("S-block", block)
    return max(worst, block, FLOOR)


def check_signature_form(R, J: np.ndarray, S) -> float:
    """A real signature-symmetric realization R (A^T = J A J, B^T = C J,
    D^T = D) of the same transfer function as S."""
    A, B, C, D = R
    J = np.diag(np.asarray(J, dtype=float))
    scale = 1.0 + np.linalg.norm(A, 2)
    worst = max(np.linalg.norm(M.imag) for M in R) / scale
    _fail("realness", worst)
    struct = max(np.linalg.norm(A.T - J @ A @ J, 2), np.linalg.norm(B.T - C @ J, 2),
                 np.linalg.norm(D.T - D, 2)) / scale
    _fail("signature structure", struct)
    match = float(np.max(_norms(transfer(R, POINTS) - transfer(S, POINTS))))
    _fail("transfer match", match)
    return max(worst, struct, match, FLOOR)


def check_real_witness(P: np.ndarray, S, J: np.ndarray) -> float:
    """A real solution of the Riccati equation of the signature-form
    realization S, fixed by the J-involution P -> J P^{-T} J."""
    A, B, C, D = (np.asarray(M, dtype=complex) for M in S)
    Jm = np.diag(np.asarray(J, dtype=float))
    p = D.shape[0]
    Dc = D.conj().T
    L = np.linalg.inv(np.eye(p) - D @ Dc)
    Ah = A + B @ Dc @ L @ C
    Rm = np.linalg.inv(np.eye(p) - Dc @ D)
    res = P @ C.conj().T @ L @ C @ P + Ah @ P + P @ Ah.conj().T + B @ Rm @ B.conj().T
    scale = 1.0 + np.linalg.norm(P, 2) ** 2
    riccati = np.linalg.norm(res, 2) / scale
    _fail("witness Riccati", riccati)
    fixed = np.linalg.norm(Jm @ np.linalg.inv(P.T) @ Jm - P, 2) / (1.0 + np.linalg.norm(P, 2))
    _fail("witness involution", fixed)
    return max(riccati, fixed, FLOOR)
