"""Scalar (p = 1) pipeline: polynomial arithmetic, the deficiency
polynomial mu = q q* - p1 p1*, its even/odd parity split, polynomial
spectral factorization, and the explicit minimal symmetric inner 2 x 2
extension of a scalar Schur fraction p1/q.

Polynomials are numpy coefficient arrays in ascending degree order.
The para-conjugate of a polynomial sends s to -s and conjugates the
coefficients, so (q q*)(iw) = |q(iw)|^2 on the imaginary axis.

Writing mu = c (r1 r1*)^2 r2 r2* with monic stable r1, r2 and all roots
of r2 simple singles out the odd-multiplicity roots off the imaginary
axis; kappa, the count of those in the open right half-plane, is the
degree excess of the minimal symmetric inner extension.  This scalar
route serves as the oracle of the state-space pipeline.  It shares with
it the lossless certificate and the split of a point set symmetric
about the imaginary axis (linalg.mirror_split on cluster_ladder), but
its points are the roots of mu from polynomial arithmetic, not the
eigenvalues of the Hamiltonian.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp
import scipy.linalg as sla

from . import linalg
from .errors import SpectralSplitError, ValidationError
from .extension import _lossless_residual
from .realization import Realization

__all__ = [
    "poly_trim",
    "poly_para",
    "ScalarFactorization",
    "compute_mu",
    "spectral_factor_poly",
    "scalar_minimal_extension",
    "siso_realization",
]

def poly_trim(p) -> np.ndarray:
    """Coefficient array in ascending order with trailing zeros removed;
    a non-finite coefficient raises ValidationError."""
    return _trim(p, "polynomial")


def _trim(p, name: str) -> np.ndarray:
    """poly_trim, naming the polynomial in its refusal: a trailing nan would
    otherwise be trimmed as a zero."""
    c = np.atleast_1d(np.asarray(p, dtype=complex)).ravel()
    if not np.isfinite(c).all():
        raise ValidationError(f"{name} has non-finite coefficients")
    nz = np.nonzero(np.abs(c) > 0)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1]


def poly_para(p) -> np.ndarray:
    """Para-conjugate p*(s) = conj(p)(-s): conjugate coefficients with
    alternating signs."""
    c = poly_trim(p)
    return np.array([np.conj(v) * (-1) ** k for k, v in enumerate(c)])


@dataclass(frozen=True)
class ScalarFactorization:
    """Parity split mu = constant * (r1 r1*)^2 * r2 r2*.

    r1 and r2 are monic with roots in the closed left half-plane and r2
    has simple roots; kappa counts the off-axis roots of r2 (equally,
    the distinct open-right-half-plane roots of mu of odd multiplicity).
    An imaginary-axis root of mu whose half-multiplicity is odd forces a
    simple axis root into r2; it does not count toward kappa and cancels
    out of the extension degree.
    """
    mu: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    kappa: int
    constant: float
    r2_offaxis: np.ndarray
    r2_axis: np.ndarray


def _para_split(m: np.ndarray):
    """linalg.mirror_split of the roots of a para-Hermitian m at the base
    tolerance 1e-6 (1 + max |root|): (axis, pairs, c), where axis lists the (i*w, even
    multiplicity) and pairs the (stable root, mult) clusters, and m = c h h*
    for the monic h on the pairs and half of each axis cluster, so
    c = m[-1] (-1)^deg h and m(iw) = c |h(iw)|^2.  Raises SpectralSplitError
    where m changes sign on the axis (an odd axis root) or c <= 0."""
    roots = npp.polyroots(m)
    base = 1e-6 * (1.0 + float(np.max(np.abs(roots), initial=0.0)))
    _, clusters, _ = linalg.mirror_split(roots, base)
    axis = [(z, k) for z, k, lab in clusters if lab == "axis"]
    pairs = [(z, k) for z, k, lab in clusters if lab == "minus"]
    c = m[-1] * (-1) ** (sum(k for _, k in pairs) + sum(k // 2 for _, k in axis))
    if abs(c.imag) > 1e-8 * abs(c) or c.real <= 0:
        raise SpectralSplitError(f"parity-split constant {c:g} is not positive")
    return axis, pairs, float(c.real)


def compute_mu(p1, q) -> ScalarFactorization:
    """Deficiency polynomial mu = q q* - p1 p1* and its parity split.

    Validates that the coefficients are finite, deg p1 <= deg q, q is
    stable and p1 and q are coprime
    (no root of p1 within 1e-7 (1 + max |root|) of a root of q), then
    factors mu = c (r1 r1*)^2 r2 r2* from _para_split's clusters and c.
    The split refuses |p1| > |q| on the axis (SpectralSplitError): where
    mu changes sign it has an odd axis root, and mu < 0 gives c < 0.
    The reconstruction is verified against the coefficients of mu.
    """
    p1, q = _trim(p1, "p1"), _trim(q, "q")
    if np.all(p1 == 0):
        raise ValidationError("p1 must not be identically zero")
    if p1.size > q.size:
        raise ValidationError("deg p1 must not exceed deg q")
    qroots = npp.polyroots(q)
    if np.any(qroots.real >= -1e-12):
        raise ValidationError("q must have all roots in the open left half-plane")
    p1roots = npp.polyroots(p1)
    sep = np.min(np.abs(p1roots[:, np.newaxis] - qroots), initial=np.inf)
    scale = 1.0 + np.max(np.abs(np.concatenate([p1roots, qroots])), initial=0.0)
    if sep <= 1e-7 * scale:
        raise ValidationError(
            f"p1 and q share a root near separation {sep:g}; they "
            "must be coprime")
    mu = poly_trim(npp.polysub(npp.polymul(q, poly_para(q)),
                               npp.polymul(p1, poly_para(p1))))
    if mu.size == 1 and abs(mu[0]) == 0:
        raise ValidationError("mu vanishes identically: S is inner, not "
                              "strictly contractive anywhere")
    axis, pairs, c = _para_split(mu)
    r1_roots = [z for z, m in pairs for _ in range(m // 2)]
    r1_roots += [z for z, m in axis for _ in range(m // 4)]
    r2_off_roots = [z for z, m in pairs if m % 2]
    r2_axis_roots = [z for z, m in axis if m // 2 % 2]
    r1 = npp.polyfromroots(r1_roots).astype(complex)
    r2_off = npp.polyfromroots(r2_off_roots).astype(complex)
    r2_axis = npp.polyfromroots(r2_axis_roots).astype(complex)
    r2 = poly_trim(npp.polymul(r2_off, r2_axis))
    recon = npp.polymul(
        npp.polymul(npp.polymul(r1, poly_para(r1)), npp.polymul(r1, poly_para(r1))),
        npp.polymul(r2, poly_para(r2)))
    # the complete mirror pairing gives recon the degree of mu
    recon = poly_trim(recon)
    err = np.linalg.norm(mu - c * recon) / max(np.linalg.norm(mu), 1e-300)
    if err > 1e-6:
        raise SpectralSplitError(
            f"parity split reconstructs mu to relative error {err:g} only")
    return ScalarFactorization(mu=mu, r1=r1, r2=r2, kappa=len(r2_off_roots),
                               constant=c, r2_offaxis=r2_off, r2_axis=r2_axis)


def spectral_factor_poly(m) -> np.ndarray:
    """Stable polynomial p2 with p2 p2* = m.

    m must be para-symmetric (m* = m) and nonnegative on the imaginary
    axis, which _para_split decides: m = c h h* with c > 0 and every
    axis root of even multiplicity.  p2 is sqrt(c) h; it holds the stable
    roots at full multiplicity and the axis roots at half.  Every refusal
    is a ValidationError.
    """
    m = _trim(m, "m")
    if not np.linalg.norm(m - poly_para(m)) <= 1e-9 * np.linalg.norm(m):
        raise ValidationError("m is not para-symmetric (m* != m)")
    try:
        axis, pairs, c = _para_split(m)
    except SpectralSplitError as exc:
        raise ValidationError(f"m is not nonnegative on the imaginary axis: {exc}") from exc
    stable = [z for z, k in pairs for _ in range(k)]
    stable += [z for z, k in axis for _ in range(k // 2)]
    p2 = np.sqrt(c) * npp.polyfromroots(stable).astype(complex)
    err = np.linalg.norm(poly_trim(npp.polymul(p2, poly_para(p2))) - m)
    if not err <= 1e-8 * max(1.0, np.linalg.norm(m)):
        raise ValidationError(
            f"spectral factor reconstructs m to error {err:g} only")
    return p2


def siso_realization(num, den) -> Realization:
    """Controllable-canonical realization of a proper scalar fraction."""
    num = poly_trim(num)
    den = poly_trim(den)
    if num.size > den.size:
        raise ValidationError("fraction is improper (deg num > deg den)")
    lead = den[-1]
    den = den / lead
    num = num / lead
    n = den.size - 1
    if n == 0:
        return Realization(np.zeros((0, 0)), np.zeros((0, 1)),
                           np.zeros((1, 0)), np.array([[num[0]]]))
    d = num[n] if num.size == n + 1 else 0.0
    full = np.zeros(n + 1, dtype=complex)
    full[: num.size] = num
    strict = full[:n] - d * den[:n]
    A = np.zeros((n, n), dtype=complex)
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -den[:n]
    B = np.zeros((n, 1), dtype=complex)
    B[-1, 0] = 1.0
    C = strict.reshape(1, n)
    return Realization(A, B, C, np.array([[d]], dtype=complex))


def scalar_minimal_extension(p1, q) -> tuple[Realization, ScalarFactorization, float, float]:
    """Explicit minimal symmetric inner 2 x 2 extension of S = p1/q, the
    parity split of mu it is built from, and its two certificate residuals.

    Built entrywise from the parity split,

        [[ -(p1*/q)(r2*/r2),  sqrt(c) r1 r1* r2*/q ],
         [ sqrt(c) r1 r1* r2*/q,  p1/q ]],

    where axis factors of r2 cancel in r2*/r2 up to sign, so the
    McMillan degree is deg q + kappa.  The second column shares the
    denominator q and input 2, so it is one companion block of q with
    two output rows, and the realization to truncate has
    3 deg q + kappa states.  Balanced truncation keeps the
    Hankel singular values above 1/2 (those of an inner function are
    all 1), and the lossless certificate on the balanced Gramian I
    proves the result inner and minimal; the degree is checked, and
    symmetry and the S block are read from one frequency response on
    the probe grid.  Returns (extension, factorization, symmetry,
    innerness), each residual at most 1e-8.
    """
    fac = compute_mu(p1, q)
    p1 = poly_trim(p1)
    q = poly_trim(q)
    dax = fac.r2_axis.size - 1
    sign = (-1.0) ** (dax + 1)
    num11 = sign * npp.polymul(poly_para(p1), poly_para(fac.r2_offaxis))
    den11 = npp.polymul(q, fac.r2_offaxis)
    off = np.sqrt(fac.constant) * npp.polymul(
        npp.polymul(fac.r1, poly_para(fac.r1)), poly_para(fac.r2))
    e11 = siso_realization(num11, den11)
    e12 = e21 = siso_realization(off, q)
    e22 = siso_realization(p1, q)
    # e12 and e22 share (A_q, e_n) and differ in C; their block goes
    # first, the order that certified the most fractions
    A = sla.block_diag(e12.a, e11.a, e21.a)
    Z = [np.zeros((r.n, 1)) for r in (e12, e11, e21)]
    B = np.block([[Z[0], e12.b], [e11.b, Z[1]], [e21.b, Z[2]]])
    C = np.block([
        [e12.c, e11.c, np.zeros((1, e21.n))],
        [e22.c, np.zeros((1, e11.n)), e21.c]])
    D = np.block([[e11.d, e12.d], [e21.d, e22.d]])
    _, (t, _) = sla.matrix_balance(A, permute=False, separate=True)
    A, B, C = A * t / t[:, np.newaxis], B / t[:, np.newaxis], C * t
    Lp = linalg.hermitian_sqrt(linalg._schur_solve(linalg._schur(A), -B @ B.conj().T))
    Lq = linalg.hermitian_sqrt(linalg._schur_solve(linalg._schur(A.conj().T),
                                                   -C.conj().T @ C))
    U, hsv, Vh = np.linalg.svd(Lq @ Lp)
    keep = hsv > 0.5
    left = U[:, keep].conj().T @ Lq / np.sqrt(hsv[keep])[:, np.newaxis]
    right = Lp @ Vh[keep].conj().T / np.sqrt(hsv[keep])
    out = Realization(left @ A @ right, left @ B, C @ right, D)
    if out.n != q.size - 1 + fac.kappa:
        raise ValidationError(f"scalar extension degree {out.n} differs from "
                              f"deg(q) + kappa = {q.size - 1 + fac.kappa}")
    ir = _lossless_residual(out, np.ones(out.n))
    pts, F, sr = out._probe
    if not (ir <= 1e-8 and sr <= 1e-8):
        raise ValidationError(
            f"scalar extension failed certification (lossless {ir:g}, "
            f"symmetric {sr:g})")
    want = npp.polyval(pts, p1) / npp.polyval(pts, q)
    if np.any(np.abs(F[:, 1, 1] - want) > 1e-8 * (1 + np.abs(want))):
        raise ValidationError("lower-right block does not match p1/q")
    return out, fac, sr, ir
