"""Real-coefficient analysis: when does a real symmetric Schur function
admit a REAL symmetric inner extension at McMillan degree n?

A real rational S has a real minimal realization, and a real symmetric
S has a minimal realization that is signature symmetric:

    A^T = J A J,  B^T = C J,  C^T = J B,  D^T = D,
    J = diag(+-1).

The inner extension built on a Riccati solution P is real exactly when
P is real; in signature coordinates P~ = J P^{-T} J is again a solution
with S_{P~} = S_P^T, so a real symmetric extension of degree n requires
a real solution fixed by that involution.  The involution reverses the
order of the solutions, so it maps P_min to P_max, and an extremal
solution is fixed exactly when P_min = P_max (no Hamiltonian eigenvalue
off the imaginary axis, n0 = n).  The feasibility verdict therefore
tests P_min alone; the report says which obstruction blocked a witness.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricError, SubspaceError, ValidationError
from .extension import build_extension
from .linalg import max_norm, norm_at_most, spectral_norm
from .realization import (
    Realization,
    _intertwiner,
    _structurally_symmetric,
    freqresp,
    probe_points,
)
from .riccati import _extremal, build_hat

__all__ = [
    "SignatureRealization",
    "signature_realization",
    "is_real_extension",
    "FeasibilityReport",
    "real_symmetric_feasibility",
]

_REAL_TOL = 1e-9
_STRUCT_TOL = 1e-10


def _require_real(R: Realization) -> None:
    for name, M in (("A", R.a), ("B", R.b), ("C", R.c), ("D", R.d)):
        if np.linalg.norm(M.imag) > _REAL_TOL * (1 + np.linalg.norm(M)):
            raise ValidationError(f"{name} is not real; realcase needs a real realization")


@dataclass(frozen=True)
class SignatureRealization:
    """Real realization with A^T = JAJ, B^T = CJ, C^T = JB, D^T = D."""
    realization: Realization
    j: np.ndarray

    def __post_init__(self):
        R = self.realization
        j = np.asarray(self.j).ravel()
        if j.size != R.n or not np.all(np.abs(j) == 1):
            raise ValidationError("J must be a +-1 vector of length n")
        _require_real(R)
        J = np.diag(j.astype(float))
        scale = 1.0 + R.norm_a
        gaps = (R.a.T - J @ R.a @ J, R.b.T - R.c @ J, R.c.T - J @ R.b, R.d.T - R.d)
        if not all(norm_at_most(G, _STRUCT_TOL * scale) for G in gaps):
            raise ValidationError("realization is not signature symmetric for J")
        object.__setattr__(self, "j", j.astype(int))

    @property
    def j_matrix(self) -> np.ndarray:
        return np.diag(self.j.astype(float))


def signature_realization(R: Realization) -> SignatureRealization:
    """Signature-symmetric form of a real minimal realization of a
    symmetric transfer function.

    Solves the real intertwining equations T A = A^T T, T B = C^T for
    the (unique, real symmetric, invertible) similarity T by
    ``_intertwiner``, factors T = M^T J M with M real through the
    eigendecomposition of T, and transforms the realization.  As in
    ``symmetrize``, the certificate decides minimality (P nonsingular is
    reachability, T nonsingular then observability); a mirror pair of
    poles, a singular P or T, an intertwining residual or an output that
    is not signature symmetric raises ValidationError.
    """
    _require_real(R)
    A, B, C, D = R.a.real, R.b.real, R.c.real, R.d.real
    Rr = Realization(A, B, C, D)
    try:
        # the data are real, so T is real up to rounding
        T = _intertwiner(Rr, _structurally_symmetric(Rr))[0].real
    except (SubspaceError, NotSymmetricError) as exc:
        raise ValidationError(f"no real intertwiner found: {exc}") from exc
    w, O = np.linalg.eigh(T)
    if np.any(np.abs(w) <= 1e-12 * max(1.0, np.max(np.abs(w), initial=0.0))):
        raise ValidationError("signature form needs a minimal realization: (C, A) is not "
                              "observable (the intertwiner T is singular)")
    order = np.argsort(-np.sign(w))  # +1 entries first
    w, O = w[order], O[:, order]
    M = np.diag(np.sqrt(np.abs(w))) @ O.T
    Minv = np.linalg.inv(M)
    out = Realization(M @ A @ Minv, M @ B, C @ Minv, D)
    return SignatureRealization(realization=out, j=np.sign(w).astype(int))


def is_real_extension(P, R: Realization) -> bool:
    """True iff the inner extension built on P has real coefficients.

    Decided by ||Im P||, certified independently by the conjugate
    symmetry S(conj(s)) = conj(S(s)) of the extension on its probe grid
    and that grid's mirror image; the two verdicts must agree.
    """
    _require_real(R)
    Pm = P.p if hasattr(P, "p") else np.asarray(P, dtype=complex)
    scale = 1 + spectral_norm(Pm)
    real_p = norm_at_most(Pm.imag, _REAL_TOL * scale)
    E = build_extension(R, Pm)
    pts = probe_points(E.realization)
    F = freqresp(E.realization, np.concatenate([pts, pts.conj()]))
    gap = F[pts.size:] - F[:pts.size].conj()
    worst = max_norm(gap)
    certified = bool(worst <= 1e-8 * scale)
    if certified != real_p:
        raise ValidationError(
            f"realness certificates disagree: ||Im P|| says {real_p}, "
            f"conjugate symmetry (residual {worst:g}) says {certified}")
    return real_p


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict on real symmetric extendability at degree n: the real
    witness P_min when it is fixed by the J-involution, otherwise the
    spectral obstruction."""
    feasible: bool
    witness: np.ndarray | None
    obstruction: str

    @property
    def kind(self) -> str:
        return "feasible_at_degree_n" if self.feasible else "infeasible_at_degree_n"


def real_symmetric_feasibility(SR: SignatureRealization) -> FeasibilityReport:
    """Decide whether a real Riccati solution P with J P^{-T} J = P
    exists among the extremal ones, which is exactly the condition for
    S_P to be a real symmetric inner extension at the same degree.

    P -> J P^{-T} J reverses the order of the Riccati solutions, so it
    maps P_min to P_max, and real data give a real P_min: the verdict is
    feasible exactly when P_min is real and fixed by the involution,
    with P_min as the witness.  Otherwise the report carries the
    spectral obstruction.
    """
    J = SR.j_matrix
    (pmin,) = _extremal(build_hat(SR.realization), ("minimal",))
    P = pmin.p
    scale = 1.0 + spectral_norm(P)
    if (norm_at_most(P.imag, _REAL_TOL * scale)
            and norm_at_most(J @ np.linalg.inv(P.T) @ J - P, 1e-8 * scale)):
        return FeasibilityReport(feasible=True, witness=P.real.copy(), obstruction="")
    odd = [c for c, m, lab in pmin.spectrum.clusters if m % 2 == 1]
    if odd:
        reason = (f"chi_H is not a perfect square (odd-multiplicity "
                  f"eigenvalues near {np.round(odd, 6)}); no symmetric "
                  "extension at degree n exists even over the complex field")
    else:
        reason = ("chi_H is a perfect square, so complex symmetric "
                  "degree-n extensions exist, but no real extremal-lattice "
                  "solution satisfies J P^{-T} J = P; any degree-n real "
                  "symmetric extension would need a real solution fixed by "
                  "the J-involution and none was found")
    return FeasibilityReport(feasible=False, witness=None, obstruction=reason)
