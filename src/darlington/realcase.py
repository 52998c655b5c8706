"""Real-coefficient analysis: when does a real symmetric Schur function
admit a REAL symmetric inner extension at McMillan degree n?

A real rational S has a real minimal realization, and a real symmetric
S has a minimal realization that is signature symmetric:

    A^T = J A J,  B^T = C J,  C^T = J B,  D^T = D,
    J = diag(+-1),

which ``signature_realization`` builds, exactly, on the certified path
of ``symmetrize`` with J the signs of the real intertwiner's eigenvalues.

The inner extension built on a Riccati solution P is real exactly when
P is real; in signature coordinates P~ = J P^{-T} J is again a solution
with S_{P~} = S_P^T, so a real symmetric extension of degree n requires
a real solution fixed by that involution.  The feasibility verdict takes
the one solution the symmetric synthesis selects; the report says which
obstruction blocked a witness.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DarlingtonError, ValidationError
from .extension import build_extension
from .linalg import max_norm, norm_at_most, spectral_norm
from .realization import (
    Realization,
    _computed,
    _intertwiner,
    _structurally_symmetric,
    _symmetric_form,
    freqresp,
    probe_points,
)
from .riccati import _extremal, _require_p, build_hat

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
    symmetric transfer function: ``realization._symmetric_form`` of R on
    the eigendecomposition T = V diag(v) V^T, +1 signs first, of its real
    ``_intertwiner`` T, the path ``symmetrize`` takes with J = sign v.
    The certificate decides minimality (P nonsingular is reachability, T
    nonsingular then observability); every refusal raises ValidationError.
    """
    _require_real(R)
    Rr = Realization(R.a.real, R.b.real, R.c.real, R.d.real)
    try:
        # the data are real, so T is real up to rounding
        w, V = np.linalg.eigh(_intertwiner(Rr, _structurally_symmetric(Rr)).real)
        order = np.argsort(-np.sign(w))  # +1 entries first
        return SignatureRealization(*_symmetric_form(Rr, V[:, order], w[order]))
    except DarlingtonError as exc:
        raise ValidationError(f"no real signature form: {exc}") from exc


def is_real_extension(P, R: Realization) -> bool:
    """True iff the inner extension built on P has real coefficients.

    Decided by ||Im P||, certified independently by the conjugate
    symmetry S(conj(s)) = conj(S(s)) of the extension on its probe grid
    and that grid's mirror image; the two verdicts must agree.  A P that
    is not finite and n x n is refused as in riccati_residual.
    """
    _require_real(R)
    Pm = _require_p(P.p if hasattr(P, "p") else P, R.n)
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
    witness P, the symmetric solution, when it is fixed by the
    J-involution, otherwise the spectral obstruction."""
    feasible: bool
    witness: np.ndarray | None
    obstruction: str

    @property
    def kind(self) -> str:
        return "feasible_at_degree_n" if self.feasible else "infeasible_at_degree_n"


def real_symmetric_feasibility(SR: SignatureRealization) -> FeasibilityReport:
    """Decide whether a real Riccati solution P with J P^{-T} J = P
    exists, which is exactly the condition for S_P to be a real symmetric
    inner extension at the same degree.

    D = diag(d), d = 1 where J = +1 and i where J = -1, has D^2 = J, so
    (D A D^-1, D B, C D^-1, D) is symmetric, and exact: every product is by
    +-1 or +-i.  Its symmetric solution P' (rank(P'^-T - P') = kappa) gives
    P = D^-1 P' D^-*; the verdict is feasible when kappa = 0 and P is real
    and J-fixed, with witness P.real, else the report carries the
    spectral obstruction.
    """
    R, J, d = SR.realization, SR.j_matrix, np.where(SR.j > 0, 1.0, 1j)
    sym = _computed(d[:, np.newaxis] * R.a * d.conj(), d[:, np.newaxis] * R.b,
                    R.c * d.conj(), R.d)
    (sol,) = _extremal(build_hat(sym), ("symmetric",))
    P = d.conj()[:, np.newaxis] * sol.p * d
    scale = 1.0 + spectral_norm(P)
    if (sol.spectrum.kappa == 0 and norm_at_most(P.imag, _REAL_TOL * scale)
            and norm_at_most(J @ np.linalg.inv(P.T) @ J - P, 1e-8 * scale)):
        return FeasibilityReport(feasible=True, witness=P.real.copy(), obstruction="")
    odd = [c for c, m, lab in sol.spectrum.clusters if m % 2 == 1]
    if odd:
        reason = (f"chi_H is not a perfect square (odd-multiplicity "
                  f"eigenvalues near {np.round(odd, 6)}); no symmetric "
                  "extension at degree n exists even over the complex field")
    else:
        reason = ("chi_H is a perfect square, so complex symmetric degree-n "
                  "extensions exist, but the symmetric solution is not real")
    return FeasibilityReport(feasible=False, witness=None, obstruction=reason)
