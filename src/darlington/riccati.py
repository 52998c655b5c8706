"""Algebraic Riccati machinery for lossless embedding.

From a minimal realization of a Schur function strictly contractive at
infinity this module forms the shifted data

    A_hat = A + B D* (I - D D*)^{-1} C,
    B_hat B_hat* = B (I - D* D)^{-1} B*,
    C_hat* C_hat = C* (I - D D*)^{-1} C,

the associated 2n x 2n Hamiltonian matrix

    H = [[-A_hat*, -C_hat* C_hat], [B_hat B_hat*, A_hat]],

and solves the algebraic Riccati equation

    R(P) = P C_hat* C_hat P + A_hat P + P A_hat* + B_hat B_hat* = 0

for its extremal Hermitian solutions.  The closed-loop matrix of a
solution is Z = A_hat + P C_hat* C_hat; the minimal solution is the one
with spectrum of Z in the closed left half-plane, the maximal one has
it in the closed right half-plane.  The spectrum of H (symmetric about
the imaginary axis) is analyzed into its even/odd multiplicity
structure: kappa counts distinct open-right-half-plane eigenvalues of
odd algebraic multiplicity, and 2*n0 is the total multiplicity on the
imaginary axis, both read off one complex Schur form of H whose
reorderings give every invariant subspace.  Each extremal solution is
the graph of such a subspace, corrected by one Newton step (one
Lyapunov solve) that is kept only if it lowers ||R(P)||.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from . import linalg
from .errors import ConvergenceError, NotContractiveError, SubspaceError, ValidationError
from .realization import Realization

__all__ = [
    "HatData",
    "Hamiltonian",
    "RiccatiSolution",
    "HSpectrum",
    "build_hat",
    "build_hamiltonian",
    "riccati_residual",
    "solve_extremal",
    "analyze_spectrum",
]


@dataclass(frozen=True)
class HatData:
    """Shifted realization data entering the Riccati equation."""
    a_hat: np.ndarray
    bbs: np.ndarray     # B_hat @ B_hat*
    csc: np.ndarray     # C_hat* @ C_hat

    @property
    def n(self) -> int:
        return self.a_hat.shape[0]


@dataclass(frozen=True)
class Hamiltonian:
    """2n x 2n Hamiltonian matrix; satisfies H* J + J H = 0 for
    J = [[0, I], [-I, 0]]."""
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    def structure_residual(self) -> float:
        n = self.n
        J = np.block([[np.zeros((n, n)), np.eye(n)],
                      [-np.eye(n), np.zeros((n, n))]])
        H = self.matrix
        return float(linalg.spectral_norm(H.conj().T @ J + J @ H))


@dataclass(frozen=True)
class HSpectrum:
    """Even/odd multiplicity structure of the Hamiltonian spectrum.

    ``clusters`` holds (center, multiplicity, half_plane) triples with
    half_plane in {"plus", "minus", "axis"}.  ``pi_roots`` lists the
    roots of the even square factor pi(s) with multiplicities, and
    ``chi_plus_roots`` the kappa simple odd roots in the open right
    half-plane (their reflections make up the conjugate factor).
    ``schur`` is the Schur form (T, U), H = U T U*, whose diagonal was
    clustered: T[i, i] lies in ``clusters[cluster_index[i]]``.
    """
    clusters: tuple[tuple[complex, int, str], ...]
    kappa: int
    n0: int
    pi_roots: tuple[tuple[complex, int], ...]
    chi_plus_roots: tuple[complex, ...]
    cluster_tolerance: float
    schur: tuple[np.ndarray, np.ndarray]
    cluster_index: np.ndarray


@dataclass(frozen=True)
class RiccatiSolution:
    """Hermitian solution P with its closed loop Z = A_hat + P C_hat*C_hat
    and the analyzed spectrum of the Hamiltonian it was taken from.

    ``subspace_condition`` is cond X for an orthonormal basis [X; Y] of
    the whole graph subspace (P = Y X^{-1}), at most sqrt(1 + ||P||^2).
    """
    p: np.ndarray
    z: np.ndarray
    kind: str                 # "minimal" | "maximal" | "other"
    residual_norm: float
    subspace_condition: float
    spectrum: HSpectrum

    @cached_property
    def _p_eigenvalues(self) -> np.ndarray:
        """eigvalsh of the Hermitian part of P, which the solve computes
        once and build_extension reads."""
        return np.linalg.eigvalsh((self.p + self.p.conj().T) / 2)


def _require_contractive(R: Realization) -> None:
    """The precondition of build_hat, which build_extension shares."""
    if R.outputs != R.inputs:
        raise ValidationError("embedding requires a square transfer function")
    if R.norm_d >= 1.0 - 1e-12:
        raise NotContractiveError(
            f"||D||_2 = {R.norm_d:.6g} >= 1: S is not strictly contractive at "
            "infinity; apply mobius_precondition at a point of strict "
            "contractivity first")


def build_hat(R: Realization) -> HatData:
    """Form the shifted Riccati data from a realization.

    Requires ``||D||_2 < 1 - 1e-12`` (strict contractivity
    at infinity); otherwise a NotContractiveError suggests the Moebius
    preconditioning.
    """
    _require_contractive(R)
    Ip = np.eye(R.outputs)
    Dl = np.linalg.inv(Ip - R.d @ R.d.conj().T)
    Dr = np.linalg.inv(Ip - R.d.conj().T @ R.d)
    a_hat = R.a + R.b @ R.d.conj().T @ Dl @ R.c
    bbs = R.b @ Dr @ R.b.conj().T
    csc = R.c.conj().T @ Dl @ R.c
    bbs = (bbs + bbs.conj().T) / 2
    csc = (csc + csc.conj().T) / 2
    return HatData(a_hat=a_hat, bbs=bbs, csc=csc)


def build_hamiltonian(hat: HatData) -> Hamiltonian:
    # bbs and csc are exactly Hermitian, so H* J + J H is exactly 0
    H = np.block([[-hat.a_hat.conj().T, -hat.csc],
                  [hat.bbs, hat.a_hat]])
    return Hamiltonian(matrix=H)


def _residual_matrix(hat: HatData, P: np.ndarray) -> np.ndarray:
    return P @ hat.csc @ P + hat.a_hat @ P + P @ hat.a_hat.conj().T + hat.bbs


def riccati_residual(hat: HatData, P) -> float:
    """Spectral norm of R(P) = P CsC P + A_hat P + P A_hat* + BBs."""
    return float(linalg.spectral_norm(_residual_matrix(hat, np.asarray(P, dtype=complex))))


def analyze_spectrum(H: Hamiltonian) -> HSpectrum:
    """Cluster the Hamiltonian spectrum and extract (kappa, n0) and the
    even/odd factor split of its characteristic polynomial.

    The characteristic polynomial factors as pi(s)^2 chi+(s) chi-(s)
    where chi+ has kappa simple roots in the open right half-plane and
    chi- is its para-conjugate; imaginary-axis eigenvalues all carry
    even total multiplicity and contribute n0 = (total axis
    multiplicity)/2.  The split is linalg.mirror_split of the diagonal of
    one complex Schur form of H, which the result keeps, at the
    default_cluster_tol of the diagonally balanced H (||H|| itself can be
    orders of magnitude larger); it raises SpectralSplitError on an odd
    axis multiplicity or an eigenvalue without a mirrored partner, and a
    complete mirror pairing makes 2 deg pi + 2 kappa = 2n.
    """
    M = H.matrix
    try:
        T, U = sla.schur(M, output="complex")
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"Schur decomposition failed: {exc}") from exc
    base = linalg.default_cluster_tol(sla.matrix_balance(M, permute=False)[0])
    tol, labeled, index = linalg.mirror_split(np.diag(T), base)
    chi_plus = [c for c, m, lab in labeled if lab == "plus" and m % 2]
    return HSpectrum(clusters=labeled, kappa=len(chi_plus),
                     n0=sum(m for _, m, lab in labeled if lab == "axis") // 2,
                     pi_roots=tuple((c, m // 2) for c, m, _ in labeled if m > 1),
                     chi_plus_roots=tuple(chi_plus), cluster_tolerance=tol,
                     schur=(T, U), cluster_index=index)


def _invariant_subspace(spec: HSpectrum, chosen) -> np.ndarray:
    """Orthonormal basis of the invariant subspace of H of the chosen
    clusters: the leading Schur vectors once ZTRSEN reorders spec.schur."""
    select = np.isin(spec.cluster_index, list(chosen))
    if not select.any():  # ztrsen rejects the 0 x 0 form of degree 0
        return spec.schur[1][:, :0]
    _, U, _, m, _, _, info = sla.lapack.ztrsen(select, *spec.schur, job="N")
    if info:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"Schur reordering failed (ztrsen info {info})")
    return U[:, :m]


def _newton_refine(hat: HatData, P: np.ndarray) -> tuple[np.ndarray, float]:
    """One Newton step on R(P) (Kleinman, IEEE TAC 1968): solve the
    Lyapunov equation Z dP + dP Z* = -R(P) with the closed loop
    Z = A_hat + P C_hat* C_hat, from one Schur form of Z
    (linalg._schur_solve), and keep P + (dP + dP*)/2 only if it lowers
    ||R(P)||.  The graph-subspace solution is one step from the rounding
    level of R(P), so a second step gains nothing.  Returns the kept P
    and its residual riccati_residual(hat, P)."""
    R = _residual_matrix(hat, P)
    res = float(linalg.spectral_norm(R))
    try:
        # an axis eigenvalue pair of Z (n0 > 0) makes the equation
        # singular; LAPACK then perturbs it and the residual decides
        dP = linalg._schur_solve(linalg._schur(hat.a_hat + P @ hat.csc), -R)
        cand = P + (dP + dP.conj().T) / 2
        cand_res = float(linalg.spectral_norm(_residual_matrix(hat, cand)))
    except (np.linalg.LinAlgError, ValueError):  # the SVD of a nan R(P) too
        return P, res
    return (cand, cand_res) if cand_res < res else (P, res)


def solve_extremal(hat: HatData) -> tuple[RiccatiSolution, RiccatiSolution]:
    """Minimal and maximal Hermitian solutions of the Riccati equation.

    Both are computed as graph subspaces of the Hamiltonian (Laub's
    Schur method): the minimal solution takes the spectral subspace of
    the open right-half-plane eigenvalues, the maximal one that of the
    left half-plane, each a reordering of the one Schur form of H that
    analyze_spectrum computed.  For imaginary-axis eigenvalues (whose
    Jordan chains all have even length) both use the span of the leading
    half of every chain, which reproduces the unique solution when the
    extremal solutions coincide there.

    Returns (P_min, P_max); each result carries the residual norm, the
    condition number of the graph-subspace matrix X and the analyzed
    Hamiltonian spectrum (kappa, n0, clusters).
    """
    return _extremal(hat, ("minimal", "maximal"))


def _extremal(hat: HatData, kinds: tuple[str, ...]) -> tuple[RiccatiSolution, ...]:
    """solve_extremal for the listed kinds ("minimal", "maximal") only."""
    ham = build_hamiltonian(hat)
    n = hat.n
    H = ham.matrix
    spec = analyze_spectrum(ham)
    band = spec.cluster_tolerance

    # exact membership and the complete mirror pairing make a half-plane
    # subspace and the axis half-chains span exactly n dimensions
    axis_bases = []
    for idx, (center, mult, lab) in enumerate(spec.clusters):
        if lab != "axis":
            continue
        basis = _invariant_subspace(spec, {idx})
        N = basis.conj().T @ H @ basis - center * np.eye(mult)
        half = linalg.half_chain_basis(N, tol=max(1e-8, band))
        if 2 * half.shape[1] != mult:
            raise SubspaceError(
                f"leading-half chain subspace at {center:g} has dimension "
                f"{half.shape[1]}, expected {mult // 2}; partial "
                "multiplicities may not all be even")
        axis_bases.append(basis @ half)

    def graph_solution(side: str, kind: str) -> RiccatiSolution:
        chosen = {i for i, (_, _, lab) in enumerate(spec.clusters) if lab == side}
        Mb = np.linalg.qr(np.hstack([_invariant_subspace(spec, chosen)] + axis_bases))[0]
        X, Y = Mb[:n, :], Mb[n:, :]
        # the empty X of a degree-0 problem counts as perfectly conditioned
        sx = np.linalg.svd(X, compute_uv=False) if n else np.ones(1)
        if sx[-1] <= 1e-13 * max(1.0, sx[0]):
            raise SubspaceError(
                f"graph-subspace matrix X is singular (condition "
                f"{sx[0] / max(sx[-1], 1e-300):.3g})")
        cond = float(sx[0] / sx[-1])
        P = Y @ np.linalg.inv(X)
        P, res = _newton_refine(hat, (P + P.conj().T) / 2)
        w = np.linalg.eigvalsh(P)
        scale = np.max(np.abs(w), initial=0.0)  # ||P||, P Hermitian
        if res > 1e-8 * (1.0 + scale ** 2):
            raise ValidationError(
                f"Riccati residual {res:g} exceeds tolerance for the "
                f"{kind} solution (||P|| = {scale:g}, cond X = {cond:.3g})")
        if w.size and w[0] <= 0:
            raise ValidationError(
                f"{kind} solution is not positive definite "
                f"(min eigenvalue {w[0]:g}); S may not be a Schur function")
        Z = hat.a_hat + P @ hat.csc
        sol = RiccatiSolution(p=P, z=Z, kind=kind, residual_norm=res,
                              subspace_condition=cond, spectrum=spec)
        vars(sol)["_p_eigenvalues"] = w
        return sol

    # graph of P carries the -Z* dynamics: sigma(Z) in the closed left
    # half-plane (minimal) puts the graph on the right half-spectrum of H
    side = {"minimal": "plus", "maximal": "minus"}
    return tuple(graph_solution(side[kind], kind) for kind in kinds)

