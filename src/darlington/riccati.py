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
reorderings give every invariant subspace; for an exactly symmetric
realization that form comes from one real Schur form of the real
K = V*(iH)V, V = [[I, iI], [I, -iI]]/sqrt(2).  Each extremal solution is
the graph P = Y X^{-1} = Y Rx^{-1} Qx* (X = Qx Rx) of such a subspace.  With
n0 = 0 it is a reordered block, H [X; Y] = [X; Y] T11, so Z* X = -X T11
makes (-Rx T11 Rx^{-1}, Qx) a Schur form of Z* (Laub 1979), in which P takes
one Newton step (one Lyapunov solve), kept only if it lowers ||R(P)||.  A
basis with imaginary-axis half-chains (n0 > 0) is no such block: its P is
the graph's.  So is the symmetric solution's whenever pi has a root: one
choice between the extremal ones, whose symmetric extension is minimal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import linalg
from .errors import (ConvergenceError, DimensionError, NotContractiveError, SubspaceError,
                     ValidationError)
from .realization import _CONTRACTIVE_BOUND, Realization, _exactly_symmetric

__all__ = [
    "HatData",
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

    def __post_init__(self):
        shapes = [np.shape(M) for M in (self.a_hat, self.bbs, self.csc)]
        if len(shapes[0]) != 2 or any(shape != shapes[0][:1] * 2 for shape in shapes):
            raise DimensionError("a_hat, bbs and csc must all be n x n, got shapes "
                                 + ", ".join(map(str, shapes)))

    @property
    def n(self) -> int:
        return self.a_hat.shape[0]


@dataclass(frozen=True)
class HSpectrum:
    """Even/odd multiplicity structure of the Hamiltonian spectrum.

    ``clusters`` holds (center, multiplicity, half_plane) triples with
    half_plane in {"plus", "minus", "axis"}; a cluster of multiplicity m
    holds a root of the even square factor pi(s) of multiplicity m // 2.
    ``chi_plus_roots`` are the kappa simple odd roots in the open right
    half-plane (their reflections make up the conjugate factor).
    ``schur`` is the Schur form (T, U), H = U T U*, whose diagonal was
    clustered: T[i, i] lies in ``clusters[cluster_index[i]]``.
    """
    clusters: tuple[tuple[complex, int, str], ...]
    kappa: int
    n0: int
    chi_plus_roots: tuple[complex, ...]
    cluster_tolerance: float
    schur: tuple[np.ndarray, np.ndarray]
    cluster_index: np.ndarray


@dataclass(frozen=True)
class RiccatiSolution:
    """Hermitian solution P with its closed loop Z = A_hat + P C_hat*C_hat
    and the analyzed spectrum of the Hamiltonian it was taken from.

    ``subspace_condition`` is cond X for an orthonormal basis [X; Y] of
    the whole graph subspace (P = Y X^{-1}), at most sqrt(1 + ||P||^2),
    and ``p_eigenvalues`` is eigvalsh(P), which build_extension and
    minimize_symmetric read.
    """
    p: np.ndarray
    z: np.ndarray
    kind: str                 # "minimal" | "maximal" | "symmetric"
    residual_norm: float
    subspace_condition: float
    spectrum: HSpectrum
    p_eigenvalues: np.ndarray


def _require_contractive(R: Realization) -> None:
    """The precondition of build_hat, which build_extension shares."""
    if R.outputs != R.inputs:
        raise ValidationError("embedding requires a square transfer function")
    if R.norm_d >= _CONTRACTIVE_BOUND:
        raise NotContractiveError(
            f"||D||_2 = {R.norm_d:.6g} >= 1: S is not strictly contractive at "
            "infinity; apply mobius_precondition at a point of strict "
            "contractivity first")


def build_hat(R: Realization) -> HatData:
    """Form the shifted Riccati data from a realization.

    Requires ``||D||_2 < _CONTRACTIVE_BOUND`` (strict contractivity
    at infinity); otherwise a NotContractiveError suggests the Moebius
    preconditioning.  An exactly symmetric R (A = A^T, C = B^T, D = D^T
    bit for bit) has A_hat = A_hat^T and B_hat B_hat* = conj(C_hat* C_hat);
    both are stored exactly so, for analyze_spectrum's real Schur form.
    """
    _require_contractive(R)
    Ip = np.eye(R.outputs)
    Dl = np.linalg.inv(Ip - R.d @ R.d.conj().T)
    a_hat = R.a + R.b @ R.d.conj().T @ Dl @ R.c
    csc = R.c.conj().T @ Dl @ R.c
    csc = (csc + csc.conj().T) / 2
    if _exactly_symmetric(R):
        return HatData(a_hat=(a_hat + a_hat.T) / 2, bbs=csc.conj(), csc=csc)
    bbs = R.b @ np.linalg.inv(Ip - R.d.conj().T @ R.d) @ R.b.conj().T
    return HatData(a_hat=a_hat, bbs=(bbs + bbs.conj().T) / 2, csc=csc)


def build_hamiltonian(hat: HatData) -> np.ndarray:
    """The 2n x 2n Hamiltonian matrix H; bbs and csc are exactly Hermitian,
    so H* J + J H = 0 exactly for J = [[0, I], [-I, 0]]."""
    return linalg._blocks([[-hat.a_hat.conj().T, -hat.csc], [hat.bbs, hat.a_hat]])


def _residual_matrix(hat: HatData, P: np.ndarray) -> np.ndarray:
    return P @ hat.csc @ P + hat.a_hat @ P + P @ hat.a_hat.conj().T + hat.bbs


def _require_p(P, n: int) -> np.ndarray:
    """P as a complex n x n array for riccati_residual and build_extension:
    DimensionError for another shape, ValidationError unless finite."""
    P = np.asarray(P, dtype=complex)
    if P.shape != (n, n):
        raise DimensionError(f"P must be {n}x{n}, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ValidationError("P must be finite")
    return P


def riccati_residual(hat: HatData, P) -> float:
    """Spectral norm of R(P) = P CsC P + A_hat P + P A_hat* + BBs, P finite n x n."""
    return float(linalg.spectral_norm(_residual_matrix(hat, _require_p(P, hat.n))))


def analyze_spectrum(H: np.ndarray) -> HSpectrum:
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
    complete mirror pairing makes 2 deg pi + 2 kappa = 2n.  An H exactly
    [[-conj A, -G], [conj G, A]] takes that form from _structured_schur.
    An H that is not a finite square matrix of even order is refused with
    DimensionError or ValidationError.
    """
    H = linalg.as_matrix(H, "H", square=True)
    if len(H) % 2:
        raise DimensionError(f"H must have even order, got shape {H.shape}")
    n = len(H) // 2
    A, G = H[n:, n:], -H[:n, n:]
    structured = (n > 0 and np.array_equal(H[:n, :n], -A.conj())
                  and np.array_equal(H[n:, :n], G.conj()))
    try:
        T, U = _structured_schur(A, G) if structured else sla.schur(H, output="complex")
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"Schur decomposition failed: {exc}") from exc
    base = linalg.default_cluster_tol(sla.matrix_balance(H, permute=False)[0])
    tol, labeled, index = linalg.mirror_split(np.diag(T), base)
    chi_plus = [c for c, m, lab in labeled if lab == "plus" and m % 2]
    return HSpectrum(clusters=labeled, kappa=len(chi_plus),
                     n0=sum(m for _, m, lab in labeled if lab == "axis") // 2,
                     chi_plus_roots=tuple(chi_plus), cluster_tolerance=tol,
                     schur=(T, U), cluster_index=index)


def _structured_schur(A: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form U T U* of H = [[-conj A, -G], [conj G, A]], n > 0,
    from one real Schur form Z R Z^T (dgees) of K = V*(iH)V, V = [[I, iI],
    [I, -iI]]/sqrt(2) (Van Loan, LAA 1984; Benner, Kressner & Mehrmann 2005):
    T = -i Q* R Q, U = V Z Q, where Q's 2 x 2 blocks triangularize R's.  T's
    diagonal is -i times dgees' eigenvalues of K: each mirror pair
    (lambda, -conj lambda) is exact, each real eigenvalue of K on the axis."""
    n = len(A)
    K = np.empty((2 * n, 2 * n))
    K[:n, :n], K[:n, n:] = G.imag - A.imag, A.real - G.real
    K[n:, :n], K[n:, n:] = -(A.real + G.real), -(A.imag + G.imag)
    R, _, wr, wi, Z, _, info = sla.lapack.dgees(lambda x, y: None, np.asarray_chkfinite(K),
                                                overwrite_a=True)
    if info:  # pragma: no cover - LAPACK failure
        raise sla.LinAlgError(f"real Schur form failed (dgees info {info})")
    # [[al, i be], [i be, al]] triangularizes the standardized [[a, b], [c, a]]
    k = np.flatnonzero(wi > 0)  # the first row of each 2 x 2 block
    b, c = np.abs(R[k, k + 1]), np.abs(R[k + 1, k])
    Q = np.eye(2 * n, dtype=complex)
    Q[k, k] = Q[k + 1, k + 1] = np.sqrt(b / (b + c))
    Q[k, k + 1] = Q[k + 1, k] = 1j * np.copysign(np.sqrt(c / (b + c)), R[k, k + 1])
    ZQ = Z @ Q
    U = np.vstack([ZQ[:n] + 1j * ZQ[n:], ZQ[:n] - 1j * ZQ[n:]]) * np.sqrt(0.5)
    T = Q.conj().T @ (-1j * R) @ Q  # below the diagonal only the blocks' corners
    T[k + 1, k] = 0
    np.fill_diagonal(T, wi - 1j * wr)
    return T, U


def _invariant_subspace(spec: HSpectrum, chosen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis M of the invariant subspace of H of the clusters
    that the boolean mask ``chosen`` (over spec.clusters) selects and the
    upper triangular T11 with H M = M T11: the leading Schur vectors and the
    leading block of spec.schur once ZTRSEN reorders it."""
    select = chosen[spec.cluster_index]
    if not select.any():  # ztrsen rejects the 0 x 0 form of degree 0
        return spec.schur[1][:, :0], spec.schur[0][:0, :0]
    T, U, _, m, _, _, info = sla.lapack.ztrsen(select, *spec.schur, job="N")
    if info:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"Schur reordering failed (ztrsen info {info})")
    return U[:, :m], T[:m, :m]


def _newton_refine(hat: HatData, P: np.ndarray, form) -> tuple[np.ndarray, float]:
    """One Newton step on R(P) (Kleinman, IEEE TAC 1968): Z dP + dP Z* = -R(P),
    Z = A_hat + P C_hat* C_hat, solved as the adjoint equation of Z* in its
    Schur ``form`` read off the graph subspace.  P + (dP + dP*)/2 is kept only
    if it lowers ||R(P)||; from a graph-subspace P a second step gains nothing.
    Returns the kept P and its residual riccati_residual(hat, P)."""
    R = _residual_matrix(hat, P)
    res = float(linalg.spectral_norm(R))
    try:
        # LAPACK perturbs a near-singular equation and dP may overflow: R decides
        with np.errstate(over="ignore", invalid="ignore"):
            dP = linalg._schur_solve(form, -R, adjoint=True)
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
    """solve_extremal for the listed kinds only: "minimal", "maximal" or, for
    the exactly symmetric data of a symmetrize output (K conj(H) K = -H,
    K = [[0, I], [I, 0]]), "symmetric": the simple plus clusters (chi+), the
    axis half-chains and, at each plus cluster xi of multiplicity m > 1, a W
    of dimension ceil(m/2) and the mirror K conj(W') of a W' in W of
    dimension floor(m/2).  Over the cluster basis [X; Y] the nilpotent part N
    is self-adjoint for q(a, b) = a^T (X^T X - Y^T Y) b, and W' is isotropic
    and N-invariant: the first floor(l/2) vectors of each chain of length l
    and the middle vectors of the odd chains, paired (2j, 2j + 1) in their
    Takagi coordinates; W is its q-orthogonal complement.  P^-T is the graph
    of the mirror subspace, so rank(P^-T - P) = kappa.  One pi root costs one
    ZTRSEN reorder of its cluster, whose leading block gives N with no
    product with H, ||N|| by its Frobenius bracket (an SVD only where the
    bracket cannot decide), its share of the one stacked half_chain_basis
    call over all roots and, only with odd chains, the SVD of the middle
    vectors and one Takagi factorization; with even chains only,
    W = W' = span S0."""
    spec, n = analyze_spectrum(build_hamiltonian(hat)), hat.n

    # exact membership and the complete mirror pairing make a half-plane
    # subspace and the axis half-chains span exactly n dimensions
    roots = []
    for idx, (center, mult, lab) in enumerate(spec.clusters):
        if lab == "minus" or (lab == "plus" and (mult == 1 or "symmetric" not in kinds)):
            continue
        basis, T11 = _invariant_subspace(spec, np.arange(len(spec.clusters)) == idx)
        N = T11 - center * np.eye(mult)
        # no N for a semisimple plus root; ||N|| is bracketed by ||N||_F
        semisimple = lab == "plus" and linalg.norm_at_most(N, 10 * spec.cluster_tolerance)
        roots.append((center, mult, lab, basis, None if semisimple else N))
    # H^T D = D H, D = diag(I, -I), makes N self-adjoint for q: the first
    # floor(l/2) vectors of each chain (S0, from one half_chain_basis call over
    # every N, at the cluster band on each N's scale) are isotropic, and the
    # middle vectors of the odd chains (C, q- and Euclid-orthogonal to S0) pair
    # up in their Takagi coordinates; an axis root has no odd chain
    nilpotent = [N for *_, N in roots if N is not None]
    halves = iter(linalg.half_chain_basis(nilpotent, tol=spec.cluster_tolerance)
                  if nilpotent else ())
    axis_bases, pi_bases = [], []
    for center, mult, lab, basis, N in roots:
        S0 = np.zeros((mult, 0)) if N is None else next(halves)
        r = mult - 2 * S0.shape[1]
        if r < 0 or (r and lab == "axis"):
            raise SubspaceError(f"leading-half chain subspace at {center:g} has dimension "
                                f"{S0.shape[1]} of {mult}; an axis root needs even chains")
        if lab == "axis":
            axis_bases.append(basis @ S0)
            continue
        if r == 0:  # even chains only: W = W' = span S0
            W = Wm = basis @ S0
        else:
            G = basis[:n].T @ basis[:n] - basis[n:].T @ basis[n:]
            C = np.linalg.svd(np.vstack([S0.T @ G, S0.conj().T]))[2][mult - r:].conj().T
            tk = linalg.takagi(C.T @ G @ C)
            s = tk.values
            if s[0] <= 1e-10 * s[-1]:
                raise SubspaceError(f"the form of the pi root {center:g} is degenerate "
                                    f"(Takagi values {s[0]:.3g} to {s[-1]:.3g})")
            E = C @ (tk.u.conj() / np.sqrt(s))  # q(E c) = sum c_k^2
            Wm = basis @ np.hstack([S0, E[:, 0:r - 1:2] + 1j * E[:, 1:r:2]])
            W = np.hstack([Wm, basis @ E[:, r - 1:]]) if r % 2 else Wm
        pi_bases += [W, np.vstack([Wm[n:].conj(), Wm[:n].conj()])]

    def graph_solution(kind: str) -> RiccatiSolution:
        side = "minus" if kind == "maximal" else "plus"
        chosen = np.array([lab == side and (m == 1 or kind != "symmetric")
                           for _, m, lab in spec.clusters], dtype=bool)
        # ZTRSEN's leading Schur vectors are orthonormal; the half-chains are not
        Mb, T11 = _invariant_subspace(spec, chosen)
        extra = axis_bases + (pi_bases if kind == "symmetric" else [])
        if extra:
            Mb = np.linalg.qr(np.hstack([Mb] + extra))[0]
        X, Y = Mb[:n, :], Mb[n:, :]
        # X = Qx Rx: Rx has X's singular values, and P = Y X^-1 = Y Rx^-1 Qx*.
        # The empty X of a degree-0 problem counts as perfectly conditioned
        Qx, Rx = np.linalg.qr(X)
        sx = np.linalg.svd(Rx, compute_uv=False) if n else np.ones(1)
        if sx[-1] <= 1e-13 * max(1.0, sx[0]):
            raise SubspaceError(f"graph-subspace matrix X is singular (condition "
                                f"{sx[0] / max(sx[-1], 1e-300):.3g})")
        cond = float(sx[0] / sx[-1])
        P = sla.solve_triangular(Rx, Y.T, trans="T").T @ Qx.conj().T
        P = (P + P.conj().T) / 2
        if extra:
            # Mb is no ZTRSEN block, and an axis eigenvalue pair of Z makes
            # the Newton equation singular: the graph P is kept as it is
            res = float(linalg.spectral_norm(_residual_matrix(hat, P)))
        else:
            # H [X; Y] = [X; Y] T11 gives Z* X = -X T11, so (-Rx T11 Rx^-1, Qx)
            # is a Schur form of Z*
            form = (np.triu(sla.solve_triangular(Rx, -(Rx @ T11).T, trans="T").T), Qx)
            P, res = _newton_refine(hat, P, form)
        w = np.linalg.eigvalsh(P)
        scale = np.max(np.abs(w), initial=0.0)  # ||P||, P Hermitian
        if res > 1e-8 * (1.0 + scale ** 2):
            raise ValidationError(f"Riccati residual {res:g} exceeds tolerance for the {kind} "
                                  f"solution (||P|| = {scale:g}, cond X = {cond:.3g})")
        if w.size and w[0] <= 0:
            raise ValidationError(f"{kind} solution is not positive definite (min eigenvalue "
                                  f"{w[0]:g}); S may not be a Schur function")
        Z = hat.a_hat + P @ hat.csc
        return RiccatiSolution(p=P, z=Z, kind=kind, residual_norm=res,
                               subspace_condition=cond, spectrum=spec, p_eigenvalues=w)

    # graph of P carries the -Z* dynamics: sigma(Z) in the closed left
    # half-plane (minimal) puts the graph on the right half-spectrum of H
    return tuple(graph_solution(kind) for kind in kinds)

