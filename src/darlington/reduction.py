"""Degree reduction of symmetric inner functions by two-sided division
with elementary Blaschke factors, down to the minimal symmetric inner
extension.

An elementary factor B(s) = I + (b_xi(s) - 1) u u*, with
b_xi(s) = (s - xi)/(s + conj(xi)), is inner of degree 1 with
det B = b_xi.  If a symmetric inner T has a zero xi of multiplicity at
least 2, there is a unit vector u with

    T(xi) u = 0   and   u^T T'(xi) u = 0,

and then B(s)^{-T} T(s) B(s)^{-1} is again symmetric inner, of degree
exactly deg T - 2.  Start from the 2n - n0 symmetric extension built
on the minimal Riccati solution.  Each root xi, Re xi > 0, of the even
square factor pi of the Hamiltonian's characteristic polynomial is a
multiple zero of it, divided out as many times as its multiplicity in
pi, with u restricted to the first coordinate block so the S block is
preserved.  The divisions run in rounds: round r divides out one factor
at every root of multiplicity at least r in pi, all in one two-sided
compression, with the directions u of all its points found by one
batched search on the round's input.
For distinct points this is the root-by-root cascade: dividing by B_j
maps the kernel of T(xi_k) by B_j(xi_k), which is block diagonal as
u_j is supported on the first block, and keeps both conditions above.
The (n - kappa - n0)/2 divisions end at the minimal symmetric inner
extension of degree n + kappa.  No round solves for zeros: the points
and multiplicities come from the analyzed Hamiltonian spectrum.

Sigma comes balanced (controllability Gramian I, as every Hankel
singular value of an inner function is 1), and each round keeps it so
by a closed-form deflation certified on that Gramian (reduce_once).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (DarlingtonError, DimensionError, ReductionError, SpectralSplitError,
                     ValidationError)
from .extension import (
    _lossless_residual,
    build_extension,
    symmetric_unitary_extension,
)
from .realization import (
    Realization,
    _computed,
    _pencils,
    _values_and_derivatives,
    freqresp,
    symmetrize,
)
from .riccati import RiccatiSolution, _extremal, build_hat

__all__ = [
    "BlaschkeFactor",
    "ZeroStructure",
    "SynthesisResult",
    "zero_structure",
    "find_reduction_vector",
    "reduce_once",
    "minimize_symmetric",
]


@dataclass(frozen=True)
class BlaschkeFactor:
    """Elementary inner factor B(s) = I + (b_xi(s) - 1) u u*."""
    xi: complex
    u: np.ndarray

    def __post_init__(self):
        xi = complex(self.xi)
        u = np.asarray(self.u, dtype=complex).ravel()
        if not (np.isfinite(xi) and xi.real > 0):
            raise ValidationError("xi must lie in the open right half-plane")
        nrm = np.linalg.norm(u)
        if not 0 < nrm < np.inf:  # a nan u fails too
            raise ValidationError("direction u must be finite and nonzero")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "u", u / nrm)

    @property
    def dim(self) -> int:
        return self.u.size

    def scalar(self, s: complex) -> complex:
        """b_xi(s) = (s - xi)/(s + conj(xi))."""
        return (s - self.xi) / (s + np.conj(self.xi))

    def __call__(self, s: complex) -> np.ndarray:
        uu = np.outer(self.u, self.u.conj())
        return np.eye(self.dim) + (self.scalar(s) - 1.0) * uu


@dataclass(frozen=True)
class ZeroStructure:
    """Zeros (eigenvalues of A - B D^{-1} C in the open right half-plane)
    of an inner function, clustered into multiplicities, with an
    orthonormal kernel basis of T(xi) per zero."""
    zeros: tuple[tuple[complex, int], ...]
    kernels: tuple[np.ndarray, ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.zeros)


def zero_structure(T: Realization) -> ZeroStructure:
    """Zero locations and multiplicities of an inner T, from the
    eigenvalues of A - B D^{-1} C.  minimize_symmetric takes its
    division points from the Hamiltonian spectrum instead; this is an
    independent view of the same zeros.

    T must be square and pass the lossless certificate on its Gramian to
    1e-7, which proves it minimal and all-pass with D unitary; its zeros,
    the mirrors of its poles, must lie in the open right half-plane.
    Zeros are clustered with the same persistence ladder used for the
    Hamiltonian spectrum; every T(xi) comes from one freqresp call.
    """
    if T.outputs != T.inputs:
        raise DimensionError(f"zero_structure needs a square T, got {T.outputs}x{T.inputs}")
    resid = _lossless_residual(T, *T._gramian)
    if not resid <= 1e-7:
        raise ValidationError(
            f"zero_structure requires an inner function (lossless residual {resid:g})")
    if T.n == 0:
        return ZeroStructure(zeros=(), kernels=())
    Az = T.a - T.b @ np.linalg.solve(T.d, T.c)
    lam = np.linalg.eigvals(Az)
    tol, clusters = linalg.cluster_ladder(lam, linalg.default_cluster_tol(Az))
    zeros = tuple((c, len(m)) for c, m in sorted(clusters, key=lambda g: (g[0].real, g[0].imag)))
    xi = np.array([c for c, _ in zeros])
    if xi[0].real <= tol:
        raise ValidationError(
            f"zero {xi[0]:g} is not in the open right half-plane; "
            "T is not inner or the clustering is unreliable")
    vals = freqresp(T, xi)
    kernels = linalg._kernels(vals, 1e-6, np.maximum(1.0, linalg.spectral_norm(vals)))
    return ZeroStructure(zeros=zeros, kernels=tuple(kernels))


def find_reduction_vector(T: Realization, points,
                          support: int | None = None) -> np.ndarray:
    """Unit vectors u_k with T(xi_k) u_k = 0 and u_k^T T'(xi_k) u_k = 0,
    one row per point xi_k of ``points``.

    ``support`` restricts each u_k to the first ``support`` coordinates
    (the extension-preserving form [u~; 0]).  Every T(xi_k) and T'(xi_k)
    is read from one pole guard and two stacked solves of the pencils
    xi_k I - A, and every kernel from one stacked SVD.  With a
    one-dimensional kernel the vector is forced.  Otherwise u = V x for
    an isotropic x of the restriction R1 = V^T T'(xi) V = [[a, b], [b, c]]
    of the derivative to two kernel directions V, in closed form: the root
    q = -(b +- sqrt(b^2 - ac)) of larger modulus solves
    q^2 + 2bq + ac = 0, so (q, a) and (c, q) both solve
    a x1^2 + 2b x1 x2 + c x2^2 = 0; the one with the larger of |a|, |c|
    is taken, and (1, 0) when it vanishes (R1 = 0 to 1e-10).

    Raises
    ------
    ReductionError
        Naming the first point at which no vector satisfying both
        interpolation conditions to 1e-7 (relative to ||T(xi)|| and
        ||T'(xi)||) exists in the requested support.
    """
    xi = np.asarray(points, dtype=complex).ravel()
    p_all = T.outputs
    k = p_all if support is None else int(support)
    if not 0 < k <= p_all:
        raise ValidationError(f"support must be in 1..{p_all}")
    Txi, Tpxi = _values_and_derivatives(T, xi)
    scale = np.maximum(1.0, linalg.spectral_norm(Txi))
    dscale = np.maximum(1.0, linalg.spectral_norm(Tpxi))
    kernels = linalg._kernels(Txi[:, :, :k], 1e-6, scale)
    U = np.zeros((xi.size, p_all), dtype=complex)
    for j, (x0, ker) in enumerate(zip(xi, kernels)):
        if ker.shape[1] == 0:
            raise ReductionError(
                f"T({x0:g}) has no kernel supported on the first {k} coordinates")
        if ker.shape[1] == 1:
            small = ker[:, 0]
        else:
            V2 = ker[:, :2]
            R1 = V2.T @ Tpxi[j, :k, :k] @ V2
            a, b, c = R1[0, 0], (R1[0, 1] + R1[1, 0]) / 2, R1[1, 1]
            d = np.sqrt(complex(b * b - a * c))
            q = -(b + d) if abs(b + d) >= abs(b - d) else -(b - d)
            x = np.array([q, a] if abs(a) >= abs(c) else [c, q], dtype=complex)
            if np.linalg.norm(x) <= 1e-10 * dscale[j]:
                x = np.array([1.0, 0.0], dtype=complex)
            small = V2 @ x
        u = U[j]
        u[:k] = small / np.linalg.norm(small)
        c1 = float(np.linalg.norm(Txi[j] @ u))
        c2 = float(abs(u @ Tpxi[j] @ u))
        if c1 > 1e-7 * scale[j] or c2 > 1e-7 * dscale[j]:
            raise ReductionError(
                f"interpolation conditions not met at {x0:g}: |T(xi)u| = {c1:g}, "
                f"|u^T T'(xi) u| = {c2:g}")
    return U


def reduce_once(T: Realization, factors) -> tuple[Realization, float]:
    """Two-sided division R = B^{-T} T B^{-1} of an inner T by the
    elementary factors B_k = (xi_k, u_k) at distinct points
    xi_1, ..., xi_m, in balanced coordinates: A + A* + B B* = 0 and
    C = -D B* (Gramian I).

    With x_k = (xi_k I - A)^{-1} B u_k, T(xi_k) u_k = D (u_k - B* x_k)
    and A* x_k + xi_k x_k = B (u_k - B* x_k), so at zero directions the
    x_k are eigenvectors of A* and T B^{-1} is T restricted to the
    A-invariant complement of X = [x_1 ... x_m], the last n - m columns
    of one complete QR factorization of X, balanced again (the lossless
    cascade extraction of Genin, Van Dooren, Kailath, Delosme & Morf,
    1983); the left division is the same on the transpose, with the
    same u_k.  R is certified inner and minimal on the identity Gramian
    to 1e-7 once, and all 2m interpolation residuals |u_k - B* x_k| must
    be at most 1e-7.  Returns R and its lossless certificate residual.
    """
    factors = tuple(factors)
    m = len(factors)
    if not m or any(f.dim != T.outputs for f in factors) or T.n < 2 * m:
        raise ValidationError("reduce_once needs at least one factor, directions of "
                              "the output size and two states per factor")
    if len({f.xi for f in factors}) < m:
        raise ValidationError("the points of one reduction must be distinct")
    xi = np.array([f.xi for f in factors])
    U = np.column_stack([f.u for f in factors])
    out, gaps = T, []
    for _ in range(2):  # T B^-1, then (B^-T T B^-1)^T = (T B^-1)^T B^-1
        # one stacked solve: column k of X is (xi_k I - A)^{-1} B u_k
        X = np.linalg.solve(_pencils(xi, out.a), (out.b @ U).T[:, :, np.newaxis])[:, :, 0].T
        gaps.append(np.linalg.norm(U - out.b.conj().T @ X, axis=0))
        V = np.linalg.qr(X, mode="complete")[0][:, m:]
        out = _computed((V.conj().T @ out.a @ V).T, (out.c @ V).T,
                        (V.conj().T @ out.b).T, out.d.T)
    res = _lossless_residual(out, np.ones(out.n))
    if not res <= 1e-7:  # a nan fails too
        raise ReductionError(
            f"reduction output is not certified inner and minimal on the "
            f"identity Gramian (lossless residual {res:g}); T must be in "
            f"balanced coordinates, A + A* + B B* = 0 and C = -D B*")
    # the first failing gap, right pass first: a wrong right division
    # spoils the left gaps at every point
    bad = np.flatnonzero(~(np.array(gaps) <= 1e-7))  # a nan fails too
    if bad.size:
        k = bad[0] % m
        raise ReductionError(
            f"u is not a double zero direction at {xi[k]:g}: |T(xi) u| = "
            f"{gaps[0][k]:g}, |(T B^-1)(xi)^T u| = {gaps[1][k]:g}")
    return out, res


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of the minimal symmetric inner extension pipeline.

    ``innerness`` is the relative residual of the last stage's lossless
    certificate (the last round's, or with no round Sigma's), which
    proves ``extension`` inner and minimal on the Gramian I;
    ``symmetry`` and ``block_match`` are maxima of its one cached
    frequency response on probe_points(extension).

    ``factors`` holds one factor per division, in round order: round r
    divides once at every root of multiplicity at least r in pi, in the
    order of ``p_min.spectrum.pi_roots``.  Each ``u`` is the direction
    found on its round's input (the balanced Sigma for round 1, the
    output of round r - 1 after that), so the factors of one round are
    not the successive directions of a root-by-root cascade.

    ``trace`` holds one dict per stage, in order, with its ``stage``
    name, wall ``seconds`` and values the stage computed anyway:
    'riccati' kappa, n0, cluster_tolerance, riccati_residual, p_min_norm,
    p_min_inv_norm, cond_x and chi_plus_gap (the least distance of two
    odd roots relative to 1 + |xi|, None with fewer); 'symmetric-extension'
    degree, lossless_residual and symmetry_residual; 'reduce' rounds, each
    with its points, their multiplicities in pi, degree_before,
    degree_after, lossless_residual and seconds; 'finalize' innerness,
    symmetry and block_match."""
    extension: Realization
    degree: int
    kappa: int
    n0: int
    p_min: RiccatiSolution
    factors: tuple[BlaschkeFactor, ...]
    innerness: float
    symmetry: float
    block_match: float
    trace: tuple[dict, ...]


def minimize_symmetric(R: Realization, residual_tol: float = 1e-7) -> SynthesisResult:
    """Minimal-degree symmetric inner extension of a symmetric Schur
    function strictly contractive at infinity, in five stages:
    'symmetrize' the (minimal) realization; 'riccati', the minimal
    solution only (two odd roots of chi+ within 1e-4 relative raise
    SpectralSplitError); 'symmetric-extension', the balanced Sigma of
    degree 2n - n0; 'reduce', which needs Sigma inner (``Q.inner_flag``)
    and divides it to degree n + kappa, round r once at every root of pi
    of multiplicity at least r, by one batched ``find_reduction_vector``
    and one certified ``reduce_once``; 'finalize'.  Each stage is timed
    and recorded in ``trace``.  A stage's DarlingtonError is raised again
    with its type and the prefix "stage '<name>': "; a failed round as a
    ReductionError naming its points, the degree before it and the
    conditioning in the 'riccati' record.  ``residual_tol`` (finite, > 0)
    bounds the last stage's innerness certificate and the symmetry and
    S-block residuals of the final realization's one cached frequency
    response on probe_points(extension).
    """
    if not (np.isfinite(residual_tol) and residual_tol > 0):
        raise ValidationError(f"residual_tol must be finite and positive, got {residual_tol!r}")
    # the running stage is the first one not yet in the trace
    stages = ("symmetrize", "riccati", "symmetric-extension", "reduce", "finalize")
    trace: list[dict] = []
    marks, failed_round = [time.perf_counter()], ""

    def done(**values) -> None:
        marks.append(time.perf_counter())  # the running stage ends, the next starts
        trace.append({"stage": stages[len(trace)], "seconds": marks[-1] - marks[-2], **values})

    try:
        Rs, p = symmetrize(R), R.outputs
        done()
        (pmin,) = _extremal(build_hat(Rs), ("minimal",))
        spec, w = pmin.spectrum, np.abs(pmin.p_eigenvalues)  # P_min is Hermitian
        # odd roots this close are most likely a double root of H that the
        # clustering split; no division at it would leave a non-minimal result
        chi = np.array(spec.chi_plus_roots, dtype=complex)
        gap = np.abs(chi[:, np.newaxis] - chi) / (1.0 + np.abs(chi[:, np.newaxis]))
        np.fill_diagonal(gap, np.inf)
        if np.any(gap <= 1e-4):
            i, j = np.unravel_index(np.argmin(gap), gap.shape)
            raise SpectralSplitError(
                f"odd Hamiltonian roots {chi[i]:.6g} and {chi[j]:.6g} are {gap[i, j]:.2g} "
                f"apart relative to 1 + |xi|, at most 1e-4: a split double root")
        done(kappa=spec.kappa, n0=spec.n0, cluster_tolerance=float(spec.cluster_tolerance),
             riccati_residual=pmin.residual_norm, p_min_norm=float(np.max(w, initial=0.0)),
             p_min_inv_norm=float(1.0 / np.min(w, initial=np.inf)),
             cond_x=pmin.subspace_condition,
             chi_plus_gap=float(gap.min()) if chi.size > 1 else None)
        conditioning = ("||P_min|| = {p_min_norm:.3g}, ||P_min^-1|| = {p_min_inv_norm:.3g}, "
                        "cond X = {cond_x:.3g}").format_map(trace[-1])
        current, Q, sres, ir = symmetric_unitary_extension(build_extension(Rs, pmin))
        if current.n != 2 * Rs.n - spec.n0:
            raise ValidationError(f"degree {current.n} of the unitary extension "
                                  f"differs from 2n - n0 = {2 * Rs.n - spec.n0}")
        done(degree=current.n, lossless_residual=ir, symmetry_residual=sres)
        # a Gramian I proves Sigma stable, also when no round follows
        if not Q.inner_flag:
            raise ReductionError(f"the Gramian diag(J_Q, I) of Sigma is not positive "
                                 f"definite ({conditioning})")
        # a root of multiplicity k in pi is divided out k times, each
        # division dropping the degree by 2; the complete mirror pairing of
        # the spectrum makes kappa + 2 sum(k) = n - n0, so they end at n + kappa
        roots = [(xi, k) for xi, k in spec.pi_roots if xi.real > 0]
        factors, rounds = [], []
        for r in range(1, max((k for _, k in roots), default=0) + 1):
            points = [xi for xi, k in roots if k >= r]
            failed_round = (f"round {r} at xi = {', '.join(f'{xi:.6g}' for xi in points)} "
                            f"from degree {current.n} failed ({conditioning}): ")
            before, round_start = current.n, time.perf_counter()
            U = find_reduction_vector(current, points, support=p)
            fs = [BlaschkeFactor(xi=xi, u=u) for xi, u in zip(points, U)]
            current, ir = reduce_once(current, fs)
            factors.extend(fs)
            rounds.append(dict(points=points, multiplicities=[k for _, k in roots if k >= r],
                               degree_before=before, degree_after=current.n,
                               lossless_residual=ir, seconds=time.perf_counter() - round_start))
        failed_round = ""
        done(rounds=rounds)
        # ir, the last stage's certificate, proves current inner and minimal;
        # its cached probe points avoid the poles of S, which are poles of current
        pts, F, sr = current._probe
        block = linalg.max_norm(F[:, p:, p:] - freqresp(R, pts))
        if not all(v <= residual_tol for v in (ir, sr, block)):  # a nan fails too
            raise ValidationError(f"certification failed (inner {ir:g}, "
                                  f"symmetry {sr:g}, block match {block:g})")
        done(innerness=ir, symmetry=sr, block_match=block)
    except DarlingtonError as exc:  # a failed round is always a ReductionError
        raise (ReductionError if failed_round else type(exc))(
            f"stage '{stages[len(trace)]}': {failed_round}{exc}") from exc
    return SynthesisResult(extension=current, degree=current.n, kappa=spec.kappa,
                           n0=spec.n0, p_min=pmin, factors=tuple(factors), innerness=ir,
                           symmetry=sr, block_match=block, trace=tuple(trace))
