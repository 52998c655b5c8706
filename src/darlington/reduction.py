"""The minimal symmetric inner extension, and degree reduction of
symmetric inner functions by two-sided division with elementary Blaschke
factors.

minimize_symmetric builds it, of degree n + kappa, from one Riccati
solution: the symmetric solution P, whose Sigma_P = S_P diag(Q, I) has a
quotient Q of degree rank(P^-T - P) = kappa.  It divides nothing.  Its
stages are one private runner, which also builds the CLI's inner and
symmetric extensions on an extremal solution (S_P, or Sigma_P on it).

The division helpers remain public.  An elementary factor
B(s) = I + (b_xi(s) - 1) u u*, with b_xi(s) = (s - xi)/(s + conj(xi)), is
inner of degree 1 with det B = b_xi.  If a symmetric inner T has a zero xi
of multiplicity at least 2, there is a unit vector u with

    T(xi) u = 0   and   u^T T'(xi) u = 0,

and then B(s)^{-T} T(s) B(s)^{-1} is again symmetric inner, of degree
exactly deg T - 2 (find_reduction_vector, reduce_once).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DarlingtonError, ReductionError, SpectralSplitError, ValidationError
from .extension import (
    _lossless_residual,
    build_extension,
    symmetric_unitary_extension,
)
from .realization import (
    Realization,
    _computed,
    _contractive_entry,
    _mobius_inverse,
    _pencils,
    _values_and_derivatives,
    freqresp,
    symmetrize,
)
from .riccati import RiccatiSolution, _extremal, build_hat

__all__ = [
    "BlaschkeFactor",
    "SynthesisResult",
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

    ``solution`` is the symmetric Riccati solution P that Sigma is built
    on; ``innerness`` is the larger lossless certificate of its factors S_P
    and Q, taken before their projection (and of ``extension`` mapped back
    from omega0), which proves it inner and minimal on the Gramian I;
    ``symmetry`` and ``block_match`` are maxima of its one cached frequency
    response on probe_points(extension).

    ``trace`` holds one dict per stage, in order, with its ``stage``
    name, wall ``seconds`` and values the stage computed anyway:
    'symmetrize' omega0 (None when ||D|| < 1); 'riccati' kappa, n0,
    cluster_tolerance, riccati_residual, p_norm, p_inv_norm, cond_x and
    chi_plus_gap (the least distance of two odd roots relative to 1 + |xi|,
    None with fewer); 'symmetric-extension' degree, lossless_residual,
    symmetry_residual and q_inner; 'finalize' innerness, symmetry and
    block_match."""
    extension: Realization
    degree: int
    kappa: int
    n0: int
    solution: RiccatiSolution
    innerness: float
    symmetry: float
    block_match: float
    trace: tuple[dict, ...]


def minimize_symmetric(R: Realization) -> SynthesisResult:
    """Minimal-degree symmetric inner extension of a symmetric Schur
    function strictly contractive at one axis point, in four stages:
    'symmetrize' the (minimal) realization, of S(i omega0 + 1/s) at the
    ``_contractive_entry``'s omega0 when ||D|| = 1; 'riccati', the symmetric
    solution P only (two odd roots of chi+ within 1e-4 relative raise
    SpectralSplitError), whose rank(P^-T - P) is kappa;
    'symmetric-extension', the balanced Sigma of degree n + kappa, which
    must be inner (``Q.inner_flag``); 'finalize', after the map back
    (s -> i omega0 + 1/s keeps the right half-plane, so degree and kappa
    stay).  Each stage is timed and recorded in ``trace``.  A stage's
    DarlingtonError is raised again with its type and the prefix
    "stage '<name>': ".  The final gate bounds Sigma's innerness certificate
    and the symmetry and S-block residuals of its probe response at 1e-7."""
    return _staged(R, "symmetric", True)


def _final_bound(kind: str) -> float:
    """The final gate's bound on the ``kind`` Riccati solution of ``_staged``."""
    return 1e-7 if kind == "symmetric" else 1e-8


def _staged(R: Realization, kind: str, sigma: bool) -> SynthesisResult:
    """minimize_symmetric's stages on the ``kind`` Riccati solution of R
    ("symmetric", "minimal" or "maximal"), Q of degree n - n0 on an extremal
    one; without ``sigma``, S_P of R on its Gramian P, in the stages
    'precondition' and 'extension'.  Only the symmetric solution refuses a
    split odd root pair and a Q that is not inner.  The final gate, at
    ``_final_bound(kind)``, names the CLI's report keys."""
    stages = (("symmetrize", "riccati", "symmetric-extension", "finalize") if sigma
              else ("precondition", "riccati", "extension", "finalize"))
    # the running stage is the first one not yet in the trace
    trace: list[dict] = []
    marks = [time.perf_counter()]

    def done(**values) -> None:
        marks.append(time.perf_counter())  # the running stage ends, the next starts
        trace.append({"stage": stages[len(trace)], "seconds": marks[-1] - marks[-2], **values})

    try:
        Rs, w0 = _contractive_entry(R)
        Rs, p = symmetrize(Rs) if sigma else Rs, R.outputs
        done(omega0=w0)
        (sol,) = _extremal(build_hat(Rs), (kind,))
        spec, w = sol.spectrum, np.abs(sol.p_eigenvalues)  # P is Hermitian
        # odd roots this close are most likely a double root of H that the
        # clustering split, which would leave a non-minimal result
        chi = np.array(spec.chi_plus_roots, dtype=complex)
        gap = np.abs(chi[:, np.newaxis] - chi) / (1.0 + np.abs(chi[:, np.newaxis]))
        np.fill_diagonal(gap, np.inf)
        if kind == "symmetric" and np.any(gap <= 1e-4):
            i, j = np.unravel_index(np.argmin(gap), gap.shape)
            raise SpectralSplitError(
                f"odd Hamiltonian roots {chi[i]:.6g} and {chi[j]:.6g} are {gap[i, j]:.2g} "
                f"apart relative to 1 + |xi|, at most 1e-4: a split double root")
        done(kappa=spec.kappa, n0=spec.n0, cluster_tolerance=float(spec.cluster_tolerance),
             riccati_residual=sol.residual_norm, p_norm=float(np.max(w, initial=0.0)),
             p_inv_norm=float(1.0 / np.min(w, initial=np.inf)), cond_x=sol.subspace_condition,
             chi_plus_gap=float(gap.min()) if chi.size > 1 else None)
        E = build_extension(Rs, sol)
        if sigma:
            degree = spec.kappa if kind == "symmetric" else Rs.n - spec.n0
            out, Q, sres, ir = symmetric_unitary_extension(E, degree)
            if out.n != Rs.n + degree:
                what = "kappa" if kind == "symmetric" else "n - n0"
                raise ValidationError(f"degree {out.n} of the unitary extension "
                                      f"differs from n + {what} = {Rs.n + degree}")
            # a Gramian I proves Sigma stable
            if kind == "symmetric" and not Q.inner_flag:
                raise ReductionError(
                    "the Gramian diag(J_Q, I) of Sigma is not positive definite ("
                    "||P|| = {p_norm:.3g}, ||P^-1|| = {p_inv_norm:.3g}, "
                    "cond X = {cond_x:.3g})".format_map(trace[-1]))
            X = np.concatenate([np.diag(Q.gramian), np.ones(Rs.n)])  # diag(J_Q, I)
            done(degree=out.n, lossless_residual=ir, symmetry_residual=sres,
                 q_inner=Q.inner_flag)
        else:
            out, X, ir = E.realization, E.p_matrix, E.certificate
            done(degree=out.n, lossless_residual=ir)
        if w0 is not None:  # the map back keeps the Gramian X
            out = _mobius_inverse(out, w0)
            ir = float(np.max([ir, _lossless_residual(out, X)]))  # keeps a nan
        # ir proves out unitary and minimal; its cached probe points avoid
        # the poles of S, which are poles of out
        pts, F, sr = out._probe
        block = linalg.max_norm(F[:, p:, p:] - freqresp(R, pts))
        cert = "unitary_axis_residual" if sigma and kind != "symmetric" else "innerness_residual"
        gated = {cert: ir, **({"symmetry_residual": sr} if sigma else {}), "block_match": block}
        if not all(v <= _final_bound(kind) for v in gated.values()):  # a nan fails too
            raise ValidationError("certification failed ({})".format(
                ", ".join(f"{k} {v:g}" for k, v in gated.items())))
        done(innerness=ir, symmetry=sr, block_match=block)
    except DarlingtonError as exc:
        raise type(exc)(f"stage '{stages[len(trace)]}': {exc}") from exc
    return SynthesisResult(extension=out, degree=out.n, kappa=spec.kappa, n0=spec.n0,
                           solution=sol, innerness=ir, symmetry=sr, block_match=block,
                           trace=tuple(trace))
