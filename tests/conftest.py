"""Shared fixtures: worked examples and randomized Schur instance
generators with conditioning control.

Random symmetric Schur functions are assembled from scalar fractions
p1/q (with a prescribed parity structure of mu = q q* - p1 p1*) placed
on the diagonal and mixed by a constant unitary congruence U^T diag U,
which preserves symmetry, contractivity and the Hamiltonian spectrum
structure.  Instances whose extremal Riccati solutions are badly
conditioned are redrawn, keeping every certified tolerance in this
suite meaningful in double precision.  The accepted draws of the
tier-1 fixtures are frozen in tests/data/suite.npz.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
import scipy.linalg as sla

from darlington import (
    Realization,
    build_extension,
    build_hat,
    minimal_realization,
    solve_extremal,
    symmetric_unitary_extension,
    symmetrize,
)
from darlington.errors import DimensionError, NotSymmetricError, ValidationError
from darlington.linalg import DEFAULT_RANK_TOL
from darlington.reduction import BlaschkeFactor, find_reduction_vector, reduce_once
from darlington.riccati import _extremal
from darlington.scalar import poly_para, poly_trim, siso_realization, spectral_factor_poly


# ---------------------------------------------------------- test oracles
# Realization calculus the package itself never runs, kept as
# independent references for the tests.

def invert(R: Realization) -> Realization:
    """Realization of S^{-1}; requires square invertible D."""
    if R.outputs != R.inputs:
        raise DimensionError("inversion requires a square transfer function")
    s = np.linalg.svd(R.d, compute_uv=False)
    if s.size == 0 or s[-1] <= DEFAULT_RANK_TOL * max(1.0, s[0]):
        raise ValidationError("D is singular; the inverse realization formula needs D invertible")
    Dinv = np.linalg.inv(R.d)
    return Realization(R.a - R.b @ Dinv @ R.c, R.b @ Dinv, -Dinv @ R.c, Dinv)


def sorted_schur_subspace(M, centers, indices) -> np.ndarray:
    """Orthonormal basis of the spectral subspace of the eigenvalue
    clusters with the given indices, from one sorted complex Schur form
    of M whose select function assigns each eigenvalue to its nearest
    center."""
    cs = np.asarray(centers, dtype=complex)
    chosen = set(indices)
    _, Z, sdim = sla.schur(M, output="complex",
                           sort=lambda lam: int(np.argmin(np.abs(cs - lam))) in chosen)
    return Z[:, :sdim]


def pi_roots(spec) -> list[tuple[complex, int]]:
    """The roots of the even square factor pi of an HSpectrum's
    characteristic polynomial with their multiplicities in pi: a cluster of
    multiplicity m > 1 holds one of multiplicity m // 2."""
    return [(c, m // 2) for c, m, _ in spec.clusters if m > 1]


def sequential_minimize(R: Realization) -> tuple[Realization, list]:
    """The Blaschke cascade down to the minimal symmetric extension: from
    Sigma on P_min, which comes balanced, one single-factor reduce_once per
    division, each direction found on the previous step's output.
    Returns the final realization and the steps as triples
    (T, f, reduce_once(T, (f,))[0])."""
    Rs = symmetrize(R)
    (pmin,) = _extremal(build_hat(Rs), ("minimal",))
    E = build_extension(Rs, pmin)
    current = symmetric_unitary_extension(E, Rs.n - pmin.spectrum.n0)[0]
    steps = []
    for xi, k in pi_roots(pmin.spectrum):
        for _ in range(k if xi.real > 0 else 0):
            f = BlaschkeFactor(xi=xi, u=find_reduction_vector(current, [xi], support=Rs.outputs)[0])
            out, _ = reduce_once(current, (f,))
            steps.append((current, f, out))
            current = out
    return current, steps


def hermitian_order(P, Q) -> str:
    """Classify two Hermitian matrices in the Loewner order.

    Returns one of ``"equal"``, ``"less_equal"`` (P <= Q),
    ``"greater_equal"`` (P >= Q) or ``"incomparable"``, decided from the
    signed eigenvalues of Q - P at tolerance 1e-9 max(1, ||P||, ||Q||).
    """
    A = np.asarray(P, dtype=complex)
    B = np.asarray(Q, dtype=complex)
    if A.shape != B.shape:
        raise DimensionError("P and Q must have the same shape")
    scale = max(1.0, np.linalg.norm(A, 2), np.linalg.norm(B, 2))
    for name, M in (("P", A), ("Q", B)):
        if np.linalg.norm(M - M.conj().T, 2) > 1e-9 * scale:
            raise NotSymmetricError(f"{name} is not Hermitian to tolerance")
    w = np.linalg.eigvalsh((B - A + (B - A).conj().T) / 2)
    has_pos = bool(np.any(w > 1e-9 * scale))
    has_neg = bool(np.any(w < -1e-9 * scale))
    return {(False, False): "equal", (True, False): "less_equal",
            (False, True): "greater_equal"}.get((has_pos, has_neg), "incomparable")


def para_conjugate(R: Realization) -> Realization:
    """Realization of W^*(s) = W(-conj(s))^*, i.e. (-A*, -C*, B*, D*)."""
    return Realization(-R.a.conj().T, -R.c.conj().T, R.b.conj().T, R.d.conj().T)


def blaschke_realization(f: BlaschkeFactor) -> Realization:
    """Degree-1 inner realization of B_{xi,u}:
    B(s) = I - 2 Re(xi)/(s + conj(xi)) u u*."""
    p = f.dim
    A = np.array([[-np.conj(f.xi)]])
    B = f.u.conj().reshape(1, p)
    C = -2 * f.xi.real * f.u.reshape(p, 1)
    D = np.eye(p, dtype=complex)
    return Realization(A, B, C, D)


def blaschke_inverse_eval(f: BlaschkeFactor, s: complex) -> np.ndarray:
    """Pointwise inverse B^{-1}(s) = I + (b_xi(s)^{-1} - 1) u u*."""
    uu = np.outer(f.u, f.u.conj())
    return np.eye(f.dim) + (1.0 / f.scalar(s) - 1.0) * uu


# --------------------------------------------------------- worked example

def coupled_pair_realization(zeta: float) -> Realization:
    """diag(f, f) with f(s) = 1/(s + zeta): the 2 x 2 worked example."""
    return Realization(-zeta * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))


@pytest.fixture(scope="session")
def zeta2() -> Realization:
    return coupled_pair_realization(2.0)


@pytest.fixture(scope="session")
def zeta1() -> Realization:
    return coupled_pair_realization(1.0)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(f, g, ...) patches every darlington binding of each
    function so that a call records its first argument (kept alive, so
    ids stay distinct); returns {function name: [argument, ...]}."""
    def patch(*functions) -> dict[str, list]:
        seen: dict[str, list] = {}
        for original in functions:
            calls = seen.setdefault(original.__name__, [])

            def counting(R, *args, _original=original, _calls=calls, **kwargs):
                _calls.append(R)
                return _original(R, *args, **kwargs)

            for modname, mod in list(sys.modules.items()):
                if modname == "darlington" or modname.startswith("darlington."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, attr, counting)
        return seen
    return patch


@pytest.fixture
def nan_response(monkeypatch):
    """darlington.realization's freqresp, which its grid and probe samples
    call, returns nan at every point."""
    monkeypatch.setattr("darlington.realization.freqresp", lambda R, pts:
                        np.full((len(pts), R.outputs, R.inputs), np.nan, dtype=complex))


# ------------------------------------------------------ scalar generators

def random_unitary(rng: np.random.Generator, p: int) -> np.ndarray:
    Z = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _random_stable_roots(rng: np.random.Generator, k: int,
                         re=(-1.8, -0.25), im=(-1.0, 1.0)) -> list[complex]:
    return [complex(rng.uniform(*re), rng.uniform(*im)) for _ in range(k)]


def random_scalar_fraction(rng: np.random.Generator, n: int,
                           kappa: int | None = None, n_axis: int = 0,
                           gain=(0.3, 0.85)):
    """Coefficients (p1, q) of a scalar Schur fraction of degree n,
    strictly contractive at infinity.

    With ``kappa`` given (requires n - kappa - n_axis even and >= 0) the
    parity structure of mu is prescribed: kappa simple off-axis root
    pairs, n_axis axis roots of multiplicity two, and double pairs for
    the remainder.  The poles of q are jittered copies of the stable
    roots of mu so that mu/(q q*) stays uniformly bounded on the axis,
    which keeps the resulting Riccati lattice well conditioned.  With
    ``kappa`` None the fraction is generic (mu has simple roots,
    kappa = n).
    """
    if kappa is None:
        q = npp.polyfromroots(_random_stable_roots(rng, n)).astype(complex)
        p1 = npp.polyfromroots(
            [complex(rng.uniform(-0.5, 1.0), rng.uniform(-1.0, 1.0))
             for _ in range(n)]).astype(complex)
        ws = np.linspace(-60, 60, 2401)
        ratio = max(abs(npp.polyval(1j * w, p1) / npp.polyval(1j * w, q))
                    for w in ws)
        p1 = p1 * (rng.uniform(*gain) / ratio)
        return poly_trim(p1), poly_trim(q)
    a2 = n - kappa - n_axis
    if a2 < 0 or a2 % 2:
        raise ValueError("need n - kappa - n_axis even and nonnegative")
    a = a2 // 2
    r1_roots = _random_stable_roots(rng, a)
    r2_roots = _random_stable_roots(rng, kappa)
    r1 = npp.polyfromroots(r1_roots).astype(complex) if a else np.array([1.0 + 0j])
    r2 = npp.polyfromroots(r2_roots).astype(complex) if kappa else np.array([1.0 + 0j])
    mu0 = npp.polymul(
        npp.polymul(npp.polymul(r1, poly_para(r1)), npp.polymul(r1, poly_para(r1))),
        npp.polymul(r2, poly_para(r2)))
    axis_ws = []
    for _ in range(n_axis):
        w0 = rng.uniform(-1.5, 1.5)
        axis_ws.append(w0)
        ax = np.array([-1j * w0, 1.0], dtype=complex)  # (s - i w0)
        mu0 = npp.polymul(mu0, -npp.polymul(ax, ax))   # -(s - i w0)^2 >= 0 on axis
    def jitter(z):
        d = complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
        return complex(min(z.real + d.real, -0.15), z.imag + d.imag)
    q_roots = [jitter(z) for z in r1_roots for _ in range(2)]
    q_roots += [jitter(z) for z in r2_roots]
    q_roots += [jitter(complex(-0.4, w0)) for w0 in axis_ws]
    q = npp.polyfromroots(q_roots).astype(complex)
    qqs = npp.polymul(q, poly_para(q))
    ws = np.linspace(-60, 60, 2401)
    vq = np.array([npp.polyval(1j * w, qqs).real for w in ws])
    vm = np.array([npp.polyval(1j * w, mu0).real for w in ws])
    eps = rng.uniform(*gain) * float(np.min(vq / np.maximum(vm, 1e-290)))
    p1 = spectral_factor_poly(poly_trim(npp.polysub(qqs, eps * mu0)))
    return poly_trim(p1), poly_trim(q)


def scalar_mu_kappa(p1, q) -> tuple[np.ndarray, int]:
    """Independent kappa count: odd-multiplicity open-right-half-plane
    root clusters of mu = q q* - p1 p1* (pure polynomial arithmetic)."""
    from darlington.scalar import compute_mu
    fac = compute_mu(p1, q)
    return fac.mu, fac.kappa


def assemble_congruence(scalars: list[Realization],
                        U: np.ndarray) -> Realization:
    """Symmetric realization of U^T diag(s_1, ..., s_p) U."""
    A = sla.block_diag(*[r.a for r in scalars])
    B = sla.block_diag(*[r.b for r in scalars]) @ U
    C = U.T @ sla.block_diag(*[r.c for r in scalars])
    D = U.T @ sla.block_diag(*[r.d for r in scalars]) @ U
    return Realization(A, B, C, D)


# --------------------------------------------------------- instance suite

@dataclass
class Instance:
    """One randomized symmetric Schur test instance."""
    name: str
    realization: Realization
    p: int
    n: int
    expected_kappa: int | None = None
    expected_n0: int | None = None
    scalars: list = field(default_factory=list)  # (p1, q) pairs when built from them


def _well_conditioned(R: Realization, n0: int | None = None,
                      cap: float = 2e3) -> bool:
    """Accept an instance only if the extremal lattice is tame in the
    symmetric coordinates the pipeline actually works in: moderate
    solution norms, tiny residuals, and a clean spectral gap in
    P_max - P_min so the kernel dimension (= n0) is decidable."""
    import warnings
    from darlington import symmetrize
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            Rs = symmetrize(R)
            pmin, pmax = solve_extremal(build_hat(Rs))
    except Exception:
        return False
    if not (np.linalg.norm(pmax.p, 2) <= cap
            and np.linalg.norm(np.linalg.inv(pmin.p), 2) <= cap
            and max(pmin.residual_norm, pmax.residual_norm) <= 1e-10
            and pmin.subspace_condition <= 1e6
            and pmax.subspace_condition <= 1e6):
        return False
    if n0 is not None:
        w = np.sort(np.abs(np.linalg.eigvalsh(pmax.p - pmin.p)))
        scale = max(1.0, w[-1]) if w.size else 1.0
        if n0 > 0 and w[n0 - 1] > 1e-8 * scale:
            return False
        if n0 < w.size and w[n0] < 1e-4 * scale:
            return False
    return True


def _draw_instance(rng: np.random.Generator, spec: tuple) -> Instance | None:
    kind = spec[0]
    if kind == "scalar":
        _, n, kappa, n_axis = spec
        p1, q = random_scalar_fraction(rng, n, kappa=kappa, n_axis=n_axis)
        R, _ = minimal_realization(siso_realization(p1, q))
        if R.n != n:
            return None
        nome = f"p1-n{n}-k{'g' if kappa is None else kappa}-ax{n_axis}"
        return Instance(name=nome, realization=R, p=1, n=n,
                        expected_kappa=n if kappa is None else kappa,
                        expected_n0=0 if kappa is None else n_axis,
                        scalars=[(p1, q)])
    # congruence of scalar diagonals; distinct random components keep
    # the Hamiltonian spectra disjoint, so kappa and n0 add up
    _, parts = spec
    scalars, frs = [], []
    kap = ax = 0
    for (n_i, kappa_i, ax_i) in parts:
        p1, q = random_scalar_fraction(rng, n_i, kappa=kappa_i, n_axis=ax_i)
        r, _ = minimal_realization(siso_realization(p1, q))
        if r.n != n_i:
            return None
        scalars.append(r)
        frs.append((p1, q))
        kap += n_i if kappa_i is None else kappa_i
        ax += ax_i
    p = len(parts)
    U = random_unitary(rng, p)
    R = assemble_congruence(scalars, U)
    n = R.n
    nome = f"p{p}-" + "-".join(f"n{a}k{'g' if b is None else b}" for a, b, _ in parts)
    return Instance(name=nome, realization=R, p=p, n=n,
                    expected_kappa=kap, expected_n0=ax, scalars=frs)


_SUITE_SPECS = [
    # p = 1, n = 1..6
    ("scalar", 1, None, 0),
    ("scalar", 2, 0, 0),
    ("scalar", 2, None, 0),
    ("scalar", 3, 1, 0),
    ("scalar", 3, 0, 1),
    ("scalar", 4, 0, 0),
    ("scalar", 5, None, 0),
    ("scalar", 6, None, 0),
    # p = 2 (structured low-kappa content at larger n comes from sums of
    # small well-conditioned parts; conditioning is inherited blockwise)
    ("congruence", [(1, None, 0), (1, None, 0)]),
    ("congruence", [(2, 0, 0), (1, None, 0)]),
    ("congruence", [(2, 0, 0), (2, 0, 0)]),
    ("congruence", [(2, None, 0), (2, 0, 0)]),
    ("congruence", [(3, 1, 0), (1, None, 0)]),
    ("congruence", [(3, 0, 1), (1, None, 0)]),
    ("congruence", [(3, None, 0), (3, None, 0)]),
    # p = 3
    ("congruence", [(1, None, 0), (1, None, 0), (1, None, 0)]),
    ("congruence", [(2, 0, 0), (1, None, 0), (1, None, 0)]),
    ("congruence", [(2, 0, 0), (2, 0, 0), (1, None, 0)]),
    ("congruence", [(2, 0, 0), (2, 0, 0), (2, 0, 0)]),
    ("congruence", [(2, None, 0), (2, 0, 0), (1, None, 0)]),
]


def build_suite(seed: int = 2024, max_draws: int = 80) -> list[Instance]:
    rng = np.random.default_rng(seed)
    suite = []
    for spec in _SUITE_SPECS:
        inst = None
        for _ in range(max_draws):
            try:
                cand = _draw_instance(rng, spec)
            except Exception:
                continue
            if cand is not None and _well_conditioned(cand.realization,
                                                      cand.expected_n0):
                inst = cand
                break
        if inst is None:
            raise RuntimeError(f"could not draw a well-conditioned instance for {spec}")
        suite.append(inst)
    return suite


def draw_scalar_suite(seed: int = 77) -> list[tuple[np.ndarray, np.ndarray]]:
    """20 scalar fractions for the oracle-equivalence run."""
    rng = np.random.default_rng(seed)
    out = []
    plan = [(1, None, 0), (2, None, 0), (2, 0, 0), (3, 1, 0), (3, None, 0),
            (4, 0, 0), (4, 2, 0), (3, 0, 1), (1, 1, 0), (2, 2, 0),
            (3, 3, 0), (4, None, 0), (4, 1, 1), (2, 1, 1), (3, 1, 0),
            (2, 0, 0), (5, None, 0), (5, None, 0), (6, None, 0), (6, None, 0)]
    for n, kappa, ax in plan:
        for _ in range(80):
            try:
                p1, q = random_scalar_fraction(rng, n, kappa=kappa, n_axis=ax)
                R, _ = minimal_realization(siso_realization(p1, q))
            except Exception:
                continue
            if R.n == n and _well_conditioned(R, 0 if kappa is None else ax):
                out.append((p1, q))
                break
        else:
            raise RuntimeError(f"no well-conditioned scalar instance for {(n, kappa, ax)}")
    return out


# (n, n_axis, rng seed) of unfiltered kappa = 0 fractions whose mu has
# double roots that rounding splits by about 1e-5 of their scale
SPLIT_DRAWS = [(4, 0, 79), (4, 0, 84), (6, 2, 2048), (6, 2, 2085), (6, 2, 2110)]


def draw_split_fractions() -> list[tuple[np.ndarray, np.ndarray]]:
    """The SPLIT_DRAWS fractions, each from its own generator."""
    return [random_scalar_fraction(np.random.default_rng(seed), n, 0, n_axis)
            for n, n_axis, seed in SPLIT_DRAWS]


def draw_large_instance(seed: int = 555) -> Instance:
    """p = 4, n = 8 congruence of four kappa-0 scalar parts."""
    rng = np.random.default_rng(seed)
    spec = ("congruence", [(2, 0, 0), (2, 0, 0), (2, 0, 0), (2, 0, 0)])
    for _ in range(60):
        try:
            cand = _draw_instance(rng, spec)
        except Exception:
            continue
        if cand is not None and _well_conditioned(cand.realization, 0):
            return cand
    raise RuntimeError(f"could not draw a well-conditioned instance for {spec}")


# ---------------------------------------------------------- frozen draws
#
# The filter above runs the package's own symmetrize and solve_extremal,
# so a rounding change there can redraw every later instance.  The
# tier-1 fixtures therefore read the instances from tests/data/suite.npz
# (written by tests/data/freeze_suite.py from the three draws above).

SUITE_FILE = Path(__file__).parent / "data" / "suite.npz"


def pack_instance(out: dict, key: str, inst: Instance) -> None:
    R = inst.realization
    out.update({f"{key}/name": np.array(inst.name),
                f"{key}/a": R.a, f"{key}/b": R.b, f"{key}/c": R.c, f"{key}/d": R.d,
                f"{key}/ints": np.array([inst.p, inst.n, inst.expected_kappa,
                                         inst.expected_n0, len(inst.scalars)])})
    for j, (p1, q) in enumerate(inst.scalars):
        out[f"{key}/p1/{j}"], out[f"{key}/q/{j}"] = p1, q


def unpack_instance(z, key: str) -> Instance:
    p, n, kappa, n0, k = (int(v) for v in z[f"{key}/ints"])
    R = Realization(*(z[f"{key}/{m}"] for m in "abcd"))
    return Instance(name=str(z[f"{key}/name"]), realization=R, p=p, n=n,
                    expected_kappa=kappa, expected_n0=n0,
                    scalars=[(z[f"{key}/p1/{j}"], z[f"{key}/q/{j}"])
                             for j in range(k)])


@pytest.fixture(scope="session")
def frozen():
    with np.load(SUITE_FILE) as z:
        return {key: z[key] for key in z.files}


@pytest.fixture(scope="session")
def instance_suite(frozen) -> list[Instance]:
    return [unpack_instance(frozen, f"suite/{i}") for i in range(len(_SUITE_SPECS))]


@pytest.fixture(scope="session")
def scalar_suite(frozen) -> list[tuple[np.ndarray, np.ndarray]]:
    """20 scalar fractions for the oracle-equivalence run."""
    return [(frozen[f"scalar/p1/{j}"], frozen[f"scalar/q/{j}"]) for j in range(20)]


@pytest.fixture(scope="session")
def split_fractions(frozen) -> list[tuple[np.ndarray, np.ndarray]]:
    """The SPLIT_DRAWS fractions with their degrees n."""
    return [(frozen[f"split/p1/{j}"], frozen[f"split/q/{j}"], n)
            for j, (n, _, _) in enumerate(SPLIT_DRAWS)]


@pytest.fixture(scope="session")
def large_instance(frozen) -> Instance:
    return unpack_instance(frozen, "large")
