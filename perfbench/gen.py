"""Seeded generator of the benchmark's frozen inputs.

The draw functions are the benchmark's own copy of the instance
generators in tests/conftest.py (random_scalar_fraction,
assemble_congruence, _draw_instance and the _well_conditioned filter),
plus a real-coefficient generator (conjugate-symmetric roots, real
orthogonal mixing), so edits to the tests cannot move the benchmark.
The filter calls the package's own symmetrize and solve_extremal, so
it runs once, here, and the accepted inputs are stored bit-exactly in
an .npz file; every later commit reads the same bits.

    PYTHONPATH=src python3 perfbench/gen.py --seed 2026 --out perfbench/inputs/main.npz
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
import zlib
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp
import scipy.linalg as sla

from darlington import Realization, build_hat, minimal_realization, solve_extremal, symmetrize
from darlington.scalar import poly_para, poly_trim, siso_realization, spectral_factor_poly
from workloads import ROUNDS, WARMUP

G = None  # generic block marker: mu has simple roots, kappa = degree


@dataclass(frozen=True)
class Rung:
    """One size class of inputs.

    kind is "scalar" (p = 1 fraction p1/q), "congruence" (U^T diag U of
    complex scalar blocks), "real" (the same with real blocks and a real
    orthogonal U) or "worked" (diag(f, f), f = 1/(s + zeta), in random
    real orthogonal state coordinates).  parts lists the blocks as
    (degree, kappa or G, axis roots); for "worked" it is (zeta,).
    """
    name: str
    kind: str
    parts: tuple


# Whole rounds of distinct inputs the pool holds per workload: about four
# runs' worth at the reference speed, so a faster commit still fills its
# run; a run ends early when its rounds are used up.
CAPACITY = {"reduce-lowkappa": 4, "generic-large": 4, "small-oracle": 18}

RUNGS = [
    # small-oracle: p <= 3, n <= 8
    Rung("s1g", "scalar", ((1, G, 0),)),
    Rung("s2k0", "scalar", ((2, 0, 0),)),
    Rung("s2g", "scalar", ((2, G, 0),)),
    Rung("s3k1", "scalar", ((3, 1, 0),)),
    Rung("s3ax1", "scalar", ((3, 0, 1),)),
    Rung("s4k0", "scalar", ((4, 0, 0),)),
    Rung("s5g", "scalar", ((5, G, 0),)),
    Rung("s6g", "scalar", ((6, G, 0),)),
    Rung("s7g", "scalar", ((7, G, 0),)),
    Rung("s8g", "scalar", ((8, G, 0),)),
    Rung("c2n4k0", "congruence", ((2, 0, 0), (2, 0, 0))),
    Rung("c2n4k2", "congruence", ((3, 1, 0), (1, G, 0))),
    Rung("c3n6k2", "congruence", ((2, 0, 0), (2, G, 0), (2, 0, 0))),
    Rung("r2n4k0", "real", ((2, 0, 0), (2, 0, 0))),
    Rung("r2n3g", "real", ((1, G, 0), (2, G, 0))),
    Rung("r3n6g", "real", ((2, G, 0), (2, G, 0), (2, G, 0))),
    Rung("zeta1", "worked", (1.0,)),
    Rung("zeta2", "worked", (2.0,)),
    # reduce-lowkappa: p 2..13, n 4..26
    Rung("k0n4", "congruence", ((2, 0, 0),) * 2),
    Rung("k1n5", "congruence", ((2, 0, 0), (3, 1, 0))),
    Rung("ax1n7", "congruence", ((2, 0, 0), (2, 0, 0), (3, 0, 1))),
    Rung("k0n8", "congruence", ((2, 0, 0),) * 4),
    Rung("ax1n9", "congruence", ((2, 0, 0),) * 3 + ((3, 0, 1),)),
    Rung("k1n11", "congruence", ((2, 0, 0),) * 4 + ((3, 1, 0),)),
    Rung("k0n12", "congruence", ((2, 0, 0),) * 6),
    Rung("k0n16", "congruence", ((2, 0, 0),) * 8),
    Rung("k0n20", "congruence", ((2, 0, 0),) * 10),
    Rung("k0n26", "congruence", ((2, 0, 0),) * 13),
    # generic-large: kappa = n, p 4..13, n 12..39
    Rung("g12", "congruence", ((3, G, 0),) * 4),
    Rung("g16", "congruence", ((4, G, 0),) * 4),
    Rung("g20", "congruence", ((4, G, 0),) * 5),
    Rung("g30", "congruence", ((3, G, 0),) * 10),
    Rung("g39", "congruence", ((3, G, 0),) * 13),
]
RUNG = {r.name: r for r in RUNGS}


# ------------------------------------------------- complex scalar blocks

def random_unitary(rng: np.random.Generator, p: int) -> np.ndarray:
    Z = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _random_stable_roots(rng, k, re=(-1.8, -0.25), im=(-1.0, 1.0)):
    return [complex(rng.uniform(*re), rng.uniform(*im)) for _ in range(k)]


def _axis_sup(p1, q) -> float:
    ws = np.linspace(-60, 60, 2401)
    return max(abs(npp.polyval(1j * w, p1) / npp.polyval(1j * w, q)) for w in ws)


def random_scalar_fraction(rng, n, kappa=None, n_axis=0, gain=(0.3, 0.85)):
    """Coefficients (p1, q) of a scalar Schur fraction of degree n,
    strictly contractive at infinity; with kappa given, mu = q q* - p1 p1*
    has kappa simple off-axis root pairs, n_axis double axis roots and
    double pairs for the rest; with kappa None mu has simple roots."""
    if kappa is None:
        q = npp.polyfromroots(_random_stable_roots(rng, n)).astype(complex)
        p1 = npp.polyfromroots(
            [complex(rng.uniform(-0.5, 1.0), rng.uniform(-1.0, 1.0))
             for _ in range(n)]).astype(complex)
        p1 = p1 * (rng.uniform(*gain) / _axis_sup(p1, q))
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
        ax = np.array([-1j * w0, 1.0], dtype=complex)
        mu0 = npp.polymul(mu0, -npp.polymul(ax, ax))

    def jitter(z):
        d = complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35))
        return complex(min(z.real + d.real, -0.15), z.imag + d.imag)
    q_roots = [jitter(z) for z in r1_roots for _ in range(2)]
    q_roots += [jitter(z) for z in r2_roots]
    q_roots += [jitter(complex(-0.4, w0)) for w0 in axis_ws]
    q = npp.polyfromroots(q_roots).astype(complex)
    p1 = _spectral_numerator(rng, q, mu0, gain)
    return poly_trim(p1), poly_trim(q)


def _spectral_numerator(rng, q, mu0, gain):
    """p1 with p1 p1* = q q* - eps mu0, eps a random share of the
    largest value keeping the difference nonnegative on the axis."""
    qqs = npp.polymul(q, poly_para(q))
    ws = np.linspace(-60, 60, 2401)
    vq = np.array([npp.polyval(1j * w, qqs).real for w in ws])
    vm = np.array([npp.polyval(1j * w, mu0).real for w in ws])
    eps = rng.uniform(*gain) * float(np.min(vq / np.maximum(vm, 1e-290)))
    return spectral_factor_poly(poly_trim(npp.polysub(qqs, eps * mu0)))


# ---------------------------------------------------- real scalar blocks

def _real_stable_roots(rng, k, re=(-1.8, -0.25), im=(0.2, 1.0)):
    """k conjugate-symmetric roots: pairs re +- i im, one real if k is odd."""
    roots = []
    for _ in range(k // 2):
        z = complex(rng.uniform(*re), rng.uniform(*im))
        roots += [z, z.conjugate()]
    if k % 2:
        roots.append(complex(rng.uniform(*re), 0.0))
    return roots


def random_real_fraction(rng, n, kappa=None, gain=(0.3, 0.85)):
    """Real-coefficient (p1, q) of degree n: generic (kappa None) or,
    for n = 2 and kappa = 0, mu = eps (r1 r1*)^2 with a real root."""
    if kappa is None:
        q = npp.polyfromroots(_real_stable_roots(rng, n)).real
        p1 = npp.polyfromroots(_real_stable_roots(rng, n, re=(-0.5, 1.0))).real
        p1 = p1 * (rng.uniform(*gain) / _axis_sup(p1, q))
        return poly_trim(p1).real, poly_trim(q).real
    if (n, kappa) != (2, 0):
        raise ValueError("real structured blocks are (2, 0, 0) only")
    a = rng.uniform(-1.8, -0.25)
    r1 = np.array([-a, 1.0])
    mu0 = npp.polymul(npp.polymul(r1, poly_para(r1)), npp.polymul(r1, poly_para(r1)))
    q = npp.polyfromroots([min(a + rng.uniform(-0.35, 0.35), -0.15)
                           for _ in range(2)])
    p1 = _spectral_numerator(rng, q.astype(complex), mu0, gain)
    if np.max(np.abs(p1.imag)) > 1e-12 * np.max(np.abs(p1)):
        return None
    return poly_trim(p1).real, q.real


def random_orthogonal(rng, p: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.normal(size=(p, p)))
    return Q * np.sign(np.diag(R))


# ------------------------------------------------------------- instances

def assemble_congruence(scalars: list[Realization], U: np.ndarray) -> Realization:
    """Symmetric realization of U^T diag(s_1, ..., s_p) U."""
    A = sla.block_diag(*[r.a for r in scalars])
    B = sla.block_diag(*[r.b for r in scalars]) @ U
    C = U.T @ sla.block_diag(*[r.c for r in scalars])
    D = U.T @ sla.block_diag(*[r.d for r in scalars]) @ U
    return Realization(A, B, C, D)


def well_conditioned(R: Realization, n0: int | None = None, cap: float = 2e3) -> bool:
    """Accept an instance only if its extremal Riccati lattice is tame in
    symmetric coordinates: moderate solution norms, tiny residuals, and a
    clean spectral gap in P_max - P_min so its kernel dimension (= n0) is
    decidable."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pmin, pmax = solve_extremal(build_hat(symmetrize(R)))
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


def expected_kappa_n0(rung: Rung) -> tuple[int, int]:
    """(kappa, n0) prescribed by the rung's blocks."""
    if rung.kind == "worked":
        return 0, 0
    kappa = sum(n if k is G else k for n, k, _ in rung.parts)
    return kappa, sum(ax for _, _, ax in rung.parts)


def draw(rng, rung: Rung):
    """One candidate (realization, fractions) for the rung, or None."""
    if rung.kind == "worked":
        zeta = rung.parts[0]
        T = random_orthogonal(rng, 2)
        return Realization(T @ (-zeta * np.eye(2)) @ T.T, T, T.T, np.zeros((2, 2))), []
    real = rung.kind == "real"
    blocks, fracs = [], []
    for n_i, k_i, ax_i in rung.parts:
        if real:
            pq = random_real_fraction(rng, n_i, k_i)
            if pq is None:
                return None
            r = siso_realization(*pq)
        else:
            pq = random_scalar_fraction(rng, n_i, kappa=k_i, n_axis=ax_i)
            r, _ = minimal_realization(siso_realization(*pq))
        if r.n != n_i:
            return None
        blocks.append(r)
        fracs.append(pq)
    if rung.kind == "scalar":
        return blocks[0], fracs
    U = random_orthogonal(rng, len(blocks)) if real else random_unitary(rng, len(blocks))
    return assemble_congruence(blocks, U), fracs


def counts(scale: float) -> dict[str, int]:
    """Instances per rung: its uses per round times the rounds its
    workload holds, plus one reserved for the warm-up op."""
    out: dict[str, int] = {}
    for workload, slots in ROUNDS.items():
        rounds = max(1, round(CAPACITY[workload] * scale))
        for _, r in slots:
            out[r] = out.get(r, 0) + rounds
    for warm in WARMUP.values():
        for _, r in warm:
            out.setdefault(r, 0)
    return {r: c + 1 for r, c in out.items()}


def draw_rung(seed: int, rung: Rung, count: int, max_tries: int = 2000):
    """count accepted instances; the rung's own stream is seeded by
    (seed, name), so adding a rung moves no other."""
    rng = np.random.default_rng([seed, zlib.crc32(rung.name.encode())])
    _, n0 = expected_kappa_n0(rung)
    got, tries = [], 0
    while len(got) < count:
        tries += 1
        if tries > max_tries:
            raise RuntimeError(f"rung {rung.name}: only {len(got)} of "
                               f"{count} accepted in {max_tries} draws")
        try:
            cand = draw(rng, rung)
        except Exception:
            continue
        if cand is not None and (rung.kind == "worked"
                                 or well_conditioned(cand[0], n0)):
            got.append(cand)
    return got, tries


def pack(rung: Rung, got) -> dict[str, np.ndarray]:
    """Stack a rung's instances (equal shapes) into arrays."""
    out = {f"{rung.name}.{k}": np.stack([getattr(R, k) for R, _ in got])
           for k in "abcd"}
    if rung.kind == "scalar":
        m = rung.parts[0][0] + 1
        for j, key in enumerate(("p1", "q")):
            arr = np.zeros((len(got), m), dtype=complex)
            for i, (_, fr) in enumerate(got):
                arr[i, : fr[0][j].size] = fr[0][j]
            out[f"{rung.name}.{key}"] = arr
    return out


def generate(seed: int, scale: float) -> dict[str, np.ndarray]:
    arrays, manifest = {}, {"seed": seed, "rungs": {}}
    for name, count in sorted(counts(scale).items()):
        rung = RUNG[name]
        t0 = time.perf_counter()
        got, tries = draw_rung(seed, rung, count)
        arrays.update(pack(rung, got))
        kappa, n0 = expected_kappa_n0(rung)
        R = got[0][0]
        manifest["rungs"][name] = {
            "kind": rung.kind, "p": R.outputs, "n": R.n, "kappa": kappa,
            "n0": n0, "count": count, "draws": tries,
            "zeta": rung.parts[0] if rung.kind == "worked" else None}
        print(f"{name:10s} p={R.outputs:2d} n={R.n:2d} kappa={kappa:2d} n0={n0} "
              f"accepted {count}/{tries} in {time.perf_counter() - t0:.1f} s",
              file=sys.stderr, flush=True)
    arrays["manifest"] = np.array(json.dumps(manifest))
    return arrays


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="output .npz path")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="share of CAPACITY to draw (0.5 for a hold-out pool)")
    args = ap.parse_args(argv)
    np.savez_compressed(args.out, **generate(args.seed, args.scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
