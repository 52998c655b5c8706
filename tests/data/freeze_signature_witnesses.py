"""Write tests/data/signature_witnesses.npz, real SISO realizations that
decide where the signature form certifies and where it refuses.

Both are draws of one seeded probe: ``default_rng(0)`` draws, per trial,
the order n in 2..8, a real stable denominator (``pairs`` complex pole
pairs -U(0.1, 2) +- i U(0.2, 3), the other poles -U(0.2, 3)), a
numerator of n + 1 standard normal coefficients, a condition number
c = 10^U(0, 5), and the Q factors Q1, Q2 of two n x n standard normal
matrices.  The draw is ``siso_realization`` of that fraction under the
real similarity S = Q1 diag(logspace(0, log10 c, n)) Q2, that is
(S A S^-1, S B, C S^-1, D).

- ``p251``: trial 251 (n = 8, c = 1.13).  The 1e-10 signature-structure
  test that once decided the signature form refused it; the shared
  symmetric-form path certifies it exactly J-symmetric.
- ``p2563``: trial 2563 (n = 3, c = 1.8e4).  Its transformed realization
  passes the 1e-9 structural check, but its projection misses C by a
  similarity residual of 1.6e-8 (1.6e-8 to 1.8e-8 under five OpenBLAS
  kernels), so the 1e-8 similarity gate refuses it.  No draw among the
  first 400 reaches that gate; this is the first that does.

Each entry holds A, B, C and D.

    PYTHONPATH=src python tests/data/freeze_signature_witnesses.py
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from darlington.scalar import siso_realization

FILE = Path(__file__).parent / "signature_witnesses.npz"
TRIALS = {251: "p251", 2563: "p2563"}


def draw(rng) -> tuple:
    n = int(rng.integers(2, 9))
    pairs = int(rng.integers(0, n // 2 + 1))
    roots = np.concatenate([-rng.uniform(0.1, 2.0, pairs) + 1j * rng.uniform(0.2, 3.0, pairs),
                            -rng.uniform(0.2, 3.0, n - 2 * pairs)])
    den = np.poly(np.concatenate([roots, roots[:pairs].conj()])).real[::-1]
    num = rng.standard_normal(n + 1)
    c = 10 ** rng.uniform(0, 5)
    Q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    S = Q1 @ np.diag(np.logspace(0, np.log10(c), n)) @ Q2
    R = siso_realization(num, den)
    A, B, C, D = (M.real for M in (R.a, R.b, R.c, R.d))
    Si = np.linalg.inv(S)
    return S @ A @ Si, S @ B, C @ Si, D


def main() -> None:
    rng = np.random.default_rng(0)
    out: dict = {}
    for trial in range(max(TRIALS) + 1):
        abcd = draw(rng)  # every trial advances rng
        if trial in TRIALS:
            out.update({f"{TRIALS[trial]}/{k}": M for k, M in zip("abcd", abcd)})
    np.savez_compressed(FILE, **out)
    print(f"wrote {len(out)} arrays to {FILE}")


if __name__ == "__main__":
    main()
