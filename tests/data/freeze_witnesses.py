"""Write tests/data/witnesses.npz, inputs on which minimize_symmetric
once returned a certified extension above the minimal degree n + kappa.

- ``split-1``: ``minimal_realization(siso_realization(p1, q))`` of the
  scalar fraction ``split/*/1`` of suite.npz (n = 4, kappa = 0);
- ``c4x2-s84``, ``c4x2-s97``, ``c4x3-s81``, ``c4x3-s84``, ``c4x3-s97``:
  freeze_contract.py's unfiltered ``generate`` of two and three n = 4,
  kappa = 0 congruence blocks at those seeds, whose Hamiltonian has a
  double root that rounding splits into two odd roots;
- ``s310-s8-cond100``: ``("scalar", 3, 1, 0)`` seed 8 under a cond-100
  similarity (A, B, C) -> (S A S^-1, S B, C S^-1),
  S = U diag(logspace(0, 2, n)) V with U and V the Q factors of complex
  Gaussian matrices.  One default_rng(7) draws U and V for the 190
  contract draws in order (the SPECS at seeds 0-9, then
  ``[(4, 0, 0)] * 2`` and ``("scalar", 6, 0, 2)`` at seeds 0-59), first
  at cond 1 and then at cond 100, so this S depends on that order;
- ``s602-s6-bal``, ``c6x2-s27-bal``: the frozen contract draws of
  ``("scalar", 6, 0, 2)`` seed 6 and two n = 6, kappa = 0 congruence
  blocks seed 27 (tests/test_contract.py's ``draw``), square-root balanced
  (Gramians by scipy's Lyapunov solver, factors U sqrt(max(w, 0)) from
  eigh, and the SVD of Lo* Lc), which moves S by at most 4.4e-15.

Each entry holds A, B, C, D and the minimal degree n + kappa.

    PYTHONPATH=src python tests/data/freeze_witnesses.py
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import scipy.linalg as sla

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from conftest import SUITE_FILE  # noqa: E402
from darlington import minimal_realization  # noqa: E402
from darlington.scalar import siso_realization  # noqa: E402
from freeze_contract import generate  # noqa: E402
from test_contract import CONTRACT_DRAWS, draw, similar  # noqa: E402

FILE = Path(__file__).parent / "witnesses.npz"
PAIR, TRIPLE = ("congruence", [(4, 0, 0)] * 2), ("congruence", [(4, 0, 0)] * 3)


def _factor(W):
    w, U = np.linalg.eigh((W + W.conj().T) / 2)
    return U * np.sqrt(np.maximum(w, 0.0))


def balanced(R) -> tuple:
    Lc = _factor(sla.solve_continuous_lyapunov(R.a, -R.b @ R.b.conj().T))
    Lo = _factor(sla.solve_continuous_lyapunov(R.a.conj().T, -R.c.conj().T @ R.c))
    U, s, Vh = np.linalg.svd(Lo.conj().T @ Lc)
    T = Lc @ Vh.conj().T / np.sqrt(s)
    Ti = U.conj().T @ Lo.conj().T / np.sqrt(s)[:, np.newaxis]
    return Ti @ R.a @ T, Ti @ R.b, R.c @ T, R.d


def main() -> None:
    out: dict = {}

    def put(name: str, abcd, degree: int) -> None:
        out.update({f"{name}/{k}": M for k, M in zip("abcd", abcd)})
        out[f"{name}/degree"] = np.array(degree)

    with np.load(SUITE_FILE) as z:
        R = minimal_realization(siso_realization(z["split/p1/1"], z["split/q/1"]))[0]
    put("split-1", (R.a, R.b, R.c, R.d), R.n)  # kappa = 0
    for name, spec, seed in [("c4x2-s84", PAIR, 84), ("c4x2-s97", PAIR, 97),
                             ("c4x3-s81", TRIPLE, 81), ("c4x3-s84", TRIPLE, 84),
                             ("c4x3-s97", TRIPLE, 97)]:
        inst = generate(spec, seed)
        R = inst.realization
        put(name, (R.a, R.b, R.c, R.d), inst.n + inst.expected_kappa)
    for name, spec, seed in [("s602-s6-bal", ("scalar", 6, 0, 2), 6),
                             ("c6x2-s27-bal", ("congruence", [(6, 0, 0)] * 2), 27)]:
        inst = draw(spec, seed)
        put(name, balanced(inst.realization), inst.n + inst.expected_kappa)
    rng = np.random.default_rng(7)
    for cond in (1.0, 100.0):
        for spec, seed in CONTRACT_DRAWS:
            inst = draw(spec, seed)
            abcd = similar(inst.realization, cond, rng)  # every draw advances rng
            if cond == 100.0 and (spec, seed) == (("scalar", 3, 1, 0), 8):
                put("s310-s8-cond100", abcd, inst.n + inst.expected_kappa)
    np.savez_compressed(FILE, **out)
    print(f"wrote {len(out)} arrays to {FILE}")


if __name__ == "__main__":
    main()
