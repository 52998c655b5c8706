"""Minimal-degree symmetric inner extension, end to end.

A symmetric Schur function of degree n always admits a symmetric inner
2p x 2p extension of degree n + kappa, where kappa counts the distinct
right-half-plane eigenvalues of the Hamiltonian with odd multiplicity,
and no symmetric extension can do better.  The pipeline solves the
Riccati equation once, for the Hermitian solution P with
rank(P^-T - P) = kappa, and builds the symmetric extension on it, which
then has degree n + kappa: no Blaschke factor is divided out.
"""
import numpy as np

from darlington import Realization, freqresp, minimize_symmetric

# ---- the coupled pair diag(f, f), f = 1/(s+2) --------------------------
S = Realization(-2.0 * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
res = minimize_symmetric(S)
print("n =", 2, "| kappa =", res.kappa, "| n0 =", res.n0)
print("degree n + kappa:", res.degree, "(Sigma on P_min would have 2n - n0 = 4)")
# kappa = 0: P is a fixed point P^-T = P of the involution on the solutions
P = res.solution.p
print("Riccati solution P:", np.round(P, 4).tolist(),
      "| ||P P^T - I|| =", f"{np.linalg.norm(P @ P.T - np.eye(2), 2):.1e}")
print("certificates: inner", res.innerness, "| symmetric", res.symmetry,
      "| S block match", res.block_match)
# one record per stage: its name, wall seconds and the values it computed
for rec in res.trace:
    print(f"  stage {rec['stage']:<20} {1e3 * rec['seconds']:7.2f} ms")

T = res.extension
print("poles of the minimal extension:", np.round(np.sort_complex(T.poles()), 5))
s = 0.4 + 0.9j
print("lower-right block reproduces S:",
      np.linalg.norm(freqresp(T, [s])[0, 2:, 2:] - freqresp(S, [s])[0], 2))

# ---- a mixed 2x2 function built from two scalar fractions --------------
# diag(f1, f2) conjugated by a constant unitary stays symmetric Schur;
# here f1 has a double-pair deficiency structure (kappa 0) and f2 is
# generic (kappa 1), so the pair needs degree n + 1
from darlington.scalar import siso_realization
from darlington.realization import direct_sum, minimal_realization

f1 = siso_realization(0.6 * np.array([1.0, -2.0, 1.0]), [1.0, 2.0, 1.0])
f2 = siso_realization([0.5], [1.0, 1.0])
diag = direct_sum(f1, f2)
theta = 0.3
U = np.array([[np.cos(theta), np.sin(theta)],
              [-np.sin(theta), np.cos(theta)]])
mixed = Realization(diag.a, diag.b @ U, U.T @ diag.c, U.T @ diag.d @ U)
mixed, _ = minimal_realization(mixed)

res2 = minimize_symmetric(mixed)
print("\nmixed instance: n =", mixed.n, "| kappa =", res2.kappa,
      "| n0 =", res2.n0)
print("degree n + kappa =", res2.degree, "| Sigma on P_min would have",
      2 * mixed.n - res2.n0)
print("certificates: inner", f"{res2.innerness:.2e}",
      "| symmetric", f"{res2.symmetry:.2e}")
