"""Inner (lossless) extensions of a Schur function, step by step.

We embed S(s) = diag(f, f) with f(s) = 1/(s+2) into a 4x4 inner
function.  Every Hermitian solution of an algebraic Riccati equation
gives one extension with the same McMillan degree; the minimal and
maximal solutions bracket them all, and the quotient of two left
spectral factors is a unitary function whose degree is the rank of the
solution gap.
"""
import numpy as np

from darlington import (
    Realization,
    build_extension,
    build_hat,
    compare_extensions,
    freqresp,
    riccati_residual,
    solve_extremal,
)
from darlington.riccati import build_hamiltonian

# S = diag(f, f), f = 1/(s+2): a symmetric Schur function, strictly
# contractive at infinity (D = 0)
S = Realization(-2.0 * np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
print("S at i:", np.round(freqresp(S, [1j])[0], 4))

# shifted data and the Hamiltonian whose spectrum rules everything
hat = build_hat(S)
H = build_hamiltonian(hat)
J = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(len(H) // 2))
print("\nHamiltonian eigenvalues:", np.round(np.linalg.eigvals(H), 6))
print("structure residual |H* J + J H| =", np.linalg.norm(H.conj().T @ J + J @ H, 2))

# the two extremal Hermitian solutions of
#   P CsC P + A_hat P + P A_hat* + BBs = 0
pmin, pmax = solve_extremal(hat)
print("\nP_min =\n", np.round(pmin.p, 6))
print("P_max =\n", np.round(pmax.p, 6))
print("residuals:", pmin.residual_norm, pmax.residual_norm)
print("check: (2 - sqrt(3)) =", 2 - np.sqrt(3))

# each solution yields a 4x4 inner extension with S in the lower-right
E = build_extension(S, pmin)
print("\nextension value at infinity:\n", np.round(E.realization.d, 3))
print("lossless certificate on P:", E.certificate)
w = 0.7
V = freqresp(E.realization, [1j * w])[0]
print(f"|S_P(i{w}) S_P(i{w})* - I| =",
      np.linalg.norm(V @ V.conj().T - np.eye(4), 2))

# the lower-left block of the minimal extension is the OUTER spectral
# factor of I - S S*: stable with a stable inverse
print("\nzeros of S21 (eigenvalues of the closed loop):",
      np.round(np.linalg.eigvals(pmin.z), 6))

# two extensions of the same S differ by a unitary factor
# Q = S21^{-1} S21~, of degree rank(P~ - P), inner iff P~ >= P
E2 = build_extension(S, pmax)
Q = compare_extensions(E, E2)
print("\nQ = S21(min)^{-1} S21(max): degree", Q.degree,
      "| inner:", Q.inner_flag,
      "| rank(Pmax - Pmin):", np.linalg.matrix_rank(pmax.p - pmin.p))
Qr = compare_extensions(E2, E)
print("reversed quotient: degree", Qr.degree, "| inner:", Qr.inner_flag)

# a user-supplied Hermitian solution is validated through the residual:
# the paper-worthy complex solution with P P^T = I
P = np.array([[2.0, 1j * np.sqrt(3)], [-1j * np.sqrt(3), 2.0]])
print("\ncomplex involutive solution: residual =", riccati_residual(hat, P),
      "| P P^T = I:", np.allclose(P @ P.T, np.eye(2)))
Ec = build_extension(S, P)
V = freqresp(Ec.realization, [1j])[0]
print("its extension is already symmetric:", np.linalg.norm(V - V.T, 2))
