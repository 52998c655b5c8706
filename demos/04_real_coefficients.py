"""When does a REAL symmetric Schur function have a REAL symmetric
inner extension without raising the degree?

The extension built on a Riccati solution P is real exactly when P is
real, and symmetric exactly when P is fixed by the involution
P -> J P^{-T} J of a signature-symmetric realization.  Both at once is
strictly harder than the complex case: the family S = diag(f, f) with
f = 1/(s + zeta) admits a complex symmetric degree-2 extension for
every zeta >= 1, but a real one only at zeta = 1.
"""
import numpy as np

from darlington import (
    Realization,
    SignatureRealization,
    build_extension,
    build_hat,
    is_real_extension,
    real_symmetric_feasibility,
    solve_extremal,
)
from darlington.realization import symmetry_residual


def coupled_pair(zeta):
    return Realization(-zeta * np.eye(2), np.eye(2), np.eye(2),
                       np.zeros((2, 2)))


for zeta in (1.0, 2.0):
    S = coupled_pair(zeta)
    SR = SignatureRealization(realization=S, j=np.array([1, 1]))
    pmin, pmax = solve_extremal(build_hat(S))
    print(f"zeta = {zeta}:")
    print("  P_min diag:", np.round(np.diag(pmin.p).real, 6),
          "| P_max diag:", np.round(np.diag(pmax.p).real, 6))
    print("  extension on P_min is real:", is_real_extension(pmin, S))
    rep = real_symmetric_feasibility(SR)
    print("  real symmetric extension at degree 2:", rep.kind)
    if rep.witness is not None:
        print("  witness P =\n", np.round(rep.witness, 6))
    else:
        print("  obstruction:", rep.obstruction[:96], "...")
    print()

# at zeta = 2 the COMPLEX involutive solution still does the job:
S = coupled_pair(2.0)
P = np.array([[2.0, 1j * np.sqrt(3)], [-1j * np.sqrt(3), 2.0]])
E = build_extension(S, P)
print("complex route at zeta = 2: P P^T = I:",
      np.allclose(P @ P.T, np.eye(2)),
      "| extension symmetric:", symmetry_residual(E.realization) < 1e-9,
      "| extension real:", is_real_extension(P, S))
