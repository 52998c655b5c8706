"""The scalar story: everything is visible in one polynomial.

For S = p1/q the deficiency polynomial mu = q q* - p1 p1* carries the
whole obstruction: splitting off its even-multiplicity part as
mu = c (r1 r1*)^2 r2 r2* leaves kappa = deg of the off-axis part of r2,
and the minimal symmetric inner extension has degree deg q + kappa with
completely explicit entries.  This pipeline is independent of the
state-space route and doubles as its oracle.
"""
import numpy as np
import numpy.polynomial.polynomial as npp

from darlington import (
    freqresp,
    minimal_realization,
    minimize_symmetric,
    scalar_minimal_extension,
    spectral_factor_poly,
)
from darlington.scalar import siso_realization


def show(p1, q, label):
    ext, fac, sym, inner = scalar_minimal_extension(p1, q)
    print(f"--- {label}")
    print("  mu coefficients:", np.round(fac.mu.real, 6))
    print("  r1:", np.round(fac.r1.real, 6), "| r2:", np.round(fac.r2.real, 6),
          "| constant:", round(fac.constant, 6), "| kappa:", fac.kappa)
    print("  extension degree:", ext.n, "| lossless certificate:", f"{inner:.2e}",
          "| symmetry:", f"{sym:.2e}")
    # cross-check against the full state-space machinery; a function with
    # |S(inf)| = 1 is moved by the change of variable s -> i w0 + 1/s, at
    # the grid point w0 where |S(iw)| is smallest (None: no move)
    R, _ = minimal_realization(siso_realization(p1, q))
    res = minimize_symmetric(R)
    print("  state-space pipeline: degree", res.degree, "| kappa", res.kappa,
          "| n0", res.n0, "| w0", res.trace[0]["omega0"])
    return ext


# 1. S = (1/2)/(s+1): mu = 3/4 - s^2 has two simple real roots, so one
#    of them is an odd right-half-plane root and kappa = 1
ext = show([0.5], [1.0, 1.0], "S = 0.5/(s+1)")
s = 1j * 0.3
V = freqresp(ext, [s])[0]
print("  S22 =", np.round(V[1, 1], 6), "vs p1/q =",
      np.round(0.5 / (s + 1), 6))

# 2. S = 0.6 ((s-1)/(s+1))^2: mu = 0.64 (1-s^2)^2 is a perfect square,
#    kappa = 0, and the extension preserves the degree
show(0.6 * np.array([1.0, -2.0, 1.0]), [1.0, 2.0, 1.0],
     "S = 0.6 ((s-1)/(s+1))^2")

# 3. an imaginary-axis zero of mu: S touches modulus one at w = 0 (and
#    at infinity, so the state-space route moves a point of strict
#    contractivity there); axis roots never raise the degree
show([1.0, 1.0, 1.0], [1.0, 2.0, 1.0], "S = (s^2+s+1)/(s+1)^2")

# polynomial spectral factorization on its own
m = npp.polymul([1.0, 0.0, -1.0], [0.75, 0.0, -1.0])  # (1-s^2)(3/4-s^2)
p2 = spectral_factor_poly(m)
print("\nspectral factor of (1-s^2)(3/4-s^2):", np.round(p2.real, 6))
print("p2 p2* - m:", np.round(npp.polysub(
    npp.polymul(p2, np.array([np.conj(c) * (-1) ** k
                              for k, c in enumerate(p2)])), m).real, 12))
