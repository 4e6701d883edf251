"""From conformal maps to Lorentz transforms.

Encodes Minkowski vectors as Hermitian 2x2 matrices, lifts an
orientation-preserving ConformalMap (its determinant-one matrix) to the
proper orthochronous Lorentz group, and verifies the light-cone identity
(1, tau(w)) = sqrt(J(w)) * L @ (1, w) that underpins the conformal invariance
of the sharp functional.
"""

import numpy as np

from onofri import (
    dilation,
    hermitian_of,
    homomorphism_check,
    lightcone_residual,
    lorentz_lift,
    translation,
)
from onofri.lorentz import ETA

print("== Minkowski vectors as Hermitian matrices ==")
v = np.array([2.0, 1.0, 0.0, 0.0])
H = hermitian_of(v)
print("H(2,1,0,0) =", H.tolist())
print("det H =", np.linalg.det(H).real, " equals the quadratic form", v @ ETA @ v)

print()
print("== lifting a dilation gives a boost along q3 ==")
L = lorentz_lift(dilation(2.0))
print(np.round(L, 12))
print("lightlike eigenvectors: L(1,0,0,1) =", L @ [1, 0, 0, 1], " L(1,0,0,-1) =", L @ [1, 0, 0, -1])
print("metric preservation max|L^T eta L - eta| =", np.max(np.abs(L.T @ ETA @ L - ETA)))

print()
print("== the lift is a homomorphism ==")
a = dilation(3.0)
b = translation(0.5 + 0.25j)
print("max|lift(a o b) - lift(a) lift(b)| =", homomorphism_check(a, b))

print()
print("== the light-cone identity ==")
tau = b.compose(a)
rng = np.random.default_rng(2)
pts = rng.standard_normal((100, 3))
pts /= np.linalg.norm(pts, axis=1, keepdims=True)
res = lightcone_residual(tau, pts)
print("max residual of (1, tau(w)) - sqrt(J) L (1, w) over 100 points:", np.max(res))
print("(the identity ties the conformal group to the Lorentz group, which is")
print(" exactly why the Lorentzian quantity in the functional is invariant)")
