"""Conformal maps of the sphere and their Jacobians.

Walks through the stereographic chart, the action of a ConformalMap (a
determinant-one complex 2x2 matrix, read as ``tau.mat``), the closed-form
area-distortion factor, and two independent confirmations of that formula:
the chain rule under composition and the shrinking-cap area oracle.
"""

import numpy as np

from onofri import (
    build_grid,
    dilation,
    integrate,
    inversion,
    jacobian_area_oracle,
    rotation,
    stereo_inverse,
    stereo_project,
    translation,
)

south = np.array([0.0, 0.0, -1.0])

print("== the stereographic chart ==")
print("south pole -> ", stereo_project(south))
print("(1,0,0)    -> ", stereo_project([1.0, 0.0, 0.0]))
print("z = 2      -> ", stereo_inverse(2 + 0j), " (back on the sphere)")

print()
print("== group generators acting on the sphere ==")
tau = dilation(2.0)
print("dilation(2) fixes the poles:", tau.apply(south))
print("dilation(2) moves (1,0,0) to", tau.apply([1.0, 0.0, 0.0]))
move = translation(1 + 0j)
print("translation by beta=1 sends the south pole to", move.apply(south))
flip = rotation([1.0, 0.0, 0.0], np.pi)
print("the half-turn about x1 is the Mobius map z -> 1/z:")
print("  matrix", np.round(flip.mat, 12).tolist())

print()
print("== the closed-form Jacobian ==")
print("dilation(2) at the south pole:", tau.jacobian(south), "(= lambda^2)")
print("dilation(2) at (1,0,0):      ", tau.jacobian([1.0, 0.0, 0.0]), "(= 4*(2/5)^2)")
print("rotations and the inversion are isometries:")
w = np.array([0.48, -0.6, 0.64]) / np.linalg.norm([0.48, -0.6, 0.64])
print("  rotation J =", flip.jacobian(w), "  inversion J =", inversion().jacobian(w))

print()
print("== two independent checks ==")
rng = np.random.default_rng(1)
pts = rng.standard_normal((5, 3))
pts /= np.linalg.norm(pts, axis=1, keepdims=True)
comp = tau.compose(move)
chain = np.max(np.abs(comp.jacobian(pts) - tau.jacobian(move.apply(pts)) * move.jacobian(pts)))
print("chain rule residual over 5 random points:", chain)

grid = build_grid(64)
print("total mass of J over the sphere (must be 1):",
      integrate(grid, comp.jacobian(grid.nodes)))

print()
print("the area oracle measures sigma(tau(cap))/sigma(cap) directly;")
print("its error against the closed form decays like r^2:")
for r in (0.1, 0.05, 0.025):
    err = abs(jacobian_area_oracle(tau, south, r) - tau.jacobian(south))
    print(f"  r = {r:6.3f}   |oracle - closed form| = {err:.3e}")
