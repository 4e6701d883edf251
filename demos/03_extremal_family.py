"""The extremal family of the sharp functional.

Builds psi = (3/4) ln J + c for several conformal maps and checks the mass
and center of mass of build_extremal (closed forms read off the map's Cartan
split) against the generator formulas and the J^(3/2) quadrature.  Then the
normalizer identity exp(4c) = 1 - |a|^2, the pointwise sqrt-J relation, the
Euler-Lagrange equation, and the defining property I(psi) = 0 at the
critical coupling 2/3, on psi's band-limited coefficients, which psi_field
reads from their Funk-Hecke closed form with an exact tail, sampling no grid.
Ends with the blow-down curve showing the functional is unbounded below for
alpha < 2/3.
"""

import math

import numpy as np

from onofri import (
    build_extremal,
    build_grid,
    center_of_mass,
    chang_gui_value,
    conformal_mass,
    dilation,
    euler_lagrange_residual,
    generator_com,
    generator_mass,
    psi_field,
    sqrt_jacobian_residual,
    translation_to,
)

grid = build_grid(72)


def vec(v):
    return "(" + ", ".join(f"{x + 0.0:+.12f}" for x in v) + ")"


print("== mass and center of mass: build_extremal vs generator formulas vs quadrature ==")
for lam in (0.5, 2.0, 4.0):
    tau = dilation(lam)
    e = build_extremal(tau)
    print(
        f"dilation({lam}): mass {e.mass:.12f} (generator {generator_mass('dilation', lam):.12f}, "
        f"quadrature {conformal_mass(tau):.12f})"
    )
    print(
        f"    com3 {e.com[2]:+.12f} (generator {generator_com('dilation', lam)[2]:+.12f}, "
        f"quadrature {center_of_mass(tau)[2]:+.12f})"
    )
p = np.array([1.0, 0.0, 0.0])
tau = translation_to(p)
e = build_extremal(tau)
print(f"translation to (1,0,0): mass {e.mass:.12f} (generator 1.5, quadrature {conformal_mass(tau):.12f})")
print(f"    com {vec(e.com)}")
print(f"    (generator {vec(generator_com('translation', p))},")
print(f"     quadrature {vec(center_of_mass(tau))})")

print()
print("== the normalizer identity and the sqrt-J relation ==")
e2 = build_extremal(dilation(2.0))
print("exp(4c) =", math.exp(4 * e2.normalizer), " vs 1-|a|^2 =", 1 - e2.com @ e2.com)
print("max nodal residual of sqrt(J) = M (1-|a|^2)/(1-a.w):",
      sqrt_jacobian_residual(e2, grid))

print()
print("== psi solves the Euler-Lagrange equation ==")
for lam in (0.5, 2.0):
    r = euler_lagrange_residual(build_extremal(dilation(lam)), 32, grid)
    print(f"dilation({lam}): sup |(2/3) Lap(psi) + (1-a.w)/(1-|a|^2) e^(2 psi) - 1| = {r:.3e}")

print()
print("== the functional vanishes on the family ==")
for lam in (0.5, 2.0, 3.0):
    proj = psi_field(build_extremal(dilation(lam)), 32)
    print(f"I_(2/3)(psi of dilation({lam})) = {chang_gui_value(2/3, proj.field):+.3e}"
          f"   (tail energy beyond band 32: {proj.tail_fraction:.1e})")

print()
print("== below the critical coupling the functional collapses ==")
print("alpha = 0.6 along the dilation curve (monotone decrease, no lower bound):")
for lam in (1.0, 2.0, 4.0, 8.0):
    proj = psi_field(build_extremal(dilation(lam)), 40)
    print(f"  lambda = {lam:4.1f}   I_0.6 = {chang_gui_value(0.6, proj.field):+.6f}")
