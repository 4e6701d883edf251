"""Re-centering the mass measure and the quantitative stability certificate.

For any field u there is a unique chart map z -> lambda0 z + x0 (modulo
rotations) under which the center of mass of e^{2 u_tau} vanishes; both
parameters have closed forms, cross-checked here against a root find.  The
extremal of the re-centered map bounds the distance to the extremal family
from above; the distance itself has a closed form over the ball of centers
of mass and is found by a scan and a polish, which turns the stability bound
deficit >= distance/6 into a checkable certificate.
"""

import numpy as np

from onofri import (
    build_extremal,
    build_grid,
    dilation,
    exp_moments,
    normalize,
    psi_field,
    solve_lambda0,
    solve_x0,
    stability_check,
    transform,
)
from onofri.sampling import random_field

rng = np.random.default_rng(7)
grid = build_grid(72)

print("== re-centering a random field ==")
u = random_field(rng, 6, 0.4)
mom = exp_moments(u)
print("center of mass of e^{2u} before:", np.round(mom.moment / mom.mass, 6))
res = normalize(u)
print(f"x0 = {res.x0:.6f}, lambda0 = {res.lambda0:.6f} (closed forms)")
print("achieved |COM| =", res.residual_com_norm)
lam_rf = solve_lambda0(u, solve_x0(u), method="root_find")
print("root-find cross-check of lambda0 agrees to", abs(lam_rf - res.lambda0))

print()
print("== re-centering an extremal flattens it ==")
psi = psi_field(build_extremal(dilation(2.0)), 32).field  # closed form, no grid
res = normalize(psi)
moved = transform(psi, res.tau, 32, grid, tail_threshold=None).field
c = moved.coeffs.copy()
c[0] = 0.0
l = moved.degrees()
print("lambda0 =", res.lambda0, "(undoes the dilation by 2)")
print("energy left in nonconstant modes:", float(np.sum(l * (l + 1) * c * c)))

print()
print("== the stability certificate on a small sweep ==")
print("field   deficit      distance     slack (deficit - distance/6)")
for k in range(5):
    u = random_field(rng, 6, 0.4)
    rep = stability_check(u)
    print(f"  {k}   {rep.deficit:10.6f}  {rep.distance:10.6f}  {rep.slack:+.6f}")
print("slack stays nonnegative; equality holds exactly on the extremal family:")
rep = stability_check(psi, 32, grid)
print(f"  psi  {rep.deficit:+.3e}  {rep.distance:.3e}  {rep.slack:+.3e}")
