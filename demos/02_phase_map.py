"""The phase map u(phi) and the real-branch functions s, c, d.

u(phi) integrates F(1/3, 2/3; 1/2; k^2 sin^2 theta); inverting it gives
phi(u) and the analogues of the Jacobi functions:

    s = sin phi(u),  c = cos phi(u),  d = phi'(u).

The trio satisfies s^2 + c^2 = 1, the cubic relation
d^3 + 3 d^2 = 4 (1 - k^2 s^2) and a first-order ODE for d.
"""

import numpy as np

from shenell import derivative_residuals, phi_of_u, scd_real, u_max, u_of_phi

k = 0.5
print(f"modulus k = {k}; principal branch reaches u_max = {u_max(k):.12f}")
print()

print("the phase map and its inverse round-trip:")
for phi in (0.1, 0.5, 1.0, 1.4):
    u = u_of_phi(k, phi)
    back = phi_of_u(k, u)
    print(f"  phi={phi:5.2f} -> u={u:.12f} -> phi={back:.12f}  (gap {abs(back - phi):.1e})")
print()

# an array goes through each map in one call: all the integrals u(phi)
# refine their panels together, and phi(u) is one pass of the wp kernel
phis = np.linspace(-np.pi / 2, np.pi / 2, 9)
us = u_of_phi(k, phis)
back = phi_of_u(k, us)
print("the same round trip on an array of 9 angles, one call each way:")
print(f"  u(phi) = {np.array2string(us, precision=6)}")
print(f"  largest gap |phi(u(phi)) - phi| = {np.max(np.abs(back - phis)):.1e}")
print()

print(f"{'u':>6} {'s':>20} {'c':>20} {'d':>20} {'cubic relation':>14}")
for u in np.linspace(-1.2, 1.2, 7):
    s, c, d = scd_real(k, float(u))
    cubic = d ** 3 + 3 * d ** 2 - 4 * (1 - k * k * s * s)
    print(f"{u:6.2f} {s:20.15f} {c:20.15f} {d:20.15f} {cubic:14.1e}")
print()

print("derivative formulas s' = c d, c' = -s d, d' = -(8/3) k^2 s c/(2+d),")
print("checked by central differences (h = 1e-5):")
for u in (0.0, 0.3, 0.8):
    rs, rc, rd = derivative_residuals(k, u)
    print(f"  u={u:4.1f}: residuals ({rs:.1e}, {rc:.1e}, {rd:.1e})")
