"""The Weierstrass wp behind the family: invariants, lattice, evaluation.

For each modulus k the invariants are explicit rationals in k^2, the
discriminant is positive, and the lattice is rectangular. wp is
evaluated as a quotient of Jacobi theta functions, so the duplication
formula at the end is an independent check.
"""

import numpy as np

from shenell import ShenContext, duplication_check, wp, wp_prime

for k in (0.1, 0.5, 0.9):
    ctx = ShenContext.from_modulus(k)  # the invariants, lattice and Q roots of k
    inv, lat = ctx.inv, ctx.lat
    print(f"k = {k}:")
    print(f"  g2 = {inv.g2:.16f}   g3 = {inv.g3:.16f}")
    print(f"  delta = {inv.delta:.6e} (= g2^3 - 27 g3^2 > 0: rectangular lattice)")
    print(f"  half-periods  K = {lat.K:.12f}   K' = {lat.K_prime:.12f}")
    print(f"  roots  e1 = {lat.e1:.12f}  e2 = {lat.e2:.12f}  e3 = {lat.e3:.12f}")
    print(f"  wp(K) - e1   = {abs(wp(ctx, lat.K) - lat.e1):.1e}"
          f"   wp(iK') - e3 = {abs(wp(ctx, 1j * lat.K_prime) - lat.e3):.1e}")
    print(f"  wp'(K)       = {abs(wp_prime(ctx, lat.K)):.1e}"
          f"   (vanishes at half-periods)")
    print()

ctx = ShenContext.from_modulus(0.5)
lat = ctx.lat

print("wp decreases strictly from +inf to -inf around the boundary rectangle")
print("0 -> K -> K + iK' -> iK' -> 0 (a few stations):")
stations = [0.05 * lat.K, 0.6 * lat.K, lat.K, lat.K + 0.5j * lat.K_prime,
            lat.K + 1j * lat.K_prime, 0.4 * lat.K + 1j * lat.K_prime,
            1j * lat.K_prime, 0.3j * lat.K_prime, 0.08j * lat.K_prime]
for z in stations:
    value = wp(ctx, z)
    print(f"  wp({z.real:7.4f} + {z.imag:7.4f} i) = {value.real:14.6f}"
          f"   (im part {abs(value.imag):.1e})")
print()

print("the duplication formula wp(2a) + 2 wp(a) = (1/4)(wp''/wp')^2(a):")
rng = np.random.default_rng(1)
for _ in range(3):
    a = complex(rng.uniform(0.2, 0.8) * lat.K, rng.uniform(0.2, 0.8) * lat.K_prime)
    print(f"  a = {a:.4f}: residual {duplication_check(ctx, a):.2e}")
