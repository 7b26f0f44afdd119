"""Boundary attractors: orbit densities, the witness gap, and verdicts.

With the attracting point on the circle the operator is never uniformly
mean ergodic: a power of g(z) = (z + z0)/2 separates the means from their
would-be limit by at least 1/2 at every n.  Plain mean ergodicity survives
exactly when every boundary orbit spends almost all of its time near the
attractor; the parabolic automorphism does, the hyperbolic one has a
repelling fixed point whose orbit never moves.
"""

import numpy as np

import disc_ergodics as de

parab = de.gallery_symbol("parab")
hyper = de.gallery_symbol("hyperbolic")

print("certified witness gap |g(z0)^k - mean of g^k along the orbit of 0| >= 1/2:")
for name, s in (("parab", parab), ("hyperbolic", hyper), ("tangent", de.gallery_symbol("tangent"))):
    for n in (3, 10, 100, 1000):
        w = de.boundary_gap_witness(s, 1.0, n)
        print(f"  {name:10s} n={n:4d}: gap >= {w.gap:.6f}  (power k = 2^{w.k_log2})")
print()

print("orbit visit densities near z0 = 1 (radius 0.1, N = 20000):")
seeds = np.exp(2j * np.pi * np.arange(8) / 8)
seeds = seeds[np.abs(seeds - 1.0) > 1e-9]
for name, s in (("parab", parab), ("hyperbolic", hyper)):
    sweep = de.density_sweep(s, seeds, 1.0, [0.1], 20000)
    lows = sorted(d.estimate for d in sweep)
    print(f"  {name:10s} min density {lows[0]:.5f}, max {lows[-1]:.5f}")
frozen = de.orbit_density(hyper, -1.0, 1.0, 0.1, 20000)
print(f"  hyperbolic, exactly at the repelling point -1: density {frozen.estimate:.1f}")
print("  (any rounding off -1 escapes the repeller, so the exact seed matters)")
print()

print("equidistribution check for an aperiodic rotation orbit on the circle:")
orbit = de.iterate(de.gallery_symbol("rot_golden"), 1.0, 10**4)
weyl = de.weyl_test(orbit, 5)
print(f"  max_j |mean of (orbit)^j| = {weyl.max_abs_mean:.2e}  (tends to 0)")
print()

print("verdicts on the disc algebra:")
for name in ("parab", "hyperbolic", "tangent"):
    v = de.verdict(de.gallery_symbol(name), "A")
    print(f"  {name:10s} mean_ergodic={v.mean_ergodic:4s}"
          f" uniformly={v.uniformly_mean_ergodic:4s} via {v.theorem_tag}")
