"""Two-sided Kobayashi distance brackets on model domains.

Lower bounds come from distance-decreasing maps with closed forms, upper
bounds from certified affine-disc chains; on discs, balls, and polydiscs the
two meet to within float margins, and the brackets always contain the known
closed-form values.
"""

import math

import numpy as np

from koblab import (
    estimate_distance,
    infinitesimal_bounds,
    slice_identity_check,
    unit_ball,
    unit_bidisc,
    unit_disc,
)

print("== unit disc ==")
est = estimate_distance(unit_disc(), [0], [0.5])
print(f"  K(0, 0.5) in [{est.lower:.12f}, {est.upper:.12f}]")
print("  closed form:", math.atanh(0.5))

print()
print("== unit ball in C^2 ==")
est = estimate_distance(unit_ball(2), [0, 0], [0.9, 0])
print(f"  K(0, (0.9, 0)) in [{est.lower:.12f}, {est.upper:.12f}]")
print("  closed form:", math.atanh(0.9))

print()
print("== bidisc, generic pair ==")
z, w = np.array([0.5 + 0.2j, -0.3j]), np.array([-0.4, 0.6 + 0.1j])
est = estimate_distance(unit_bidisc(), z, w)
truth = max(
    math.atanh(abs(z[j] - w[j]) / abs(1 - np.conj(w[j]) * z[j])) for j in range(2)
)
print(f"  bracket [{est.lower:.12f}, {est.upper:.12f}], product formula {truth:.12f}")
print("  upper certificate kind:",
      "chain" if est.chain is not None else est.upper_certificate["kind"])

print()
print("== infinitesimal metric ==")
for name, domain in (("disc", unit_disc()), ("ball", unit_ball(2)), ("bidisc", unit_bidisc())):
    k = infinitesimal_bounds(domain, np.zeros(domain.dim), np.eye(domain.dim)[0])
    print(f"  {name:>6}: k(0; e1) in [{k.lower:.9f}, {k.upper:.9f}]")
# a product's metric is the largest of its factors': each factor bounds its
# own block of the direction, so the bracket meets the product formula
z, v = np.array([0.5 + 0.2j, -0.3j]), np.array([0.4 - 0.1j, 0.9j])
k = infinitesimal_bounds(unit_bidisc(), z, v)
truth = max(abs(v[j]) / (1 - abs(z[j]) ** 2) for j in range(2))
print(f"  bidisc, generic point: [{k.lower:.9f}, {k.upper:.9f}], product formula {truth:.9f}")

print()
print("== slice identity: distances through the zero fiber ==")
rep = slice_identity_check(unit_disc(), unit_bidisc(), [0.1], [0.62])
lo, hi = rep.intersection
print(f"  base bracket  [{rep.base_estimate.lower:.12f}, {rep.base_estimate.upper:.12f}]")
print(f"  total bracket [{rep.total_estimate.lower:.12f}, {rep.total_estimate.upper:.12f}]")
print(f"  intersection  [{lo:.12f}, {hi:.12f}]  passed: {rep.passed}")
