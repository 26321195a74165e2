"""Plurisubharmonicity certificates: Levi forms by finite differences.

The complex Hessian is recovered from line Laplacians with second-order
accuracy; strong pseudoconvexity restricts it to the complex tangent space
of a level set.  The candidate suite runs a battery of grid checks against a
proposed defining function and rejects certified violations.
"""

import numpy as np

from koblab import (
    DyadicLadder,
    ScalarField,
    exp_norm_squared,
    levi_min_eigenvalue,
    norm_squared,
    pluriharmonic_re_square,
    signature_quadratic,
    strong_pseudoconvexity_check,
    verify_defining_candidate,
)

z0 = np.array([0.3 + 0.2j, -0.1 + 0.5j])

print("== Levi minimum eigenvalues ==")
for field in (norm_squared(2), signature_quadratic([1.0, -1.0]), pluriharmonic_re_square(2)):
    rep = levi_min_eigenvalue(field, z0)
    print(f"  {field.name:>20}: min eig = {rep.min_eigenvalue:+.6f}  ({rep.mode})")

print()
print("== finite differences converge at second order ==")
smooth = exp_norm_squared(2)
bare = ScalarField(2, smooth.evaluate)  # same values, no analytic suppliers
exact = levi_min_eigenvalue(smooth, z0).min_eigenvalue
for h in (2e-2, 1e-2, 5e-3):
    err = abs(levi_min_eigenvalue(bare, z0, step=h).min_eigenvalue - exact)
    print(f"  step {h:.0e}: error {err:.3e}")

print()
print("== strong pseudoconvexity on level sets ==")
print("  sphere {|z|^2 = 1} at (1, 0):",
      strong_pseudoconvexity_check(norm_squared(2), [1.0, 0.0], level=1.0))
degenerate = ScalarField(2, lambda z: abs(z[0]) ** 2)
print("  cylinder {|z1|^2 = 1} at (1, 0):",
      strong_pseudoconvexity_check(degenerate, [1.0, 0.0]), " (a Levi-null direction)")

print()
print("== defining-function candidate suite ==")
report = verify_defining_candidate(norm_squared(2), DyadicLadder(20))
for check in report.checks:
    print(f"  {check.name:>24}: value {check.value:+.6f}  "
          f"{'ok' if check.passed else 'VIOLATION'}  ({check.samples} samples)")
print("  accepted:", report.accepted, " rejected checks:", report.rejected_checks)
print()
print("(the quadratic is strictly psh with a nonvanishing gradient, but its")
print("value at the origin is 0 rather than 1, so it cannot be a defining")
print("candidate for the unit level there)")
