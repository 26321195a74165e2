"""Almost-geodesic verification and visibility sampling on the ball.

A curve is a (lambda, kappa)-almost-geodesic when its parameter gaps bracket
the distances and its metric speed stays below lambda.  The checker works on
certified distance brackets, so a FAIL is a proof of violation while a PASS
is a sampled confirmation.  The visibility run collects, over a family of
candidate curves between two boundary caps, the maximum boundary distance
each curve reaches: all of them bend deep into the ball.
"""

import numpy as np

from koblab import (
    build_chain_curve,
    check_almost_geodesic,
    estimate_distance,
    unit_ball,
    visibility_experiment,
)
from koblab.curves import SampledCurve

ball = unit_ball(2)

print("== a genuine geodesic passes ==")
est = estimate_distance(ball, [-0.9, 0.0], [0.9, 0.0])
curve = build_chain_curve(ball, est.chain, 201)
verdict = check_almost_geodesic(ball, curve, lam=1.0, kappa=0.05, seed=0)
print("  param length:", round(curve.param_length, 6), " verdict:", verdict.overall)
deltas = [ball.boundary_distance(p) for p in curve.points]
print("  max boundary distance along the curve:", round(max(deltas), 6))

print()
print("== the same segment, Euclidean-parametrized, certifiably fails ==")
ts = np.linspace(0.0, 1.8, 40)
pts = np.stack([(-0.9 + ts).astype(complex), np.zeros(40, complex)], axis=1)
verdict = check_almost_geodesic(ball, SampledCurve(ts, pts), lam=1.0, kappa=0.1, seed=0)
print("  verdict:", verdict.overall)
first = verdict.condition_a[-1]  # the checker stops at its first violation
print(f"  first certified violation: |s-t| = {abs(first.s - first.t):.3f}, "
      f"bracket [{first.lower:.3f}, {first.upper:.3f}] vs band "
      f"[{first.band_low:.3f}, {first.band_high:.3f}]")

print()
print("== visibility sampling between antipodal caps ==")
report = visibility_experiment(
    ball, [1.0, 0.0], [-1.0, 0.0], r_nbhd=0.05, lam=1.0, kappa=0.2,
    n_curves=20, seed=0,
)
print(f"  passing curves: {report.passing}/20")
print(f"  epsilon_star  : {report.epsilon_star:.4f}")
print("  every tested curve meets the compact set {boundary distance >=",
      f"{report.epsilon_star:.3f}" + "}: the caps are far apart, the curves")
print("  must dive through the middle of the ball to connect them.")
