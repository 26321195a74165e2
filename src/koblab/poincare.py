"""Poincare-disc primitives: distance, automorphisms, geodesics.

Normalization: p(z, w) = arctanh |(z - w) / (1 - conj(w) z)|.  Under this
convention the unit disc's Kobayashi distance coincides with p and the
metric density at the origin equals 1, so disc-chain costs compose with no
conversion factors.
"""

from __future__ import annotations

import math

import numpy as np

from .curves import SampledCurve

# Strict interior cap: arctanh overflows past it, and boundary points are not
# disc points in the first place.
MAX_ABS = 1.0 - 1e-15


class DiscPointError(ValueError):
    """Argument is not a point of the open unit disc."""


def as_disc_point(z) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DiscPointError(f"non-finite disc point {z!r}")
    if abs(z) >= MAX_ABS:
        raise DiscPointError(f"|z| = {abs(z)!r} exceeds the {MAX_ABS!r} cap")
    return z


def poincare_distance(z, w) -> float:
    """Hyperbolic distance between two points of the unit disc.

    Raises DiscPointError when the pseudo-distance rounds to MAX_ABS or
    more: a clamped value would understate the distance.
    """
    z = as_disc_point(z)
    w = as_disc_point(w)
    # separate moduli keep the value exactly symmetric in (z, w): the two
    # denominators are conjugates, so their moduli are bit-identical
    m = abs(z - w) / abs(1.0 - w.conjugate() * z)
    if m >= MAX_ABS:
        raise DiscPointError(f"pseudo-distance {m!r} reaches the {MAX_ABS!r} cap")
    return math.atanh(m)


def mobius_transport(a, z) -> complex:
    """Disc automorphism sending a to 0, evaluated at z."""
    a = as_disc_point(a)
    z = as_disc_point(z)
    return (z - a) / (1.0 - a.conjugate() * z)


def mobius_restore(a, xi) -> complex:
    """Inverse of ``mobius_transport(a, .)``: sends 0 back to a."""
    a = as_disc_point(a)
    xi = as_disc_point(xi)
    return (xi + a) / (1.0 + a.conjugate() * xi)


def geodesic_point(z, w, s: float) -> complex:
    """Point at hyperbolic arclength s along the geodesic from z towards w."""
    u = mobius_transport(z, w)
    if u == 0:
        return complex(z)
    phase = u / abs(u)
    return mobius_restore(z, math.tanh(s) * phase)


def disc_geodesic(z, w, samples: int) -> SampledCurve:
    """Unit-speed geodesic from z to w, sampled uniformly in arclength.

    The curve is parametrized on [0, p(z, w)] with endpoints exactly z and w.
    For z == w the degenerate constant curve on [0, 0] is returned.
    """
    z = as_disc_point(z)
    w = as_disc_point(w)
    if z == w:
        return SampledCurve(np.array([0.0]), np.array([[z]]))
    if samples < 2:
        raise ValueError("need at least 2 samples")
    total = poincare_distance(z, w)
    grid = np.linspace(0.0, total, samples)
    # geodesic_point at every s, with the transport to w and its phase
    # computed once and mobius_restore inlined
    u = mobius_transport(z, w)
    if u == 0:
        pts = np.full(samples, z)
    else:
        phase, z_bar = u / abs(u), z.conjugate()
        xis = [as_disc_point(math.tanh(s) * phase) for s in grid.tolist()]
        pts = np.array([(xi + z) / (1.0 + z_bar * xi) for xi in xis])
    pts[0] = z
    pts[-1] = w
    return SampledCurve(grid, pts.reshape(-1, 1))
