"""Independent high-precision oracles for Kobayashi distances and metrics.

Each oracle evaluates a textbook closed form in mpmath at 50 decimal digits
and returns the nearest float.  Inputs (floats, complex numbers, numpy
scalars and arrays, Fractions, mpmath numbers) convert to mpmath numbers
exactly or to 50 digits, so the working precision is the only source of
error.  Nothing here is shared with koblab.

Distances:
- unit disc: p(z, w) = 0.5 log((1 + m)/(1 - m)), m = |z - w| / |1 - conj(w) z|;
- unit ball: the same half-log form of m, where
  m^2 = 1 - (1 - |z|^2)(1 - |w|^2) / |1 - <z, w>|^2;
- unit polydisc: the largest coordinate-wise disc distance.

Metrics, at z along v:
- unit ball: k^2 = |v|^2 / (1 - |z|^2) + |<v, z>|^2 / (1 - |z|^2)^2, which
  is |v| / (1 - |z|^2) on the disc;
- unit polydisc: the largest |v_j| / (1 - |z_j|^2);
- a product: the largest of its factors' metrics.

The ball's quotient form cancels for nearby points: at separation s it
loses about 2 log10(1/s) digits, more near the sphere.  The ball oracle
raises its working precision by a bound on that loss, so every separation
keeps the 50 digits.
"""

from fractions import Fraction

import mpmath
import numpy as np

DIGITS = 50

_mp = mpmath.MPContext()
_mp.dps = DIGITS


def _coordinate(x):
    if isinstance(x, Fraction):
        return _mp.mpc(_mp.mpf(x.numerator) / x.denominator)
    if isinstance(x, (mpmath.mpf, mpmath.mpc)):
        return _mp.mpc(x)  # exact up to 50 digits
    return _mp.mpc(complex(x))  # binary floats are exact in mpc


def _point(z):
    return [_coordinate(x) for x in np.asarray(z, dtype=object).ravel()]


def _half_log(m):
    # atanh(m) = 0.5 log((1 + m)/(1 - m)), without the quotient's rounding to
    # 1 when m is below the working precision
    return float(_mp.atanh(m))


def disc_distance(z, w):
    """Poincare distance of the unit disc between scalars z and w."""
    z, w = _coordinate(z), _coordinate(w)
    if not (abs(z) < 1 and abs(w) < 1):
        raise ValueError("points outside the open unit disc")
    return _half_log(abs(z - w) / abs(1 - _mp.conj(w) * z))


def ball_distance(z, w):
    """Kobayashi distance of the unit ball of C^n between points z and w."""
    p, q = _point(z), _point(w)
    nz2 = _mp.fsum(abs(x) ** 2 for x in p)
    if not (nz2 < 1 and _mp.fsum(abs(x) ** 2 for x in q) < 1):
        raise ValueError("points outside the open unit ball")
    sep2 = _mp.fsum(abs(a - b) ** 2 for a, b in zip(p, q))
    if sep2 == 0:
        return 0.0
    # m^2 > sep^2 (1 - |z|^2) / 4, so the quotient form loses fewer than
    # log10(4 / (sep^2 (1 - |z|^2))) digits, which the working precision adds
    extra = max(0, int(_mp.log10(4 / (sep2 * (1 - nz2))))) + 1
    with _mp.workdps(DIGITS + extra):
        z, w = _point(z), _point(w)
        nz2 = _mp.fsum(abs(x) ** 2 for x in z)
        nw2 = _mp.fsum(abs(x) ** 2 for x in w)
        ip = _mp.fsum(a * _mp.conj(b) for a, b in zip(z, w))  # <z, w>
        m2 = 1 - (1 - nz2) * (1 - nw2) / abs(1 - ip) ** 2
        return _half_log(_mp.sqrt(max(m2, 0)))


def polydisc_distance(z, w):
    """Kobayashi distance of the unit polydisc: the largest factor distance."""
    z, w = np.asarray(z, dtype=object).ravel(), np.asarray(w, dtype=object).ravel()
    return max(disc_distance(a, b) for a, b in zip(z, w))


def ball_metric(z, v):
    """Infinitesimal Kobayashi metric of the unit ball of C^n at z along v."""
    p, u = _point(z), _point(v)
    s = 1 - _mp.fsum(abs(x) ** 2 for x in p)
    if not s > 0:
        raise ValueError("base point outside the open unit ball")
    ip = _mp.fsum(a * _mp.conj(b) for a, b in zip(u, p))  # <v, z>
    return float(_mp.sqrt(_mp.fsum(abs(x) ** 2 for x in u) / s + abs(ip) ** 2 / s**2))


def polydisc_metric(z, v):
    """Infinitesimal Kobayashi metric of the unit polydisc at z along v."""
    p, u = _point(z), _point(v)
    if not all(abs(a) < 1 for a in p):
        raise ValueError("base point outside the open unit polydisc")
    return float(max(abs(b) / (1 - abs(a) ** 2) for a, b in zip(p, u)))


def product_metric(factors, z, v):
    """Infinitesimal Kobayashi metric of a product: the largest factor metric.

    ``factors`` lists the factors in coordinate order as (metric, dimension)
    pairs, each metric an oracle above taking that factor's block of z and v.
    """
    z, v = np.asarray(z, dtype=object).ravel(), np.asarray(v, dtype=object).ravel()
    best, at = 0.0, 0
    for metric, dim in factors:
        best = max(best, metric(z[at:at + dim], v[at:at + dim]))
        at += dim
    return best
