"""Independent high-precision oracles for Kobayashi distances on model domains.

Each oracle evaluates a textbook closed form in mpmath at 50 decimal digits
and returns the nearest float.  Inputs (floats, complex numbers, numpy
scalars and arrays, Fractions) convert to mpmath numbers exactly or to 50
digits, so the working precision is the only source of error.  Nothing here
is shared with koblab.

- unit disc: p(z, w) = 0.5 log((1 + m)/(1 - m)), m = |z - w| / |1 - conj(w) z|;
- unit ball: the same half-log form of m, where
  m^2 = 1 - (1 - |z|^2)(1 - |w|^2) / |1 - <z, w>|^2;
- unit polydisc: the largest coordinate-wise disc distance.

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
