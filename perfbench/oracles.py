"""Independent 50-digit oracles for the unit disc, ball, polydisc and products.

Every closed form here is written from the textbook formulas in mpmath and
shares no code with koblab.  Float inputs convert to mpmath exactly, so the
only error left is the 50-digit working precision, far below the 1e-16
level at which a float bound can sit on the wrong side of the truth.

Normalization matches koblab: the disc distance is arctanh of the
pseudo-hyperbolic distance and the disc metric at the origin is |v|.
"""

from __future__ import annotations

from mpmath import mp, mpc, mpf

DPS = 50


def _vec(z) -> list:
    return [mpc(complex(c)) for c in z]


def _norm2(a) -> mpf:
    return sum(abs(c) ** 2 for c in a)


def _inner(a, b):
    """<a, b> = sum a_j conj(b_j)."""
    return sum(x * y.conjugate() for x, y in zip(a, b))


def _disc_distance(a, b) -> mpf:
    return mp.atanh(abs(a - b) / abs(1 - b.conjugate() * a))


def ball_distance(z, w) -> mpf:
    """Kobayashi distance of the unit ball of C^n."""
    with mp.workdps(DPS):
        a, b = _vec(z), _vec(w)
        if a == b:
            return mpf(0)
        q = (1 - _norm2(a)) * (1 - _norm2(b)) / abs(1 - _inner(a, b)) ** 2
        return mp.atanh(mp.sqrt(1 - q))


def polydisc_distance(z, w) -> mpf:
    """Kobayashi distance of the unit polydisc: the largest coordinate distance."""
    with mp.workdps(DPS):
        return max(_disc_distance(a, b) for a, b in zip(_vec(z), _vec(w)))


def ball_metric(z, v) -> mpf:
    """Infinitesimal Kobayashi metric of the unit ball of C^n."""
    with mp.workdps(DPS):
        a, u = _vec(z), _vec(v)
        s = 1 - _norm2(a)
        return mp.sqrt(_norm2(u) * s + abs(_inner(u, a)) ** 2) / s


def polydisc_metric(z, v) -> mpf:
    with mp.workdps(DPS):
        return max(abs(u) / (1 - abs(a) ** 2) for a, u in zip(_vec(z), _vec(v)))


def ball_x_disc_distance(z, w) -> mpf:
    """Unit ball of C^2 times the unit disc: the larger factor distance."""
    with mp.workdps(DPS):
        return max(ball_distance(z[:2], w[:2]), polydisc_distance(z[2:], w[2:]))


def ball_x_disc_metric(z, v) -> mpf:
    with mp.workdps(DPS):
        return max(ball_metric(z[:2], v[:2]), polydisc_metric(z[2:], v[2:]))


def ladder_term(nu: int) -> mpf:
    """p(b, b/4) for b = 2^-(nu+1): the dyadic ladder's chain term."""
    with mp.workdps(DPS):
        b = mpf(2) ** -(nu + 1)
        return _disc_distance(mpc(b), mpc(b / 4))


def ladder_tail(nu: int) -> mpf:
    """sum_{k > nu} ladder_term(k); the terms halve, so 200 of them reach 50 digits."""
    with mp.workdps(DPS):
        return mp.fsum(ladder_term(k) for k in range(nu + 1, nu + 201))


def ladder_point(nu: int, n: int) -> list:
    """Marked point (a, a^2, 0, ...) with a = 4^-(nu+1), exact in binary."""
    a = 4.0 ** -(nu + 1)
    return [a, a * a] + [0.0] * (n - 2)


def below(value: float, truth: mpf) -> bool:
    """True when a lower bound is not above the truth (exact comparison)."""
    with mp.workdps(DPS):
        return mpf(value) <= truth


def above(value: float, truth: mpf) -> bool:
    with mp.workdps(DPS):
        return mpf(value) >= truth


def ratio(value: float, truth: mpf) -> float:
    with mp.workdps(DPS):
        return float(mpf(value) / truth)
