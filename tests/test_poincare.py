"""Disc distance, automorphisms, geodesics.

Oracle for distances: the half-log form p = 0.5 log((1 + m)/(1 - m)) with
m the Mobius quotient, evaluated at 50 decimal digits in `exact_oracles`
(tests/exact_oracles.py), independently of the library's arctanh path.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koblab.poincare import (
    DiscPointError,
    disc_geodesic,
    geodesic_point,
    mobius_restore,
    mobius_transport,
    poincare_distance,
)

from exact_oracles import disc_distance as oracle_distance


def disc_points(max_abs=0.9):
    return st.complex_numbers(max_magnitude=max_abs, allow_infinity=False, allow_nan=False)


class TestPoincareDistance:
    def test_identity(self):
        assert poincare_distance(0, 0) == 0.0

    def test_half_radius(self):
        assert poincare_distance(0, 0.5) == pytest.approx(0.5493061443340549, abs=1e-15)
        assert poincare_distance(0, 0.5) == pytest.approx(oracle_distance(0, 0.5), abs=1e-15)

    def test_ladder_term(self):
        # first step of the dyadic parameter sequence
        val = poincare_distance(0.25, 0.0625)
        assert val == pytest.approx(0.19283124040599234, abs=1e-15)
        assert val == pytest.approx(oracle_distance(0.25, 0.0625), abs=1e-14)

    def test_rejects_boundary(self):
        with pytest.raises(DiscPointError):
            poincare_distance(1.0, 0)
        with pytest.raises(DiscPointError):
            poincare_distance(0, complex("inf"))

    def test_rejects_saturated_pair(self):
        # m rounds to 1 for z = -w = 1 - 1e-8; atanh of the cap would report
        # 17.6 for a distance of 19.1
        with pytest.raises(DiscPointError):
            poincare_distance(1 - 1e-8, -(1 - 1e-8))

    def test_symmetry_exact_random(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        for _ in range(300):
            z, w = [complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(2)]
            assert poincare_distance(z, w) == poincare_distance(w, z)

    def test_triangle_inequality_random(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        for _ in range(300):
            z, w, y = [complex(*rng.uniform(-0.65, 0.65, 2)) for _ in range(3)]
            slack = poincare_distance(z, y) + poincare_distance(y, w) - poincare_distance(z, w)
            assert slack >= -1e-12

    def test_zero_iff_equal(self):
        assert poincare_distance(0.3 + 0.2j, 0.3 + 0.2j) == 0.0
        assert poincare_distance(0.3, 0.30001) > 0.0


class TestMobius:
    def test_identity_automorphism(self):
        assert mobius_transport(0, 0.3) == 0.3

    def test_sends_base_to_zero(self):
        assert mobius_transport(0.7j, 0.7j) == 0

    def test_ladder_value(self):
        assert mobius_transport(0.25, 0.0625) == pytest.approx(-4 / 21, abs=1e-15)

    def test_restore_inverts(self):
        a, z = 0.4 - 0.1j, -0.2 + 0.5j
        assert mobius_restore(a, mobius_transport(a, z)) == pytest.approx(z, abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(a=disc_points(), z=disc_points(), w=disc_points())
    def test_invariance(self, a, z, w):
        before = poincare_distance(z, w)
        after = poincare_distance(mobius_transport(a, z), mobius_transport(a, w))
        assert after == pytest.approx(before, abs=1e-12)


class TestDiscGeodesic:
    def test_radial_midpoint(self):
        curve = disc_geodesic(0, 0.5, 3)
        assert curve.params[-1] == pytest.approx(0.5493061443340549, abs=1e-15)
        mid = curve.points[1, 0]
        assert mid.imag == pytest.approx(0.0, abs=1e-15)
        assert mid.real == pytest.approx(0.2679491924311227, abs=1e-12)

    def test_endpoints_exact(self):
        curve = disc_geodesic(0, 0.37, 2)
        assert curve.points[0, 0] == 0
        assert curve.points[-1, 0] == 0.37

    def test_polyline_length_matches_distance(self):
        curve = disc_geodesic(0.25, 0.0625, 65)
        zs = curve.points[:, 0]
        total = sum(poincare_distance(zs[i], zs[i + 1]) for i in range(len(zs) - 1))
        assert total == pytest.approx(0.19283124040599234, abs=1e-6)

    def test_arclength_consistency_dense(self):
        # on-geodesic samples make the pairwise sum additive: it reproduces
        # the endpoint distance up to roundoff at any resolution
        z, w = -0.3 + 0.4j, 0.55 - 0.1j
        total_ref = poincare_distance(z, w)
        curve = disc_geodesic(z, w, 10_000)
        zs = curve.points[:, 0]
        total = sum(poincare_distance(zs[i], zs[i + 1]) for i in range(len(zs) - 1))
        assert abs(total - total_ref) <= 1e-9
        assert total <= total_ref + 1e-11

    def test_unit_speed_sampling(self):
        curve = disc_geodesic(0.1, -0.6j, 40)
        zs = curve.points[:, 0]
        steps = [poincare_distance(zs[i], zs[i + 1]) for i in range(len(zs) - 1)]
        expected = curve.param_length / 39
        assert max(abs(s - expected) for s in steps) <= 1e-9

    def test_degenerate_constant_curve(self):
        curve = disc_geodesic(0.2, 0.2, 5)
        assert curve.size == 1
        assert curve.param_length == 0.0

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError):
            disc_geodesic(0, 0.5, 1)

    @settings(max_examples=100, deadline=None)
    @given(z=disc_points(0.999), w=disc_points(0.999), samples=st.integers(2, 40))
    def test_samples_are_geodesic_points(self, z, w, samples):
        # every interior sample is geodesic_point's, bit for bit
        assume(abs(z - w) > 1e-12)  # closer, the sample grid may not increase
        curve = disc_geodesic(z, w, samples)
        got = curve.points[1:-1, 0].tolist()
        expected = [geodesic_point(z, w, s) for s in curve.params[1:-1].tolist()]
        assert [(p.real.hex(), p.imag.hex()) for p in got] == [
            (p.real.hex(), p.imag.hex()) for p in expected
        ]
