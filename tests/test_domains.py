"""Domain oracles: membership, certified distances, disc certificates, specs."""

import cmath
import json
import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from koblab import domains, psh
from koblab.domains import (
    Ball,
    CertifyResult,
    CertStatus,
    DimensionMismatchError,
    DomainError,
    DomainOracle,
    Membership,
    PointOutsideDomainError,
    Polydisc,
    ProductDomain,
    ProductSlice,
    RADIUS_RHO,
    SublevelDomain,
    as_point,
    domain_from_spec,
    slice_embed,
    unit_ball,
    unit_bidisc,
    unit_disc,
)
from koblab.kobayashi import (
    METRIC_CELLS, _split_direction, cauchy_table, infinitesimal_bounds, lower_bound,
)
from koblab.ladder import DyadicLadder

import exact_oracles


def norm2(z):
    return float(np.sum(np.abs(np.asarray(z)) ** 2))


def two_wells(at):
    """Distance to the nearer of -at and at: below 1/2 on two discs of radius 1/2."""
    return lambda z: min(abs(z[0] + at), abs(z[0] - at))


@pytest.fixture
def ball_sublevel():
    # {|z|^2 < 1} in C^2 with the exact Lipschitz bound 2 on the ambient ball
    return SublevelDomain(
        field=norm2, level=1.0, ambient=Ball(np.zeros(2), 1.0), seed=np.zeros(2), lipschitz=2.0
    )


class TestMembership:
    def test_bidisc(self):
        D2 = unit_bidisc()
        assert D2.contains([0.5, 0.5])
        assert not D2.contains([1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            unit_bidisc().contains([0.5])

    def test_sublevel_ball(self, ball_sublevel):
        assert ball_sublevel.contains([0.5, 0.0])
        assert not ball_sublevel.contains([1.1, 0.0])


class TestBoundaryDistance:
    def test_ball_center(self):
        assert unit_ball(2).boundary_distance([0, 0]) == 1.0

    def test_bidisc_min_gap(self):
        assert unit_bidisc().boundary_distance([0.5, 0]) == 0.5

    def test_sublevel_lipschitz_certificate(self, ball_sublevel):
        # (level - f) / L = 0.75 / 2, below both the true distance 0.5 and
        # the ambient certificate
        assert ball_sublevel.boundary_distance([0.5, 0.0]) == 0.375

    def test_outside_raises(self):
        with pytest.raises(PointOutsideDomainError):
            unit_ball(2).boundary_distance([1.5, 0])

    def test_certificate_soundness_randomized(self, ball_sublevel):
        rng = np.random.Generator(np.random.Philox(key=3))
        domains = [unit_ball(2), unit_bidisc(),
                   ProductDomain((unit_disc(), unit_ball(2))), ball_sublevel]
        for domain in domains:
            for _ in range(25):
                z = domain.sample_point(rng)
                delta = domain.boundary_distance(z)
                step = rng.normal(size=2 * domain.dim)
                step = step / np.linalg.norm(step) * delta * rng.uniform(0, 0.999)
                w = z + step[: domain.dim] + 1j * step[domain.dim :]
                assert domain.contains(w)


class TestEnclosingBall:
    def test_unit_ball(self):
        center, radius = unit_ball(3).enclosing_ball()
        assert radius == 1.0 and np.all(center == 0)

    def test_soundness_randomized(self):
        rng = np.random.Generator(np.random.Philox(key=4))
        domain = ProductDomain((Ball(np.zeros(2), 1.5), Polydisc(np.zeros(2), [1.0, 0.25])))
        center, radius = domain.enclosing_ball()
        for _ in range(50):
            z = domain.sample_point(rng)
            assert np.linalg.norm(z - center) < radius

    @pytest.mark.parametrize("radius", [1e200, 1e155, 1e-170, 1e-200])
    def test_product_radius_survives_overflow_and_underflow(self, radius):
        # the factors' squared radii overflow to inf or underflow below
        # their bits; the suite turns a RuntimeWarning into an error
        domain = Polydisc(np.zeros(2), radius)
        center, enclosing = domain.enclosing_ball()
        assert radius <= enclosing < math.inf
        assert enclosing.hex() == math.hypot(radius, radius).hex()
        z = domain.sample_point(np.random.Generator(np.random.Philox(key=4)))
        assert domain.contains(z)

    def test_ordinary_product_radius_keeps_its_bits(self):
        radii = [1.5, 1.0, 0.25, 3e150]
        domain = ProductDomain(tuple(Ball(np.zeros(1), r) for r in radii))
        rad2 = 0.0
        for r in radii:
            rad2 += r * r
        assert domain.enclosing_ball()[1].hex() == math.sqrt(rad2).hex()


class TestPolydiscFactors:
    def test_built_once_and_equal_to_coordinate_balls(self):
        domain = Polydisc(np.array([0.1j, -0.3, 0.2 + 0.2j]), [1.0, 0.5, 2.0])
        factors = domain.product_factors()
        assert factors is domain.product_factors()
        assert factors == tuple(
            Ball(np.array([c]), float(r)) for c, r in zip(domain.center, domain.radii)
        )
        assert "_factors" not in repr(domain)

    def test_disc_has_no_factors(self):
        assert unit_disc().product_factors() is None

    def test_a_product_of_one_factor_is_that_factor(self):
        # it declares its factor's factors, so its bounds are the factor's
        assert Polydisc(np.zeros(1), 1.0).product_factors() is None
        assert ProductDomain((unit_disc(),)).product_factors() is None
        single = ProductDomain((unit_bidisc(),))
        assert single.product_factors() == unit_bidisc().product_factors()
        z, w = [0.5, 0.0], [0.0, 0.9j]
        assert lower_bound(single, z, w)[0].hex() == lower_bound(unit_bidisc(), z, w)[0].hex()


class TestBoundedRadii:
    """koblab's domains are bounded: every radius is positive and finite."""

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0, -1.0],
                             ids=["inf", "nan", "zero", "negative"])
    def test_rejected_by_every_constructor(self, radius):
        # Python's json parses Infinity and NaN, so a spec can carry them
        text = json.dumps(radius)
        makers = [
            lambda: Ball(np.zeros(2), radius),
            lambda: Polydisc(np.zeros(2), radius),
            lambda: Polydisc(np.zeros(2), [1.0, radius]),
            lambda: domain_from_spec(
                json.loads(f'{{"kind": "ball", "center": [[0, 0]], "radius": {text}}}')
            ),
            lambda: domain_from_spec(json.loads(
                f'{{"kind": "polydisc", "center": [[0, 0], [0, 0]], "radius": [1.0, {text}]}}'
            )),
        ]
        for make in makers:
            with pytest.raises(DomainError):
                make()


class TestBallSliceRegion:
    @pytest.mark.parametrize("step", [1e-160, 1e-170, 1e-200, 1e-300])
    def test_step_whose_squared_length_underflows(self, step):
        # along e2 from z: centre -z2 / step, radius sqrt(1 - |z1|^2) / step
        z = np.array([0.3 + 0.2j, -0.1j])
        zc, rc = unit_ball(2).slice_region(z, z + np.array([0.0, step]))
        assert zc == pytest.approx(0.1j / step, rel=1e-15)
        assert rc == pytest.approx(math.sqrt(1 - abs(z[0]) ** 2) / step, rel=1e-15)

    @pytest.mark.parametrize("step", [1e-310, 5e-324])
    def test_step_whose_disc_is_no_float(self, step):
        z = np.array([0.3 + 0.2j, -0.1j])
        assert unit_ball(2).slice_region(z, z + np.array([0.0, step])) is None


def _reference_slice(ball, p, q):
    """Ball.slice_region's n-dimensional numpy formula, applied in dimension 1."""
    p, q = np.array([p]), np.array([q])
    with np.errstate(all="ignore"):
        d = q - p
        nd2 = float((np.abs(d) ** 2).sum())
        scale = 1.0
        if nd2 < sys.float_info.min and d.any():
            scale = 2.0**600
            d = d * scale
            nd2 = float((np.abs(d) ** 2).sum())
        if nd2 == 0:
            return None
        a = p - ball.center
        s = complex((a * np.conj(d)).sum())
        zc = -s / nd2
        try:
            rc2 = (ball.radius**2 - float((np.abs(a) ** 2).sum()) + abs(s) ** 2 / nd2) / nd2
        except OverflowError:
            return None
    if not 0 < rc2 < math.inf:
        return None
    zc, rc = complex(zc.real * scale, zc.imag * scale), math.sqrt(rc2) * scale
    if not (cmath.isfinite(zc) and rc < math.inf):
        return None
    return zc, rc


def _reference_certify(ball, center, direction, rho):
    """Ball.certify_affine_disc's n-dimensional numpy formula in dimension 1:
    (certified, witness)."""
    with np.errstate(all="ignore"):
        a = np.array([center]) - ball.center
        d = np.array([direction])
        s = complex((a * np.conj(d)).sum())
        size = abs(s)
        peak2 = (
            float((np.abs(a) ** 2).sum()) + 2.0 * rho * size + rho**2 * float((np.abs(d) ** 2).sum())
        )
    if math.sqrt(peak2) < ball.radius:
        return True, None
    return False, rho * (s / size) if s != 0 else complex(rho)


_EPS = sys.float_info.epsilon
_LINE_BALLS = [Ball(np.zeros(1), 1.0), Ball(np.array([-0.2 + 0.5j]), 1.3)]


def _rim_point(data, ball):
    """A point of the ball at 1 - |z - c| / r from 1e-12 to 1, and a step from
    it of length 1e-14 to 1."""
    depth = 10.0 ** data.draw(st.floats(-12.0, 0.0))
    step = 10.0 ** data.draw(st.floats(-14.0, 0.0))
    phase = cmath.exp(1j * data.draw(st.floats(0.0, 2 * math.pi)))
    turn = cmath.exp(1j * data.draw(st.floats(0.0, 2 * math.pi)))
    z = complex(ball.center[0]) + ball.radius * (1.0 - depth) * phase
    return z, step * turn


class TestScalarBall:
    """A one-dimensional Ball answers in Python complex arithmetic.

    The n-dimensional formula cancels r^2 - |a|^2 against |s|^2 / |d|^2, so
    near the rim it sits up to about 6.4 ulps off the exact disc, while the
    scalar D((c - p) / d, r / |d|) stays within 1.5.  So the cross-check
    against the numpy formula allows 8 eps of the radius, and the check
    against the 50-digit disc allows 2.
    """

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), ball=st.sampled_from(_LINE_BALLS))
    def test_slice_region_matches_the_numpy_formula(self, data, ball):
        p, step = _rim_point(data, ball)
        q = p + step
        got, ref = ball.slice_region([p], [q]), _reference_slice(ball, p, q)
        assert (got is None) == (ref is None)
        if got is None:
            return
        (zc, rc), (zc_ref, rc_ref) = got, ref
        assert abs(rc - rc_ref) <= 8 * _EPS * rc_ref
        assert abs(zc - zc_ref) <= 8 * _EPS * rc_ref
        mp = mpmath.mp.clone()
        mp.dps = 50
        d = mp.mpc(q) - mp.mpc(p)
        exact_rc = mp.mpf(ball.radius) / abs(d)
        assert abs(rc - exact_rc) <= 2 * _EPS * exact_rc
        assert abs(zc - (mp.mpc(complex(ball.center[0])) - mp.mpc(p)) / d) <= 2 * _EPS * exact_rc

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), ball=st.sampled_from(_LINE_BALLS))
    def test_certify_matches_the_numpy_formula(self, data, ball):
        center, direction = _rim_point(data, ball)
        offset = abs(center - complex(ball.center[0]))
        # rho near the one where |a| + rho |d| meets the radius, or anywhere
        rho = data.draw(st.one_of(
            st.integers(-8, 8).map(
                lambda k: (ball.radius - offset) / abs(direction) * (1.0 + k * _EPS)
            ),
            st.floats(1e-6, 1.0),
        ))
        assume(0 < rho < math.inf)
        got = ball.certify_affine_disc([center], [direction], rho)
        certified, witness = _reference_certify(ball, center, direction, rho)
        mp = mpmath.mp.clone()
        mp.dps = 50
        peak = abs(mp.mpc(center) - mp.mpc(complex(ball.center[0]))) + mp.mpf(rho) * abs(
            mp.mpc(direction)
        )
        if abs(peak - ball.radius) > 4 * math.ulp(ball.radius):
            assert got.certified == certified
        if got.rejected and not certified:
            assert abs(got.witness - witness) <= 8 * _EPS * rho

    @pytest.mark.parametrize("p, q", [
        ([-1.7e308], [1.7e308]),  # the step overflows
        ([0.1], [1.7e308 + 1.7e308j]),  # |step| overflows
        ([0.3], [0.3 + 5e-324]),
        ([0.3j], [0.3j + 1e-310j]),
        ([0.999], [0.999 + 5e-324j]),
    ], ids=["overflowing-step", "overflowing-length", "min-subnormal", "subnormal", "rim-subnormal"])
    def test_slice_without_a_float_disc(self, p, q):
        # None, as the numpy formula answers, where Python arithmetic raises
        ball = Ball(np.zeros(1), 1.0)
        assert ball.slice_region(p, q) is None
        assert _reference_slice(ball, p[0], q[0]) is None

    def test_slice_with_a_tiny_step_at_the_center(self):
        # |step|^2 underflows, where the numpy formula rescales the step
        ball = Ball(np.zeros(1), 1.0)
        zc, rc = ball.slice_region([0.0], [1e-300])
        assert (zc, rc) == (0j, 1.0 / 1e-300)
        zc_ref, rc_ref = _reference_slice(ball, 0j, 1e-300 + 0j)
        assert zc_ref == 0 and abs(rc - rc_ref) <= 8 * _EPS * rc_ref

    @pytest.mark.parametrize("center, direction, rho, status", [
        (0.1, 1.7e308 + 1.7e308j, 0.99, CertStatus.REJECTED),  # |direction| overflows
        (0.3, 5e-324, 1.0, CertStatus.CERTIFIED),
        (0.999, 1e-310j, 1.0, CertStatus.CERTIFIED),
        (1.0, 5e-324, 1.0, CertStatus.REJECTED),
        (-1.7e308, 1.7e308, 1.0, CertStatus.REJECTED),  # |a| |d| overflows
    ], ids=["overflowing-direction", "min-subnormal", "subnormal", "on-the-rim", "far-outside"])
    def test_certify_hostile_discs(self, center, direction, rho, status):
        # the numpy formula's verdict and witness, where Python arithmetic raises
        ball = Ball(np.zeros(1), 1.0)
        res = ball.certify_affine_disc([center], [direction], rho)
        assert res.status is status
        certified, witness = _reference_certify(ball, center, direction, rho)
        assert res.certified == certified
        if certified:
            return
        if cmath.isfinite(witness):
            assert abs(res.witness - witness) <= 8 * _EPS * rho
        else:  # the phase of an overflowing |a| |d| is lost in numpy too
            assert not cmath.isfinite(res.witness)

    def test_n_dimensional_slice_without_a_float_disc(self):
        # |s|^2 overflows in Python arithmetic: no disc, as for every other
        # step too long for a float disc
        with np.errstate(over="ignore", invalid="ignore"):
            assert unit_ball(2).slice_region([0.1, 0.0], [1.7e308 + 1.7e308j, 0.0]) is None


class TestSliceEmbed:
    def test_padding(self):
        out = slice_embed([1 / 16, 1 / 256], 4)
        assert np.array_equal(out, np.array([1 / 16, 1 / 256, 0, 0], dtype=complex))

    def test_identity(self):
        z = np.array([0.1 + 0.2j, -0.3j])
        assert np.array_equal(slice_embed(z, 2), z)

    def test_single(self):
        assert np.array_equal(slice_embed([0.5], 2), np.array([0.5, 0], dtype=complex))

    def test_rejects_shrink(self):
        with pytest.raises(DimensionMismatchError):
            slice_embed([0.5, 0.5], 1)

    def test_prefix_preserved_and_injective(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        seen = set()
        for _ in range(30):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            out = slice_embed(z, 5)
            assert np.array_equal(out[:2], z)
            assert np.all(out[2:] == 0)
            seen.add(tuple(out.tolist()))
        assert len(seen) == 30

    def test_product_slice_validation(self):
        with pytest.raises(DimensionMismatchError):
            ProductSlice(2, 2)
        sl = ProductSlice(1, 3)
        assert np.array_equal(sl.project(sl.embed([0.3])), np.array([0.3], dtype=complex))


class TestDiscCertificates:
    def test_ball_closed_form_certifies(self):
        # zeta -> (0.9 zeta, 0.5): sup |.|^2 = 0.81 rho^2 + 0.25 > 1 near the rim
        res = unit_ball(2).certify_affine_disc([0.0, 0.5], [0.9, 0.0], 0.99)
        assert res.status is CertStatus.REJECTED
        res = unit_ball(2).certify_affine_disc([0.0, 0.5], [0.5, 0.0], 0.99)
        assert res.certified

    def test_polydisc_witness_exits(self):
        res = unit_bidisc().certify_affine_disc([0.0, 0.0], [1.2, 0.0], 0.99)
        assert res.status is CertStatus.REJECTED
        assert abs(res.witness) >= 1 / 1.2 - 1e-9
        image = np.array([0.0, 0.0]) + res.witness * np.array([1.2, 0.0])
        assert not unit_bidisc().contains(image)

    @pytest.mark.parametrize("offset, speed", [(2.2e-311, 2.0), (1.0, 1e-310 + 3e-311j)],
                             ids=["subnormal-offset", "subnormal-direction"])
    def test_polydisc_witness_of_subnormal_coordinates(self, offset, speed):
        # the phase a/|a| of a subnormal offset, or |d|/d of a subnormal
        # direction, overflowed in numpy's complex division
        center, direction = np.array([0.0, offset]), np.array([0.0, speed])
        res = unit_bidisc().certify_affine_disc(center, direction, 1.0)
        assert res.rejected
        assert abs(res.witness) == pytest.approx(1.0, rel=1e-15)
        assert not unit_bidisc().contains(center + res.witness * direction)

    def test_generic_covering_agrees_with_closed_form(self):
        ball = unit_ball(2)
        center = np.array([0.1 + 0.1j, -0.2j])
        direction = np.array([0.4, 0.3j])
        generic = DomainOracle.certify_affine_disc(ball, center, direction, 0.999, max_cells=20_000)
        closed = ball.certify_affine_disc(center, direction, 0.999)
        assert generic.certified and closed.certified
        bad_dir = np.array([1.2, 0.0])
        generic = DomainOracle.certify_affine_disc(ball, center * 0, bad_dir, 0.999, max_cells=20_000)
        assert generic.status is CertStatus.REJECTED
        assert not ball.contains(generic.witness * bad_dir)

    def test_covering_budget_exhaustion_is_indeterminate(self, ball_sublevel):
        res = ball_sublevel.certify_affine_disc([0.0, 0.0], [0.9, 0.0], 0.999, max_cells=8)
        assert res.status is CertStatus.INDETERMINATE

    def test_sublevel_covering_certifies(self, ball_sublevel):
        res = ball_sublevel.certify_affine_disc([0.0, 0.0], [0.5, 0.0], 0.99, max_cells=4096)
        assert res.certified

    def test_covering_evaluates_field_once_per_probe(self):
        # centred at the seed, the connectivity walk is free and every probe
        # certifies: each probe is two metered calls and one field evaluation
        evaluations = []

        def counted_norm2(z):
            evaluations.append(1)
            return norm2(z)

        domain = SublevelDomain(
            field=counted_norm2, level=1.0, ambient=Ball(np.zeros(2), 1.2),
            seed=np.zeros(2), lipschitz=4.8,
        )
        evaluations.clear()
        res = domain.certify_affine_disc([0.0, 0.0], [0.5, 0.3j], 0.99, max_cells=4096)
        assert res.certified and res.oracle_calls > 2
        assert len(evaluations) == res.oracle_calls // 2

    @pytest.mark.parametrize("make", [
        lambda: Ball(np.zeros(2), 1.0, dim=5),
        lambda: Polydisc(np.zeros(2), 1.0, dim=5),
        lambda: ProductDomain((unit_disc(), unit_disc()), dim=5),
        lambda: SublevelDomain(
            field=norm2, level=1.0, ambient=unit_ball(2), seed=np.zeros(2), lipschitz=2.0, dim=5
        ),
    ], ids=["ball", "polydisc", "product", "sublevel"])
    def test_dim_is_derived_not_accepted(self, make):
        with pytest.raises(TypeError):
            make()


class TestSublevelConnectivity:
    def test_disconnected_component_indeterminate(self):
        # two discs of radius 1/2 at -1 and 1; the straight path from the
        # seed exits the sublevel set, so the far component is never claimed
        def two_wells(z):
            return min(abs(z[0] + 1.0), abs(z[0] - 1.0))

        domain = SublevelDomain(
            field=two_wells, level=0.5, ambient=Ball(np.zeros(1), 3.0),
            seed=np.array([-1.0 + 0j]), lipschitz=1.0,
        )
        assert domain.contains([-1.2])
        assert domain.membership([1.0]) is Membership.INDETERMINATE
        assert not domain.contains([1.0])
        assert domain.membership([2.5]) is Membership.OUTSIDE

    @pytest.mark.parametrize("kwargs", [{}, {"lipschitz": None}, {"lipschitz": 0.0},
                                        {"lipschitz": -2.0}],
                             ids=["missing", "none", "zero", "negative"])
    def test_lipschitz_bound_required(self, kwargs):
        with pytest.raises(DomainError, match="lipschitz"):
            SublevelDomain(
                field=norm2, level=1.0, ambient=Ball(np.zeros(2), 1.0), seed=np.zeros(2), **kwargs
            )

    def test_seed_must_be_inside(self):
        with pytest.raises(DomainError):
            SublevelDomain(
                field=norm2, level=1.0, ambient=Ball(np.zeros(2), 2.0),
                seed=np.array([1.5, 0.0]), lipschitz=2.0,
            )

    def test_seed_outside_a_sublevel_ambient_component(self):
        # -1.5 lies in the raw sublevel set of the ambient, but in its other
        # well: the ambient's membership, connectivity included, rejects it
        ambient = SublevelDomain(
            field=two_wells(1.5), level=0.5, ambient=Ball(np.zeros(1), 3.0),
            seed=np.array([1.5 + 0j]), lipschitz=1.0,
        )
        with pytest.raises(DomainError, match="seed is not in the sublevel set"):
            SublevelDomain(
                field=two_wells(1.5), level=0.5, ambient=ambient,
                seed=np.array([-1.5 + 0j]), lipschitz=1.0,
            )
        inner = SublevelDomain(
            field=two_wells(1.5), level=0.5, ambient=ambient,
            seed=np.array([1.5 + 0j]), lipschitz=1.0,
        )
        assert inner.contains([1.2])
        assert not inner.contains([-1.5])

    @pytest.mark.parametrize("point, distinct", [((0.95, 0.2j), 33), ((0.9, 0.0), 9)])
    def test_walk_evaluates_each_point_once(self, point, distinct):
        # the generic-search domain: {|z|^2 < 1} in B(0, 1.2) with L = 4.8;
        # the walk doubles from 8 pieces and z's own clearance is reused
        seen = []
        norm_squared = psh.norm_squared(2)

        def field(z):
            seen.append(z.tobytes())
            return norm_squared(z)

        domain = SublevelDomain(
            field=field, level=1.0, ambient=Ball(np.zeros(2), 1.2),
            seed=np.zeros(2), lipschitz=4.8,
        )
        seen.clear()
        assert domain.membership(point) is Membership.INSIDE
        assert len(seen) == len(set(seen)) == distinct


class TestDomainSpecs:
    def test_ball_spec(self):
        domain = domain_from_spec({"kind": "ball", "center": [[0, 0], [0, 0]], "radius": 2.0})
        assert isinstance(domain, Ball) and domain.radius == 2.0

    def test_polydisc_spec_scalar_radius(self):
        domain = domain_from_spec({"kind": "polydisc", "center": [[0, 0], [0, 0]], "radius": 1.0})
        assert isinstance(domain, Polydisc) and np.all(domain.radii == 1.0)

    def test_product_spec(self):
        domain = domain_from_spec(
            {
                "kind": "product",
                "factors": [
                    {"kind": "ball", "center": [[0, 0]], "radius": 1.0},
                    {"kind": "polydisc", "center": [[0, 0]], "radius": 0.5},
                ],
            }
        )
        assert isinstance(domain, ProductDomain) and domain.dim == 2

    def test_sublevel_spec_with_field_registry(self):
        domain = domain_from_spec(
            {
                "kind": "sublevel",
                "center": [[0, 0], [0, 0]],
                "radius": 1.0,
                "level": 1.0,
                "seed": [[0, 0], [0, 0]],
                "field": "norm2",
                "lipschitz": 2.0,
            },
            fields={"norm2": norm2},
        )
        assert isinstance(domain, SublevelDomain)
        assert domain.contains([0.5, 0.0])

    @pytest.mark.parametrize("extra", [{}, {"lipschitz": None}, {"lipschitz": 0.0},
                                       {"lipschitz": -2.0}],
                             ids=["missing", "none", "zero", "negative"])
    def test_sublevel_spec_requires_lipschitz(self, extra):
        spec = {"kind": "sublevel", "center": [[0, 0], [0, 0]], "radius": 1.0,
                "level": 1.0, "seed": [[0, 0], [0, 0]], "field": "norm2", **extra}
        with pytest.raises(DomainError, match="lipschitz"):
            domain_from_spec(spec, fields={"norm2": norm2})

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            domain_from_spec({"kind": "torus"})

    def test_unresolved_field(self):
        with pytest.raises(DomainError):
            domain_from_spec(
                {"kind": "sublevel", "center": [[0, 0]], "radius": 1.0,
                 "level": 1.0, "seed": [[0, 0]], "field": "mystery"}
            )


class TestAsPoint:
    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            as_point([complex("nan"), 0])

    def test_dim_check(self):
        with pytest.raises(DimensionMismatchError):
            as_point([1, 2, 3], dim=2)

    def test_fresh_copy(self):
        source = np.array([0.5 + 0.5j, -0.25])
        point = as_point(source)
        assert not np.shares_memory(point, source)
        point[0] = 7.0
        assert source[0] == 0.5 + 0.5j

    @pytest.mark.parametrize("source", [
        np.array([0.5 + 0.5j, -0.25, 0.0, 1j])[::2],  # a strided view
        np.array([0.5 + 0.5j, 0.0], dtype=">c16"),  # non-native byte order
        np.array([0.5, 0.0]),  # real
    ], ids=["view", "big-endian", "real"])
    def test_fresh_native_complex_copy(self, source):
        point = as_point(source)
        assert point.dtype == np.dtype(complex) and point.dtype.isnative
        assert point.flags.c_contiguous and point.flags.writeable
        assert not np.shares_memory(point, source)
        assert point.tolist() == source.tolist()

    def test_scalar_is_one_vector(self):
        point = as_point(0.5j)
        assert point.shape == (1,) and point.dtype == complex and point[0] == 0.5j

    def test_rejects_matrix(self):
        with pytest.raises(DomainError, match="expected a vector"):
            as_point(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [
        complex(math.inf, 0.0), complex(-math.inf, 0.0), complex(0.0, math.inf),
        complex(0.0, -math.inf), complex(math.nan, 0.0), complex(0.0, math.nan),
    ], ids=["re-inf", "re-minus-inf", "im-inf", "im-minus-inf", "re-nan", "im-nan"])
    def test_rejects_nonfinite_parts(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            as_point(np.array([0.5, bad]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.complex_numbers(), max_size=4))
    def test_rejects_what_numpy_calls_nonfinite(self, coords):
        arr = np.array(coords, dtype=complex)
        if np.isfinite(arr).all():
            assert np.array_equal(as_point(arr), arr)
        else:
            with pytest.raises(DomainError, match="non-finite"):
                as_point(arr)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_wrong_dim_raises(self, dim):
        with pytest.raises(DimensionMismatchError):
            as_point([0.1, 0.2j], dim=dim)

    def test_covering_validates_once(self, monkeypatch):
        # the generic-search domain; the probes reach the ambient ball's
        # _gaps unvalidated, since the covering built them from validated arrays
        domain = SublevelDomain(
            field=psh.norm_squared(2), level=1.0, ambient=Ball(np.zeros(2), 1.2),
            seed=np.zeros(2), lipschitz=4.8,
        )
        calls = []
        original = domains.as_point

        def counted(z, dim=None):
            calls.append(1)
            return original(z, dim)

        monkeypatch.setattr(domains, "as_point", counted)
        res = domain.certify_affine_disc([0.2, 0.1j], [0.5, 0.3j], 0.99)
        assert res.certified and res.oracle_calls >= 200  # two calls per probe
        assert len(calls) <= 4


def _near(x):
    """x and its neighbours one ulp below and above."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def _bits(gap):
    return None if gap is None else float.hex(gap)


def _row_bits(gaps):
    return [_bits(None if math.isnan(gap) else float(gap)) for gap in gaps]


def _one_row(gaps, z):
    """``gaps`` (a batched clearance) of z alone, as bits."""
    return _row_bits(gaps(z[None]))[0]


def _pointwise_gaps(domain, points):
    """The public predicates, one point at a time."""
    return [domain.boundary_distance(z) if domain.contains(z) else math.nan for z in points]


def _reference_gap(domain, z):
    """An independent reference for one row of ``_gaps``, None outside.

    A ball, or a product of balls such as a polydisc, is computed from z's
    coordinates in pure-Python ``math``, sharing no code with ``_gaps``; a
    sublevel domain goes through its public predicates, whose ``contains``
    takes its own path (``membership``)."""
    z = [complex(x) for x in z]
    if isinstance(domain, ProductDomain):
        gaps, at = [], 0
        for factor in domain.factors:
            gaps.append(_reference_gap(factor, z[at : at + factor.dim]))
            at += factor.dim
        return None if None in gaps else min(gaps)
    if not isinstance(domain, Ball):
        return domain.boundary_distance(z) if domain.contains(z) else None
    offsets = [x - complex(c) for x, c in zip(z, domain.center)]
    norm = math.sqrt(sum(w.real**2 for w in offsets) + sum(w.imag**2 for w in offsets))
    return domain.radius - norm if norm < domain.radius else None


# numpy's dot products and Python's sums may round a norm differently in
# the last bit, so _gaps meets the reference up to this many ulps of the
# enclosing radius
REFERENCE_ULPS = 8


def _assert_near_reference(domain, points, gaps):
    """Each row of ``gaps`` agrees with ``_reference_gap`` up to rounding; only
    a row within rounding of the boundary may be classed differently."""
    tol = REFERENCE_ULPS * math.ulp(domain.enclosing_ball()[1])
    for z, gap in zip(points, gaps):
        ref = _reference_gap(domain, z)
        gap = None if math.isnan(gap) else float(gap)
        if ref is None or gap is None:
            assert max(ref or 0.0, gap or 0.0) <= tol, (z, gap, ref)
        else:
            assert abs(gap - ref) <= tol, (z, gap, ref)


GAP_DOMAINS = {
    "ball": unit_ball(2),
    "polydisc": unit_bidisc(),
    "ball-x-disc": ProductDomain((unit_ball(2), unit_disc())),
    "sublevel-norm2": SublevelDomain(
        field=psh.norm_squared(2), level=1.0, ambient=Ball(np.zeros(2), 1.2),
        seed=np.zeros(2), lipschitz=4.8,
    ),
    "sublevel-two-wells": SublevelDomain(
        field=two_wells(1.0), level=0.5, ambient=Ball(np.zeros(1), 3.0),
        seed=np.array([-1.0 + 0j]), lipschitz=1.0,
    ),
}

# boundary values of the unit ball and disc, of the ambient ball B(0, 1.2)
# and of the two-wells discs, each with its one-ulp neighbours
EDGE_VALUES = sorted({x for base in (0.0, 0.5, 1.0, 1.5, 1.2) for sign in (1, -1)
                      for x in _near(sign * base)})


def _coordinate():
    real = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-1.6, 1.6))
    return st.builds(complex, real, st.one_of(st.just(0.0), real))


class TestGapMatchesPublicOracles:
    @pytest.mark.parametrize("name", sorted(GAP_DOMAINS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_gap_is_distance_if_inside(self, name, data):
        domain = GAP_DOMAINS[name]
        z = as_point(data.draw(st.lists(_coordinate(), min_size=domain.dim,
                                        max_size=domain.dim)))
        assert _one_row(domain._gaps, z) == _row_bits(_pointwise_gaps(domain, [z]))[0]
        _assert_near_reference(domain, [z], domain._gaps(z[None]))

    @settings(max_examples=200, deadline=None)
    @given(point=st.lists(_coordinate(), min_size=3, max_size=3))
    @example(point=[1.0, 0.0, 0.0])
    @example(point=[0.0, 1.0j, 0.0])
    @example(point=[math.nextafter(1.0, 0.0), 0.0, 0.0])
    @example(point=[math.nextafter(1.0, 2.0), 0.0, 0.0])
    @example(point=[0.6, 0.8j, 0.0])
    @example(point=[0.6, 0.0, math.nextafter(1.0, 0.0)])
    @example(point=[0.0, 0.0, 1.0j])
    def test_closed_forms_match_separate_predicates(self, point):
        # the merged test radius - norm > 0 gives what the separate
        # predicate norm < radius and the distance radius - norm give; the
        # first two coordinates go to B^2 and the bidisc, all three to B^2 x D.
        # Every disc is a one-dimensional ball: its norm is sqrt(re^2 + im^2)
        z = as_point(point)
        norm = float(np.linalg.norm(z[:2]))
        ball = 1.0 - norm if norm < 1.0 else None
        self._check_public(unit_ball(2), z[:2], ball)
        offsets = [math.sqrt(x.real * x.real + x.imag * x.imag) for x in z.tolist()]
        bidisc = min(1.0 - r for r in offsets[:2]) if max(offsets[:2]) < 1.0 else None
        self._check_public(unit_bidisc(), z[:2], bidisc)
        disc = 1.0 - offsets[2] if offsets[2] < 1.0 else None
        product = None if ball is None or disc is None else min(ball, disc)
        self._check_public(ProductDomain((unit_ball(2), unit_disc())), z, product)

    @staticmethod
    def _check_public(domain, z, expected):
        assert _one_row(domain._gaps, z) == _bits(expected)
        assert domain.contains(z) is (expected is not None)
        if expected is not None:
            assert _bits(domain.boundary_distance(z)) == _bits(expected)


def _coordinate_discs(domain):
    """(center, radius) of each coordinate disc of a disc or polydisc."""
    if isinstance(domain, Ball):
        return [(complex(domain.center[0]), domain.radius)]
    return [(complex(c), float(r)) for c, r in zip(domain.center, domain.radii)]


def _rim_points(domain, rng, count):
    """Points with one coordinate 1e-16 to 1e-13 of its radius off its
    circle, outward in the first half and inward in the second; the other
    coordinates lie at most halfway out."""
    discs = _coordinate_discs(domain)
    points = np.empty((count, len(discs)), dtype=complex)
    for j, (c, r) in enumerate(discs):
        points[:, j] = c + 0.5 * r * rng.uniform(size=count) * np.exp(
            2j * np.pi * rng.uniform(size=count)
        )
    pushed = np.arange(count) % len(discs)
    sign = np.where(np.arange(count) < count // 2, 1.0, -1.0)
    scale = 1.0 + sign * 10.0 ** rng.uniform(-16, -13, size=count)
    rims = np.exp(2j * np.pi * rng.uniform(size=count))
    for j, (c, r) in enumerate(discs):
        rows = pushed == j
        points[rows, j] = c + r * scale[rows] * rims[rows]
    return points


def _exactly_inside(discs, z):
    """Whether z lies in the product of the discs, in exact rational arithmetic."""
    for x, (c, r) in zip(z, discs):
        dx, dy = Fraction(x.real) - Fraction(c.real), Fraction(x.imag) - Fraction(c.imag)
        if dx * dx + dy * dy >= Fraction(r) ** 2:
            return False
    return True


RIM_DOMAINS = {
    "disc": unit_disc(),
    "bidisc": unit_bidisc(),
    "offset-polydisc": Polydisc(np.array([0.3 + 0.1j, -0.2j]), [0.7, 1.3]),
}


class TestRimSoundness:
    @pytest.mark.parametrize("name", sorted(RIM_DOMAINS))
    def test_no_point_outside_is_accepted(self, name):
        # rejecting a point exactly inside is sound, only conservative: the
        # count is reported (pytest -s), not asserted
        domain = RIM_DOMAINS[name]
        count = 7000
        points = _rim_points(domain, np.random.Generator(np.random.Philox(key=43)), count)
        discs = _coordinate_discs(domain)
        inside = np.array([_exactly_inside(discs, z) for z in points.tolist()])
        accepted = domain._gaps(points) > 0
        print(f"{name}: {np.count_nonzero(inside & ~accepted)} of {count} points exactly "
              f"inside rejected, {np.count_nonzero(~inside)} exactly outside")
        assert points[accepted & ~inside].tolist() == []


class TestFarPoints:
    # squares past the float range: a far point is outside, without a warning
    @pytest.mark.parametrize("domain, z", [
        (unit_disc(), [1e200]),
        (unit_disc(), [1e154 + 1e154j]),
        (unit_bidisc(), [1e200, 0]),
        (unit_bidisc(), [0, 1e154 + 1e154j]),
        (unit_ball(2), [1e200, 0]),
        (ProductDomain((unit_ball(2), unit_disc())), [0, 0, 1e200]),
        (Ball(np.zeros(1), 2.0**600), [1.7e308 + 1.7e308j]),
        (Polydisc(np.zeros(2), [1.0, 2.0**600]), [1e200, 0]),
    ], ids=["disc", "disc-sum", "bidisc", "bidisc-sum", "ball2", "ball2xdisc",
            "rescaled-ball", "rescaled-polydisc"])
    def test_outside_without_overflow_warning(self, domain, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert domain.contains(z) is False
            with pytest.raises(PointOutsideDomainError):
                domain.boundary_distance(z)


# radii the balls measure directly, and radii past 2^500, where they rescale
_POLYDISC_RADII = st.one_of(
    st.sampled_from([1.0, 0.7, 3.0, 2.0**-40, 2.0**501, 2.0**600, 1e300]), st.floats(1e-3, 1e3)
)
# parts of an offset in units of its coordinate's radius: the rim and other
# edges with their one-ulp neighbours, and anything out to 1.25 radii
_RADIUS_UNITS = st.one_of(
    st.sampled_from(sorted({x for base in (0.0, 0.6, 0.8, 1.0) for sign in (1, -1)
                            for x in _near(sign * base)})),
    st.floats(-1.25, 1.25),
)


@st.composite
def _polydisc_and_points(draw):
    dim = draw(st.integers(1, 3))
    radii = [draw(_POLYDISC_RADII) for _ in range(dim)]
    center = [draw(st.sampled_from([0.0, 0.3 + 0.1j, -0.2j])) * r for r in radii]
    points = [
        np.array([c + r * complex(draw(_RADIUS_UNITS), draw(_RADIUS_UNITS))
                  for c, r in zip(center, radii)])
        for _ in range(4)
    ]
    return Polydisc(np.array(center, dtype=complex), radii), points


def _answer(method, *args):
    """What an oracle method answers, as comparable bits, or the error it raises."""
    try:
        result = method(*args)
    except Exception as exc:
        return type(exc)
    if isinstance(result, CertifyResult):
        witness = None if result.witness is None else complex(result.witness)
        return result.status, _complex_bits(witness), result.oracle_calls
    return None if result is None else (_complex_bits(complex(result[0])), _bits(result[1]))


def _complex_bits(z):
    return None if z is None else (z.real.hex(), z.imag.hex())


class TestPolydiscIsProductOfBalls:
    @settings(max_examples=200, deadline=None)
    @given(case=_polydisc_and_points(), rho=st.floats(1e-3, 1.0), max_cells=st.integers(0, 4))
    def test_bitwise(self, case, rho, max_cells):
        polydisc, points = case
        product = ProductDomain(tuple(
            Ball(polydisc.center[j : j + 1], float(r)) for j, r in enumerate(polydisc.radii)
        ))
        rows = np.array(points)
        assert _row_bits(polydisc._gaps(rows)) == _row_bits(product._gaps(rows))
        for p, q in zip(points, points[1:]):
            assert _answer(polydisc.slice_region, p, q) == _answer(product.slice_region, p, q)
            disc = (p, q - p, rho, max_cells)
            assert (_answer(polydisc.certify_affine_disc, *disc)
                    == _answer(product.certify_affine_disc, *disc))
        (center, radius), (product_center, product_radius) = (
            polydisc.enclosing_ball(), product.enclosing_ball()
        )
        assert center.tobytes() == product_center.tobytes() and radius.hex() == product_radius.hex()
        assert polydisc.product_factors() == product.product_factors()


def _two_wells_sublevel():
    # the well at 1 is in the raw sublevel set but not in the seed's component
    return SublevelDomain(
        field=two_wells(1.0), level=0.5, ambient=Ball(np.zeros(1), 3.0),
        seed=np.array([-1.0 + 0j]), lipschitz=1.0,
    )


BATCH_DOMAINS = {**GAP_DOMAINS, "two-wells-x-disc": ProductDomain((_two_wells_sublevel(), unit_disc()))}
SUBLEVELS = {
    "sublevel-norm2": GAP_DOMAINS["sublevel-norm2"],
    "sublevel-two-wells": GAP_DOMAINS["sublevel-two-wells"],
    "two-wells-factor": BATCH_DOMAINS["two-wells-x-disc"].factors[0],
}


def _edge_grid(dim):
    """Every pair of boundary values and one-ulp neighbours, as real rows."""
    pairs = np.array(np.meshgrid(EDGE_VALUES, EDGE_VALUES)).reshape(2, -1).T
    rows = np.zeros((len(pairs), dim), dtype=complex)
    rows[:, 0] = pairs[:, 0]
    if dim == 1:
        rows[:, 0] += 1j * pairs[:, 1]
    else:
        rows[:, -1] = pairs[:, 1]
    return rows


def _batches(dim):
    return st.lists(st.lists(_coordinate(), min_size=dim, max_size=dim), min_size=1, max_size=6)


def _reference_clearance(domain, z):
    """The raw sublevel clearance from pointwise pieces: the ambient's public
    predicates, then f(z)."""
    if not domain.ambient.contains(z):
        return None
    ambient_gap = domain.ambient.boundary_distance(z)
    value = float(domain.field(z))
    if not value < domain.level:
        return None
    return min(ambient_gap, (domain.level - value) / domain.lipschitz)


class TestBatchedGaps:
    @pytest.mark.parametrize("name", sorted(BATCH_DOMAINS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_gaps_match_gap_row_by_row(self, name, data):
        domain = BATCH_DOMAINS[name]
        points = np.array(data.draw(_batches(domain.dim)), dtype=complex)
        expected = [_one_row(domain._gaps, z) for z in points]
        assert _row_bits(domain._gaps(points)) == expected
        assert _row_bits(_pointwise_gaps(domain, points)) == expected
        _assert_near_reference(domain, points, domain._gaps(points))

    @pytest.mark.parametrize("name", sorted(BATCH_DOMAINS))
    def test_gaps_match_gap_on_boundary_values(self, name):
        domain = BATCH_DOMAINS[name]
        points = _edge_grid(domain.dim)
        expected = [_one_row(domain._gaps, z) for z in points]
        assert _row_bits(domain._gaps(points)) == expected
        assert _row_bits(_pointwise_gaps(domain, points)) == expected
        _assert_near_reference(domain, points, domain._gaps(points))

    @pytest.mark.parametrize("name", sorted(SUBLEVELS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_clearances_match_clearance(self, name, data):
        domain = SUBLEVELS[name]
        self._check_clearances(domain, np.array(data.draw(_batches(domain.dim)), dtype=complex))

    @pytest.mark.parametrize("name", sorted(SUBLEVELS))
    def test_clearances_match_clearance_on_boundary_values(self, name):
        domain = SUBLEVELS[name]
        self._check_clearances(domain, _edge_grid(domain.dim))

    @staticmethod
    def _check_clearances(domain, points):
        expected = [_bits(_reference_clearance(domain, z)) for z in points]
        assert [_one_row(domain._clearances, z) for z in points] == expected
        assert _row_bits(domain._clearances(points)) == expected
        _assert_near_reference(domain.ambient, points, domain.ambient._gaps(points))

    def test_gaps_keep_connectivity(self):
        # both wells are in the raw sublevel set; only the seed's counts, so
        # a product with this factor must not take its clearances as gaps
        factor = _two_wells_sublevel()
        points = np.array([[-1.0, 0.0], [1.0, 0.0]], dtype=complex)
        assert _row_bits(factor._clearances(points[:, :1])) == [_bits(0.5), _bits(0.5)]
        assert _row_bits(factor._gaps(points[:, :1])) == [_bits(0.5), None]
        product = ProductDomain((factor, unit_disc()))
        assert _row_bits(product._gaps(points)) == [_bits(0.5), None]
        res = product.certify_affine_disc([1.0, 0.0], [0.1, 0.1], 0.5)
        assert not res.certified

    def test_product_factor_sees_rows_inside_earlier_factors(self):
        # a later factor is not asked about a row an earlier one rejects
        class Recording(DomainOracle):
            dim = 1

            def __init__(self):
                self.seen = []

            def _gaps(self, points):
                self.seen.extend(complex(z[0]) for z in points)
                return np.ones(len(points))

            def enclosing_ball(self):
                return np.zeros(1), 1.0

        recording = Recording()
        product = ProductDomain((unit_disc(), recording))
        points = np.array([[0.5, 0.1], [2.0, 0.2], [0.0, 0.3j]])
        assert _row_bits(product._gaps(points)) == [_bits(0.5), None, _bits(1.0)]
        assert recording.seen == [0.1, 0.3j]

    def test_product_gaps_of_a_mixed_batch_are_each_rows_alone(self):
        # rows outside factor 1, outside factor 2, outside factor 3 and
        # inside all three; a row outside factor 1 or 2 carries the sentinel
        # 9 in factor 3's block, and factor 3 refuses to be asked about it
        class Refusing(Ball):
            def _gaps(self, points):
                if (points == 9).any():
                    raise AssertionError("asked about a row outside an earlier factor")
                return super()._gaps(points)

        product = ProductDomain(
            (unit_disc(), Ball(np.zeros(2), 1.0), Refusing(np.zeros(1), 1.0))
        )
        points = np.array([
            [1.5, 0.1, 0.2, 9],
            [0.3, 0.9, 0.9j, 9],
            [0.1, 0.1, 0.1, 1.5j],
            [0.2, 0.1, -0.3j, 0.5],
            [0.9j, 0.0, 0.0, 0.95],
        ])
        alone = [_one_row(product._gaps, z) for z in points]
        assert alone[:3] == [None, None, None]
        assert _row_bits(product._gaps(points)) == alone
        # a batch inside every factor hands each factor its whole block
        assert _row_bits(product._gaps(points[3:])) == alone[3:]
        _assert_near_reference(product, points[2:], product._gaps(points[2:]))


class UnitDiscFromGaps(DomainOracle):
    """The unit disc, written as a new oracle is: ``_gaps`` and ``enclosing_ball`` only."""

    dim = 1

    def _gaps(self, points):
        gaps = 1.0 - np.abs(points[:, 0])
        gaps[gaps <= 0] = math.nan
        return gaps

    def enclosing_ball(self):
        return np.zeros(1, dtype=complex), 1.0


class TestOracleContract:
    def test_gaps_and_enclosing_ball_suffice(self):
        disc = UnitDiscFromGaps()
        assert disc.contains([0.5j]) and not disc.contains([1.0])
        assert disc.boundary_distance([0.5j]) == 0.5
        with pytest.raises(PointOutsideDomainError):
            disc.boundary_distance([1.5])
        with pytest.raises(DimensionMismatchError):
            disc.contains([0.1, 0.2])
        # the generic covering, probe for probe the one the unit disc gets
        for direction in ([0.5], [1.2]):
            res = disc.certify_affine_disc([0.1], direction, 0.99)
            same = DomainOracle.certify_affine_disc(unit_disc(), [0.1], direction, 0.99)
            assert (res.status, res.witness, res.oracle_calls) == (
                same.status, same.witness, same.oracle_calls
            )
        assert disc.certify_affine_disc([0.1], [0.5], 0.99).certified
        assert disc.certify_affine_disc([0.1], [1.2], 0.99).rejected
        rng = np.random.Generator(np.random.Philox(key=6))
        points = [disc.sample_point(rng) for _ in range(20)]
        assert all(abs(z[0]) < 1.0 for z in points)

    def test_gaps_is_required(self):
        # the public predicates alone no longer make an oracle
        class PredicatesOnly(DomainOracle):
            dim = 1

            def contains(self, z):
                return abs(z[0]) < 1.0

            def boundary_distance(self, z):
                return 1.0 - abs(z[0])

            def enclosing_ball(self):
                return np.zeros(1, dtype=complex), 1.0

        with pytest.raises(TypeError):
            PredicatesOnly()


def _complex_in(bound):
    part = st.floats(-bound, bound)
    return st.builds(complex, part, part)


RADIUS_DOMAINS = {
    "ball": unit_ball(2),
    "off-centre-ball": Ball(np.array([0.2, -0.1j]), 1.5),
    "bidisc": unit_bidisc(),
    "polydisc": Polydisc(np.array([0.1j, 0.0]), [1.0, 0.5]),
    "ball-x-disc": ProductDomain((unit_ball(2), unit_disc())),
}


def _draw_interior(data, domain, clearance=1e-3):
    """A point of a ball, polydisc or product of them at least ``clearance``
    (up to rounding) inside every factor: 1 - |z| >= 1e-3 on the unit ones."""
    if isinstance(domain, ProductDomain):
        return np.concatenate([_draw_interior(data, f, clearance) for f in domain.factors])
    coordinates = st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                            st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))
    w = np.array(data.draw(st.lists(coordinates, min_size=domain.dim, max_size=domain.dim)))
    if isinstance(domain, Ball):
        w = w / max(1.0, float(np.linalg.norm(w)))
        return domain.center + (domain.radius - clearance) * w
    return domain.center + (domain.radii - clearance) * w


def _direction_coordinate():
    # zero, or a modulus in [1e-3, 1] at any angle
    polar = st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                      st.floats(1e-3, 1.0), st.floats(0.0, 2 * math.pi))
    return st.one_of(st.just(0j), polar)


def _centred_radius(domain, z, v):
    """The largest r with {z + zeta v : |zeta| < r} inside a ball, polydisc
    or product of them, from their closed forms in scalar arithmetic."""
    if isinstance(domain, ProductDomain):
        radii, at = [], 0
        for f in domain.factors:
            zb, vb = z[at:at + f.dim], v[at:at + f.dim]
            at += f.dim
            if vb.any():  # a factor whose block of v is zero stays at z's block
                radii.append(_centred_radius(f, zb, vb))
        return min(radii)
    a = [complex(x - c) for x, c in zip(z, domain.center)]
    w = [complex(x) for x in v]
    if isinstance(domain, Ball):
        # the positive root of |v|^2 r^2 + 2 |<a, v>| r - (R^2 - |a|^2)
        room = domain.radius**2 - math.fsum(abs(x) ** 2 for x in a)
        s = abs(sum(x * y.conjugate() for x, y in zip(a, w)))
        return room / (s + math.sqrt(s * s + math.fsum(abs(y) ** 2 for y in w) * room))
    # the first moving coordinate to reach its circle
    return min((r - abs(x)) / abs(y) for r, x, y in zip(domain.radii, a, w) if y)


# found / radius stays above these in test_centred_radius_is_the_certifier_threshold,
# about half the worst ratio seen in 2,700 draws per domain: 0.542 on the
# ball, 0.336 off centre, 0.0298 on the bidisc, 0.0200 on the polydisc and
# 0.0298 on the ball times the disc.  The worst draws sit 1e-3 from a rim
# and run along it (on a product, near one coordinate's rim and moving only
# another), so _gaps stays near 1e-3 over a much larger disc than
# METRIC_CELLS calls can cover; the median draw comes within 1e-4 of the
# radius.
RADIUS_TIGHTNESS = {
    "ball": 0.25,
    "off-centre-ball": 0.15,
    "bidisc": 0.015,
    "polydisc": 0.01,
    "ball-x-disc": 0.015,
}


class TestCenteredRadius:
    @pytest.mark.parametrize("name", sorted(RADIUS_DOMAINS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_centred_radius_is_the_certifier_threshold(self, name, data):
        # one part in 1e9 below the closed-form radius certifies, one part
        # above rejects
        domain = RADIUS_DOMAINS[name]
        z = _draw_interior(data, domain)
        v = np.array(data.draw(st.lists(_direction_coordinate(), min_size=domain.dim,
                                        max_size=domain.dim)))
        assume(v.any())
        radius = _centred_radius(domain, z, v)
        assert 0 < radius < math.inf
        assert domain.certify_affine_disc(z, radius * (1 - 1e-9) * v, 1.0).certified
        assert domain.certify_affine_disc(z, radius * (1 + 1e-9) * v, 1.0).rejected
        # the radial covering over _gaps: never past the radius, never short
        # of its first disc, the center's clearance over |v| times RADIUS_RHO
        found = domain.certified_radius(z, v, METRIC_CELLS)
        assert found <= radius
        assert found >= domain.boundary_distance(z) / np.linalg.norm(v) * RADIUS_RHO
        assert found >= radius * RADIUS_TIGHTNESS[name]

    def test_probe_rounding_onto_the_rim_keeps_the_first_disc(self):
        # a child probe 1 ulp inside the first disc, eta * 0.3495..., rounds
        # to 1.0 on the rim; that probe must not cap r below the first disc
        domain = unit_bidisc()
        z = np.array([0.0, 0.0])
        v = np.array([0.0, 0.3495385200732309])
        found = domain.certified_radius(z, v, METRIC_CELLS)
        assert found >= domain.boundary_distance(z) / np.linalg.norm(v) * RADIUS_RHO
        assert found <= _centred_radius(domain, z, v)


class TestGenericCoveringSound:
    @pytest.mark.parametrize("domain", [unit_ball(2), unit_bidisc()], ids=["ball", "bidisc"])
    @settings(max_examples=80, deadline=None)
    @given(
        center=st.lists(_complex_in(0.7), min_size=2, max_size=2),
        direction=st.lists(_complex_in(1.0), min_size=2, max_size=2),
        rho=st.floats(0.01, 1.0),
        max_cells=st.sampled_from([0, 1, 2, 3, 64, 4096]),
    )
    def test_verdicts_agree_with_closed_forms(self, domain, center, direction, rho, max_cells):
        center, direction = np.array(center), np.array(direction)
        res = DomainOracle.certify_affine_disc(domain, center, direction, rho, max_cells=max_cells)
        assert res.oracle_calls <= max_cells
        if res.certified:
            assert domain.certify_affine_disc(center, direction, rho).certified
        if res.rejected:
            assert not domain.contains(center + res.witness * direction)


def _reference_cover(gap, center, direction, rho, max_cells):
    """The covering's documented level order, probe by probe, in plain Python.

    ``gap(point)`` is one row's clearance, None outside.  Returns (status,
    witness, oracle_calls) and the number of probes evaluated at each level
    reached.  Shares no code with ``domains._cover_certify``.
    """
    center = [complex(x) for x in center]
    direction = [complex(x) for x in direction]
    speed = float(np.linalg.norm(direction))
    if speed == 0.0:
        if max_cells < 1:
            return (CertStatus.INDETERMINATE, None, 0), []
        if gap(center) is None:
            return (CertStatus.REJECTED, 0j, 1), [1]
        return (CertStatus.CERTIFIED, None, 1), [1]
    calls, half, level, sizes = 0, rho, [0j], []
    while True:
        diagonal = half * math.sqrt(2.0)
        parents = []
        sizes.append(0)
        for cell in level:
            radius = abs(cell)
            if radius - diagonal > rho:
                continue  # the cell misses the parameter disc
            if calls + 2 > max_cells:
                return (CertStatus.INDETERMINATE, None, calls), sizes
            if radius > rho:
                probe = complex(cell.real / radius * rho, cell.imag / radius * rho)
            else:
                probe = cell
            sizes[-1] += 1
            clearance = gap([c + probe * d for c, d in zip(center, direction)])
            if clearance is None:
                return (CertStatus.REJECTED, probe, calls + 1), sizes
            calls += 2
            if not clearance / speed >= abs(cell - probe) + diagonal:
                parents.append(cell)
        if not parents:
            return (CertStatus.CERTIFIED, None, calls), sizes
        if half < rho * 2.0 ** -14:
            return (CertStatus.INDETERMINATE, None, calls), sizes
        half /= 2.0
        level = [p + complex(sx * half, sy * half)
                 for p in parents for sx, sy in ((-1, -1), (-1, 1), (1, -1), (1, 1))]


def _row_gap(gaps):
    """One-row clearance from a batched one, None for NaN."""
    def gap(z):
        value = float(gaps(np.array([z], dtype=complex))[0])
        return None if math.isnan(value) else value
    return gap


def _result(res):
    return res.status, res.witness, res.oracle_calls


class TestCoveringLevelOrder:
    @pytest.mark.parametrize("domain", [unit_ball(2), unit_bidisc()], ids=["ball", "bidisc"])
    @settings(max_examples=80, deadline=None)
    @given(
        center=st.lists(_complex_in(0.7), min_size=2, max_size=2),
        direction=st.lists(_complex_in(1.0), min_size=2, max_size=2),
        rho=st.floats(0.01, 1.0),
        max_cells=st.sampled_from([0, 1, 2, 3, 7, 64, 4096]),
    )
    def test_matches_the_reference_walk(self, domain, center, direction, rho, max_cells):
        res = DomainOracle.certify_affine_disc(domain, center, direction, rho, max_cells=max_cells)
        expected, _ = _reference_cover(_row_gap(domain._gaps), center, direction, rho, max_cells)
        assert _result(res) == expected

    @pytest.mark.parametrize("name", ["sublevel-ball", "candidate-c3"])
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        rho=st.floats(0.01, 1.0),
        max_cells=st.sampled_from([0, 1, 2, 3, 7, 64, 4096]),
        steps=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
    )
    def test_sublevel_matches_the_reference_walk(self, name, data, rho, max_cells, steps):
        # one domain certifies a disc, then discs up to twice or half as
        # wide at the same center, growing, shrinking, capped or rejected,
        # so every call after the first replays the quadtree it remembers.
        # The covering sees the raw sublevel set, then one connectivity walk
        # from the seed to the disc's center.
        domain = {"sublevel-ball": _generic_search_ball, "candidate-c3": _candidate_c3}[name]()
        coordinates = st.lists(_complex_in(0.6), min_size=domain.dim, max_size=domain.dim)
        center = np.array(data.draw(coordinates))
        center *= 0.9 / max(0.9, float(np.linalg.norm(center)))  # inside, at times near the rim
        direction = np.array(data.draw(coordinates))
        inside = domain.membership(center) is Membership.INSIDE
        scale = 1.0
        for step in [0.0] + steps:
            scale *= 2.0 ** step
            res = domain.certify_affine_disc(center, scale * direction, rho, max_cells=max_cells)
            expected, _ = _reference_cover(
                _row_gap(domain._clearances), center, scale * direction, rho, max_cells
            )
            status, witness, calls = expected
            if status is CertStatus.CERTIFIED and not inside:
                status = CertStatus.INDETERMINATE
            assert _result(res) == (status, witness, calls)

    @pytest.mark.parametrize("direction, max_cells", [(0.9, 20_000), (0.9, 1001), (0.95, 20_000)],
                             ids=["certified", "capped", "rejected"])
    def test_one_clearances_call_per_level(self, direction, max_cells):
        # levels of up to 274 probes; the cap cuts the ninth level at 87 of
        # its 198, and a rejecting level is evaluated whole
        batches = []

        def clearances(points):
            batches.append(len(points))
            return UnitDiscFromGaps()._gaps(points)

        res = domains._cover_certify(clearances, 1, [0.1], [direction], 0.999, max_cells)
        expected, sizes = _reference_cover(
            _row_gap(UnitDiscFromGaps()._gaps), [0.1], [direction], 0.999, max_cells
        )
        assert _result(res) == expected
        assert len(batches) == len(sizes) and batches[:-1] == sizes[:-1]
        if not res.rejected:
            assert batches == sizes and max(sizes) > 128


def _generic_search_ball(field=None):
    # {|z|^2 < 1} in B(0, 1.2) with L = 4.8
    return SublevelDomain(
        field=psh.norm_squared(2) if field is None else field, level=1.0,
        ambient=Ball(np.zeros(2), 1.2), seed=np.zeros(2), lipschitz=4.8,
    )


def _candidate_c3():
    """The cauchy-demo candidate domain for the norm2 field: the unit ball of C^3."""
    lifted = psh.lift_quadratic_tail(psh.norm_squared(2), 3)
    return SublevelDomain(
        field=lifted, level=1.0,
        ambient=ProductDomain((Ball(np.zeros(2), 3.0), Ball(np.zeros(1), 1.1))),
        seed=slice_embed(DyadicLadder(1).point_complex(1), 3), lipschitz=lifted.lipschitz(4.1),
    )


CERTIFY_DOMAINS = {"sublevel-ball": _generic_search_ball(), "candidate-c3": _candidate_c3()}


def _count_clearances(monkeypatch):
    """Record the rows of every ``SublevelDomain._clearances`` batch."""
    batches = []
    original = SublevelDomain._clearances

    def counted(self, points):
        batches.append(len(points))
        return original(self, points)

    monkeypatch.setattr(SublevelDomain, "_clearances", counted)
    return batches


class TestBatchedCertification:
    @pytest.mark.parametrize("name", sorted(CERTIFY_DOMAINS))
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        rho=st.floats(0.01, 1.0),
        max_cells=st.sampled_from([0, 1, 2, 3, 7, 64, 4096]),
    )
    def test_each_disc_gets_what_it_gets_alone(self, name, data, rho, max_cells):
        # certified, rejected, capped and zero-speed discs in one batch
        domain = CERTIFY_DOMAINS[name]
        coordinates = st.lists(_complex_in(0.6), min_size=domain.dim, max_size=domain.dim)
        directions = st.lists(_direction_coordinate(), min_size=domain.dim, max_size=domain.dim)
        discs = data.draw(st.lists(st.tuples(coordinates, directions), min_size=1, max_size=8))
        centers = [np.array(c) for c, _ in discs]
        directions = [np.array(d) for _, d in discs]
        batched = domain.certify_affine_discs(centers, directions, rho, max_cells=max_cells)
        assert len(batched) == len(discs)
        for res, center, direction in zip(batched, centers, directions):
            alone = domain.certify_affine_disc(center, direction, rho, max_cells=max_cells)
            assert _result(res) == _result(alone)
            expected, _ = _reference_cover(
                _row_gap(domain._clearances), center, direction, rho, max_cells
            )
            status, witness, calls = expected
            if status is CertStatus.CERTIFIED and domain.membership(center) is not Membership.INSIDE:
                status = CertStatus.INDETERMINATE
            assert _result(res) == (status, witness, calls)

    def test_closed_forms_answer_disc_by_disc(self):
        centers = [np.array([0.1, 0.2j]), np.zeros(2), np.array([0.5, 0.5])]
        directions = [np.array([0.3, 0.0]), np.array([1.2, 0.0]), np.zeros(2)]
        for domain in (unit_ball(2), unit_bidisc(), ProductDomain((unit_disc(), unit_disc()))):
            batched = domain.certify_affine_discs(centers, directions, 0.999, max_cells=64)
            alone = [domain.certify_affine_disc(c, d, 0.999, max_cells=64)
                     for c, d in zip(centers, directions)]
            assert [_result(r) for r in batched] == [_result(r) for r in alone]

    def test_gaps_walk_all_rows_in_one_batch_per_doubling(self, monkeypatch):
        # the walks double 0 to 3 times; the seed itself needs no walk and a
        # row outside none either
        domain = _generic_search_ball()
        points = np.array([[0.95, 0.2j], [0.9, 0.0], [0.5, 0.5j], [0.0, 0.0], [1.1, 0.0],
                           [0.7j, -0.6]])
        batches = _count_clearances(monkeypatch)
        alone = []
        for z in points:
            batches.clear()
            gap = _one_row(domain._gaps, z)
            alone.append((gap, len(batches)))
        batches.clear()
        assert _row_bits(domain._gaps(points)) == [gap for gap, _ in alone]
        assert len(batches) == max(count for _, count in alone) == 4

    def test_cauchy_table_shares_its_clearance_batches(self, monkeypatch):
        batches = _count_clearances(monkeypatch)
        table = cauchy_table(_candidate_c3(), DyadicLadder(40), n=3, depth=40, margin=1e-3)
        assert len(table.rows) == 39
        assert len(batches) <= 12  # 125 with one covering and one walk per disc

    def test_plain_field_still_refuses_non_finite_values(self):
        domain = SublevelDomain(
            field=lambda z: math.nan if z[0].real > 0.5 else norm2(z), level=1.0,
            ambient=Ball(np.zeros(2), 1.0), seed=np.zeros(2), lipschitz=2.0,
        )
        assert domain.contains([0.2, 0.0])
        with pytest.raises(DomainError, match="non-finite"):
            domain.contains([0.7, 0.0])


class TestRememberedCovering:
    def test_a_repeated_center_reuses_its_quadtree(self, monkeypatch):
        batches = _count_clearances(monkeypatch)
        domain = _generic_search_ball()
        center, direction = np.array([0.3, 0.1j]), np.array([0.2, 0.1])
        first = domain.certify_affine_disc(center, direction, 0.999, max_cells=4096)
        batches.clear()
        again = domain.certify_affine_disc(center, direction, 0.999, max_cells=4096)
        assert _result(again) == _result(first)
        assert len(batches) == 1  # 3 with one batch per level and a walk
        batches.clear()
        # the metric upper no longer asks certify_affine_disc: one radial
        # covering and one walk; its upper is at most the 0x1.be1f4218266d7p+0
        # that 30 bisected coverings gave, and at least the truth
        z, v = np.array([0.3 + 0.1j, -0.2j]), np.array([1, 1j])
        metric = infinitesimal_bounds(_generic_search_ball(), z, v)
        assert metric.lower.hex() == "0x1.3ebf72d663a31p+0"
        assert exact_oracles.ball_metric(z, v) <= metric.upper <= float.fromhex("0x1.be1f4218266d7p+0")
        assert len(batches) <= 19  # 110 with 30 bisected coverings

    def test_a_remembered_probe_that_raises_changes_nothing(self):
        # the field is NaN on a tiny patch that only the narrow disc's
        # evaluation at a remembered probe of the wide disc's deepest level
        # hits; the narrow disc's own walk never gets there
        center, wide = np.array([0.3, 0.1j]), np.array([0.5, 0.2])
        narrow = 0.25 * wide
        probe = _generic_search_ball(norm2)
        wide_result = probe.certify_affine_disc(center, wide, 0.999)
        patch = center + probe._last_covering[1][-1].probes[-1] * narrow

        def field(z):
            return math.nan if np.abs(z - patch).max() < 1e-9 else norm2(z)

        fresh = _generic_search_ball(field).certify_affine_disc(center, narrow, 0.999)
        domain = _generic_search_ball(field)
        assert _result(domain.certify_affine_disc(center, wide, 0.999)) == _result(wide_result)
        with pytest.raises(DomainError, match="non-finite"):
            domain._clearances(patch[None])
        assert _result(domain.certify_affine_disc(center, narrow, 0.999)) == _result(fresh)

    def test_equality_and_repr_ignore_it(self):
        field, ambient = psh.norm_squared(1), Ball(np.zeros(1), 1.2)
        used, twin = (
            SublevelDomain(field=field, level=1.0, ambient=ambient, seed=np.zeros(1), lipschitz=2.4)
            for _ in range(2)
        )
        assert used.certify_affine_disc([0.3], [0.2], 0.999).certified
        assert used == twin
        assert repr(used) == repr(twin)


def _pin(res):
    """A CertifyResult as (status, witness in hex, oracle_calls)."""
    witness = None if res.witness is None else f"{res.witness.real.hex()} {res.witness.imag.hex()}"
    return res.status.value, witness, res.oracle_calls


# (center, direction, rho, max_cells) on the generic-search ball, and the
# result each covering gave before its per-level bookkeeping was trimmed
COVERING_PINS = {
    "rho-1": ([0.3, 0.1j], [0.5, 0.2], 1.0, 20000, ("certified", None, 182)),
    "rho-0.999": ([0.3, 0.1j], [0.5, 0.2], 0.999, 20000, ("certified", None, 182)),
    "clamped-rim-certified": ([0.2, 0.1j], [0.3, 0.75j], 1.0, 20000, ("certified", None, 1858)),
    "clamped-rim-rejected": (
        [0.2, 0.1j], [0.85, 0.0], 0.999, 20000,
        ("rejected", "0x1.69ad37d6f3bfep-1 -0x1.69ad37d6f3bfep-1", 31),
    ),
    "near-level-rejected": (
        [0.0, 0.0], [1.6, 0.0], 1.0, 20000,
        ("rejected", "-0x1.0000000000000p-1 -0x1.0000000000000p-1", 3),
    ),
    "cap-cuts-rim-level": ([0.1, 0.0], [0.88, 0.0], 0.999, 1001, ("indeterminate", None, 1000)),
    "cap-cuts-near-level": ([0.1, 0.0], [0.88, 0.0], 1.0, 5, ("indeterminate", None, 4)),
    "zero-speed": ([0.3, 0.1j], [0.0, 0.0], 0.999, 20000, ("certified", None, 1)),
    "zero-speed-outside": (
        [0.9, 0.5j], [0.0, 0.0], 1.0, 20000, ("rejected", "0x0.0p+0 0x0.0p+0", 1)
    ),
    "centre-outside": ([0.9, 0.5j], [0.1, 0.0], 1.0, 20000, ("rejected", "0x0.0p+0 0x0.0p+0", 1)),
}

# eight seeded discs (see _seeded_discs) at each (rho, max_cells)
SEEDED_COVERING_PINS = {
    (1.0, 99): [
        ("indeterminate", None, 98),
        ("certified", None, 60),
        ("indeterminate", None, 98),
        ("rejected", "0x1.6a09e667f3bcdp-1 0x1.6a09e667f3bcdp-1", 41),
        ("rejected", "-0x1.6a09e667f3bcdp-1 0x1.6a09e667f3bcdp-1", 21),
        ("rejected", "-0x1.0000000000000p-1 0x1.0000000000000p-1", 5),
        ("certified", None, 98),
        ("rejected", "0x1.6a09e667f3bcdp-1 -0x1.6a09e667f3bcdp-1", 31),
    ],
    (1.0, 20000): [
        ("rejected", "0x1.29980d726b54ep-1 0x1.a0a1ac6cfcaa0p-1", 151),
        ("certified", None, 60),
        ("certified", None, 244),
        ("rejected", "0x1.6a09e667f3bcdp-1 0x1.6a09e667f3bcdp-1", 41),
        ("rejected", "-0x1.6a09e667f3bcdp-1 0x1.6a09e667f3bcdp-1", 21),
        ("rejected", "-0x1.0000000000000p-1 0x1.0000000000000p-1", 5),
        ("certified", None, 98),
        ("rejected", "0x1.6a09e667f3bcdp-1 -0x1.6a09e667f3bcdp-1", 31),
    ],
    (0.999, 99): [
        ("indeterminate", None, 98),
        ("certified", None, 60),
        ("indeterminate", None, 98),
        ("rejected", "0x1.69ad37d6f3bfep-1 0x1.69ad37d6f3bfep-1", 41),
        ("rejected", "-0x1.69ad37d6f3bfep-1 0x1.69ad37d6f3bfep-1", 21),
        ("rejected", "-0x1.ff7ced916872bp-2 0x1.ff7ced916872bp-2", 5),
        ("certified", None, 98),
        ("rejected", "0x1.69ad37d6f3bfep-1 -0x1.69ad37d6f3bfep-1", 31),
    ],
    (0.999, 20000): [
        ("rejected", "0x1.294bde545a540p-1 0x1.a037040fb1a8dp-1", 151),
        ("certified", None, 60),
        ("certified", None, 244),
        ("rejected", "0x1.69ad37d6f3bfep-1 0x1.69ad37d6f3bfep-1", 41),
        ("rejected", "-0x1.69ad37d6f3bfep-1 0x1.69ad37d6f3bfep-1", 21),
        ("rejected", "-0x1.ff7ced916872bp-2 0x1.ff7ced916872bp-2", 5),
        ("certified", None, 98),
        ("rejected", "0x1.69ad37d6f3bfep-1 -0x1.69ad37d6f3bfep-1", 31),
    ],
}


def _seeded_discs():
    rng = np.random.Generator(np.random.Philox(key=35))
    discs = []
    for _ in range(8):
        c, d = rng.uniform(-0.5, 0.5, size=4), rng.uniform(-0.45, 0.45, size=4)
        discs.append((c[:2] + 1j * c[2:], d[:2] + 1j * d[2:]))
    return discs


class TestCoveringPins:
    """Coverings keep every bit: status, witness and charge, pinned in hex.

    The named discs cover rho = 1 and 0.999, levels whose cells all lie in
    the parameter disc and levels with rim cells clamped onto it, rejections
    on either kind, caps that cut either kind, and zero-speed discs.
    """

    @pytest.mark.parametrize("name", sorted(COVERING_PINS))
    def test_named_disc(self, name):
        center, direction, rho, max_cells, expected = COVERING_PINS[name]
        res = _generic_search_ball().certify_affine_disc(
            np.array(center, dtype=complex), np.array(direction, dtype=complex), rho,
            max_cells=max_cells,
        )
        assert _pin(res) == expected

    @pytest.mark.parametrize("rho, max_cells", sorted(SEEDED_COVERING_PINS))
    def test_seeded_discs_alone_and_together(self, rho, max_cells):
        discs = _seeded_discs()
        expected = SEEDED_COVERING_PINS[rho, max_cells]
        alone = [
            _pin(_generic_search_ball().certify_affine_disc(c, d, rho, max_cells=max_cells))
            for c, d in discs
        ]
        assert alone == expected
        together = _generic_search_ball().certify_affine_discs(
            [c for c, _ in discs], [d for _, d in discs], rho, max_cells=max_cells
        )
        assert [_pin(res) for res in together] == expected


class TestHugeBall:
    """A ball past 2^500 measures its offsets in units of a power of two."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_inside_points_of_a_huge_ball(self, dim):
        ball = Ball(np.zeros(dim), 1e160)
        z = np.zeros(dim)
        z[0] = -0.5e160
        # the suite turns the overflow RuntimeWarning of the squares into an error
        assert ball.contains(z)
        assert abs(ball.boundary_distance(z) - 0.5e160) <= 4 * math.ulp(0.5e160)

    @settings(max_examples=200, deadline=None)
    @given(
        center=st.lists(_complex_in(10.0), min_size=2, max_size=2),
        radius=st.floats(1e-3, 2.0**500),
        rows=st.lists(st.lists(_complex_in(20.0), min_size=2, max_size=2), min_size=1,
                      max_size=5),
    )
    def test_an_ordinary_ball_keeps_its_bits(self, center, radius, rows):
        ball = Ball(np.array(center), radius)
        points = np.array(rows)
        # the formula before the scale, kept here for reference
        offsets = points - ball.center
        re, im = offsets.real, offsets.imag
        norms = np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])
        reference = radius - norms
        reference[reference <= 0] = math.nan
        assert [g.hex() for g in ball._gaps(points)] == [g.hex() for g in reference]


class GapsOnlyBall(DomainOracle):
    """The unit ball of C^2 through ``_gaps`` and ``enclosing_ball`` alone."""

    dim = 2

    def _gaps(self, points):
        return unit_ball(2)._gaps(points)

    def enclosing_ball(self):
        return np.zeros(2, dtype=complex), 1.0


def _bisected_upper(domain, z, v):
    """The metric upper that the centred search gave before the radial
    covering, kept here for reference: halving from the boundary distance,
    doubling and bisection to 1e-8, each radius one covering of 2048 calls
    on parameter radius 1 - 1e-9."""
    rho = 1.0 - 1e-9
    unit, speed = _split_direction(v)

    def certified(r):
        return domain.certify_affine_disc(z, r * unit, rho, max_cells=2048).certified

    lo = domain.boundary_distance(z) * 0.5
    while not certified(lo):
        lo *= 0.5
    hi = lo * 2.0
    while certified(hi):
        lo, hi = hi, hi * 2.0
    while hi - lo > 1e-8 * lo:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if certified(mid) else (lo, mid)
    return speed * (1.0 / (lo * rho))


def _ball_point(data, dim, top):
    """A point of the ball of radius ``top`` about 0 in C^dim and a direction."""
    def vector():
        parts = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * dim, max_size=2 * dim))
        return np.array(parts[:dim]) + 1j * np.array(parts[dim:])

    at, v = vector(), vector()
    assume(np.linalg.norm(at) > 1e-3 and v.any())
    return data.draw(st.floats(0.0, top)) * at / np.linalg.norm(at), v


def _unit_ball_point(rng, dim):
    """A point of the unit sphere of C^dim."""
    x = rng.normal(size=2 * dim)
    x /= np.linalg.norm(x)
    return x[:dim] + 1j * x[dim:]


class TestRadialCovering:
    """The metric upper of a covering oracle comes from one radial covering."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sound_on_the_sublevel_ball(self, data):
        z, v = _ball_point(data, 2, 0.999)
        assert infinitesimal_bounds(_generic_search_ball(), z, v).upper >= exact_oracles.ball_metric(z, v)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_sound_on_the_c3_candidate(self, data):
        z, v = _ball_point(data, 3, 0.9)
        domain = CERTIFY_DOMAINS["candidate-c3"]
        assume(domain.contains(z))
        assert infinitesimal_bounds(domain, z, v).upper >= exact_oracles.ball_metric(z, v)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sound_over_gaps_alone(self, data):
        # the default certified_radius: one radial covering over _gaps
        z, v = _ball_point(data, 2, 0.999)
        assert infinitesimal_bounds(GapsOnlyBall(), z, v).upper >= exact_oracles.ball_metric(z, v)

    @pytest.mark.parametrize("scale", [0.0, 0.5, 0.9, 0.999])
    def test_rows_within_the_cap(self, monkeypatch, scale):
        batches = _count_clearances(monkeypatch)
        rng = np.random.Generator(np.random.Philox(key=43))
        for _ in range(4):
            z = scale * _unit_ball_point(rng, 2)
            batches.clear()
            infinitesimal_bounds(_generic_search_ball(), z, _unit_ball_point(rng, 2))
            assert sum(batches) <= METRIC_CELLS

    def test_bits_do_not_depend_on_what_was_asked_before(self):
        center, direction = np.array([0.3, 0.1j]), np.array([0.6, 0.8])
        fresh = _generic_search_ball().certified_radius(center, direction, METRIC_CELLS)
        domain = _generic_search_ball()
        domain.certify_affine_disc(center, 0.2 * direction, 0.999)
        domain.certified_radius(np.array([-0.2, 0.4]), direction, METRIC_CELLS)
        domain.certified_radius(center, direction, 64)
        assert domain.certified_radius(center, direction, METRIC_CELLS).hex() == fresh.hex()

    def test_a_probed_nan_patch_raises(self, monkeypatch):
        # the field is NaN on a tiny patch around a point the covering probes:
        # the covering's own error, as a covering that probes there raises
        center, direction = np.array([0.3, 0.1j]), np.array([0.6, 0.8])
        batches = []
        original = SublevelDomain._clearances

        def recorded(self, points):
            batches.append(points)
            return original(self, points)

        monkeypatch.setattr(SublevelDomain, "_clearances", recorded)
        _generic_search_ball().certified_radius(center, direction, METRIC_CELLS)
        monkeypatch.undo()
        patch = batches[len(batches) // 2][-1]

        def field(z):
            return math.nan if np.abs(z - patch).max() < 1e-9 else norm2(z)

        with pytest.raises(DomainError, match="non-finite"):
            _generic_search_ball(field).certified_radius(center, direction, METRIC_CELLS)

    def test_no_looser_than_the_bisection(self):
        rng = np.random.Generator(np.random.Philox(key=47))
        for k in range(10):
            z = (0.1 * k) * _unit_ball_point(rng, 2)
            v = _unit_ball_point(rng, 2)
            domain = _generic_search_ball()
            assert infinitesimal_bounds(domain, z, v).upper <= _bisected_upper(domain, z, v)

    def test_a_center_off_the_seed_component_gives_zero(self):
        # {min |z -+ 1.5| < 1/2}: the right disc is in the raw sublevel set,
        # but not in the seed's component
        domain = SublevelDomain(
            field=two_wells(1.5), level=0.5, ambient=Ball(np.zeros(1), 3.0),
            seed=np.array([-1.5]), lipschitz=1.0,
        )
        assert domain.certified_radius(np.array([-1.5]), np.array([1.0]), METRIC_CELLS) > 0.4
        assert domain.certified_radius(np.array([1.5]), np.array([1.0]), METRIC_CELLS) == 0.0
        assert domain.certified_radius(np.array([0.0]), np.array([1.0]), METRIC_CELLS) == 0.0
