"""Chain curves, the almost-geodesic checker, and visibility sampling."""

import math

import numpy as np
import pytest

from exact_oracles import ball_distance as oracle_ball
from exact_oracles import polydisc_distance as oracle_polydisc
from koblab import geodesics, kobayashi
from koblab.curves import SampledCurve, concatenate
from koblab.domains import (
    Ball,
    DimensionMismatchError,
    PointOutsideDomainError,
    Polydisc,
    unit_ball,
    unit_bidisc,
)
from koblab.geodesics import (
    build_chain_curve,
    check_almost_geodesic,
    sample_cap_points,
    visibility_experiment,
)
from koblab.kobayashi import (
    AnalyticDisc,
    ChainLink,
    DiscChain,
    UncertifiedDiscError,
    chain_upper_bound,
    estimate_distance,
)
from koblab.ladder import DyadicLadder
from koblab.poincare import geodesic_point, poincare_distance


def coordinate_disc_chain(zeta_in=0.0, zeta_out=0.5):
    disc = AnalyticDisc([0.0, 0.0], [1.0 - 1e-9, 0.0])
    return DiscChain(links=(ChainLink(disc, zeta_in, zeta_out),))


def euclidean_segment():
    """The ball's diameter at Euclidean speed: far too slow near the boundary."""
    ts = np.linspace(0.0, 1.8, 40)
    pts = np.stack([(-0.9 + ts).astype(complex), np.zeros(40, complex)], axis=1)
    return SampledCurve(ts, pts)


def _unit_phase(rng):
    theta = rng.uniform(0, 2 * math.pi)
    return complex(math.cos(theta), math.sin(theta))


def random_geodesic_chain(rng):
    """Certified single-disc chain that is genuinely geodesic in the bidisc.

    The first coordinate sweeps (almost) the full disc while the second stays
    a strict contraction of it, so the parameter distance is realized by the
    first-coordinate projection.
    """
    rho = 1.0 - 1e-9
    phase = _unit_phase(rng)
    z2c = 0.55 * math.sqrt(rng.uniform()) * _unit_phase(rng)
    gamma_cap = min(0.3, (1.0 - abs(z2c)) * 0.8)
    gamma = rng.uniform(0.05, gamma_cap) * _unit_phase(rng)
    disc = AnalyticDisc([0.0, z2c], rho * phase * np.array([1.0, gamma]))
    while True:
        zin = 0.75 * math.sqrt(rng.uniform()) * _unit_phase(rng)
        zout = 0.75 * math.sqrt(rng.uniform()) * _unit_phase(rng)
        if 0.3 <= poincare_distance(zin, zout) <= 2.0:
            return DiscChain(links=(ChainLink(disc, zin, zout),))


def cut_chain(rng, chain, pieces, bend=False):
    """The chain's one link cut into ``pieces`` links at points of its geodesic.

    With ``bend`` (for ``random_geodesic_chain``'s bidisc discs) each later
    link keeps the first coordinate's direction and takes a fresh second
    coordinate slope through the joint: still geodesic in the bidisc, since
    the first coordinate realizes the distance and the second contracts.
    """
    (link,) = chain.links
    total = poincare_distance(link.zeta_in, link.zeta_out)
    cuts = [geodesic_point(link.zeta_in, link.zeta_out, s)
            for s in np.sort(rng.uniform(0.1, 0.9, pieces - 1)) * total]
    params = [link.zeta_in, *cuts, link.zeta_out]
    disc, links = link.disc, []
    for zin, zout in zip(params, params[1:]):
        links.append(ChainLink(disc, zin, zout))
        if bend:
            # |zout| <= 0.75, so the new disc's second coordinate stays
            # within |joint| + 1.75 |slope| < 1 of 0 on the closed disc
            joint = disc.at(zout)
            slope = 0.5 * (1.0 - abs(joint[1])) / 1.75 * _unit_phase(rng)
            direction = disc.direction[0] * np.array([1.0, slope])
            disc = AnalyticDisc(joint - zout * direction, direction)
    return DiscChain(links=tuple(links))


def ball_geodesic_chain(rng):
    """The estimator's slice-disc chain between two random points of B^2."""
    ball = unit_ball(2)
    while True:
        z, w = 0.9 * ball.sample_point(rng), 0.9 * ball.sample_point(rng)
        chain = estimate_distance(ball, z, w).chain
        if 0.3 <= chain_upper_bound(ball, chain, margin=0.0) <= 3.0:
            return chain


class TestBuildChainCurve:
    def test_embedded_disc_geodesic(self):
        chain = coordinate_disc_chain()
        curve = build_chain_curve(unit_bidisc(), chain, 200)
        assert curve.param_length == pytest.approx(0.5493061443340549, abs=1e-8)
        assert np.all(curve.points[:, 1] == 0)

    def test_ladder_chain_inside_segments(self):
        ladder = DyadicLadder(3)
        a0, a1, b0 = float(ladder.a(1)), float(ladder.a(2)), float(ladder.b(1))
        disc = AnalyticDisc([0.0, -a0 * a1], [b0, b0 * (a1 + a0)])
        chain = DiscChain(links=(ChainLink(disc, 0.25, 0.0625),))
        curve = build_chain_curve(unit_bidisc(), chain, 300)
        assert curve.param_length == pytest.approx(0.19283124040599234, abs=1e-9)
        seg = ladder.segment(1)
        slope, intercept = float(seg.slope), float(seg.intercept)
        for z1, z2 in curve.points:
            assert abs(z2 - (slope * z1 + intercept)) < 1e-15
            assert abs(z1) < float(seg.radius)

    def test_degenerate_link_is_constant(self):
        chain = coordinate_disc_chain(0.3, 0.3)
        curve = build_chain_curve(unit_bidisc(), chain, 50)
        assert curve.size == 1 and curve.param_length == 0.0

    def test_length_matches_chain_cost(self):
        rng = np.random.Generator(np.random.Philox(key=23))
        for _ in range(5):
            chain = random_geodesic_chain(rng)
            curve = build_chain_curve(unit_bidisc(), chain, 1000)
            cost = chain_upper_bound(unit_bidisc(), chain, margin=0.0)
            assert abs(curve.param_length - cost) <= 1e-9

    def test_samples_are_the_disc_points(self):
        # each link's samples are disc.at of its geodesic's parameters, bit
        # for bit, with the link's own endpoints at both ends
        rng = np.random.Generator(np.random.Philox(key=31))
        for _ in range(5):
            chain = random_geodesic_chain(rng)
            curve = build_chain_curve(unit_bidisc(), chain, 120)
            link = chain.links[0]
            inner = geodesics.disc_geodesic(link.zeta_in, link.zeta_out, 120)
            expected = np.array([link.disc.at(zeta) for zeta in inner.points[:, 0]])
            expected[0], expected[-1] = link.start, link.end
            assert curve.points.tobytes() == expected.tobytes()

    def test_records_its_chain(self):
        # every sample is its link's disc at its parameter, bit for bit; a
        # joint sample belongs to the link it ends
        rng = np.random.Generator(np.random.Philox(key=37))
        chain = cut_chain(rng, random_geodesic_chain(rng), 3, bend=True)
        curve = build_chain_curve(unit_bidisc(), chain, 40)
        recorded, link, zeta = curve.chain_samples
        assert recorded is chain and link.shape == zeta.shape == curve.params.shape
        assert link.tolist() == [0] * 40 + [1] * 39 + [2] * 39
        for i, point in enumerate(curve.points):
            assert point.tobytes() == chain.links[link[i]].disc.at(zeta[i]).tobytes()
        assert [zeta[39], zeta[78]] == [chain.links[0].zeta_out, chain.links[1].zeta_out]
        assert curve.shifted(5.0).chain_samples is curve.chain_samples
        # only build_chain_curve records a chain
        assert SampledCurve(curve.params, curve.points).chain_samples is None
        halves = [build_chain_curve(unit_bidisc(), DiscChain(links=part), 40)
                  for part in (chain.links[:1], chain.links[1:])]
        assert concatenate(halves).chain_samples is None

    def test_uncertified_chain_rejected(self):
        disc = AnalyticDisc([0.0, 0.0], [2.0, 0.0])
        chain = DiscChain(links=(ChainLink(disc, 0.0, 0.4),))
        with pytest.raises(UncertifiedDiscError):
            build_chain_curve(unit_bidisc(), chain, 50)


class TestChecker:
    def test_embedded_geodesic_passes_small_kappa(self):
        curve = build_chain_curve(unit_bidisc(), coordinate_disc_chain(), 200)
        verdict = check_almost_geodesic(unit_bidisc(), curve, lam=1.0, kappa=0.01, seed=1)
        assert verdict.overall == "pass"

    def test_verdict_records_max_delta(self):
        domain = unit_bidisc()
        curve = build_chain_curve(domain, coordinate_disc_chain(), 200)
        verdict = check_almost_geodesic(domain, curve, lam=1.0, kappa=0.01, seed=1)
        assert verdict.max_delta.hex() == float(max(domain._gaps(curve.points))).hex()
        # a one-sample curve is checked for nothing but still has its depth
        point = SampledCurve(np.array([0.0]), np.array([[0.1, 0.25j]]))
        verdict = check_almost_geodesic(domain, point, 1.0, 0.1)
        assert verdict.max_delta == 0.75
        # no checks are no evidence: not a pass
        assert verdict.condition_a == verdict.condition_b == ()
        assert verdict.overall == "indeterminate"

    def test_zero_kappa_is_indeterminate_not_fail(self):
        curve = build_chain_curve(unit_bidisc(), coordinate_disc_chain(), 200)
        verdict = check_almost_geodesic(unit_bidisc(), curve, lam=1.0, kappa=0.0, seed=1)
        assert verdict.overall == "indeterminate"
        statuses = {c.status for c in verdict.condition_a}
        assert "fail" not in statuses
        assert "indeterminate" in statuses

    def test_euclidean_segment_certified_fail(self):
        curve = euclidean_segment()
        verdict = check_almost_geodesic(unit_ball(2), curve, lam=1.0, kappa=0.1, seed=2)
        assert verdict.overall == "fail"
        certified = [c for c in verdict.condition_a if c.status == "fail"]
        assert certified  # the whole bracket exits the band somewhere

    @pytest.mark.parametrize(
        "lam, kappa",
        [(math.nan, 0.1), (1.0, math.nan), (1.0, math.inf), (math.inf, 0.1)],
        ids=["lam-nan", "kappa-nan", "kappa-inf", "lam-inf"],
    )
    def test_non_finite_parameters_rejected(self, lam, kappa):
        with pytest.raises(ValueError, match="finite"):
            check_almost_geodesic(unit_ball(2), euclidean_segment(), lam, kappa)

    def test_parameter_shift_invariance(self):
        curve = build_chain_curve(unit_bidisc(), coordinate_disc_chain(), 150)
        shifted = curve.shifted(5.0)
        v1 = check_almost_geodesic(unit_bidisc(), curve, 1.0, 0.05, seed=3)
        v2 = check_almost_geodesic(unit_bidisc(), shifted, 1.0, 0.05, seed=3)
        assert [c.status for c in v1.condition_a] == [c.status for c in v2.condition_a]
        assert [c.status for c in v1.condition_b] == [c.status for c in v2.condition_b]
        assert v1.overall == v2.overall

    def test_pipeline_soundness_no_false_fails(self):
        # curves built from certified geodesic chains at kappa comfortably
        # above bracket width plus stitching slack must never fail
        rng = np.random.Generator(np.random.Philox(key=29))
        for trial in range(20):
            chain = random_geodesic_chain(rng)
            curve = build_chain_curve(unit_bidisc(), chain, 120)
            verdict = check_almost_geodesic(
                unit_bidisc(), curve, lam=1.0, kappa=0.05, seed=trial, pair_samples=12
            )
            assert verdict.overall == "pass"

    def test_curve_outside_domain_rejected(self):
        ts = np.array([0.0, 1.0])
        pts = np.array([[0.0 + 0j, 0.0], [1.5 + 0j, 0.0]])
        with pytest.raises(PointOutsideDomainError, match="curve leaves the domain"):
            check_almost_geodesic(unit_bidisc(), SampledCurve(ts, pts), 1.0, 0.1)

    def test_curve_dimension_checked(self):
        # a one-sample curve in C^1 on the bidisc: no pair or speed check
        # would reach the point, so only the explicit check catches it
        curve = SampledCurve(np.array([0.0]), np.array([[0.1 + 0j]]))
        with pytest.raises(DimensionMismatchError):
            check_almost_geodesic(unit_bidisc(), curve, 1.0, 0.1)


class TestChainBracket:
    """A chain curve's pairs are bracketed by its own certified chain."""

    @pytest.mark.parametrize("pieces", [1, 3])
    @pytest.mark.parametrize("kappa", [0.05, 0.0])
    @pytest.mark.parametrize("name", ["bidisc", "ball"])
    def test_same_verdicts_as_the_chainless_copy(self, monkeypatch, name, kappa, pieces):
        distances = _counting(monkeypatch, "estimate_distance")
        if name == "bidisc":
            domain, oracle, key = unit_bidisc(), oracle_polydisc, 41
        else:
            domain, oracle, key = unit_ball(2), oracle_ball, 43
        rng = np.random.Generator(np.random.Philox(key=key))
        for trial in range(4):
            if name == "bidisc":
                chain = cut_chain(rng, random_geodesic_chain(rng), pieces, bend=True)
            else:
                chain = cut_chain(rng, ball_geodesic_chain(rng), pieces)
            curve = build_chain_curve(domain, chain, 40)
            copy = SampledCurve(curve.params, curve.points)
            distances.clear()
            verdict = check_almost_geodesic(domain, curve, 1.0, kappa, seed=trial)
            searched = len(distances)
            plain = check_almost_geodesic(domain, copy, 1.0, kappa, seed=trial)
            assert [(c.s, c.t, c.lower.hex(), c.status) for c in verdict.condition_a] == [
                (c.s, c.t, c.lower.hex(), c.status) for c in plain.condition_a
            ]
            assert verdict.condition_b == plain.condition_b
            if kappa > 0:
                # every pair took its sub-chain's cost, which is the length
                # of the curve between the two samples, and none searched
                assert verdict.overall == "pass" and searched == 0
                for check in verdict.condition_a:
                    assert abs(check.upper - (check.t - check.s)) <= 1e-12
            for check in verdict.condition_a:
                i, j = np.searchsorted(curve.params, [check.s, check.t])
                assert check.upper >= oracle(curve.points[i], curve.points[j])

    def test_passing_chain_curve_runs_no_search(self, monkeypatch):
        distances = _counting(monkeypatch, "estimate_distance")
        rng = np.random.Generator(np.random.Philox(key=47))
        curve = build_chain_curve(unit_bidisc(), random_geodesic_chain(rng), 120)
        for candidate in (curve, curve.shifted(5.0)):
            verdict = check_almost_geodesic(unit_bidisc(), candidate, 1.0, 0.05, seed=3)
            assert verdict.overall == "pass" and len(verdict.condition_a) == 24
        assert distances == []

    def test_each_pair_takes_one_lower(self, monkeypatch):
        # the zero-kappa curve's pairs whose sub-chain cost fits the band
        # but whose lower misses it search from the lower already in hand;
        # asking estimate_distance afresh, as the checker once did, gives
        # the same checks for 11 more lower bounds
        lowers = []
        inner = kobayashi.lower_bound

        def counted(*args):
            lowers.append(args)
            return inner(*args)

        monkeypatch.setattr(kobayashi, "lower_bound", counted)
        monkeypatch.setattr(geodesics, "lower_bound", counted)
        curve = build_chain_curve(unit_bidisc(), coordinate_disc_chain(), 200)

        def checks():
            lowers.clear()
            verdict = check_almost_geodesic(unit_bidisc(), curve, lam=1.0, kappa=0.0, seed=1)
            return [
                (c.s, c.t, c.lower.hex(), None if c.upper is None else c.upper.hex(), c.status)
                for c in verdict.condition_a
            ], len(lowers)

        once, count = checks()
        assert len(once) == 24 and count == 24

        def afresh(domain, z, w, low, low_cert, budget, margin):
            return estimate_distance(domain, z, w, budget=budget, margin=margin)

        monkeypatch.setattr(geodesics, "_bracket_from_lower", afresh)
        assert checks() == (once, 35)

    def test_chain_not_certified_in_the_checked_domain(self):
        # the samples stay in the smaller polydisc, but the chain's disc
        # reaches past it, so its costs bracket nothing there, though they
        # exceed most of the polydisc's distances and fit the wide band
        small = Polydisc(np.array([0.3, 0.0]), [0.7, 1.0])
        disc = AnalyticDisc([0.0, 0.0], [0.5, 0.0])
        chain = DiscChain(links=(ChainLink(disc, 0.0, 0.45), ChainLink(disc, 0.45, 0.9)))
        curve = build_chain_curve(unit_bidisc(), chain, 60)
        with pytest.raises(UncertifiedDiscError):
            chain_upper_bound(small, chain, margin=0.0)
        copy = SampledCurve(curve.params, curve.points)
        for seed in range(3):
            verdict = check_almost_geodesic(small, curve, 1.0, 1.0, seed=seed)
            assert verdict == check_almost_geodesic(small, copy, 1.0, 1.0, seed=seed)


def _counting(monkeypatch, name):
    """Replace ``koblab.geodesics.<name>`` with a wrapper that counts its calls."""
    calls = []
    inner = getattr(geodesics, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(geodesics, name, counted)
    return calls


class TestFirstViolation:
    """A FAIL verdict ends at its first certified violation."""

    def test_control_segment_stops_at_its_first_pair(self, monkeypatch):
        distances = _counting(monkeypatch, "estimate_distance")
        speeds = _counting(monkeypatch, "infinitesimal_bounds")
        verdict = check_almost_geodesic(unit_ball(2), euclidean_segment(), 1.0, 0.1, seed=2)
        statuses = [c.status for c in verdict.condition_a]
        assert verdict.overall == "fail"
        assert statuses == ["fail"] and verdict.condition_b == ()
        assert (len(distances), len(speeds)) == (1, 0)

    def test_fail_in_condition_b_stops_there(self):
        curve = euclidean_segment()
        verdict = check_almost_geodesic(unit_ball(2), curve, 1.0, 2.0, seed=2)
        assert verdict.overall == "fail"
        assert len(verdict.condition_a) == 24
        assert "fail" not in {c.status for c in verdict.condition_a}
        statuses = [c.status for c in verdict.condition_b]
        assert statuses[-1] == "fail" and "fail" not in statuses[:-1]

    def test_a_fail_is_a_prefix_of_the_full_plan(self):
        # the plan depends on the seed and the curve only, so the same seed
        # at parameters that fail nothing runs the whole plan
        curve, ball = euclidean_segment(), unit_ball(2)
        pair_fail = check_almost_geodesic(ball, curve, 1.0, 0.1, seed=2)
        speed_fail = check_almost_geodesic(ball, curve, 1.0, 2.0, seed=2)
        full = check_almost_geodesic(ball, curve, 10.0, 2.0, seed=2)
        assert full.overall != "fail" and len(full.condition_b) == 12

        def brackets(checks):
            return [(c.s, c.t, c.lower.hex(), c.upper.hex()) for c in checks]

        assert brackets(pair_fail.condition_a) == brackets(full.condition_a[:1])
        assert brackets(speed_fail.condition_a) == brackets(full.condition_a)
        n = len(speed_fail.condition_b)
        assert [(c.t, c.lower.hex(), c.upper.hex()) for c in speed_fail.condition_b] == [
            (c.t, c.lower.hex(), c.upper.hex()) for c in full.condition_b[:n]
        ]
        for v in (pair_fail, speed_fail):
            assert v.max_delta.hex() == full.max_delta.hex()

    @pytest.mark.parametrize("kappa", [0.1, 2.0])
    def test_pair_checks_are_the_estimators_brackets(self, kappa):
        curve, ball, margin = euclidean_segment(), unit_ball(2), 5e-4
        verdict = check_almost_geodesic(ball, curve, 1.0, kappa, seed=2, margin=margin)
        for check in verdict.condition_a:
            i, j = np.searchsorted(curve.params, [check.s, check.t])
            est = estimate_distance(
                ball, curve.points[i], curve.points[j],
                budget=geodesics.PAIR_BUDGET, margin=margin,
            )
            assert (check.lower.hex(), check.upper.hex()) == (est.lower.hex(), est.upper.hex())


class TestVisibility:
    def test_diameter_curve_reaches_center(self):
        # the geodesic through antipodal-ish points passes through the middle
        chain_est_points = ([-0.9, 0.0], [0.9, 0.0])
        from koblab.kobayashi import estimate_distance

        est = estimate_distance(unit_ball(2), *chain_est_points)
        curve = build_chain_curve(unit_ball(2), est.chain, 201)
        deltas = [unit_ball(2).boundary_distance(p) for p in curve.points]
        assert max(deltas) >= 0.999

    def test_experiment_on_ball(self):
        report = visibility_experiment(
            unit_ball(2), [1.0, 0.0], [-1.0, 0.0], r_nbhd=0.05,
            n_curves=12, seed=0, kappa=0.2,
        )
        assert report.passing >= 10
        assert report.epsilon_star is not None and report.epsilon_star >= 0.3
        doc = report.to_json_dict()
        assert doc["passing"] == report.passing
        assert len(doc["curves"]) == 12

    def test_passing_curve_clearances_asked_once(self, monkeypatch):
        # the row's max_delta is the checker's, from its one curve-point batch
        curves, batches = [], []
        build, gaps = geodesics.build_chain_curve, Ball._gaps

        def recorded_build(*args):
            curves.append(build(*args))
            return curves[-1]

        def recorded_gaps(self, points):
            batches.append(points)
            return gaps(self, points)

        monkeypatch.setattr(geodesics, "build_chain_curve", recorded_build)
        monkeypatch.setattr(Ball, "_gaps", recorded_gaps)
        report = visibility_experiment(
            unit_ball(2), [1.0, 0.0], [-1.0, 0.0], r_nbhd=0.05, n_curves=1, seed=0, kappa=0.2,
        )
        (row,), (curve,) = report.rows, curves
        assert row.verdict == "pass"
        on_curve = [p for p in batches if p.shape == curve.points.shape
                    and np.array_equal(p, curve.points)]
        assert len(on_curve) == 1
        assert row.max_delta.hex() == float(np.max(gaps(unit_ball(2), curve.points))).hex()

    def test_rejects_overlapping_caps(self):
        with pytest.raises(ValueError):
            visibility_experiment(unit_ball(2), [1.0, 0.0], [1.0, 0.0], r_nbhd=0.05)
        with pytest.raises(ValueError):
            visibility_experiment(unit_ball(2), [1.0, 0.0], [0.95, 0.0], r_nbhd=0.05)

    def test_epsilon_star_antitone_in_radius(self):
        # shared stream scale makes the smaller-radius family a subfamily
        domain = unit_ball(2)
        reports = {}
        for r in (0.03, 0.08):
            reports[r] = visibility_experiment(
                domain, [1.0, 0.0], [-1.0, 0.0], r_nbhd=r, r_cap=0.08,
                n_curves=6, seed=5, kappa=0.2,
            )
        small, large = reports[0.03], reports[0.08]
        assert small.epsilon_star is not None and large.epsilon_star is not None
        assert small.epsilon_star >= large.epsilon_star - 1e-12

    @pytest.mark.parametrize(
        "r_nbhd, r_cap",
        [(0.0, None), (-0.05, None), (math.nan, None), (math.inf, None),
         (0.05, math.nan), (0.05, math.inf), (0.05, 0.04)],
    )
    def test_bad_cap_radii_rejected_before_any_draw(self, monkeypatch, r_nbhd, r_cap):
        draws = _counting(monkeypatch, "_unit_ball_sample")
        rng = np.random.Generator(np.random.Philox(key=0))
        with pytest.raises(ValueError, match="r_nbhd|r_cap"):
            sample_cap_points(unit_ball(2), [1.0, 0.0], r_nbhd, 2, rng, r_cap=r_cap)
        with pytest.raises(ValueError, match="r_nbhd|r_cap"):
            visibility_experiment(
                unit_ball(2), [1.0, 0.0], [-1.0, 0.0], r_nbhd=r_nbhd, r_cap=r_cap, n_curves=2,
            )
        assert draws == []

    def test_cap_sampling_nested(self):
        # identical streams: the small-radius accepts are a subset of the
        # large-radius accepts, provided the large run reads at least as far
        domain = unit_ball(2)
        rng1 = np.random.Generator(np.random.Philox(key=9))
        rng2 = np.random.Generator(np.random.Philox(key=9))
        big = sample_cap_points(domain, [1.0, 0.0], 0.08, 400, rng1, r_cap=0.08)
        small = sample_cap_points(domain, [1.0, 0.0], 0.05, 5, rng2, r_cap=0.08)
        big_set = {tuple(np.round(p, 12)) for p in big}
        assert all(tuple(np.round(p, 12)) in big_set for p in small)
