"""Distance brackets: chain certificates, closed-form lower bounds, tables.

Independent oracles used here: the disc half-log formula, the ball
automorphism formula and the product (max) formula for polydiscs, evaluated
at 50 decimal digits in `exact_oracles` (tests/exact_oracles.py), which
shares no code with koblab.
"""

import math

import numpy as np
import pytest

from koblab.cli import emit_plot_data, parse_config, run
from koblab.domains import (
    Ball,
    Polydisc,
    PointOutsideDomainError,
    ProductDomain,
    SublevelDomain,
    unit_ball,
    unit_bidisc,
    unit_disc,
)
from koblab.kobayashi import (
    AnalyticDisc,
    CauchyMembershipError,
    ChainLink,
    DiscChain,
    EstimationError,
    SliceHypothesisError,
    UncertifiedDiscError,
    ball_distance,
    cauchy_table,
    chain_upper_bound,
    disc_in_domain,
    estimate_distance,
    infinitesimal_bounds,
    lower_bound,
    search_upper_bound,
    slice_identity_check,
)
from koblab.ladder import DyadicLadder, chain_term_table

import exact_oracles
from exact_oracles import disc_distance as oracle_disc


# Named wrappers rather than aliases: parametrized test IDs carry these names.
def oracle_ball(z, w):
    return exact_oracles.ball_distance(z, w)


def oracle_polydisc(z, w):
    return exact_oracles.polydisc_distance(z, w)


def ladder_disc(nu, n=2):
    lad = DyadicLadder(max(nu + 1, 2))
    a0, a1, b0 = float(lad.a(nu)), float(lad.a(nu + 1)), float(lad.b(nu))
    center = np.zeros(n, complex)
    center[1] = -a0 * a1
    direction = np.zeros(n, complex)
    direction[0] = b0
    direction[1] = b0 * (a1 + a0)
    return AnalyticDisc(center=center, direction=direction), float(lad.b(nu)), float(lad.b(nu)) / 4


class TestDiscInDomain:
    def test_small_disc_certified(self):
        disc = AnalyticDisc([0.0, 0.0], [0.5, 0.0])
        assert disc_in_domain(disc, unit_bidisc(), margin=0.01).certified

    def test_large_disc_rejected_with_witness(self):
        disc = AnalyticDisc([0.0, 0.0], [1.2, 0.0])
        res = disc_in_domain(disc, unit_bidisc(), margin=0.01)
        assert res.rejected
        assert abs(res.witness) >= 1 / 1.2 - 1e-9
        assert not unit_bidisc().contains(disc.at(res.witness))

    def test_ball_disc_rejected(self):
        disc = AnalyticDisc([0.0, 0.5], [0.9, 0.0])
        assert disc_in_domain(disc, unit_ball(2), margin=0.01).rejected


class TestChainUpperBound:
    def test_single_ladder_disc(self):
        disc, zin, zout = ladder_disc(1)
        chain = DiscChain(links=(ChainLink(disc, zin, zout),))
        for margin in (1e-3, 1e-6):
            bound = chain_upper_bound(unit_bidisc(), chain, margin=margin)
            assert bound >= 0.19283124040599234
            assert bound <= 0.19283124040599234 * (1 + 2 * margin) + 1e-12

    def test_zero_length_link(self):
        disc, zin, _ = ladder_disc(1)
        chain = DiscChain(links=(ChainLink(disc, zin, zin),))
        assert chain_upper_bound(unit_bidisc(), chain) == 0.0

    def test_two_disc_chain(self):
        d1, zin1, zout1 = ladder_disc(1)
        d2, zin2, zout2 = ladder_disc(2)
        chain = DiscChain(links=(ChainLink(d1, zin1, zout1), ChainLink(d2, zin2, zout2)))
        bound = chain_upper_bound(unit_bidisc(), chain, margin=1e-6)
        assert bound == pytest.approx(0.2872282760557784, rel=1e-4)

    def test_uncertified_disc_raises(self):
        disc = AnalyticDisc([0.0, 0.0], [2.0, 0.0])
        chain = DiscChain(links=(ChainLink(disc, 0.0, 0.4),))
        with pytest.raises(UncertifiedDiscError):
            chain_upper_bound(unit_bidisc(), chain)

    def test_saturated_link_cost_raises(self):
        # the link's cost p(-r, r), r = 1 - 7.1e-15, is 33.27; its
        # pseudo-distance rounds to 1, so no float cost can be reported
        r = 1 - 7.1e-15
        chain = DiscChain(links=(ChainLink(AnalyticDisc([0.0], [0.5]), -r, r),))
        with pytest.raises(EstimationError, match="link 0"):
            chain_upper_bound(unit_disc(), chain, margin=0.0)

    def test_stitching_enforced(self):
        d1, zin1, zout1 = ladder_disc(1)
        d2, zin2, zout2 = ladder_disc(2)
        with pytest.raises(EstimationError):
            DiscChain(links=(ChainLink(d1, zin1, zout1), ChainLink(d2, 0.3, zout2)))


class TestLowerBound:
    def test_ball_is_own_enclosure(self):
        val, cert = lower_bound(unit_ball(2), [0, 0], [0.5, 0])
        assert val == pytest.approx(math.atanh(0.5), abs=1e-12)
        assert cert["kind"] in ("enclosing-ball", "projection", "factor-projection")

    def test_bidisc_projection(self):
        val, _ = lower_bound(unit_bidisc(), [0, 0], [0.5, 0])
        assert val == pytest.approx(math.atanh(0.5), abs=1e-12)

    def test_same_point(self):
        val, _ = lower_bound(unit_ball(3), [0.1, 0, 0], [0.1, 0, 0])
        assert val == 0.0


class TestSearchUpperBound:
    def test_disc_radial(self):
        val, cert, used, method = search_upper_bound(unit_disc(), [0], [0.5])
        assert val <= math.atanh(0.5) + 1e-3
        assert isinstance(cert, DiscChain)

    def test_ball_radial(self):
        val, _, _, _ = search_upper_bound(unit_ball(2), [0, 0], [0.5, 0])
        assert val <= math.atanh(0.5) + 5e-3

    def test_bidisc_pair(self):
        val, cert, _, method = search_upper_bound(unit_bidisc(), [0, 0], [0.5, 0.25])
        assert val <= math.atanh(0.5) + 5e-3
        assert method in ("slice", "product")

    def test_zero_budget_flags_exhausted(self):
        val, cert, used, method = search_upper_bound(unit_bidisc(), [0, 0], [0.5, 0], budget=0)
        assert val is None and method == "exhausted"


class TestEstimateDistance:
    def test_bidisc_bracket(self):
        est = estimate_distance(unit_bidisc(), [0, 0], [0.5, 0])
        assert est.lower <= 0.5493061443340549 + 1e-12
        assert est.upper >= 0.5493061443340549 - 1e-12
        assert est.width <= 5e-3

    def test_same_point(self):
        est = estimate_distance(unit_ball(2), [0.2, 0.1], [0.2, 0.1])
        assert (est.lower, est.upper) == (0.0, 0.0)

    def test_ball_deep_point(self):
        est = estimate_distance(unit_ball(2), [0, 0], [0.9, 0])
        assert est.lower <= math.atanh(0.9) <= est.upper

    def test_outside_point_rejected(self):
        with pytest.raises(PointOutsideDomainError):
            estimate_distance(unit_ball(2), [0, 0], [1.5, 0])

    def test_json_schema(self):
        est = estimate_distance(unit_disc(), [0], [0.5])
        doc = est.to_json_dict()
        assert set(doc) >= {"lower", "lower_cert", "upper", "chain", "budget_used"}
        assert doc["chain"][0].keys() == {"c", "d", "zin", "zout"}


class TestClosePointStability:
    """Bounds must stay sound down to separations near float resolution.

    The quotient form of the ball distance cancels catastrophically for
    nearby points, and differencing stored disc parameters wipes out tiny
    separations; both have stable replacements.
    """

    @pytest.mark.parametrize("eps", [1e-14, 1e-12, 1e-10, 1e-7, 1e-4])
    def test_bidisc_close_pairs(self, eps):
        z = np.array([0.3 + 0.2j, -0.1j])
        w = z + np.array([eps, 0])
        truth = oracle_disc(z[0], w[0])
        est = estimate_distance(unit_bidisc(), z, w)
        assert est.lower <= truth + 1e-15
        assert truth <= est.upper + 1e-15
        assert est.width <= 1e-5 * truth + 1e-15

    @pytest.mark.parametrize("eps", [1e-13, 1e-9, 1e-5])
    def test_ball_close_pairs(self, eps):
        z = np.array([0.5 + 0.1j, -0.2j])
        w = z + np.array([0, eps])
        truth = oracle_ball(z, w)
        est = estimate_distance(unit_ball(2), z, w)
        assert est.lower <= truth + 1e-15
        assert truth <= est.upper + 2e-15

    def test_ball_distance_proportional_at_small_scale(self):
        # the enclosing-ball form must scale linearly, not bottom out in noise
        z = np.array([0.3 + 0.2j, -0.1j])
        base = ball_distance(np.zeros(2), math.sqrt(2), z, z + np.array([1e-6, 0]))
        tiny = ball_distance(np.zeros(2), math.sqrt(2), z, z + np.array([1e-12, 0]))
        assert tiny == pytest.approx(base * 1e-6, rel=1e-4)


class TestNearBoundaryPairs:
    """Antipodal pairs z = -w = (1 - eps) e1, whose pseudo-distance rounds to 1.

    No clamped cost may stand in for the distance: the upper bound is either
    unknown or at least the truth.
    """

    @pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-12])
    @pytest.mark.parametrize(
        "name,domain,oracle",
        [
            ("disc", unit_disc(), lambda z, w: oracle_disc(z[0], w[0])),
            ("ball", unit_ball(2), oracle_ball),
            ("bidisc", unit_bidisc(), oracle_polydisc),
        ],
    )
    def test_bracket_sound_or_unknown(self, name, domain, oracle, eps):
        z = np.zeros(domain.dim)
        z[0] = 1 - eps
        truth = oracle(z, -z)
        est = estimate_distance(domain, z, -z)
        assert est.upper is None or est.upper >= truth
        assert est.lower <= truth


class TestSoundnessSandwich:
    @pytest.mark.parametrize(
        "name,domain,oracle",
        [
            ("disc", unit_disc(), lambda z, w: oracle_disc(z[0], w[0])),
            ("ball", unit_ball(2), oracle_ball),
            ("bidisc", unit_bidisc(), oracle_polydisc),
        ],
    )
    def test_brackets_contain_oracle(self, name, domain, oracle):
        rng = np.random.Generator(np.random.Philox(key=17))
        for _ in range(40):
            z = 0.96 * domain.sample_point(rng)
            w = 0.96 * domain.sample_point(rng)
            if np.array_equal(z, w):
                continue
            truth = oracle(z, w)
            est = estimate_distance(domain, z, w)
            assert est.lower <= truth + 1e-12
            assert truth <= est.upper + 1e-12
            if truth <= 2.0:
                assert est.width <= 0.01 * max(truth, 1e-9)

    def test_monotone_under_inclusion(self):
        # a chain certified in the smaller domain is certified in the larger
        small = Polydisc(np.zeros(2), 0.5)
        big = unit_bidisc()
        disc = AnalyticDisc([0.0, 0.0], [0.4, 0.1])
        chain = DiscChain(links=(ChainLink(disc, -0.5, 0.5),))
        assert disc_in_domain(disc, small).certified
        assert disc_in_domain(disc, big).certified
        assert chain_upper_bound(small, chain) == chain_upper_bound(big, chain)
        z, w = np.array([0.2, 0.05]), np.array([-0.3, 0.1])
        up_small = estimate_distance(small, z, w).upper
        up_big = estimate_distance(big, z, w).upper
        assert up_big <= up_small + 1e-12

    def test_upper_triangle_inequality(self):
        rng = np.random.Generator(np.random.Philox(key=19))
        domain = unit_bidisc()
        for _ in range(15):
            z, w, y = (0.9 * domain.sample_point(rng) for _ in range(3))
            u_zw = estimate_distance(domain, z, w).upper
            u_zy = estimate_distance(domain, z, y).upper
            u_yw = estimate_distance(domain, y, w).upper
            assert u_zw <= u_zy + u_yw + 1e-7


class TestInfinitesimal:
    def test_disc_center(self):
        est = infinitesimal_bounds(unit_disc(), [0], [1])
        assert est.lower == pytest.approx(1.0, abs=1e-6)
        assert est.upper == pytest.approx(1.0, abs=1e-6)

    def test_ball_center(self):
        est = infinitesimal_bounds(unit_ball(2), [0, 0], [1, 0])
        assert est.lower == pytest.approx(1.0, abs=1e-6)
        assert est.upper == pytest.approx(1.0, abs=1e-6)

    def test_scaling_exact_dyadic(self):
        # x4 is an exact float scaling, so both bounds must quadruple exactly
        z = np.array([0.25, 0.125j])
        v = np.array([0.5, 0.25])
        one = infinitesimal_bounds(unit_bidisc(), z, v)
        four = infinitesimal_bounds(unit_bidisc(), z, 4 * v)
        assert four.lower == 4 * one.lower
        assert four.upper == 4 * one.upper

    def test_scaling_triples(self):
        z = np.array([0.25, 0.125j])
        v = np.array([0.5, 0.25])
        one = infinitesimal_bounds(unit_bidisc(), z, v)
        three = infinitesimal_bounds(unit_bidisc(), z, 3 * v)
        assert three.lower == pytest.approx(3 * one.lower, rel=1e-12)
        assert three.upper == pytest.approx(3 * one.upper, rel=1e-12)

    def test_off_center_ball_matches_closed_form(self):
        z, v = np.array([0.6, 0.0]), np.array([1.0, 0.0])
        est = infinitesimal_bounds(unit_ball(2), z, v)
        truth = 1.0 / (1 - 0.36)
        assert est.lower <= truth + 1e-9
        assert est.upper >= truth - 1e-9
        assert est.upper - est.lower <= 1e-6 * truth

    def test_zero_direction_rejected(self):
        with pytest.raises(EstimationError):
            infinitesimal_bounds(unit_disc(), [0], [0])


class TestSliceIdentity:
    def test_disc_in_bidisc(self):
        report = slice_identity_check(unit_disc(), unit_bidisc(), [0], [0.5])
        assert report.passed
        lo, hi = report.intersection
        assert lo <= 0.5493061443340549 <= hi

    def test_scaled_fiber(self):
        total = Polydisc(np.zeros(2), [1.0, 0.5])
        report = slice_identity_check(unit_disc(), total, [0], [0.25])
        assert report.passed
        lo, hi = report.intersection
        assert lo <= math.atanh(0.25) <= hi

    def test_same_point(self):
        report = slice_identity_check(unit_disc(), unit_bidisc(), [0.3], [0.3])
        assert report.passed
        assert report.intersection == (0.0, 0.0)

    def test_sandwich_violation_raises(self):
        narrow = Polydisc(np.zeros(2), [0.4, 1.0])
        with pytest.raises(SliceHypothesisError):
            slice_identity_check(unit_disc(), narrow, [0], [0.2])


class TestCauchyTable:
    def test_sanity_ambient_bidisc(self):
        ladder = DyadicLadder(12)
        table = cauchy_table(unit_bidisc(), ladder, n=2, margin=1e-3)
        terms = chain_term_table(ladder)
        rows = table.rows
        assert rows[0].upper <= terms.term(1) * (1 + 2e-3)
        assert rows[0].norm == pytest.approx(0.06262195133547421, abs=1e-15)
        uppers = [r.upper for r in rows]
        tails = [r.tail for r in rows]
        norms = [r.norm for r in rows]
        assert all(a > b for a, b in zip(uppers, uppers[1:]))
        assert all(a > b for a, b in zip(tails, tails[1:]))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_membership_failure_names_index(self):
        tiny = Polydisc(np.zeros(2), 0.05)
        with pytest.raises(CauchyMembershipError) as excinfo:
            cauchy_table(tiny, DyadicLadder(5), n=2)
        assert excinfo.value.nu == 1

    def test_embedded_in_higher_dimension(self):
        domain = Polydisc(np.zeros(4), 1.0)
        table = cauchy_table(domain, DyadicLadder(6), n=4)
        assert table.rows[0].upper <= 0.19283124040599234 * (1 + 2e-3)

    def test_csv_header(self, tmp_path):
        # the CLI's one CSV writer serializes the table
        report = run(parse_config({"experiment": "cauchy-demo", "N": 5}), quiet=True)
        emit_plot_data(report, tmp_path)
        lines = (tmp_path / "cauchy_table.csv").read_text().splitlines()
        assert lines[0] == "nu,U,T,norm"
        assert len(lines) == 5  # depth-1 rows
        table = cauchy_table(unit_bidisc(), DyadicLadder(5), n=2)
        assert float(lines[1].split(",")[1]) == table.rows[0].upper

    def test_sublevel_domain_route(self):
        # {|z|^2 < 1} as the ambient: certifies the first few ladder steps
        domain = SublevelDomain(
            field=lambda z: float(np.sum(np.abs(z) ** 2)),
            level=1.0,
            ambient=Ball(np.zeros(2), 1.0),
            seed=np.zeros(2),
            lipschitz=2.0,
        )
        table = cauchy_table(domain, DyadicLadder(4), n=2, margin=1e-3)
        assert table.rows[0].upper <= 0.19283124040599234 * (1 + 2e-3)


class TestGenericCoveringPath:
    """Estimation on a domain with no closed-form hooks at all."""

    @pytest.fixture
    def sublevel_ball(self):
        return SublevelDomain(
            field=lambda z: float(np.sum(np.abs(z) ** 2)),
            level=1.0,
            ambient=Ball(np.zeros(2), 1.2),
            seed=np.zeros(2),
            lipschitz=4.8,
        )

    def test_sound_and_bounded_looseness(self, sublevel_ball):
        rng = np.random.Generator(np.random.Philox(key=41))
        for i in range(4):
            z = 0.8 * sublevel_ball.sample_point(rng)
            w = 0.8 * sublevel_ball.sample_point(rng)
            truth = oracle_ball(z, w)
            est = estimate_distance(sublevel_ball, z, w, budget=20_000, seed=i)
            assert est.upper is not None
            assert est.lower <= truth + 1e-12
            assert truth <= est.upper + 2e-12
            # covering certificates cost tightness, not soundness; keep the
            # looseness bounded so regressions in the search surface here
            assert est.upper <= 2.0 * truth

    def test_search_winner_needs_no_recertification(self, sublevel_ball):
        # the search keeps only links it certified itself: the winning link
        # re-certifies on its own disc and prices at exactly the reported value
        rng = np.random.Generator(np.random.Philox(key=41))
        for _ in range(4):
            z = 0.8 * sublevel_ball.sample_point(rng)
            w = 0.8 * sublevel_ball.sample_point(rng)
            val, cert, _, method = search_upper_bound(sublevel_ball, z, w, budget=20_000)
            assert method == "slice"
            assert isinstance(cert, DiscChain) and len(cert.links) == 1
            recertified = chain_upper_bound(sublevel_ball, cert, margin=0.0)
            assert recertified == pytest.approx(val, rel=1e-9)
            assert recertified >= oracle_ball(z, w)

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 7, 65, 2001])
    def test_budget_never_overrun(self, sublevel_ball, budget):
        # odd covering caps and three-call ball-chain steps are where the meter can overrun
        rng = np.random.Generator(np.random.Philox(key=41))
        pairs = [(0.8 * sublevel_ball.sample_point(rng), 0.8 * sublevel_ball.sample_point(rng))
                 for _ in range(3)]
        for z, w in pairs + [([0.1, 0.0], [0.4, 0.1])]:
            est = estimate_distance(sublevel_ball, z, w, budget=budget)
            assert est.budget_used <= budget

    @pytest.mark.parametrize("budget", range(9))
    @pytest.mark.parametrize("name", ["disc", "bidisc", "ball2xdisc"])
    def test_budget_never_overrun_closed_form(self, name, budget):
        # closed-form certifiers and product factors share the same meter
        z, w = np.array([0.1, 0.2j]), np.array([-0.3, 0.1])
        domain, z, w = {
            "disc": (unit_disc(), z[:1], w[:1]),
            "bidisc": (unit_bidisc(), z, w),
            "ball2xdisc": (
                ProductDomain((unit_ball(2), unit_disc())), np.r_[z, 0.3], np.r_[w, -0.2j]
            ),
        }[name]
        est = estimate_distance(domain, z, w, budget=budget)
        assert est.budget_used <= budget

    def test_zero_budget_flags_unknown_upper(self, sublevel_ball):
        est = estimate_distance(sublevel_ball, [0.1, 0.0], [0.4, 0.1], budget=0)
        assert est.upper is None and est.upper_reason
        assert est.to_json_dict()["upper"] is None

    def test_slice_identity_engages_chain_transfer(self, sublevel_ball):
        report = slice_identity_check(unit_disc(), sublevel_ball, [0.05], [0.4], budget=30_000)
        assert report.passed
        assert report.transfer_used
