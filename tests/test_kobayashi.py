"""Distance brackets: chain certificates, closed-form lower bounds, tables.

Independent oracles used here: the disc half-log formula, the ball
automorphism formula and the product (max) formula for polydiscs, evaluated
at 50 decimal digits in `exact_oracles` (tests/exact_oracles.py), which
shares no code with koblab.
"""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koblab import domains as domains_module
from koblab import kobayashi as kobayashi_module
from koblab import psh
from koblab.cli import emit_plot_data, parse_config, run
from koblab.domains import (
    Ball,
    CertifyResult,
    CertStatus,
    DimensionMismatchError,
    DomainOracle,
    Polydisc,
    PointOutsideDomainError,
    ProductDomain,
    SublevelDomain,
    factor_slices,
    slice_embed,
    unit_ball,
    unit_bidisc,
    unit_disc,
)
from koblab.kobayashi import (
    HYPOTHESIS_SAMPLES,
    AnalyticDisc,
    CauchyMembershipError,
    ChainLink,
    CountingOracle,
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
    ball_metric,
    lower_bound,
    metric_lower_bound,
    search_upper_bound,
    slice_identity_check,
)
from koblab.ladder import DyadicLadder, base3_mutated_ladder, chain_term_table
from koblab.poincare import poincare_distance

import exact_oracles
from exact_oracles import disc_distance as oracle_disc


# Named wrappers rather than aliases: parametrized test IDs carry these names.
def oracle_ball(z, w):
    return exact_oracles.ball_distance(z, w)


def oracle_polydisc(z, w):
    return exact_oracles.polydisc_distance(z, w)


def _record_gaps_callers(monkeypatch, *classes):
    """Record (calling function, rows) for every ``_gaps`` call on ``classes``, in order."""
    calls = []
    for cls in classes:
        def recorded(self, points, _original=cls._gaps):
            calls.append((sys._getframe(1).f_code.co_name, len(points)))
            return _original(self, points)

        monkeypatch.setattr(cls, "_gaps", recorded)
    return calls


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


def _sublevel_unit_ball():
    # {|z|^2 < 1} in B(0, 1.2) with L = 4.8
    return SublevelDomain(
        field=psh.norm_squared(2), level=1.0, ambient=Ball(np.zeros(2), 1.2),
        seed=np.zeros(2), lipschitz=4.8,
    )


def _candidate_c3():
    # cauchy-demo's candidate domain for the norm2 field: the unit ball of C^3
    lifted = psh.lift_quadratic_tail(psh.norm_squared(2), 3)
    return SublevelDomain(
        field=lifted, level=1.0,
        ambient=ProductDomain((Ball(np.zeros(2), 3.0), Ball(np.zeros(1), 1.1))),
        seed=slice_embed(DyadicLadder(1).point_complex(1), 3), lipschitz=lifted.lipschitz(4.1),
    )


def _chain_of(kinds):
    """A stitched chain in C^2 from 0 whose links are of the given kinds.

    ``rejected`` sweeps |z_1 - start| <= 2, outside the unit ball and
    bidisc; ``certified`` sweeps radius 0.2; ``wide`` has a parameter 0.95,
    past the radius 0.9 of margin 0.1; ``saturated`` costs p(-r, r) with
    r = 1 - 7.1e-15, whose pseudo-distance rounds to 1.
    """
    r = 1 - 7.1e-15
    start, links = np.zeros(2, complex), []
    for kind in kinds:
        direction, zin, zout = {
            "rejected": ([2.0, 0.0], 0.0, 0.1),
            "certified": ([0.2, 0.0], 0.0, 0.5),
            "wide": ([0.1, 0.0], 0.95, 0.0),
            "saturated": ([0.3, 0.0], -r, r),
        }[kind]
        direction = np.array(direction, complex)
        link = ChainLink(AnalyticDisc(start - zin * direction, direction), zin, zout)
        links.append(link)
        start = link.end
    return DiscChain(links=tuple(links))


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

    @pytest.mark.parametrize("kinds, margin, error, message", [
        (("rejected", "rejected"), 0.1, UncertifiedDiscError, "link 0: disc not certified"),
        (("rejected", "wide"), 0.1, UncertifiedDiscError, "link 0: disc not certified"),
        (("wide", "rejected"), 0.1, EstimationError, "link 0: parameters exceed"),
        (("certified", "wide"), 0.1, EstimationError, "link 1: parameters exceed"),
        (("certified", "rejected", "rejected"), 0.1, UncertifiedDiscError, "link 1: disc not"),
        (("saturated", "rejected"), 0.0, EstimationError, "link 0: cost not representable"),
    ])
    @pytest.mark.parametrize("domain", [unit_bidisc(), _sublevel_unit_ball()],
                             ids=["bidisc", "sublevel-ball"])
    def test_errors_come_in_link_order(self, domain, kinds, margin, error, message):
        # each link checks its parameters, then its certificate, then its
        # cost, although the discs are certified together
        with pytest.raises(error, match=message) as excinfo:
            chain_upper_bound(domain, _chain_of(kinds), margin=margin)
        assert excinfo.type is error

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


def _disc_lower(center, radius, z, w):
    """The Poincare distance of the rescaled points, in scalar arithmetic."""
    return poincare_distance((z - center) / radius, (w - center) / radius)


def _disc_metric(center, radius, z, v):
    return abs(v) / radius / (1.0 - abs((z - center) / radius) ** 2)


def _factor_lowers(domain, z, w):
    """Each factor's bound from the disc formula or the unit ball's."""
    out = []
    for f, block in factor_slices(domain.product_factors()):
        if f.dim == 1:
            (c,), r = f.enclosing_ball()
            out.append(_disc_lower(complex(c), r, complex(z[block][0]), complex(w[block][0])))
        else:
            out.append(ball_distance(np.zeros(f.dim), 1.0, z[block], w[block]))
    return out


def _factor_metrics(domain, z, v):
    out = []
    for f, block in factor_slices(domain.product_factors()):
        if not np.any(v[block] != 0):
            continue
        if f.dim == 1:
            (c,), r = f.enclosing_ball()
            out.append(_disc_metric(complex(c), r, complex(z[block][0]), complex(v[block][0])))
        else:
            out.append(ball_metric(np.zeros(f.dim), 1.0, z[block], v[block]))
    return out


# disc points in the unit disc, and second points either anywhere in it or
# within 1e-6 of the first
_UNIT = st.complex_numbers(max_magnitude=0.999, allow_infinity=False, allow_nan=False)
_NUDGE = st.complex_numbers(max_magnitude=1e-6, allow_infinity=False, allow_nan=False)
_SPEED = st.complex_numbers(max_magnitude=10.0, allow_infinity=False, allow_nan=False)
_DISCS = {
    "unit-disc": unit_disc(),
    "offset-polydisc": Polydisc(np.array([0.3 + 0.1j]), 0.7),
    "offset-ball": Ball(np.array([-0.2 + 0.5j]), 1.3),
}
_PRODUCTS = {
    "bidisc": unit_bidisc(),
    "polydisc-1-0.5": Polydisc(np.zeros(2), [1.0, 0.5]),
    "ball-x-disc": ProductDomain((unit_ball(2), unit_disc())),
}


def _pair(data, dim, scales):
    z = np.array([data.draw(_UNIT) for _ in range(dim)]) * scales
    if data.draw(st.booleans()):
        w = np.array([data.draw(_UNIT) for _ in range(dim)]) * scales
    else:
        w = z + np.array([data.draw(_NUDGE) for _ in range(dim)])
    return z, w


def _product_pair(data, name):
    """A pair of the product ``_PRODUCTS[name]``, each block inside its factor."""
    domain = _PRODUCTS[name]
    scales = np.ones(domain.dim)
    if name == "polydisc-1-0.5":
        scales[1] = 0.5
    elif name == "ball-x-disc":
        scales[:2] = 1.0 / math.sqrt(2.0)
    return _pair(data, domain.dim, scales)


class HiddenFactors(DomainOracle):
    """``inner`` with ``product_factors`` answering None; everything else is
    asked of ``inner``."""

    def __init__(self, inner):
        self.inner, self.dim = inner, inner.dim

    def _gaps(self, points):
        return self.inner._gaps(points)

    def enclosing_ball(self):
        return self.inner.enclosing_ball()

    def slice_region(self, p, q):
        return self.inner.slice_region(p, q)

    def certify_affine_disc(self, center, direction, rho, max_cells=4096):
        return self.inner.certify_affine_disc(center, direction, rho, max_cells)


class TestOneLowerBoundModel:
    """A domain's lower bounds come from its factors, or else its enclosing ball."""

    @staticmethod
    def _check_disc(domain, z, w, v):
        (c,), r = domain.enclosing_ball()
        c = complex(c)
        z, w = c + r * z, c + r * w
        val, cert = lower_bound(domain, [z], [w])
        assert val.hex() == _disc_lower(c, r, z, w).hex()
        assert cert["kind"] == ("enclosing-ball" if val > 0 else "trivial")
        assert metric_lower_bound(domain, [z], [v]).hex() == _disc_metric(c, r, z, v).hex()

    @pytest.mark.parametrize("name", sorted(_DISCS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_disc_is_the_poincare_formula(self, name, data):
        (z,), (w,) = _pair(data, 1, 1.0)
        self._check_disc(_DISCS[name], z, w, data.draw(_SPEED))

    @pytest.mark.parametrize("name", sorted(_DISCS))
    def test_disc_formula_where_a_second_rounding_was_larger(self, name):
        # on the unit disc the automorphism form rounds this distance and
        # this metric one ulp or more above the Poincare formula
        self._check_disc(_DISCS[name], -0.5 + 0j, -0.3 - 0.5j, 0.8 + 0.2j)

    @pytest.mark.parametrize("name", sorted(_PRODUCTS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_product_takes_the_largest_factor(self, name, data):
        domain = _PRODUCTS[name]
        z, w = _product_pair(data, name)
        v = np.array([data.draw(_SPEED) for _ in range(domain.dim)])
        lowers = _factor_lowers(domain, z, w)
        val, cert = lower_bound(domain, z, w)
        assert val.hex() == max(lowers).hex()
        if val > 0:
            assert cert["kind"] == "factor-projection"
            assert cert["index"] == lowers.index(val)
        expected = max(_factor_metrics(domain, z, v), default=0.0)
        assert metric_lower_bound(domain, z, v).hex() == expected.hex()

    def test_zero_blocks_of_the_direction_are_skipped(self):
        domain = ProductDomain((unit_ball(2), unit_disc()))
        z = np.array([0.1, 0.2j, -0.6 - 0.7j])
        v = np.array([0.0, 0.0, -0.2 + 0.4j])
        expected = _disc_metric(0j, 1.0, z[2], v[2])
        assert metric_lower_bound(domain, z, v).hex() == expected.hex()
        assert metric_lower_bound(domain, z, np.zeros(3)) == 0.0


class TestCountingOracle:
    def test_gaps_metered_like_the_predicates(self):
        # one call per row for membership, one more per row inside for its
        # distance: what contains and then boundary_distance would charge
        points = np.array([[0.1, 0.0], [1.5, 0.0], [0.0, 0.2j]])
        oracle = CountingOracle(unit_ball(2), budget=100)
        gaps = oracle._gaps(points)
        domain = unit_ball(2)
        expected = [domain.boundary_distance(z) if domain.contains(z) else None for z in points]
        assert [None if math.isnan(g) else float(g) for g in gaps] == expected
        assert oracle.used == 3 + 2


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

    @pytest.mark.parametrize("domain, z, w", [
        (unit_bidisc(), [-0.6, -0.5j], [0.2, 0.4]),
        (ProductDomain((unit_ball(2), unit_disc())), [0.3, 0.2j, -0.4], [-0.2, 0.1, 0.5j]),
    ], ids=["bidisc", "ball-x-disc"])
    def test_product_bound_ends_the_search(self, domain, z, w):
        # the factors' slice discs are not nested, so the pair has no exact
        # region; the factor searches and the product's one slice_region
        # question are all the budget it spends
        z, w = np.array(z, dtype=complex), np.array(w, dtype=complex)
        assert domain.slice_region(z, w) is None
        factors = [
            search_upper_bound(f, z[block], w[block])
            for f, block in factor_slices(domain.product_factors())
        ]
        val, cert, used, method = search_upper_bound(domain, z, w)
        assert method == "product"
        assert val == max(bound for bound, *_ in factors)
        assert used == sum(spent for _, _, spent, _ in factors) + 1

    @pytest.mark.parametrize("name", sorted(_PRODUCTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_no_search_undercuts_the_product_bound(self, name, data):
        # the generic search that the product bound now skips, run with the
        # factors hidden, never finds anything lower
        domain = _PRODUCTS[name]
        z, w = _product_pair(data, name)
        assume(not np.array_equal(z, w) and domain.slice_region(z, w) is None)
        val, _, _, method = search_upper_bound(domain, z, w)
        assume(method == "product")
        full, _, _, _ = search_upper_bound(HiddenFactors(domain), z, w)
        assert full is None or full >= val


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

    def test_outside_first_point_named(self):
        with pytest.raises(PointOutsideDomainError, match="z is not in the domain"):
            estimate_distance(unit_ball(2), [1.5, 0], [0, 0])

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

    @pytest.mark.parametrize("step", [5e-324, 1e-310, 1e-200, 1e-160])
    @pytest.mark.parametrize("name", ["disc", "bidisc", "ball", "ball-x-disc"])
    def test_steps_whose_slice_disc_overflows(self, name, step):
        # below about 1e-308 the slice disc of the step is too large for a
        # float: the oracles name no region, and the search builds no
        # non-finite disc
        domain, z = {
            "disc": (unit_disc(), np.array([0.3 + 0.2j])),
            "bidisc": (unit_bidisc(), np.array([0.3 + 0.2j, -0.1j])),
            "ball": (unit_ball(2), np.array([0.3 + 0.2j, -0.1j])),
            "ball-x-disc": (
                ProductDomain((unit_ball(2), unit_disc())), np.array([0.3 + 0.2j, -0.1j, 0.4])
            ),
        }[name]
        w = z.copy()
        w[-1] += step
        est = estimate_distance(domain, z, w)
        assert est.upper is None or est.upper >= est.lower
        if name in ("disc", "bidisc"):
            assert est.upper is None or est.upper >= oracle_polydisc(z, w)

    @pytest.mark.parametrize("step", [1e-160, 1e-200])
    @pytest.mark.parametrize("name, budget", [("ball1", 2), ("ball", 2), ("bidisc", 6)])
    def test_steps_whose_squared_length_underflows(self, name, budget, step):
        # |w - z|^2 underflows, yet the slice disc is a float: the exact slice
        # answers and no search runs.  Every pair moves the first coordinate
        # from 0, so the distance is the unit disc's, 0 to step.
        domain, z = {
            "ball1": (unit_ball(1), np.zeros(1, dtype=complex)),
            "ball": (unit_ball(2), np.zeros(2, dtype=complex)),
            "bidisc": (unit_bidisc(), np.array([0, 0.2], dtype=complex)),
        }[name]
        w = z.copy()
        w[0] += step
        est = estimate_distance(domain, z, w)
        assert est.upper == pytest.approx(oracle_disc(0, step), rel=1e-8, abs=0)
        assert est.budget_used <= budget

    @pytest.mark.parametrize("step", [1e-160, 1e-170, 1e-300])
    @pytest.mark.parametrize("pair", [
        lambda s: ((0, 0), (s, 0)),
        lambda s: ((s, 0), (2 * s, 0)),
        lambda s: ((s, s * 1j), (0.5 * s, -s)),
    ], ids=["from-zero", "along-a", "across-a"])
    def test_lower_bound_where_the_squares_underflow(self, pair, step):
        # |a|^2 and |b - a|^2 underflow; the enclosing-ball form still sees
        # the separation and does not mistake a tiny a for zero
        z, w = pair(step)
        est = estimate_distance(unit_ball(2), z, w)
        assert est.lower > 0
        assert est.lower == pytest.approx(oracle_ball(z, w), rel=1e-8, abs=0)

    def test_ball_distance_proportional_at_small_scale(self):
        # the enclosing-ball form must scale linearly, not bottom out in noise
        z = np.array([0.3 + 0.2j, -0.1j])
        base = ball_distance(np.zeros(2), math.sqrt(2), z, z + np.array([1e-6, 0]))
        tiny = ball_distance(np.zeros(2), math.sqrt(2), z, z + np.array([1e-12, 0]))
        assert tiny == pytest.approx(base * 1e-6, rel=1e-4, abs=0)


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

    @pytest.mark.xfail(strict=True, reason="ROADMAP 2a")
    def test_known_upper_below_truth(self):
        # both points about 1e-7 inside the circle: the one-link chain's cost
        # rounds 3.5e-5 below the truth (upper 16.73935201582781 against
        # 16.73994031980785); when closed-form costs round up this passes
        z = complex(float.fromhex("-0x1.380f25c695a3fp-1"), float.fromhex("0x1.95e8fd54d2b72p-1"))
        w = complex(float.fromhex("0x1.f8b359bb94676p-1"), float.fromhex("-0x1.589647fbce6c6p-3"))
        est = estimate_distance(unit_disc(), [z], [w], budget=2000)
        assert est.upper >= oracle_disc(z, w)


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


def _rim_coordinate(data):
    """A point of the unit disc at 1 - |z| from 1e-12 to 1, a point 1e-14 to 1
    from it, and a direction."""
    depth = 10.0 ** data.draw(st.floats(-12.0, 0.0))
    step = 10.0 ** data.draw(st.floats(-14.0, 0.0))
    angles = [data.draw(st.floats(0.0, 2 * math.pi)) for _ in range(3)]
    z = (1.0 - depth) * cmath.exp(1j * angles[0])
    w = z + step * cmath.exp(1j * angles[1])
    return z, w, cmath.exp(1j * angles[2]) * data.draw(st.floats(1e-3, 1e3))


class TestScalarBallUppers:
    """Uppers through one-dimensional Balls, which answer in Python arithmetic,
    are never below the 50-digit truth, with no tolerance."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_disc(self, data):
        z, w, v = _rim_coordinate(data)
        assume(abs(w) < 1.0)
        disc = Ball(np.zeros(1), 1.0)
        est = estimate_distance(disc, [z], [w])
        assert est.upper is None or est.upper >= oracle_disc(z, w)
        metric = infinitesimal_bounds(disc, [z], [v])
        assert metric.upper >= exact_oracles.polydisc_metric([z], [v])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bidisc(self, data):
        (z1, w1, v1), (z2, w2, v2) = _rim_coordinate(data), _rim_coordinate(data)
        z, w, v = np.array([z1, z2]), np.array([w1, w2]), np.array([v1, v2])
        # numpy's complex abs may round a rim coordinate up to 1 where
        # Python's rounds it below, and the bidisc then refuses w
        assume(abs(w1) < 1.0 and abs(w2) < 1.0 and unit_bidisc().contains(w))
        est = estimate_distance(unit_bidisc(), z, w)
        assert est.upper is None or est.upper >= oracle_polydisc(z, w)
        metric = infinitesimal_bounds(unit_bidisc(), z, v)
        assert metric.upper >= exact_oracles.polydisc_metric(z, v)


def _count_as_point(monkeypatch):
    """A list that gets one entry per as_point call, in every koblab module
    that imports it."""
    calls = []
    original = domains_module.as_point

    def counted(z, dim=None):
        calls.append(1)
        return original(z, dim)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "koblab" and getattr(module, "as_point", None) is original:
            monkeypatch.setattr(module, "as_point", counted)
    return calls


class TestValidateOnce:
    """Public entry points validate each point once; factors get the arrays."""

    def test_bidisc_distance(self, monkeypatch):
        # estimate_distance, lower_bound and search_upper_bound take z and w
        # (6); each factor's slice region and certificate (8); the product's
        # slice region and certificate (4).  A slice link's disc is built
        # from the arrays its certificate validated, so it adds none.
        calls = _count_as_point(monkeypatch)
        rng = np.random.Generator(np.random.Philox(key=31))
        domain = unit_bidisc()
        for _ in range(20):
            z, w = 0.9 * domain.sample_point(rng), 0.9 * domain.sample_point(rng)
            calls.clear()
            estimate_distance(domain, z, w)
            assert len(calls) <= 18

    def test_bidisc_metric(self, monkeypatch):
        # infinitesimal_bounds takes z and v (2); each factor's slice region
        # and certificate (8)
        calls = _count_as_point(monkeypatch)
        rng = np.random.Generator(np.random.Philox(key=37))
        domain = unit_bidisc()
        for _ in range(20):
            z = 0.9 * domain.sample_point(rng)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            calls.clear()
            infinitesimal_bounds(domain, z, v)
            assert len(calls) <= 10


_METRIC_PRODUCTS = {
    **_PRODUCTS,
    "disc-x-sublevel-ball": ProductDomain((unit_disc(), _sublevel_unit_ball())),
}
_CLOSED_FORM_PRODUCTS = sorted(_PRODUCTS)
# products and directions whose blocks differ by hundreds of orders of magnitude
_HOSTILE_SPEEDS = [
    ("bidisc", [0.0, 0.3j], [1.0, 2.2e-311j]),
    ("bidisc", [0.0, 0.3j], [1e-300, 2.2e-311j]),
    ("bidisc", [0.2, 0.5j], [1e300, 1e-300]),
    ("bidisc", [0.2, 0.5j], [1e-300, 1e300j]),
    ("ball-x-disc", [0.1, 0.2j, 0.5], [1e300, -1e300j, 1e-300]),
    ("ball-x-disc", [0.1, 0.2j, 0.5], [1e-300, 0.0, 1e300j]),
]
_HOSTILE_IDS = ["subnormal", "tiny-subnormal", "huge-tiny", "tiny-huge", "ball-huge", "disc-huge"]


class TestInfinitesimal:
    def test_disc_center(self):
        est = infinitesimal_bounds(unit_disc(), [0], [1])
        assert est.lower == pytest.approx(1.0, abs=1e-6)
        assert est.upper == pytest.approx(1.0, abs=1e-6)

    def test_ball_center(self):
        est = infinitesimal_bounds(unit_ball(2), [0, 0], [1, 0])
        assert est.lower == pytest.approx(1.0, abs=1e-6)
        assert est.upper == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("name, z, v", [("bidisc", [0.25, 0.125j], [0.5, 0.25])]
                             + _HOSTILE_SPEEDS, ids=["bidisc"] + _HOSTILE_IDS)
    def test_scaling_exact_dyadic(self, name, z, v):
        # x4 is an exact float scaling, so both bounds must quadruple exactly
        domain = _METRIC_PRODUCTS[name]
        z, v = np.array(z, dtype=complex), np.array(v, dtype=complex)
        one = infinitesimal_bounds(domain, z, v)
        four = infinitesimal_bounds(domain, z, 4 * v)
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

    @pytest.mark.parametrize("scale", [1e200, 1e-300], ids=["huge", "tiny"])
    def test_extreme_direction_scales(self, scale):
        # ||v|| overflows or underflows unless v is scaled first
        z = np.array([0.3 + 0.1j, -0.2j])
        v = np.array([1.0, 1j if scale > 1 else 1.0])
        one = infinitesimal_bounds(unit_ball(2), z, v)
        scaled = infinitesimal_bounds(unit_ball(2), z, scale * v)
        assert scaled.lower == pytest.approx(scale * one.lower, rel=1e-12, abs=0)
        assert scaled.upper == pytest.approx(scale * one.upper, rel=1e-12, abs=0)

    @pytest.mark.parametrize("z, v", [([0.3, 0.0], [1.5e308, 1.5e308]), ([0.9, 0.0], [1e308, 0.0])],
                             ids=["norm", "metric"])
    def test_overflowing_metric_is_a_clean_error(self, z, v):
        # ||v|| itself overflows, or k(z; v) = ||v|| / (1 - |z|^2) does
        with pytest.raises(EstimationError, match="overflows"):
            infinitesimal_bounds(unit_ball(2), z, v)


class NoSliceBall(Ball):
    """A ball without ``slice_region``: the centred disc alone gives the upper."""

    def slice_region(self, p, q):
        return None


def _asked(monkeypatch, method, *classes):
    """The instance asked by every call of ``method`` on ``classes``, in order."""
    calls = []
    for cls in classes:
        def recorded(self, *args, _original=getattr(cls, method), **kwargs):
            calls.append(self)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, recorded)
    return calls


_METRIC_DOMAINS = [unit_ball(2), unit_bidisc(), ProductDomain((unit_ball(2), unit_disc()))]
_METRIC_IDS = ["ball", "bidisc", "ball-x-disc"]


def _one_factor_direction(domain, rng, k):
    """A random direction; on a product it moves only factor k (cyclically),
    so the complex line through any point has an exact slice region."""
    v = rng.normal(size=domain.dim) + 1j * rng.normal(size=domain.dim)
    factors = domain.product_factors()
    if factors is not None:
        for j, (_, block) in enumerate(factor_slices(factors)):
            if j != k % len(factors):
                v[block] = 0
    return v


def _split(v):
    """(v / ||v||, ||v||), ||v|| taken after scaling v by a power of two."""
    parts = v.view(float)
    exponent = math.frexp(float(np.max(np.abs(parts))))[1]
    scaled = np.ldexp(parts, -exponent).view(complex)
    norm = float(np.linalg.norm(scaled))
    return scaled / norm, math.ldexp(norm, exponent)


def _off_centre_upper(domain, z, v):
    """The metric upper of the off-centre disc on the exact slice region of
    the line through z along v, as ``infinitesimal_bounds`` forms it; None
    when there is no region or its disc is not certified."""
    unit, speed = _split(v)
    region = domain.slice_region(z, z + unit)
    if region is None:
        return None
    zc, rc = region
    rho = 1.0 - 1e-9
    xi0 = -zc / (rc * rho)
    if abs(xi0) >= 1.0:
        return None
    if not domain.certify_affine_disc(z + zc * unit, (rc * rho) * unit, 1.0).certified:
        return None
    return speed * (1.0 / (rc * rho * (1.0 - abs(xi0) ** 2)))


class TestMetricUpper:
    """A domain that is not a declared product: its slice disc, else the centred search."""

    Z = np.array([0.3 + 0.1j, -0.2j])
    V = np.array([0.6, 0.8j])
    # the bracket that the centred search (one radial covering over _gaps)
    # gives NoSliceBall at (Z, V)
    SEARCH_BITS = ("0x1.14b1715917967p+0", "0x1.279dd0afeab24p+0")

    @staticmethod
    def _bits(est):
        return float.hex(float(est.lower)), float.hex(float(est.upper))

    def test_no_slice_search_unchanged(self):
        est = infinitesimal_bounds(NoSliceBall(np.zeros(2), 1.0), self.Z, self.V)
        assert self._bits(est) == self.SEARCH_BITS
        assert est.upper >= exact_oracles.ball_metric(self.Z, self.V)

    @pytest.mark.parametrize("domain", _METRIC_DOMAINS, ids=_METRIC_IDS)
    def test_one_call_off_the_slice_centre(self, monkeypatch, domain):
        # the certified off-centre disc is the answer; no radius search runs
        calls = _asked(monkeypatch, "certify_affine_disc", Ball, Polydisc)
        rng = np.random.Generator(np.random.Philox(key=23))
        for k in range(10):
            z = 0.6 * domain.sample_point(rng)
            v = _one_factor_direction(domain, rng, k)
            assert domain.slice_region(z, z + v) is not None
            calls.clear()
            infinitesimal_bounds(domain, z, v)
            assert len(calls) == 1

    @pytest.mark.parametrize("domain", _METRIC_DOMAINS, ids=_METRIC_IDS)
    def test_slice_centre_takes_one_call(self, monkeypatch, domain):
        # at the centre of the slice region the centred disc is the same
        # disc up to rounding, so no radius search runs there either: one
        # call per moving factor
        calls = _asked(monkeypatch, "certify_affine_disc", Ball, Polydisc)
        factors = domain.product_factors() or (domain,)
        rng = np.random.Generator(np.random.Philox(key=29))
        for _ in range(5):
            v = rng.normal(size=domain.dim) + 1j * rng.normal(size=domain.dim)
            calls.clear()
            infinitesimal_bounds(domain, np.zeros(domain.dim), v)
            assert calls == list(factors)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_ball_upper_is_the_off_centre_disc(self, data):
        # bit for bit the off-centre disc's upper, near the slice centre too
        domain = unit_ball(2)
        scales = np.full(2, 0.6) * 10.0 ** -data.draw(st.integers(0, 14))
        z = np.array([data.draw(_UNIT) for _ in range(2)]) * scales
        v = np.array([data.draw(_SPEED) for _ in range(2)])
        assume(np.any(v != 0) and domain.contains(z))
        off_centre = _off_centre_upper(domain, z, v)
        assume(off_centre is not None)
        est = infinitesimal_bounds(domain, z, v)
        assert est.upper.hex() == off_centre.hex()
        assert est.lower.hex() == infinitesimal_bounds(NoSliceBall(np.zeros(2), 1.0), z, v).lower.hex()

    @pytest.mark.parametrize("depth, on_rim", [(1e-9, True), (2e-9, True), (1e-10, False)],
                             ids=["rim", "rim-edge", "past-the-margin"])
    def test_rim_takes_one_quarter_gap_disc(self, monkeypatch, depth, on_rim):
        # within the working margin of the slice rim, and past it, the slice
        # disc shrinks by only a quarter of the point's gap to the rim; that
        # one call gives an upper at most both the disc shrunk by the margin
        # and the centred search
        domain = unit_ball(2)
        z, v = np.array([(1 - depth) * 0.6, (1 - depth) * 0.8j]), np.array([0.8, 0.6j])
        centred = infinitesimal_bounds(NoSliceBall(np.zeros(2), 1.0), z, v)
        off_centre = _off_centre_upper(domain, z, v)
        assert (off_centre is not None) == on_rim
        calls = _asked(monkeypatch, "certify_affine_disc", Ball)
        radius_calls = _asked(monkeypatch, "certified_radius", Ball)
        est = infinitesimal_bounds(domain, z, v)
        assert len(calls) == 1 and radius_calls == []
        assert est.upper <= centred.upper
        if on_rim:
            assert est.upper <= off_centre
        assert est.lower.hex() == centred.lower.hex()
        assert est.upper >= exact_oracles.ball_metric(z, v)

    def test_rim_points_take_one_disc(self, monkeypatch):
        # at 1 - |z| = 1e-10 the slice disc shrunk by the margin misses z on
        # most lines; shrunk only as far as z allows, it answers in one call
        # and beats the centred search, one radial covering
        domain, searched = unit_ball(2), NoSliceBall(np.zeros(2), 1.0)
        rng = np.random.Generator(np.random.Philox(key=5))
        points = []
        for _ in range(50):
            x, y = rng.normal(size=4), rng.normal(size=4)
            z = (1 - 1e-10) * (x[:2] + 1j * x[2:]) / np.linalg.norm(x)
            points.append((z, y[:2] + 1j * y[2:]))
        centred = [infinitesimal_bounds(searched, z, v).upper for z, v in points]
        calls = _asked(monkeypatch, "certify_affine_disc", Ball)
        radius_calls = _asked(monkeypatch, "certified_radius", Ball)
        cheap = 0
        for (z, v), centred_upper in zip(points, centred):
            calls.clear()
            radius_calls.clear()
            est = infinitesimal_bounds(domain, z, v)
            cheap += len(calls) <= 2 and not radius_calls
            assert exact_oracles.ball_metric(z, v) <= est.upper <= centred_upper
        assert cheap >= 45

    def test_no_certified_disc_is_an_error(self):
        class Uncertified(NoSliceBall):
            def certify_affine_disc(self, center, direction, rho, max_cells=4096):
                return CertifyResult(CertStatus.INDETERMINATE, rho, oracle_calls=0)

            def certified_radius(self, center, direction, max_cells):
                return 0.0

        with pytest.raises(EstimationError, match="no certified disc at any radius"):
            infinitesimal_bounds(Uncertified(np.zeros(2), 1.0), self.Z, self.V)

    def test_a_radius_past_the_enclosing_ball_is_an_error(self):
        # an oracle whose clearances reach past its own enclosing ball
        class Boundless(DomainOracle):
            dim = 1

            def _gaps(self, points):
                return np.full(len(points), 1e9)

            def enclosing_ball(self):
                return np.zeros(1, dtype=complex), 1.0

        with pytest.raises(EstimationError, match="certified radius exceeds the enclosing ball"):
            infinitesimal_bounds(Boundless(), [10.0], [1.0])

    def test_sublevel_bracket_no_looser(self):
        # no slice region: one radial covering, whose upper is at most the
        # 0x1.3295fdbbcb088p+0 of the bisected coverings, and at least the truth
        est = infinitesimal_bounds(_sublevel_unit_ball(), self.Z, self.V)
        assert self._bits(est)[0] == "0x1.c1be788fe6e42p-1"
        assert exact_oracles.ball_metric(self.Z, self.V) <= est.upper
        assert est.upper <= float.fromhex("0x1.3295fdbbcb088p+0")


def _product_metric_truth(name, z, v):
    """The 50-digit metric of ``_METRIC_PRODUCTS[name]`` at z along v."""
    ball, disc = exact_oracles.ball_metric, exact_oracles.polydisc_metric
    if name == "polydisc-1-0.5":
        # k of the disc of radius r at z along v is k of the unit disc at z/r along v/r
        radii = np.array([1.0, 0.5])
        return exact_oracles.polydisc_metric(z / radii, v / radii)
    factors = {
        "bidisc": [(disc, 1), (disc, 1)],
        "ball-x-disc": [(ball, 2), (disc, 1)],
        "disc-x-sublevel-ball": [(disc, 1), (ball, 2)],
    }[name]
    return exact_oracles.product_metric(factors, z, v)


def _product_points(domain, seed, count=12):
    """Points at most 0.9 of the way to each factor's boundary, and directions;
    in turn every block of z, then every block of v, is exactly 0."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    blocks = [block for _, block in factor_slices(domain.product_factors())]
    out = []
    for i in range(count):
        z = 0.9 * domain.sample_point(rng)
        v = rng.normal(size=domain.dim) + 1j * rng.normal(size=domain.dim)
        k = i % (2 * len(blocks) + 1)
        if k < len(blocks):
            z[blocks[k]] = 0
        elif k < 2 * len(blocks):
            v[blocks[k - len(blocks)]] = 0
        out.append((z, v))
    return out


class TestProductMetricUpper:
    """A declared product's metric upper is the largest of its factors' uppers."""

    @pytest.mark.parametrize("name", sorted(_METRIC_PRODUCTS))
    def test_upper_from_the_factors(self, name):
        domain = _METRIC_PRODUCTS[name]
        for z, v in _product_points(domain, seed=31):
            est = infinitesimal_bounds(domain, z, v)
            truth = _product_metric_truth(name, z, v)
            assert est.upper >= truth
            if name in _CLOSED_FORM_PRODUCTS:
                assert est.upper <= truth * (1 + 1e-8)
            # the lower is the one model's, as before
            unit, speed = _split(v)
            assert est.lower.hex() == (speed * metric_lower_bound(domain, z, unit)).hex()

    @pytest.mark.parametrize("name", _CLOSED_FORM_PRODUCTS)
    def test_one_call_per_moving_factor(self, monkeypatch, name):
        # each moving factor is asked once for its slice region and once to
        # certify its disc; a factor whose block of v is zero, and the
        # product itself, are not asked at all
        domain = _METRIC_PRODUCTS[name]
        factors = domain.product_factors()
        certified = _asked(monkeypatch, "certify_affine_disc", Ball, Polydisc, ProductDomain)
        sliced = _asked(monkeypatch, "slice_region", Ball, Polydisc, ProductDomain)
        for z, v in _product_points(domain, seed=37):
            moving = [f for f, block in factor_slices(factors) if v[block].any()]
            certified.clear()
            sliced.clear()
            infinitesimal_bounds(domain, z, v)
            assert certified == moving
            assert sliced == moving

    def test_sublevel_factor_asked_only_when_it_moves(self, monkeypatch):
        domain = _METRIC_PRODUCTS["disc-x-sublevel-ball"]
        disc, sublevel = domain.product_factors()
        certified = _asked(monkeypatch, "certify_affine_disc", Ball, SublevelDomain)
        asked = _asked(monkeypatch, "certified_radius", Ball, SublevelDomain)
        z = np.array([0.5j, 0.3, -0.2j])
        infinitesimal_bounds(domain, z, [0.4, 0.0, 0.0])
        assert certified == [disc] and asked == []
        certified.clear()
        infinitesimal_bounds(domain, z, [0.0, 0.4, 0.1j])
        # the sublevel factor answers with one radial covering
        assert asked == [sublevel] and certified == []

    @pytest.mark.parametrize("name, z, v", _HOSTILE_SPEEDS, ids=_HOSTILE_IDS)
    def test_hostile_block_speeds(self, name, z, v):
        # a block far below the others is split into its own unit direction
        # and speed, so its factor searches at its own scale
        domain = _METRIC_PRODUCTS[name]
        z, v = np.array(z, dtype=complex), np.array(v, dtype=complex)
        est = infinitesimal_bounds(domain, z, v)
        assert math.isfinite(est.upper) and est.lower <= est.upper
        assert est.upper >= _product_metric_truth(name, z, v)


class TestMetricOracles:
    """The 50-digit metrics are the limits of the 50-digit distance quotients."""

    T = mpmath.mpf(2) ** -80

    def _quotient(self, distance, z, v):
        # the distance from z to z + t v over t, with z + t v formed exactly
        # at 60 digits
        with mpmath.workdps(60):
            w = [mpmath.mpc(complex(a)) + self.T * mpmath.mpc(complex(b)) for a, b in zip(z, v)]
        return distance(z, w) * 2.0**80

    @pytest.mark.parametrize("name", ["ball", "polydisc", "ball-x-disc"])
    def test_metric_is_the_distance_quotient(self, name):
        metric, distance, domain = {
            "ball": (exact_oracles.ball_metric, exact_oracles.ball_distance, unit_ball(3)),
            "polydisc": (exact_oracles.polydisc_metric, exact_oracles.polydisc_distance,
                         Polydisc(np.zeros(3), 1.0)),
            "ball-x-disc": (
                lambda z, v: exact_oracles.product_metric(
                    [(exact_oracles.ball_metric, 2), (exact_oracles.polydisc_metric, 1)], z, v),
                lambda z, w: max(exact_oracles.ball_distance(z[:2], w[:2]),
                                 exact_oracles.disc_distance(z[2], w[2])),
                ProductDomain((unit_ball(2), unit_disc())),
            ),
        }[name]
        rng = np.random.Generator(np.random.Philox(key=41))
        for _ in range(10):
            z = 0.99 * domain.sample_point(rng)
            v = rng.normal(size=domain.dim) + 1j * rng.normal(size=domain.dim)
            assert self._quotient(distance, z, v) == pytest.approx(metric(z, v), rel=1e-15)


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

    @pytest.mark.parametrize("base, total", [
        (unit_disc(), Polydisc(np.zeros(2), [0.4, 1.0])),
        (Polydisc(np.zeros(1), 0.4), unit_bidisc()),
    ], ids=["embed", "project"])
    def test_first_violation_in_sampling_order(self, base, total):
        # the samples are drawn g0, t0, g1, t1, ...; the error names the first
        # one that fails, as checking each right after its draw would
        rng = np.random.Generator(np.random.Philox(key=0))
        for _ in range(HYPOTHESIS_SAMPLES):
            g = base.sample_point(rng)
            if not total.contains(slice_embed(g, 2)):
                expected = f"base point {g!r} does not embed into the total domain"
                break
            t = total.sample_point(rng)
            if not base.contains(t[:1]):
                expected = f"total-domain point {t!r} does not project into the base"
                break
        with pytest.raises(SliceHypothesisError) as excinfo:
            slice_identity_check(base, total, [0], [0.2])
        assert str(excinfo.value) == expected

    def test_hypothesis_checked_in_two_batches(self, monkeypatch):
        # the base is the unit disc, a Ball; the total, the bidisc, a Polydisc
        calls = _record_gaps_callers(monkeypatch, Ball, Polydisc)
        report = slice_identity_check(unit_disc(), unit_bidisc(), [0], [0.5])
        assert report.passed
        rows = [rows for caller, rows in calls if caller == "slice_identity_check"]
        assert rows == [HYPOTHESIS_SAMPLES, HYPOTHESIS_SAMPLES]


# cauchy_table(..., depth=40, margin=1e-3)'s U, T and norm columns, as hex:
# the same on the unit bidisc and on the C^3 candidate, whose discs certify
CAUCHY_COLUMNS_40 = {
    "upper": (
        "0x1.8b56229ed35a1p-3", "0x1.830aebcb3587dp-4", "0x1.810b4f662c6b8p-5",
        "0x1.808c8dc41531ap-6", "0x1.806cef7f31cc8p-7", "0x1.8065090f665cfp-8",
        "0x1.80630f8587273p-9", "0x1.8062912430876p-10", "0x1.8062718becf20p-11",
        "0x1.806269a5dd2dep-12", "0x1.806267ac594efp-13", "0x1.8062672df8585p-14",
        "0x1.8062670e601abp-15", "0x1.806267067a0b5p-16", "0x1.8062670480877p-17",
        "0x1.8062670402269p-18", "0x1.80626703e28e5p-19", "0x1.80626703daa83p-20",
        "0x1.80626703d8aecp-21", "0x1.80626703d8305p-22", "0x1.80626703d810bp-23",
        "0x1.80626703d808dp-24", "0x1.80626703d806dp-25", "0x1.80626703d8066p-26",
        "0x1.80626703d8065p-27", "0x1.80626703d8063p-28", "0x1.80626703d8063p-29",
        "0x1.80626703d8063p-30", "0x1.80626703d8063p-31", "0x1.80626703d8063p-32",
        "0x1.80626703d8063p-33", "0x1.80626703d8063p-34", "0x1.80626703d8063p-35",
        "0x1.80626703d8063p-36", "0x1.80626703d8063p-37", "0x1.80626703d8063p-38",
        "0x1.80626703d8063p-39", "0x1.80626703d8063p-40", "0x1.80626703d8063p-41",
    ),
    "tail": (
        "0x1.869e85c8acebcp-2", "0x1.81e6e8f2867d9p-3", "0x1.80c2e619d7735p-4",
        "0x1.807a7ccd827b3p-5", "0x1.80686bd6efc4dp-6", "0x1.8063e82eadbd1p-7",
        "0x1.8062c74df51d3p-8", "0x1.80627f1663133p-9", "0x1.80626d08959efp-10",
        "0x1.806268853e4bfp-11", "0x1.806267649f6a0p-12", "0x1.8062671ce5850p-13",
        "0x1.8062670bd2b1bp-14", "0x1.806267094548dp-15", "0x1.8062670c10866p-16",
        "0x1.80626713a0855p-17", "0x1.806267233ee43p-18", "0x1.806267429b3a1p-19",
        "0x1.806267815bcc1p-20", "0x1.806267fedee96p-21", "0x1.806268f9e5a27p-22",
        "0x1.80626aeff3343p-23", "0x1.80626edc0e5f7p-24", "0x1.806276b444b81p-25",
        "0x1.80628664b169cp-26", "0x1.8062a5c58acd5p-27", "0x1.8062e4873d947p-28",
        "0x1.8063620aa322cp-29", "0x1.80645d116e3f6p-30", "0x1.8066531f0478bp-31",
        "0x1.806a3f3a30eb3p-32", "0x1.8072177089d04p-33", "0x1.8081c7dd3b9a7p-34",
        "0x1.80a128b69f2ebp-35", "0x1.80dfea6966573p-36", "0x1.815d6dcef4a82p-37",
        "0x1.8258749a114a2p-38", "0x1.844e82304a8e1p-39", "0x1.883a9d5cbd160p-40",
    ),
    "norm": (
        "0x1.007fe00ff6070p-4", "0x1.0007ffe000fffp-6", "0x1.00007fffe0001p-8",
        "0x1.000007ffffe00p-10", "0x1.0000007fffffep-12", "0x1.0000000800000p-14",
        "0x1.0000000080000p-16", "0x1.0000000008000p-18", "0x1.0000000000800p-20",
        "0x1.0000000000080p-22", "0x1.0000000000008p-24", "0x1.0000000000000p-26",
        "0x1.0000000000000p-28", "0x1.0000000000000p-30", "0x1.0000000000000p-32",
        "0x1.0000000000000p-34", "0x1.0000000000000p-36", "0x1.0000000000000p-38",
        "0x1.0000000000000p-40", "0x1.0000000000000p-42", "0x1.0000000000000p-44",
        "0x1.0000000000000p-46", "0x1.0000000000000p-48", "0x1.0000000000000p-50",
        "0x1.0000000000000p-52", "0x1.0000000000000p-54", "0x1.0000000000000p-56",
        "0x1.0000000000000p-58", "0x1.0000000000000p-60", "0x1.0000000000000p-62",
        "0x1.0000000000000p-64", "0x1.0000000000000p-66", "0x1.0000000000000p-68",
        "0x1.0000000000000p-70", "0x1.0000000000000p-72", "0x1.0000000000000p-74",
        "0x1.0000000000000p-76", "0x1.0000000000000p-78", "0x1.0000000000000p-80",
    ),
}


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

    def test_membership_failure_names_first_outside_index(self):
        # a small polydisc centred at the first ladder point holds nu = 1
        # but not the later points; the error names the first one outside
        near = Polydisc([1 / 16, 1 / 256], 0.01)
        with pytest.raises(CauchyMembershipError) as excinfo:
            cauchy_table(near, DyadicLadder(5), n=2)
        assert excinfo.value.nu == 2

    @pytest.mark.parametrize("batched", [False, True], ids=["ball", "sublevel-ball"])
    def test_disc_failure_names_first_failing_index(self, batched):
        # B((0.03, 0), 0.1) holds every ladder point but not the discs nu = 1
        # and 2, which sweep |z_1| up to 1/4 and 1/8; discs 3 to 5 certify
        c = np.array([0.03, 0.0])
        domain = Ball(c, 0.1)
        if batched:
            domain = SublevelDomain(
                field=lambda z: float(np.sum(np.abs(z - c) ** 2)), level=0.01,
                ambient=Ball(c, 0.2), seed=c, lipschitz=0.4,
            )
        with pytest.raises(CauchyMembershipError, match="disc nu=1 not") as excinfo:
            cauchy_table(domain, DyadicLadder(6), n=2)
        assert excinfo.value.nu == 1

    def test_disc_failure_names_first_of_later_failures(self):
        # discs nu = 2 and 3 refused, nu = 1 and 4 certified
        class Refusing(Polydisc):
            def certify_affine_disc(self, center, direction, rho, max_cells=4096):
                if direction[0] in (1 / 8, 1 / 16):
                    return CertifyResult(CertStatus.REJECTED, rho, witness=0j)
                return super().certify_affine_disc(center, direction, rho, max_cells)

        with pytest.raises(CauchyMembershipError, match="disc nu=2 not") as excinfo:
            cauchy_table(Refusing(np.zeros(2), 1.0), DyadicLadder(5), n=2)
        assert excinfo.value.nu == 2

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            cauchy_table(unit_bidisc(), DyadicLadder(5), n=3)

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


    @pytest.mark.parametrize("where", ["bidisc", "c3-candidate"])
    def test_columns_pinned_at_depth_40(self, where):
        if where == "bidisc":
            domain, n = unit_bidisc(), 2
        else:
            domain, n = _candidate_c3(), 3
        table = cauchy_table(domain, DyadicLadder(40), n=n, depth=40, margin=1e-3)
        for column, expected in CAUCHY_COLUMNS_40.items():
            assert tuple(getattr(row, column).hex() for row in table.rows) == expected

    @pytest.mark.parametrize("where", ["bidisc", "c3-candidate"])
    def test_base3_fault_ladder_fails_the_ratio_check(self, where):
        # every base-3 point and disc certifies; the 2/3 step ratio fails
        if where == "bidisc":
            domain, n = unit_bidisc(), 2
        else:
            domain, n = _candidate_c3(), 3
        with pytest.raises(EstimationError) as excinfo:
            cauchy_table(domain, base3_mutated_ladder(40), n=n, depth=40, margin=1e-3)
        assert str(excinfo.value) == (
            "observed step ratio 0.666667 exceeds certificate ratio 0.51"
        )

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

    def _spy_ball_chain(self, monkeypatch):
        calls = []
        inner = kobayashi_module._segment_ball_chain

        def spied(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(kobayashi_module, "_segment_ball_chain", spied)
        return calls

    def test_ball_chain_skipped_once_a_slice_certifies(self, sublevel_ball, monkeypatch):
        calls = self._spy_ball_chain(monkeypatch)
        rng = np.random.Generator(np.random.Philox(key=41))
        for _ in range(4):
            z = 0.8 * sublevel_ball.sample_point(rng)
            w = 0.8 * sublevel_ball.sample_point(rng)
            _, _, _, method = search_upper_bound(sublevel_ball, z, w, budget=20_000)
            assert method == "slice"
        assert calls == []

    @pytest.mark.parametrize("budget", [20, 64, 65])
    def test_ball_chain_is_the_fallback(self, sublevel_ball, monkeypatch, budget):
        # at 64 calls or fewer the bisection does not start, and at 65 it
        # certifies nothing with the 22 calls its reserve leaves it
        calls = self._spy_ball_chain(monkeypatch)
        z, w = np.array([0.1, 0.0]), np.array([0.4, 0.1])
        val, cert, used, method = search_upper_bound(sublevel_ball, z, w, budget=budget)
        assert len(calls) == 1 and method == "ball-chain" and used <= budget
        assert isinstance(cert, DiscChain) and len(cert.links) == 2
        assert chain_upper_bound(sublevel_ball, cert, margin=0.0) == val
        assert val >= oracle_ball(z, w)

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
