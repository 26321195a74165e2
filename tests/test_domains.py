"""Domain oracles: membership, certified distances, disc certificates, specs."""

import numpy as np
import pytest

from koblab.domains import (
    Ball,
    CertStatus,
    DimensionMismatchError,
    DomainError,
    DomainOracle,
    Membership,
    PointOutsideDomainError,
    Polydisc,
    ProductDomain,
    ProductSlice,
    SublevelDomain,
    as_point,
    domain_from_spec,
    slice_embed,
    unit_ball,
    unit_bidisc,
    unit_disc,
)


def norm2(z):
    return float(np.sum(np.abs(np.asarray(z)) ** 2))


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
