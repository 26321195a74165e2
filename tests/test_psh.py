"""Levi forms, gradients, strong pseudoconvexity, lifts, candidate suite."""

import math
from fractions import Fraction

import numpy as np
import pytest

from koblab.domains import DimensionMismatchError, DomainError
from koblab.ladder import DyadicLadder
from koblab.psh import (
    FieldEvaluationError,
    GradientVanishesError,
    ScalarField,
    complex_hessian_fd,
    exp_norm_squared,
    gradient_nonvanishing,
    levi_min_eigenvalue,
    lift_quadratic_tail,
    linear_re,
    norm_squared,
    pluriharmonic_re_square,
    signature_quadratic,
    strong_pseudoconvexity_check,
    verify_defining_candidate,
)

Z0 = np.array([0.3 + 0.2j, -0.1 + 0.5j])


class TestLeviMinEigenvalue:
    def test_norm_squared_is_identity(self):
        rep = levi_min_eigenvalue(norm_squared(2), Z0)
        assert rep.mode == "analytic"
        assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-14)

    def test_signature_quadratic(self):
        rep = levi_min_eigenvalue(signature_quadratic([1.0, -1.0]), Z0)
        assert rep.min_eigenvalue == pytest.approx(-1.0, abs=1e-14)

    def test_pluriharmonic_vanishes(self):
        bare = ScalarField(2, pluriharmonic_re_square(2).evaluate)
        rep = levi_min_eigenvalue(bare, Z0, step=1e-4)
        assert rep.mode == "finite-difference"
        assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-9)

    def test_fd_matches_rank_one_hessian(self):
        a = np.array([1.0, 2j])
        field = ScalarField(2, lambda z: abs(np.sum(a * z)) ** 2)
        H = complex_hessian_fd(field, Z0, 1e-4)
        assert np.allclose(H, np.outer(a, np.conj(a)), atol=1e-7)

    def test_fd_convergence_is_second_order(self):
        field = exp_norm_squared(2)
        bare = ScalarField(2, field.evaluate)
        exact = levi_min_eigenvalue(field, Z0).min_eigenvalue
        errors = [
            abs(levi_min_eigenvalue(bare, Z0, step=h).min_eigenvalue - exact)
            for h in (2e-2, 1e-2, 5e-3)
        ]
        assert errors[0] / errors[1] >= 3.0
        assert errors[1] / errors[2] >= 3.0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            levi_min_eigenvalue(ScalarField(2, lambda z: 0.0), Z0, step=0.0)

    def test_step_halving_error_estimate(self):
        field = exp_norm_squared(2)
        bare = ScalarField(2, field.evaluate)
        exact = levi_min_eigenvalue(field, Z0).min_eigenvalue
        rep = levi_min_eigenvalue(bare, Z0, step=1e-2, estimate_error=True)
        half_error = abs(
            levi_min_eigenvalue(bare, Z0, step=5e-3).min_eigenvalue - exact
        )
        assert rep.error_estimate == pytest.approx(half_error, rel=0.2)
        assert levi_min_eigenvalue(field, Z0, estimate_error=True).error_estimate == 0.0


class TestGradient:
    def test_norm_squared(self):
        assert gradient_nonvanishing(norm_squared(2), [0.5, 0]) == pytest.approx(1.0, abs=1e-14)

    def test_critical_point(self):
        assert gradient_nonvanishing(norm_squared(2), [0, 0]) == pytest.approx(0.0, abs=1e-14)

    def test_linear(self):
        assert gradient_nonvanishing(linear_re(2), Z0) == pytest.approx(1.0, abs=1e-14)

    def test_fd_agrees_with_analytic(self):
        bare = ScalarField(2, norm_squared(2).evaluate)
        assert gradient_nonvanishing(bare, [0.5, 0], step=1e-5) == pytest.approx(1.0, abs=1e-9)


class TestStrongPseudoconvexity:
    # in C^3 the complex tangent space has dimension 2, so the kernel basis
    # has more than one column
    @pytest.mark.parametrize("n", [2, 3], ids=["C2", "C3"])
    def test_sphere(self, n):
        p = np.zeros(n)
        p[0] = 1.0
        val = strong_pseudoconvexity_check(norm_squared(n), p, level=1.0)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_sphere_plus_pluriharmonic(self):
        base = norm_squared(2)
        bump = pluriharmonic_re_square(2)
        field = ScalarField(2, lambda z: base.evaluate(z) + bump.evaluate(z))
        # p on {f = 1}: 2x^2 + y^2 = 1 along the real slice
        p = np.array([0.5, math.sqrt(0.5)])
        assert abs(field(p) - 1.0) < 1e-12
        val = strong_pseudoconvexity_check(field, p, level=1.0)
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "n, f",
        [(2, lambda z: abs(z[0]) ** 2), (3, lambda z: abs(z[0]) ** 2 + abs(z[1]) ** 2)],
        ids=["C2", "C3"],
    )
    def test_degenerate_direction(self, n, f):
        field = ScalarField(n, f)
        p = np.zeros(n)
        p[0] = 1.0
        val = strong_pseudoconvexity_check(field, p)
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_scaling_covariance(self):
        field = norm_squared(2)
        tripled = ScalarField(2, lambda z: 3.0 * field.evaluate(z))
        # same point: the tangent space is unchanged, the form scales (the
        # scaled field has no analytic suppliers, so fd tolerance applies)
        v1 = strong_pseudoconvexity_check(field, [1.0, 0.0])
        v3 = strong_pseudoconvexity_check(tripled, [1.0, 0.0])
        assert v3 == pytest.approx(3.0 * v1, rel=1e-6)
        # and on the rescaled level set of the scaled field
        v3b = strong_pseudoconvexity_check(tripled, [math.sqrt(1 / 3), 0.0])
        assert v3b == pytest.approx(3.0 * v1, rel=1e-6)

    def test_vanishing_gradient_rejected(self):
        with pytest.raises(GradientVanishesError):
            strong_pseudoconvexity_check(norm_squared(2), [0.0, 0.0])

    def test_off_level_rejected(self):
        with pytest.raises(ValueError):
            strong_pseudoconvexity_check(norm_squared(2), [0.5, 0.0], level=1.0)


# bases with an analytic Lipschitz bound, and radii from tiny to huge
LIFT_BASES = {"norm2": norm_squared(2), "quadratic": signature_quadratic([1.0, -1.0])}
LIPSCHITZ_RADII = (1e-200, 0.1, 0.3, 1.0, 2.9, 3.3, 4.1, 1e150)


class TestLift:
    def test_zero_base(self):
        zero = ScalarField(2, lambda z: 0.0)
        lifted = lift_quadratic_tail(zero, 3)
        assert lifted([0, 0, 0.5]) == pytest.approx(0.25)

    def test_tail_vanishes_on_slice(self):
        u = exp_norm_squared(2)
        lifted = lift_quadratic_tail(u, 4)
        z = np.array([0.2 + 0.1j, -0.4j, 0, 0])
        assert lifted(z) == pytest.approx(u(z[:2]), abs=1e-15)

    def test_norm_base_value(self):
        lifted = lift_quadratic_tail(norm_squared(2), 4)
        assert lifted([0.1, 0, 0.2, 0.2]) == pytest.approx(0.09, abs=1e-15)

    def test_tail_block_identity_exact(self):
        lifted = lift_quadratic_tail(exp_norm_squared(2), 5)
        rng = np.random.Generator(np.random.Philox(key=11))
        for _ in range(10):
            z = rng.normal(size=5) + 1j * rng.normal(size=5)
            H = lifted.complex_hessian(z)
            assert np.array_equal(H[2:, 2:], np.eye(3, dtype=complex))
            assert np.all(H[2:, :2] == 0) and np.all(H[:2, 2:] == 0)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            lift_quadratic_tail(norm_squared(2), 2)

    @pytest.mark.parametrize("base", sorted(LIFT_BASES))
    @pytest.mark.parametrize("r", LIPSCHITZ_RADII)
    def test_lipschitz_adds_the_blocks_in_quadrature(self, base, r):
        u = LIFT_BASES[base]
        bound = lift_quadratic_tail(u, 3).lipschitz(r)
        assert bound == math.nextafter(math.hypot(u.lipschitz(r), 2.0 * r), math.inf)
        # the rounded bound is at least sqrt(L_u(r)^2 + 4 r^2), exactly
        assert Fraction(bound) ** 2 >= Fraction(u.lipschitz(r)) ** 2 + 4 * Fraction(r) ** 2
        # both lifts have gradient (2 z_1, +-2 z_2, 2 z_3), so the exact sup
        # of its norm over B(0, r) is 2r
        assert bound >= 2.0 * r
        assert bound < u.lipschitz(r) + 2.0 * r

    @pytest.mark.parametrize("base", sorted(LIFT_BASES))
    def test_lipschitz_bounds_the_gradient_on_the_sphere(self, base):
        lifted = lift_quadratic_tail(LIFT_BASES[base], 3)
        rng = np.random.Generator(np.random.Philox(key=26))
        for r in (0.5, 4.1):
            for _ in range(20):
                z = rng.normal(size=3) + 1j * rng.normal(size=3)
                z *= r / np.linalg.norm(z)
                assert np.linalg.norm(lifted.gradient(z)) <= lifted.lipschitz(r)

    def test_lipschitz_none_without_a_base_bound(self):
        assert exp_norm_squared(2).lipschitz is None
        assert lift_quadratic_tail(exp_norm_squared(2), 3).lipschitz is None


class TestSignatureQuadraticLipschitz:
    @pytest.mark.parametrize("r", LIPSCHITZ_RADII)
    @pytest.mark.parametrize("coeffs", [[1.0, -1.0], [3.0, -1.0], [0.2, -0.7]])
    def test_bound_rounds_up(self, coeffs, r):
        bound = signature_quadratic(coeffs).lipschitz(r)
        top = max(abs(c) for c in coeffs)
        assert bound == math.nextafter(2.0 * top * r, math.inf)
        assert Fraction(bound) >= 2 * Fraction(top) * Fraction(r)

    def test_plain_product_can_round_down(self):
        # why the bound steps up: 2.0 * 3.0 * 0.3 rounds below the exact product
        assert Fraction(2.0 * 3.0 * 0.3) < 2 * 3 * Fraction(0.3)


FIELDS = {
    "norm2": norm_squared(2),
    "quadratic": signature_quadratic([1.0, -1.0]),
    "re-square": pluriharmonic_re_square(2),
    "linear-re": linear_re(2),
    "exp-norm2": exp_norm_squared(2),
    "lift": lift_quadratic_tail(norm_squared(2), 4),
}


class TestValues:
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_rows_match_pointwise_calls(self, name):
        # one vectorised call gives each row's pointwise value bit for bit
        field = FIELDS[name]
        rng = np.random.Generator(np.random.Philox(key=11))
        points = rng.uniform(-1.3, 1.3, (200, field.dim)) + 1j * rng.uniform(-1.3, 1.3, (200, field.dim))
        values = field.values(points)
        assert values.shape == (200,)
        assert [float.hex(float(v)) for v in values] == [float.hex(field(z)) for z in points]

    def test_empty_batch(self):
        assert norm_squared(2).values(np.zeros((0, 2), dtype=complex)).shape == (0,)

    def test_non_finite_value_names_field(self):
        field = ScalarField(
            2, lambda z: np.where(z[..., 0].real > 0.5, np.inf, 1.0), name="wall"
        )
        assert np.array_equal(field.values(np.array([[0.1, 0.2j]])), [1.0])
        with pytest.raises(FieldEvaluationError, match="wall is non-finite"):
            field.values(np.array([[0.1, 0.2j], [0.9, 0.0]]))

    def test_batch_checked_once(self):
        field = norm_squared(2)
        with pytest.raises(DimensionMismatchError):
            field.values(np.zeros((3, 3)))
        with pytest.raises(DimensionMismatchError):
            field.values(np.zeros(2))
        with pytest.raises(DomainError, match="non-finite"):
            field.values(np.array([[0.1, complex("nan")]]))

    def test_unvectorised_evaluate_rejected(self):
        # z[0] of a batch is its first row, not the first coordinate
        field = ScalarField(2, lambda z: abs(z[0]) ** 2, name="pointwise")
        with pytest.raises(FieldEvaluationError, match="pointwise gave shape"):
            field.values(np.zeros((3, 2)))


class TestCandidateSuite:
    def test_quadratic_negative_control_rejected(self):
        report = verify_defining_candidate(norm_squared(2), DyadicLadder(20))
        assert not report.accepted
        assert "value-at-origin" in report.rejected_checks
        # the quadratic is genuinely strictly psh with nonvanishing gradient
        assert report.check("strict-psh").passed
        assert report.check("gradient-nonvanishing").passed
        assert report.check("below-one-on-segments").passed

    def test_exact_origin_value_has_zero_deviation(self):
        shifted = ScalarField(2, lambda z: 1.0 + float(np.sum(np.abs(z) ** 2)))
        report = verify_defining_candidate(shifted, DyadicLadder(20))
        check = report.check("value-at-origin")
        assert check.passed and check.value == 1.0
        # but values exceed 1 on the segments, so the candidate is rejected
        assert "below-one-on-segments" in report.rejected_checks

    def test_marked_points_are_sampled(self):
        seen = []

        def recording(z):
            seen.append(np.array(z))
            return 0.0

        ladder = DyadicLadder(25)
        verify_defining_candidate(ScalarField(2, recording), ladder)
        for nu in range(1, 21):
            target = ladder.point_complex(nu)
            assert any(np.array_equal(s, target) for s in seen)

    def test_report_carries_sample_counts(self):
        report = verify_defining_candidate(norm_squared(2), DyadicLadder(10))
        for check in report.checks:
            assert check.samples >= 1
        # the fixed plan: 10 radii x 12 directions; 20 ladder discs, each its
        # marked point plus a 4 x 10 polar grid; 4 spheres x 48 points
        assert [c.samples for c in report.checks] == [120, 120, 1, 820, 192]
        assert [c.tolerance for c in report.checks] == [1e-4, 1e-4, 1e-9, 0.0, 0.0]
