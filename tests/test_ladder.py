"""Exact ladder identities and the hyperbolic term table."""

import math
from fractions import Fraction

import numpy as np
import pytest

from koblab.cli import emit_plot_data, parse_config, run
from koblab.ladder import (
    DyadicLadder,
    base3_mutated_ladder,
    chain_term_table,
    verify_ladder,
)


def oracle_term(nu):
    """Independent closed form: arctanh via half-log of the dyadic parameters."""
    zin = Fraction(1, 2 ** (nu + 1))
    zout = Fraction(1, 2 ** (nu + 3))
    m = (zin - zout) / (1 - zin * zout)
    return 0.5 * math.log((1 + m) / (1 - m))


class TestLadderPoints:
    def test_first_point(self):
        assert DyadicLadder(5).point(1) == (Fraction(1, 16), Fraction(1, 256))

    def test_second_point(self):
        assert DyadicLadder(5).point(2) == (Fraction(1, 64), Fraction(1, 4096))

    def test_rejects_index_zero(self):
        with pytest.raises(ValueError):
            DyadicLadder(5).point(0)

    def test_point_on_segment_exact(self):
        ladder = DyadicLadder(30)
        for nu in (1, 7, 30):
            x1, x2 = ladder.point(nu)
            assert ladder.segment(nu).contains_exact(x1, x2)

    def test_scale_invariant(self):
        ladder = DyadicLadder(50)
        for nu in range(1, 51):
            assert ladder.a(nu) == ladder.b(nu) ** 2


class TestSegmentMap:
    def test_hits_first_point(self):
        ladder = DyadicLadder(5)
        assert ladder.segment_map_exact(1, Fraction(1, 4)) == ladder.point(1)

    def test_hits_second_point(self):
        ladder = DyadicLadder(5)
        assert ladder.segment_map_exact(1, Fraction(1, 16)) == ladder.point(2)

    def test_center_value(self):
        assert DyadicLadder(5).segment_map_exact(1, Fraction(0)) == (
            Fraction(0),
            Fraction(-1, 1024),
        )

    def test_complex_parameter(self):
        out = DyadicLadder(5).segment_point(1, 0.5j)
        seg = DyadicLadder(5).segment(1)
        assert abs(out[1] - (float(seg.slope) * out[0] + float(seg.intercept))) < 1e-18

    def test_rejects_outside_parameter(self):
        with pytest.raises(ValueError):
            DyadicLadder(5).segment_point(1, 1.5)


class TestVerifyLadder:
    def test_dyadic_passes_exactly(self):
        report = verify_ladder(DyadicLadder(20))
        assert report.passed
        assert report.failed_items() == ()

    def test_depth_40(self):
        assert verify_ladder(DyadicLadder(40)).passed

    def test_parameters_dyadic_closed_form(self):
        ladder = DyadicLadder(25)
        for nu in range(1, 26):
            zin, zout = ladder.disc_parameters(nu)
            assert zin == Fraction(1, 2 ** (nu + 1))
            assert zout == Fraction(1, 2 ** (nu + 3))

    def test_base3_mutation_flags_item_c_only(self):
        report = verify_ladder(base3_mutated_ladder(15))
        assert not report.passed
        assert report.item_passed("a")
        assert report.item_passed("b")
        assert report.failed_items() == ("c",)
        failing = [c for c in report.checks if not c.passed]
        assert all(c.witness for c in failing)

    def test_every_check_runs_past_an_earlier_failure(self):
        # a = b puts zeta_in = 1 on the unit circle at every nu, so the
        # disc check fails first; the dyadic form 1/4 fails on its own
        ladder = DyadicLadder(10, a_fn=lambda nu: Fraction(1, 2 ** (nu + 1)))
        checks = {c.name: c for c in verify_ladder(ladder).checks}
        assert not checks["parameters-in-disc"].passed
        assert checks["parameters-in-disc"].witness == "nu=1: parameter outside unit disc"
        dyadic = checks["parameters-dyadic-form"]
        assert not dyadic.passed
        assert dyadic.witness.startswith("nu=1: parameters (1, 1/2) are not")
        # both evaluation identities hold for any scales, so they pass with
        # no witness
        for name in ("map-hits-point", "map-hits-next-point"):
            assert checks[name].passed and checks[name].witness == ""

    def test_vanishing_reads_the_last_norm(self):
        # the point at nu = 2 lies off its segment and its norm rises; the
        # norms then fall to 4^-11
        ladder = DyadicLadder(
            10, a_fn=lambda nu: Fraction(1, 2) if nu == 2 else Fraction(1, 4 ** (nu + 1))
        )
        checks = {c.name: c for c in verify_ladder(ladder).checks}
        decreasing = checks["norms-strictly-decreasing"]
        assert not decreasing.passed
        assert decreasing.witness == "nu=2: norm did not decrease"
        assert checks["norms-vanishing"].passed
        assert checks["points-on-segments"].witness == "nu=2: point off segment"


class TestChainTermTable:
    def test_first_terms_against_oracle(self):
        table = chain_term_table(DyadicLadder(40))
        assert table.term(1) == pytest.approx(oracle_term(1), abs=1e-12)
        assert table.term(2) == pytest.approx(oracle_term(2), abs=1e-12)
        assert table.term(1) == pytest.approx(0.19283124040599234, abs=1e-12)
        assert table.term(2) == pytest.approx(0.09439703564978603, abs=1e-12)

    def test_partial_sum(self):
        table = chain_term_table(DyadicLadder(10))
        assert table.partial_sum(2) == pytest.approx(0.2872282760557784, abs=1e-12)

    def test_terms_positive_strictly_decreasing(self):
        table = chain_term_table(DyadicLadder(40))
        assert np.all(table.terms > 0)
        assert np.all(np.diff(table.terms) < 0)
        assert np.all(np.diff(table.partial_sums) > 0)

    def test_ratios_in_window(self):
        table = chain_term_table(DyadicLadder(40))
        ratios = table.ratios()
        assert np.all(ratios[:30] > 0.45)
        assert np.all(ratios[:30] < 0.51)
        # ratios approach 1/2
        assert abs(ratios[15] - 0.5) < 0.02

    def test_tail_certificate(self):
        table = chain_term_table(DyadicLadder(40))
        # certified inclusive tail dominates the truncated series
        truncated = float(np.sum(table.terms[9:]))
        assert truncated < table.tail_from(10) < 1e-3

    def test_mutated_ladder_breaks_ratio_certificate(self):
        with pytest.raises(ValueError):
            chain_term_table(base3_mutated_ladder(10))

    def test_csv_format(self, tmp_path):
        # the CLI's one CSV writer serializes the table
        report = run(parse_config({"experiment": "verify-ladder", "N": 40}), quiet=True)
        emit_plot_data(report, tmp_path)
        lines = (tmp_path / "chain_table.csv").read_text().splitlines()
        assert lines[0] == "nu,term,partial_sum,tail_bound"
        assert len(lines) == 41
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == chain_term_table(DyadicLadder(40)).term(1)
        assert float(first[1]) == pytest.approx(0.19283124040599234, abs=1e-16)
