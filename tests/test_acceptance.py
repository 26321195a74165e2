"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Frozen expectations come from independent closed forms (half-log
distances, ball automorphism formula, product formula) evaluated at 50
decimal digits in `exact_oracles` (tests/exact_oracles.py), not from the
estimator code paths under test.
"""

import math
import time
from fractions import Fraction

import numpy as np

from koblab.cli import experiment_rng, parse_config, run
from koblab.curves import SampledCurve
from koblab.domains import unit_ball, unit_bidisc, unit_disc
from koblab.geodesics import build_chain_curve, check_almost_geodesic, visibility_experiment
from koblab.kobayashi import estimate_distance, infinitesimal_bounds, slice_identity_check
from koblab.ladder import DyadicLadder, chain_term_table, verify_ladder
from koblab.psh import (
    ScalarField,
    exp_norm_squared,
    levi_min_eigenvalue,
    norm_squared,
    strong_pseudoconvexity_check,
    verify_defining_candidate,
)

from exact_oracles import ball_distance as oracle_ball
from exact_oracles import disc_distance as oracle_p
from exact_oracles import polydisc_distance as oracle_polydisc
from test_geodesics import random_geodesic_chain


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_ladder_exactness():
    start = time.perf_counter()
    ladder = DyadicLadder(40)
    result = verify_ladder(ladder)
    # the evaluation identities and memberships, re-stated exactly
    exact = all(
        ladder.segment_map_exact(nu, ladder.a(nu) / ladder.b(nu)) == ladder.point(nu)
        and ladder.segment_map_exact(nu, ladder.a(nu + 1) / ladder.b(nu)) == ladder.point(nu + 1)
        and ladder.segment(nu).contains_exact(*ladder.point(nu))
        for nu in range(1, 41)
    )
    elapsed = time.perf_counter() - start
    ok = result.passed and exact and elapsed < 1.0
    report(1, ok, f"ladder identities exact at depth 40 in {elapsed:.3f}s")


def test_criterion_2_chain_terms():
    start = time.perf_counter()
    table = chain_term_table(DyadicLadder(40))
    t1, t2 = table.term(1), table.term(2)
    ratios = table.ratios()
    tail10 = table.tail_from(10)
    elapsed = time.perf_counter() - start
    checks = [
        abs(t1 - 0.192831) <= 1e-6,
        abs(t2 - 0.094398) <= 1e-6,
        abs(t1 - oracle_p(Fraction(1, 4), Fraction(1, 16))) <= 1e-12,
        abs(t2 - oracle_p(Fraction(1, 8), Fraction(1, 32))) <= 1e-12,
        bool(np.all((ratios[:30] > 0.45) & (ratios[:30] < 0.51))),
        tail10 < 1e-3,
        elapsed < 1.0,
    ]
    report(
        2,
        all(checks),
        f"term(1)={t1:.6f}, term(2)={t2:.6f}, tail(10)={tail10:.2e}, {elapsed:.3f}s",
    )


def test_criterion_3_slice_identity():
    start = time.perf_counter()
    base, total = unit_disc(), unit_bidisc()
    worst_width = 0.0
    for i in range(20):
        rng = experiment_rng(0, "acceptance-slice", i)
        z = 0.95 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        w = 0.95 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        if z == w:
            continue
        truth = oracle_p(z, w)
        rep = slice_identity_check(base, total, [z], [w], budget=10_000)
        assert rep.passed, f"pair {i}: brackets failed to overlap"
        lo, hi = rep.intersection
        assert lo - 1e-12 <= truth <= hi + 1e-12, f"pair {i}: oracle outside intersection"
        if truth <= 2.0:
            for est in (rep.base_estimate, rep.total_estimate):
                worst_width = max(worst_width, est.width / max(truth, 1e-12))
                assert est.width <= 0.01 * max(truth, 1e-12), f"pair {i}: bracket too wide"
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report(3, ok, f"20 pairs, worst relative width {worst_width:.2e}, {elapsed:.1f}s")


def test_criterion_4_estimator_calibration():
    cases = [
        ("disc", unit_disc(), lambda z, w: oracle_p(z[0], w[0])),
        ("ball", unit_ball(2), oracle_ball),
        ("bidisc", unit_bidisc(), oracle_polydisc),
    ]
    violations = 0
    for d_idx, (name, domain, oracle) in enumerate(cases):
        for i in range(100):
            rng = experiment_rng(0, "acceptance-calibration", d_idx * 1000 + i)
            z = 0.96 * domain.sample_point(rng)
            w = 0.96 * domain.sample_point(rng)
            if np.array_equal(z, w):
                continue
            truth = oracle(z, w)
            est = estimate_distance(domain, z, w)
            if not (est.lower <= truth + 1e-12 and truth <= est.upper + 1e-12):
                violations += 1
        metric = infinitesimal_bounds(domain, np.zeros(domain.dim), np.eye(domain.dim)[0])
        assert abs(metric.upper - 1.0) <= 1e-6, f"{name}: center metric upper off"
        assert abs(metric.lower - 1.0) <= 1e-6, f"{name}: center metric lower off"
    report(4, violations == 0, f"300 sandwich checks, {violations} violations, center metric = 1 +- 1e-6")


def test_criterion_5_cauchy_demo():
    start = time.perf_counter()
    cfg = parse_config({"experiment": "cauchy-demo", "N": 40})
    rep = run(cfg, quiet=True)
    assert rep.exit_code == 0, "sanity-mode cauchy-demo did not pass"
    table = chain_term_table(DyadicLadder(40))
    rows = rep.artifacts["cauchy_table"]["rows"]
    margin = cfg.margin
    for nu, upper, tail, norm in rows:
        if nu <= 30:
            assert upper <= table.term(nu) * (1 + 2 * margin), f"U({nu}) too large"
    tails = [r[2] for r in rows]
    norms = [r[3] for r in rows]
    assert all(a > b for a, b in zip(tails, tails[1:])), "tails not decreasing"
    assert all(a > b for a, b in zip(norms, norms[1:])), "norms not decreasing"
    assert tails[-1] < 1e-20 or tails[-1] < tails[0] * 1e-9
    # negative control: a candidate failing the property suite exits 1
    bad = parse_config(
        {"experiment": "cauchy-demo", "N": 8, "field": {"kind": "norm2", "dim": 2}}
    )
    bad_rep = run(bad, quiet=True)
    assert bad_rep.exit_code == 1
    named = [c.detail for c in bad_rep.checks if c.status == "fail"]
    assert named and "value-at-origin" in named[0]
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    report(5, ok, f"U <= term(1+2m) for nu <= 30; escape columns monotone; {elapsed:.1f}s")


def test_criterion_6_checker_soundness():
    domain = unit_bidisc()
    rng = np.random.Generator(np.random.Philox(key=1234))
    false_fails = 0
    non_passes = 0
    for trial in range(100):
        chain = random_geodesic_chain(rng)
        curve = build_chain_curve(domain, chain, 120)
        verdict = check_almost_geodesic(
            domain, curve, lam=1.0, kappa=0.05, pair_samples=10, speed_samples=6, seed=trial
        )
        if verdict.overall == "fail":
            false_fails += 1
        if verdict.overall != "pass":
            non_passes += 1
    ts = np.linspace(0.0, 1.8, 40)
    pts = np.stack([(-0.9 + ts).astype(complex), np.zeros(40, complex)], axis=1)
    control = check_almost_geodesic(unit_ball(2), SampledCurve(ts, pts), 1.0, 0.1, seed=0)
    ok = false_fails == 0 and non_passes == 0 and control.overall == "fail"
    report(
        6,
        ok,
        f"100 geodesic chains: {false_fails} false fails, {non_passes} non-passes; "
        f"negative control verdict = {control.overall}",
    )


def test_criterion_7_levi_suite():
    field = exp_norm_squared(2)
    bare = ScalarField(2, field.evaluate)
    z0 = np.array([0.3 + 0.2j, -0.1 + 0.5j])
    exact = levi_min_eigenvalue(field, z0).min_eigenvalue
    errors = [
        abs(levi_min_eigenvalue(bare, z0, step=h).min_eigenvalue - exact)
        for h in (2e-2, 1e-2, 5e-3)
    ]
    ratio1, ratio2 = errors[0] / errors[1], errors[1] / errors[2]
    sphere = norm_squared(2)
    bare_sphere = ScalarField(2, sphere.evaluate)
    rng = np.random.Generator(np.random.Philox(key=77))
    margins = []
    for _ in range(50):
        vec = rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        p = vec[:2] + 1j * vec[2:]
        margins.append(strong_pseudoconvexity_check(bare_sphere, p, level=1.0))
    sphere_ok = all(abs(m - 1.0) <= 1e-3 for m in margins)
    control = verify_defining_candidate(norm_squared(2), DyadicLadder(20))
    ok = ratio1 >= 3.0 and ratio2 >= 3.0 and sphere_ok and not control.accepted
    report(
        7,
        ok,
        f"fd error ratios {ratio1:.2f}, {ratio2:.2f}; sphere margin 1 +- 1e-3 at 50 points; "
        f"quadratic candidate rejected: {tuple(control.rejected_checks)}",
    )


def test_criterion_8_visibility_evidence():
    start = time.perf_counter()
    rep = visibility_experiment(
        unit_ball(2), [1.0, 0.0], [-1.0, 0.0], r_nbhd=0.05,
        lam=1.0, kappa=0.2, n_curves=50, seed=0,
    )
    elapsed = time.perf_counter() - start
    ok = (
        rep.passing >= 40
        and rep.epsilon_star is not None
        and rep.epsilon_star >= 0.3
        and elapsed < 120.0
    )
    report(
        8,
        ok,
        f"{rep.passing}/50 passing, epsilon_star = {rep.epsilon_star:.3f}, {elapsed:.1f}s",
    )
