"""Almost-geodesic candidates, numerical verification, and visibility runs.

A curve sigma on an interval is a (lambda, kappa)-almost-geodesic when

  (a)  |s - t| / lambda - kappa <= K(sigma(s), sigma(t)) <= lambda |s - t| + kappa
       for all parameter pairs, and
  (b)  sigma is absolutely continuous with metric speed k(sigma; sigma') <= lambda
       at almost every parameter.

The checker samples both conditions and compares distance brackets against
the allowed band.  A FAIL verdict requires a certified violation (the whole
bracket outside the band) and ends at the first one; anything short of that
is INDETERMINATE.  The visibility harness can only sample curve families, so
its output is experimental evidence, never a visibility certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curves as curves_mod
from .curves import SampledCurve
from .domains import (
    DimensionMismatchError,
    DomainOracle,
    PointOutsideDomainError,
    _unit_ball_sample,
    as_point,
)
from .kobayashi import (
    DiscChain,
    EstimationError,
    _bracket_from_lower,
    chain_upper_bound,
    estimate_distance,
    infinitesimal_bounds,
    lower_bound,
)
from .poincare import DiscPointError, disc_geodesic, poincare_distance

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"

# oracle budget of each condition-(a) distance bracket
PAIR_BUDGET = 4000
# visibility_experiment: checker samples per curve and curve samples per link
VISIBILITY_PAIR_SAMPLES = 16
VISIBILITY_SPEED_SAMPLES = 8
VISIBILITY_SAMPLES_PER_DISC = 120
# sample_cap_points gives up after drawing this many offsets
CAP_STREAM_LIMIT = 100_000


def build_chain_curve(
    domain: DomainOracle, chain: DiscChain, samples_per_disc: int = 200
) -> SampledCurve:
    """Concatenated disc geodesics of a certified chain, by hyperbolic length.

    Every link is certified on the closed parameter disc first; each then
    contributes the image of the parameter-disc geodesic from its
    in-parameter to its out-parameter, so the total parameter length equals
    the chain cost.  The curve records the chain in ``chain_samples``, with
    each sample's link index and disc parameter; a joint sample belongs to
    the link it ends.  ``check_almost_geodesic`` brackets pairs with it.
    """
    chain_upper_bound(domain, chain, margin=0.0)
    pieces: list[SampledCurve] = []
    links, zetas = [], []
    for index, link in enumerate(chain.links):
        inner = disc_geodesic(link.zeta_in, link.zeta_out, samples_per_disc)
        zeta = inner.points[:, 0]
        pts = link.disc.center + zeta[:, None] * link.disc.direction
        pts[0] = link.start
        pts[-1] = link.end
        pieces.append(SampledCurve(inner.params, pts))
        # concatenate drops each later piece's first sample, the joint
        kept = zeta if index == 0 else zeta[1:]
        zetas.append(kept)
        links.append(np.full(kept.size, index))
    curve = curves_mod.concatenate(pieces)
    link, zeta = np.concatenate(links), np.concatenate(zetas)
    link.setflags(write=False)
    zeta.setflags(write=False)
    object.__setattr__(curve, "chain_samples", (chain, link, zeta))
    return curve


@dataclass(frozen=True)
class PairCheck:
    s: float
    t: float
    lower: float
    upper: float | None
    band_low: float
    band_high: float
    status: str


@dataclass(frozen=True)
class SpeedCheck:
    t: float
    lower: float
    upper: float
    limit: float
    status: str


@dataclass(frozen=True)
class AlmostGeodesicVerdict:
    """Both conditions' checks, and the largest boundary distance on the curve.

    With no checks at all (a one-sample curve) there is no evidence either
    way, so the verdict is INDETERMINATE.
    """

    lam: float
    kappa: float
    condition_a: tuple[PairCheck, ...]
    condition_b: tuple[SpeedCheck, ...]
    max_delta: float

    @property
    def overall(self) -> str:
        statuses = [c.status for c in self.condition_a] + [
            c.status for c in self.condition_b
        ]
        if FAIL in statuses:
            return FAIL
        if statuses and all(s == PASS for s in statuses):
            return PASS
        return INDETERMINATE


def check_almost_geodesic(
    domain: DomainOracle,
    curve: SampledCurve,
    lam: float,
    kappa: float,
    pair_samples: int = 24,
    speed_samples: int = 12,
    seed: int = 0,
    margin: float = 1e-3,
) -> AlmostGeodesicVerdict:
    """Sample conditions (a) and (b) with certified brackets.

    Condition (a) pairs always include the endpoints; the rest are seeded
    random index pairs.  Condition (b) uses symmetric-difference velocities
    at interior nodes only, with a step- and depth-aware slack added to the
    speed limit: 2 * max|sigma| * h / delta_min, the local Lipschitz
    allowance for the discretized metric along the curve.

    A curve from ``build_chain_curve`` carries its chain.  When that chain
    certifies in ``domain`` (once per verdict, as ``chain_upper_bound`` at
    margin 0), a pair is first bracketed by ``lower_bound`` and the float
    cost of the sub-chain between its two samples (``_chain_costs``); a
    bracket inside the band is PASS with that cost as its upper, and no
    search runs.  Every other pair, and every pair of a curve without a
    certified chain, takes ``estimate_distance``'s bracket at PAIR_BUDGET;
    a pair whose lower is already in hand keeps it and only searches.

    The checks run in a fixed order, sorted index pairs and then sorted
    speed nodes, and a FAIL verdict ends at its first certified violation:
    its checks are the prefix of the full plan up to that one FAIL, and a
    failing pair skips condition (b) altogether.  PASS and INDETERMINATE
    verdicts run the whole plan.
    """
    if not (1.0 <= lam < math.inf and 0.0 <= kappa < math.inf):
        raise ValueError("need finite lambda >= 1 and kappa >= 0")
    k = curve.size
    if curve.dim != domain.dim:
        raise DimensionMismatchError(f"dimension {curve.dim}, expected {domain.dim}")
    deltas = domain._gaps(curve.points)
    if np.isnan(deltas).any():
        raise PointOutsideDomainError("curve leaves the domain")
    max_delta = float(np.max(deltas))
    if k < 2:
        return AlmostGeodesicVerdict(lam, kappa, (), (), max_delta)

    rng = np.random.Generator(np.random.Philox(key=seed))
    index_pairs = {(0, k - 1)}
    tries = 0
    while len(index_pairs) < pair_samples and tries < 20 * pair_samples:
        i, j = sorted(rng.integers(0, k, size=2).tolist())
        tries += 1
        if i != j:
            index_pairs.add((int(i), int(j)))

    pairs = sorted(index_pairs)
    costs = _chain_costs(domain, curve, pairs)
    a_checks = []
    for n, (i, j) in enumerate(pairs):
        s, t = float(curve.params[i]), float(curve.params[j])
        band_low = max(0.0, abs(s - t) / lam - kappa)
        band_high = lam * abs(s - t) + kappa
        z, w = curve.points[i], curve.points[j]
        if costs is not None and costs[n] <= band_high:
            low, low_cert = lower_bound(domain, z, w)
            if band_low <= low <= costs[n]:
                a_checks.append(PairCheck(s, t, low, costs[n], band_low, band_high, PASS))
                continue
            # the search takes the lower already in hand
            est = _bracket_from_lower(domain, z, w, low, low_cert, PAIR_BUDGET, margin)
        else:
            est = estimate_distance(domain, z, w, budget=PAIR_BUDGET, margin=margin)
        # a FAIL needs the whole bracket certifiably outside the band; the
        # 1e-11 guard keeps float noise from being called a violation
        if est.upper is None:
            status = INDETERMINATE if est.lower <= band_high + 1e-11 else FAIL
        elif est.lower >= band_low and est.upper <= band_high:
            status = PASS
        elif est.upper < band_low - 1e-11 or est.lower > band_high + 1e-11:
            status = FAIL
        else:
            status = INDETERMINATE
        a_checks.append(
            PairCheck(s, t, est.lower, est.upper, band_low, band_high, status)
        )
        if status == FAIL:
            return AlmostGeodesicVerdict(lam, kappa, tuple(a_checks), (), max_delta)

    delta_min = float(np.min(deltas))
    h_max = float(np.max(np.diff(curve.params)))
    slack = 2.0 * curve.max_point_norm() * h_max / max(delta_min, 1e-12)
    limit = lam + slack

    interior = np.arange(1, k - 1)
    if interior.size > speed_samples:
        pick = rng.choice(interior, size=speed_samples, replace=False)
        interior = np.sort(pick)
    b_checks = []
    for i in interior:
        i = int(i)
        dt = float(curve.params[i + 1] - curve.params[i - 1])
        vel = (curve.points[i + 1] - curve.points[i - 1]) / dt
        if np.all(vel == 0):
            continue
        est = infinitesimal_bounds(domain, curve.points[i], vel)
        if est.upper <= limit:
            status = PASS
        elif est.lower > limit:
            status = FAIL
        else:
            status = INDETERMINATE
        b_checks.append(
            SpeedCheck(float(curve.params[i]), est.lower, est.upper, limit, status)
        )
        if status == FAIL:
            break

    return AlmostGeodesicVerdict(lam, kappa, tuple(a_checks), tuple(b_checks), max_delta)


def _chain_costs(
    domain: DomainOracle, curve: SampledCurve, pairs: list[tuple[int, int]]
) -> list[float] | None:
    """Float cost of the sub-chain between each pair's samples, or None.

    None when the curve carries no chain or its chain does not certify in
    ``domain``; then nothing of it is trusted.  Samples i < j on links a <= b
    cost p(zeta_i, zeta_j) when a = b, and otherwise p(zeta_i, zeta_out) on
    link a, plus each whole link between, plus p(zeta_in, zeta_j) on link b:
    the float link costs ``chain_upper_bound`` sums, with the joints between
    links unpaid as there.  A cost ``poincare_distance`` cannot represent is
    inf, which brackets nothing.
    """
    if curve.chain_samples is None:
        return None
    chain, link, zeta = curve.chain_samples
    try:
        chain_upper_bound(domain, chain, margin=0.0)
    except EstimationError:
        return None
    links = chain.links
    costs = []
    for i, j in pairs:
        a, b = int(link[i]), int(link[j])
        try:
            if a == b:
                cost = poincare_distance(zeta[i], zeta[j])
            else:
                cost = poincare_distance(zeta[i], links[a].zeta_out)
                for between in links[a + 1 : b]:
                    cost += poincare_distance(between.zeta_in, between.zeta_out)
                cost += poincare_distance(links[b].zeta_in, zeta[j])
        except DiscPointError:
            cost = math.inf
        costs.append(cost)
    return costs


@dataclass(frozen=True)
class VisibilityCurveRow:
    index: int
    start: np.ndarray
    end: np.ndarray
    verdict: str
    max_delta: float | None
    param_length: float | None


@dataclass(frozen=True)
class VisibilityReport:
    """Evidence over a sampled family of almost-geodesic candidates.

    ``epsilon_star`` is the minimum over passing curves of the maximum
    boundary distance reached along the curve: every tested curve meets the
    compact set {boundary distance >= epsilon_star}.  It says nothing about
    curves that were not tested.
    """

    p: np.ndarray
    q: np.ndarray
    r_nbhd: float
    lam: float
    kappa: float
    rows: tuple[VisibilityCurveRow, ...]

    @property
    def passing(self) -> int:
        return sum(1 for r in self.rows if r.verdict == PASS)

    @property
    def epsilon_star(self) -> float | None:
        vals = [r.max_delta for r in self.rows if r.verdict == PASS and r.max_delta is not None]
        return min(vals) if vals else None

    def to_json_dict(self) -> dict:
        return {
            "p": [[c.real, c.imag] for c in self.p],
            "q": [[c.real, c.imag] for c in self.q],
            "r_nbhd": self.r_nbhd,
            "lambda": self.lam,
            "kappa": self.kappa,
            "passing": self.passing,
            "epsilon_star": self.epsilon_star,
            "curves": [
                {
                    "index": r.index,
                    "start": [[c.real, c.imag] for c in r.start],
                    "end": [[c.real, c.imag] for c in r.end],
                    "verdict": r.verdict,
                    "max_delta": r.max_delta,
                    "param_length": r.param_length,
                }
                for r in self.rows
            ],
        }


def sample_cap_points(
    domain: DomainOracle,
    anchor,
    r_nbhd: float,
    count: int,
    rng: np.random.Generator,
    r_cap: float | None = None,
) -> list[np.ndarray]:
    """In-domain points within r_nbhd of an anchor, from an r_cap-scaled stream.

    With a shared random state and a shared ``r_cap``, the accepted sets for
    nested values of r_nbhd are themselves nested, which makes shrinking
    neighborhoods test a subfamily of curves.
    """
    if not 0.0 < r_nbhd < math.inf:
        raise ValueError("r_nbhd must be finite and positive")
    if r_cap is not None and not r_nbhd <= r_cap < math.inf:
        raise ValueError("r_cap must be finite and at least r_nbhd")
    anchor = as_point(anchor, domain.dim)
    scale = r_nbhd if r_cap is None else r_cap
    out = []
    for _ in range(CAP_STREAM_LIMIT):
        if len(out) >= count:
            break
        vec = _unit_ball_sample(rng, domain.dim, scale)
        if float(np.linalg.norm(vec)) >= r_nbhd:
            continue
        cand = anchor + vec
        if not np.isnan(domain._gaps(cand[None])[0]):
            out.append(cand)
    if len(out) < count:
        raise ValueError(
            f"could only sample {len(out)} of {count} points near {anchor!r}"
        )
    return out


def visibility_experiment(
    domain: DomainOracle,
    p,
    q,
    r_nbhd: float,
    lam: float = 1.0,
    kappa: float = 0.2,
    n_curves: int = 50,
    seed: int = 0,
    budget: int = 20_000,
    margin: float = 1e-3,
    r_cap: float | None = None,
) -> VisibilityReport:
    """Sample candidate almost-geodesics between two boundary caps.

    Start and end points are drawn near p and q inside the domain; for each
    pair the estimator's best certified chain becomes a candidate curve,
    which is checked at (lam, kappa).  Curves that pass contribute their
    maximum boundary distance; finding no passing curve is reported, not
    raised.
    """
    p = as_point(p, domain.dim)
    q = as_point(q, domain.dim)
    gap = float(np.linalg.norm(p - q))
    if gap <= 2.0 * r_nbhd:
        raise ValueError("caps must be disjoint: need |p - q| > 2 r_nbhd")
    rng = np.random.Generator(np.random.Philox(key=seed))
    starts = sample_cap_points(domain, p, r_nbhd, n_curves, rng, r_cap)
    ends = sample_cap_points(domain, q, r_nbhd, n_curves, rng, r_cap)

    rows = []
    for idx, (za, wb) in enumerate(zip(starts, ends)):
        est = estimate_distance(domain, za, wb, budget=budget, margin=margin)
        chain = est.chain
        if chain is None:
            rows.append(VisibilityCurveRow(idx, za, wb, "no-chain", None, None))
            continue
        curve = build_chain_curve(domain, chain, VISIBILITY_SAMPLES_PER_DISC)
        verdict = check_almost_geodesic(
            domain,
            curve,
            lam,
            kappa,
            pair_samples=VISIBILITY_PAIR_SAMPLES,
            speed_samples=VISIBILITY_SPEED_SAMPLES,
            seed=seed + idx,
            margin=margin,
        )
        max_delta = verdict.max_delta if verdict.overall == PASS else None
        rows.append(
            VisibilityCurveRow(
                idx, za, wb, verdict.overall, max_delta, curve.param_length
            )
        )
    return VisibilityReport(
        p=p, q=q, r_nbhd=r_nbhd, lam=lam, kappa=kappa, rows=tuple(rows)
    )
