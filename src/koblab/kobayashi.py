"""Two-sided Kobayashi distance and metric estimation.

Upper bounds come from certified chains of affine analytic discs: a disc
certified on parameter radius rho embeds the rho-rescaled hyperbolic
geometry, so the chain cost sum_i p(zin_i / rho, zout_i / rho) dominates the
distance between the chain endpoints.  Rescaling by rho is how the working
margin enters the reported bound; soundness is never traded for tightness.

Lower bounds come from holomorphic distance-decreasing maps with closed
forms: the enclosing ball's automorphism formula, scaled coordinate
projections into an enclosing polydisc, and block projections onto declared
product factors.

Estimates never return a value on the wrong side of the truth; when no
certificate is found within budget the upper bound is flagged as unknown
(never silently infinite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import poincare
from .curves import STITCH_TOL
from .domains import (
    CertStatus,
    CertifyResult,
    DomainOracle,
    PointOutsideDomainError,
    ProductSlice,
    as_point,
    slice_embed,
)
from .ladder import DyadicLadder, TAIL_RATIO
from .poincare import poincare_distance

BRACKET_TOL = 1e-12
# search_upper_bound: the parameter-plane centers the bisection tries, the
# covering allowance of each of its probes, and the ball chain's halvings
BISECTION_CENTERS = (0.5, 0.5 + 0.3j, 0.5 - 0.3j, 0.25, 0.75)
PROBE_CELLS = 512
BALL_CHAIN_DEPTH = 8
# infinitesimal_bounds: the radius bisection stops at this relative width or
# after this many steps; each disc certification gets this covering allowance
METRIC_TOL = 1e-8
METRIC_BISECTIONS = 64
METRIC_CELLS = 2048
# slice_identity_check: sampled points per side of the slice hypothesis, and
# the slack allowed between the two brackets
HYPOTHESIS_SAMPLES = 32
SLICE_TOL = 1e-9


class EstimationError(ValueError):
    pass


class UncertifiedDiscError(EstimationError):
    pass


class SliceHypothesisError(EstimationError):
    pass


class CauchyMembershipError(EstimationError):
    def __init__(self, nu: int, message: str):
        super().__init__(message)
        self.nu = nu


@dataclass(frozen=True)
class AnalyticDisc:
    """Affine holomorphic map of the unit disc: zeta -> center + zeta * direction."""

    center: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        center = as_point(self.center)
        direction = as_point(self.direction, center.size)
        if np.all(direction == 0):
            raise EstimationError("disc direction must be nonzero")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "direction", direction)

    @property
    def dim(self) -> int:
        return self.center.size

    def at(self, zeta: complex) -> np.ndarray:
        return self.center + zeta * self.direction


@dataclass(frozen=True)
class ChainLink:
    disc: AnalyticDisc
    zeta_in: complex
    zeta_out: complex

    def __post_init__(self):
        for z in (self.zeta_in, self.zeta_out):
            if abs(z) >= 1.0:
                raise EstimationError("link parameters must lie in the open disc")

    @property
    def start(self) -> np.ndarray:
        return self.disc.at(self.zeta_in)

    @property
    def end(self) -> np.ndarray:
        return self.disc.at(self.zeta_out)


@dataclass(frozen=True)
class DiscChain:
    """Consecutively stitched disc links; the cost upper-bounds the distance."""

    links: tuple[ChainLink, ...]

    def __post_init__(self):
        links = tuple(self.links)
        if not links:
            raise EstimationError("empty chain")
        for prev, nxt in zip(links, links[1:]):
            gap = float(np.linalg.norm(prev.end - nxt.start))
            if gap > STITCH_TOL:
                raise EstimationError(
                    f"stitch gap {gap:.3e} exceeds {STITCH_TOL:.0e}"
                )
        object.__setattr__(self, "links", links)

    @property
    def start(self) -> np.ndarray:
        return self.links[0].start

    @property
    def end(self) -> np.ndarray:
        return self.links[-1].end

    def to_json_list(self) -> list[dict]:
        out = []
        for link in self.links:
            out.append(
                {
                    "c": [[c.real, c.imag] for c in link.disc.center],
                    "d": [[d.real, d.imag] for d in link.disc.direction],
                    "zin": [link.zeta_in.real, link.zeta_in.imag],
                    "zout": [link.zeta_out.real, link.zeta_out.imag],
                }
            )
        return out


@dataclass(frozen=True)
class DistanceEstimate:
    """Bracket [lower, upper] with certificates for both sides.

    ``upper`` is None when no certified chain was found (budget exhaustion);
    the reason is then recorded.  ``upper_certificate`` is a DiscChain for
    chain-backed bounds or a dict description for product-combined bounds.
    """

    lower: float
    upper: float | None
    lower_certificate: dict
    upper_certificate: object = None
    budget_used: int = 0
    upper_reason: str | None = None

    def __post_init__(self):
        if self.lower < -BRACKET_TOL:
            raise EstimationError("negative lower bound")
        if self.upper is not None and self.lower > self.upper + BRACKET_TOL:
            raise EstimationError(
                f"bracket inverted: lower {self.lower} > upper {self.upper}"
            )

    @property
    def width(self) -> float:
        return math.inf if self.upper is None else self.upper - self.lower

    @property
    def chain(self) -> DiscChain | None:
        return self.upper_certificate if isinstance(self.upper_certificate, DiscChain) else None

    def to_json_dict(self) -> dict:
        cert = self.upper_certificate
        return {
            "lower": self.lower,
            "lower_cert": self.lower_certificate,
            "upper": self.upper,
            "upper_reason": self.upper_reason,
            "chain": cert.to_json_list() if isinstance(cert, DiscChain) else None,
            "upper_cert": cert if isinstance(cert, dict) else None,
            "budget_used": self.budget_used,
        }


@dataclass(frozen=True)
class MetricEstimate:
    """Bracket for the infinitesimal metric k(z; v); scales linearly in v."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper + BRACKET_TOL:
            raise EstimationError("metric bracket inverted")


class CountingOracle(DomainOracle):
    """Delegating wrapper that meters primitive oracle evaluations."""

    def __init__(self, inner: DomainOracle, budget: int):
        self.inner = inner
        self.budget = int(budget)
        self.used = 0
        self.dim = inner.dim

    def remaining(self) -> int:
        return max(0, self.budget - self.used)

    @property
    def exhausted(self) -> bool:
        return self.used >= self.budget

    def contains(self, z) -> bool:
        self.used += 1
        return self.inner.contains(z)

    def boundary_distance(self, z) -> float:
        self.used += 1
        return self.inner.boundary_distance(z)

    def enclosing_ball(self):
        return self.inner.enclosing_ball()

    def enclosing_polydisc(self):
        return self.inner.enclosing_polydisc()

    def product_factors(self):
        return self.inner.product_factors()

    def slice_region(self, p, q):
        self.used += 1
        return self.inner.slice_region(p, q)

    def certify_affine_disc(self, center, direction, rho, max_cells=4096):
        cap = min(max_cells, self.remaining())
        if cap < 1:
            return CertifyResult(CertStatus.INDETERMINATE, rho, oracle_calls=0)
        result = self.inner.certify_affine_disc(center, direction, rho, max_cells=cap)
        self.used += result.oracle_calls
        return result


def disc_in_domain(
    disc: AnalyticDisc, domain: DomainOracle, margin: float = 1e-3, max_cells: int = 4096
) -> CertifyResult:
    """Certify the disc on parameter radius 1 - margin."""
    if not 0 <= margin < 1:
        raise EstimationError("margin must be in [0, 1)")
    rho = 1.0 - margin
    return domain.certify_affine_disc(disc.center, disc.direction, rho, max_cells=max_cells)


def chain_upper_bound(
    domain: DomainOracle, chain: DiscChain, margin: float = 1e-3, max_cells: int = 4096
) -> float:
    """Certified upper bound for the distance between the chain endpoints.

    Each disc is certified on radius rho = 1 - margin and used rescaled, so
    the link cost is p(zin / rho, zout / rho); the margin inflation is part
    of the reported bound.
    """
    rho = 1.0 - margin
    total = 0.0
    for i, link in enumerate(chain.links):
        if max(abs(link.zeta_in), abs(link.zeta_out)) >= rho:
            raise EstimationError(
                f"link {i}: parameters exceed the certified radius {rho}"
            )
        result = disc_in_domain(link.disc, domain, margin, max_cells)
        if not result.certified:
            raise UncertifiedDiscError(
                f"link {i}: disc not certified ({result.status.value})"
            )
        try:
            total += poincare_distance(link.zeta_in / rho, link.zeta_out / rho)
        except poincare.DiscPointError as exc:
            raise EstimationError(f"link {i}: cost not representable ({exc})") from exc
    return total


def ball_distance(center, radius: float, z, w) -> float:
    """Kobayashi distance of B(center, radius) via the automorphism formula.

    Computes the automorphism image explicitly: the common alternative
    1 - (1-|a|^2)(1-|b|^2)/|1-<b,a>|^2 cancels catastrophically for nearby
    points and can overshoot the true distance, which a lower bound must
    never do.
    """
    center = as_point(center)
    a = (as_point(z, center.size) - center) / radius
    b = (as_point(w, center.size) - center) / radius
    na2 = float(np.sum(np.abs(a) ** 2))
    if na2 == 0.0:
        m = float(np.linalg.norm(b))
    else:
        ip = complex(np.sum(b * np.conj(a)))  # <b, a>
        den = abs(1.0 - ip)
        if den == 0.0:
            raise EstimationError("points outside the open ball")
        parallel = (ip / na2) * a
        orthogonal = b - parallel
        s_a = math.sqrt(max(0.0, 1.0 - na2))
        m = float(np.linalg.norm(a - parallel - s_a * orthogonal)) / den
    return math.atanh(min(m, poincare.MAX_ABS))


def ball_metric(center, radius: float, z, v) -> float:
    """Infinitesimal Kobayashi metric of B(center, radius)."""
    center = as_point(center)
    a = (as_point(z, center.size) - center) / radius
    u = as_point(v, center.size) / radius
    s = 1.0 - float(np.sum(np.abs(a) ** 2))
    if s <= 0:
        raise EstimationError("base point outside the open ball")
    ip = abs(complex(np.sum(u * np.conj(a)))) ** 2
    return math.sqrt(float(np.sum(np.abs(u) ** 2)) * s + ip) / s


def lower_bound(domain: DomainOracle, z, w) -> tuple[float, dict]:
    """Best available distance-decreasing-map lower bound with certificate."""
    z = as_point(z, domain.dim)
    w = as_point(w, domain.dim)
    best = 0.0
    cert: dict = {"kind": "trivial"}

    center, radius = domain.enclosing_ball()
    val = ball_distance(center, radius, z, w)
    if val > best:
        best = val
        cert = {
            "kind": "enclosing-ball",
            "center": [[c.real, c.imag] for c in center],
            "radius": radius,
        }

    pd = domain.enclosing_polydisc()
    if pd is not None:
        pc, pr = pd
        for j in range(domain.dim):
            try:
                val = poincare_distance(
                    (z[j] - pc[j]) / pr[j], (w[j] - pc[j]) / pr[j]
                )
            except poincare.DiscPointError:
                continue
            if val > best:
                best = val
                cert = {"kind": "projection", "index": j}

    factors = domain.product_factors()
    if factors is not None:
        at = 0
        for j, f in enumerate(factors):
            zb, wb = z[at : at + f.dim], w[at : at + f.dim]
            at += f.dim
            val, sub = lower_bound(f, zb, wb)
            if val > best:
                best = val
                cert = {"kind": "factor-projection", "index": j, "inner": sub}

    return best, cert


def metric_lower_bound(domain: DomainOracle, z, v) -> float:
    z = as_point(z, domain.dim)
    v = as_point(v, domain.dim)
    center, radius = domain.enclosing_ball()
    best = ball_metric(center, radius, z, v)
    pd = domain.enclosing_polydisc()
    if pd is not None:
        pc, pr = pd
        for j in range(domain.dim):
            zj = (z[j] - pc[j]) / pr[j]
            s = 1.0 - abs(zj) ** 2
            if s > 0:
                best = max(best, (abs(v[j]) / pr[j]) / s)
    factors = domain.product_factors()
    if factors is not None:
        at = 0
        for f in factors:
            zb, vb = z[at : at + f.dim], v[at : at + f.dim]
            at += f.dim
            if np.any(vb != 0):
                best = max(best, metric_lower_bound(f, zb, vb))
    return float(best)


def _slice_geometry(
    zc: complex, rc: float, margin: float
) -> tuple[float, float, complex, complex] | None:
    """Cost, working radius and parameters of a link from D(zc, rc) through 0, 1.

    The working radius shrinks rc by the margin but never past the
    parameters themselves; None when 0 or 1 lies outside D(zc, rc), when a
    parameter rounds onto the unit circle, or when the pseudo-distance
    rounds to MAX_ABS (atanh of the cap would understate the cost).
    """
    reach = max(abs(0 - zc), abs(1 - zc))
    if reach >= rc:
        return None
    rho = 1.0 - margin
    if reach / rc >= rho:
        rho = 0.5 * (reach / rc + 1.0)  # keep the endpoints strictly interior
    radius = rc * rho
    zeta_in = (0 - zc) / radius
    zeta_out = (1 - zc) / radius
    # |zeta_in - zeta_out| = 1 / radius exactly; subtracting the stored
    # parameters instead would wipe out tiny separations
    m = (1.0 / radius) / abs(1.0 - zeta_out.conjugate() * zeta_in)
    if m >= poincare.MAX_ABS or max(abs(zeta_in), abs(zeta_out)) >= 1.0:
        return None
    return math.atanh(m), radius, zeta_in, zeta_out


def _slice_link(
    domain: DomainOracle,
    z: np.ndarray,
    w: np.ndarray,
    zc: complex,
    rc: float,
    margin: float,
    max_cells: int = 4096,
) -> tuple[float, ChainLink] | None:
    """Link through z, w from a parameter disc D(zc, rc) on their complex line.

    The disc is certified against ``domain`` before use (pass the certifying
    domain explicitly: a sub-domain certificate is sound for any superset).
    """
    shape = _slice_geometry(zc, rc, margin)
    if shape is None:
        return None
    cost, radius, zeta_in, zeta_out = shape
    d = w - z
    disc = AnalyticDisc(center=z + zc * d, direction=radius * d)
    result = domain.certify_affine_disc(disc.center, disc.direction, 1.0, max_cells=max_cells)
    if not result.certified:
        return None
    return cost, ChainLink(disc=disc, zeta_in=zeta_in, zeta_out=zeta_out)


def _bisected_slice_region(
    z: np.ndarray,
    w: np.ndarray,
    margin: float,
    oracle: CountingOracle,
    reserve: int,
) -> tuple[float, complex, float, ChainLink] | None:
    """Largest cheaply-certified parameter disc over a fixed center family.

    For a fixed center, containment is monotone in the radius, so the
    maximal certified scale is found by doubling and bisection.  Probes get
    a small covering allowance: an indeterminate probe counts as too big,
    which keeps the route frugal and settles on the largest disc that
    certifies comfortably (only CERTIFIED results are ever kept).  Returns
    (cost, center, radius, link) for the cheapest certified link.
    """
    best: tuple[float, complex, float, ChainLink] | None = None
    for zc in BISECTION_CENTERS:
        if oracle.remaining() <= reserve:
            break
        reach = max(abs(0 - zc), abs(1 - zc))
        lo = reach / (1.0 - margin) * 1.02
        linked = _slice_link(oracle, z, w, zc, lo, margin, max_cells=PROBE_CELLS)
        if linked is None:
            continue
        hi = lo
        for _ in range(6):
            if oracle.remaining() <= reserve:
                break
            trial = _slice_link(oracle, z, w, zc, hi * 2.0, margin, max_cells=PROBE_CELLS)
            if trial is None:
                break
            hi *= 2.0
            linked = trial
        lo, top = hi, hi * 2.0
        for _ in range(5):
            if oracle.remaining() <= reserve:
                break
            mid = 0.5 * (lo + top)
            trial = _slice_link(oracle, z, w, zc, mid, margin, max_cells=PROBE_CELLS)
            if trial is None:
                top = mid
            else:
                lo = mid
                linked = trial
        if best is None or linked[0] < best[0]:
            best = (linked[0], zc, lo, linked[1])
    return best


def _compass_refine(
    z: np.ndarray,
    w: np.ndarray,
    margin: float,
    oracle: CountingOracle,
    start: tuple[float, complex, float, ChainLink],
) -> tuple[float, ChainLink]:
    """Compass search over (Re center, Im center, log radius) from a certified link.

    The moves are +-step along each coordinate, and the first one whose link
    is cheaper and certifies is taken; the step halves when no move
    improves.  The search stops when the step falls below 1e-3 or the budget
    is spent.  Only certified links are ever accepted, so the result needs
    no re-certification.
    """
    cost, zc, rc, link = start
    step = 0.25
    while step >= 1e-3 and not oracle.exhausted:
        grow = math.exp(step)
        moves = (
            (step, 1.0), (-step, 1.0), (1j * step, 1.0), (-1j * step, 1.0),
            (0, grow), (0, 1.0 / grow),
        )
        for dc, scale in moves:
            if oracle.exhausted:
                break
            # the cost is known before the probe, so a move whose link would
            # not be cheaper costs no oracle calls
            shape = _slice_geometry(zc + dc, rc * scale, margin)
            if shape is None or shape[0] >= cost:
                continue
            trial = _slice_link(oracle, z, w, zc + dc, rc * scale, margin)
            if trial is not None:
                (cost, link), zc, rc = trial, zc + dc, rc * scale
                break
        else:
            step *= 0.5
    return cost, link


def _segment_ball_chain(
    z: np.ndarray, w: np.ndarray, oracle: CountingOracle
) -> tuple[float, list[ChainLink]] | None:
    """Fallback chain along the straight segment through inscribed balls.

    Always sound, rarely tight; used when no better certified route exists.
    """
    from .domains import Ball

    def build(p, q, depth) -> list[ChainLink] | None:
        if oracle.remaining() < 3:  # a step spends up to three calls
            return None
        mid = 0.5 * (p + q)
        if not oracle.contains(mid):
            return None
        delta = oracle.boundary_distance(mid)
        span = float(np.linalg.norm(q - p))
        if span == 0.0:
            return []
        # certify against the inscribed ball itself: the ball's closed form
        # costs one call, and the ball is certified inside the domain by the
        # boundary-distance evaluation above
        if span < 1.2 * delta:
            ball = Ball(mid, 0.9 * delta)
            region = ball.slice_region(p, q)
            if region is not None:
                linked = _slice_link(ball, p, q, region[0], region[1], margin=1e-9)
                oracle.used += 1
                if linked is not None:
                    return [linked[1]]
        if depth >= BALL_CHAIN_DEPTH:
            return None
        left = build(p, mid, depth + 1)
        if left is None:
            return None
        right = build(mid, q, depth + 1)
        if right is None:
            return None
        return left + right

    links = build(z, w, 0)
    if not links:
        return None
    cost = sum(poincare_distance(link.zeta_in, link.zeta_out) for link in links)
    return cost, links


def search_upper_bound(
    domain: DomainOracle,
    z,
    w,
    budget: int = 10_000,
    margin: float = 1e-3,
) -> tuple[float | None, object, int, str]:
    """Best certified upper bound found within budget.

    Returns (value, certificate, budget_used, method).  The certificate is a
    DiscChain, or a dict for product-combined bounds, or None with value None
    when nothing was certified (the caller reports that as unknown, never as
    a number).
    """
    z = as_point(z, domain.dim)
    w = as_point(w, domain.dim)
    oracle = CountingOracle(domain, budget)
    if np.array_equal(z, w):
        return 0.0, {"kind": "same-point"}, 0, "identity"
    if oracle.remaining() <= 0:
        return None, None, 0, "exhausted"

    candidates: list[tuple[float, object, str]] = []

    # declared product structure: distances combine by max over factors
    factors = domain.product_factors()
    if factors is not None and len(factors) < 2:
        factors = None
    if factors is not None:
        per, used_all = [], True
        at = 0
        for f in factors:
            zb, wb = z[at : at + f.dim], w[at : at + f.dim]
            at += f.dim
            if np.array_equal(zb, wb):
                per.append((0.0, None))
                continue
            sub_val, sub_cert, sub_used, _ = search_upper_bound(
                f, zb, wb, budget=oracle.remaining(), margin=margin
            )
            oracle.used += sub_used
            if sub_val is None:
                used_all = False
                break
            per.append((sub_val, sub_cert))
        if used_all and per:
            val = max(v for v, _ in per)
            cert = {
                "kind": "product",
                "factor_bounds": [v for v, _ in per],
                "factor_chains": [
                    c.to_json_list() if isinstance(c, DiscChain) else c for _, c in per
                ],
            }
            candidates.append((val, cert, "product"))

    # single affine slice through the pair; an exact region needs no working
    # margin beyond float safety, the certifier re-checks it either way.  The
    # factor searches may have spent the whole budget.
    region = None if oracle.exhausted else oracle.slice_region(z, w)
    if region is not None:
        linked = _slice_link(oracle, z, w, region[0], region[1], 1e-9)
        if linked is not None:
            candidates.append((linked[0], DiscChain(links=(linked[1],)), "slice"))
    else:
        # two phases: the segment ball chain is the cheap answer that always
        # exists; then the cheapest comfortably certified disc over a few
        # centers (bisection, keeping 2/3 of the budget back), refined by
        # compass search with the rest.  Both phases keep only links they
        # certified themselves, so nothing is certified twice.
        fallback = _segment_ball_chain(z, w, oracle)
        if fallback is not None:
            candidates.append((fallback[0], DiscChain(links=tuple(fallback[1])), "ball-chain"))
        if oracle.remaining() > 64:
            start = _bisected_slice_region(z, w, margin, oracle, oracle.remaining() * 2 // 3)
            if start is not None:
                cost, link = _compass_refine(z, w, margin, oracle, start)
                candidates.append((cost, DiscChain(links=(link,)), "slice"))

    if not candidates:
        return None, None, oracle.used, "exhausted"
    # ties go to chain certificates: they feed curve construction downstream
    val, cert, method = min(
        candidates, key=lambda t: (t[0], 0 if isinstance(t[1], DiscChain) else 1)
    )
    return val, cert, oracle.used, method


def estimate_distance(
    domain: DomainOracle,
    z,
    w,
    budget: int = 10_000,
    margin: float = 1e-3,
    seed: int = 0,
) -> DistanceEstimate:
    """Two-sided bracket for the Kobayashi distance between z and w.

    The search is deterministic; ``seed`` is accepted for existing callers
    and unused.
    """
    z = as_point(z, domain.dim)
    w = as_point(w, domain.dim)
    for name, pt in (("z", z), ("w", w)):
        if not domain.contains(pt):
            raise PointOutsideDomainError(f"{name} is not in the domain")
    if np.array_equal(z, w):
        return DistanceEstimate(
            lower=0.0,
            upper=0.0,
            lower_certificate={"kind": "same-point"},
            upper_certificate={"kind": "same-point"},
        )
    low, low_cert = lower_bound(domain, z, w)
    up, up_cert, used, method = search_upper_bound(domain, z, w, budget=budget, margin=margin)
    if up is None:
        return DistanceEstimate(
            lower=low,
            upper=None,
            lower_certificate=low_cert,
            upper_certificate=None,
            budget_used=used,
            upper_reason="no certified chain within budget",
        )
    if low > up + BRACKET_TOL:
        raise EstimationError(
            f"soundness violation: lower {low} exceeds certified upper {up}"
        )
    return DistanceEstimate(
        lower=min(low, up),
        upper=up,
        lower_certificate=low_cert,
        upper_certificate=up_cert,
        budget_used=used,
    )


def infinitesimal_bounds(domain: DomainOracle, z, v) -> MetricEstimate:
    """Bracket for the infinitesimal metric k(z; v).

    Upper bound: ||v|| / r for the largest certified radius r of the affine
    disc zeta -> z + zeta r v/||v|| (bisection against the disc certifier),
    improved by an off-center disc on the same complex line whenever the
    line's parameter region is exactly known (the centered disc alone
    overestimates k away from a domain's center).  Lower bound: closed forms
    of the enclosing ball / polydisc / factors.  Both sides are exactly
    homogeneous in v.
    """
    z = as_point(z, domain.dim)
    v = as_point(v, domain.dim)
    speed = float(np.linalg.norm(v))
    if speed == 0:
        raise EstimationError("direction must be nonzero")
    if not domain.contains(z):
        raise PointOutsideDomainError("base point not in the domain")
    # everything below works with the unit direction and scales by ||v|| at
    # the end, so homogeneity is exact whenever c v and c ||v|| round exactly
    unit = v / speed
    rho = 1.0 - 1e-9

    def certified(r: float) -> bool:
        res = domain.certify_affine_disc(z, r * unit, rho, max_cells=METRIC_CELLS)
        return res.certified

    lo = domain.boundary_distance(z) * 0.5
    while lo > 0 and not certified(lo):
        lo *= 0.5
        if lo < 1e-300:
            raise EstimationError("no certified disc at any radius")
    _, enclosing_radius = domain.enclosing_ball()
    hi = lo * 2.0
    while certified(hi):
        lo = hi
        hi *= 2.0
        if lo > 8.0 * enclosing_radius:
            raise EstimationError("certified radius exceeds the enclosing ball")
    for _ in range(METRIC_BISECTIONS):
        if hi - lo <= METRIC_TOL * max(lo, 1e-12):
            break
        mid = 0.5 * (lo + hi)
        if certified(mid):
            lo = mid
        else:
            hi = mid
    unit_upper = 1.0 / (lo * rho)

    # region of {eta : z + eta unit in domain}; psi(xi) = z + (zc + rc rho xi) unit
    # carries xi0 to z with psi'(xi0) = rc rho unit, so
    # k(z; unit) <= 1 / (rc rho (1 - |xi0|^2))
    region = domain.slice_region(z, z + unit)
    if region is not None:
        zc, rc = region
        xi0 = -zc / (rc * rho)
        if abs(xi0) < 1.0:
            result = domain.certify_affine_disc(
                z + zc * unit, (rc * rho) * unit, 1.0, max_cells=METRIC_CELLS
            )
            if result.certified:
                unit_upper = min(unit_upper, 1.0 / (rc * rho * (1.0 - abs(xi0) ** 2)))

    upper = speed * unit_upper
    lower = speed * metric_lower_bound(domain, z, unit)
    if lower > upper + BRACKET_TOL:
        raise EstimationError("metric soundness violation")
    return MetricEstimate(lower=min(lower, upper), upper=upper)


@dataclass(frozen=True)
class SliceIdentityReport:
    """Bracket comparison for a base domain against a fibered extension."""

    z: np.ndarray
    w: np.ndarray
    base_estimate: DistanceEstimate
    total_estimate: DistanceEstimate
    intersection: tuple[float, float] | None
    transfer_used: bool
    passed: bool


def _lift_chain(chain: DiscChain, n: int) -> DiscChain:
    links = tuple(
        ChainLink(
            disc=AnalyticDisc(
                center=slice_embed(link.disc.center, n),
                direction=slice_embed(link.disc.direction, n),
            ),
            zeta_in=link.zeta_in,
            zeta_out=link.zeta_out,
        )
        for link in chain.links
    )
    return DiscChain(links=links)


def slice_identity_check(
    base: DomainOracle,
    total: DomainOracle,
    z,
    w,
    budget: int = 10_000,
    margin: float = 1e-3,
    seed: int = 0,
) -> SliceIdentityReport:
    """Check that distances agree between a domain and its zero-section slice.

    Requires base x {0} inside total inside base x C^(n-m); the hypothesis is
    spot-checked by sampling and a violation raises SliceHypothesisError.
    Chains found in the base transfer to the total domain (embedded discs),
    and the projection onto the first m coordinates transfers lower bounds
    back, so the two brackets must overlap.
    """
    m, n = base.dim, total.dim
    sl = ProductSlice(m, n)
    z = as_point(z, m)
    w = as_point(w, m)
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(HYPOTHESIS_SAMPLES):
        g = base.sample_point(rng)
        if not total.contains(sl.embed(g)):
            raise SliceHypothesisError(
                f"base point {g!r} does not embed into the total domain"
            )
        t = total.sample_point(rng)
        if not base.contains(sl.project(t)):
            raise SliceHypothesisError(
                f"total-domain point {t!r} does not project into the base"
            )

    est_base = estimate_distance(base, z, w, budget=budget // 2, margin=margin)
    zt, wt = sl.embed(z), sl.embed(w)
    est_total = estimate_distance(total, zt, wt, budget=budget // 2, margin=margin)

    transfer_used = False
    transfer_margin_used = 0.0
    total_upper = est_total.upper
    total_upper_cert = est_total.upper_certificate
    if est_base.chain is not None and est_base.upper is not None:
        lifted = _lift_chain(est_base.chain, n)
        # margin 0 re-certifies exactly in closed-form totals; covering-based
        # totals need real clearance and pay the corresponding inflation
        for transfer_margin in (0.0, margin, 0.03):
            try:
                transferred = chain_upper_bound(
                    total, lifted, margin=transfer_margin, max_cells=20_000
                )
            except (UncertifiedDiscError, EstimationError):
                continue
            if total_upper is None or transferred < total_upper:
                total_upper = transferred
                total_upper_cert = lifted
                transfer_used = True
                transfer_margin_used = transfer_margin
            break
    total_lower = max(est_total.lower, est_base.lower)
    lower_cert = (
        est_total.lower_certificate
        if est_total.lower >= est_base.lower
        else {"kind": "base-projection", "inner": est_base.lower_certificate}
    )
    est_total = DistanceEstimate(
        lower=total_lower,
        upper=total_upper,
        lower_certificate=lower_cert,
        upper_certificate=total_upper_cert,
        budget_used=est_total.budget_used,
        upper_reason=est_total.upper_reason if total_upper is None else None,
    )

    passed = False
    intersection = None
    if est_base.upper is not None and est_total.upper is not None:
        lo = max(est_base.lower, est_total.lower)
        hi = min(est_base.upper, est_total.upper)
        if lo <= hi + BRACKET_TOL:
            intersection = (lo, hi)
        # a margin-bearing transfer certificate inflates the comparable upper
        # by the usual (1 + 2 margin) rescaling factor
        slack = est_base.upper * 2.0 * transfer_margin_used
        passed = (
            intersection is not None
            and est_total.upper <= est_base.upper + slack + SLICE_TOL
            and est_total.lower >= est_base.lower - SLICE_TOL
        )
    return SliceIdentityReport(
        z=z,
        w=w,
        base_estimate=est_base,
        total_estimate=est_total,
        intersection=intersection,
        transfer_used=transfer_used,
        passed=passed,
    )


@dataclass(frozen=True)
class CauchyRow:
    nu: int
    upper: float
    tail: float
    norm: float


@dataclass(frozen=True)
class CauchyTable:
    """Consecutive-step upper bounds U(nu) for the lifted ladder points.

    T(M) = sum_{nu >= M} U(nu), extended past the table depth by the
    geometric ratio certificate, decreases to 0 while the point norms also
    decrease to 0: the steps are summable, so the points form a
    distance-Cauchy sequence.  Where its limit lies is not certified; on the
    unit bidisc it is the interior point 0.
    """

    rows: tuple[CauchyRow, ...]
    ratio: float
    margin: float


def cauchy_table(
    domain: DomainOracle,
    ladder: DyadicLadder,
    n: int,
    depth: int | None = None,
    margin: float = 1e-3,
) -> CauchyTable:
    """Certified Cauchy table for the zero-padded ladder points.

    It certifies summable steps (a geometric tail bound at TAIL_RATIO) and
    point norms decreasing to 0, not that the limit lies on the boundary.
    Every padded point must be certified inside the domain; the offending
    index is reported otherwise.  U(nu) is the cost of the embedded ladder
    disc between consecutive points, certified at the working margin.
    """
    depth = ladder.depth if depth is None else depth
    if depth < 2:
        raise ValueError("need depth >= 2")
    if n < 2:
        raise ValueError("ambient dimension must be >= 2")

    points = []
    for nu in range(1, depth + 1):
        pt = slice_embed(ladder.point_complex(nu), n)
        if not domain.contains(pt):
            raise CauchyMembershipError(
                nu, f"ladder point nu={nu} not certified inside the domain"
            )
        points.append(pt)

    rho = 1.0 - margin
    uppers = np.empty(depth - 1)
    for nu in range(1, depth):
        a0, a1, b0 = (
            float(ladder.a(nu)),
            float(ladder.a(nu + 1)),
            float(ladder.b(nu)),
        )
        disc = AnalyticDisc(
            center=slice_embed(np.array([0.0, -a0 * a1]), n),
            direction=slice_embed(np.array([b0, b0 * (a1 + a0)]), n),
        )
        result = disc_in_domain(disc, domain, margin)
        if not result.certified:
            raise CauchyMembershipError(
                nu, f"embedded ladder disc nu={nu} not certified ({result.status.value})"
            )
        zin, zout = ladder.disc_parameters(nu)
        uppers[nu - 1] = poincare_distance(float(zin) / rho, float(zout) / rho)

    observed = uppers[1:] / uppers[:-1]
    if observed.size and float(np.max(observed)) > TAIL_RATIO:
        raise EstimationError(
            f"observed step ratio {np.max(observed):.6f} exceeds certificate ratio {TAIL_RATIO}"
        )
    beyond = uppers[-1] * TAIL_RATIO / (1.0 - TAIL_RATIO)
    tails = np.cumsum(uppers[::-1])[::-1] + beyond
    rows = []
    for nu in range(1, depth):
        norm = float(np.linalg.norm(points[nu - 1]))
        rows.append(CauchyRow(nu=nu, upper=float(uppers[nu - 1]), tail=float(tails[nu - 1]), norm=norm))
    return CauchyTable(rows=tuple(rows), ratio=TAIL_RATIO, margin=margin)
