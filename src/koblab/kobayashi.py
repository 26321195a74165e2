"""Two-sided Kobayashi distance and metric estimation.

Upper bounds come from certified chains of affine analytic discs: a disc
certified on parameter radius rho embeds the rho-rescaled hyperbolic
geometry, so the chain cost sum_i p(zin_i / rho, zout_i / rho) dominates the
distance between the chain endpoints.  Rescaling by rho is how the working
margin enters the reported bound; soundness is never traded for tightness.

Lower bounds come from holomorphic distance-decreasing maps with closed
forms, one model per domain: block projections onto declared product
factors, or else the inclusion into the enclosing ball and its
automorphism formula.

A declared product bounds all four sides, distance and metric, lower and
upper, through its factors: the Kobayashi distance and metric of a product
are the largest of its factors' (Jarnicki-Pflug, Invariant Distances and
Metrics in Complex Analysis), so each side takes the largest of the
factors' bounds.

Estimates never return a value on the wrong side of the truth; when no
certificate is found within budget the upper bound is flagged as unknown
(never silently infinite).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import poincare
from .curves import STITCH_TOL
from .domains import (
    CertStatus,
    CertifyResult,
    DimensionMismatchError,
    DomainOracle,
    PointOutsideDomainError,
    ProductSlice,
    as_point,
    factor_slices,
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
# infinitesimal_bounds: the covering allowance of the slice disc's
# certification, and of the whole search for the largest centred disc
METRIC_CELLS = 8192
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
        if not direction.any():
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


class CountingOracle:
    """Meters a domain's clearances, slice regions and disc certificates.

    It answers only the questions the search spends budget on; ask the
    domain itself for anything unmetered.
    """

    def __init__(self, inner: DomainOracle, budget: int):
        self.inner = inner
        self.budget = int(budget)
        self.used = 0

    def remaining(self) -> int:
        return max(0, self.budget - self.used)

    @property
    def exhausted(self) -> bool:
        return self.used >= self.budget

    def _gaps(self, points):
        # one call per row for membership, one more per row inside for its
        # distance
        gaps = self.inner._gaps(points)
        self.used += len(gaps) + int(np.count_nonzero(~np.isnan(gaps)))
        return gaps

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
    return _discs_in_domain([disc], domain, margin, max_cells)[0]


def _discs_in_domain(
    discs: list[AnalyticDisc], domain: DomainOracle, margin: float, max_cells: int = 4096
) -> list[CertifyResult]:
    """Certify each disc on parameter radius 1 - margin, in one ``certify_affine_discs`` call."""
    if not 0 <= margin < 1:
        raise EstimationError("margin must be in [0, 1)")
    return domain.certify_affine_discs(
        [disc.center for disc in discs],
        [disc.direction for disc in discs],
        1.0 - margin,
        max_cells=max_cells,
    )


def chain_upper_bound(
    domain: DomainOracle, chain: DiscChain, margin: float = 1e-3, max_cells: int = 4096
) -> float:
    """Certified upper bound for the distance between the chain endpoints.

    Each disc is certified on radius rho = 1 - margin and used rescaled, so
    the link cost is p(zin / rho, zout / rho); the margin inflation is part
    of the reported bound.

    The discs of the links before the first one whose parameters leave the
    certified radius are certified together, in one ``certify_affine_discs``
    call.  Errors still come in link order, each link checking its
    parameters, then its certificate, then its cost.  Only an error the
    certifier itself raises (a non-finite field value, say) can come from a
    later link's disc before an earlier link's error.
    """
    rho = 1.0 - margin
    links = chain.links
    reach = next(
        (i for i, link in enumerate(links) if max(abs(link.zeta_in), abs(link.zeta_out)) >= rho),
        len(links),
    )
    results = []
    if reach:
        discs = [link.disc for link in links[:reach]]
        results = _discs_in_domain(discs, domain, margin, max_cells)
    total = 0.0
    for i, link in enumerate(links):
        if i == reach:
            raise EstimationError(
                f"link {i}: parameters exceed the certified radius {rho}"
            )
        if not results[i].certified:
            raise UncertifiedDiscError(
                f"link {i}: disc not certified ({results[i].status.value})"
            )
        try:
            total += poincare_distance(link.zeta_in / rho, link.zeta_out / rho)
        except poincare.DiscPointError as exc:
            raise EstimationError(f"link {i}: cost not representable ({exc})") from exc
    return total


def ball_distance(center, radius: float, z, w) -> float:
    """Kobayashi distance of B(center, radius) via the automorphism formula.

    On the disc (dimension 1) this is ``poincare_distance`` of the rescaled
    points.  Otherwise, and on the disc where ``poincare_distance`` refuses a
    point or a pseudo-distance at its MAX_ABS cap, it computes the
    automorphism image explicitly and clamps at the cap: the common
    alternative 1 - (1-|a|^2)(1-|b|^2)/|1-<b,a>|^2 cancels catastrophically
    for nearby points and can overshoot the true distance, which a lower
    bound must never do.
    """
    center = as_point(center)
    return _ball_distance(center, radius, as_point(z, center.size), as_point(w, center.size))


def _ball_distance(center: np.ndarray, radius: float, z: np.ndarray, w: np.ndarray) -> float:
    """``ball_distance`` of points already validated to the center's dimension."""
    a = (z - center) / radius
    b = (w - center) / radius
    if center.size == 1:
        try:
            return poincare_distance(a[0], b[0])
        except poincare.DiscPointError:
            pass  # at the cap, where the clamped form below still answers
    if not a.any():
        m = _norm(b)
    else:
        na2 = float(np.add.reduce(np.abs(a) ** 2))
        ip = complex(np.add.reduce(b * np.conj(a)))  # <b, a>
        den = abs(1.0 - ip)
        if den == 0.0:
            raise EstimationError("points outside the open ball")
        if na2 < sys.float_info.min:
            # |a|^2 has lost a's bits: project onto the exact multiple 2^600 a
            u = a * 2.0**600
            parallel = (
                complex(np.add.reduce(b * np.conj(u))) / float(np.add.reduce(np.abs(u) ** 2))
            ) * u
        else:
            parallel = (ip / na2) * a
        orthogonal = b - parallel
        s_a = math.sqrt(max(0.0, 1.0 - na2))
        m = _norm(a - parallel - s_a * orthogonal) / den
    return math.atanh(min(m, poincare.MAX_ABS))


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector, rescaled when its square underflows.

    Below about 1.5e-154 the squares lose x's bits; the norm of the exact
    multiple 2^600 x, divided by 2^600, keeps them.
    """
    norm = float(np.linalg.norm(x))
    if norm * norm < sys.float_info.min and x.any():
        norm = float(np.linalg.norm(x * 2.0**600)) * 2.0**-600
    return norm


def ball_metric(center, radius: float, z, v) -> float:
    """Infinitesimal Kobayashi metric of B(center, radius).

    On the disc it is |v| / radius / (1 - |a|^2), a = (z - center) / radius,
    in scalar complex arithmetic, wherever 1 - |a|^2 is positive.
    """
    center = as_point(center)
    return _ball_metric(center, radius, as_point(z, center.size), as_point(v, center.size))


def _ball_metric(center: np.ndarray, radius: float, z: np.ndarray, v: np.ndarray) -> float:
    """``ball_metric`` at a point and direction already validated to the center's dimension."""
    a = (z - center) / radius
    if center.size == 1:
        s = 1.0 - abs(complex(a[0])) ** 2
        if s > 0:
            return abs(complex(v[0])) / radius / s
    u = v / radius
    s = 1.0 - float(np.add.reduce(np.abs(a) ** 2))
    if s <= 0:
        raise EstimationError("base point outside the open ball")
    ip = abs(complex(np.add.reduce(u * np.conj(a)))) ** 2
    return math.sqrt(float(np.add.reduce(np.abs(u) ** 2)) * s + ip) / s


def lower_bound(domain: DomainOracle, z, w) -> tuple[float, dict]:
    """Distance-decreasing-map lower bound with its certificate.

    Each domain has one model.  A domain that declares ``product_factors``
    takes the largest of its factors' lower bounds: the Kobayashi distance
    of a product is the largest of its factors' distances, so the factors
    dominate the product's own enclosing ball.  Any other domain takes the
    distance of its enclosing ball, into which it maps by inclusion.
    """
    return _lower_bound(domain, as_point(z, domain.dim), as_point(w, domain.dim))


def _lower_bound(domain: DomainOracle, z: np.ndarray, w: np.ndarray) -> tuple[float, dict]:
    """``lower_bound`` of points already validated to the domain's dimension."""
    best = 0.0
    cert: dict = {"kind": "trivial"}
    factors = domain.product_factors()
    if factors is None:
        center, radius = domain.enclosing_ball()
        val = _ball_distance(center, radius, z, w)
        if val > best:
            best = val
            cert = {
                "kind": "enclosing-ball",
                "center": [[c.real, c.imag] for c in center],
                "radius": radius,
            }
        return best, cert
    for j, (f, block) in enumerate(factor_slices(factors)):
        val, sub = _lower_bound(f, z[block], w[block])
        if val > best:
            best = val
            cert = {"kind": "factor-projection", "index": j, "inner": sub}
    return best, cert


def metric_lower_bound(domain: DomainOracle, z, v) -> float:
    """Lower bound for k(z; v) from the one model ``lower_bound`` uses.

    A factor whose block of v is zero adds nothing, so v = 0 gives 0.
    """
    return _metric_lower_bound(domain, as_point(z, domain.dim), as_point(v, domain.dim))


def _metric_lower_bound(domain: DomainOracle, z: np.ndarray, v: np.ndarray) -> float:
    """``metric_lower_bound`` at a point and direction already validated."""
    factors = domain.product_factors()
    if factors is None:
        center, radius = domain.enclosing_ball()
        return _ball_metric(center, radius, z, v)
    return max(
        (
            _metric_lower_bound(f, z[block], v[block])
            for f, block in factor_slices(factors)
            if v[block].any()
        ),
        default=0.0,
    )


def _slice_geometry(
    zc: complex, rc: float, margin: float
) -> tuple[float, float, complex, complex] | None:
    """Cost, working radius and parameters of a link from D(zc, rc) through 0, 1.

    The working radius shrinks rc by the margin but never past the
    parameters themselves; None when 0 or 1 lies outside D(zc, rc), when rc
    is not finite (a disc that large has no float direction), when a
    parameter rounds onto the unit circle, or when the pseudo-distance
    rounds to MAX_ABS (atanh of the cap would understate the cost).
    """
    reach = max(abs(0 - zc), abs(1 - zc))
    if not reach < rc < math.inf:
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
    domain: DomainOracle | CountingOracle,
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
    The certifier validates the disc's center and direction, so the disc is
    built from them without ``AnalyticDisc``'s second validation.
    """
    shape = _slice_geometry(zc, rc, margin)
    if shape is None:
        return None
    cost, radius, zeta_in, zeta_out = shape
    d = w - z
    center, direction = z + zc * d, radius * d
    if not direction.any():
        raise EstimationError("disc direction must be nonzero")
    result = domain.certify_affine_disc(center, direction, 1.0, max_cells=max_cells)
    if not result.certified:
        return None
    disc = object.__new__(AnalyticDisc)
    object.__setattr__(disc, "center", center)
    object.__setattr__(disc, "direction", direction)
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
        delta = float(oracle._gaps(mid[None])[0])
        if math.isnan(delta):
            return None
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

    A declared product first bounds each factor on its own and takes the
    largest (the Kobayashi distance of a product is the largest of its
    factors').  Then the oracle's ``slice_region`` decides: an exact region
    costs one certification; without one, the generic search runs only
    when there is no product bound, i.e. when some factor found no upper.
    It bisects over parameter-disc centers and refines the cheapest disc
    by compass search; the segment ball chain runs only as its fallback,
    when the bisection certifies nothing or has 64 calls or fewer to spend.
    """
    return _search_upper_bound(
        domain, as_point(z, domain.dim), as_point(w, domain.dim), budget, margin
    )


def _same_point(z: np.ndarray, w: np.ndarray) -> bool:
    """Whether two validated points are equal; a Python comparison of the few
    coordinates beats numpy's per-call overhead."""
    return z.tolist() == w.tolist()


def _search_upper_bound(
    domain: DomainOracle, z: np.ndarray, w: np.ndarray, budget: int, margin: float
) -> tuple[float | None, object, int, str]:
    """``search_upper_bound`` of points already validated to the domain's dimension."""
    oracle = CountingOracle(domain, budget)
    if _same_point(z, w):
        return 0.0, {"kind": "same-point"}, 0, "identity"
    if oracle.remaining() <= 0:
        return None, None, 0, "exhausted"

    # a candidate's certificate is None for the product bound, whose dict
    # is built only if it wins
    candidates: list[tuple[float, object, str]] = []

    # declared product structure: distances combine by max over factors
    factors = domain.product_factors()
    if factors is not None:
        per, used_all = [], True
        for f, block in factor_slices(factors):
            zb, wb = z[block], w[block]
            if _same_point(zb, wb):
                per.append((0.0, None))
                continue
            sub_val, sub_cert, sub_used, _ = _search_upper_bound(
                f, zb, wb, oracle.remaining(), margin
            )
            oracle.used += sub_used
            if sub_val is None:
                used_all = False
                break
            per.append((sub_val, sub_cert))
        if used_all and per:
            candidates.append((max(v for v, _ in per), None, "product"))

    # single affine slice through the pair; an exact region needs no working
    # margin beyond float safety, the certifier re-checks it either way.  The
    # factor searches may have spent the whole budget.
    region = None if oracle.exhausted else oracle.slice_region(z, w)
    if region is not None:
        linked = _slice_link(oracle, z, w, region[0], region[1], 1e-9)
        if linked is not None:
            candidates.append((linked[0], DiscChain(links=(linked[1],)), "slice"))
    elif not candidates:
        # no product bound: a chain on the product costs at least every
        # factor's distance, so with tight factor uppers the search below
        # cannot undercut that bound and runs only without it.  The cheapest
        # comfortably certified disc over a few centers (bisection, keeping
        # 2/3 of the budget back), refined by compass search with the rest;
        # only when the bisection certifies no disc, or 64 calls or fewer
        # are left for it, the segment ball chain, whose upper is several
        # times the compass's where both certify.  Each phase keeps only
        # links it certified itself, so nothing is certified twice.
        start = None
        if oracle.remaining() > 64:
            start = _bisected_slice_region(z, w, margin, oracle, oracle.remaining() * 2 // 3)
        if start is not None:
            cost, link = _compass_refine(z, w, margin, oracle, start)
            candidates.append((cost, DiscChain(links=(link,)), "slice"))
        else:
            fallback = _segment_ball_chain(z, w, oracle)
            if fallback is not None:
                candidates.append(
                    (fallback[0], DiscChain(links=tuple(fallback[1])), "ball-chain")
                )

    if not candidates:
        return None, None, oracle.used, "exhausted"
    # ties go to chain certificates: they feed curve construction downstream
    val, cert, method = min(
        candidates, key=lambda t: (t[0], 0 if isinstance(t[1], DiscChain) else 1)
    )
    if method == "product":
        cert = {
            "kind": "product",
            "factor_bounds": [v for v, _ in per],
            "factor_chains": [c.to_json_list() if isinstance(c, DiscChain) else c for _, c in per],
        }
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
    for name, gap in zip("zw", domain._gaps(np.array([z, w]))):
        if math.isnan(gap):
            raise PointOutsideDomainError(f"{name} is not in the domain")
    if _same_point(z, w):
        return DistanceEstimate(
            lower=0.0,
            upper=0.0,
            lower_certificate={"kind": "same-point"},
            upper_certificate={"kind": "same-point"},
        )
    low, low_cert = lower_bound(domain, z, w)
    return _bracket_from_lower(domain, z, w, low, low_cert, budget, margin)


def _bracket_from_lower(
    domain: DomainOracle,
    z: np.ndarray,
    w: np.ndarray,
    low: float,
    low_cert: dict,
    budget: int,
    margin: float,
) -> DistanceEstimate:
    """``estimate_distance``'s bracket of two points of the domain, given
    their ``lower_bound`` and its certificate: the upper search and the
    soundness check."""
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

    Both sides work with the unit direction u = v / ||v|| and scale by
    ||v|| at the end.  Upper bound: a declared product takes the largest of
    its moving factors' uppers, since the Kobayashi metric of a product is
    the largest of its factors' metrics.  Any other domain takes the disc on
    the region of the complex line through z along u (``slice_region``),
    when the oracle names it and certifies it, shrunk by the working margin,
    or by a quarter of z's gap to the region's rim when z lies within that
    margin of it.  Without such a disc the upper is 1 / r for the largest
    radius r the oracle certifies for the centred disc zeta -> z + zeta u
    (``certified_radius``, one radial covering).  Lower bound: the closed
    form of the declared factors or else of the enclosing ball.  Both sides are
    exactly homogeneous in v, and ||v|| is taken after scaling v by a power
    of two, so no finite nonzero v overflows or underflows it.
    """
    z = as_point(z, domain.dim)
    v = as_point(v, domain.dim)
    if not v.any():
        raise EstimationError("direction must be nonzero")
    if math.isnan(float(domain._gaps(z[None])[0])):
        raise PointOutsideDomainError("base point not in the domain")
    unit, speed = _split_direction(v)
    upper = speed * _unit_upper(domain, z, unit)
    if upper == math.inf:
        raise EstimationError("the metric overflows")
    lower = speed * _metric_lower_bound(domain, z, unit)
    if lower > upper + BRACKET_TOL:
        raise EstimationError("metric soundness violation")
    return MetricEstimate(lower=min(lower, upper), upper=upper)


def _split_direction(v: np.ndarray) -> tuple[np.ndarray, float]:
    """(v / ||v||, ||v||) for a nonzero vector v.

    The norm is taken of v scaled by a power of two, which is exact, so the
    two round as v / ||v|| and ||v|| would wherever ||v|| neither overflows
    nor underflows.
    """
    parts = v.view(float)  # real and imaginary parts, interleaved
    # a Python loop over the few parts beats numpy's per-call overhead
    exponent = math.frexp(max(map(abs, parts.tolist())))[1]
    scaled = np.ldexp(parts, -exponent).view(complex)
    norm = float(np.linalg.norm(scaled))
    try:
        speed = math.ldexp(norm, exponent)
    except OverflowError:
        raise EstimationError("the norm of the direction overflows") from None
    return scaled / norm, speed


def _unit_upper(domain: DomainOracle, z: np.ndarray, unit: np.ndarray) -> float:
    """Upper bound for k(z; unit), for z inside the domain and a unit vector."""
    factors = domain.product_factors()
    if factors is not None:
        # a block of the unit vector is split as v is, so that each factor
        # again works with a unit direction, whatever the block's size
        uppers = []
        for f, block in factor_slices(factors):
            if unit[block].any():
                sub_unit, sub_speed = _split_direction(unit[block])
                uppers.append(sub_speed * _unit_upper(f, z[block], sub_unit))
        return max(uppers)
    # region of {eta : z + eta unit in domain}; psi(xi) = z + (zc + rc s xi) unit
    # carries xi0 to z with psi'(xi0) = rc s unit, so
    # k(z; unit) <= 1 / (rc s (1 - |xi0|^2)).  The disc is shrunk to
    # s = max(rho, 1 - d / 4), where d = 1 - |zc| / rc is z's gap to the rim:
    # by the working margin, or by a quarter of that gap when z lies within
    # the margin of the rim.  Then s^2 - s d - (1 - d)^2 >= d / 2 - 11 d^2 / 16
    # >= 0 for d <= 8 / 11, so the upper is at most 1 / (rc d), the centred
    # disc's, and no centred search runs.  Near the region's centre the two
    # differ only by rounding.
    rho = 1.0 - 1e-9
    region = domain.slice_region(z, z + unit)
    if region is not None:
        zc, rc = region
        shrink = max(rho, 1.0 - 0.25 * (1.0 - abs(zc) / rc))
        xi0 = abs(-zc / (rc * shrink))
        if xi0 < 1.0 and shrink < 1.0:
            result = domain.certify_affine_disc(
                z + zc * unit, (rc * shrink) * unit, 1.0, max_cells=METRIC_CELLS
            )
            if result.certified:
                return 1.0 / (rc * shrink * (1.0 - xi0**2))
    return _centered_unit_upper(domain, z, unit)


def _centered_unit_upper(domain: DomainOracle, z: np.ndarray, unit: np.ndarray) -> float:
    """1 / r for the largest radius r the oracle certifies for zeta -> z + zeta unit.

    ``certified_radius`` finds r with one radial covering of at most
    METRIC_CELLS calls.
    """
    radius = domain.certified_radius(z, unit, METRIC_CELLS)
    if not radius > 0.0:
        raise EstimationError("no certified disc at any radius")
    _, enclosing_radius = domain.enclosing_ball()
    # a disc of radius r along a unit vector has diameter 2r
    if radius > 2.0 * enclosing_radius:
        raise EstimationError("certified radius exceeds the enclosing ball")
    return 1.0 / radius


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
    # every sample is drawn first, in the order g0, t0, g1, t1, ..., then
    # the embeddings and the projections are checked in one batch each
    rng = np.random.Generator(np.random.Philox(key=seed))
    samples = [
        (base.sample_point(rng), total.sample_point(rng)) for _ in range(HYPOTHESIS_SAMPLES)
    ]
    embed_gaps = total._gaps(np.array([sl.embed(g) for g, _ in samples]))
    project_gaps = base._gaps(np.array([sl.project(t) for _, t in samples]))
    for (g, t), embed_gap, project_gap in zip(samples, embed_gaps, project_gaps):
        if math.isnan(embed_gap):
            raise SliceHypothesisError(
                f"base point {g!r} does not embed into the total domain"
            )
        if math.isnan(project_gap):
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
    disc between consecutive points, certified at the working margin.  The
    discs are certified together, in one ``certify_affine_discs`` call, and
    the first nu whose disc fails is reported.  Only an error the certifier
    itself raises (a non-finite field value, say) can come from a later
    disc before that report.
    """
    depth = ladder.depth if depth is None else depth
    if depth < 2:
        raise ValueError("need depth >= 2")
    if n < 2:
        raise ValueError("ambient dimension must be >= 2")
    if n != domain.dim:
        raise DimensionMismatchError(f"dimension {n}, expected {domain.dim}")

    # the exact scales a(nu) for nu = 1..depth and b(nu) for nu = 1..depth-1,
    # each read once; every float below rounds the same exact value as the
    # ladder's own accessors
    scales = [ladder.a(nu) for nu in range(1, depth + 1)]
    widths = [ladder.b(nu) for nu in range(1, depth)]
    a = np.array([float(s) for s in scales])
    b = np.array([float(w) for w in widths])
    # the marked points (a(nu), a(nu)^2) and the disc maps
    # zeta -> (b zeta, b (a(nu+1) + a(nu)) zeta - a(nu) a(nu+1)), zero-padded
    points = np.zeros((depth, n), dtype=complex)
    points[:, 0] = a
    points[:, 1] = [float(s * s) for s in scales]
    outside = np.flatnonzero(np.isnan(domain._gaps(points)))
    if outside.size:
        nu = int(outside[0]) + 1
        raise CauchyMembershipError(nu, f"ladder point nu={nu} not certified inside the domain")

    centers = np.zeros((depth - 1, n), dtype=complex)
    centers[:, 1] = -a[:-1] * a[1:]
    directions = np.zeros((depth - 1, n), dtype=complex)
    directions[:, 0] = b
    directions[:, 1] = b * (a[1:] + a[:-1])
    results = _discs_in_domain(
        [AnalyticDisc(center=c, direction=d) for c, d in zip(centers, directions)], domain, margin
    )
    rho = 1.0 - margin
    uppers = np.empty(depth - 1)
    for nu, result in zip(range(1, depth), results):
        if not result.certified:
            raise CauchyMembershipError(
                nu, f"embedded ladder disc nu={nu} not certified ({result.status.value})"
            )
        zin, zout = scales[nu - 1] / widths[nu - 1], scales[nu] / widths[nu - 1]
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
