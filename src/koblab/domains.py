"""Domain oracles over complex n-space.

Every domain answers three questions: membership, a certified lower bound on
the Euclidean distance to the complement, and an enclosing ball.  On top of
that the oracles certify containment of affine analytic discs, which is what
the Kobayashi upper-bound machinery consumes.  Certificates are one-sided by
design: a positive answer is always sound, a failure to certify is reported
as indeterminate rather than guessed.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

# DomainOracle.sample_point gives up after this many rejected draws
SAMPLE_TRIES = 10_000


class DomainError(ValueError):
    pass


class DimensionMismatchError(DomainError):
    pass


class PointOutsideDomainError(DomainError):
    pass


def as_point(z, dim: int | None = None) -> np.ndarray:
    """Coerce to a fresh finite complex vector, optionally of prescribed dimension."""
    arr = np.array(z, dtype=complex, ndmin=1)  # always a copy
    if arr.ndim != 1:
        raise DomainError(f"expected a vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError("non-finite coordinate")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(f"dimension {arr.size}, expected {dim}")
    return arr


def slice_embed(z, n: int) -> np.ndarray:
    """Pad a point of C^m with zeros to dimension n >= m."""
    z = as_point(z)
    if n < z.size:
        raise DimensionMismatchError(f"cannot embed C^{z.size} into C^{n}")
    out = np.zeros(n, dtype=complex)
    out[: z.size] = z
    return out


@dataclass(frozen=True)
class ProductSlice:
    """The embedding C^m -> C^n, z -> (z, 0, ..., 0), with its projection."""

    base_dim: int
    total_dim: int

    def __post_init__(self):
        if self.base_dim < 1 or self.total_dim <= self.base_dim:
            raise DimensionMismatchError(
                f"need 1 <= base {self.base_dim} < total {self.total_dim}"
            )

    def embed(self, z) -> np.ndarray:
        return slice_embed(as_point(z, self.base_dim), self.total_dim)

    def project(self, z) -> np.ndarray:
        return as_point(z, self.total_dim)[: self.base_dim]


class CertStatus(Enum):
    CERTIFIED = "certified"
    REJECTED = "rejected"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class CertifyResult:
    """Outcome of an affine-disc containment check.

    ``rho`` is the parameter radius the verdict refers to; ``witness`` is a
    parameter value whose image leaves the domain (rejections only).
    ``oracle_calls`` counts primitive membership / distance evaluations.
    """

    status: CertStatus
    rho: float
    witness: complex | None = None
    oracle_calls: int = 1

    @property
    def certified(self) -> bool:
        return self.status is CertStatus.CERTIFIED

    @property
    def rejected(self) -> bool:
        return self.status is CertStatus.REJECTED


class Membership(Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    INDETERMINATE = "indeterminate"


class DomainOracle(ABC):
    """Uniform interface for bounded domains in C^n."""

    dim: int

    @abstractmethod
    def contains(self, z) -> bool:
        ...

    @abstractmethod
    def boundary_distance(self, z) -> float:
        """Certified lower bound on the Euclidean distance to the complement.

        Raises PointOutsideDomainError when z is not in the domain.
        """

    def _gap(self, z: np.ndarray) -> float | None:
        """``boundary_distance(z) if contains(z) else None`` for a validated vector.

        The covering certifier calls it once per probe.  Subclasses with
        closed forms override it to skip re-validating z; this default keeps
        the public methods, and so their semantics and metering.
        """
        return self.boundary_distance(z) if self.contains(z) else None

    @abstractmethod
    def enclosing_ball(self) -> tuple[np.ndarray, float]:
        ...

    # Optional structure hooks.  Estimators use them when available and fall
    # back to the generic covering certifier otherwise.

    def enclosing_polydisc(self) -> tuple[np.ndarray, np.ndarray] | None:
        return None

    def product_factors(self) -> tuple["DomainOracle", ...] | None:
        return None

    def slice_region(self, p, q) -> tuple[complex, float] | None:
        """Round disc {zeta : p + zeta (q - p) in domain}, when exactly known.

        Returns (center, radius) in the zeta-plane, or None when the slice is
        not a round disc the oracle can name.
        """
        return None

    def certify_affine_disc(
        self, center, direction, rho: float, max_cells: int = 4096
    ) -> CertifyResult:
        """Certify {center + zeta * direction : |zeta| <= rho} inside the domain.

        The generic implementation covers the swept parameter disc with balls
        certified by ``boundary_distance``; subclasses with exact geometry
        override it with closed forms.
        """
        return _cover_certify(self._gap, self.dim, center, direction, rho, max_cells)

    def sample_point(self, rng: np.random.Generator) -> np.ndarray:
        """Rejection-sample a point of the domain from its enclosing ball."""
        center, radius = self.enclosing_ball()
        for _ in range(SAMPLE_TRIES):
            cand = center + radius * _unit_ball_sample(rng, self.dim)
            if self.contains(cand):
                return cand
        raise DomainError("sampling failed; domain volume too small?")


def _unit_ball_sample(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=2 * dim)
    norm = np.linalg.norm(vec)
    if norm == 0:
        return np.zeros(dim, dtype=complex)
    radius = rng.uniform() ** (1.0 / (2 * dim))
    vec = vec / norm * radius
    return vec[:dim] + 1j * vec[dim:]


def _cover_certify(
    clearance, dim: int, center, direction, rho: float, max_cells: int
) -> CertifyResult:
    """Quadtree covering of the closed parameter disc of radius rho.

    ``clearance(z)`` is a certified lower bound on the distance from z to the
    complement, None when z is outside; a probe is metered as two calls,
    membership and distance.  A cell is certified when the clearance ball at
    its (clamped) center covers the part of the cell inside the parameter
    disc; it is a rejection witness when that point leaves the domain.
    Budget exhaustion yields INDETERMINATE, never a verdict.
    """
    center = as_point(center, dim)
    direction = as_point(direction, dim)
    speed = float(np.linalg.norm(direction))
    if not 0 < rho <= 1.0:
        raise DomainError(f"rho = {rho} out of range")
    if speed == 0.0:
        if max_cells < 1:
            return CertifyResult(CertStatus.INDETERMINATE, rho, oracle_calls=0)
        inside = clearance(center) is not None
        return CertifyResult(
            CertStatus.CERTIFIED if inside else CertStatus.REJECTED,
            rho,
            witness=None if inside else 0j,
            oracle_calls=1,
        )
    calls = 0
    # (center, half-width) cells, root square circumscribing the disc
    stack: list[tuple[complex, float]] = [(0j, rho)]
    pending: list[tuple[complex, float]] = []
    while stack:
        if calls + 2 > max_cells:  # a cell costs two calls
            return CertifyResult(CertStatus.INDETERMINATE, rho, oracle_calls=calls)
        zeta_c, half = stack.pop()
        if abs(zeta_c) - half * math.sqrt(2.0) > rho:
            continue  # cell misses the parameter disc
        probe = zeta_c
        if abs(probe) > rho:
            probe = probe / abs(probe) * rho
        point = center + probe * direction
        gap = clearance(point)
        calls += 1
        if gap is None:
            return CertifyResult(
                CertStatus.REJECTED, rho, witness=probe, oracle_calls=calls
            )
        calls += 1
        reach = gap / speed
        if reach >= abs(zeta_c - probe) + half * math.sqrt(2.0):
            continue  # certified ball swallows the cell
        if half < rho * 2.0 ** -14:
            pending.append((zeta_c, half))
            continue
        quarter = half / 2.0
        for dre in (-quarter, quarter):
            for dim_ in (-quarter, quarter):
                stack.append((zeta_c + complex(dre, dim_), quarter))
    if pending:
        return CertifyResult(CertStatus.INDETERMINATE, rho, oracle_calls=calls)
    return CertifyResult(CertStatus.CERTIFIED, rho, oracle_calls=calls)


@dataclass(frozen=True)
class Ball(DomainOracle):
    """Open Euclidean ball B(center, radius)."""

    center: np.ndarray
    radius: float
    dim: int = dataclass_field(init=False)

    def __post_init__(self):
        center = as_point(self.center)
        if self.radius <= 0:
            raise DomainError("radius must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dim", center.size)

    def _gap(self, z):
        # radius - norm > 0 exactly when norm < radius in IEEE arithmetic
        gap = self.radius - float(np.linalg.norm(z - self.center))
        return gap if gap > 0 else None

    def contains(self, z) -> bool:
        return self._gap(as_point(z, self.dim)) is not None

    def boundary_distance(self, z) -> float:
        gap = self._gap(as_point(z, self.dim))
        if gap is None:
            raise PointOutsideDomainError("point not inside the ball")
        return gap

    def enclosing_ball(self):
        return self.center.copy(), float(self.radius)

    def enclosing_polydisc(self):
        return self.center.copy(), np.full(self.dim, float(self.radius))

    def slice_region(self, p, q):
        p = as_point(p, self.dim)
        q = as_point(q, self.dim)
        d = q - p
        nd2 = float(np.sum(np.abs(d) ** 2))
        if nd2 == 0:
            return None
        a = p - self.center
        s = complex(np.sum(a * np.conj(d)))
        zc = -s / nd2
        rc2 = (self.radius**2 - float(np.sum(np.abs(a) ** 2)) + abs(s) ** 2 / nd2) / nd2
        if rc2 <= 0:
            return None
        return zc, math.sqrt(rc2)

    def certify_affine_disc(self, center, direction, rho, max_cells=4096):
        if max_cells < 1:
            return CertifyResult(CertStatus.INDETERMINATE, rho, oracle_calls=0)
        center = as_point(center, self.dim)
        direction = as_point(direction, self.dim)
        a = center - self.center
        s = complex(np.sum(a * np.conj(direction)))
        peak2 = (
            float(np.sum(np.abs(a) ** 2))
            + 2.0 * rho * abs(s)
            + rho**2 * float(np.sum(np.abs(direction) ** 2))
        )
        if math.sqrt(peak2) < self.radius:
            return CertifyResult(CertStatus.CERTIFIED, rho)
        witness = rho * (s / abs(s)) if s != 0 else complex(rho)
        return CertifyResult(CertStatus.REJECTED, rho, witness=witness)


@dataclass(frozen=True)
class Polydisc(DomainOracle):
    """Product of coordinate discs {|z_j - c_j| < r_j}."""

    center: np.ndarray
    radii: np.ndarray
    dim: int = dataclass_field(init=False)

    def __post_init__(self):
        center = as_point(self.center)
        radii = np.atleast_1d(np.asarray(self.radii, dtype=float))
        if radii.size == 1 and center.size > 1:
            radii = np.full(center.size, float(radii[0]))
        if radii.size != center.size:
            raise DimensionMismatchError("radii / center length mismatch")
        if np.any(radii <= 0):
            raise DomainError("radii must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "dim", center.size)

    def _gap(self, z):
        # the smallest radius - |offset| is positive exactly when every
        # |offset| < radius
        gap = float(np.min(self.radii - np.abs(z - self.center)))
        return gap if gap > 0 else None

    def contains(self, z) -> bool:
        return self._gap(as_point(z, self.dim)) is not None

    def boundary_distance(self, z) -> float:
        gap = self._gap(as_point(z, self.dim))
        if gap is None:
            raise PointOutsideDomainError("point not inside the polydisc")
        return gap

    def enclosing_ball(self):
        return self.center.copy(), float(np.linalg.norm(self.radii))

    def enclosing_polydisc(self):
        return self.center.copy(), self.radii.copy()

    def product_factors(self):
        if self.dim == 1:
            return None
        return tuple(
            Ball(np.array([c]), float(r)) for c, r in zip(self.center, self.radii)
        )

    def slice_region(self, p, q):
        p = as_point(p, self.dim)
        q = as_point(q, self.dim)
        d = q - p
        discs = []
        for j in range(self.dim):
            if d[j] == 0:
                if abs(p[j] - self.center[j]) >= self.radii[j]:
                    return None
                continue
            discs.append(
                ((self.center[j] - p[j]) / d[j], self.radii[j] / abs(d[j]))
            )
        return _nested_intersection(discs)

    def certify_affine_disc(self, center, direction, rho, max_cells=4096):
        if max_cells < 1:
            return CertifyResult(CertStatus.INDETERMINATE, rho, oracle_calls=0)
        center = as_point(center, self.dim)
        direction = as_point(direction, self.dim)
        off = np.abs(center - self.center)
        peak = off + rho * np.abs(direction)
        bad = np.nonzero(peak >= self.radii)[0]
        if bad.size == 0:
            return CertifyResult(CertStatus.CERTIFIED, rho)
        j = int(bad[0])
        a, d = center[j] - self.center[j], direction[j]
        if a != 0 and d != 0:
            witness = rho * (a / abs(a)) * (abs(d) / d)
        else:
            witness = complex(rho)
        return CertifyResult(CertStatus.REJECTED, rho, witness=witness)


def _nested_intersection(
    discs: Sequence[tuple[complex, float]]
) -> tuple[complex, float] | None:
    """Smallest disc when the family is totally nested; None otherwise."""
    if not discs:
        return None
    order = sorted(discs, key=lambda cr: cr[1])
    zc, rc = order[0]
    for oc, orad in order[1:]:
        if abs(zc - oc) > orad - rc + 1e-15:
            return None
    return zc, rc


@dataclass(frozen=True)
class ProductDomain(DomainOracle):
    """Cartesian product of lower-dimensional domains."""

    factors: tuple[DomainOracle, ...]
    dim: int = dataclass_field(init=False)

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise DomainError("empty product")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "dim", sum(f.dim for f in factors))

    def blocks(self, z) -> list[np.ndarray]:
        z = as_point(z, self.dim)
        out, at = [], 0
        for f in self.factors:
            out.append(z[at : at + f.dim])
            at += f.dim
        return out

    def _gap(self, z):
        gaps, at = [], 0
        for f in self.factors:
            gap = f._gap(z[at : at + f.dim])
            if gap is None:
                return None
            gaps.append(gap)
            at += f.dim
        return min(gaps)

    def contains(self, z) -> bool:
        return self._gap(as_point(z, self.dim)) is not None

    def boundary_distance(self, z) -> float:
        gap = self._gap(as_point(z, self.dim))
        if gap is None:
            raise PointOutsideDomainError("point not inside the product")
        return gap

    def enclosing_ball(self):
        centers, rad2 = [], 0.0
        for f in self.factors:
            c, r = f.enclosing_ball()
            centers.append(c)
            rad2 += r * r
        return np.concatenate(centers), math.sqrt(rad2)

    def enclosing_polydisc(self):
        centers, radii = [], []
        for f in self.factors:
            pd = f.enclosing_polydisc()
            if pd is None:
                return None
            centers.append(pd[0])
            radii.append(pd[1])
        return np.concatenate(centers), np.concatenate(radii)

    def product_factors(self):
        return self.factors

    def slice_region(self, p, q):
        pb, qb = self.blocks(p), self.blocks(q)
        discs = []
        for f, pblk, qblk in zip(self.factors, pb, qb):
            if np.array_equal(qblk, pblk):
                if not f.contains(pblk):
                    return None
                continue
            sub = f.slice_region(pblk, qblk)
            if sub is None:
                return None
            discs.append(sub)
        return _nested_intersection(discs)

    def certify_affine_disc(self, center, direction, rho, max_cells=4096):
        cb, db = self.blocks(center), self.blocks(direction)
        calls = 0
        for f, c, d in zip(self.factors, cb, db):
            # the factors share the cap: each gets what the earlier ones left
            res = f.certify_affine_disc(c, d, rho, max_cells=max_cells - calls)
            calls += res.oracle_calls
            if not res.certified:
                return CertifyResult(res.status, rho, res.witness, calls)
        return CertifyResult(CertStatus.CERTIFIED, rho, oracle_calls=calls)


CONNECT_DEPTH = 10  # seed-segment refinements (8, 16, ... pieces) before indeterminate


@dataclass(frozen=True)
class SublevelDomain(DomainOracle):
    """Connected component of {f < level} inside an ambient domain.

    ``field`` maps points of C^n to reals.  Membership means: the raw
    sublevel condition holds and a straight segment from ``seed`` is covered
    by certified sublevel balls.  When the covering cannot be completed
    within the refinement budget the point is reported indeterminate; it is
    never guessed inside.

    The boundary-distance certificate is min(ambient certificate,
    (level - f(z)) / L), so ``lipschitz`` must be a certified bound L on the
    Lipschitz constant of ``field`` over the ambient domain.  It is required:
    a missing, None, non-positive or non-finite value raises DomainError,
    since no sampled estimate may back a certificate.
    """

    field: Callable[[np.ndarray], float]
    level: float
    ambient: DomainOracle
    seed: np.ndarray
    lipschitz: float = math.nan  # required; the default is rejected
    dim: int = dataclass_field(init=False)

    def __post_init__(self):
        lipschitz = self.lipschitz
        if lipschitz is None or not 0 < lipschitz < math.inf:
            raise DomainError(
                f"lipschitz must be a certified positive Lipschitz bound, got {lipschitz!r}"
            )
        seed = as_point(self.seed, self.ambient.dim)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "dim", self.ambient.dim)
        if self._clearance(seed) is None:
            raise DomainError("seed is not in the sublevel set")

    def _clearance(self, z: np.ndarray) -> float | None:
        """Certified distance from z to the complement of the raw sublevel set.

        None when z is outside it; one evaluation of the ambient oracle and
        of ``field`` otherwise.  Connectivity to the seed is not checked here
        (the ambient's own membership, connectivity included, is).
        """
        ambient_gap = self.ambient._gap(z)
        if ambient_gap is None:
            return None
        val = float(self.field(z))
        if not math.isfinite(val):
            raise DomainError("field evaluated to a non-finite value")
        if not val < self.level:
            return None
        return min(ambient_gap, (self.level - val) / self.lipschitz)

    def _segment_connected(self, z: np.ndarray, gap: float | None = None) -> Membership:
        """Cover the segment from the seed to z by overlapping clearance balls.

        ``gap``, z's own clearance when the caller has it, spares evaluating
        z again.  Each doubling keeps the clearances at t = k / pieces, which
        are exact in binary, and evaluates only the new midpoints.
        """
        offset = z - self.seed
        target = np.linalg.norm(offset)
        if target == 0:
            return Membership.INSIDE
        pieces = 8
        radii = [None] * pieces + [gap]
        for _ in range(CONNECT_DEPTH):
            t = np.linspace(0.0, 1.0, pieces + 1)
            for k, radius in enumerate(radii):
                if radius is None:
                    radius = radii[k] = self._clearance(self.seed + t[k] * offset)
                    if radius is None:
                        return Membership.INDETERMINATE  # straight path exits
            step = target / pieces
            if all(radii[i] + radii[i + 1] > step for i in range(pieces)):
                return Membership.INSIDE
            pieces *= 2
            radii = [r for kept in radii[:-1] for r in (kept, None)] + radii[-1:]
        return Membership.INDETERMINATE

    def _gap(self, z):
        gap = self._clearance(z)
        if gap is None or self._segment_connected(z, gap) is not Membership.INSIDE:
            return None
        return gap

    def membership(self, z) -> Membership:
        z = as_point(z, self.dim)
        gap = self._clearance(z)
        if gap is None:
            return Membership.OUTSIDE
        return self._segment_connected(z, gap)

    def contains(self, z) -> bool:
        return self.membership(z) is Membership.INSIDE

    def boundary_distance(self, z) -> float:
        gap = self._gap(as_point(z, self.dim))
        if gap is None:
            raise PointOutsideDomainError("point not certified in the component")
        return gap

    def enclosing_ball(self):
        return self.ambient.enclosing_ball()

    def certify_affine_disc(self, center, direction, rho, max_cells=4096):
        # Cover against the raw sublevel set, then certify connectivity once:
        # overlapping certified balls are connected, so one connected point
        # places the whole swept disc in the seed's component.
        res = _cover_certify(self._clearance, self.dim, center, direction, rho, max_cells)
        if not res.certified:
            return res
        if self._segment_connected(as_point(center, self.dim)) is not Membership.INSIDE:
            return CertifyResult(
                CertStatus.INDETERMINATE, rho, oracle_calls=res.oracle_calls
            )
        return res


def _parse_complex_vector(data) -> np.ndarray:
    try:
        pairs = [(float(re), float(im)) for re, im in data]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad complex vector {data!r}: {exc}") from exc
    return np.array([complex(re, im) for re, im in pairs])


def domain_from_spec(
    spec: Mapping, fields: Optional[Mapping[str, Callable]] = None
) -> DomainOracle:
    """Build an oracle from its JSON description.

    Complex coordinates are [re, im] pairs.  Kinds: ``ball`` (center,
    radius), ``polydisc`` (center, radius scalar or list), ``product``
    (factors: list of specs), ``sublevel`` (center/radius for the ambient
    ball, level, seed, field: name resolved through ``fields``, lipschitz:
    a certified Lipschitz bound of the field, required).
    """
    kind = spec.get("kind")
    if kind == "ball":
        return Ball(_parse_complex_vector(spec["center"]), float(spec["radius"]))
    if kind == "polydisc":
        radius = spec["radius"]
        radii = [float(r) for r in radius] if isinstance(radius, (list, tuple)) else float(radius)
        return Polydisc(_parse_complex_vector(spec["center"]), radii)
    if kind == "product":
        return ProductDomain(
            tuple(domain_from_spec(sub, fields) for sub in spec["factors"])
        )
    if kind == "sublevel":
        name = spec.get("field")
        if fields is None or name not in fields:
            raise DomainError(f"unresolved field reference {name!r}")
        if spec.get("lipschitz") is None:
            raise DomainError('sublevel spec needs "lipschitz", a certified Lipschitz bound')
        ambient = Ball(_parse_complex_vector(spec["center"]), float(spec["radius"]))
        return SublevelDomain(
            field=fields[name],
            level=float(spec["level"]),
            ambient=ambient,
            seed=_parse_complex_vector(spec["seed"]),
            lipschitz=float(spec["lipschitz"]),
        )
    raise DomainError(f"unknown domain kind {kind!r}")


def unit_disc() -> Polydisc:
    return Polydisc(np.zeros(1), 1.0)


def unit_bidisc() -> Polydisc:
    return Polydisc(np.zeros(2), 1.0)


def unit_ball(dim: int) -> Ball:
    return Ball(np.zeros(dim), 1.0)
