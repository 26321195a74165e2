"""Domain oracles over complex n-space.

Every domain answers three questions: membership, a certified lower bound on
the Euclidean distance to the complement, and an enclosing ball.  On top of
that the oracles certify containment of affine analytic discs, which is what
the Kobayashi upper-bound machinery consumes.  Certificates are one-sided by
design: a positive answer is always sound, a failure to certify is reported
as indeterminate rather than guessed.
"""

from __future__ import annotations

import cmath
import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

# DomainOracle.sample_point gives up after this many rejected draws
SAMPLE_TRIES = 10_000


class DomainError(ValueError):
    pass


class DimensionMismatchError(DomainError):
    pass


class PointOutsideDomainError(DomainError):
    pass


_COMPLEX = np.dtype(complex)


def as_point(z, dim: int | None = None) -> np.ndarray:
    """Coerce to a fresh finite complex vector, optionally of prescribed dimension."""
    if type(z) is np.ndarray and z.dtype is _COMPLEX and z.ndim == 1:
        arr = z.copy()  # already a complex vector: nothing to parse
    else:
        arr = np.array(z, dtype=complex, ndmin=1)  # always a copy
        if arr.ndim != 1:
            raise DomainError(f"expected a vector, got shape {arr.shape}")
    # a Python loop over the few coordinates beats numpy's per-call overhead
    if not all(map(cmath.isfinite, arr.tolist())):
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
    """Uniform interface for bounded domains in C^n.

    A new oracle defines ``_gaps`` and ``enclosing_ball``.  Membership, the
    boundary distance, the generic disc certifier, the radial covering of
    ``certified_radius`` and sampling all ask ``_gaps``; the optional hooks
    below let estimators use exact geometry.  The public hooks validate
    their points; ``_slice`` and ``_certify`` are their kernels on points
    already validated, which a product hands its factors, and by default
    they ask the public hooks.  A product asks its factors' kernels, so a
    subclass that overrides ``slice_region`` or ``certify_affine_disc`` of a
    class with its own kernel (``Ball``, ``ProductDomain``) must override
    ``_slice`` or ``_certify`` too to be honoured as a factor.
    """

    dim: int

    @abstractmethod
    def _gaps(self, points: np.ndarray) -> np.ndarray:
        """Certified lower bound on the distance to the complement of each row.

        ``points`` is an (m, dim) array; a row outside the domain gets NaN,
        a row inside a positive value.  The package asks it once it holds
        points validated to ``dim``; it validates nothing.  Each row must get
        the same bits in any batch.
        """

    @abstractmethod
    def enclosing_ball(self) -> tuple[np.ndarray, float]:
        ...

    def contains(self, z) -> bool:
        return _first(self._gaps(as_point(z, self.dim)[None])) is not None

    def boundary_distance(self, z) -> float:
        """Certified lower bound on the Euclidean distance to the complement.

        Raises PointOutsideDomainError when z is not in the domain.
        """
        gap = _first(self._gaps(as_point(z, self.dim)[None]))
        if gap is None:
            raise PointOutsideDomainError(f"point not inside the {type(self).__name__}")
        return gap

    # Optional structure hooks.  Estimators use them when available and fall
    # back to the generic covering certifier otherwise.

    def product_factors(self) -> tuple["DomainOracle", ...] | None:
        """The factors of a Cartesian product, in coordinate order.

        A domain that declares them takes its lower bounds from them, not
        from its enclosing ball, and its metric upper too; its distance
        upper is the smaller of theirs and its own slice disc's.  Declared
        factors are always at least two.
        """
        return None

    def slice_region(self, p, q) -> tuple[complex, float] | None:
        """Round disc {zeta : p + zeta (q - p) in domain}, when exactly known.

        Returns (center, radius) in the zeta-plane, or None when the slice is
        not a round disc the oracle can name.  Once its disc is certified, it
        gives ``search_upper_bound`` and ``infinitesimal_bounds`` their upper.
        """
        return None

    def certify_affine_disc(
        self, center, direction, rho: float, max_cells: int = 4096
    ) -> CertifyResult:
        """Certify {center + zeta * direction : |zeta| <= rho} inside the domain.

        The generic implementation covers the swept parameter disc with balls
        certified by ``_gaps``; subclasses with exact geometry
        override it with closed forms.
        """
        return _cover_certify(self._gaps, self.dim, center, direction, rho, max_cells)

    def certify_affine_discs(
        self, centers, directions, rho: float, max_cells: int = 4096
    ) -> list[CertifyResult]:
        """``certify_affine_disc`` for each (center, direction) pair, in order.

        Every disc keeps its own cap and charge.  This default asks the
        discs one by one, which suits closed forms; a covering oracle may
        certify them together, giving each disc the result it gets alone.
        """
        return [
            self.certify_affine_disc(c, d, rho, max_cells=max_cells)
            for c, d in zip(centers, directions)
        ]

    def _slice(self, p: np.ndarray, q: np.ndarray) -> tuple[complex, float] | None:
        """``slice_region`` of points already validated to ``dim``."""
        return self.slice_region(p, q)

    def _certify(
        self, center: np.ndarray, direction: np.ndarray, rho: float, max_cells: int
    ) -> CertifyResult:
        """``certify_affine_disc`` of a center and direction already validated to ``dim``."""
        return self.certify_affine_disc(center, direction, rho, max_cells=max_cells)

    def certified_radius(self, center, direction, max_cells: int) -> float:
        """The largest r it certifies with {center + zeta * direction : |zeta| <= r} inside.

        At most ``max_cells`` metered calls; 0.0 when no disc certifies.
        This default runs one radial covering (``_radial_radius``) over
        ``_gaps``, closed forms included.
        """
        center = as_point(center, self.dim)
        direction = as_point(direction, self.dim)
        return _radial_radius(self._gaps, center, direction, self.enclosing_ball(), max_cells)

    def sample_point(self, rng: np.random.Generator) -> np.ndarray:
        """Rejection-sample a point of the domain from its enclosing ball."""
        center, radius = self.enclosing_ball()
        for _ in range(SAMPLE_TRIES):
            cand = center + radius * _unit_ball_sample(rng, self.dim)
            if _first(self._gaps(cand[None])) is not None:
                return cand
        raise DomainError("sampling failed; domain volume too small?")


def _unit_ball_sample(
    rng: np.random.Generator, dim: int, scale: float = 1.0
) -> np.ndarray:
    """A uniform point of the ball of radius ``scale`` about 0 in C^dim."""
    vec = rng.normal(size=2 * dim)
    norm = np.linalg.norm(vec)
    if norm == 0:
        return np.zeros(dim, dtype=complex)
    radius = scale * rng.uniform() ** (1.0 / (2 * dim))
    vec = vec / norm * radius
    return vec[:dim] + 1j * vec[dim:]


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of an (m, dim) complex array, bit for bit.

    np.linalg.norm of a complex vector is sqrt(re . re + im . im); a stacked
    row @ column product takes the same dot per row.
    """
    re, im = vectors.real, vectors.imag
    norm2 = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(norm2[:, 0, 0])


def _first(gaps: np.ndarray) -> float | None:
    """The first entry of a batch of clearances, None for NaN (outside)."""
    gap = float(gaps[0])
    return None if math.isnan(gap) else gap


# a split cell's children, in charging order, in units of their half-width
_QUADRANTS = np.array([-1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j])


def _cover_certify(
    clearances, dim: int, center, direction, rho: float, max_cells: int
) -> CertifyResult:
    """Quadtree covering of the closed parameter disc of radius rho.

    ``clearances(points)`` maps a validated (m, dim) array to one certified
    lower bound on the distance to the complement per row, NaN for a row
    outside.  This is ``_certify_together`` on the one covering
    ``_covering`` describes: one ``clearances`` call per level it reaches.
    """
    return _certify_together(
        clearances, [_covering(dim, center, direction, rho, max_cells)]
    )[0]


def _certify_together(clearances, coverings) -> list[CertifyResult]:
    """Run independent ``_covering`` generators in lockstep; their results, in order.

    Each round evaluates the probes every live covering yielded in one
    ``clearances`` call and sends each covering its own rows.  Every
    covering is started before the first call, so all discs are validated
    first; a covering that is done drops out.  The clearances contract (a
    row gets the same bits in any batch) gives each covering exactly what
    it gets alone.
    """
    results: list[CertifyResult | None] = [None] * len(coverings)
    live, batch = [], []  # the running coverings and the probe points each yielded
    for i, covering in enumerate(coverings):
        try:
            batch.append(next(covering))
            live.append((i, covering))
        except StopIteration as done:
            results[i] = done.value
    while live:
        gaps = clearances(batch[0] if len(batch) == 1 else np.concatenate(batch))
        asked, probes, live, batch, start = live, batch, [], [], 0
        for (i, covering), points in zip(asked, probes):
            end = start + len(points)
            try:
                batch.append(covering.send(gaps[start:end]))
                live.append((i, covering))
            except StopIteration as done:
                results[i] = done.value
            start = end
    return results


class _Level(NamedTuple):
    """One level of a covering's quadtree in the parameter plane.

    None of it depends on the disc's direction: given the same rho, cap and
    uncertified cells before it, a covering reaches the same level.
    """

    cells: np.ndarray  # the cells' centers, after the cap's cut
    probes: np.ndarray  # the centers clamped into the parameter disc
    # the clearance / speed that certifies each cell; one float, the
    # half-diagonal, when no center was clamped
    reach: np.ndarray | float
    uncertified: np.ndarray | None  # None where the covering stopped at this level
    over_cap: bool


def _covering(dim: int, center, direction, rho: float, max_cells: int, replay=(), record=None):
    """The covering of one disc as a generator of clearance batches.

    It yields each level's probe points as an (m, dim) array, takes their
    clearances back, and returns its CertifyResult.  A cell is certified
    when the clearance ball at its (clamped) center covers the part of the
    cell inside the parameter disc; it is a rejection witness when that
    point leaves the domain.  Cells that miss the parameter disc are
    dropped unprobed.

    The walk is level-synchronous: the root square circumscribing the disc,
    then the children of every uncertified cell, in the order their parents
    were probed, each parent's four children in ``_QUADRANTS`` order.  The
    working memory is one level: at most ``max_cells / 2`` probes, cut from
    the four children of each uncertified cell of the level before.

    The meter charges probes in that order: two calls (membership and
    distance) per probe, one for a rejecting probe.  The first rejecting
    probe is the witness; probes after it in its level were evaluated but
    are not charged.  The walk answers INDETERMINATE, charging nothing
    more, before any probe that would take the calls past ``max_cells``,
    and also when cells stay uncertified at half-width below rho * 2^-14.
    A CERTIFIED disc is charged for every probe of the tree.

    ``record``, a list, receives each ``_Level`` the walk reaches.
    ``replay`` holds (level, clearances) pairs: the levels that an earlier
    covering with the same rho and cap recorded, each with this disc's
    clearances at its probes.  The walk takes a remembered level's
    clearances instead of yielding for as long as each level's uncertified
    cells are the remembered ones, and yields level by level from the
    first one that differs.  Neither changes the result.
    """
    center = as_point(center, dim)
    direction = as_point(direction, dim)
    speed = float(np.linalg.norm(direction))
    if not 0 < rho <= 1.0:
        raise DomainError(f"rho = {rho} out of range")
    if speed == 0.0:
        if max_cells < 1:
            return CertifyResult(CertStatus.INDETERMINATE, rho, oracle_calls=0)
        inside = _first((yield center[None])) is not None
        return CertifyResult(
            CertStatus.CERTIFIED if inside else CertStatus.REJECTED,
            rho,
            witness=None if inside else 0j,
            oracle_calls=1,
        )
    if record is None:
        record = []
    replay = iter(replay)
    remembered, gaps = next(replay, (None, None))
    calls = 0
    half = rho
    cells = np.zeros(1, dtype=complex)  # the centers of one level's cells
    while True:
        if remembered is None:
            diagonal = half * math.sqrt(2.0)
            # np.hypot, unlike np.abs, matches Python's abs of a complex
            radius = np.hypot(cells.real, cells.imag)
            near = radius - diagonal <= rho
            affordable = max(0, max_cells - calls) // 2  # a probe costs two calls
            over_cap = False
            if cells.size > affordable or not near.all():
                cells, radius = cells[near][:affordable], radius[near][:affordable]
                over_cap = np.count_nonzero(near) > affordable
            out = radius > rho
            if out.any():
                # clamp each center into the disc: probe = zeta_c / |zeta_c| * rho
                probes = cells.copy()
                probes.real[out] = cells.real[out] / radius[out] * rho
                probes.imag[out] = cells.imag[out] / radius[out] * rho
                offset = cells - probes
                reach = np.hypot(offset.real, offset.imag) + diagonal
            else:
                # no center moves, so every reach is the half-diagonal
                probes, reach = cells, diagonal
            gaps = yield center + probes[:, None] * direction
        else:
            cells, probes, reach, _, over_cap = remembered
        inside = gaps > 0
        if not inside.all():
            record.append(_Level(cells, probes, reach, None, over_cap))
            first = int(inside.argmin())
            return CertifyResult(
                CertStatus.REJECTED, rho, witness=complex(probes[first]),
                oracle_calls=calls + 2 * first + 1,
            )
        calls += 2 * cells.size
        if over_cap:
            record.append(_Level(cells, probes, reach, None, over_cap))
            return CertifyResult(CertStatus.INDETERMINATE, rho, oracle_calls=calls)
        uncertified = gaps / speed < reach  # every gap here is positive
        record.append(_Level(cells, probes, reach, uncertified, over_cap))
        parents = cells[uncertified]
        if parents.size == 0:
            return CertifyResult(CertStatus.CERTIFIED, rho, oracle_calls=calls)
        if half < rho * 2.0 ** -14:
            return CertifyResult(CertStatus.INDETERMINATE, rho, oracle_calls=calls)
        half /= 2.0
        if remembered is not None and np.array_equal(uncertified, remembered.uncertified):
            remembered, gaps = next(replay, (None, None))
        else:
            remembered = None
        if remembered is None:
            cells = (parents[:, None] + half * _QUADRANTS).ravel()


# certified_radius reports this share of the radius its radial covering finds
RADIUS_RHO = 1.0 - 1e-9
# the radial covering stops once its frontier is this close to its cap
RADIUS_TOL = 1e-8
# each round of the radial covering splits the uncovered leaves whose inner
# distance is within this factor of the frontier
RADIAL_BAND = 1.5


def _radial_radius(
    clearances, center: np.ndarray, direction: np.ndarray, enclosing, max_cells: int
) -> float:
    """The radial covering: a certified radius r of {center + eta direction : |eta| <= r}.

    ``clearances`` is as for ``_cover_certify``; the points come validated.
    The quadtree lives in the eta-plane.  Its root square, centred at 0,
    has half-width H = (|center - c| + R) / |direction| for the enclosing
    ball B(c, R), so every point of the line outside it lies outside the
    domain.  The root's probe is the center itself: NaN gives 0.0, and its
    clearance g certifies the disc of radius g / |direction| at once, so a
    leaf's inner distance counts from there.  A leaf is covered when the
    clearance at its center, divided by |direction|, is at least its
    half-diagonal; a probe outside caps r at its modulus, as H does, but
    never below g / |direction|, since a probe inside the first disc may
    round onto the rim.  Each round splits the uncovered leaves whose inner
    distance is within RADIAL_BAND of the frontier, the nearest one's, and
    probes their children in one ``clearances`` batch, nearest first,
    dropping those already inside the first disc or beyond the cap.  The
    answer is RADIUS_RHO times the smaller of the frontier and the cap.

    The meter charges as ``_covering`` does: two calls per probe inside,
    one per probe outside.  A round probes only what the calls left can pay
    for at two calls a probe; the covering stops when nothing is left,
    when no leaf is uncovered, or when the frontier is within RADIUS_TOL
    of the cap.
    """
    speed = float(np.linalg.norm(direction))
    if speed == 0.0:
        raise DomainError("direction must be nonzero")
    if max_cells < 2:
        return 0.0
    gap = _first(clearances(center[None]))
    if gap is None:
        return 0.0
    calls = 2
    first = gap / speed
    enclosing_center, enclosing_radius = enclosing
    cap = (float(np.linalg.norm(center - enclosing_center)) + enclosing_radius) / speed
    # the uncovered leaves: centers, half-widths, inner distances
    cells, halves, inner = np.zeros(1, dtype=complex), np.array([cap]), np.array([first])
    while inner.size:
        frontier = float(inner.min())
        affordable = (max_cells - calls) // 2
        if frontier >= cap * (1.0 - RADIUS_TOL) or affordable == 0:
            break
        split = inner <= RADIAL_BAND * frontier
        rest = ~split
        half = halves[split] * 0.5
        children = (cells[split, None] + half[:, None] * _QUADRANTS).ravel()
        half = np.repeat(half, 4)
        cells, halves, inner = cells[rest], halves[rest], inner[rest]
        # the part of a child inside the first disc is covered already
        child_inner = np.maximum(
            np.hypot(
                np.maximum(np.abs(children.real) - half, 0.0),
                np.maximum(np.abs(children.imag) - half, 0.0),
            ),
            first,
        )
        diagonal = half * math.sqrt(2.0)
        kept = (np.hypot(children.real, children.imag) + diagonal > first) & (child_inner < cap)
        children, half, child_inner, diagonal = (
            children[kept], half[kept], child_inner[kept], diagonal[kept]
        )
        if children.size > affordable:  # probe the nearest; the rest wait
            order = np.argsort(child_inner, kind="stable")
            children, half, child_inner, diagonal = (
                children[order], half[order], child_inner[order], diagonal[order]
            )
        probes = children[:affordable]
        gaps = clearances(center + probes[:, None] * direction) if probes.size else np.empty(0)
        inside = gaps > 0
        calls += probes.size + int(np.count_nonzero(inside))
        if not inside.all():
            # the first disc is certified whatever its points round to: a
            # probe inside it that rounds onto the rim caps r at first
            outside = probes[~inside]
            cap = min(cap, max(first, float(np.hypot(outside.real, outside.imag).min())))
        uncovered = np.ones(children.size, dtype=bool)
        uncovered[: probes.size] = ~(gaps / speed >= diagonal[: probes.size])
        cells = np.concatenate([cells, children[uncovered]])
        halves = np.concatenate([halves, half[uncovered]])
        inner = np.concatenate([inner, child_inner[uncovered]])
        relevant = inner < cap
        cells, halves, inner = cells[relevant], halves[relevant], inner[relevant]
    frontier = float(inner.min()) if inner.size else cap
    return min(frontier, cap) * RADIUS_RHO


@dataclass(frozen=True)
class Ball(DomainOracle):
    """Open Euclidean ball B(center, radius)."""

    center: np.ndarray
    radius: float
    dim: int = dataclass_field(init=False)
    # a power of two near the radius or the largest center coordinate when
    # either exceeds 2^500, where the squares in _row_norms would overflow;
    # None otherwise
    _scale: float | None = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        center = as_point(self.center)
        # the paper's domains are bounded, and so are koblab's
        if not 0 < self.radius < math.inf:
            raise DomainError(f"radius must be positive and finite, got {self.radius!r}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "dim", center.size)
        size = max([self.radius, *map(abs, center.view(float).tolist())])
        scale = math.ldexp(1.0, math.frexp(size)[1] - 1) if size > 2.0**500 else None
        object.__setattr__(self, "_scale", scale)

    def _gaps(self, points):
        # radius - norm > 0 exactly when norm < radius in IEEE arithmetic; a
        # row so far out that its squares overflow gets norm inf, so NaN
        with np.errstate(over="ignore"):
            if self._scale is None:
                gaps = self.radius - _row_norms(points - self.center)
            else:
                # dividing by a power of two is exact, and so is scaling back
                scale = self._scale
                gaps = (self.radius / scale - _row_norms((points - self.center) / scale)) * scale
        gaps[gaps <= 0] = math.nan
        return gaps

    def enclosing_ball(self):
        return self.center.copy(), float(self.radius)

    def slice_region(self, p, q):
        return self._slice(as_point(p, self.dim), as_point(q, self.dim))

    def _slice(self, p, q):
        if self.dim == 1:
            return self._line_disc(complex(p[0]), complex(q[0]))
        d = q - p
        nd2 = float(np.add.reduce(np.abs(d) ** 2))
        scale = 1.0
        if nd2 < sys.float_info.min and d.any():
            # |d|^2 has lost d's bits: slice along the exact multiple 2^600 d,
            # whose disc is 2^600 times smaller
            scale = 2.0**600
            d = d * scale
            nd2 = float(np.add.reduce(np.abs(d) ** 2))
        if nd2 == 0:
            return None
        a = p - self.center
        s = complex(np.add.reduce(a * np.conj(d)))
        zc = -s / nd2
        try:
            rc2 = (
                self.radius**2 - float(np.add.reduce(np.abs(a) ** 2)) + abs(s) ** 2 / nd2
            ) / nd2
        except OverflowError:  # Python raises where numpy overflows to inf: no disc
            return None
        if not 0 < rc2 < math.inf:  # empty, or too large for a float disc
            return None
        zc, rc = complex(zc.real * scale, zc.imag * scale), math.sqrt(rc2) * scale
        if not (cmath.isfinite(zc) and rc < math.inf):
            return None
        return zc, rc

    def _line_disc(self, p: complex, q: complex) -> tuple[complex, float] | None:
        """``slice_region`` in dimension 1: D((center - p) / d, radius / |d|), d = q - p.

        Python complex arithmetic, where numpy's would cost more than the
        formula.  Python raises where numpy overflows, so |d| comes from
        math.hypot, which overflows to inf, and d = 0 is asked first; every
        disc with no float center or no positive float radius is None.
        """
        d = q - p
        if d == 0:
            return None
        zc = (complex(self.center[0]) - p) / d
        rc = self.radius / math.hypot(d.real, d.imag)
        if not (0 < rc < math.inf and cmath.isfinite(zc)):
            return None
        return zc, rc

    def certify_affine_disc(self, center, direction, rho, max_cells=4096):
        return self._certify(
            as_point(center, self.dim), as_point(direction, self.dim), rho, max_cells
        )

    def _certify(self, center, direction, rho, max_cells):
        if max_cells < 1:
            return CertifyResult(CertStatus.INDETERMINATE, rho, oracle_calls=0)
        if self.dim == 1:
            # |a + zeta d| peaks at |a| + rho |d| on |zeta| <= rho, in Python
            # complex arithmetic; math.hypot overflows to inf where abs raises
            a, d = complex(center[0]) - complex(self.center[0]), complex(direction[0])
            if math.hypot(a.real, a.imag) + rho * math.hypot(d.real, d.imag) < self.radius:
                return CertifyResult(CertStatus.CERTIFIED, rho)
            s = a * d.conjugate()
            size = math.hypot(s.real, s.imag)
        else:
            a = center - self.center
            s = complex(np.add.reduce(a * np.conj(direction)))
            size = abs(s)
            peak2 = (
                float(np.add.reduce(np.abs(a) ** 2))
                + 2.0 * rho * size
                + rho**2 * float(np.add.reduce(np.abs(direction) ** 2))
            )
            if math.sqrt(peak2) < self.radius:
                return CertifyResult(CertStatus.CERTIFIED, rho)
        # the parameter on the rim where |a + zeta d| peaks
        witness = rho * (s / size) if s != 0 else complex(rho)
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


def factor_slices(factors: Sequence[DomainOracle]) -> Iterator[tuple[DomainOracle, slice]]:
    """Each factor with the slice of a product point that holds its block."""
    at = 0
    for f in factors:
        yield f, slice(at, at + f.dim)
        at += f.dim


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

    def _gaps(self, points):
        # a factor sees only the rows inside the earlier factors: the whole
        # column block while every row is, the rows inside once one is not
        gaps = np.full(len(points), math.inf)
        for f, block in factor_slices(self.factors):
            inside = gaps > 0
            if inside.all():
                gaps = np.minimum(gaps, f._gaps(points[:, block]))
            else:
                gaps[inside] = np.minimum(gaps[inside], f._gaps(points[inside, block]))
        return gaps

    def enclosing_ball(self):
        centers, radii, rad2 = [], [], 0.0
        for f in self.factors:
            c, r = f.enclosing_ball()
            centers.append(c)
            radii.append(r)
            rad2 += r * r
        radius = math.sqrt(rad2)
        # sqrt(r * r) is r unless r * r overflows or underflows, so only
        # then can the sum fall short of a factor; hypot scales the squares
        if not max(radii) <= radius < math.inf:
            radius = math.hypot(*radii)
        return np.concatenate(centers), radius

    def product_factors(self):
        """The factors, when there are at least two; a product of one factor
        is that factor, so it declares the factor's own (None for a ball)."""
        if len(self.factors) > 1:
            return self.factors
        return self.factors[0].product_factors()

    def slice_region(self, p, q):
        return self._slice(as_point(p, self.dim), as_point(q, self.dim))

    def _slice(self, p, q):
        discs = []
        for f, block in factor_slices(self.factors):
            pblk, qblk = p[block], q[block]
            # Python's comparison of the few coordinates beats numpy's
            if qblk.tolist() == pblk.tolist():
                if _first(f._gaps(pblk[None])) is None:
                    return None
                continue
            sub = f._slice(pblk, qblk)
            if sub is None:
                return None
            discs.append(sub)
        return _nested_intersection(discs)

    def certify_affine_disc(self, center, direction, rho, max_cells=4096):
        return self._certify(
            as_point(center, self.dim), as_point(direction, self.dim), rho, max_cells
        )

    def _certify(self, center, direction, rho, max_cells):
        calls = 0
        for f, block in factor_slices(self.factors):
            # the factors share the cap: each gets what the earlier ones left
            res = f._certify(center[block], direction[block], rho, max_cells - calls)
            calls += res.oracle_calls
            if not res.certified:
                return CertifyResult(res.status, rho, res.witness, calls)
        return CertifyResult(CertStatus.CERTIFIED, rho, oracle_calls=calls)


@dataclass(frozen=True)
class Polydisc(ProductDomain):
    """Product of coordinate discs {|z_j - c_j| < r_j}: the ``ProductDomain``
    of its one-dimensional ``Ball``s.

    ``radii`` is one radius per coordinate, or a scalar for all of them.
    The balls answer every question but the clearance: ``_gaps`` takes
    their formula, r_j - sqrt(re^2 + im^2), for every coordinate at once,
    with the bits the product of the balls gives, in a third of the time
    the product's loop over its balls takes on one row.
    """

    factors: tuple[Ball, ...] = dataclass_field(init=False, repr=False)
    center: np.ndarray
    radii: np.ndarray
    # whether some ball rescales (``Ball._scale``); then the product's
    # clearance runs instead
    _rescaled: bool = dataclass_field(init=False, repr=False, compare=False)

    # perfbench's tracer wraps certify_affine_disc from each class's own __dict__
    certify_affine_disc = ProductDomain.certify_affine_disc

    def __post_init__(self):
        center = as_point(self.center)
        radii = np.atleast_1d(np.asarray(self.radii, dtype=float))
        if radii.size == 1 and center.size > 1:
            radii = np.full(center.size, float(radii[0]))
        if radii.size != center.size:
            raise DimensionMismatchError("radii / center length mismatch")
        balls = tuple(Ball(center[j : j + 1], float(r)) for j, r in enumerate(radii))
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "factors", balls)
        object.__setattr__(self, "_rescaled", any(b._scale is not None for b in balls))
        super().__post_init__()

    def _gaps(self, points):
        if self._rescaled:
            return super()._gaps(points)
        # the real and imaginary parts, interleaved; the smallest clearance
        # is positive exactly when every coordinate's is, and a square that
        # overflows makes its coordinate's clearance -inf, as in ``Ball``
        parts = (points - self.center).view(float)
        with np.errstate(over="ignore"):
            squares = parts * parts
            norms = np.sqrt(squares[:, 0::2] + squares[:, 1::2])
        gaps = np.minimum.reduce(self.radii - norms, axis=1)
        gaps[gaps <= 0] = math.nan
        return gaps


CONNECT_DEPTH = 10  # seed-segment refinements (8, 16, ... pieces) before indeterminate
# the walk's parameters t = k / pieces: every one of the first 8 pieces, then
# the new midpoints of each doubling; exact in binary, so np.linspace's bits
_WALK_STEPS = [np.arange(9) / 8] + [
    np.arange(1, 8 << depth, 2) / (8 << depth) for depth in range(1, CONNECT_DEPTH)
]


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
    # field values at the rows of an (m, dim) array
    _values: Callable[[np.ndarray], np.ndarray] = dataclass_field(
        init=False, repr=False, compare=False
    )
    # the last single-disc covering: (key, its levels, whether the center
    # walked connected); see certify_affine_disc
    _last_covering: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        from .psh import ScalarField  # psh imports this module

        lipschitz = self.lipschitz
        if lipschitz is None or not 0 < lipschitz < math.inf:
            raise DomainError(
                f"lipschitz must be a certified positive Lipschitz bound, got {lipschitz!r}"
            )
        seed = as_point(self.seed, self.ambient.dim)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "dim", self.ambient.dim)
        if isinstance(self.field, ScalarField):
            # one vectorised call per batch; it raises FieldEvaluationError
            # on a non-finite value
            values = self.field.values
        else:
            field = self.field

            def values(points: np.ndarray) -> np.ndarray:
                vals = np.array([float(field(z)) for z in points])
                if not np.isfinite(vals).all():
                    raise DomainError("field evaluated to a non-finite value")
                return vals

        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_last_covering", (None, [], None))
        if _first(self._clearances(seed[None])) is None:
            raise DomainError("seed is not in the sublevel set")

    def _clearances(self, points: np.ndarray) -> np.ndarray:
        """Certified distance from each row to the complement of the raw sublevel set.

        NaN for a row outside it.  One batch of the ambient oracle's
        ``_gaps``, then one batch of field values over the rows inside the
        ambient, which are the only rows the field sees.  Connectivity to the
        seed is not checked here (the ambient's own membership, connectivity
        included, is).
        """
        gaps = self.ambient._gaps(points)
        inside = gaps > 0
        every = inside.all()  # then the batch itself is the rows inside
        vals = self._values(points if every else points[inside])
        room = np.where(vals < self.level, (self.level - vals) / self.lipschitz, math.nan)
        if every:
            return np.minimum(gaps, room)
        gaps[inside] = np.minimum(gaps[inside], room)
        return gaps

    def _connected(self, points: np.ndarray, gaps: np.ndarray | None = None) -> np.ndarray:
        """Whether each row's straight segment from the seed is covered, as bools.

        The walk covers the segment from the seed to a row by overlapping
        clearance balls.  ``gaps``, the rows' own clearances when the caller
        has them, spares evaluating the rows again.  Every segment starts in
        8 pieces, and the segments double in lockstep: each doubling keeps
        the clearances at t = k / pieces, which are exact in binary, and
        evaluates the new midpoints of every row still undecided in one
        ``_clearances`` batch.  A row is connected once its neighbouring
        balls overlap; an exit anywhere on its segment, or CONNECT_DEPTH
        doublings, leaves it unconnected (indeterminate).  A row gets the
        same answer from the same clearances in any batch.
        """
        offsets = points - self.seed
        targets = _row_norms(offsets)
        connected = targets == 0  # a row at the seed needs no walk
        rows = np.flatnonzero(targets)
        if rows.size == 0:
            return connected
        if rows.size < len(points):
            offsets, targets = offsets[rows], targets[rows]
            gaps = None if gaps is None else gaps[rows]
        targets = targets[:, None]
        if gaps is None:
            radii = self._walk_clearances(_WALK_STEPS[0], offsets)
        else:
            radii = np.empty((rows.size, 9))
            radii[:, :-1] = self._walk_clearances(_WALK_STEPS[0][:-1], offsets)
            radii[:, -1] = gaps
        for depth, steps in enumerate(_WALK_STEPS):
            pieces = 8 << depth
            if depth:
                refined = np.empty((rows.size, pieces + 1))
                refined[:, 0::2] = radii
                refined[:, 1::2] = self._walk_clearances(steps, offsets)
                radii = refined
            stays = (radii > 0).all(axis=1)  # False where a straight path exits
            overlaps = (radii[:, :-1] + radii[:, 1:] > targets / pieces).all(axis=1)
            undecided = stays & ~overlaps
            left = np.count_nonzero(undecided)
            if left == rows.size:
                continue
            connected[rows] = stays & overlaps
            if left == 0:
                break
            rows, offsets, targets = rows[undecided], offsets[undecided], targets[undecided]
            radii = radii[undecided]
        return connected

    def _walk_clearances(self, t: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Clearances at seed + t_j * offset_i as an (i, j) array, in one ``_clearances`` batch."""
        points = self.seed + t[None, :, None] * offsets[:, None, :]
        return self._clearances(points.reshape(-1, self.dim)).reshape(len(offsets), t.size)

    def _gaps(self, points):
        # a row counts only when it is also connected to the seed; every row
        # inside the raw sublevel set walks in the same batches
        gaps = self._clearances(points)
        inside = np.flatnonzero(gaps > 0)
        gaps[inside[~self._connected(points[inside], gaps[inside])]] = math.nan
        return gaps

    def membership(self, z) -> Membership:
        z = as_point(z, self.dim)[None]
        gaps = self._clearances(z)
        if _first(gaps) is None:
            return Membership.OUTSIDE
        return Membership.INSIDE if self._connected(z, gaps)[0] else Membership.INDETERMINATE

    def contains(self, z) -> bool:
        return self.membership(z) is Membership.INSIDE

    def boundary_distance(self, z) -> float:
        gap = _first(self._gaps(as_point(z, self.dim)[None]))
        if gap is None:
            raise PointOutsideDomainError("point not certified in the component")
        return gap

    def enclosing_ball(self):
        return self.ambient.enclosing_ball()

    def certified_radius(self, center, direction, max_cells):
        """One radial covering against the raw sublevel set, then the walk
        from the seed to the center: the certified disc is connected and
        holds the center, so it lies in the seed's component when the
        center does.  A center that does not walk connected gives 0.0."""
        center = as_point(center, self.dim)
        direction = as_point(direction, self.dim)
        radius = _radial_radius(
            self._clearances, center, direction, self.enclosing_ball(), max_cells
        )
        if radius > 0.0 and not self._connected(center[None])[0]:
            return 0.0
        return radius

    def certify_affine_disc(self, center, direction, rho, max_cells=4096):
        """One disc's covering, then the walk from the seed to its center.

        The domain remembers its last such call.  The key is the center's
        bits, rho and the cap; the value is the quadtree the covering walked
        (``_Level``s: cell centers, clamped probes, reaches, uncertified
        cells and cap flag, none of which depends on the direction) and
        whether the center walked connected.  On the same key, as in a
        radius search at one center, the disc is first evaluated at every
        remembered probe in one ``_clearances`` batch and ``_covering``
        replays the level order on those clearances for as long as its
        levels match; a certified disc whose center already walked skips
        the walk.  Only the batching changes: every status, witness and
        charge, and every error, is the one a fresh domain gives.  If that
        batch raises on a non-finite field value, which may lie at a probe
        the walk never reaches, the covering goes level by level instead.
        """
        from .psh import FieldEvaluationError  # psh imports this module

        center = as_point(center, self.dim)
        direction = as_point(direction, self.dim)
        key = (center.tobytes(), rho, max_cells)
        last_key, levels, connected = self._last_covering
        if key != last_key:
            levels, connected = [], None
        replay = ()
        if levels:
            probes = np.concatenate([level.probes for level in levels])
            try:
                gaps = self._clearances(center + probes[:, None] * direction)
            except (DomainError, FieldEvaluationError):
                pass
            else:
                replay, start = [], 0
                for level in levels:
                    replay.append((level, gaps[start:start + level.probes.size]))
                    start += level.probes.size
        record = []
        covering = _covering(self.dim, center, direction, rho, max_cells, replay, record)
        result = _certify_together(self._clearances, [covering])[0]
        if result.certified:
            if connected is None:
                connected = bool(self._connected(center[None])[0])
            if not connected:
                result = CertifyResult(
                    CertStatus.INDETERMINATE, rho, oracle_calls=result.oracle_calls
                )
        object.__setattr__(self, "_last_covering", (key, record, connected))
        return result

    def certify_affine_discs(self, centers, directions, rho, max_cells=4096):
        # Cover against the raw sublevel set, then certify connectivity once
        # per disc: overlapping certified balls are connected, so one
        # connected point places the whole swept disc in the seed's
        # component.  The coverings share one clearance batch per level, and
        # the certified centres walk together.
        results = _certify_together(
            self._clearances,
            [_covering(self.dim, c, d, rho, max_cells) for c, d in zip(centers, directions)],
        )
        certified = [i for i, res in enumerate(results) if res.certified]
        if certified:
            walked = np.array([as_point(centers[i], self.dim) for i in certified])
            for i, connected in zip(certified, self._connected(walked).tolist()):
                if not connected:
                    results[i] = CertifyResult(
                        CertStatus.INDETERMINATE, rho, oracle_calls=results[i].oracle_calls
                    )
        return results


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


def unit_disc() -> Ball:
    return Ball(np.zeros(1), 1.0)


def unit_bidisc() -> Polydisc:
    return Polydisc(np.zeros(2), 1.0)


def unit_ball(dim: int) -> Ball:
    return Ball(np.zeros(dim), 1.0)
