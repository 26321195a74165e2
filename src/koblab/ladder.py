"""The dyadic ladder: nested complex segments linked by affine disc maps.

Scales a(nu) = 4^-(nu+1) and b(nu) = 2^-(nu+1) define, for each nu >= 1,

    segment nu:  z2 = (a(nu+1) + a(nu)) z1 - a(nu) a(nu+1),  |z1| <= b(nu),
    disc map:    zeta -> (b(nu) zeta, b(nu) (a(nu+1) + a(nu)) zeta - a(nu) a(nu+1)),
    marked point: (a(nu), a(nu)^2),

and the disc map carries the parameters a(nu)/b(nu) = b(nu) and
a(nu+1)/b(nu) = b(nu)/4 to consecutive marked points.  All identities here
are algebraic, so they are verified in exact rational arithmetic; floating
point enters only for hyperbolic distances.

Custom scale sequences are accepted solely for fault injection in tests;
they are not a supported construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .poincare import poincare_distance


def _dyadic_a(nu: int) -> Fraction:
    return Fraction(1, 4 ** (nu + 1))


@dataclass(frozen=True)
class LadderSegment:
    """One segment: z2 = slope * z1 + intercept for |z1| <= radius."""

    nu: int
    slope: Fraction
    intercept: Fraction
    radius: Fraction

    def contains_exact(self, z1: Fraction, z2: Fraction) -> bool:
        return z2 == self.slope * z1 + self.intercept and abs(z1) <= self.radius


@dataclass(frozen=True)
class DyadicLadder:
    """Ladder scales with exact accessors.

    ``depth`` bounds the index range 1..depth used by verification and the
    term tables.  ``a_fn`` overrides the dyadic scale a(nu) for fault
    injection only.
    """

    depth: int
    a_fn: Callable[[int], Fraction] = _dyadic_a

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def a(self, nu: int) -> Fraction:
        if nu < 1:
            raise ValueError("indices start at 1")
        return self.a_fn(nu)

    def b(self, nu: int) -> Fraction:
        if nu < 1:
            raise ValueError("indices start at 1")
        return Fraction(1, 2 ** (nu + 1))

    def segment(self, nu: int) -> LadderSegment:
        a0, a1 = self.a(nu), self.a(nu + 1)
        return LadderSegment(
            nu=nu, slope=a1 + a0, intercept=-a0 * a1, radius=self.b(nu)
        )

    def point(self, nu: int) -> tuple[Fraction, Fraction]:
        """Marked point (a(nu), a(nu)^2), exact."""
        a0 = self.a(nu)
        return a0, a0 * a0

    def point_complex(self, nu: int) -> np.ndarray:
        x1, x2 = self.point(nu)
        return np.array([complex(float(x1)), complex(float(x2))])

    def segment_map_exact(
        self, nu: int, zeta: Fraction
    ) -> tuple[Fraction, Fraction]:
        """Disc map at a rational parameter, exact."""
        a0, a1, b0 = self.a(nu), self.a(nu + 1), self.b(nu)
        return b0 * zeta, b0 * (a1 + a0) * zeta - a0 * a1

    def segment_point(self, nu: int, zeta: complex) -> np.ndarray:
        """Disc map at a complex parameter with |zeta| <= 1."""
        if abs(zeta) > 1.0:
            raise ValueError("parameter must lie in the closed unit disc")
        a0, a1, b0 = map(float, (self.a(nu), self.a(nu + 1), self.b(nu)))
        return np.array([b0 * zeta, b0 * (a1 + a0) * zeta - a0 * a1])

    def disc_parameters(self, nu: int) -> tuple[Fraction, Fraction]:
        """Parameters a(nu)/b(nu) and a(nu+1)/b(nu) of the marked points."""
        return self.a(nu) / self.b(nu), self.a(nu + 1) / self.b(nu)


@dataclass(frozen=True)
class LadderCheck:
    item: str  # "a" | "b" | "c"
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class LadderReport:
    depth: int
    checks: tuple[LadderCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_items(self) -> tuple[str, ...]:
        return tuple(sorted({c.item for c in self.checks if not c.passed}))

    def item_passed(self, item: str) -> bool:
        return all(c.passed for c in self.checks if c.item == item)


def verify_ladder(ladder: DyadicLadder) -> LadderReport:
    """Exact verification of the ladder identities up to the ladder's depth.

    Item (a): marked points lie on their segments and their norms decrease
    strictly to 0.  Item (b): each disc map satisfies its segment's line
    equation identically with |z1| < radius.  Item (c): the marked-point
    parameters lie in the unit disc, both evaluation identities hold, and
    the parameters equal their dyadic closed forms b(nu) and b(nu)/4 (these
    feed the distance-term table).  Everything is checked in rational
    arithmetic; failures carry witnesses.
    """
    depth = ladder.depth
    if depth < 2:
        raise ValueError("need depth >= 2 to compare consecutive points")
    checks: list[LadderCheck] = []

    def record(item, name, passed, witness=""):
        checks.append(LadderCheck(item, name, passed, witness))

    # (a) membership and strict decrease to 0
    on_segment = True
    decreasing = True
    witness_a = ""
    prev_norm2 = None
    for nu in range(1, depth + 1):
        x1, x2 = ladder.point(nu)
        seg = ladder.segment(nu)
        if not seg.contains_exact(x1, x2):
            on_segment = False
            witness_a = f"nu={nu}: point off segment"
            break
        norm2 = x1 * x1 + x2 * x2
        if prev_norm2 is not None and not norm2 < prev_norm2:
            decreasing = False
            witness_a = f"nu={nu}: norm did not decrease"
            break
        prev_norm2 = norm2
    vanishing = prev_norm2 is not None and prev_norm2 < Fraction(1, 2 ** (2 * depth))
    record("a", "points-on-segments", on_segment, witness_a)
    record("a", "norms-strictly-decreasing", decreasing, witness_a)
    record(
        "a",
        "norms-vanishing",
        vanishing,
        "" if vanishing else f"final norm^2 = {prev_norm2}",
    )

    # (b) disc maps land on the segments: compare affine coefficients exactly
    b_ok = True
    witness_b = ""
    for nu in range(1, depth + 1):
        seg = ladder.segment(nu)
        a0, a1, b0 = ladder.a(nu), ladder.a(nu + 1), ladder.b(nu)
        # z2(zeta) = slope * z1(zeta) + intercept as polynomials in zeta
        if b0 * (a1 + a0) != seg.slope * b0 or -a0 * a1 != seg.intercept:
            b_ok = False
            witness_b = f"nu={nu}: affine coefficients differ"
            break
        if not b0 <= seg.radius:
            b_ok = False
            witness_b = f"nu={nu}: |z1| bound exceeds segment radius"
            break
    record("b", "disc-image-on-segment", b_ok, witness_b)

    # (c) parameters, evaluation identities, dyadic closed forms
    params_in_disc = True
    eval_first = True
    eval_second = True
    dyadic_form = True
    witness_c = ""
    for nu in range(1, depth + 1):
        zin, zout = ladder.disc_parameters(nu)
        if not (abs(zin) < 1 and abs(zout) < 1):
            params_in_disc = False
            witness_c = f"nu={nu}: parameter outside unit disc"
            break
        if ladder.segment_map_exact(nu, zin) != ladder.point(nu):
            eval_first = False
            witness_c = f"nu={nu}: first evaluation identity fails"
            break
        if ladder.segment_map_exact(nu, zout) != ladder.point(nu + 1):
            eval_second = False
            witness_c = f"nu={nu}: second evaluation identity fails"
            break
        if zin != Fraction(1, 2 ** (nu + 1)) or zout != Fraction(1, 2 ** (nu + 3)):
            dyadic_form = False
            witness_c = (
                f"nu={nu}: parameters ({zin}, {zout}) are not the dyadic values "
                f"(1/2^{nu + 1}, 1/2^{nu + 3})"
            )
            break
    record("c", "parameters-in-disc", params_in_disc, witness_c)
    record("c", "map-hits-point", eval_first, witness_c)
    record("c", "map-hits-next-point", eval_second, witness_c)
    record("c", "parameters-dyadic-form", dyadic_form, witness_c)

    return LadderReport(depth=depth, checks=tuple(checks))


# Ratio policy for geometric tail certificates: the observed term ratios of
# the dyadic ladder approach 1/2 from below, so 0.51 is a safe cap.
TAIL_RATIO = 0.51


@dataclass(frozen=True)
class ChainTermTable:
    """Hyperbolic distances between consecutive disc parameters.

    term(nu) = p(a(nu)/b(nu), a(nu+1)/b(nu)); partial sums accumulate from
    nu = 1; tail_bound(nu) bounds sum_{k > nu} term(k) by the geometric
    certificate term(nu) * r / (1 - r) whenever every observed ratio stays
    below r.
    """

    nus: np.ndarray
    terms: np.ndarray
    partial_sums: np.ndarray
    tail_bounds: np.ndarray
    ratio: float

    @property
    def depth(self) -> int:
        return int(self.nus[-1])

    def term(self, nu: int) -> float:
        return float(self.terms[nu - 1])

    def partial_sum(self, nu: int) -> float:
        return float(self.partial_sums[nu - 1])

    def ratios(self) -> np.ndarray:
        return self.terms[1:] / self.terms[:-1]

    def tail_from(self, start: int) -> float:
        """Certified bound on sum_{nu >= start} term(nu)."""
        if not 1 <= start <= self.depth:
            raise ValueError("start out of table range")
        computed = float(np.sum(self.terms[start - 1 :]))
        return computed + float(self.tail_bounds[-1])


def chain_term_table(ladder: DyadicLadder) -> ChainTermTable:
    """Distance terms, partial sums, and certified geometric tail bounds."""
    depth = ladder.depth
    nus = np.arange(1, depth + 1)
    terms = np.empty(depth)
    for i, nu in enumerate(nus):
        zin, zout = ladder.disc_parameters(int(nu))
        terms[i] = poincare_distance(float(zin), float(zout))
    if np.any(terms <= 0) or np.any(np.diff(terms) >= 0):
        raise ValueError("terms must be positive and strictly decreasing")
    observed = terms[1:] / terms[:-1]
    if observed.size and float(np.max(observed)) > TAIL_RATIO:
        raise ValueError(
            f"observed ratio {np.max(observed):.6f} exceeds the certificate ratio {TAIL_RATIO}"
        )
    partial = np.cumsum(terms)
    # tail after nu (exclusive): term(nu) * r / (1 - r)
    tails = terms * (TAIL_RATIO / (1.0 - TAIL_RATIO))
    return ChainTermTable(
        nus=nus, terms=terms, partial_sums=partial, tail_bounds=tails, ratio=TAIL_RATIO
    )


def base3_mutated_ladder(depth: int) -> DyadicLadder:
    """Fault-injection ladder with a(nu) = 3^-(nu+1); not a supported build."""
    return DyadicLadder(depth=depth, a_fn=lambda nu: Fraction(1, 3 ** (nu + 1)))
