"""Discretized parametrized curves in complex n-space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STITCH_TOL = 1e-12


class CurveError(ValueError):
    pass


@dataclass(frozen=True)
class SampledCurve:
    """A curve sampled at strictly increasing parameter values.

    ``params`` has shape (k,) and ``points`` has shape (k, n); row i is the
    curve point at parameter ``params[i]``.  A single-sample curve is the
    degenerate constant curve on the interval [t0, t0].
    """

    params: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float)
        points = np.atleast_2d(np.asarray(self.points, dtype=complex))
        if params.ndim != 1 or params.size == 0:
            raise CurveError("params must be a nonempty 1-d array")
        if points.shape[0] != params.size:
            raise CurveError(
                f"{points.shape[0]} points for {params.size} parameters"
            )
        if not np.all(np.isfinite(params)):
            raise CurveError("non-finite parameter")
        if not np.all(np.isfinite(points.view(float))):
            raise CurveError("non-finite curve point")
        if params.size > 1 and not np.all(np.diff(params) > 0):
            raise CurveError("params must be strictly increasing")
        params.setflags(write=False)
        points.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "points", points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.params.size

    @property
    def param_length(self) -> float:
        return float(self.params[-1] - self.params[0])

    def shifted(self, offset: float) -> "SampledCurve":
        """Same curve with parameters translated by ``offset``."""
        return SampledCurve(self.params + offset, self.points)

    def max_point_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.points, axis=1)))


def concatenate(curves: list[SampledCurve]) -> SampledCurve:
    """Stitch curves end to start, accumulating parameter offsets.

    Consecutive endpoints must agree within STITCH_TOL; duplicate joint
    samples are dropped.
    """
    if not curves:
        raise CurveError("nothing to concatenate")
    if len(curves) == 1:
        return curves[0]
    params = [curves[0].params]
    points = [curves[0].points]
    offset = curves[0].params[-1]
    for cur in curves[1:]:
        gap = np.linalg.norm(points[-1][-1] - cur.points[0])
        if gap > STITCH_TOL:
            raise CurveError(f"stitch gap {gap:.3e} exceeds {STITCH_TOL:.0e}")
        rel = cur.params - cur.params[0]
        params.append(offset + rel[1:])
        points.append(cur.points[1:])
        offset = offset + rel[-1]
    return SampledCurve(np.concatenate(params), np.vstack(points))
