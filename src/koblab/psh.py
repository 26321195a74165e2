"""Numerical certificates for plurisubharmonicity and boundary geometry.

The complex Hessian H[j, k] = d^2 f / dz_j dzbar_k is estimated by central
differences through line Laplacians: for a direction v,

    Q(v) = (1/4) (d^2/dt^2 + d^2/ds^2) f(z + (t + i s) v) |_0

equals sum_jk H[j,k] v_j conj(v_k), and the Hermitian polarization identity
recovers the off-diagonal entries from Q alone.  Smooth fields give O(step^2)
errors.  Fields may carry analytic gradient / Hessian suppliers, in which
case those are preferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .domains import as_point


class FieldEvaluationError(ValueError):
    pass


class GradientVanishesError(ValueError):
    pass


@dataclass(frozen=True)
class ScalarField:
    """Real-valued field on C^n.

    ``gradient`` returns the real gradient packed as a complex vector,
    g_j = df/dx_j + i df/dy_j, so its Euclidean norm is the real gradient
    norm.  ``complex_hessian`` returns the n x n Hermitian matrix of mixed
    derivatives d^2 f / dz_j dzbar_k.  ``lipschitz`` maps a radius r to a
    bound on the real gradient norm over the ball B(0, r).
    """

    dim: int
    evaluate: Callable[[np.ndarray], float]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    complex_hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lipschitz: Optional[Callable[[float], float]] = None
    name: str = "field"

    def __call__(self, z) -> float:
        val = float(self.evaluate(as_point(z, self.dim)))
        if not math.isfinite(val):
            raise FieldEvaluationError(f"{self.name} is non-finite at {z!r}")
        return val


@dataclass(frozen=True)
class LeviReport:
    point: np.ndarray
    min_eigenvalue: float
    step: float
    mode: str  # "analytic" | "finite-difference"
    matrix: np.ndarray
    error_estimate: float | None = None  # step-halving estimate, fd mode only


def norm_squared(dim: int) -> ScalarField:
    return ScalarField(
        dim=dim,
        evaluate=lambda z: float(np.sum(np.abs(z) ** 2)),
        gradient=lambda z: 2.0 * z,
        complex_hessian=lambda z: np.eye(dim, dtype=complex),
        lipschitz=lambda r: 2.0 * r,
        name="norm2",
    )


def signature_quadratic(coeffs: Sequence[float]) -> ScalarField:
    """sum_j c_j |z_j|^2 with real coefficients."""
    c = np.asarray(coeffs, dtype=float)
    return ScalarField(
        dim=c.size,
        evaluate=lambda z: float(np.sum(c * np.abs(z) ** 2)),
        gradient=lambda z: 2.0 * c * z,
        complex_hessian=lambda z: np.diag(c).astype(complex),
        lipschitz=lambda r: 2.0 * float(np.max(np.abs(c))) * r,
        name="signature-quadratic",
    )


def pluriharmonic_re_square(dim: int, index: int = 0) -> ScalarField:
    """Re(z_j^2): pluriharmonic, so its complex Hessian vanishes."""
    def grad(z):
        g = np.zeros(dim, dtype=complex)
        g[index] = 2.0 * np.conj(z[index])
        return g

    return ScalarField(
        dim=dim,
        evaluate=lambda z: float((z[index] ** 2).real),
        gradient=grad,
        complex_hessian=lambda z: np.zeros((dim, dim), dtype=complex),
        name="re-square",
    )


def linear_re(dim: int, index: int = 0) -> ScalarField:
    def grad(z):
        g = np.zeros(dim, dtype=complex)
        g[index] = 1.0
        return g

    return ScalarField(
        dim=dim,
        evaluate=lambda z: float(z[index].real),
        gradient=grad,
        complex_hessian=lambda z: np.zeros((dim, dim), dtype=complex),
        name="linear-re",
    )


def exp_norm_squared(dim: int) -> ScalarField:
    def hess(z):
        f = math.exp(float(np.sum(np.abs(z) ** 2)))
        return f * (np.eye(dim, dtype=complex) + np.outer(np.conj(z), z))

    return ScalarField(
        dim=dim,
        evaluate=lambda z: math.exp(float(np.sum(np.abs(z) ** 2))),
        gradient=lambda z: 2.0 * z * math.exp(float(np.sum(np.abs(z) ** 2))),
        complex_hessian=hess,
        name="exp-norm2",
    )


def _line_laplacian(f: ScalarField, z: np.ndarray, v: np.ndarray, step: float) -> float:
    f0 = f(z)
    total = (
        f(z + step * v)
        + f(z - step * v)
        + f(z + 1j * step * v)
        + f(z - 1j * step * v)
        - 4.0 * f0
    )
    return total / (4.0 * step * step)


def complex_hessian_fd(f: ScalarField, z, step: float) -> np.ndarray:
    """Central-difference complex Hessian via polarized line Laplacians."""
    if step <= 0:
        raise ValueError("step must be positive")
    z = as_point(z, f.dim)
    n = f.dim
    eye = np.eye(n)
    H = np.zeros((n, n), dtype=complex)
    for j in range(n):
        H[j, j] = _line_laplacian(f, z, eye[j], step)
    for j in range(n):
        for k in range(j + 1, n):
            q = lambda v: _line_laplacian(f, z, v, step)
            val = 0.25 * (
                q(eye[j] + eye[k])
                - q(eye[j] - eye[k])
                + 1j * q(eye[j] + 1j * eye[k])
                - 1j * q(eye[j] - 1j * eye[k])
            )
            H[j, k] = val
            H[k, j] = np.conj(val)
    return H


def _hessian(f: ScalarField, z: np.ndarray, step: float) -> tuple[np.ndarray, str]:
    if f.complex_hessian is not None:
        return np.asarray(f.complex_hessian(z), dtype=complex), "analytic"
    return complex_hessian_fd(f, z, step), "finite-difference"


def levi_min_eigenvalue(
    f: ScalarField, z, step: float = 1e-4, estimate_error: bool = False
) -> LeviReport:
    """Smallest eigenvalue of the complex Hessian at z.

    With ``estimate_error`` the computation repeats at half the step and the
    Richardson difference |e(h) - e(h/2)| / 3 is reported; second-order
    stencils make that a consistent error gauge (analytic mode reports 0).
    """
    z = as_point(z, f.dim)
    H, mode = _hessian(f, z, step)
    sym = 0.5 * (H + H.conj().T)
    eig = float(np.min(np.linalg.eigvalsh(sym)))
    error = None
    if estimate_error:
        if mode == "analytic":
            error = 0.0
        else:
            half = complex_hessian_fd(f, z, step / 2.0)
            half = 0.5 * (half + half.conj().T)
            error = abs(eig - float(np.min(np.linalg.eigvalsh(half)))) / 3.0
    return LeviReport(
        point=z, min_eigenvalue=eig, step=step, mode=mode, matrix=sym,
        error_estimate=error,
    )


def gradient_field_fd(f: ScalarField, z, step: float) -> np.ndarray:
    """Real gradient packed as a complex vector, by central differences."""
    if step <= 0:
        raise ValueError("step must be positive")
    z = as_point(z, f.dim)
    g = np.zeros(f.dim, dtype=complex)
    for j in range(f.dim):
        e = np.zeros(f.dim, dtype=complex)
        e[j] = step
        dx = (f(z + e) - f(z - e)) / (2.0 * step)
        e[j] = 1j * step
        dy = (f(z + e) - f(z - e)) / (2.0 * step)
        g[j] = dx + 1j * dy
    return g


def _gradient(f: ScalarField, z: np.ndarray, step: float) -> np.ndarray:
    if f.gradient is not None:
        return np.asarray(f.gradient(z), dtype=complex)
    return gradient_field_fd(f, z, step)


def gradient_nonvanishing(f: ScalarField, z, step: float = 1e-4) -> float:
    """Euclidean norm of the real gradient estimate at z."""
    z = as_point(z, f.dim)
    return float(np.linalg.norm(_gradient(f, z, step)))


def strong_pseudoconvexity_check(
    f: ScalarField,
    p,
    step: float = 1e-4,
    level: float | None = None,
    level_tol: float = 1e-6,
    grad_floor: float = 1e-10,
) -> float:
    """Minimum of the Levi form over unit complex tangent vectors at p.

    The complex tangent space of {f = f(p)} at p is the kernel of the complex
    gradient d_j = df/dz_j; a positive return value certifies strong
    pseudoconvexity at p up to discretization error.
    """
    p = as_point(p, f.dim)
    if level is not None and abs(f(p) - level) > level_tol:
        raise ValueError(f"point is not on the level set (|f - level| > {level_tol})")
    packed = _gradient(f, p, step)
    # complex gradient: df/dz_j = (df/dx_j - i df/dy_j) / 2
    cgrad = 0.5 * (packed.real - 1j * packed.imag)
    if np.linalg.norm(cgrad) <= grad_floor:
        raise GradientVanishesError("complex tangent space undefined at a critical point")
    H, _ = _hessian(f, p, step)
    basis = np.linalg.svd(cgrad.reshape(1, -1))[2][1:].conj().T
    if basis.shape[1] == 0:
        raise GradientVanishesError("empty complex tangent space")
    # quadratic form v -> sum H[j,k] v_j conj(v_k) has matrix conj(H) in the
    # standard v^dagger A v convention
    A = np.conj(H)
    M = basis.conj().T @ A @ basis
    M = 0.5 * (M + M.conj().T)
    return float(np.min(np.linalg.eigvalsh(M)))


def lift_quadratic_tail(u: ScalarField, n: int) -> ScalarField:
    """Extend a field on C^2 to C^n by adding sum_{j>=3} |z_j|^2.

    The added tail contributes the identity block to the complex Hessian, so
    strict plurisubharmonicity of the base field propagates to the lift.
    """
    if u.dim != 2:
        raise ValueError("base field must live on C^2")
    if n < 3:
        raise ValueError("lift needs n >= 3")

    def evaluate(z):
        return u(z[:2]) + float(np.sum(np.abs(z[2:]) ** 2))

    gradient = None
    if u.gradient is not None:
        def gradient(z):
            g = np.zeros(n, dtype=complex)
            g[:2] = u.gradient(z[:2])
            g[2:] = 2.0 * z[2:]
            return g

    hessian = None
    if u.complex_hessian is not None:
        def hessian(z):
            H = np.eye(n, dtype=complex)
            H[:2, :2] = u.complex_hessian(z[:2])
            return H

    lipschitz = None
    if u.lipschitz is not None:
        lipschitz = lambda r: u.lipschitz(r) + 2.0 * r

    return ScalarField(
        dim=n,
        evaluate=evaluate,
        gradient=gradient,
        complex_hessian=hessian,
        lipschitz=lipschitz,
        name=f"lift[{u.name}]+tail",
    )


@dataclass(frozen=True)
class CandidateGridSpec:
    """Sampling plan for defining-function candidate verification."""

    ambient_radius: float = 3.0
    exclusion_radius: float = 1e-3
    radial_samples: int = 10
    directions_per_radius: int = 12
    ladder_depth: int = 20
    segment_radial: int = 4
    segment_angular: int = 10
    sphere_radii: tuple[float, ...] = (2.9, 2.95, 2.99, 2.999)
    sphere_samples: int = 48
    levi_step: float = 1e-4
    value_tol: float = 1e-9
    seed: int = 0


@dataclass(frozen=True)
class CandidateCheck:
    name: str
    value: float
    threshold: float
    comparison: str  # ">" | "<" | "abs<="
    passed: bool
    samples: int
    tolerance: float


@dataclass(frozen=True)
class CandidateReport:
    """Grid evidence for the defining-function candidate properties.

    Checks: strict plurisubharmonicity margin away from the origin,
    gradient-norm floor away from the origin, the exact value 1 at the
    origin, values below 1 on the sampled ladder segments, and a properness
    proxy (values on near-boundary spheres dominate values on the segments).
    """

    checks: tuple[CandidateCheck, ...]
    accepted: bool
    rejected_checks: tuple[str, ...]

    def check(self, name: str) -> CandidateCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _unit_directions(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    vecs = rng.normal(size=(count, 2 * dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs[:, :dim] + 1j * vecs[:, dim:]


def verify_defining_candidate(
    u: ScalarField, ladder, grid: CandidateGridSpec | None = None
) -> CandidateReport:
    """Run the candidate property suite for a field on the radius-3 ball.

    ``ladder`` supplies the segment family the candidate must stay below 1
    on; see ``koblab.ladder.DyadicLadder``.  Every recorded check carries its
    sample count and tolerance.  No grid can prove the properties; the
    report states margins, and a certified violation rejects the candidate.
    """
    grid = grid or CandidateGridSpec()
    if u.dim != 2:
        raise ValueError("candidate must live on C^2")
    rng = np.random.Generator(np.random.Philox(key=grid.seed))

    radii = np.geomspace(
        grid.exclusion_radius, grid.ambient_radius * 0.999, grid.radial_samples
    )
    min_eig = math.inf
    min_grad = math.inf
    annulus = 0
    for r in radii:
        for direction in _unit_directions(rng, 2, grid.directions_per_radius):
            z = r * direction
            min_eig = min(min_eig, levi_min_eigenvalue(u, z, grid.levi_step).min_eigenvalue)
            min_grad = min(min_grad, gradient_nonvanishing(u, z, grid.levi_step))
            annulus += 1

    value_at_zero = u(np.zeros(2, dtype=complex))

    x_max = -math.inf
    x_samples = 0
    for nu in range(1, grid.ladder_depth + 1):
        x_max = max(x_max, u(ladder.point_complex(nu)))
        x_samples += 1
        for rho in np.linspace(0.0, 1.0, grid.segment_radial + 1)[1:]:
            for theta in np.linspace(0.0, 2 * math.pi, grid.segment_angular, endpoint=False):
                zeta = rho * complex(math.cos(theta), math.sin(theta))
                x_max = max(x_max, u(ladder.segment_point(nu, zeta)))
                x_samples += 1

    sphere_min = math.inf
    sphere_count = 0
    for radius in grid.sphere_radii:
        for direction in _unit_directions(rng, 2, grid.sphere_samples):
            sphere_min = min(sphere_min, u(radius * direction))
            sphere_count += 1

    checks = (
        CandidateCheck(
            "strict-psh", min_eig, 0.0, ">", min_eig > 0.0, annulus, grid.levi_step
        ),
        CandidateCheck(
            "gradient-nonvanishing",
            min_grad,
            0.0,
            ">",
            min_grad > 0.0,
            annulus,
            grid.levi_step,
        ),
        CandidateCheck(
            "value-at-origin",
            value_at_zero,
            1.0,
            "abs<=",
            abs(value_at_zero - 1.0) <= grid.value_tol,
            1,
            grid.value_tol,
        ),
        CandidateCheck(
            "below-one-on-segments",
            x_max,
            1.0,
            "<",
            x_max < 1.0,
            x_samples,
            0.0,
        ),
        CandidateCheck(
            "properness-proxy",
            sphere_min,
            x_max,
            ">",
            sphere_min > x_max,
            sphere_count,
            0.0,
        ),
    )
    rejected = tuple(c.name for c in checks if not c.passed)
    return CandidateReport(checks=checks, accepted=not rejected, rejected_checks=rejected)
