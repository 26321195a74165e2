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

# finite-difference step of the Levi form and gradient estimates
FD_STEP = 1e-4
# strong_pseudoconvexity_check: how far f(p) may sit off the requested
# level, and the complex-gradient norm below which p counts as critical
LEVEL_TOL = 1e-6
GRAD_FLOOR = 1e-10


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


def pluriharmonic_re_square(dim: int) -> ScalarField:
    """Re(z_1^2): pluriharmonic, so its complex Hessian vanishes."""
    def grad(z):
        g = np.zeros(dim, dtype=complex)
        g[0] = 2.0 * np.conj(z[0])
        return g

    return ScalarField(
        dim=dim,
        evaluate=lambda z: float((z[0] ** 2).real),
        gradient=grad,
        complex_hessian=lambda z: np.zeros((dim, dim), dtype=complex),
        name="re-square",
    )


def linear_re(dim: int) -> ScalarField:
    """Re(z_1)."""
    def grad(z):
        g = np.zeros(dim, dtype=complex)
        g[0] = 1.0
        return g

    return ScalarField(
        dim=dim,
        evaluate=lambda z: float(z[0].real),
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
    f: ScalarField, z, step: float = FD_STEP, estimate_error: bool = False
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


def gradient_nonvanishing(f: ScalarField, z, step: float = FD_STEP) -> float:
    """Euclidean norm of the real gradient estimate at z."""
    z = as_point(z, f.dim)
    return float(np.linalg.norm(_gradient(f, z, step)))


def strong_pseudoconvexity_check(f: ScalarField, p, level: float | None = None) -> float:
    """Minimum of the Levi form over unit complex tangent vectors at p.

    The complex tangent space of {f = f(p)} at p is the kernel of the complex
    gradient d_j = df/dz_j; a positive return value certifies strong
    pseudoconvexity at p up to discretization error.
    """
    p = as_point(p, f.dim)
    if level is not None and abs(f(p) - level) > LEVEL_TOL:
        raise ValueError(f"point is not on the level set (|f - level| > {LEVEL_TOL})")
    packed = _gradient(f, p, FD_STEP)
    # complex gradient: df/dz_j = (df/dx_j - i df/dy_j) / 2
    cgrad = 0.5 * (packed.real - 1j * packed.imag)
    if np.linalg.norm(cgrad) <= GRAD_FLOOR:
        raise GradientVanishesError("complex tangent space undefined at a critical point")
    H, _ = _hessian(f, p, FD_STEP)
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


# verify_defining_candidate's sampling plan on the radius-3 ball: Levi and
# gradient checks at DIRECTIONS_PER_RADIUS seeded directions on each of
# RADIAL_SAMPLES radii from EXCLUSION_RADIUS out, the marked points and a
# SEGMENT_RADIAL x SEGMENT_ANGULAR polar grid of each of the first
# LADDER_DEPTH ladder discs, and SPHERE_SAMPLES seeded points on each
# near-boundary sphere
CANDIDATE_RADIUS = 3.0
EXCLUSION_RADIUS = 1e-3
RADIAL_SAMPLES = 10
DIRECTIONS_PER_RADIUS = 12
LADDER_DEPTH = 20
SEGMENT_RADIAL = 4
SEGMENT_ANGULAR = 10
SPHERE_RADII = (2.9, 2.95, 2.99, 2.999)
SPHERE_SAMPLES = 48
VALUE_TOL = 1e-9
CANDIDATE_SEED = 0


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


def verify_defining_candidate(u: ScalarField, ladder) -> CandidateReport:
    """Run the candidate property suite for a field on the radius-3 ball.

    ``ladder`` supplies the segment family the candidate must stay below 1
    on; see ``koblab.ladder.DyadicLadder``.  Every recorded check carries its
    sample count and tolerance.  No grid can prove the properties; the
    report states margins, and a certified violation rejects the candidate.
    """
    if u.dim != 2:
        raise ValueError("candidate must live on C^2")
    rng = np.random.Generator(np.random.Philox(key=CANDIDATE_SEED))

    radii = np.geomspace(EXCLUSION_RADIUS, CANDIDATE_RADIUS * 0.999, RADIAL_SAMPLES)
    min_eig = math.inf
    min_grad = math.inf
    annulus = 0
    for r in radii:
        for direction in _unit_directions(rng, 2, DIRECTIONS_PER_RADIUS):
            z = r * direction
            min_eig = min(min_eig, levi_min_eigenvalue(u, z).min_eigenvalue)
            min_grad = min(min_grad, gradient_nonvanishing(u, z))
            annulus += 1

    value_at_zero = u(np.zeros(2, dtype=complex))

    x_max = -math.inf
    x_samples = 0
    for nu in range(1, LADDER_DEPTH + 1):
        x_max = max(x_max, u(ladder.point_complex(nu)))
        x_samples += 1
        for rho in np.linspace(0.0, 1.0, SEGMENT_RADIAL + 1)[1:]:
            for theta in np.linspace(0.0, 2 * math.pi, SEGMENT_ANGULAR, endpoint=False):
                zeta = rho * complex(math.cos(theta), math.sin(theta))
                x_max = max(x_max, u(ladder.segment_point(nu, zeta)))
                x_samples += 1

    sphere_min = math.inf
    sphere_count = 0
    for radius in SPHERE_RADII:
        for direction in _unit_directions(rng, 2, SPHERE_SAMPLES):
            sphere_min = min(sphere_min, u(radius * direction))
            sphere_count += 1

    checks = (
        CandidateCheck(
            "strict-psh", min_eig, 0.0, ">", min_eig > 0.0, annulus, FD_STEP
        ),
        CandidateCheck(
            "gradient-nonvanishing",
            min_grad,
            0.0,
            ">",
            min_grad > 0.0,
            annulus,
            FD_STEP,
        ),
        CandidateCheck(
            "value-at-origin",
            value_at_zero,
            1.0,
            "abs<=",
            abs(value_at_zero - 1.0) <= VALUE_TOL,
            1,
            VALUE_TOL,
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
