"""The benchmark's workloads: seeded inputs, timed calls into koblab, oracle checks.

A workload is a sequence of cycles.  A cycle is a fixed mix of operations
(for example two distance brackets and one metric bracket per model domain
and two checker verdicts).  A run does a fixed number of cycles, sized from
``--seconds`` by the workload's nominal cycle time, so two commits always
do the same work on the same inputs and the mix never depends on where a
clock stopped.

Inputs come from the seed only.  The shape of each input (radii, angle
between the two points, angle between point and direction) is read off a
shifted lattice (ShapeLattice) with one point per operation of the run, and
a seeded random rotation then places the shape in space.  Neither step
avoids any region of the domain.

Nothing here imports mpmath: the 50-digit oracles are loaded only when the
outcomes are checked, after the timed phase, so set-up time is the
program's own.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from koblab import curves, domains, geodesics, kobayashi, ladder, psh

# koblab's own soundness checks (kobayashi.BRACKET_TOL, the CLI's
# ball-calibration and slice-check) accept a bound that sits this far on the
# wrong side of the truth.  ``failed`` uses it; ``unsound`` uses none.
STATED_TOL = 1e-12

# Largest scale at which model-domain points are drawn, as in the CLI's
# ball-calibration experiment.
MODEL_SCALE = 0.95
# generic-search and generic-certify draw points from 0.8 x the unit ball.
GENERIC_SCALE = 0.8

CLI_TIMEOUT_S = 150


@dataclass
class Outcome:
    """What the oracles say about one operation."""

    failed: list[str] = field(default_factory=list)
    unsound: int = 0
    indeterminate: bool = False
    upper_ratios: list[float] = field(default_factory=list)
    lower_ratios: list[float] = field(default_factory=list)
    # cli-cold only: the run_meta.json wall time of the command
    run_s: float | None = None

    def bracket(self, what, truth, lower=None, upper=None, tightness=True):
        """Compare a bracket with the 50-digit truth.

        A bound strictly on the wrong side counts as unsound; beyond
        STATED_TOL it is also a failure.  With ``tightness`` the ratios to
        the truth feed the tightness metrics.
        """
        import oracles  # after set-up: see the module docstring

        if lower is not None:
            if not oracles.below(lower, truth):
                self.unsound += 1
                if not oracles.below(lower - STATED_TOL, truth):
                    self.failed.append(f"{what}: lower {lower!r} above truth {truth}")
            if tightness:
                self.lower_ratios.append(oracles.ratio(lower, truth))
        if upper is not None:
            if not oracles.above(upper, truth):
                self.unsound += 1
                if not oracles.above(upper + STATED_TOL, truth):
                    self.failed.append(f"{what}: upper {upper!r} below truth {truth}")
            if tightness:
                self.upper_ratios.append(oracles.ratio(upper, truth))


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` runs after the timed phase."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


# ---------------------------------------------------------------------------
# Input shapes


class ShapeLattice:
    """The n points of a rank-1 lattice in [0, 1)^dim, shifted by a seeded
    offset: in every coordinate the points fill each of the n strata of
    width 1/n exactly once, so a run's inputs cover the shapes evenly and
    its cost varies little from seed to seed."""

    def __init__(self, rng: np.random.Generator, dim: int, n: int):
        self.shift = rng.uniform(size=dim)
        self.n = n
        # a Korobov generator (1, a, a^2, ...) with a coprime to n, near n / golden ratio
        a = next(a for a in range(max(1, round(0.618 * n)), 2 * n + 2) if math.gcd(a, n) == 1)
        self.generator = [pow(a, j, n) for j in range(dim)]

    def __getitem__(self, k: int) -> np.ndarray:
        point = [(k * g % self.n) / self.n for g in self.generator]
        return (np.array(point) + self.shift) % 1.0


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ball_radius(u: float, n: int) -> float:
    """Radius of a uniform point of the unit ball of C^n at quantile u."""
    return u ** (1.0 / (2 * n))


def _pair_from_shape(shape, rot: np.ndarray, scale: float):
    """Two points of scale * B^2 from (u_z, u_w, |<z^, w^>|^2, phase).

    For independent uniform shape coordinates this is exactly a pair of
    independent uniform points of the ball.
    """
    rz, rw = _ball_radius(shape[0], 2), _ball_radius(shape[1], 2)
    c = math.sqrt(shape[2])
    s = math.sqrt(1.0 - shape[2])
    z = np.array([rz, 0.0], dtype=complex)
    w = rw * np.array([c * np.exp(2j * math.pi * shape[3]), s])
    return scale * (rot @ z), scale * (rot @ w)


def _point_direction_from_shape(shape, rot: np.ndarray, scale: float):
    """A point of scale * B^2 and a unit direction from (u_z, |<v, z^>|^2, phase)."""
    r = _ball_radius(shape[0], 2)
    c = math.sqrt(shape[1])
    s = math.sqrt(1.0 - shape[1])
    z = np.array([r, 0.0], dtype=complex)
    v = np.array([c * np.exp(2j * math.pi * shape[2]), s])
    return scale * (rot @ z), rot @ v


def _disc_point(u_radius: float, u_angle: float, scale: float) -> complex:
    return scale * math.sqrt(u_radius) * complex(math.cos(2 * math.pi * u_angle), math.sin(2 * math.pi * u_angle))


def _uniform_ball_point(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    vec = rng.normal(size=2 * n)
    vec *= scale * _ball_radius(rng.uniform(), n) / np.linalg.norm(vec)
    return vec[:n] + 1j * vec[n:]


def _unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    vec = rng.normal(size=2 * n)
    vec /= np.linalg.norm(vec)
    return vec[:n] + 1j * vec[n:]


def _rng(seed: int, stream: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:8], "little")
    return np.random.default_rng([seed, key])


# ---------------------------------------------------------------------------
# Shared operations


def _distance_op(kind, domain, z, w, truth, budget, seed):
    def call():
        return kobayashi.estimate_distance(domain, z, w, budget=budget, seed=seed)

    def check(est):
        out = Outcome()
        if est.upper is None:
            out.indeterminate = True
        out.bracket(kind, _truth(truth, z, w), lower=est.lower, upper=est.upper)
        return out

    return Op(kind, call, check)


def _metric_op(kind, domain, z, v, truth):
    def call():
        return kobayashi.infinitesimal_bounds(domain, z, v)

    def check(est):
        out = Outcome()
        out.bracket(kind, _truth(truth, z, v), lower=est.lower, upper=est.upper)
        return out

    return Op(kind, call, check)


# ---------------------------------------------------------------------------
# model-domains


def _truth(name: str, *args):
    """oracles.<name>(*args); mpmath loads at the first check, after set-up."""
    import oracles

    return getattr(oracles, name)(*args)


def _model_point(rng, name):
    if name == "disc":
        return _uniform_ball_point(rng, 1, MODEL_SCALE)
    if name == "ball2":
        return _uniform_ball_point(rng, 2, MODEL_SCALE)
    if name == "bidisc":
        return np.concatenate([_uniform_ball_point(rng, 1, MODEL_SCALE) for _ in range(2)])
    return np.concatenate(
        [_uniform_ball_point(rng, 2, MODEL_SCALE), _uniform_ball_point(rng, 1, MODEL_SCALE)]
    )


# Shape dimensions of a distance pair per model domain.  The cost of a
# product-domain pair is bimodal (an exact slice region answers in about a
# millisecond, the full search takes tens), so the share of fast pairs must
# not wander with the seed: the pairs come from a lattice too.
PAIR_SHAPE_DIMS = {"disc": 4, "ball2": 4, "bidisc": 8, "ball2xdisc": 8}


def _model_pair(name, shape, rot):
    """Two points of MODEL_SCALE x the domain; uniform and independent for
    independent uniform shape coordinates."""
    if name == "disc":
        return (np.array([_disc_point(shape[0], shape[1], MODEL_SCALE)]),
                np.array([_disc_point(shape[2], shape[3], MODEL_SCALE)]))
    if name == "ball2":
        return _pair_from_shape(shape, rot, MODEL_SCALE)
    if name == "bidisc":
        z = [_disc_point(shape[0], shape[1], MODEL_SCALE), _disc_point(shape[2], shape[3], MODEL_SCALE)]
        w = [_disc_point(shape[4], shape[5], MODEL_SCALE), _disc_point(shape[6], shape[7], MODEL_SCALE)]
        return np.array(z), np.array(w)
    zb, wb = _pair_from_shape(shape[:4], rot, MODEL_SCALE)
    z3 = _disc_point(shape[4], shape[5], MODEL_SCALE)
    w3 = _disc_point(shape[6], shape[7], MODEL_SCALE)
    return np.append(zb, z3), np.append(wb, w3)


def _geodesic_bidisc_chain(rng) -> kobayashi.DiscChain:
    """A single-disc chain that is a complex geodesic of the bidisc.

    The first coordinate sweeps almost the whole disc and the second is a
    strict contraction of it, so the first-coordinate projection realizes
    the distance and the curve is a (1, 0)-geodesic up to discretization.
    """
    rho = 1.0 - 1e-9
    phase = np.exp(2j * math.pi * rng.uniform())
    z2c = 0.55 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
    gamma_cap = min(0.3, (1.0 - abs(z2c)) * 0.8)
    gamma = rng.uniform(0.05, gamma_cap) * np.exp(2j * math.pi * rng.uniform())
    disc = kobayashi.AnalyticDisc([0.0, z2c], rho * phase * np.array([1.0, gamma]))
    while True:
        zin = 0.75 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        zout = 0.75 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
        # the pseudo-hyperbolic distance picks lengths in [0.3, 2]
        m = abs(zin - zout) / abs(1 - np.conj(zout) * zin)
        if math.tanh(0.3) <= m <= math.tanh(2.0):
            return kobayashi.DiscChain(links=(kobayashi.ChainLink(disc, complex(zin), complex(zout)),))


def _check_verdict_brackets(out, curve, verdict, distance_truth, metric_truth):
    """Every bracket the checker compared against its band, against the truth."""
    params = curve.params
    for pair in verdict.condition_a:
        i = int(np.searchsorted(params, pair.s))
        j = int(np.searchsorted(params, pair.t))
        truth = _truth(distance_truth, curve.points[i], curve.points[j])
        out.bracket("checker-distance", truth, lower=pair.lower, upper=pair.upper, tightness=False)
    for speed in verdict.condition_b:
        i = int(np.searchsorted(params, speed.t))
        vel = (curve.points[i + 1] - curve.points[i - 1]) / float(params[i + 1] - params[i - 1])
        truth = _truth(metric_truth, curve.points[i], vel)
        out.bracket("checker-speed", truth, lower=speed.lower, upper=speed.upper, tightness=False)


def _checker_op(chain, seed):
    domain = domains.unit_bidisc()

    def call():
        curve = geodesics.build_chain_curve(domain, chain, 120)
        verdict = geodesics.check_almost_geodesic(
            domain, curve, lam=1.0, kappa=0.05, pair_samples=10, speed_samples=6, seed=seed
        )
        return curve, verdict

    def check(result):
        curve, verdict = result
        out = Outcome()
        if verdict.overall == geodesics.FAIL:
            out.failed.append("false FAIL on a bidisc geodesic chain")
        elif verdict.overall != geodesics.PASS:
            out.indeterminate = True
        _check_verdict_brackets(out, curve, verdict, "polydisc_distance", "polydisc_metric")
        return out

    return Op("verdict/bidisc-geodesic", call, check)


def _control_op(direction, seed):
    """Straight Euclidean segment through the ball's center: must FAIL."""
    domain = domains.unit_ball(2)
    ts = np.linspace(0.0, 1.8, 40)
    points = np.outer(-0.9 + ts, direction)
    curve = curves.SampledCurve(ts, points)

    def call():
        return geodesics.check_almost_geodesic(domain, curve, 1.0, 0.1, seed=seed)

    def check(verdict):
        out = Outcome()
        if verdict.overall != geodesics.FAIL:
            out.failed.append(f"negative control verdict {verdict.overall}, expected fail")
        _check_verdict_brackets(out, curve, verdict, "ball_distance", "ball_metric")
        return out

    return Op("verdict/ball-segment-control", call, check)


class ModelDomains:
    """Closed-form domains: distance and metric brackets and checker verdicts."""

    name = "model-domains"
    imports = "koblab"
    min_cycles = 8
    nominal_cycle_s = 0.16

    def __init__(self, seed: int, count: int):
        self.domains = {
            "disc": (domains.unit_disc(), "polydisc_distance", "polydisc_metric"),
            "ball2": (domains.unit_ball(2), "ball_distance", "ball_metric"),
            "bidisc": (domains.unit_bidisc(), "polydisc_distance", "polydisc_metric"),
            "ball2xdisc": (
                domains.ProductDomain((domains.unit_ball(2), domains.unit_disc())),
                "ball_x_disc_distance",
                "ball_x_disc_metric",
            ),
        }
        rng = _rng(seed, "model-domains")
        self.pair_shapes = {
            name: ShapeLattice(rng, dims, 2 * count) for name, dims in PAIR_SHAPE_DIMS.items()
        }
        self.cycles = [self._cycle(i, rng) for i in range(count)]

    def _cycle(self, i: int, rng) -> list[Op]:
        ops = []
        for name, (domain, dist_truth, metric_truth) in self.domains.items():
            for k in range(2):
                shape = self.pair_shapes[name][2 * i + k]
                z, w = _model_pair(name, shape, _haar_unitary(rng, 2))
                ops.append(
                    _distance_op(f"distance/{name}", domain, z, w, dist_truth, 10_000, 2 * i + k)
                )
            z = _model_point(rng, name)
            v = _unit_vector(rng, domain.dim)
            ops.append(_metric_op(f"metric/{name}", domain, z, v, metric_truth))
        ops.append(_checker_op(_geodesic_bidisc_chain(rng), i))
        ops.append(_control_op(_unit_vector(rng, 2), i))
        return ops


# ---------------------------------------------------------------------------
# generic-search and generic-certify


def sublevel_ball() -> domains.SublevelDomain:
    """{|z|^2 < 1} inside B(0, 1.2) with Lipschitz bound 4.8: the unit ball
    of C^2 seen only through membership and boundary-distance oracles."""
    return domains.SublevelDomain(
        field=psh.norm_squared(2),
        level=1.0,
        ambient=domains.Ball(np.zeros(2), 1.2),
        seed=np.zeros(2),
        lipschitz=4.8,
    )


def candidate_domain_c3() -> domains.SublevelDomain:
    """The cauchy-demo candidate domain for the norm2 field, from public API.

    {lift(|z|^2) < 1} over B(0, 3) x B(0, 1.1) in C^3: the unit ball of C^3,
    with the Lipschitz bound of the lifted field on the radius-4.1 ball.
    """
    lifted = psh.lift_quadratic_tail(psh.norm_squared(2), 3)
    ambient = domains.ProductDomain(
        (domains.Ball(np.zeros(2), 3.0), domains.Ball(np.zeros(1), 1.1))
    )
    seed_point = domains.slice_embed(ladder.DyadicLadder(1).point_complex(1), 3)
    return domains.SublevelDomain(
        field=lifted, level=1.0, ambient=ambient, seed=seed_point,
        lipschitz=lifted.lipschitz(3.0 + 1.1),
    )


class GenericSearch:
    """estimate_distance on the oracle-only unit ball at budget 20k."""

    name = "generic-search"
    imports = "koblab"
    min_cycles = 12
    nominal_cycle_s = 0.9

    def __init__(self, seed: int, count: int):
        domain = sublevel_ball()
        rng = _rng(seed, "generic-search")
        shapes = ShapeLattice(rng, 4, count)
        self.cycles = []
        for i in range(count):
            z, w = _pair_from_shape(shapes[i], _haar_unitary(rng, 2), GENERIC_SCALE)
            self.cycles.append(
                [_distance_op("distance/sublevel-ball", domain, z, w, "ball_distance", 20_000, i)]
            )


# Links use the slice disc shrunk to this share of its radius, so the
# covering certifier has clearance.  Endpoints lie in GENERIC_SCALE x the
# ball, so their parameters stay below GENERIC_SCALE / CHAIN_SHRINK = 0.94,
# inside the certified radius 1 - CERTIFY_MARGIN.
CHAIN_SHRINK = 0.85
CERTIFY_MARGIN = 1e-3


def _slice_link(p, q, shrink):
    """Link through p and q on the disc {p + zeta (q - p)} cut from the unit
    ball, shrunk by ``shrink``."""
    d = q - p
    nd2 = float(np.sum(np.abs(d) ** 2))
    s = complex(np.sum(p * np.conj(d)))
    zc = -s / nd2
    rc = math.sqrt((1.0 - float(np.sum(np.abs(p) ** 2)) + abs(s) ** 2 / nd2) / nd2)
    disc = kobayashi.AnalyticDisc(
        domains.slice_embed(p + zc * d, 3), domains.slice_embed(shrink * rc * d, 3)
    )
    return kobayashi.ChainLink(disc, (0 - zc) / (shrink * rc), (1 - zc) / (shrink * rc))


def _lifted_chain(p, q) -> kobayashi.DiscChain:
    """Two links p -> midpoint -> q on slices of B^2, zero-padded into C^3."""
    mid = 0.5 * (p + q)
    return kobayashi.DiscChain(
        links=(_slice_link(p, mid, CHAIN_SHRINK), _slice_link(mid, q, CHAIN_SHRINK))
    )


def _chain_op(domain, chain):
    def call():
        return kobayashi.chain_upper_bound(domain, chain, margin=CERTIFY_MARGIN, max_cells=20_000)

    def check(upper):
        out = Outcome()
        out.bracket("chain/c3", _truth("ball_distance", chain.start, chain.end), upper=upper)
        return out

    return Op("chain/c3", call, check)


def _cauchy_op(domain, lad):
    def call():
        return kobayashi.cauchy_table(domain, lad, n=3, depth=40, margin=CERTIFY_MARGIN)

    def check(table):
        import oracles

        out = Outcome()
        # U(nu) bounds the distance between consecutive ladder points; the
        # ladder discs are far from extremal in the ball, so the ratios say
        # nothing about tightness and stay out of the tightness metrics
        for row in table.rows:
            truth = oracles.ball_distance(
                oracles.ladder_point(row.nu, 3), oracles.ladder_point(row.nu + 1, 3)
            )
            out.bracket(f"cauchy U({row.nu})", truth, upper=row.upper, tightness=False)
        if len(table.rows) != 39:
            out.failed.append(f"cauchy table has {len(table.rows)} rows, expected 39")
        return out

    return Op("cauchy/c3", call, check)


class GenericCertify:
    """The covering certifier on given discs: metric brackets, a Cauchy table
    and a lifted disc chain."""

    name = "generic-certify"
    imports = "koblab"
    # six cycles: twelve long operations, so the median operation is one of
    # them and not a neighbour of the short Cauchy tables
    min_cycles = 6
    nominal_cycle_s = 4.0

    def __init__(self, seed: int, count: int):
        sublevel = sublevel_ball()
        c3 = candidate_domain_c3()
        lad = ladder.DyadicLadder(40)
        rng = _rng(seed, "generic-certify")
        metric_shapes = ShapeLattice(rng, 3, count)
        chain_shapes = ShapeLattice(rng, 4, count)
        self.cycles = []
        for i in range(count):
            z, v = _point_direction_from_shape(metric_shapes[i], _haar_unitary(rng, 2), GENERIC_SCALE)
            p, q = _pair_from_shape(chain_shapes[i], _haar_unitary(rng, 2), GENERIC_SCALE)
            self.cycles.append(
                [
                    _metric_op("metric/sublevel-ball", sublevel, z, v, "ball_metric"),
                    _chain_op(c3, _lifted_chain(p, q)),
                    _cauchy_op(c3, lad),
                ]
            )


# ---------------------------------------------------------------------------
# cli-cold


# (experiment, arguments, exit code, check statuses that differ from "pass")
CLI_COMMANDS = (
    ("verify-ladder", ["--N", "40"], 0, {}),
    ("cauchy-demo", ["--N", "40"], 0, {}),
    ("slice-check", ["--pairs", "20"], 0, {}),
    ("psh-verify", ["--field", '{"kind": "norm2", "dim": 2}'], 1, {"value-at-origin": "fail"}),
    ("visibility-demo", ["--curves", "50"], 0, {}),
    ("ball-calibration", ["--pairs", "100"], 0, {}),
)

# Every check each command reports today; a missing one is a failure.
CLI_CHECKS = {
    "verify-ladder": ("ladder-a", "ladder-b", "ladder-c", "chain-table"),
    "cauchy-demo": ("membership", "upper-vs-term", "tails-decreasing", "norms-decreasing"),
    "slice-check": ("slice-brackets", "contains-closed-form", "bracket-width"),
    "psh-verify": (
        "strict-psh", "gradient-nonvanishing", "value-at-origin",
        "below-one-on-segments", "properness-proxy",
    ),
    "visibility-demo": ("passing-curves", "epsilon-star-positive"),
    "ball-calibration": tuple(
        f"{check}-{name}"
        for name in ("disc", "ball2", "bidisc")
        for check in ("soundness", "bracket-width", "center-metric")
    ),
}


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


class CliCold:
    """The six README commands, each in a fresh interpreter."""

    name = "cli-cold"
    imports = "koblab.cli"
    # three repetitions of each command: report.json is compared across them
    min_cycles = 3
    nominal_cycle_s = 7.5

    def __init__(self, seed: int, count: int, root: Path, env: dict):
        self.seed = seed
        self.root = root
        self.env = env
        self.out_root = root / ".bench_out" / "cli"
        self.trace_dir = self.out_root / "trace"
        # the runner's tracer during the traced phase: each command then runs
        # under cli_child.py, which records spans inside the child
        self.tracer = None
        self.report_sha256: dict[str, str] = {}
        self._calls = 0
        self.cycles = [[self._op(*spec) for spec in CLI_COMMANDS]] * count
        shutil.rmtree(self.out_root, ignore_errors=True)

    def _op(self, experiment, args, exit_code, statuses) -> Op:
        def call():
            # a fresh directory per call: outputs are checked after the
            # timed phase, and a repetition must not overwrite them
            self._calls += 1
            out_dir = self.out_root / f"call{self._calls}"
            argv = [experiment, *args, "--seed", str(self.seed), "--out", str(out_dir), "--quiet"]
            proc = subprocess.run(
                [*self._launcher(), *argv], env=self.env, cwd=self.root,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=CLI_TIMEOUT_S,
            )
            return proc, out_dir

        def check(result) -> Outcome:
            proc, out_dir = result
            out = Outcome()
            if proc.returncode != exit_code:
                out.failed.append(
                    f"{experiment}: exit code {proc.returncode}, expected {exit_code}: "
                    f"{proc.stderr.strip()[-300:]}"
                )
                if proc.returncode == 2:
                    out.indeterminate = True
                return out
            raw = (out_dir / "report.json").read_bytes()
            digest = hashlib.sha256(raw).hexdigest()
            first = self.report_sha256.setdefault(experiment, digest)
            if digest != first:
                out.failed.append(f"{experiment}: report.json differs between repetitions")
            meta = json.loads((out_dir / "run_meta.json").read_text())
            out.run_s = float(meta["wall_time"])
            got = {c["name"]: c["status"] for c in json.loads(raw)["checks"]}
            for name in CLI_CHECKS[experiment]:
                if name not in got:
                    out.failed.append(f"{experiment}: check {name} missing")
            for name, status in got.items():
                want = statuses.get(name, "pass")
                if status != want:
                    out.failed.append(f"{experiment}: check {name} is {status}, expected {want}")
            if experiment == "verify-ladder":
                self._check_ladder_tails(out, out_dir)
            elif experiment == "cauchy-demo":
                self._check_cauchy(out, out_dir)
            return out

        return Op(f"cli/{experiment}", call, check)

    def _launcher(self) -> list[str]:
        if self.tracer is None:
            return [sys.executable, "-m", "koblab.cli"]
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        stem = self.trace_dir / f"call{self._calls}"
        child = Path(__file__).with_name("cli_child.py")
        return [sys.executable, str(child), f"{stem}.json", f"{stem}.jsonl", str(self.tracer.op_id), "--"]

    @staticmethod
    def _check_ladder_tails(out: Outcome, out_dir: Path):
        import oracles

        rows = _read_csv(out_dir / "chain_table.csv")
        if len(rows) != 40:
            out.failed.append(f"chain_table.csv has {len(rows)} rows, expected 40")
        for row in rows:
            nu = int(row["nu"])
            out.bracket(f"tail_bound({nu})", oracles.ladder_tail(nu), upper=float(row["tail_bound"]))

    @staticmethod
    def _check_cauchy(out: Outcome, out_dir: Path):
        import oracles

        for row in _read_csv(out_dir / "cauchy_table.csv"):
            nu = int(row["nu"])
            truth = oracles.polydisc_distance(
                oracles.ladder_point(nu, 2), oracles.ladder_point(nu + 1, 2)
            )
            out.bracket(f"cauchy U({nu})", truth, upper=float(row["U"]), tightness=False)


WORKLOADS = {w.name: w for w in (ModelDomains, GenericSearch, GenericCertify, CliCold)}


def cycle_count(name: str, seconds: float) -> int:
    """Cycles of one run: about ``seconds`` of work at the seed commit."""
    cls = WORKLOADS[name]
    return max(cls.min_cycles, round(seconds / cls.nominal_cycle_s))


def build(name: str, seed: int, seconds: float, root: Path, env: dict):
    count = cycle_count(name, seconds)
    if name == CliCold.name:
        return CliCold(seed, count, root, env)
    return WORKLOADS[name](seed, count)
