"""Batch experiment runner with reproducible CSV/JSON outputs.

Exit codes: 0 all checks pass, 1 a certified failure occurred, 2 something
stayed indeterminate (budget exhausted, no passing curves), 3 usage or I/O
error.  All randomness flows from the config seed through counter-based
generators keyed by (seed, experiment, task index), so results do not depend
on scheduling; report.json and the CSVs are byte-identical across runs on
the same platform (volatile data such as wall time goes to run_meta.json).
"""

from __future__ import annotations

import argparse
import ast
import cmath
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .domains import (
    Ball,
    ProductDomain,
    SublevelDomain,
    slice_embed,
    unit_ball,
    unit_bidisc,
    unit_disc,
)
from .geodesics import visibility_experiment
from .kobayashi import (
    CauchyMembershipError,
    EstimationError,
    ball_distance,
    cauchy_table,
    estimate_distance,
    infinitesimal_bounds,
    slice_identity_check,
)
from .ladder import DyadicLadder, base3_mutated_ladder, chain_term_table, verify_ladder
from .poincare import poincare_distance
from .psh import ScalarField, lift_quadratic_tail, norm_squared, signature_quadratic, verify_defining_candidate

EXPERIMENTS = (
    "verify-ladder",
    "cauchy-demo",
    "slice-check",
    "psh-verify",
    "visibility-demo",
    "ball-calibration",
)

PASS, FAIL, INDET = "pass", "fail", "indeterminate"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    depth: int = 40
    margin: float = 1e-3
    seed: int = 0
    budget: int = 10_000
    pairs: int = 20
    dimension: int = 3
    r_nbhd: float = 0.05
    n_curves: int = 50
    lam: float = 1.0
    kappa: float = 0.2
    field: dict | None = None
    fault: str | None = None


# JSON key <-> dataclass attribute
_KEYS = {
    "experiment": "experiment",
    "N": "depth",
    "margin": "margin",
    "seed": "seed",
    "budget": "budget",
    "pairs": "pairs",
    "dim": "dimension",
    "r_nbhd": "r_nbhd",
    "n_curves": "n_curves",
    "lambda": "lam",
    "kappa": "kappa",
    "field": "field",
    "fault": "fault",
}
_ATTRS = {v: k for k, v in _KEYS.items()}
_FAULTS = (None, "ladder-base3")


def parse_config(doc) -> ExperimentConfig:
    """Validate a JSON config document and fill defaults.

    Unknown keys are rejected with the offending path named; every numeric
    parameter must be positive (seed and budget may be zero).
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise ConfigError("config must be a JSON object")
    values = {}
    for key, raw in doc.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key at $.{key}")
        values[_KEYS[key]] = raw
    if "experiment" not in values:
        raise ConfigError("missing required key at $.experiment")
    if values["experiment"] not in EXPERIMENTS:
        raise ConfigError(
            f"bad value at $.experiment: {values['experiment']!r} is not one of {list(EXPERIMENTS)}"
        )
    cfg = ExperimentConfig(**values)
    for attr in ("depth", "pairs", "n_curves", "dimension"):
        val = getattr(cfg, attr)
        if not isinstance(val, int) or val < 1:
            raise ConfigError(f"bad value at $.{_ATTRS[attr]}: need a positive integer")
    for attr in ("margin", "r_nbhd", "kappa", "lam"):
        val = getattr(cfg, attr)
        if not isinstance(val, (int, float)) or not math.isfinite(val) or val < 0:
            raise ConfigError(f"bad value at $.{_ATTRS[attr]}: need a finite nonnegative number")
    if cfg.lam < 1.0:
        raise ConfigError("bad value at $.lambda: need lambda >= 1")
    if not isinstance(cfg.seed, int) or cfg.seed < 0:
        raise ConfigError("bad value at $.seed: need a nonnegative integer")
    if not isinstance(cfg.budget, int) or cfg.budget < 0:
        raise ConfigError("bad value at $.budget: need a nonnegative integer")
    if not 0 <= cfg.margin < 1:
        raise ConfigError("bad value at $.margin: need 0 <= margin < 1")
    if cfg.fault not in _FAULTS:
        raise ConfigError(f"bad value at $.fault: {cfg.fault!r} is not one of {list(_FAULTS)}")
    if cfg.field is not None and not isinstance(cfg.field, Mapping):
        raise ConfigError("bad value at $.field: need an object")
    return cfg


def emit_config(cfg: ExperimentConfig) -> dict:
    """Inverse of parse_config: parse_config(emit_config(c)) == c."""
    out = {}
    for attr, value in asdict(cfg).items():
        out[_ATTRS[attr]] = value
    return out


def experiment_rng(seed: int, experiment: str, task: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, experiment, task index)."""
    digest = hashlib.sha256(f"{seed}:{experiment}:{task}".encode()).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Field specs and the expression mini-language


_ALLOWED_CALLS = ("conj", "abs2", "log", "exp")


def parse_field_expression(expr: str, dim: int) -> ScalarField:
    """Compile an expression over z1..zn, conj, abs2, log, exp into a field.

    Arithmetic is complex; the field value is the real part (an expression
    with a material imaginary part is a modelling error caught at evaluation
    time).
    """
    names = {f"z{j + 1}": j for j in range(dim)}
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad field expression: {exc}") from exc

    def check(node):
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
        ):
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            check(node.operand)
        elif isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_CALLS):
                raise ConfigError(f"bad field expression: call to {ast.dump(node.func)}")
            if len(node.args) != 1 or node.keywords:
                raise ConfigError("bad field expression: calls take one argument")
            check(node.args[0])
        elif isinstance(node, ast.Name):
            if node.id not in names:
                raise ConfigError(f"bad field expression: unknown name {node.id!r}")
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float, complex)):
                raise ConfigError("bad field expression: non-numeric constant")
        else:
            raise ConfigError(f"bad field expression: {type(node).__name__} not allowed")

    check(tree)
    code = compile(tree, "<field>", "eval")
    env = {
        "conj": lambda x: complex(x).conjugate(),
        "abs2": lambda x: abs(complex(x)) ** 2,
        "log": cmath.log,
        "exp": cmath.exp,
    }

    def evaluate(z):
        local = dict(env)
        for name, j in names.items():
            local[name] = complex(z[j])
        val = complex(eval(code, {"__builtins__": {}}, local))
        if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
            raise ConfigError(f"field expression is not real-valued at {z!r}")
        return val.real

    return ScalarField(dim=dim, evaluate=evaluate, name=f"expr[{expr}]")


def field_from_spec(spec: Mapping) -> ScalarField:
    """Build a scalar field from its JSON description."""
    kind = spec.get("kind")
    if kind == "norm2":
        return norm_squared(int(spec.get("dim", 2)))
    if kind == "quadratic":
        return signature_quadratic([float(c) for c in spec["coeffs"]])
    if kind == "lift":
        base = field_from_spec(spec["base"])
        return lift_quadratic_tail(base, int(spec["dim"]))
    if kind == "custom":
        return parse_field_expression(str(spec["expr"]), int(spec.get("dim", 2)))
    raise ConfigError(f"unknown field kind {kind!r}")


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | indeterminate
    detail: str = ""


@dataclass(frozen=True)
class RunReport:
    experiment: str
    checks: tuple[CheckResult, ...]
    artifacts: dict  # name -> {"columns": [...], "rows": [[...], ...]}
    config: ExperimentConfig
    wall_time: float

    @property
    def exit_code(self) -> int:
        statuses = [c.status for c in self.checks]
        if FAIL in statuses:
            return 1
        if INDET in statuses:
            return 2
        return 0

    def to_json_dict(self) -> dict:
        cfg = emit_config(self.config)
        blob = json.dumps(cfg, sort_keys=True).encode()
        return {
            "experiment": self.experiment,
            "version": __version__,
            "config": cfg,
            "config_sha256": hashlib.sha256(blob).hexdigest(),
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
            "artifact_files": [f"{name}.csv" for name in sorted(self.artifacts)],
            "artifacts": self.artifacts,
        }


def emit_plot_data(report: RunReport, out_dir) -> list[Path]:
    """Write each tabular artifact as a CSV with 17-significant-digit floats."""
    if not report.artifacts:
        raise ValueError("no tabular artifacts")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in sorted(report.artifacts):
        table = report.artifacts[name]
        path = out_dir / f"{name}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(table["columns"])
            for row in table["rows"]:
                writer.writerow(
                    [f"{v:.17g}" if isinstance(v, float) else v for v in row]
                )
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Experiments


def _run_verify_ladder(cfg: ExperimentConfig):
    ladder = (
        base3_mutated_ladder(cfg.depth)
        if cfg.fault == "ladder-base3"
        else DyadicLadder(cfg.depth)
    )
    report = verify_ladder(ladder)
    checks = []
    for item in ("a", "b", "c"):
        ok = report.item_passed(item)
        witnesses = "; ".join(
            f"{c.name}: {c.witness}" for c in report.checks if c.item == item and not c.passed
        )
        checks.append(
            CheckResult(f"ladder-{item}", PASS if ok else FAIL, witnesses)
        )
    artifacts = {}
    try:
        table = chain_term_table(ladder)
    except ValueError as exc:
        checks.append(CheckResult("chain-table", FAIL, str(exc)))
    else:
        checks.append(
            CheckResult("chain-table", PASS, f"ratio certificate {table.ratio}")
        )
        artifacts["chain_table"] = {
            "columns": ["nu", "term", "partial_sum", "tail_bound"],
            "rows": [
                [int(table.nus[i]), float(table.terms[i]),
                 float(table.partial_sums[i]), float(table.tail_bounds[i])]
                for i in range(table.nus.size)
            ],
        }
    return checks, artifacts


def _build_candidate_domain(cfg: ExperimentConfig, field: ScalarField, ladder: DyadicLadder):
    """Sublevel domain {lift(u) < 1} over the radius-3 ball, conservative tail.

    The enclosing radius for the tail coordinates is an estimate from sampled
    field values (flagged in the check detail), kept conservative by adding
    the whole sublevel budget.  The domain is None when the field has no
    analytic Lipschitz bound: a sublevel domain needs a certified one.
    """
    n = cfg.dimension
    lifted = lift_quadratic_tail(field, n)
    rng = experiment_rng(cfg.seed, cfg.experiment, task=90_000)
    sampled = []
    for _ in range(64):
        vec = rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        radius = 3.0 * rng.uniform() ** 0.25
        sampled.append(field(radius * (vec[:2] + 1j * vec[2:])))
    tail_radius = math.sqrt(max(1.0 - min(0.0, min(sampled)), 1.0)) + 0.1
    ambient = ProductDomain(
        (Ball(np.zeros(2), 3.0), Ball(np.zeros(n - 2), tail_radius))
    )
    if lifted.lipschitz is None:
        return None, tail_radius
    seed_point = slice_embed(ladder.point_complex(1), n)
    domain = SublevelDomain(
        field=lifted, level=1.0, ambient=ambient, seed=seed_point,
        lipschitz=lifted.lipschitz(3.0 + tail_radius),
    )
    return domain, tail_radius


def _run_cauchy_demo(cfg: ExperimentConfig):
    ladder = DyadicLadder(cfg.depth)
    checks = []
    artifacts = {}
    if cfg.field is not None:
        field = field_from_spec(cfg.field)
        candidate = verify_defining_candidate(field, ladder)
        if not candidate.accepted:
            names = ", ".join(candidate.rejected_checks)
            checks.append(CheckResult("u-candidate", FAIL, f"rejected: {names}"))
            return checks, artifacts
        checks.append(CheckResult("u-candidate", PASS, ""))
        domain, tail_radius = _build_candidate_domain(cfg, field, ladder)
        n = cfg.dimension
        checks.append(
            CheckResult(
                "enclosing-radius",
                INDET,
                f"tail radius {tail_radius:.3g} is a sampled estimate, not a certificate",
            )
        )
        if domain is None:
            detail = f"{field.name} has no analytic Lipschitz bound"
            checks.append(CheckResult("lipschitz", INDET, detail))
            return checks, artifacts
    else:
        domain, n = unit_bidisc(), 2

    try:
        table = cauchy_table(domain, ladder, n=n, depth=cfg.depth, margin=cfg.margin)
    except CauchyMembershipError as exc:
        checks.append(CheckResult("membership", FAIL, f"nu={exc.nu}: {exc}"))
        return checks, artifacts
    checks.append(CheckResult("membership", PASS, f"{cfg.depth} points certified"))

    terms = chain_term_table(ladder)
    bad = [
        row.nu
        for row in table.rows
        if row.nu <= 30 and row.upper > terms.term(row.nu) * (1.0 + 2.0 * cfg.margin)
    ]
    checks.append(
        CheckResult(
            "upper-vs-term",
            FAIL if bad else PASS,
            f"violations at nu={bad}" if bad else "U(nu) <= term(nu) (1 + 2 margin)",
        )
    )
    tails = [row.tail for row in table.rows]
    norms = [row.norm for row in table.rows]
    ok_tails = all(a > b for a, b in zip(tails, tails[1:])) and tails[-1] > 0
    ok_norms = all(a > b for a, b in zip(norms, norms[1:]))
    checks.append(CheckResult("tails-decreasing", PASS if ok_tails else FAIL, ""))
    checks.append(CheckResult("norms-decreasing", PASS if ok_norms else FAIL, ""))
    artifacts["cauchy_table"] = {
        "columns": ["nu", "U", "T", "norm"],
        "rows": [[row.nu, row.upper, row.tail, row.norm] for row in table.rows],
    }
    return checks, artifacts


def _run_slice_check(cfg: ExperimentConfig):
    base, total = unit_disc(), unit_bidisc()
    overlap_ok, contain_ok, width_ok = True, True, True
    indeterminate = False
    rows = []
    for i in range(cfg.pairs):
        rng = experiment_rng(cfg.seed, cfg.experiment, i)
        z = 0.95 * _disc_sample(rng)
        w = 0.95 * _disc_sample(rng)
        if z == w:
            continue
        oracle = poincare_distance(z, w)
        report = slice_identity_check(
            base, total, [z], [w], budget=cfg.budget, margin=cfg.margin, seed=cfg.seed
        )
        eb, et = report.base_estimate, report.total_estimate
        if eb.upper is None or et.upper is None:
            indeterminate = True
            rows.append([i, oracle, eb.lower, math.nan, et.lower, math.nan])
            continue
        rows.append([i, oracle, eb.lower, eb.upper, et.lower, et.upper])
        if not report.passed:
            overlap_ok = False
        lo, hi = report.intersection if report.intersection else (math.inf, -math.inf)
        if not (lo - 1e-12 <= oracle <= hi + 1e-12):
            contain_ok = False
        if oracle <= 2.0:
            for est in (eb, et):
                if est.width > 0.01 * max(oracle, 1e-12):
                    width_ok = False
    if indeterminate:
        checks = [CheckResult("slice-brackets", INDET, "budget exhausted on some pair")]
    else:
        checks = [
            CheckResult("slice-brackets", PASS if overlap_ok else FAIL, ""),
            CheckResult("contains-closed-form", PASS if contain_ok else FAIL, ""),
            CheckResult("bracket-width", PASS if width_ok else FAIL, "<= 1% for p <= 2"),
        ]
    artifacts = {
        "slice_pairs": {
            "columns": ["pair", "oracle", "base_lower", "base_upper", "total_lower", "total_upper"],
            "rows": rows,
        }
    }
    return checks, artifacts


def _disc_sample(rng: np.random.Generator) -> complex:
    radius = math.sqrt(rng.uniform())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return radius * complex(math.cos(angle), math.sin(angle))


def _run_psh_verify(cfg: ExperimentConfig):
    if cfg.field is None:
        raise ConfigError("psh-verify requires $.field")
    field = field_from_spec(cfg.field)
    ladder = DyadicLadder(max(cfg.depth, 20))
    report = verify_defining_candidate(field, ladder)
    checks = [
        CheckResult(c.name, PASS if c.passed else FAIL,
                    f"value {c.value:.6g} vs threshold {c.threshold:.6g} ({c.samples} samples)")
        for c in report.checks
    ]
    artifacts = {
        "candidate_checks": {
            "columns": ["name", "value", "threshold", "passed", "samples"],
            "rows": [
                [c.name, float(c.value), float(c.threshold), int(c.passed), c.samples]
                for c in report.checks
            ],
        }
    }
    return checks, artifacts


def _run_visibility_demo(cfg: ExperimentConfig):
    domain = unit_ball(2)
    report = visibility_experiment(
        domain,
        [1.0, 0.0],
        [-1.0, 0.0],
        r_nbhd=cfg.r_nbhd,
        lam=cfg.lam,
        kappa=cfg.kappa,
        n_curves=cfg.n_curves,
        seed=cfg.seed,
        budget=cfg.budget,
        margin=cfg.margin,
    )
    eps = report.epsilon_star
    if report.passing == 0:
        checks = [CheckResult("passing-curves", INDET, "no curve passed the checker")]
    else:
        checks = [
            CheckResult("passing-curves", PASS, f"{report.passing} of {cfg.n_curves}"),
            CheckResult(
                "epsilon-star-positive",
                PASS if eps and eps > 0 else INDET,
                f"epsilon_star = {eps}",
            ),
        ]
    artifacts = {
        "visibility": {
            "columns": ["curve", "max_delta"],
            "rows": [
                [row.index, row.max_delta if row.max_delta is not None else math.nan]
                for row in report.rows
            ],
        }
    }
    return checks, artifacts


def _polydisc_oracle(z, w):
    return max(poincare_distance(a, b) for a, b in zip(z, w))


def _run_ball_calibration(cfg: ExperimentConfig):
    domains = [
        ("disc", unit_disc(), lambda z, w: poincare_distance(z[0], w[0])),
        ("ball2", unit_ball(2), lambda z, w: ball_distance(np.zeros(2), 1.0, z, w)),
        ("bidisc", unit_bidisc(), _polydisc_oracle),
    ]
    checks = []
    rows = []
    indeterminate = False
    for d_idx, (name, domain, oracle_fn) in enumerate(domains):
        violations = 0
        worst_width = 0.0
        for i in range(cfg.pairs):
            rng = experiment_rng(cfg.seed, cfg.experiment, d_idx * 100_000 + i)
            z = 0.95 * np.array([_disc_sample(rng) for _ in range(domain.dim)])
            w = 0.95 * np.array([_disc_sample(rng) for _ in range(domain.dim)])
            if name == "ball2":
                z, w = z / math.sqrt(2), w / math.sqrt(2)
            if np.array_equal(z, w):
                continue
            oracle = oracle_fn(z, w)
            est = estimate_distance(domain, z, w, budget=cfg.budget, margin=cfg.margin)
            if est.upper is None:
                indeterminate = True
                continue
            rows.append([name, i, oracle, est.lower, est.upper])
            if not (est.lower <= oracle + 1e-12 and oracle <= est.upper + 1e-12):
                violations += 1
            if oracle <= 2.0:
                worst_width = max(worst_width, est.width / max(oracle, 1e-12))
        checks.append(
            CheckResult(
                f"soundness-{name}",
                FAIL if violations else PASS,
                f"{violations} violations over {cfg.pairs} pairs",
            )
        )
        checks.append(
            CheckResult(
                f"bracket-width-{name}",
                PASS if worst_width <= 0.01 else FAIL,
                f"worst relative width {worst_width:.3e}",
            )
        )
        metric = infinitesimal_bounds(domain, np.zeros(domain.dim), np.eye(domain.dim)[0])
        center_ok = abs(metric.upper - 1.0) <= 1e-6 and abs(metric.lower - 1.0) <= 1e-6
        checks.append(
            CheckResult(
                f"center-metric-{name}",
                PASS if center_ok else FAIL,
                f"bracket [{metric.lower:.9f}, {metric.upper:.9f}]",
            )
        )
    if indeterminate:
        checks.append(CheckResult("budget", INDET, "some pairs exhausted the budget"))
    artifacts = {
        "calibration": {
            "columns": ["domain", "pair", "oracle", "lower", "upper"],
            "rows": rows,
        }
    }
    return checks, artifacts


_RUNNERS = {
    "verify-ladder": _run_verify_ladder,
    "cauchy-demo": _run_cauchy_demo,
    "slice-check": _run_slice_check,
    "psh-verify": _run_psh_verify,
    "visibility-demo": _run_visibility_demo,
    "ball-calibration": _run_ball_calibration,
}


def run(cfg: ExperimentConfig, out_dir=None, quiet: bool = False) -> RunReport:
    """Execute an experiment; write report.json, run_meta.json, and CSVs."""
    start = time.perf_counter()
    checks, artifacts = _RUNNERS[cfg.experiment](cfg)
    wall = time.perf_counter() - start
    report = RunReport(
        experiment=cfg.experiment,
        checks=tuple(checks),
        artifacts=artifacts,
        config=cfg,
        wall_time=wall,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(
            json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        )
        (out_dir / "run_meta.json").write_text(
            json.dumps({"wall_time": wall, "experiment": cfg.experiment}) + "\n"
        )
        if report.artifacts:
            emit_plot_data(report, out_dir)
    if not quiet:
        for check in report.checks:
            line = f"{check.status.upper():>13}  {check.name}"
            if check.detail:
                line += f"  ({check.detail})"
            print(line)
    return report


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(3)


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", type=str, default=None, help="JSON config file")
    sub.add_argument("--out", type=str, default=None, help="output directory")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--budget", type=int, default=None)
    sub.add_argument("--margin", type=float, default=None)
    sub.add_argument("--quiet", action="store_true")


def _load_field_arg(value: str) -> dict:
    path = Path(value)
    text = path.read_text() if path.exists() else value
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad field spec: {exc}") from exc


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(prog="koblab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"koblab {__version__}")
    subs = parser.add_subparsers(dest="experiment", required=True)

    sp = subs.add_parser("verify-ladder", parents=[], help="exact ladder identities")
    sp.add_argument("--N", type=int, default=None, dest="depth")
    sp.add_argument("--fault", type=str, default=None, choices=["ladder-base3"])
    _add_common(sp)

    sp = subs.add_parser("cauchy-demo", help="Cauchy table: summable steps, norms to 0")
    sp.add_argument("--N", type=int, default=None, dest="depth")
    sp.add_argument("--dim", type=int, default=None, dest="dimension")
    sp.add_argument("--field", type=str, default=None, help="candidate field spec (JSON or path)")
    _add_common(sp)

    sp = subs.add_parser("slice-check", help="slice distance identity brackets")
    sp.add_argument("--pairs", type=int, default=None)
    _add_common(sp)

    sp = subs.add_parser("psh-verify", help="defining-function candidate suite")
    sp.add_argument("--field", type=str, required=True, help="field spec (JSON or path)")
    sp.add_argument("--N", type=int, default=None, dest="depth")
    _add_common(sp)

    sp = subs.add_parser("visibility-demo", help="visibility sampling on the ball")
    sp.add_argument("--r-nbhd", type=float, default=None, dest="r_nbhd")
    sp.add_argument("--curves", type=int, default=None, dest="n_curves")
    sp.add_argument("--lambda", type=float, default=None, dest="lam")
    sp.add_argument("--kappa", type=float, default=None)
    _add_common(sp)

    sp = subs.add_parser("ball-calibration", help="estimator calibration on model domains")
    sp.add_argument("--pairs", type=int, default=None)
    _add_common(sp)

    args = parser.parse_args(argv)

    try:
        doc: dict = {}
        if args.config:
            doc = json.loads(Path(args.config).read_text())
            if not isinstance(doc, dict):
                raise ConfigError("config must be a JSON object")
        doc.setdefault("experiment", args.experiment)
        if doc["experiment"] != args.experiment:
            raise ConfigError(
                f"config experiment {doc['experiment']!r} does not match subcommand {args.experiment!r}"
            )
        # every flag's dest is its ExperimentConfig attribute
        for attr, key in _ATTRS.items():
            value = getattr(args, attr, None)
            if attr not in ("experiment", "field") and value is not None:
                doc[key] = value
        if getattr(args, "field", None):
            doc["field"] = _load_field_arg(args.field)
        cfg = parse_config(doc)
        report = run(cfg, out_dir=args.out, quiet=args.quiet)
        return report.exit_code
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EstimationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
