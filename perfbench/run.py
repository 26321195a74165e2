"""koblab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: model-domains, generic-search, generic-certify, cli-cold (see
workloads.py and BENCHMARK.json for why each exists).

The untraced run (--trace 0) does the number of workload cycles that takes
about S seconds at the seed commit, checks every answer against the
50-digit oracles in oracles.py and reports the end-to-end metrics.  The
traced run (--trace 1) does half as many cycles untraced, then the same
cycles again with spans around koblab's public functions (tracing.py), and
reports the per-layer metrics per cycle plus the tracing overhead.

Stdout carries a readable report and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  The full record (machine,
versions, report-only metrics, failures) goes to
.bench_out/result-<workload>-trace<0|1>.json and the spans of a traced run
to .bench_out/spans-<workload>.jsonl.  A harness error exits non-zero
without a JSON line.
"""

import os

# one thread everywhere, set before numpy loads; children inherit it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10
CLI_EXPERIMENTS = (
    "verify-ladder", "cauchy-demo", "slice-check", "psh-verify", "visibility-demo",
    "ball-calibration",
)


class HarnessError(RuntimeError):
    pass


@dataclass
class Record:
    kind: str
    seconds: float
    outcome: Any


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def check(op, result, error):
    import workloads

    if error is not None:
        return workloads.Outcome(failed=[f"{op.kind}: {error.strip().splitlines()[-1]}"])
    try:
        return op.check(result)
    except Exception:  # malformed program output fails the operation
        return workloads.Outcome(failed=[f"{op.kind}: {traceback.format_exc(limit=3)}"])


def run_cycles(workload, speedometer, cycles, tracer=None):
    """The first ``cycles`` cycles of the workload.

    Reference-kernel samples between operations stay outside the timed
    time.  Each cycle's answers are checked right after the cycle, also
    outside it, so results never pile up in memory and slow the collector
    down as the run goes on.  Returns the records and each cycle's time,
    both raw.
    """
    records: list[Record] = []
    cycle_s: list[float] = []
    for cycle in workload.cycles[:cycles]:
        results = []
        for op in cycle:
            call = op.call
            if tracer is not None:
                tracer.op_id = len(records) + len(results)
                call = tracer.wrap(f"op.{op.kind}", call)
            t0 = time.perf_counter()
            try:
                result, error = call(), None
            except Exception:  # a program error fails the operation, not the run
                result, error = None, traceback.format_exc(limit=3)
            results.append((op, time.perf_counter() - t0, result, error))
            speedometer.account(results[-1][1])
        cycle_s.append(sum(seconds for _, seconds, _, _ in results))
        for op, seconds, result, error in results:
            records.append(Record(op.kind, seconds, check(op, result, error)))
    return records, cycle_s


def measure_setup(args, env) -> float:
    """Fresh interpreter to inputs built, timed from outside the child."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise HarnessError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def setup_probe(args) -> int:
    import workloads

    workload = workloads.build(args.workload, args.seed, args.seconds, ROOT, child_env())
    importlib.import_module(workload.imports)
    print("ready", flush=True)
    return 0


def _import_seconds(lines: list[str], prefix: str) -> float:
    """Cumulative import time of the outermost modules named ``prefix``."""
    entries = []
    for line in lines:
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        indent = len(name) - len(name.lstrip())
        entries.append((indent, name.strip(), int(cumulative)))
    total = 0
    stack: list[tuple[int, bool]] = []
    # importtime prints children before parents; reversed, parents come first
    for indent, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        matches = name == prefix or name.startswith(prefix + ".")
        if matches and not any(flag for _, flag in stack):
            total += cumulative
        stack.append((indent, matches))
    return total * 1e-6


def measure_imports(env) -> tuple[float, float]:
    """(import koblab.cli, of which scipy) in seconds, medians of fresh runs."""
    cli, scipy = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import koblab.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise HarnessError(f"import koblab.cli failed: {proc.stderr[-500:]}")
        lines = proc.stderr.splitlines()
        cli.append(_import_seconds(lines, "koblab"))
        scipy.append(_import_seconds(lines, "scipy"))
    return statistics.median(cli), statistics.median(scipy)


def machine_record(koblab_module) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "koblab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "koblab_module": koblab_module,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def quantile_tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def summarize_outcomes(records) -> dict:
    outcomes = [r.outcome for r in records]
    uppers = [x for o in outcomes for x in o.upper_ratios]
    lowers = [x for o in outcomes for x in o.lower_ratios]
    attempted = len(outcomes)
    return {
        "attempted": attempted,
        "failed": sum(1 for o in outcomes if o.failed),
        "unsound_ops": sum(1 for o in outcomes if o.unsound),
        "indeterminate_ops": sum(1 for o in outcomes if o.indeterminate),
        "upper_over_truth_p50": statistics.median(uppers) if uppers else None,
        "upper_over_truth_max": max(uppers) if uppers else None,
        "lower_over_truth_min": min(lowers) if lowers else None,
        "failures": [f for o in outcomes for f in o.failed][:20],
    }


def untraced(args, workload, setup_s, speedometer) -> tuple[dict, dict]:
    records, cycle_s = run_cycles(workload, speedometer, len(workload.cycles))
    summary = summarize_outcomes(records)
    n = summary["attempted"]
    times = [r.seconds for r in records]
    tail, tail_pct, tail_n = quantile_tail(times)
    f = speedometer.factor
    metrics = {
        "setup_s": (f * statistics.median(setup_s), "s"),
        "wall_s": (f * statistics.mean(cycle_s), "s"),
        "ops_per_s": (n / (f * sum(cycle_s)), "1/s"),
        "op_p50_ms": (f * 1e3 * statistics.median(times), "ms"),
        "op_tail_ms": (f * 1e3 * tail, "ms"),
        "upper_over_truth_p50": (summary["upper_over_truth_p50"], "ratio"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    report_only = {
        "upper_over_truth_max": (summary["upper_over_truth_max"], "ratio"),
        "lower_over_truth_min": (summary["lower_over_truth_min"], "ratio"),
        "indeterminate_share": (summary["indeterminate_ops"] / n, "share"),
        "unsound_share": (summary["unsound_ops"] / n, "share"),
        "op_tail_percentile": (tail_pct, "%"),
        "op_tail_samples": (tail_n, "count"),
        "cycles": (len(cycle_s), "count"),
        "speed_factor": (f, "ratio"),
        "raw_setup_s": (statistics.median(setup_s), "s"),
        "raw_wall_s": (statistics.mean(cycle_s), "s"),
        "raw_ops_per_s": (n / sum(cycle_s), "1/s"),
        "raw_op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "raw_op_tail_ms": (1e3 * tail, "ms"),
    }
    details = {"summary": summary, "report_only": report_only}
    if workload.name == "cli-cold":
        details["report_sha256"] = workload.report_sha256
    return metrics, details


def traced(args, workload, env) -> tuple[dict, dict]:
    import tracing

    speed_a, speed_b = speed.Speedometer(), speed.Speedometer()
    # half the budget untraced, then the same cycles traced
    cycles = max(1, round(args.seconds / 2.0 / workload.nominal_cycle_s))
    records_a, cycle_a = run_cycles(workload, speed_a, cycles)
    tracer = tracing.Tracer()
    tracer.install()
    if workload.name == "cli-cold":
        workload.tracer = tracer
    records_b, cycle_b = run_cycles(workload, speed_b, cycles, tracer=tracer)
    workload.tracer = None

    summary = tracer.summary()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}.jsonl"
    with spans_path.open("w") as handle:
        tracer.write_spans(handle, os.getpid())
        if workload.name == "cli-cold":
            for part in sorted(workload.trace_dir.glob("*.json")):
                tracing.merge(summary, json.loads(part.read_text()))
                handle.write(part.with_suffix(".jsonl").read_text())
    # times read at reference speed, like the end-to-end metrics
    metrics = {
        name: (value * speed_b.factor if unit in ("s", "s/cycle") else value, unit)
        for name, (value, unit) in tracing.per_layer(summary, cycles).items()
    }
    import_s, scipy_s = measure_imports(env)
    metrics["cli.import_s"] = (speed_a.factor * import_s, "s")
    metrics["cli.import_scipy_s"] = (speed_a.factor * scipy_s, "s")
    for experiment in CLI_EXPERIMENTS:
        kind = f"cli/{experiment}"
        walls = [r.seconds for r in records_a if r.kind == kind]
        runs = [r.outcome.run_s for r in records_a if r.kind == kind and r.outcome.run_s is not None]
        metrics[f"cli.{experiment}.wall_s"] = (speed_a.factor * statistics.mean(walls) if walls else 0.0, "s")
        metrics[f"cli.{experiment}.run_s"] = (speed_a.factor * statistics.mean(runs) if runs else 0.0, "s")
    traced_s, untraced_s = speed_b.factor * sum(cycle_b), speed_a.factor * sum(cycle_a)
    metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")

    summary = summarize_outcomes(records_a + records_b)
    details = {
        "summary": summary,
        "traced_cycles": cycles,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }
    return metrics, details


def declared_order(metrics: dict, section: str) -> dict:
    """The metrics in BENCHMARK.json order; any disagreement is a harness error."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    names = {m["name"] for m in declared}
    if names != set(metrics):
        raise HarnessError(
            f"metrics differ from BENCHMARK.json {section}: {sorted(names ^ set(metrics))}"
        )
    for m in declared:
        if metrics[m["name"]][1] != m["unit"]:
            raise HarnessError(f"{m['name']}: unit {metrics[m['name']][1]}, declared {m['unit']}")
    return {m["name"]: metrics[m["name"]] for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "koblab" / "__init__.py").is_file():
        print(f"error: no koblab source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    import koblab
    import workloads

    module = Path(koblab.__file__).resolve()
    if not module.is_relative_to(SRC.resolve()):
        raise HarnessError(f"koblab imported from {module}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = child_env()
    if args.trace:
        workload = workloads.build(args.workload, args.seed, args.seconds, ROOT, env)
        metrics, details = traced(args, workload, env)
    else:
        speedometer = speed.Speedometer()
        setup_s = []
        for _ in range(SETUP_REPEATS):
            setup_s.append(measure_setup(args, env))
            speedometer.account(setup_s[-1])
        workload = workloads.build(args.workload, args.seed, args.seconds, ROOT, env)
        metrics, details = untraced(args, workload, setup_s, speedometer)

    metrics = declared_order(metrics, "per_layer" if args.trace else "end_to_end")
    summary = details["summary"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(str(module.relative_to(ROOT.resolve()))),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **{k: v for k, v in details.items() if k != "report_only"},
        "report_only": {
            k: {"value": v, "unit": u} for k, (v, u) in details.get("report_only", {}).items()
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"# {args.workload} seed={args.seed} trace={args.trace} machine={json.dumps(record['machine'])}")
    for name, (value, unit) in {**metrics, **details.get("report_only", {})}.items():
        print(f"{args.workload:16s} {name:52s} {value} {unit}")
    for failure in summary["failures"]:
        print(f"FAILED: {failure}")
    if summary["unsound_ops"]:
        print(f"note: {summary['unsound_ops']} of {summary['attempted']} operations have a bound "
              "strictly on the wrong side of the 50-digit truth")
    for name, (value, _) in metrics.items():
        if value is None:
            raise HarnessError(f"metric {name} has no value on {args.workload}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
