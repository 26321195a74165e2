"""Spans around koblab's public functions, installed from outside the package.

``Tracer.install`` replaces each listed function with a wrapper in every
koblab module that holds it, so names re-imported elsewhere (for example
``koblab.geodesics.estimate_distance`` or ``koblab.cli.cauchy_table``) are
traced too, and replaces the listed oracle methods on their classes.  Only
the traced run installs it; untraced runs call koblab unwrapped.

Each span is (name, start, end, parent, operation id); spans stay in memory
and are written out when the run ends.  Calls are single-threaded, so child
spans nest and a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

FUNCTIONS = (
    ("koblab.poincare", "poincare_distance"),
    ("koblab.curves", "concatenate"),
    ("koblab.ladder", "verify_ladder"),
    ("koblab.ladder", "chain_term_table"),
    ("koblab.psh", "verify_defining_candidate"),
    ("koblab.kobayashi", "lower_bound"),
    ("koblab.kobayashi", "search_upper_bound"),
    ("koblab.kobayashi", "estimate_distance"),
    ("koblab.kobayashi", "infinitesimal_bounds"),
    ("koblab.kobayashi", "cauchy_table"),
    ("koblab.kobayashi", "chain_upper_bound"),
    ("koblab.geodesics", "build_chain_curve"),
    ("koblab.geodesics", "check_almost_geodesic"),
)

CERTIFIERS = ("Ball", "Polydisc", "ProductDomain", "SublevelDomain")
SUBLEVEL_METHODS = ("contains", "boundary_distance")
SEARCH_METHODS = ("identity", "exhausted", "product", "slice", "ball-chain", "slice-chain")
VERDICTS = ("pass", "fail", "indeterminate")


def _short(module: str, name: str) -> str:
    return f"{module.removeprefix('koblab.')}.{name}"


class Tracer:
    """Spans and counters of one process; ``op_id`` tags the spans of the
    operation in progress."""

    def __init__(self):
        self.spans: list = []
        self.op_id = None
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._active: Counter = Counter()

    def wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracer._child_s.append(0.0)
            tracer._active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._active[name] -= 1
                tracer._stack.pop()
                child = tracer._child_s.pop()
                if tracer._child_s:
                    tracer._child_s[-1] += end - start
                tracer.spans[index] = (name, start, end, parent, tracer.op_id)
                tracer.calls[name] += 1
                tracer.total_s[name] += end - start
                tracer.self_s[name] += end - start - child
            if on_result is not None:
                on_result(result, outermost=tracer._active[name] == 0)
            return result

        return traced

    def install(self):
        import koblab.domains  # the package __init__ loads every listed module

        hooks = {
            "kobayashi.search_upper_bound": self._on_search,
            "geodesics.check_almost_geodesic": self._on_verdict,
        }
        modules = [m for n, m in sys.modules.items() if n == "koblab" or n.startswith("koblab.")]
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            name = _short(module_name, attr)
            traced = self.wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        for cls_name in CERTIFIERS:
            cls = getattr(koblab.domains, cls_name)
            name = f"domains.{cls_name}.certify_affine_disc"
            hook = functools.partial(self._on_certify, cls_name)
            cls.certify_affine_disc = self.wrap(name, cls.__dict__["certify_affine_disc"], hook)
        cls = koblab.domains.SublevelDomain
        for attr in SUBLEVEL_METHODS:
            setattr(cls, attr, self.wrap(f"domains.SublevelDomain.{attr}", cls.__dict__[attr]))

    def _on_search(self, result, outermost):
        # product searches recurse into their factors; only the outermost
        # call's budget and winner belong to the estimate
        if outermost:
            self.counters["kobayashi.search_upper_bound.oracle_calls"] += result[2]
            self.counters[f"kobayashi.search.wins.{result[3]}"] += 1

    def _on_verdict(self, result, outermost):
        self.counters[f"geodesics.verdicts.{result.overall}"] += 1

    def _on_certify(self, cls_name, result, outermost):
        self.counters[f"domains.{cls_name}.certify_affine_disc.cells"] += result.oracle_calls
        self.counters[f"domains.{cls_name}.certify_affine_disc.certified"] += result.certified

    def summary(self) -> dict:
        """Mergeable totals: calls, self and total seconds, counters."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counters": dict(self.counters),
        }

    def write_spans(self, handle, pid: int):
        for name, start, end, parent, op_id in self.spans:
            handle.write(
                json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "op": op_id, "pid": pid}
                )
                + "\n"
            )


def merge(total: dict, part: dict):
    """Add the totals of ``part`` (a summary from another process) into ``total``."""
    for key in ("calls", "self_s", "total_s", "counters"):
        bucket = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value


def per_layer(summary: dict, cycles: int) -> dict:
    """The per-layer metrics, per cycle of the traced phase."""
    calls = summary.get("calls", {})
    self_s = summary.get("self_s", {})
    total_s = summary.get("total_s", {})
    counters = summary.get("counters", {})
    out = {}

    def count(name, value):
        out[name] = (value / cycles, "count/cycle")

    def seconds(name, value):
        out[name] = (value / cycles, "s/cycle")

    for cls_name in CERTIFIERS:
        key = f"domains.{cls_name}.certify_affine_disc"
        n = calls.get(key, 0)
        count(f"{key}.calls", n)
        seconds(f"{key}.self_s", self_s.get(key, 0.0))
        count(f"{key}.cells", counters.get(f"{key}.cells", 0))
        certified = counters.get(f"{key}.certified", 0)
        out[f"{key}.certified_ratio"] = (certified / n if n else 0.0, "ratio")
    for attr in SUBLEVEL_METHODS:
        key = f"domains.SublevelDomain.{attr}"
        count(f"{key}.calls", calls.get(key, 0))
        seconds(f"{key}.self_s", self_s.get(key, 0.0))
    key = "domains.SublevelDomain.certify_affine_disc"
    cells = counters.get(f"{key}.cells", 0)
    out["domains.SublevelDomain.s_per_cell"] = (total_s.get(key, 0.0) / cells if cells else 0.0, "s")
    for module_name, attr in FUNCTIONS:
        key = _short(module_name, attr)
        count(f"{key}.calls", calls.get(key, 0))
        seconds(f"{key}.self_s", self_s.get(key, 0.0))
    key = "kobayashi.search_upper_bound.oracle_calls"
    count(key, counters.get(key, 0))
    for key in [f"kobayashi.search.wins.{m}" for m in SEARCH_METHODS] + [
        f"geodesics.verdicts.{v}" for v in VERDICTS
    ]:
        count(key, counters.get(key, 0))
    return out
