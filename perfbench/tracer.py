"""Layer spans and counters, recorded by wrapping `umbilic` from outside.

Each wrapper goes on the module attribute its caller resolves at call time
(for example `umbilic.pinching.estimate_geometry`, which `verify_theorem`
imported by name, as well as `umbilic.diffgeo.estimate_geometry`, which the
CLI reaches through the module).  Nothing inside `src/` is changed.

A span is (name, start, end, parent).  Spans and counters stay in memory
and are written once, when the pass ends.  A span's self time is its
duration minus the durations of its direct children; because spans nest
strictly, that is exactly the part of its interval no child covers.

The span stack is a plain list: the runner fixes UMBILIC_THREADS=1, so the
program calls every wrapped function from one thread.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import Counter

# span name -> (self-time metric, call-count metric or None,
#               allocation-peak metric or None, attributes to wrap)
SPANS = {
    "cli": ("cli.self_s", None, None, ["umbilic.cli.main"]),
    "mesh.load": ("mesh.load_s", None, None, ["umbilic.cli.load_mesh"]),
    "mesh.validate": (
        "mesh.validate_s", None, None,
        ["umbilic.cli.validate_mesh", "umbilic.pinching.validate_mesh"],
    ),
    "mesh.build": (
        "mesh.build_s", "mesh.build_calls", None, ["umbilic.mesh.Mesh.__init__"],
    ),
    "mesh.measures": (
        "mesh.measures_s", None, None,
        ["umbilic.cli.measures", "umbilic.pinching.measures"],
    ),
    "surfgen.generate": (
        "surfgen.generate_s", "surfgen.generate_calls", None,
        ["umbilic.surfgen.generate"],
    ),
    "surfgen.oracle": (
        "surfgen.oracle_s", "surfgen.oracle_calls", None,
        ["umbilic.surfgen.oracle_curvatures_at_vertices"],
    ),
    "diffgeo.estimate_geometry": (
        "diffgeo.estimate_geometry_s", None, "diffgeo.alloc_peak_mb",
        ["umbilic.diffgeo.estimate_geometry", "umbilic.pinching.estimate_geometry"],
    ),
    "fields": (
        "fields.s", "fields.calls", None,
        [
            "umbilic.fields.lp_norm",
            "umbilic.fields.integrate",
            "umbilic.pinching.lp_norm",
            "umbilic.pinching.lp_norm_log_pth_power",
            "umbilic.pinching.sublevel_measure",
        ],
    ),
    "spectral.build_laplace": (
        "spectral.build_laplace_s", None, None, ["umbilic.spectral.build_laplace"],
    ),
    "spectral.lambda1": (
        "spectral.lambda1_s", "spectral.lambda1_calls", "spectral.alloc_peak_mb",
        ["umbilic.spectral.lambda1"],
    ),
    "pinching.verify": (
        "pinching.verify_self_s", None, None, ["umbilic.pinching.verify_theorem"],
    ),
    "pinching.proof_trace": (
        "pinching.proof_trace_s", None, None, ["umbilic.pinching.proof_trace"],
    ),
    "pinching.mu_fit": (
        "pinching.mu_fit_s", None, None, ["umbilic.pinching.fit_umbilical_mu"],
    ),
    "pinching.amplitude": (
        "pinching.amplitude_s", None, None, ["umbilic.pinching.amplitude_for_ratio"],
    ),
}

# counters recorded without a span, so their time stays with the caller
COUNTERS = [
    "spectral.outer_iterations",
    "spectral.inner_solves",
    "spectral.inner_iterations",
    "pinching.ratio_evals",
]

TRACED_WALL = "traced.wall_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced pass reports, with its unit."""
    units = {}
    for self_metric, calls_metric, alloc_metric, _ in SPANS.values():
        units[self_metric] = "s"
        if calls_metric:
            units[calls_metric] = "count"
        if alloc_metric:
            units[alloc_metric] = "MB"
    units.update(dict.fromkeys(COUNTERS, "count"))
    units[TRACED_WALL] = "s"
    return units


def _resolve(path: str):
    """(owner object, attribute name) for a dotted path, or None if absent."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


class Tracer:
    """Collects spans, counters and allocation peaks for one pass."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.alloc_peaks: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, alloc, on_result):
        # tracemalloc's peak is process-wide, so allocation spans must not
        # nest; estimate_geometry and lambda1 never call each other
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            started = alloc and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            if alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.alloc_peaks[name] = max(self.alloc_peaks.get(name, 0), peak)
                if started:
                    tracemalloc.stop()
                self._stack.pop()
                self.spans[idx][1:3] = [t0, t1]
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counting_cg(self, cg):
        @functools.wraps(cg)
        def wrapper(*args, callback=None, **kwargs):
            self.counts["spectral.inner_solves"] += 1

            def count(xk):
                self.counts["spectral.inner_iterations"] += 1
                if callback is not None:
                    callback(xk)

            return cg(*args, callback=count, **kwargs)

        return wrapper

    def _counting(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, path, make):
        found = _resolve(path)
        if found is None:
            # a metric whose code is gone reads 0 (e.g. `cg` after a solver swap)
            self.missing.append(path)
            return
        owner, attr = found
        setattr(owner, attr, make(getattr(owner, attr)))

    def install(self) -> None:
        """Wrap every traced attribute of an imported `umbilic`."""

        def add_iterations(result):
            self.counts["spectral.outer_iterations"] += result.iterations

        for name, (_, _, alloc_metric, paths) in SPANS.items():
            alloc = alloc_metric is not None
            on_result = add_iterations if name == "spectral.lambda1" else None
            for path in paths:
                self._patch(path, lambda fn: self._wrap(name, fn, alloc, on_result))
        self._patch("umbilic.spectral.cg", self._counting_cg)
        self._patch(
            "umbilic.pinching.pinch_ratio",
            lambda fn: self._counting("pinching.ratio_evals", fn),
        )

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "alloc_peaks": self.alloc_peaks,
            "missing": self.missing,
        }


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one pass from its dumped spans and counters."""
    spans = trace["spans"]
    self_time = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    by_name = {name: [0.0, 0] for name in SPANS}
    for (name, *_), st in zip(spans, self_time):
        by_name[name][0] += st
        by_name[name][1] += 1
    out: dict[str, float] = {}
    for name, (self_metric, calls_metric, alloc_metric, _) in SPANS.items():
        out[self_metric] = by_name[name][0]
        if calls_metric:
            out[calls_metric] = by_name[name][1]
        if alloc_metric:
            out[alloc_metric] = trace["alloc_peaks"].get(name, 0) / 2**20
    for counter in COUNTERS:
        out[counter] = trace["counts"].get(counter, 0)
    out[TRACED_WALL] = wall_s
    return out
