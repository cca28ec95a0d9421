"""Spans around the calls into each ``nstate`` layer, recorded from outside the program.

``nstate`` modules import each other's functions by value (``from .spectral
import eigen_decompose``), so wrapping a function where it is defined would
miss most calls.  :meth:`Tracer.installed` therefore replaces the function in
every ``nstate`` module namespace that holds it, and puts every original back
on exit.  A layer function a later version of the program no longer has is
skipped, and its metrics read zero.

Each span records its name, start, end and parent span, and is kept with the
other spans of its op.  Self time is a span's duration minus the time its child spans cover, so
the self times of one op sum to the duration of its root ``cli.main`` span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("cli", "model", "spectral", "kernels", "integrator", "analysis")

# (layer, defining module, function name); the span is named "<layer>.<function>"
TRACED = (
    ("cli", "nstate.cli", "main"),
    ("cli", "nstate.cli", "_csv_text"),
    ("cli", "nstate.cli", "render_svg"),
    ("model", "nstate.model", "build_coupling"),
    ("model", "nstate.model", "invert_area"),
    ("spectral", "nstate.spectral", "eigen_decompose"),
    ("spectral", "nstate.spectral", "evolve_analytic"),
    ("spectral", "nstate.spectral", "propagator"),
    ("kernels", "nstate._kernels", "run_rk4"),
    ("kernels", "nstate._kernels", "jacobi_eigh"),
    ("integrator", "nstate.integrator", "integrate"),
    ("integrator", "nstate.integrator", "integrate_kicks"),
    ("analysis", "nstate.analysis", "leakage_scan"),
    ("analysis", "nstate.analysis", "fit_power_law"),
)
ROOT_SPAN = "cli.main"


def rk4_flops_per_step(n: int) -> int:
    """Real flops of one RK4 step on n complex amplitudes, counted from the formula.

    Four right-hand sides at ``4n^2 + 6n`` each (real W times a complex vector,
    the diagonal term, the drive scaling and their sum), three stage updates at
    ``4n``, the weighted combination at ``14n`` and the norm check at ``4n``.
    """
    return 16 * n * n + 54 * n


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """In-memory spans and counters for the traced ops of one benchmark run."""

    def __init__(self):
        # spans and counts are keyed by op number; a span's parent indexes its op's list
        self.spans: defaultdict[int, list[Span]] = defaultdict(list)
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self._stack: list[int] = []
        self.matrices: defaultdict[int, set] = defaultdict(set)

    def begin_op(self, op: int) -> None:
        """Attribute the spans and counts that follow to op number ``op``."""
        self.op = op

    def _observe(self, name, bound, result) -> None:
        counts = self.counts[self.op]
        if name == "cli._csv_text":
            counts["csv_bytes"] += len(result)
            counts["csv_rows"] += result.count("\n") - 1
        elif name == "cli.render_svg":
            counts["svg_bytes"] += len(result)
        elif name == "spectral.eigen_decompose":
            w = np.ascontiguousarray(bound.arguments["w"], dtype=np.float64)
            self.matrices[self.op].add((w.shape, w.tobytes()))
        elif name == "kernels.run_rk4":
            n = int(np.asarray(bound.arguments["a0"]).size)
            steps = int(bound.arguments["n_steps"])
            counts["rk4_state_steps"] += n * steps
            counts["rk4_flops"] += rk4_flops_per_step(n) * steps
        elif name in ("integrator.integrate", "integrator.integrate_kicks"):
            counts["sample_rows"] += int(result.times.size)
        elif name == "analysis.leakage_scan":
            counts["points"] += len(result)

    def _wrap(self, layer: str, name: str, fn):
        signature = inspect.signature(fn)
        span_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans[self.op]
            span = Span(span_name, self._stack[-1] if self._stack else None, 0.0)
            self._stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[self.op][f"{layer}.errors"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            self.counts[self.op][f"{span_name}.calls"] += 1
            self._observe(span_name, signature.bind(*args, **kwargs), result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every call site of every traced function; restore all of them on exit."""
        modules = [m for key, m in list(sys.modules.items()) if key == "nstate" or key.startswith("nstate.")]
        patched = []
        try:
            for layer, module_name, name in TRACED:
                fn = getattr(sys.modules.get(module_name), name, None)
                if fn is None:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            patched.append((module, attr, fn))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child_time)]


def span_totals(spans: list[Span]) -> tuple[Counter, Counter]:
    """Total duration and total self time per span name."""
    total: Counter = Counter()
    own: Counter = Counter()
    for span, self_s in zip(spans, self_times(spans)):
        total[span.name] += span.end - span.start
        own[span.name] += self_s
    return total, own


def op_layer_metrics(tracer: Tracer, op: int) -> dict[str, float]:
    """Per-layer metrics of one traced op (times in seconds)."""
    total, own = span_totals(tracer.spans[op])
    c = tracer.counts[op]
    rk4_s = total["kernels.run_rk4"]
    steps = c["rk4_state_steps"]
    eig_calls = c["spectral.eigen_decompose.calls"]
    return {
        "cli.self_s": own["cli.main"],
        "cli.csv_s": total["cli._csv_text"],
        "cli.csv_bytes": c["csv_bytes"],
        "cli.svg_s": total["cli.render_svg"],
        "cli.svg_bytes": c["svg_bytes"],
        "model.build_coupling_s": total["model.build_coupling"],
        "model.build_coupling_calls": c["model.build_coupling.calls"],
        "model.invert_area_s": total["model.invert_area"],
        "model.invert_area_calls": c["model.invert_area.calls"],
        "spectral.eigen_decompose_s": total["spectral.eigen_decompose"],
        "spectral.eigen_decompose_calls": eig_calls,
        "spectral.eigen_unique_ratio": len(tracer.matrices[op]) / eig_calls if eig_calls else 0.0,
        "spectral.evolve_analytic_self_s": own["spectral.evolve_analytic"],
        "spectral.propagator_s": total["spectral.propagator"],
        "spectral.propagator_calls": c["spectral.propagator.calls"],
        "kernels.rk4_s": rk4_s,
        "kernels.rk4_calls": c["kernels.run_rk4.calls"],
        "kernels.rk4_state_steps": steps,
        "kernels.rk4_us_per_state_step": 1e6 * rk4_s / steps if steps else 0.0,
        "kernels.rk4_flops_computed": c["rk4_flops"],
        "kernels.jacobi_s": total["kernels.jacobi_eigh"],
        "kernels.jacobi_calls": c["kernels.jacobi_eigh.calls"],
        "integrator.integrate_self_s": own["integrator.integrate"],
        "integrator.sample_rows": c["sample_rows"],
        "integrator.rows_per_result": c["sample_rows"] / c["csv_rows"] if c["csv_rows"] else 0.0,
        "integrator.kicks_self_s": own["integrator.integrate_kicks"],
        "analysis.leakage_scan_self_s": own["analysis.leakage_scan"],
        "analysis.fit_s": total["analysis.fit_power_law"],
        "analysis.points": c["points"],
        **{f"{layer}.errors": c[f"{layer}.errors"] for layer in LAYERS},
    }
