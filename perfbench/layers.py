"""Per-layer counters and timers, attached to bandschur from outside.

Tracer.install wraps one public function per layer.  A module that did
`from .x import f` holds its own reference to f, so the wrapper replaces
f in every bandschur module whose global of that name is the original
function, which is where each caller looks it up.  Spans are timed in
the thread that runs them (the limit-set scan runs kernel chunks in
worker threads); only spans at depth 0 of the main thread count against
the CLI's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _grid_points(args, kwargs, result) -> dict:
    grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
    return {"scan_points": grid.nx * grid.ny, "scan_failures": len(result.failures)}


def _kernel_points(args, kwargs, result) -> dict:
    return {"kernel_points": len(args[2])}


def _terms(key):
    return lambda args, kwargs, result: {key: len(result)}


# (module, function, layer name, extra counters from (args, kwargs, result))
TARGETS = [
    ("schur", "symbolic_det", "schur.det", _terms("det_terms")),
    ("toeplitz", "det_numeric", "toeplitz.det_numeric", None),
    ("recurrence", "recurrence_residual", "recurrence.residual", None),
    ("recurrence", "char_coeffs", "recurrence.char_coeffs", None),
    ("tableaux", "enumerate_ssyt", "tableaux.enumerate", _terms("ssyt_count")),
    ("tableaux", "insert_sequence", "tableaux.insert", None),
    ("widom", "widom_original", "widom.eval", None),
    ("widom", "widom_modified", "widom.eval", None),
    ("widom", "hall_schur_eval", "widom.eval", None),
    ("spectra", "limit_set_scan", "spectra.scan", _grid_points),
    ("spectra", "finite_section_spectrum", "spectra.eigvals", None),
    ("spectra", "poly_roots", "spectra.poly_roots", None),
    ("_kernels", "scan_moduli", "kernels.scan_moduli", _kernel_points),
]


class Tracer:
    """Accumulates one command's layer statistics at a time."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self.stats: defaultdict[str, float] = defaultdict(float)
        self.kernel_spans: list[tuple[float, float]] = []

    def start_command(self) -> None:
        self.stats = defaultdict(float)
        self.kernel_spans = []

    def wrap(self, layer: str, fn, extra=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = getattr(tracer._local, "depth", 0)
            tracer._local.depth = depth + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._local.depth = depth
            with tracer._lock:
                st = tracer.stats
                st[layer + ".calls"] += 1
                st[layer + ".ms"] += (t1 - t0) * 1e3
                if extra is not None and result is not NotImplemented:
                    for key, value in extra(args, kwargs, result).items():
                        st[key] += value
                if depth == 0 and threading.current_thread() is tracer._main:
                    st["covered.ms"] += (t1 - t0) * 1e3
                if layer == "kernels.scan_moduli":
                    tracer.kernel_spans.append((t0, t1))
            return result

        return traced

    def install(self) -> None:
        """Replace each target where bandschur's modules look it up."""
        modules = [m for name, m in sys.modules.items()
                   if name == "bandschur" or name.startswith("bandschur.")]
        for mod_name, attr, layer, extra in TARGETS:
            original = getattr(importlib.import_module(f"bandschur.{mod_name}"), attr)
            traced = self.wrap(layer, original, extra)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)
        poly = importlib.import_module("bandschur.polyring").MultiPoly
        traced_mul = self.wrap("polyring.mul", poly.__mul__, _terms("mul_terms"))
        poly.__mul__ = poly.__rmul__ = traced_mul

    def kernel_busy_ms(self) -> float:
        """Wall time during which at least one kernel chunk was running."""
        busy, end = 0.0, float("-inf")
        for t0, t1 in sorted(self.kernel_spans):
            if t1 > end:
                busy += t1 - max(t0, end)
                end = t1
        return busy * 1e3


PER_LAYER = [
    # (metric, unit, source statistic); every "ms" statistic is host-normalised
    # per command, and the one rate has no single source
    ("polyring.mul_calls", "count/cmd", "polyring.mul.calls"),
    ("polyring.mul_ms", "ms/cmd", "polyring.mul.ms"),
    ("polyring.mul_terms", "count/cmd", "mul_terms"),
    ("schur.det_calls", "count/cmd", "schur.det.calls"),
    ("schur.det_ms", "ms/cmd", "schur.det.ms"),
    ("schur.det_terms", "count/cmd", "det_terms"),
    ("toeplitz.minor_det_hits", "count/cmd", "minor_det_hits"),
    ("toeplitz.minor_det_misses", "count/cmd", "minor_det_misses"),
    ("toeplitz.minor_det_cached", "count/cmd", "minor_det_cached"),
    ("toeplitz.det_numeric_ms", "ms/cmd", "toeplitz.det_numeric.ms"),
    ("recurrence.residual_calls", "count/cmd", "recurrence.residual.calls"),
    ("recurrence.residual_ms", "ms/cmd", "recurrence.residual.ms"),
    ("recurrence.char_coeffs_ms", "ms/cmd", "recurrence.char_coeffs.ms"),
    ("tableaux.ssyt_count", "count/cmd", "ssyt_count"),
    ("tableaux.enumerate_ms", "ms/cmd", "tableaux.enumerate.ms"),
    ("tableaux.insert_calls", "count/cmd", "tableaux.insert.calls"),
    ("tableaux.insert_ms", "ms/cmd", "tableaux.insert.ms"),
    ("widom.eval_ms", "ms/cmd", "widom.eval.ms"),
    ("spectra.scan_points", "count/cmd", "scan_points"),
    ("spectra.scan_ms", "ms/cmd", "spectra.scan.ms"),
    ("spectra.scan_failures", "count/cmd", "scan_failures"),
    ("spectra.eigvals_ms", "ms/cmd", "spectra.eigvals.ms"),
    ("spectra.poly_roots_calls", "count/cmd", "spectra.poly_roots.calls"),
    ("spectra.poly_roots_ms", "ms/cmd", "spectra.poly_roots.ms"),
    ("kernels.scan_moduli_ms", "ms/cmd", "kernel_busy_ms"),
    ("kernels.scan_points_per_s", "1/s", None),
    ("cli.self_ms", "ms/cmd", "self_ms"),
]
