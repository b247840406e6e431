"""Outside-in span tracing for the demix benchmark.

The tracer replaces public demix functions, at the module attribute their
caller looks up, with wrappers that record one span per call: name, layer,
start, end, parent span and a few counts.  Parents are tracked per thread;
work handed to the CLI thread pool carries its parent across explicitly.
Spans stay in memory until the benchmark writes them out at the end.  No
library code changes: uninstalling restores the original attributes.
"""

from __future__ import annotations

import importlib
import itertools
import math
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("kde", "measures", "mixfit", "regfit", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, parent: int | None = None):
        """Record one span; ``parent`` defaults to this thread's open span."""
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        rec = Span(sid, stack[-1] if parent is None and stack else parent,
                   name, layer, time.perf_counter())
        stack.append(sid)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# wrap points
# ---------------------------------------------------------------------------

def _plain(tracer, func, name, layer):
    def wrapper(*args, **kwargs):
        with tracer.span(name, layer):
            return func(*args, **kwargs)
    return wrapper


def _counting_errors(error_names):
    """Wrapper factory that counts the listed exception types as ``errors``."""
    def factory(tracer, func, name, layer):
        def wrapper(*args, **kwargs):
            with tracer.span(name, layer) as rec:
                try:
                    return func(*args, **kwargs)
                except Exception as exc:
                    if type(exc).__name__ in error_names:
                        rec.attrs["errors"] = 1
                    raise
        return wrapper
    return factory


def _lp(tracer, func, name, layer):
    def wrapper(design, *args, **kwargs):
        with tracer.span(name, layer) as rec:
            result = func(design, *args, **kwargs)
            n_grid, n_atoms = design.shape
            # HiGHS sees 2 n_grid residual rows plus the simplex row, over
            # the atom weights and one residual bound per grid point.
            rec.attrs.update(rows=2 * n_grid + 1, cols=n_atoms + n_grid,
                             nonoptimal=int(not result[2]))
            return result
    return wrapper


def _task_pool(tracer, func, name, layer):
    """Wrap the CLI pool runner so each task span names the runner as its
    parent, whichever thread runs it, and records its queue wait."""
    def wrapper(tasks, worker, threads):
        with tracer.span(name, layer) as pool_span:
            def traced_worker(*task):
                with tracer.span("cli.task", layer,
                                 parent=pool_span.id) as rec:
                    rec.attrs["queue_wait"] = rec.start - pool_span.start
                    return worker(*task)
            pool_span.attrs["threads"] = threads
            return func(tasks, traced_worker, threads)
    return wrapper


# (module, attribute, span name, layer, wrapper factory).  Entries for names
# a module does not define are skipped and reported by ``install``.
WRAP_POINTS = (
    ("demix.cli", "main", "cli.main", "cli", _plain),
    ("demix.cli", "_run_tasks", "cli.run_tasks", "cli", _task_pool),
    ("demix.cli", "_load_dataset", "cli.load", "cli", _plain),
    ("demix.cli", "_atomic_write_json", "cli.write", "cli", _plain),
    ("demix.cli", "_write_regression_plot", "cli.write", "cli", _plain),
    ("demix.cli", "fit_mixed_regression", "regfit.fit", "regfit", _plain),
    ("demix.cli", "sample_mixed_regression", "synth.sample", "synth",
     _plain),
    ("demix.synth", "sample_mixed_regression", "synth.sample", "synth",
     _plain),
    ("demix.synth", "sample_vanilla_mixture", "synth.sample", "synth",
     _plain),
    ("demix.regfit", "fit_mixed_regression", "regfit.fit", "regfit",
     _plain),
    ("demix.regfit", "find_separation_point", "regfit.sep_scan", "regfit",
     _plain),
    ("demix.regfit", "mde_at_x", "regfit.mde", "regfit", _plain),
    ("demix.regfit", "fit_mixture_from_density", "mixfit.fit", "mixfit",
     _plain),
    ("demix.kde", "conditional_density_at", "kde.conditional", "kde",
     _counting_errors({"EmptyWindowError"})),
    ("demix.mixfit", "fit_vanilla_mixture", "mixfit.fit_vanilla", "mixfit",
     _plain),
    ("demix.mixfit", "univariate_kde", "kde.univariate", "kde", _plain),
    ("demix.mixfit", "fit_mixture_from_density", "mixfit.fit", "mixfit",
     _plain),
    ("demix.mixfit", "project_to_gaussian_mixture", "mixfit.project",
     "mixfit", _plain),
    ("demix.mixfit", "gaussian_blur_values", "measures.design", "measures",
     _plain),
    ("demix.mixfit", "weighted_l1_lp", "measures.lp", "measures", _lp),
    ("demix.mixfit", "smooth", "mixfit.denoise", "mixfit", _plain),
    ("demix.mixfit", "threshold_partition", "mixfit.denoise", "mixfit",
     _counting_errors({"ThresholdTooHighError", "UnderResolutionError"})),
    ("demix.mixfit", "voronoi_extend", "mixfit.denoise", "mixfit", _plain),
    ("demix.mixfit", "estimate_components", "mixfit.components", "mixfit",
     _plain),
)


@contextmanager
def installed(tracer: Tracer):
    """Patch every wrap point for the duration of the block.

    Yields the list of wrap points that could not be found, so a caller
    can report them instead of silently reading zeros.
    """
    saved, missing = [], []
    try:
        for mod_name, attr, name, layer, factory in WRAP_POINTS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, factory(tracer, original, name, layer))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(lo, s.start), min(hi, s.end))
                for lo, hi in children.get(s.id, [])]
        out[s.id] = s.duration - _covered(kids)
    return out


def op_metrics(spans: list[Span], root_id: int) -> dict:
    """Per-layer numbers for one traced op whose root span is ``root_id``."""
    selfs = self_times(spans)
    root = next(s for s in spans if s.id == root_id)

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def attr_max(name, key):
        return max((s.attrs.get(key, 0) for s in spans if s.name == name),
                   default=0)

    mde = [s.duration for s in spans if s.name == "regfit.mde"]
    pools = [s for s in spans if s.name == "cli.run_tasks"]
    threads = max((s.attrs.get("threads", 1) for s in pools), default=1)
    tasks = {s.id for s in spans if s.name == "cli.task"}
    fit_in_cli = sum(s.duration for s in spans
                     if s.name == "regfit.fit" and s.parent in tasks)
    m = {
        "measures.lp_s": total("measures.lp"),
        "measures.lp_calls": count("measures.lp"),
        "measures.lp_rows": attr_max("measures.lp", "rows"),
        "measures.lp_cols": attr_max("measures.lp", "cols"),
        "measures.lp_nonoptimal": attr_sum("measures.lp", "nonoptimal"),
        "measures.design_s": total("measures.design"),
        "measures.design_calls": count("measures.design"),
        "kde.univariate_s": total("kde.univariate"),
        "kde.conditional_s": total("kde.conditional"),
        "kde.conditional_calls": count("kde.conditional"),
        "kde.empty_windows": attr_sum("kde.conditional", "errors"),
        "mixfit.project_self_s": sum(selfs[s.id] for s in spans
                                     if s.name == "mixfit.project"),
        "mixfit.denoise_s": total("mixfit.denoise"),
        "mixfit.threshold_retries": attr_sum("mixfit.denoise", "errors"),
        "mixfit.components_s": total("mixfit.components"),
        "mixfit.fit_s": total("mixfit.fit"),
        "regfit.sep_scan_s": total("regfit.sep_scan"),
        "regfit.mde_s": sum(mde),
        "regfit.mde_calls": len(mde),
        "regfit.mde_call_p50_s": statistics.median(mde) if mde else 0.0,
        "cli.load_s": total("cli.load"),
        "cli.fit_s": fit_in_cli,
        "cli.write_s": total("cli.write"),
        "cli.queue_wait_s": attr_sum("cli.task", "queue_wait"),
        "cli.busy_ratio": (fit_in_cli / (root.duration * threads)
                           if pools else 0.0),
        "trace.root_self_s": selfs[root_id],
        "trace.op_s": root.duration,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans
                                   if s.layer == layer)
    return m
