"""In-process tracing of the package's layers for the per-layer metrics.

Calls into each module are wrapped where the caller looks the name up
(`cli.sweep`, `landscape.maximize`, `landscape.METRICS[...]`,
`verification.iterate_series`, ...) and restored afterwards.  Coarse calls
become spans; the hot scalar calls (hundreds of thousands of kernel
evaluations per `optimize`) are aggregated into per-name counters, whose
time is still charged to the enclosing span so self times stay exact.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

VERIFICATION_SUITES = (
    "oracle_equivalence",
    "output_normalization",
    "energy_balance",
    "hd_factor_vs_derivative",
    "qcrb_factor_vs_derivative",
    "photon_factor_consistency",
)

SCALAR_KERNEL = "metrology.kernel.scalar"
RASTER_KERNEL = "metrology.kernel.raster"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float


def self_times(spans: list[Span], aggregated: Counter) -> dict[int, float]:
    """Each span's duration minus the part of it covered by its direct
    child spans (clipped to the span, overlaps counted once) minus the
    aggregated call time charged to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = span.end - span.start - covered - aggregated[span.id]
    return result


class Tracer:
    """Spans at layer boundaries plus aggregated counters for hot calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.busy: Counter = Counter()        # name -> seconds
        self.calls: Counter = Counter()       # name -> calls
        self.counts: Counter = Counter()      # exact work counters
        self.aggregated: Counter = Counter()  # span id -> aggregated seconds inside it
        self._open: list[int] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._open.pop()
            self.spans.append(Span(span_id, name, parent, start, end))
            self.busy[name] += end - start
            self.calls[name] += 1

    def add_call(self, name: str, seconds: float) -> None:
        """Record one aggregated call, charged to the innermost open span."""
        self.busy[name] += seconds
        self.calls[name] += 1
        if self._open:
            self.aggregated[self._open[-1]] += seconds

    def self_time(self, name: str) -> float:
        times = self_times(self.spans, self.aggregated)
        return sum(times[span.id] for span in self.spans if span.name == name)


def _spanned(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _aggregated(tracer: Tracer, name: str, fn, after=None):
    clock = tracer.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        tracer.add_call(name, clock() - start)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _kernel(tracer: Tracer, fn):
    import numpy as np

    clock = tracer.clock

    @functools.wraps(fn)
    def wrapper(phi, theta0, loss):
        points = np.broadcast(phi, theta0, loss).size
        start = clock()
        result = fn(phi, theta0, loss)
        tracer.add_call(SCALAR_KERNEL if points == 1 else RASTER_KERNEL, clock() - start)
        tracer.counts["metrology.kernel_points"] += points
        if points > 1:
            tracer.counts["metrology.raster_points"] += points
        return result
    return wrapper


def _count(tracer: Tracer, counter: str, amount):
    def after(args, result):
        tracer.counts[counter] += amount(args, result)
    return after


def _patches(tracer: Tracer):
    """(namespace, name, wrapper) for every wrapped lookup."""
    from recycled_mzi import cli, landscape, metrology, verification

    yield cli, "_write_text", _spanned(
        tracer, "cli.write", cli._write_text,
        _count(tracer, "cli.output_bytes", lambda args, _: len(args[0].encode("utf-8"))))
    yield cli, "sweep", _spanned(tracer, "landscape.sweep", cli.sweep)
    yield landscape, "maximize", _spanned(
        tracer, "landscape.maximize", landscape.maximize,
        _count(tracer, "landscape.evaluations", lambda _, record: record.evaluations))
    for tag, fn in metrology.METRICS.items():
        yield metrology.METRICS, tag, _kernel(tracer, fn)
        yield verification, f"{tag}_values", _kernel(tracer, getattr(verification, f"{tag}_values"))
    yield verification, "iterate_series", _aggregated(
        tracer, "loop.iterate_series", verification.iterate_series,
        _count(tracer, "loop.cascade_stages", lambda args, _: args[1]))
    yield verification, "closed_form_coefficients", _aggregated(
        tracer, "loop.closed_form", verification.closed_form_coefficients)
    for suite in VERIFICATION_SUITES:
        yield verification, suite, _spanned(
            tracer, f"verification.{suite}", getattr(verification, suite))


def _get(namespace, name):
    return namespace[name] if isinstance(namespace, dict) else getattr(namespace, name)


def _set(namespace, name, value) -> None:
    if isinstance(namespace, dict):
        namespace[name] = value
    else:
        setattr(namespace, name, value)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced lookup for the duration of the block."""
    saved = []
    try:
        for namespace, name, wrapper in _patches(tracer):
            saved.append((namespace, name, _get(namespace, name)))
            _set(namespace, name, wrapper)
        yield tracer
    finally:
        for namespace, name, original in reversed(saved):
            _set(namespace, name, original)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float,
                  verify: bool = False) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit); the loop and
    verification layers only with `verify`, as only `verify` reaches them."""
    busy, calls, counts = tracer.busy, tracer.calls, tracer.counts
    metrics = {
        "cli.self_s": (tracer.self_time("cli.main"), "s"),
        "cli.write_s": (busy["cli.write"], "s"),
        "cli.output_bytes": (counts["cli.output_bytes"], "bytes"),
        "landscape.sweep_s": (busy["landscape.sweep"], "s"),
        "landscape.maximize_s": (busy["landscape.maximize"], "s"),
        "landscape.maximize.calls": (calls["landscape.maximize"], "count"),
        "landscape.evaluations": (counts["landscape.evaluations"], "count"),
        "landscape.self_s": (tracer.self_time("landscape.maximize"), "s"),
        "metrology.kernel_calls": (calls[SCALAR_KERNEL] + calls[RASTER_KERNEL], "count"),
        "metrology.kernel_points": (counts["metrology.kernel_points"], "count"),
        "metrology.kernel_s": (busy[SCALAR_KERNEL] + busy[RASTER_KERNEL], "s"),
        "metrology.scalar_call_us": (1e6 * _ratio(busy[SCALAR_KERNEL], calls[SCALAR_KERNEL]), "us"),
        "metrology.raster_points_per_s": (
            _ratio(counts["metrology.raster_points"], busy[RASTER_KERNEL]), "1/s"),
    }
    if verify:
        metrics.update({
            "loop.iterate_series_calls": (calls["loop.iterate_series"], "count"),
            "loop.cascade_stages": (counts["loop.cascade_stages"], "count"),
            "loop.iterate_series_s": (busy["loop.iterate_series"], "s"),
            "loop.closed_form_calls": (calls["loop.closed_form"], "count"),
            "loop.closed_form_s": (busy["loop.closed_form"], "s"),
        })
        for suite in VERIFICATION_SUITES:
            metrics[f"verification.{suite}_s"] = (busy[f"verification.{suite}"], "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics
