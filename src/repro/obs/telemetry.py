"""Thread-safe metrics registry + monotonic-clock spans.

The process-wide :class:`Recorder` is the single funnel for all
telemetry.  Instrumentation sites call the module-level helpers
(:func:`count`, :func:`observe`, :func:`span`, :func:`stage`, …) which
are cheap no-ops until :meth:`Recorder.enable` runs — one attribute read
and a branch — so the call sites can stay always-on in hot paths without
a measurable cost and, crucially, without ever influencing simulation
results (the isolation contract is tested dynamically in
``tests/test_obs_isolation.py`` and enforced statically by reprolint rule
O001).

Status events are the one exception to "off until enabled":
:meth:`Recorder.event` delivers to every sink installed with
:meth:`Recorder.subscribed` (``--progress``'s stderr printer, the
``--webhook`` target) whether or not metrics and spans are on.  Emitting
sites test :attr:`Recorder.sinks` first, so with no sink installed they
build no message and cost one attribute read.

Clock discipline: this module is the only sanctioned home for
``time.perf_counter``/``time.monotonic`` reads outside the benchmarks —
spans carry *relative* microseconds since :meth:`Recorder.enable`, so no
wall-clock value can leak into anything derived from telemetry.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Mapping, Optional, Protocol, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Recorder",
    "Sink",
    "SpanRecord",
    "count",
    "gauge_set",
    "observe",
    "recorder",
    "span",
    "stage",
]

LabelValue = Union[str, int, float, bool]

#: An event sink: called as ``sink(event, **fields)`` for every
#: :meth:`Recorder.event`.
Sink = Callable[..., None]
LabelKey = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelKey]

#: Default latency buckets (seconds): microseconds through a minute.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)

#: Hard cap on retained spans — a runaway campaign must not hoard memory.
#: Overflow is counted (``obs_spans_dropped``) rather than silently eaten.
MAX_SPANS = 200_000


def _label_key(labels: Mapping[str, LabelValue]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing (well — adjustable) float counter."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount


class Gauge:
    """A point-in-time value (queue depth, workers alive, …)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount


class Histogram:
    """A cumulative-bucket histogram (Prometheus ``le`` semantics)."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count", "_lock")

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(bounds))
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``(inf, count)``."""
        out: List[Tuple[float, int]] = []
        running = 0
        with self._lock:
            for bound, n in zip(self.bounds, self.bucket_counts):
                running += n
                out.append((bound, running))
            out.append((float("inf"), self.count))
        return out


@dataclass
class SpanRecord:
    """One closed span: relative-microsecond interval plus static args."""

    name: str
    start_us: int
    dur_us: int
    tid: int
    depth: int
    parent: Optional[str]
    category: str = "repro"
    args: Dict[str, LabelValue] = field(default_factory=dict)


class MetricsRegistry:
    """Thread-safe home of every counter/gauge/histogram in a process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    def counter(self, name: str, **labels: LabelValue) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = Counter(name, key[1])
                self._counters[key] = metric
        return metric

    def gauge(self, name: str, **labels: LabelValue) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = Gauge(name, key[1])
                self._gauges[key] = metric
        return metric

    def histogram(
        self,
        name: str,
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: LabelValue,
    ) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = Histogram(name, key[1], bounds)
                self._histograms[key] = metric
        return metric

    def counters(self) -> List[Counter]:
        with self._lock:
            return sorted(self._counters.values(), key=lambda m: (m.name, m.labels))

    def gauges(self) -> List[Gauge]:
        with self._lock:
            return sorted(self._gauges.values(), key=lambda m: (m.name, m.labels))

    def histograms(self) -> List[Histogram]:
        with self._lock:
            return sorted(self._histograms.values(), key=lambda m: (m.name, m.labels))

    def snapshot(self) -> Dict[str, object]:
        """A plain-JSON view of every metric (see ``repro-metrics/1``)."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in sorted(counters, key=lambda m: (m.name, m.labels))
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in sorted(gauges, key=lambda m: (m.name, m.labels))
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "count": h.count,
                    "sum": h.sum,
                    "buckets": [
                        {"le": le, "count": n}
                        for le, n in h.cumulative_buckets()
                    ],
                }
                for h in sorted(histograms, key=lambda m: (m.name, m.labels))
            ],
        }


class StageProfilerLike(Protocol):
    """What :func:`stage` needs from an installed profiler."""

    def stage(self, name: str) -> ContextManager[None]: ...


class _SpanStack(threading.local):
    def __init__(self) -> None:
        self.names: List[str] = []


class Recorder:
    """Process-wide telemetry funnel; disabled (and ~free) by default."""

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.spans: List[SpanRecord] = []
        self._spans_dropped = 0
        self._epoch = 0.0
        self._lock = threading.Lock()
        self._stack = _SpanStack()
        self._profiler: Optional[StageProfilerLike] = None
        self._stage_hook: Optional[Callable[[str], None]] = None
        #: Installed event sinks; replaced (never mutated) so :meth:`event`
        #: can iterate without a lock.  Empty means nobody is listening.
        self.sinks: Tuple[Sink, ...] = ()

    # -- lifecycle ----------------------------------------------------- #
    def enable(self) -> None:
        """Start recording.  Idempotent; the epoch is set on first call."""
        if not self.enabled:
            self._epoch = time.perf_counter()
            self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded state (sinks stay; :meth:`subscribed` owns them)."""
        with self._lock:
            self.enabled = False
            self.registry = MetricsRegistry()
            self.spans = []
            self._spans_dropped = 0
            self._profiler = None
            self._stage_hook = None

    def install_profiler(self, profiler: Optional[StageProfilerLike]) -> None:
        self._profiler = profiler

    def install_stage_hook(self, hook: Optional[Callable[[str], None]]) -> None:
        """``hook(stage_name)`` fires after each closed stage (metrics sinks)."""
        self._stage_hook = hook

    @contextmanager
    def subscribed(self, *sinks: Sink) -> Iterator[None]:
        """Deliver every :meth:`event` to ``sinks`` until the block exits."""
        with self._lock:
            self.sinks = self.sinks + sinks
        try:
            yield
        finally:
            with self._lock:
                remaining = list(self.sinks)
                for sink in sinks:
                    remaining.remove(sink)
                self.sinks = tuple(remaining)

    # -- timebase ------------------------------------------------------ #
    def elapsed_seconds(self) -> float:
        """Monotonic seconds since :meth:`enable` (0.0 while disabled)."""
        if not self.enabled:
            return 0.0
        return time.perf_counter() - self._epoch

    @property
    def spans_dropped(self) -> int:
        return self._spans_dropped

    # -- metric funnels ------------------------------------------------ #
    def count(self, name: str, amount: float = 1.0, **labels: LabelValue) -> None:
        if not self.enabled:
            return
        self.registry.counter(name, **labels).add(amount)

    def gauge_set(self, name: str, value: float, **labels: LabelValue) -> None:
        if not self.enabled:
            return
        self.registry.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: LabelValue) -> None:
        if not self.enabled:
            return
        self.registry.histogram(name, **labels).observe(value)

    def event(self, event: str, **fields: Any) -> None:
        """Deliver a status event to every installed sink.

        Independent of :meth:`enable`.  A sink that raises is counted
        (``obs_sink_errors_total``, when metrics are on) and skipped: an
        observer never fails or stalls the run it watches.
        """
        for sink in self.sinks:
            try:
                sink(event, **fields)
            except Exception:
                self.count("obs_sink_errors_total")

    # -- spans --------------------------------------------------------- #
    def span(
        self,
        name: str,
        category: str = "repro",
        observe: Optional[str] = None,
        **args: LabelValue,
    ) -> ContextManager[None]:
        """A timed span; ``observe`` also feeds the duration (seconds) into
        the named histogram, so latency distributions come for free."""
        if not self.enabled:
            return _NOOP_SPAN
        return self._live_span(name, category, args, observe)

    @contextmanager
    def _live_span(
        self,
        name: str,
        category: str,
        args: Dict[str, LabelValue],
        observe: Optional[str] = None,
    ) -> Iterator[None]:
        stack = self._stack.names
        parent = stack[-1] if stack else None
        depth = len(stack)
        stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if observe is not None:
                self.registry.histogram(observe).observe(end - start)
            record = SpanRecord(
                name=name,
                start_us=int((start - self._epoch) * 1e6),
                dur_us=max(0, int((end - start) * 1e6)),
                tid=threading.get_ident() & 0xFFFFFFFF,
                depth=depth,
                parent=parent,
                category=category,
                args=args,
            )
            with self._lock:
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(record)
                else:
                    self._spans_dropped += 1

    @contextmanager
    def stage(self, name: str, **args: LabelValue) -> Iterator[None]:
        """A top-level pipeline stage: span + optional cProfile + snapshot.

        Stages (``build`` / ``run`` / ``report``) are the units the
        ``--profile DIR`` flag profiles and the ``--metrics`` sink
        snapshots after; they must not nest with each other.
        """
        if not self.enabled:
            yield
            return
        profiler = self._profiler
        with self._live_span(name, "stage", dict(args)):
            if profiler is None:
                yield
            else:
                with profiler.stage(name):
                    yield
        hook = self._stage_hook
        if hook is not None:
            hook(name)

    def span_snapshot(self) -> List[SpanRecord]:
        """A consistent copy of the closed spans recorded so far."""
        with self._lock:
            return list(self.spans)

    def snapshot(self) -> Dict[str, object]:
        """Registry snapshot plus recorder meta (spans kept separate)."""
        snap = self.registry.snapshot()
        snap["elapsed_seconds"] = self.elapsed_seconds()
        snap["n_spans"] = len(self.spans)
        snap["spans_dropped"] = self._spans_dropped
        snap["pid"] = os.getpid()
        return snap


class _NoopSpan(AbstractContextManager[None]):
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()

_RECORDER = Recorder()


def recorder() -> Recorder:
    """The process-wide recorder (one per interpreter, fork-inherited)."""
    return _RECORDER


# Module-level conveniences: the instrumentation call sites. ------------ #
def count(name: str, amount: float = 1.0, **labels: LabelValue) -> None:
    _RECORDER.count(name, amount, **labels)


def gauge_set(name: str, value: float, **labels: LabelValue) -> None:
    _RECORDER.gauge_set(name, value, **labels)


def observe(name: str, value: float, **labels: LabelValue) -> None:
    _RECORDER.observe(name, value, **labels)


def span(
    name: str,
    category: str = "repro",
    observe: Optional[str] = None,
    **args: LabelValue,
) -> ContextManager[None]:
    return _RECORDER.span(name, category, observe, **args)


def stage(name: str, **args: LabelValue) -> ContextManager[None]:
    return _RECORDER.stage(name, **args)
