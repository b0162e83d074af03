"""Determinism-safe observability: metrics, spans, traces, live progress.

``repro.obs`` is the one place in the tree that is allowed to read wall
clocks: everything else observes *through* it.  Metrics and spans are a
no-op unless a process explicitly enables the recorder (``repro run
--trace/--metrics/--profile``); status events reach only the sinks a
command subscribes (``--progress``, ``--webhook``).  The
package is deliberately excluded from
:data:`repro.store.fingerprint.PRODUCING_PACKAGES` and reprolint rule
O001 statically guarantees telemetry can never reach store canonicalizers
or store-key dataclasses — enabling observability must never change a
result payload or a store key (see ``docs/observability.md``).
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.obs.telemetry import (
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        Recorder,
        SpanRecord,
        recorder,
        span,
        stage,
    )


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Recorder",
    "SpanRecord",
    "recorder",
    "span",
    "stage",
]

__getattr__, __dir__ = attach(__name__)
