"""Per-layer tracing from outside the program.

``Tracer.installed()`` wraps the public entry points of each ``repro``
layer (the module attributes and methods in ``_TARGETS``) with timing
wrappers, so nothing under ``src/`` changes.  Spans stay in memory (name,
layer, start, end, parent, cell id) and are written once, at the end, as a
Chrome trace-event document through ``repro.obs.trace``.  A layer's self
time is its spans' durations minus the time their child spans cover.

A target that the program no longer has makes ``install()`` raise, so a
renamed entry point fails the traced run instead of reading 0.
"""

from __future__ import annotations

import importlib
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

# (module, attribute or Class.method, span name).  The span name's prefix
# before the first dot is the layer.
_TARGETS = (
    ("repro.config.run", "build_grid_scenarios", "config.build"),
    ("repro.config.run", "build_cases", "config.build"),
    ("repro.config.run", "build_periodic_setup", "config.build"),
    ("repro.config.run", "build_platform", "config.build"),
    ("repro.campaign.plan", "build_grid_scenarios", "config.build"),
    ("repro.campaign.plan", "build_cases", "config.build"),
    ("repro.config.build", "generate_mix", "workload.gen"),
    ("repro.config.build", "figure6_mix", "workload.gen"),
    ("repro.config.build", "generate_congested_moment", "workload.gen"),
    ("repro.experiments.comparison", "figure6_mix", "workload.gen"),
    ("repro.config.build", "sample_windows", "faults.windows"),
    ("repro.config.build", "sample_crashes", "faults.crashes"),
    ("repro.store.store", "ResultStore.get", "store.get"),
    ("repro.store.store", "ResultStore.put", "store.put"),
    ("repro.experiments.runner", "grid_cell_keys", "store.key"),
    ("repro.campaign.plan", "grid_cell_keys", "store.key"),
    ("repro.config.run", "digest", "store.key"),
    ("repro.config.run", "canonical_json", "store.key"),
    ("repro.config.run", "code_fingerprint", "store.key"),
    ("repro.config.run", "run_grid", "experiments.harness"),
    ("repro.config.run", "figure6_experiment", "experiments.harness"),
    ("repro.experiments.comparison", "run_grid", "experiments.harness"),
    ("repro.experiments.runner", "run_case", "experiments.cell"),
    ("repro.experiments.runner", "ExperimentExecutor.map", "experiments.dispatch"),
    ("repro.config.run", "search_period", "periodic.search"),
    ("repro.campaign.journal", "CampaignJournal.append", "campaign.journal"),
    ("repro.campaign.mailbox", "MailboxReader.poll", "campaign.poll"),
)

#: The engine dispatch table of the experiment runner; its values are the
#: public ``simulate``-compatible engine functions.
_ENGINE_TABLE = ("repro.experiments.runner", "_ENGINE_RUNNERS")


@dataclass
class Span:
    name: str
    start: float
    depth: int
    parent: Optional[int]
    cell: Optional[str]
    end: float = 0.0
    child_s: float = 0.0
    #: Scalar facts exported into the trace file.
    args: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class CapturedCell:
    """One in-process ``run_case`` call, kept for the reference re-check."""

    scenario: object
    case: object
    max_time: float
    result: object


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.cells: list[CapturedCell] = []
        self.epoch = time.perf_counter()
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------- #
    def _live(self) -> bool:
        # Forked campaign workers inherit the wrappers; they must not record.
        return os.getpid() == self._pid and threading.get_ident() == self._thread

    def open(self, name: str, cell: Optional[str] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = self.spans[parent].cell
        self.spans.append(Span(name, time.perf_counter(), len(self._stack), parent, cell))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start
        return span

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    # -- instrumentation ------------------------------------------------ #
    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._live():
                return fn(*args, **kwargs)
            cell = None
            if name == "experiments.cell":
                scenario, case = args[0], args[1]
                cell = f"{scenario.label}/{case.display}"
            index = tracer.open(name, cell)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(index)
            tracer._note(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _note(self, span: Span, args, kwargs, result) -> None:
        name = span.name
        if name == "simulator.run":
            span.args["events"] = int(result.n_events)
            span.args["apps"] = len(args[0].applications)
        elif name in ("faults.windows", "faults.crashes"):
            span.args["n"] = len(result)
        elif name == "store.get":
            span.args["hit"] = result is not None
        elif name == "store.put":
            span.args["bytes"] = os.path.getsize(result) if result is not None else 0
        elif name == "periodic.search":
            span.args["points"] = len(result.sweep)
            span.args["builds"] = int(result.n_builds)
        elif name == "campaign.poll":
            span.args["hit"] = bool(result)
        elif name == "experiments.cell":
            self.cells.append(CapturedCell(
                scenario=args[0], case=args[1],
                max_time=kwargs.get("max_time", float("inf")), result=result,
            ))

    def install(self) -> None:
        """Wrap every target; raise LookupError if one cannot be resolved."""
        try:
            for module_name, target, name in _TARGETS:
                owner: object = importlib.import_module(module_name)
                *classes, attr = target.split(".")
                for class_name in classes:
                    owner = getattr(owner, class_name)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, name))
                self._patches.append((owner, attr, original))
            table = getattr(importlib.import_module(_ENGINE_TABLE[0]), _ENGINE_TABLE[1])
            if not isinstance(table, dict) or not table:
                raise AttributeError(f"{'.'.join(_ENGINE_TABLE)} is not an engine table")
            for engine, original in list(table.items()):
                table[engine] = self._wrap(original, "simulator.run")
                self._patches.append((table, engine, original))
        except (ImportError, AttributeError) as exc:
            self.uninstall()
            raise LookupError(f"tracing target missing: {exc}") from exc

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- export --------------------------------------------------------- #
    def chrome_events(self) -> list:
        """The spans as ``repro.obs`` span records (for ``trace_events``)."""
        from repro.obs.telemetry import SpanRecord

        tid = self._thread & 0xFFFFFFFF
        records = []
        for span in self.spans:
            args = {k: v for k, v in span.args.items() if isinstance(v, (str, int, float, bool))}
            if span.cell is not None:
                args["cell"] = span.cell
            records.append(SpanRecord(
                name=span.name,
                start_us=max(0, int((span.start - self.epoch) * 1e6)),
                dur_us=max(0, int((span.end - span.start) * 1e6)),
                tid=tid,
                depth=span.depth,
                parent=self.spans[span.parent].name if span.parent is not None else None,
                category=span.layer,
                args=args,
            ))
        return records


def _self(spans: list[Span], *names: str) -> float:
    return sum(s.self_s for s in spans if s.name in names)


def _count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def cycle_metrics(spans: list[Span], cold: tuple[float, float]) -> dict:
    """Per-layer metrics of one traced cycle (a cold pass and its warm pass).

    ``cold`` is the (start, end) of the cycle's cold pass, the window that
    ``trace.unexplained_frac`` describes.
    """
    gets = [s for s in spans if s.name == "store.get"]
    puts = [s for s in spans if s.name == "store.put"]
    sims = [s for s in spans if s.name == "simulator.run"]
    searches = [s for s in spans if s.name == "periodic.search"]
    polls = [s for s in spans if s.name == "campaign.poll"]
    events = sum(s.args.get("events", 0) for s in sims)
    host_s = _self(spans, "simulator.run")
    points = sum(s.args.get("points", 0) for s in searches)
    builds = sum(s.args.get("builds", 0) for s in searches)
    start, end = cold
    covered = sum(
        s.end - s.start for s in spans
        if s.parent is None and s.start >= start and s.end <= end
    )
    return {
        "config.build_s": _self(spans, "config.build"),
        "workload.gen_s": _self(spans, "workload.gen"),
        "faults.sample_s": _self(spans, "faults.windows", "faults.crashes"),
        "faults.windows": sum(s.args.get("n", 0) for s in spans if s.name == "faults.windows"),
        "faults.crashes": sum(s.args.get("n", 0) for s in spans if s.name == "faults.crashes"),
        "store.gets": len(gets),
        "store.get_s": _self(spans, "store.get"),
        "store.hit_ratio": sum(1 for s in gets if s.args.get("hit")) / len(gets) if gets else 0.0,
        "store.puts": len(puts),
        "store.put_s": _self(spans, "store.put"),
        "store.bytes_written": sum(s.args.get("bytes", 0) for s in puts),
        "store.key_s": _self(spans, "store.key"),
        "experiments.cells": _count(spans, "experiments.cell"),
        "experiments.dispatch_s": _self(spans, "experiments.dispatch"),
        "experiments.harness_s": _self(spans, "experiments.harness", "experiments.cell"),
        "simulator.calls": len(sims),
        "simulator.host_s": host_s,
        "simulator.events": events,
        "simulator.us_per_event": host_s / events * 1e6 if events else 0.0,
        "simulator.apps_mean": statistics.fmean(s.args["apps"] for s in sims) if sims else 0.0,
        "periodic.search_s": _self(spans, "periodic.search"),
        "periodic.sweep_points": points,
        "periodic.builds": builds,
        "periodic.reuse_ratio": 1.0 - builds / points if points else 0.0,
        "campaign.run_s": _self(spans, "campaign.run"),
        "campaign.journal_appends": _count(spans, "campaign.journal"),
        "campaign.journal_s": _self(spans, "campaign.journal"),
        "campaign.polls": len(polls),
        "campaign.poll_hit_ratio": sum(1 for s in polls if s.args.get("hit")) / len(polls) if polls else 0.0,
        "report.write_s": _self(spans, "report.write"),
        "trace.unexplained_frac": max(0.0, 1.0 - covered / (end - start)),
    }


def cell_percentiles_ms(spans: list[Span]) -> tuple[float, float, int]:
    """Median and 90th percentile of ``run_case`` durations, and their count."""
    durations = sorted((s.end - s.start) * 1e3 for s in spans if s.name == "experiments.cell")
    if not durations:
        return 0.0, 0.0, 0
    if len(durations) == 1:
        return durations[0], durations[0], 1
    deciles = statistics.quantiles(durations, n=10, method="inclusive")
    return statistics.median(durations), deciles[8], len(durations)
