"""Declarations of every metric the benchmark emits, and their validation.

Each metric is declared once with its unit, value type and better
direction, in the style of hpcbench's ``Metric(unit=, type=)``.  The run
validates what it emits against these declarations, and ``steady.py``
checks that ``BENCHMARK.json`` declares the same names, units and
directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    doc: str
    type: type = float
    better: str = "lower"


END_TO_END = (
    Metric("cold_s", "s", "run_spec + write_result against an empty private store "
                          "(host-speed scaled, median of passes)"),
    Metric("warm_s", "s", "the same spec against the store its cold pass filled "
                          "(host-speed scaled, median of warm batches)"),
    Metric("setup_s", "s", "fresh interpreter to repro imported, spec parsed, code fingerprinted "
                           "(host-speed scaled, median)"),
    Metric("peak_rss_mb", "MiB", "peak resident memory of the measuring process and its workers"),
    Metric("ok_frac", "ratio", "1 - failed/attempted operations (cells and periodic studies)",
       better="higher"),
)

PER_LAYER = (
    Metric("config.parse_s", "s", "parse_spec of the workload spec"),
    Metric("config.build_s", "s", "self time of the config.build functions"),
    Metric("workload.gen_s", "s", "self time of the mix generators"),
    Metric("faults.sample_s", "s", "self time of sample_windows and sample_crashes"),
    Metric("faults.windows", "count", "brown-out windows sampled", type=int),
    Metric("faults.crashes", "count", "crashes sampled", type=int),
    Metric("store.gets", "count", "ResultStore.get calls", type=int),
    Metric("store.get_s", "s", "self time of ResultStore.get"),
    Metric("store.hit_ratio", "ratio", "gets that returned a payload / gets", better="higher"),
    Metric("store.puts", "count", "ResultStore.put calls", type=int),
    Metric("store.put_s", "s", "self time of ResultStore.put"),
    Metric("store.bytes_written", "bytes", "size of the entries put", type=int),
    Metric("store.key_s", "s", "self time of store-key derivation"),
    Metric("experiments.cells", "count", "run_case calls in the measuring process", type=int),
    Metric("experiments.cell_p50_ms", "ms", "median run_case duration over every traced cycle"),
    Metric("experiments.cell_p90_ms", "ms", "90th percentile run_case duration over every traced cycle"),
    Metric("experiments.cell_samples", "count", "run_case durations behind the percentiles",
       type=int, better="higher"),
    Metric("experiments.dispatch_s", "s", "self time of ExperimentExecutor.map"),
    Metric("experiments.harness_s", "s", "self time of run_grid, figure6_experiment and run_case"),
    Metric("simulator.calls", "count", "engine calls", type=int),
    Metric("simulator.host_s", "s", "self time of the engine calls"),
    Metric("simulator.events", "count", "engine events (exact)", type=int),
    Metric("simulator.us_per_event", "us", "simulator.host_s per event"),
    Metric("simulator.apps_mean", "count", "mean applications per simulated scenario"),
    Metric("periodic.search_s", "s", "self time of search_period"),
    Metric("periodic.sweep_points", "count", "period sweep points evaluated", type=int),
    Metric("periodic.builds", "count", "greedy schedule builds", type=int),
    Metric("periodic.reuse_ratio", "ratio", "1 - builds/sweep points", better="higher"),
    Metric("campaign.run_s", "s", "coordinator self time of run_campaign (leasing, waiting)"),
    Metric("campaign.journal_appends", "count", "coordinator journal appends", type=int),
    Metric("campaign.journal_s", "s", "self time of the journal appends"),
    Metric("campaign.polls", "count", "coordinator mailbox polls", type=int),
    Metric("campaign.poll_hit_ratio", "ratio", "polls that returned records / polls", better="higher"),
    Metric("campaign.cells_computed", "count", "cells computed by campaign workers", type=int),
    Metric("campaign.retries", "count", "cell retries", type=int),
    Metric("report.write_s", "s", "write_result"),
    Metric("report.payload_bytes", "bytes", "size of the written payload", type=int),
    Metric("setup.import_s", "s", "import of repro in a fresh interpreter (median)"),
    Metric("trace.cold_s", "s", "wall time of a traced cold pass"),
    Metric("trace.warm_s", "s", "wall time of a traced warm pass"),
    Metric("trace.overhead_ratio", "ratio", "traced / untraced cold pass"),
    Metric("trace.unexplained_frac", "ratio", "share of a traced cold pass outside every layer span"),
    Metric("obs.overhead_ratio", "ratio", "cold pass with the repro.obs recorder on / off"),
)


def validate(values: dict, declared: tuple[Metric, ...]) -> list[str]:
    """Errors in an emitted ``metrics`` object against its declarations."""
    errors = []
    for metric in declared:
        entry = values.get(metric.name)
        if entry is None:
            errors.append(f"{metric.name}: missing")
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{metric.name}: value {value!r} is not a number")
        elif metric.type is int and value != int(value):
            errors.append(f"{metric.name}: {value!r} is not a whole count")
        elif not math.isfinite(value) or value < 0:
            errors.append(f"{metric.name}: {value!r} is not a finite non-negative number")
    return errors


def emit(values: dict, declared: tuple[Metric, ...]) -> dict:
    """``{name: {"value": v, "unit": u}}`` in declaration order."""
    out = {}
    for metric in declared:
        if metric.name in values:
            value = values[metric.name]
            out[metric.name] = {
                "value": int(value) if metric.type is int else float(value),
                "unit": metric.unit,
            }
    return out
