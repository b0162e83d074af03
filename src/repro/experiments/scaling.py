"""Engine-scaling microbenchmark: events/sec of the simulator hot path.

The paper's campaigns replay thousands of (scenario × scheduler) cells, so
the events-per-second throughput of the discrete-event engine bounds every
experiment in this repository.  This module builds synthetic congested
scenarios of controlled size, times the engine
(:mod:`repro.simulator.engine`) against the preserved seed engine
(:mod:`repro.simulator.reference`) on identical windows, and emits a
machine-readable payload (``BENCH_engine.json``) that future PRs diff to
track the performance trajectory.

Two entry points consume it:

* ``benchmarks/bench_engine_scaling.py`` — the pytest-benchmark harness;
* ``benchmarks/run_bench.py`` — a one-command CLI suitable for a CI perf job.

Methodology
-----------
Each cell simulates the *same* scenario under the *same* scheduler with both
engines, truncated at the same ``max_time`` horizon (chosen so a cell stays
benchmark-sized even at 500 applications × 100 instances — a full run of the
largest cell takes minutes on the seed engine, which is exactly the problem
the optimized engine addresses).  Both engines traverse the identical event
timeline — the suite asserts equal event counts and makespans, piggybacking a
coarse equivalence check onto every benchmark run — so events/sec ratios
compare like with like.
"""

from __future__ import annotations

import platform as _platform
import time
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.core.application import Application
from repro.core.platform import Platform
from repro.core.scenario import Scenario
from repro.obs.telemetry import recorder as _obs_recorder
from repro.online.registry import make_scheduler
from repro.simulator.engine import SimulatorConfig, simulate
from repro.simulator.metrics import SimulationResult
from repro.simulator.reference import reference_simulate
from repro.utils.validation import ValidationError, check_positive

__all__ = [
    "DEFAULT_GRID",
    "scaling_scenario",
    "cell_horizon",
    "measure_cell",
    "run_scaling_suite",
    "run_bench_cli",
    "write_bench_json",
]

#: Process-wide telemetry funnel; bench status events go through it.
_OBS = _obs_recorder()

#: The (n_apps, n_instances) cells of the scaling grid.  500 × 100 is the
#: headline cell: large enough that the seed engine's O(n_apps × n_instances)
#: per-event cost dominates, small enough to stay benchmark-sized.  55 is
#: Figure 6's widest mix (50small5large): the widest cells the scalar kernel
#: runs; the 100- and 500-app cells run the columnar kernel.
DEFAULT_GRID: tuple[tuple[int, int], ...] = (
    (10, 10),
    (10, 100),
    (55, 10),
    (55, 100),
    (100, 10),
    (100, 100),
    (500, 10),
    (500, 100),
)

#: Scenario shape knobs: every application owns this many processors, and the
#: back-end is sized so the aggregate demand oversubscribes it 3× — sustained
#: congestion, the regime the paper's heuristics (and the engine) live in.
_PROCS_PER_APP = 8
_OVERSUBSCRIPTION = 3.0


def scaling_scenario(
    n_apps: int,
    n_instances: int,
    *,
    seed: int = 2015,
) -> Scenario:
    """A congested synthetic scenario with ``n_apps × n_instances`` shape.

    Applications are periodic (the paper's dominant pattern) with randomized
    work lengths, I/O volumes around 50 s of dedicated transfer time, and
    staggered releases, so the engine sees a realistic mix of release,
    compute-completion and I/O events under steady 3× back-end congestion.
    Deterministic in ``seed``.
    """
    check_positive("n_apps", n_apps)
    check_positive("n_instances", n_instances)
    rng = np.random.default_rng(seed)
    node_bw = 1e6
    system_bw = n_apps * _PROCS_PER_APP * node_bw / _OVERSUBSCRIPTION
    plat = Platform(
        name=f"bench-{n_apps}x{n_instances}",
        total_processors=n_apps * _PROCS_PER_APP,
        node_bandwidth=node_bw,
        system_bandwidth=system_bw,
    )
    peak = _PROCS_PER_APP * node_bw
    apps = tuple(
        Application.periodic(
            name=f"app-{i:04d}",
            processors=_PROCS_PER_APP,
            work=float(rng.uniform(30.0, 90.0)),
            io_volume=float(rng.uniform(0.5, 1.5)) * 50.0 * peak,
            n_instances=n_instances,
            release_time=float(rng.uniform(0.0, 60.0)),
        )
        for i in range(n_apps)
    )
    return Scenario(
        platform=plat,
        applications=apps,
        label=f"scaling-{n_apps}x{n_instances}",
        metadata={"seed": seed, "oversubscription": _OVERSUBSCRIPTION},
    )


def cell_horizon(scenario: Scenario, events_budget: int) -> float:
    """A ``max_time`` horizon producing roughly ``events_budget`` events.

    Under sustained congestion one "round" (every application completing one
    instance) takes about ``mean_work + n_apps * mean_volume / B`` seconds
    and costs about 2.5 events per application (compute end, I/O completion,
    and the odd release / reallocation split).  The estimate only has to be
    in the right ballpark — both engines are always measured over the same
    horizon, so the comparison is exact even when the budget is not.
    """
    check_positive("events_budget", events_budget)
    apps = scenario.applications
    n_apps = len(apps)
    mean_work = float(np.mean([app.instances[0].work for app in apps]))
    mean_vol = float(np.mean([app.instances[0].io_volume for app in apps]))
    round_seconds = mean_work + n_apps * mean_vol / scenario.platform.system_bandwidth
    rounds = events_budget / (2.5 * n_apps)
    rounds = max(1.0, min(float(apps[0].n_instances), rounds))
    release_span = max(app.release_time for app in apps)
    return release_span + rounds * round_seconds


def _timed(
    runner: Callable[..., SimulationResult],
    scenario: Scenario,
    scheduler_name: str,
    max_time: float,
) -> dict:
    scheduler = make_scheduler(scheduler_name)
    config = SimulatorConfig(max_time=max_time)
    start = time.perf_counter()
    result = runner(scenario, scheduler, config)
    seconds = time.perf_counter() - start
    return {
        "n_events": result.n_events,
        "seconds": seconds,
        "events_per_sec": result.n_events / seconds if seconds > 0 else float("inf"),
        "makespan": result.makespan,
    }


def measure_cell(
    n_apps: int,
    n_instances: int,
    *,
    scheduler: str = "MaxSysEff",
    seed: int = 2015,
    events_budget: int = 4000,
    include_reference: bool = True,
) -> dict:
    """Time one grid cell on the engine (and the reference oracle).

    Returns a JSON-ready mapping with ``n_events`` / ``seconds`` /
    ``events_per_sec`` per engine run (key ``batched`` for the engine —
    the historical name, kept so BENCH diffs stay readable — and
    ``reference`` for the oracle).  When the reference runs, the mapping
    also holds the ``batched_speedup`` ratio and an ``identical`` flag
    (equal event counts and makespans — both engines must traverse the same
    timeline or the ratio is meaningless).
    """
    scenario = scaling_scenario(n_apps, n_instances, seed=seed)
    max_time = cell_horizon(scenario, events_budget)
    cell: dict = {
        "n_apps": n_apps,
        "n_instances": n_instances,
        "scheduler": scheduler,
        "seed": seed,
        "max_time": max_time,
        "batched": _timed(simulate, scenario, scheduler, max_time),
    }
    if include_reference:
        engine = cell["batched"]
        reference = cell["reference"] = _timed(
            reference_simulate, scenario, scheduler, max_time
        )
        cell["batched_speedup"] = (
            engine["events_per_sec"] / reference["events_per_sec"]
        )
        cell["identical"] = (
            engine["n_events"] == reference["n_events"]
            and engine["makespan"] == reference["makespan"]
        )
    return cell


def run_scaling_suite(
    grid: Sequence[tuple[int, int]] = DEFAULT_GRID,
    *,
    scheduler: str = "MaxSysEff",
    seed: int = 2015,
    events_budget: int = 4000,
    include_reference: bool = True,
) -> dict:
    """Measure every cell of ``grid`` and assemble the benchmark payload.

    The payload is what ``BENCH_engine.json`` serializes: suite-level
    metadata plus one entry per cell (see :func:`measure_cell`).  Each
    measured cell emits one ``bench`` status event.
    """
    if not grid:
        raise ValidationError("run_scaling_suite needs at least one grid cell")
    cells = []
    for n_apps, n_instances in grid:
        cell = measure_cell(
            n_apps,
            n_instances,
            scheduler=scheduler,
            seed=seed,
            events_budget=events_budget,
            include_reference=include_reference,
        )
        cells.append(cell)
        if _OBS.sinks:
            line = (
                f"{n_apps:4d} apps x {n_instances:3d} inst: "
                f"engine {cell['batched']['events_per_sec']:8.0f} ev/s"
            )
            if include_reference:
                line += (
                    f"  (reference {cell['reference']['events_per_sec']:8.0f} ev/s, "
                    f"speedup {cell['batched_speedup']:.2f}x)"
                )
            _OBS.event("bench", step="engine-cell", n_apps=n_apps, message=line)
    return {
        "benchmark": "engine_scaling",
        "scheduler": scheduler,
        "seed": seed,
        "events_budget": events_budget,
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "cells": cells,
    }


def run_bench_cli(
    *,
    out: str = "BENCH_engine.json",
    scale: int = 1,
    scheduler: str = "MaxSysEff",
    include_reference: bool = True,
    error: Optional[Callable[[str], None]] = None,
    grid_out: Optional[str] = "BENCH_grid.json",
    include_engine: bool = True,
) -> int:
    """Shared driver behind ``repro bench`` and ``benchmarks/run_bench.py``.

    Runs the engine-scaling suite (event budget ``4000 * scale``; ``scale``
    and ``scheduler`` are validated up front, raising ``ValidationError``)
    and the end-to-end grid benchmark
    (:func:`repro.experiments.grid_bench.run_grid_bench` — serial vs pooled
    spec runs plus the sharded campaign), writing ``out`` and
    ``grid_out`` respectively.  ``grid_out=None`` skips the grid half;
    ``include_engine=False`` skips the engine half.  The suites' ``bench``
    status events and the written paths are printed to stdout.

    Returns the process exit status: 0 on success, 1 when any ``identical``
    flag in either payload is false — a determinism regression (the
    engine diverged from the reference timeline, or a pooled or sharded
    run diverged from serial).  ``error`` receives the mismatch report
    (defaults to stderr).
    """
    import sys

    if error is None:
        error = lambda message: print(message, file=sys.stderr)  # noqa: E731
    if scale < 1:
        raise ValidationError(f"scale must be >= 1, got {scale}")
    try:
        make_scheduler(scheduler)
    except (KeyError, ValueError) as exc:
        # Fail before the (slow) suite runs, with a friendly message both
        # entry points (`repro bench`, benchmarks/run_bench.py) can print.
        message = exc.args[0] if exc.args else str(exc)
        raise ValidationError(f"scheduler: {message}") from exc

    status = 0
    with _OBS.subscribed(_print_bench_event):
        if include_engine:
            payload = run_scaling_suite(
                scheduler=scheduler,
                events_budget=4000 * scale,
                include_reference=include_reference,
            )
            print(f"wrote {write_bench_json(payload, out)}")
            broken = [
                f"{c['n_apps']}x{c['n_instances']}"
                for c in payload["cells"]
                if c.get("identical") is False
            ]
            if broken:
                error(
                    f"ENGINE MISMATCH on cells: {', '.join(broken)} — the "
                    "engine no longer reproduces the reference timeline"
                )
                status = 1

        if grid_out is not None:
            from repro.experiments.grid_bench import grid_bench_broken, run_grid_bench

            grid_payload = run_grid_bench(scale=scale)
            print(f"wrote {write_bench_json(grid_payload, grid_out)}")
            broken = grid_bench_broken(grid_payload)
            if broken:
                error(
                    f"GRID MISMATCH on: {', '.join(broken)} — a pooled or "
                    "sharded run no longer reproduces the serial results"
                )
                status = 1
    return status


def _print_bench_event(event: str, message: str = "", **fields: object) -> None:
    """The stdout sink of :func:`run_bench_cli`: one line per bench event."""
    if event == "bench":
        print(message)


def write_bench_json(payload: Mapping, path: str = "BENCH_engine.json") -> str:
    """Serialize a suite payload to ``path`` (pretty-printed) and return it.

    Delegates to :func:`repro.experiments.reporting.write_json`: parent
    directories are created (a fresh checkout can write straight to e.g.
    ``perf/BENCH_engine.json`` without losing a finished run) and
    non-finite floats are made strict-JSON safe.
    """
    from repro.experiments.reporting import write_json

    return str(write_json(payload, path))
