"""Engine-scaling benchmark: events/sec of the simulator hot path.

The paper's campaigns replay thousands of (scenario × scheduler) cells, so
the events-per-second throughput of the discrete-event engine bounds every
experiment in this repository.  This module builds synthetic congested
scenarios of controlled size, times the engine
(:mod:`repro.simulator.engine`) against the preserved seed engine
(:mod:`repro.simulator.reference`) on identical windows, and assembles the
``BENCH_engine.json`` payload that ``benchmarks/perf_compare.py`` gates
against.  ``benchmarks/run_bench.py`` drives it.

Methodology
-----------
Each cell simulates the *same* scenario under MaxSysEff with both engines,
truncated at the same ``max_time`` horizon (chosen so a cell stays
benchmark-sized even at 500 applications × 100 instances — a full run of
the largest cell takes minutes on the seed engine).  Both engines traverse
the identical event timeline — every cell checks equal event counts and
makespans — so events/sec ratios compare like with like.

The engine/reference pair runs :data:`REPEATS` times, interleaved, and the
cell records the median ratio plus its min/max: one pair's ratio moves by
tens of percent with whatever else the host is doing, and a median of
interleaved pairs is what a fixed noise band can be held against.
"""

from __future__ import annotations

import os
import platform as _platform
import statistics
import time
from typing import Callable

import numpy as np

from repro.core.application import Application
from repro.core.platform import Platform
from repro.core.scenario import Scenario
from repro.online.registry import make_scheduler
from repro.simulator.engine import SimulatorConfig, simulate
from repro.simulator.metrics import SimulationResult
from repro.simulator.reference import reference_simulate
from repro.utils.validation import check_positive

#: The (n_apps, n_instances) cells of the scaling grid.  500 × 100 is the
#: headline cell: large enough that the seed engine's O(n_apps × n_instances)
#: per-event cost dominates, small enough to stay benchmark-sized.  55 is
#: Figure 6's widest mix (50small5large): the widest cells the scalar kernel
#: runs; the 100- and 500-app cells run the columnar kernel.
GRID: tuple[tuple[int, int], ...] = (
    (10, 10),
    (10, 100),
    (55, 10),
    (55, 100),
    (100, 10),
    (100, 100),
    (500, 10),
    (500, 100),
)

#: The one scheduler every cell runs, and the scenarios' seed (the payload
#: records both).
SCHEDULER = "MaxSysEff"
SEED = 2015

#: Interleaved engine/reference pairs timed per cell.
REPEATS = 3

#: Scenario shape knobs: every application owns this many processors, and the
#: back-end is sized so the aggregate demand oversubscribes it 3× — sustained
#: congestion, the regime the paper's heuristics (and the engine) live in.
_PROCS_PER_APP = 8
_OVERSUBSCRIPTION = 3.0


def scaling_scenario(
    n_apps: int,
    n_instances: int,
    *,
    seed: int = SEED,
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
    runner: Callable[..., SimulationResult], scenario: Scenario, max_time: float
) -> tuple[float, SimulationResult]:
    scheduler = make_scheduler(SCHEDULER)
    config = SimulatorConfig(max_time=max_time)
    start = time.perf_counter()
    result = runner(scenario, scheduler, config)
    return time.perf_counter() - start, result


def _engine_entry(seconds: list[float], result: SimulationResult) -> dict:
    median = statistics.median(seconds)
    return {
        "n_events": result.n_events,
        "seconds": median,
        "events_per_sec": result.n_events / median if median > 0 else float("inf"),
        "makespan": result.makespan,
    }


def measure_cell(n_apps: int, n_instances: int, events_budget: int) -> dict:
    """Time one grid cell on the engine and the reference oracle.

    Returns a JSON-ready mapping with the median ``n_events`` / ``seconds``
    / ``events_per_sec`` of each engine's :data:`REPEATS` runs (key
    ``batched`` for the engine — the historical name, kept so BENCH diffs
    stay readable — and ``reference`` for the oracle), the median
    ``batched_speedup`` of the interleaved pairs with its ``speedup_min`` /
    ``speedup_max``, and an ``identical`` flag: every run of both engines
    has the same event count and makespan, or the ratio is meaningless.
    """
    scenario = scaling_scenario(n_apps, n_instances, seed=SEED)
    max_time = cell_horizon(scenario, events_budget)
    engine_seconds, reference_seconds, results = [], [], []
    for _ in range(REPEATS):
        seconds, engine = _timed(simulate, scenario, max_time)
        engine_seconds.append(seconds)
        seconds, reference = _timed(reference_simulate, scenario, max_time)
        reference_seconds.append(seconds)
        results += [engine, reference]
    ratios = [ref / eng for eng, ref in zip(engine_seconds, reference_seconds)]
    first = results[0]
    return {
        "n_apps": n_apps,
        "n_instances": n_instances,
        "seed": SEED,
        "max_time": max_time,
        "repeats": REPEATS,
        "batched": _engine_entry(engine_seconds, first),
        "reference": _engine_entry(reference_seconds, results[1]),
        "batched_speedup": statistics.median(ratios),
        "speedup_min": min(ratios),
        "speedup_max": max(ratios),
        "identical": all(
            (r.n_events, r.makespan) == (first.n_events, first.makespan)
            for r in results
        ),
    }


def run_engine_bench(events_budget: int) -> dict:
    """Measure every cell of :data:`GRID`, printing one line per cell, and
    assemble the ``BENCH_engine.json`` payload."""
    cells = []
    for n_apps, n_instances in GRID:
        cell = measure_cell(n_apps, n_instances, events_budget)
        cells.append(cell)
        print(
            f"{n_apps:4d} apps x {n_instances:3d} inst: "
            f"engine {cell['batched']['events_per_sec']:8.0f} ev/s  "
            f"(reference {cell['reference']['events_per_sec']:8.0f} ev/s, "
            f"speedup {cell['batched_speedup']:.2f}x, "
            f"range {cell['speedup_min']:.2f}-{cell['speedup_max']:.2f}x)",
            flush=True,
        )
    return {
        "benchmark": "engine_scaling",
        "scheduler": SCHEDULER,
        "seed": SEED,
        "events_budget": events_budget,
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "cpu_count": os.cpu_count(),
        "cells": cells,
    }
