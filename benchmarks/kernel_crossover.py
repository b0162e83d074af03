#!/usr/bin/env python
"""Per-width kernel crossover: µs per event of each native engine kernel.

``Simulator.run`` runs scenarios of at most ``engine._SCALAR_MAX_APPS``
applications on the scalar kernel and wider ones on the columnar kernel.
This script measures the evidence behind that constant and prints the two
tables of ``docs/performance.md`` as Markdown:

1. MaxSysEff at each width, for each instance count: the scalar and
   columnar µs per event and their ratio (columnar / scalar, above 1 when
   the scalar kernel is faster);
2. every policy family at the first instance count: the same ratio per
   width.

Each cell runs the synthetic scaling scenario of
``benchmarks/engine_bench.py`` (3× oversubscribed, so about two thirds of
the applications are I/O candidates at once) up to ``cell_horizon``'s
event budget, on each kernel in turn (interleaved, ``REPEATS`` times),
by moving the crossover the way the ``engine_kernel`` test fixture does;
the cell reports the medians.  The last line applies the rule that chose
the constant: the widest width up to which no policy runs more than 10%
slower on the scalar kernel.

    PYTHONPATH=src python benchmarks/kernel_crossover.py

The tables' inputs are the module constants below.  Exit status 1 when the
two kernels disagree on a cell's event count or makespan (a correctness
regression, not a slow run).
"""

from __future__ import annotations

import math
import statistics
import sys
import time

from engine_bench import cell_horizon, scaling_scenario
from repro.online.registry import make_scheduler
from repro.simulator import engine

WIDTHS = (4, 8, 16, 32, 55, 64, 80, 100, 128, 160, 500)
FAMILY_WIDTHS = (32, 55, 64, 80, 100, 128)
POLICIES = ("MaxSysEff", "MinDilation", "RoundRobin", "Priority-MinMax-0.5", "FairShare")
INSTANCES = (100, 10)  # table 2 uses the first
EVENTS = 4000  # event budget per run
REPEATS = 9  # interleaved runs per kernel and cell

#: The rule: the scalar kernel may run at most this much slower per event.
SLOWDOWN = 1.10


def measure(policy: str, n_apps: int, n_instances: int):
    """Median µs per event of the (scalar, columnar) kernels on one cell,
    and whether every run of both walked the same timeline."""
    scenario = scaling_scenario(n_apps, n_instances)
    config = engine.SimulatorConfig(max_time=cell_horizon(scenario, EVENTS))
    timings: dict[str, list[float]] = {"scalar": [], "columnar": []}
    outcomes = set()
    saved = engine._SCALAR_MAX_APPS
    try:
        for _ in range(REPEATS):
            for kernel, crossover in (("scalar", math.inf), ("columnar", 0)):
                engine._SCALAR_MAX_APPS = crossover
                scheduler = make_scheduler(policy)
                start = time.perf_counter()
                result = engine.simulate(scenario, scheduler, config)
                seconds = time.perf_counter() - start
                timings[kernel].append(seconds / result.n_events * 1e6)
                outcomes.add((result.n_events, result.makespan))
    finally:
        engine._SCALAR_MAX_APPS = saved
    return (
        statistics.median(timings["scalar"]),
        statistics.median(timings["columnar"]),
        len(outcomes) == 1,
    )


def crossover_rule(ratios: dict[int, list[float]]) -> int | None:
    """The widest width up to which every policy's columnar / scalar ratio
    stays at or above ``1 / SLOWDOWN`` (``None`` if the narrowest fails)."""
    chosen = None
    for width in sorted(ratios):
        if min(ratios[width]) < 1.0 / SLOWDOWN:
            break
        chosen = width
    return chosen


def main() -> int:
    status = 0
    print("µs per event, MaxSysEff; ratio = columnar / scalar\n")
    header = "| apps |" + "".join(
        f" × {n} inst: scalar | columnar | ratio |" for n in INSTANCES
    )
    print(header)
    print("|-----:|" + "------:|------:|------:|" * len(INSTANCES))
    for width in WIDTHS:
        row = f"| {width:4d} |"
        for n_instances in INSTANCES:
            scalar, columnar, same = measure("MaxSysEff", width, n_instances)
            status |= not same
            row += f" {scalar:5.1f} | {columnar:5.1f} | {columnar / scalar:.2f}x |"
        print(row, flush=True)

    n_instances = INSTANCES[0]
    print(f"\ncolumnar / scalar, {n_instances} instances\n")
    print("| policy |" + "".join(f" {w} apps |" for w in FAMILY_WIDTHS))
    print("|--------|" + "--------:|" * len(FAMILY_WIDTHS))
    ratios: dict[int, list[float]] = {w: [] for w in FAMILY_WIDTHS}
    for policy in POLICIES:
        row = f"| {policy} |"
        for width in FAMILY_WIDTHS:
            scalar, columnar, same = measure(policy, width, n_instances)
            status |= not same
            ratios[width].append(columnar / scalar)
            row += f" {columnar / scalar:.2f}x |"
        print(row, flush=True)

    chosen = crossover_rule(ratios)
    print(
        f"\nrule (scalar at most {SLOWDOWN - 1:.0%} slower per event on every "
        f"policy): widest width {chosen}"
    )
    if status:
        print("error: the kernels disagreed on a cell's timeline", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
