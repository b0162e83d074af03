"""Engine scaling — events/sec of the engine and the reference on identical timelines.

Not a paper figure: this is the perf-regression harness for the simulator
hot path.  Every cell simulates the same congested scenario with the
columnar engine and the preserved seed (reference) engine over the same
horizon, reports events/sec, and asserts that both traverse the identical
timeline.  The suite payload is written to ``BENCH_engine.json`` (override
with ``REPRO_BENCH_OUT``) so successive PRs can diff the trajectory.

``REPRO_BENCH_SCALE`` multiplies the per-cell event budget; scale 1 keeps
the whole suite around a minute on a laptop.
"""

from __future__ import annotations

import os

from conftest import run_once

from repro.experiments.scaling import (
    DEFAULT_GRID,
    run_scaling_suite,
    write_bench_json,
)


def test_engine_scaling_suite(benchmark, scale):
    def experiment():
        return run_scaling_suite(
            DEFAULT_GRID, events_budget=4000 * scale
        )

    payload = run_once(benchmark, experiment)
    out = write_bench_json(
        payload, os.environ.get("REPRO_BENCH_OUT", "BENCH_engine.json")
    )

    print()
    print("Engine scaling — events/sec (engine vs seed engine):")
    for cell in payload["cells"]:
        print(
            f"  {cell['n_apps']:4d} apps x {cell['n_instances']:3d} inst: "
            f"engine {cell['batched']['events_per_sec']:8.0f} ev/s, "
            f"seed {cell['reference']['events_per_sec']:8.0f} ev/s "
            f"-> {cell['batched_speedup']:.2f}x"
        )
    print(f"  payload written to {out}")

    # Both engines must walk the identical timeline in every cell, or the
    # events/sec ratios compare different simulations.
    assert all(cell["identical"] for cell in payload["cells"])
    # The headline claim on the 500-app x 100-instance cell: the engine
    # keeps its >= 15x over the seed engine.
    headline = next(
        c for c in payload["cells"] if (c["n_apps"], c["n_instances"]) == (500, 100)
    )
    assert headline["batched_speedup"] >= 15.0, (
        f"headline speedup {headline['batched_speedup']:.2f}x"
    )
    # No pessimization — but only judge cells that ran long enough for the
    # wall clock to mean something (millisecond cells are scheduler noise).
    assert all(
        cell["batched_speedup"] >= 1.0
        for cell in payload["cells"]
        if cell["reference"]["seconds"] >= 1.0
    )
