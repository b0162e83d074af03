"""The benchmark's workloads: one spec dict per (workload, seed).

The benchmark owns these generators; the program under test only ever
receives the spec dict they return (through ``parse_spec``).  Sizes are
fixed per workload and the seed only changes the random draws, so a run's
cost does not depend on its seed.  See README.md for
why each workload exists.
"""

from __future__ import annotations

import random

#: Seed used when ``--seed`` is not given; its payloads are pinned below.
DEFAULT_SEED = 1

#: SHA-256 of each workload's written payload for ``DEFAULT_SEED``.  A
#: change to any of these is a change to the program's results.
PINNED_SHA256 = {
    "fig6-wide": "5105d0eb17ecbc4b08b9e9b22d4ce24c2262cfa375145345d716f869ae6a023a",
    "faulted-fleet": "5b2914ba1fbd4f6a891dbc162e489568108a84fd9c2a160ee963515e51f04191",
    "periodic-sweep": "7c1589008c9df3107fd347f3bcffa517fba462e5fb5527136fcc4151cde27fea",
    "sharded-campaign": "43f243c0bf53f178533a4ae7fa06070f4ecc4574227ae4fa61d6afc798c0311d",
}

#: The 2-worker campaign workload shards the fleet grid at this size.
CAMPAIGN_REPETITIONS = 4
FLEET_REPETITIONS = 6

FIGURE6_SERIES = [
    "RoundRobin", "Priority-RoundRobin",
    "MinDilation", "Priority-MinDilation",
    "MaxSysEff", "Priority-MaxSysEff",
    "MinMax-0.5", "Priority-MinMax-0.5",
]

#: Periodic application template: (processors, work s, io bytes, instances).
#: The seed shuffles the applications and moves each instance count by up
#: to 2, which changes the online half and the payload but not the cost of
#: the period sweep.  Seeded category mixes, and even 2% jitter on work and
#: volume, made the sweep cost vary 1.7x to 5x from seed to seed.
PERIODIC_TEMPLATE = [
    (120, 180.0, 2.4e9, 6), (80, 90.0, 1.6e9, 8), (150, 420.0, 3.0e9, 4),
    (50, 60.0, 8.0e8, 10), (100, 240.0, 2.0e9, 5), (60, 120.0, 1.2e9, 8),
    (90, 300.0, 2.8e9, 4), (40, 75.0, 6.0e8, 10),
]


def _fig6_wide(seed: int) -> dict:
    return {
        "experiment": {
            "name": "fig6-wide", "kind": "figure6", "seed": seed,
            "max_time": 1000.0, "workers": 1,
        },
        "figure6": {
            "panels": ["50small5large-20", "50small5large-35"],
            # 8 mixes per panel keep the seed-to-seed spread of the event
            # count near 3% (4 mixes gave 13%).
            "n_repetitions": 8,
            "schedulers": FIGURE6_SERIES,
        },
    }


def _fleet(name: str, seed: int, repetitions: int) -> dict:
    return {
        "experiment": {
            "name": name, "kind": "grid", "seed": seed,
            "max_time": 40000.0, "workers": 1,
        },
        "platform": {"preset": "mira", "scale": 0.0625, "name": "mira-rack"},
        "scenarios": [
            {"kind": "mix", "label": "narrow4", "small": 3, "large": 1,
             "repetitions": repetitions},
            {"kind": "mix", "label": "narrow8", "small": 6, "large": 2,
             "repetitions": repetitions},
        ],
        "faults": {
            "baseline": True,
            "random_windows": {"rate": 1.25e-4, "duration": 600.0, "factor": 0.2},
            "random_crashes": {"rate": 5.0e-5, "checkpoint_io": 1.2e12},
        },
        "schedulers": {"names": ["FairShare", "FCFS", "MaxSysEff", "MinDilation"]},
    }


def _periodic_sweep(seed: int) -> dict:
    rng = random.Random(seed)
    apps = [
        {"name": f"app{i:02d}", "processors": processors, "work": work,
         "io_volume": volume, "instances": instances + rng.randint(-2, 2)}
        for i, (processors, work, volume, instances) in enumerate(PERIODIC_TEMPLATE)
    ]
    rng.shuffle(apps)
    return {
        "experiment": {"name": "periodic-sweep", "kind": "periodic", "seed": seed, "workers": 1},
        "periodic": {
            "heuristics": ["throughput", "congestion"],
            "online": ["MaxSysEff", "MinDilation"],
            # 1.02 steps over a 4x range give 72 sweep points, above the
            # 32-point threshold that turns on warm-start reuse.
            "epsilon": 0.02,
            "max_period_factor": 4.0,
            "apps": apps,
            "platform": {
                "preset": "generic", "processors": 1600, "node_bandwidth": 1.0e6,
                "system_bandwidth": 4.0e7, "name": "steady-state",
            },
        },
    }


WORKLOADS = {
    "fig6-wide": _fig6_wide,
    "faulted-fleet": lambda seed: _fleet("faulted-fleet", seed, FLEET_REPETITIONS),
    "periodic-sweep": _periodic_sweep,
    "sharded-campaign": lambda seed: _fleet("sharded-campaign", seed, CAMPAIGN_REPETITIONS),
}

#: Workloads run through ``run_campaign`` instead of ``run_spec``.
CAMPAIGN_WORKLOADS = frozenset({"sharded-campaign"})
CAMPAIGN_WORKERS = 2

#: Workloads whose cells go through ``run_case`` in the measuring process
#: (for the campaign, in its serial reference run).
CELL_WORKLOADS = frozenset({"fig6-wide", "faulted-fleet", "sharded-campaign"})


def spec_data(workload: str, seed: int) -> dict:
    """The spec dict of one workload for one seed."""
    return WORKLOADS[workload](seed)
