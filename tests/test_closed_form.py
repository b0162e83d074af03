"""Closed-form timings that do not come from an engine.

The equivalence suites check the kernels against the reference engine;
these check all three against the execution model of Section 2.1 itself,
on shapes simple enough to solve by hand:

* a lone application transfers at ``min(beta * b, B)``, so each of its I/O
  phases lasts ``volume / min(beta * b, B)`` and starts when its compute
  phase ends;
* ``k`` identical applications released together under ideal fair sharing,
  with ``k * beta * b > B``, each receive ``B / k`` and finish their first
  I/O at ``release + work + k * volume / B``.

The closed forms do not follow the engines' rounding order, so they hold
to a relative 1e-12, not bit for bit.
"""

from __future__ import annotations

import pytest

from repro.core.application import Application
from repro.core.platform import Platform
from repro.core.scenario import Scenario
from repro.online.baselines import FCFS, FairShare
from repro.online.heuristics import MaxSysEff, MinMaxGamma
from repro.online.priority import Priority
from repro.simulator.engine import simulate
from repro.simulator.interference import NO_INTERFERENCE
from repro.simulator.reference import reference_simulate

pytestmark = pytest.mark.usefixtures("engine_kernel")

REL = 1e-12

ENGINES = pytest.mark.parametrize(
    "engine", [simulate, reference_simulate], ids=["native", "reference"]
)

SCHEDULERS = {
    "FCFS": FCFS,
    "MaxSysEff": MaxSysEff,
    "Priority-MinMax-0.5": lambda: Priority(MinMaxGamma(0.5)),
    "FairShare": lambda: FairShare(interference=NO_INTERFERENCE),
}


@ENGINES
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize(
    "processors, system_bandwidth",
    # beta * b below B (the node cards limit), then above it (the back-end).
    [(12, 3.7e7), (120, 4.3e7)],
)
def test_lone_application_transfers_at_its_peak(
    engine, scheduler, processors, system_bandwidth
):
    platform = Platform("closed-form", 200, 1.3e6, system_bandwidth)
    app = Application.periodic(
        name="solo", processors=processors, work=41.3, io_volume=2.9e9,
        n_instances=4, release_time=5.5,
    )
    result = engine(
        Scenario(platform=platform, applications=(app,)), SCHEDULERS[scheduler]()
    )
    rate = min(processors * platform.node_bandwidth, platform.system_bandwidth)
    instances = result.records["solo"].instances
    assert len(instances) == 4
    for inst in instances:
        assert inst.io_first_transfer == pytest.approx(inst.compute_end, rel=REL)
        assert inst.io_end - inst.compute_end == pytest.approx(
            2.9e9 / rate, rel=REL
        )


@ENGINES
@pytest.mark.parametrize("k", [2, 3, 7])
def test_identical_applications_share_the_back_end(engine, k):
    platform = Platform("closed-form", 1000, 1.1e6, 2.3e7)
    processors = 40  # k * 40 * 1.1e6 > 2.3e7 for every k >= 1
    assert k * processors * platform.node_bandwidth > platform.system_bandwidth
    apps = tuple(
        Application.periodic(
            name=f"app{j}", processors=processors, work=17.9, io_volume=3.7e9,
            n_instances=2, release_time=2.25,
        )
        for j in range(k)
    )
    result = engine(
        Scenario(platform=platform, applications=apps),
        FairShare(interference=NO_INTERFERENCE),
    )
    expected = 2.25 + 17.9 + k * 3.7e9 / platform.system_bandwidth
    for app in apps:
        first = result.records[app.name].instances[0]
        assert first.io_end == pytest.approx(expected, rel=REL), app.name
