"""Property-based differential fuzzing of the engine against its oracle.

:mod:`repro.simulator.reference` (the seed oracle) and
:mod:`repro.simulator.engine` (both of its native kernels, scalar and
columnar) claim to produce *bit-identical* results — not merely
tolerance-level agreement.  These tests put that claim under hypothesis:
random application mixes, schedulers, burst-buffer configurations and
fault tables (brown-out windows, blackouts, crashes) are generated, run
through both engines, and every comparable output — per-application
records, makespans, fault counters, burst-buffer stats and full event
logs — is asserted exactly equal.

When a case fails, hypothesis shrinks it: the falsifying example printed
by the test is the *minimal* scenario (fewest apps / instances, smallest
times) that still separates the engines, which is exactly the repro one
wants when debugging a kernel divergence.

The suite is skipped wholesale when hypothesis is not installed (the
bench-smoke CI job installs numpy only); `tests/test_engine_equivalence.py`
keeps a deterministic floor of coverage in that case.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.application import Application  # noqa: E402
from repro.core.events import EventLog  # noqa: E402
from repro.core.platform import BurstBufferSpec, Platform  # noqa: E402
from repro.core.scenario import Scenario  # noqa: E402
from repro.faults import BandwidthWindow, CrashEvent, FaultModel  # noqa: E402
from repro.online.registry import make_scheduler  # noqa: E402
from repro.simulator.engine import SimulatorConfig, simulate  # noqa: E402
from repro.simulator.reference import reference_simulate  # noqa: E402

#: Every test runs once on each native kernel (scalar and columnar); see
#: the ``engine_kernel`` fixture in conftest.py.
pytestmark = pytest.mark.usefixtures("engine_kernel")

#: Every scheduler family the registry can build: the four paper
#: heuristics, the gamma-split, Priority variants, the fair-share baseline
#: and a machine baseline.
SCHEDULER_NAMES = (
    "RoundRobin",
    "MinDilation",
    "MaxSysEff",
    "FCFS",
    "FairShare",
    "MinMax-0.5",
    "MinMax-0.25",
    "Priority-RoundRobin",
    "Priority-MaxSysEff",
    "Priority-MinDilation",
    "Priority-MinMax-0.5",
    "Priority-FCFS",
    "Priority-FairShare",
    "Intrepid",
)

#: Event cap for both engines.  Drawn scenarios need a few hundred events;
#: a kernel that stops advancing time (a stale transition time keeps the
#: next step at the 1 ns floor) fails here in seconds instead of crawling
#: to the default ten-million-event valve.
MAX_EVENTS = 100_000

#: Shared hypothesis profile: both engines run per example, so examples
#: stay small and the deadline is off (wall time varies with the drawn
#: scenario, not with test health).
FUZZ = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #
def _finite_floats(lo: float, hi: float):
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )


@st.composite
def applications(draw, index: int = 0) -> Application:
    """One randomized application; always has non-zero work or I/O."""
    processors = draw(st.integers(min_value=1, max_value=24))
    work = draw(st.one_of(st.just(0.0), _finite_floats(1.0, 120.0)))
    io_volume = draw(
        st.one_of(st.just(0.0), _finite_floats(1e6, 2e9))
    )
    if work == 0.0 and io_volume == 0.0:
        io_volume = 1e7  # an instance must have non-zero work or I/O
    return Application.periodic(
        name=f"app-{index:02d}",
        processors=processors,
        work=work,
        io_volume=io_volume,
        n_instances=draw(st.integers(min_value=1, max_value=4)),
        release_time=draw(st.one_of(st.just(0.0), _finite_floats(0.0, 150.0))),
    )


@st.composite
def scenarios(draw, *, with_bb: bool = False) -> Scenario:
    """A randomized congested scenario (platform sized to its app mix)."""
    n_apps = draw(st.integers(min_value=1, max_value=8))
    apps = tuple(draw(applications(index=i)) for i in range(n_apps))
    total_processors = sum(app.processors for app in apps)
    congestion = draw(_finite_floats(1.5, 6.0))
    bb = None
    if with_bb:
        bb = BurstBufferSpec(
            capacity=draw(_finite_floats(5e8, 5e9)),
            ingest_bandwidth=draw(_finite_floats(1e8, 1e9)),
            drain_bandwidth=draw(_finite_floats(5e6, 5e7)),
        )
    platform = Platform(
        name="fuzz",
        total_processors=total_processors,
        node_bandwidth=1e6,
        system_bandwidth=total_processors * 1e6 / congestion,
        burst_buffer=bb,
    )
    return Scenario(platform=platform, applications=apps, label="fuzz")


@st.composite
def fault_models(draw, scenario: Scenario) -> FaultModel:
    """A randomized `[faults]` table: brown-outs, blackouts and crashes.

    Windows are laid out left to right (non-overlapping, like sampled PFS
    brown-out traces); factors include exact 0.0 — a full blackout.
    Crashes may carry an exact 0.0 checkpoint (the recovery is due at the
    crash instant) and may land exactly on the crashed application's
    release time (the crash is ignored: the application is not running).
    """
    windows: list[BandwidthWindow] = []
    t = 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        t += draw(_finite_floats(10.0, 200.0))
        duration = draw(_finite_floats(5.0, 120.0))
        factor = draw(st.one_of(st.just(0.0), _finite_floats(0.0, 0.9)))
        windows.append(
            BandwidthWindow(start=t, end=t + duration, factor=factor)
        )
        t += duration
    names = list(scenario.application_names)
    crashes: list[CrashEvent] = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        name = names[draw(st.integers(min_value=0, max_value=len(names) - 1))]
        app = scenario.application(name)
        fraction = draw(st.one_of(st.just(0.0), _finite_floats(0.0, 1.0)))
        time = draw(
            st.one_of(st.just(app.release_time), _finite_floats(1.0, 600.0))
        )
        crashes.append(
            CrashEvent(
                app_name=name,
                time=time,
                checkpoint_io=fraction * app.instances[0].io_volume,
            )
        )
    return FaultModel(windows=tuple(windows), crashes=tuple(crashes))


@st.composite
def faulted_scenarios(draw, *, with_bb: bool = False) -> Scenario:
    scenario = draw(scenarios(with_bb=with_bb))
    return scenario.with_faults(draw(fault_models(scenario)))


# --------------------------------------------------------------------- #
# the differential assertion
# --------------------------------------------------------------------- #
def _flatten(log: EventLog) -> list[tuple]:
    return [(e.time, e.event_type, e.app_name, e.instance_index) for e in log]


def assert_all_engines_identical(
    scenario: Scenario, scheduler_name: str, config: SimulatorConfig
) -> None:
    """Run the reference and the engine; assert bit-identical everything."""
    config = replace(config, max_events=MAX_EVENTS)
    oracle_log, log = EventLog(), EventLog()
    oracle = reference_simulate(
        scenario, make_scheduler(scheduler_name), config, oracle_log
    )
    result = simulate(scenario, make_scheduler(scheduler_name), config, log)
    assert result.n_events == oracle.n_events
    assert result.makespan == oracle.makespan
    assert result.records == oracle.records
    assert result.fault_stats == oracle.fault_stats
    assert result.burst_buffer == oracle.burst_buffer
    assert _flatten(log) == _flatten(oracle_log)


# --------------------------------------------------------------------- #
# properties
# --------------------------------------------------------------------- #
class TestHealthyScenarios:
    @FUZZ
    @given(scenario=scenarios(), scheduler=st.sampled_from(SCHEDULER_NAMES))
    def test_identical_without_faults(self, scenario, scheduler):
        assert_all_engines_identical(
            scenario, scheduler, SimulatorConfig(record_events=True)
        )

    @FUZZ
    @given(
        scenario=scenarios(),
        scheduler=st.sampled_from(SCHEDULER_NAMES),
        max_time=_finite_floats(10.0, 500.0),
    )
    def test_identical_under_truncation(self, scenario, scheduler, max_time):
        assert_all_engines_identical(
            scenario,
            scheduler,
            SimulatorConfig(record_events=True, max_time=max_time),
        )


class TestBurstBufferScenarios:
    @FUZZ
    @given(
        scenario=scenarios(with_bb=True),
        scheduler=st.sampled_from(("MaxSysEff", "RoundRobin", "Intrepid")),
    )
    def test_identical_with_burst_buffer(self, scenario, scheduler):
        assert_all_engines_identical(
            scenario,
            scheduler,
            SimulatorConfig(record_events=True, use_burst_buffer=True),
        )


class TestFaultedScenarios:
    @FUZZ
    @given(
        scenario=faulted_scenarios(),
        scheduler=st.sampled_from(SCHEDULER_NAMES),
    )
    def test_identical_with_faults(self, scenario, scheduler):
        assert_all_engines_identical(
            scenario, scheduler, SimulatorConfig(record_events=True)
        )

    @FUZZ
    @given(
        scenario=faulted_scenarios(with_bb=True),
        scheduler=st.sampled_from(("MaxSysEff", "MinDilation")),
    )
    def test_identical_with_faults_and_burst_buffer(self, scenario, scheduler):
        assert_all_engines_identical(
            scenario,
            scheduler,
            SimulatorConfig(record_events=True, use_burst_buffer=True),
        )

    @FUZZ
    @given(
        scenario=faulted_scenarios(),
        scheduler=st.sampled_from(SCHEDULER_NAMES),
        max_time=_finite_floats(10.0, 500.0),
    )
    def test_identical_with_faults_under_truncation(
        self, scenario, scheduler, max_time
    ):
        assert_all_engines_identical(
            scenario,
            scheduler,
            SimulatorConfig(record_events=True, max_time=max_time),
        )


class TestShrinkerOutput:
    def test_minimal_counterexample_is_reportable(self):
        """The strategies themselves shrink to a one-app scenario.

        This guards the harness's debugging value: if a divergence is ever
        found, hypothesis must be able to walk the scenario down to its
        minimal form — which requires `scenarios()` to produce valid
        scenarios at its shrunken extremes (1 app, 1 instance, zero
        release, smallest volumes).
        """
        # Build the minimal corner by hand instead of via .example() (which
        # hypothesis forbids inside tests): one app, one instance, smallest
        # values the strategies can emit.
        app = Application.periodic(
            name="app-00",
            processors=1,
            work=0.0,
            io_volume=1e7,
            n_instances=1,
            release_time=0.0,
        )
        platform = Platform(
            name="fuzz",
            total_processors=1,
            node_bandwidth=1e6,
            system_bandwidth=1e6 / 1.5,
        )
        scenario = Scenario(platform=platform, applications=(app,), label="fuzz")
        assert_all_engines_identical(
            scenario, "MaxSysEff", SimulatorConfig(record_events=True)
        )
