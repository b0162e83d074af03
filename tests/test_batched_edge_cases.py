"""Engine edge cases the fuzzer is unlikely to hit, on both native kernels.

The differential harness (`tests/test_engine_differential.py`) explores the
healthy interior of the scenario space; these tests pin the boundary
behaviours of :mod:`repro.simulator.engine` against the reference engine:

* a blackout that never lifts must raise the *same* diagnostic
  :class:`~repro.simulator.engine.StallError` — same stuck applications,
  same simulated time, same active-window listing — in both engines;
* zero-application platforms are rejected at `Scenario` construction, so
  no engine ever sees an empty scenario (pinned here to keep the engines'
  "applications remain" invariant honest);
* single-breakpoint scenarios (one app, one instance, degenerate work/IO
  splits) exercise the shortest possible event chains;
* a crash placed exactly on a fault-window boundary must land on the same
  side of the window in both engines;
* a crash mid-compute must clear the crashed application's pending compute
  end from the horizon, a zero-byte checkpoint must make the recovery due
  at the crash instant, and a crash at the release instant is ignored.
"""

from __future__ import annotations

import math

import pytest

from repro.core.application import Application
from repro.core.events import EventLog
from repro.core.platform import Platform
from repro.core.scenario import Scenario
from repro.faults import BandwidthWindow, CrashEvent, FaultModel
from repro.online.registry import make_scheduler
from repro.simulator.engine import SimulatorConfig, StallError, simulate
from repro.simulator.reference import reference_simulate
from repro.utils.validation import ValidationError

#: Every test runs once on each native kernel (scalar and columnar); see
#: the ``engine_kernel`` fixture in conftest.py.
pytestmark = pytest.mark.usefixtures("engine_kernel")

ENGINES = {
    "reference": reference_simulate,
    "batched": simulate,
}


def _platform(total: int = 100) -> Platform:
    return Platform(
        name="edge",
        total_processors=total,
        node_bandwidth=1e6,
        system_bandwidth=2e7,
    )


def _run_all(scenario, scheduler_name="MaxSysEff", config=None):
    config = config or SimulatorConfig(record_events=True)
    results, logs = {}, {}
    for name, runner in ENGINES.items():
        log = EventLog()
        results[name] = runner(
            scenario, make_scheduler(scheduler_name), config, log
        )
        logs[name] = [
            (e.time, e.event_type, e.app_name, e.instance_index) for e in log
        ]
    assert results["batched"].records == results["reference"].records
    assert results["batched"].makespan == results["reference"].makespan
    assert logs["batched"] == logs["reference"]
    return results


class TestEternalBlackout:
    def _eternal_blackout_scenario(self) -> Scenario:
        apps = (
            Application.periodic(
                "writer", 20, work=10.0, io_volume=5e8, n_instances=3
            ),
            Application.periodic(
                "cruncher", 30, work=40.0, io_volume=2e8, n_instances=2
            ),
        )
        scenario = Scenario(platform=_platform(), applications=apps)
        # The PFS goes dark at t=30 and never comes back.
        return scenario.with_faults(
            FaultModel(
                windows=(
                    BandwidthWindow(start=30.0, end=math.inf, factor=0.0),
                )
            )
        )

    def test_same_stall_error_in_all_engines(self):
        scenario = self._eternal_blackout_scenario()
        messages = {}
        for name, runner in ENGINES.items():
            with pytest.raises(StallError) as exc_info:
                runner(scenario, make_scheduler("MaxSysEff"), SimulatorConfig())
            messages[name] = str(exc_info.value)
        # Identical diagnostic text: stuck apps, sim time, active window.
        assert messages["batched"] == messages["reference"]
        message = messages["batched"]
        assert "stalled" in message
        assert "writer" in message
        assert "active fault window(s)" in message
        assert "factor=0" in message

    def test_stall_time_is_in_the_blackout(self):
        scenario = self._eternal_blackout_scenario()
        with pytest.raises(StallError) as exc_info:
            simulate(
                scenario, make_scheduler("MaxSysEff"), SimulatorConfig()
            )
        # The reported simulation time must be at or past the window start.
        message = str(exc_info.value)
        time_text = message.split("simulation time t=")[1].split(")")[0]
        assert float(time_text) >= 30.0

    def test_truncation_before_the_stall_succeeds(self):
        # With max_time inside the pre-blackout window, every engine stops
        # cleanly (and identically) instead of stalling.
        scenario = self._eternal_blackout_scenario()
        _run_all(scenario, config=SimulatorConfig(max_time=25.0))


class TestZeroApplications:
    def test_scenario_constructor_rejects_empty(self):
        with pytest.raises(ValidationError, match="at least one application"):
            Scenario(platform=_platform(), applications=())

    def test_engines_never_see_empty_scenarios(self):
        # The invariant backing the engines' "no future event but
        # applications remain" diagnostic: a scenario always has >= 1 app,
        # so a drained event queue with live apps is an engine bug, not a
        # degenerate input.
        with pytest.raises(ValidationError):
            Scenario(
                platform=_platform(), applications=(), label="empty"
            )


class TestSingleBreakpoint:
    @pytest.mark.parametrize("scheduler", ("MaxSysEff", "RoundRobin", "FCFS"))
    def test_one_app_one_instance(self, scheduler):
        apps = (
            Application.periodic(
                "solo", 10, work=50.0, io_volume=1e8, n_instances=1
            ),
        )
        _run_all(Scenario(platform=_platform(), applications=apps), scheduler)

    def test_pure_compute_single_instance(self):
        apps = (
            Application.periodic(
                "cpu", 10, work=30.0, io_volume=0.0, n_instances=1
            ),
        )
        results = _run_all(Scenario(platform=_platform(), applications=apps))
        assert results["batched"].makespan == 30.0

    def test_pure_io_single_instance(self):
        apps = (
            Application.periodic(
                "io", 10, work=0.0, io_volume=1e8, n_instances=1
            ),
        )
        _run_all(Scenario(platform=_platform(), applications=apps))

    def test_release_after_everything(self):
        # One app released late: the first breakpoint IS the release.
        apps = (
            Application.periodic(
                "late", 10, work=5.0, io_volume=1e7, n_instances=1,
                release_time=500.0,
            ),
        )
        results = _run_all(Scenario(platform=_platform(), applications=apps))
        assert results["batched"].makespan > 500.0


class TestCrashOnWindowBoundary:
    def _scenario(self) -> Scenario:
        apps = (
            Application.periodic(
                "worker", 20, work=20.0, io_volume=4e8, n_instances=4
            ),
            Application.periodic(
                "peer", 20, work=35.0, io_volume=2e8, n_instances=3
            ),
        )
        return Scenario(platform=_platform(), applications=apps)

    @pytest.mark.parametrize("boundary", ("start", "end"))
    def test_crash_exactly_at_window_boundary(self, boundary):
        window = BandwidthWindow(start=60.0, end=140.0, factor=0.25)
        crash_time = window.start if boundary == "start" else window.end
        scenario = self._scenario().with_faults(
            FaultModel(
                windows=(window,),
                crashes=(
                    CrashEvent(
                        app_name="worker", time=crash_time, checkpoint_io=1e8
                    ),
                ),
            )
        )
        results = _run_all(scenario)
        assert results["batched"].fault_stats.n_crashes == 1
        assert results["batched"].records["worker"].restarts == 1

    def test_crash_on_blackout_entry(self):
        # Crash at the exact instant the PFS goes fully dark: the recovery
        # read must wait out the blackout in every engine, identically.
        scenario = self._scenario().with_faults(
            FaultModel(
                windows=(BandwidthWindow(start=80.0, end=160.0, factor=0.0),),
                crashes=(
                    CrashEvent(
                        app_name="worker", time=80.0, checkpoint_io=2e8
                    ),
                ),
            )
        )
        results = _run_all(scenario)
        stats = results["batched"].fault_stats
        assert stats.n_crashes == 1
        assert stats.blackout_time > 0.0

    def test_two_crashes_on_both_boundaries(self):
        window = BandwidthWindow(start=70.0, end=130.0, factor=0.1)
        scenario = self._scenario().with_faults(
            FaultModel(
                windows=(window,),
                crashes=(
                    CrashEvent(app_name="worker", time=70.0, checkpoint_io=5e7),
                    CrashEvent(app_name="peer", time=130.0, checkpoint_io=5e7),
                ),
            )
        )
        _run_all(scenario)


class TestCrashTransitionTimes:
    """The engine's own-transition-time column across crashes.

    The event cap makes a stale compute end (which pins every later step
    to the 1 ns floor) fail at once instead of after ten million events.
    """

    CONFIG = SimulatorConfig(record_events=True, max_events=10_000)

    def _scenario(self, crash: CrashEvent) -> Scenario:
        apps = (
            Application.periodic(
                "worker", 20, work=20.0, io_volume=4e8, n_instances=3,
                release_time=5.0,
            ),
            Application.periodic(
                "peer", 20, work=35.0, io_volume=2e8, n_instances=3
            ),
        )
        scenario = Scenario(platform=_platform(), applications=apps)
        return scenario.with_faults(FaultModel(windows=(), crashes=(crash,)))

    # 4e8 bytes take the lone reader 20 s, past the lost compute end (25 s);
    # a zero-byte checkpoint finishes the recovery at the crash instant.
    @pytest.mark.parametrize("checkpoint_io", (4e8, 0.0))
    def test_crash_mid_compute(self, checkpoint_io):
        crash = CrashEvent(app_name="worker", time=15.0, checkpoint_io=checkpoint_io)
        results = _run_all(self._scenario(crash), config=self.CONFIG)
        assert results["batched"].records["worker"].restarts == 1

    def test_crash_at_release_is_ignored(self):
        crash = CrashEvent(app_name="worker", time=5.0, checkpoint_io=1e8)
        results = _run_all(self._scenario(crash), config=self.CONFIG)
        assert results["batched"].records["worker"].restarts == 0
