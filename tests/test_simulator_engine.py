"""Engine tests: timing correctness, conservation, burst buffers, truncation."""

from __future__ import annotations

import math

import pytest

from bench_modules import load_bench
from repro.core.allocation import BandwidthAllocation
from repro.core.application import Application
from repro.core.events import EventLog, EventType
from repro.core.scenario import Scenario
from repro.obs.telemetry import recorder
from repro.online.baselines import FairShare
from repro.online.heuristics import MaxSysEff, MinDilation, RoundRobin
from repro.simulator.engine import (
    _SCALAR_MAX_APPS,
    SimulationError,
    Simulator,
    SimulatorConfig,
    StallError,
    simulate,
)
from repro.simulator.interference import NO_INTERFERENCE
from repro.simulator.reference import reference_simulate
from repro.utils.validation import ValidationError

scaling_scenario = load_bench("engine_bench").scaling_scenario


def ideal_fair_share() -> FairShare:
    """Work-conserving fair share (no interference) — easy to reason about."""
    return FairShare(name="IdealShare", interference=NO_INTERFERENCE)


class TestKernelDispatch:
    """``simulate`` picks the kernel from the width and counts the choice."""

    @pytest.fixture
    def rec(self):
        rec = recorder()
        rec.reset()
        rec.enable()
        yield rec
        rec.reset()

    @staticmethod
    def _runs(rec) -> dict:
        return {
            dict(c.labels)["kernel"]: c.value
            for c in rec.registry.counters()
            if c.name == "repro_engine_runs_total"
        }

    @pytest.mark.parametrize(
        "n_apps, kernel",
        [(_SCALAR_MAX_APPS, "scalar"), (_SCALAR_MAX_APPS + 1, "columnar")],
    )
    def test_crossover_width_matches_reference(self, rec, n_apps, kernel):
        scenario = scaling_scenario(n_apps, 2)
        config = SimulatorConfig(record_events=True)
        log, oracle_log = EventLog(), EventLog()
        result = simulate(scenario, MaxSysEff(), config, log)
        oracle = reference_simulate(scenario, MaxSysEff(), config, oracle_log)
        assert self._runs(rec) == {kernel: 1.0}
        assert result.records == oracle.records
        assert result.makespan == oracle.makespan
        assert result.n_events == oracle.n_events
        assert list(log) == list(oracle_log)

    def test_each_run_counts_its_kernel(self, rec):
        for n_apps in (2, _SCALAR_MAX_APPS + 1, 3):
            simulate(scaling_scenario(n_apps, 1), MaxSysEff())
        assert self._runs(rec) == {"scalar": 2.0, "columnar": 1.0}


class TestSingleApplication:
    def test_dedicated_timing_node_limited(self, small_platform):
        # 10 procs * 1 MB/s = 10 MB/s; 100 MB -> 10 s of I/O per instance.
        app = Application.periodic("solo", 10, work=100.0, io_volume=1e8, n_instances=3)
        scenario = Scenario(platform=small_platform, applications=(app,))
        result = simulate(scenario, ideal_fair_share())
        assert result.makespan == pytest.approx(3 * (100.0 + 10.0))
        record = result.record("solo")
        assert record.executed_work == pytest.approx(300.0)
        assert record.total_io_transferred == pytest.approx(3e8)
        assert record.dilation() == pytest.approx(1.0)

    def test_dedicated_timing_system_limited(self, small_platform):
        # 50 procs * 1 MB/s = 50 MB/s > B = 20 MB/s; 200 MB -> 10 s per instance.
        app = Application.periodic("solo", 50, work=10.0, io_volume=2e8, n_instances=2)
        scenario = Scenario(platform=small_platform, applications=(app,))
        result = simulate(scenario, ideal_fair_share())
        assert result.makespan == pytest.approx(2 * (10.0 + 10.0))

    def test_single_app_efficiency_is_upper_limit(self, small_platform, single_app):
        scenario = Scenario(platform=small_platform, applications=(single_app,))
        summary = simulate(scenario, ideal_fair_share()).summary()
        assert summary.system_efficiency == pytest.approx(summary.upper_limit)
        assert summary.dilation == pytest.approx(1.0)

    def test_pure_compute_application(self, small_platform):
        app = Application.periodic("cpu", 10, work=50.0, io_volume=0.0, n_instances=4)
        scenario = Scenario(platform=small_platform, applications=(app,))
        result = simulate(scenario, ideal_fair_share())
        assert result.makespan == pytest.approx(200.0)
        assert result.record("cpu").total_io_transferred == 0.0

    def test_pure_io_application(self, small_platform):
        app = Application.periodic("io", 10, work=0.0, io_volume=1e8, n_instances=2)
        scenario = Scenario(platform=small_platform, applications=(app,))
        result = simulate(scenario, ideal_fair_share())
        assert result.makespan == pytest.approx(20.0)

    def test_release_time_offsets_completion(self, small_platform):
        app = Application.periodic(
            "late", 10, work=100.0, io_volume=1e8, n_instances=1, release_time=50.0
        )
        scenario = Scenario(platform=small_platform, applications=(app,))
        result = simulate(scenario, ideal_fair_share())
        assert result.record("late").completion_time == pytest.approx(50.0 + 110.0)


class TestTwoApplications:
    def test_volume_conservation(self, simple_scenario):
        for scheduler in (ideal_fair_share(), MaxSysEff(), MinDilation(), RoundRobin()):
            result = simulate(simple_scenario, scheduler)
            for app in simple_scenario:
                assert result.record(app.name).total_io_transferred == pytest.approx(
                    app.total_io_volume, rel=1e-6
                )

    def test_congestion_slows_someone_down(self, simple_scenario):
        result = simulate(simple_scenario, ideal_fair_share())
        # Two 40-proc apps want 40 MB/s each against B = 20 MB/s: congestion.
        assert result.summary().dilation > 1.0

    def test_identical_apps_same_outcome_under_fair_share(self, simple_scenario):
        result = simulate(simple_scenario, ideal_fair_share())
        dils = result.dilations()
        assert dils["alpha"] == pytest.approx(dils["beta"], rel=1e-6)

    def test_makespan_at_least_dedicated_time(self, heterogeneous_scenario):
        result = simulate(heterogeneous_scenario, MaxSysEff())
        for app in heterogeneous_scenario:
            peak = heterogeneous_scenario.platform.peak_application_bandwidth(
                app.processors
            )
            dedicated = app.total_work + app.total_io_volume / peak
            record = result.record(app.name)
            assert record.completion_time >= app.release_time + dedicated - 1e-6

    def test_favoring_beats_nothing(self, heterogeneous_scenario):
        # Any coordinated heuristic must not move less total volume.
        total = sum(a.total_io_volume for a in heterogeneous_scenario)
        for scheduler in (MaxSysEff(), MinDilation()):
            result = simulate(heterogeneous_scenario, scheduler)
            assert result.total_io_volume() == pytest.approx(total, rel=1e-6)

    def test_schedulers_are_deterministic(self, heterogeneous_scenario):
        r1 = simulate(heterogeneous_scenario, MaxSysEff())
        r2 = simulate(heterogeneous_scenario, MaxSysEff())
        assert r1.makespan == pytest.approx(r2.makespan)
        assert r1.summary().system_efficiency == pytest.approx(
            r2.summary().system_efficiency
        )


class TestEventLog:
    def test_event_log_contents(self, small_platform, single_app):
        scenario = Scenario(platform=small_platform, applications=(single_app,))
        log = EventLog()
        simulate(scenario, ideal_fair_share(), SimulatorConfig(record_events=True), log)
        assert len(log.of_type(EventType.APP_RELEASE)) == 1
        assert len(log.of_type(EventType.IO_REQUEST)) == single_app.n_instances
        assert len(log.of_type(EventType.IO_COMPLETE)) == single_app.n_instances
        assert len(log.of_type(EventType.APP_COMPLETE)) == 1
        times = [e.time for e in log]
        assert times == sorted(times)


class TestInstanceRecords:
    def test_instance_records_cover_all_instances(self, simple_scenario):
        result = simulate(simple_scenario, MaxSysEff())
        for app in simple_scenario:
            records = result.record(app.name).instances
            assert len(records) == app.n_instances
            assert [r.index for r in records] == list(range(app.n_instances))
            for r in records:
                assert r.compute_end == pytest.approx(r.compute_start + r.work)
                assert r.io_end >= r.compute_end - 1e-9
                if r.io_first_transfer is not None:
                    assert r.io_first_transfer >= r.compute_end - 1e-9
                    assert r.io_wait >= -1e-9

    def test_io_phase_durations_sum_to_time_in_io(self, simple_scenario):
        result = simulate(simple_scenario, MinDilation())
        rec = result.record("alpha")
        assert rec.time_in_io_phases == pytest.approx(
            sum(r.io_phase_duration for r in rec.instances)
        )


class TestBurstBuffer:
    def make_scenario(self, bb_platform):
        apps = tuple(
            Application.periodic(f"app{i}", 30, work=20.0, io_volume=2e8, n_instances=2)
            for i in range(3)
        )
        return Scenario(platform=bb_platform, applications=apps)

    def test_requires_spec(self, small_platform, single_app):
        scenario = Scenario(platform=small_platform, applications=(single_app,))
        with pytest.raises(ValidationError):
            Simulator(scenario, SimulatorConfig(use_burst_buffer=True))

    def test_burst_buffer_statistics_present(self, bb_platform):
        scenario = self.make_scenario(bb_platform)
        result = simulate(
            scenario, ideal_fair_share(), SimulatorConfig(use_burst_buffer=True)
        )
        assert result.burst_buffer is not None
        assert result.burst_buffer.total_absorbed > 0.0

    def test_burst_buffer_speeds_up_congested_run(self, bb_platform):
        scenario = self.make_scenario(bb_platform)
        plain = simulate(scenario.with_platform(bb_platform.without_burst_buffer()),
                         FairShare())
        buffered = simulate(
            scenario, FairShare(), SimulatorConfig(use_burst_buffer=True)
        )
        assert buffered.summary().system_efficiency >= plain.summary().system_efficiency

    def test_volumes_conserved_with_burst_buffer(self, bb_platform):
        scenario = self.make_scenario(bb_platform)
        result = simulate(
            scenario, ideal_fair_share(), SimulatorConfig(use_burst_buffer=True)
        )
        for app in scenario:
            assert result.record(app.name).total_io_transferred == pytest.approx(
                app.total_io_volume, rel=1e-6
            )


class TestTruncation:
    def test_max_time_truncates(self, simple_scenario):
        result = simulate(
            simple_scenario, ideal_fair_share(), SimulatorConfig(max_time=60.0)
        )
        assert result.makespan <= 60.0 + 1e-6
        # Efficiency is still well defined on the truncated run.
        summary = result.summary()
        assert 0.0 <= summary.system_efficiency <= 100.0

    def test_max_events_guard(self, simple_scenario):
        with pytest.raises(SimulationError):
            simulate(simple_scenario, ideal_fair_share(), SimulatorConfig(max_events=2))


class _NeverAllocate:
    """A pathological scheduler that stalls every I/O candidate forever."""

    name = "never"

    def allocate(self, view):
        return BandwidthAllocation.empty()

    def reset(self):
        pass


class TestGuardRails:
    """The engine's safety valves: stalled schedulers and event explosions."""

    def test_zero_allocation_forever_raises_stall_error(self, simple_scenario):
        # Both applications finish their compute phase and wait for
        # bandwidth that never comes: no future event exists to unblock
        # them, which must be detected as a stall, not an endless loop.
        with pytest.raises(StallError, match="stalled"):
            simulate(simple_scenario, _NeverAllocate())

    def test_reference_engine_stalls_identically(self, simple_scenario):
        with pytest.raises(StallError):
            reference_simulate(simple_scenario, _NeverAllocate())

    def test_stall_error_is_a_simulation_error(self):
        assert issubclass(StallError, SimulationError)

    def test_pending_release_defers_the_stall(self, small_platform):
        # A stingy scheduler cannot stall the run while another application
        # still has a pending release (a genuine future event) — the stall
        # is only declared once no event can ever unblock the candidates.
        early = Application.periodic(
            "early", 10, work=10.0, io_volume=1e8, n_instances=1
        )
        late = Application.periodic(
            "late", 10, work=10.0, io_volume=1e8, n_instances=1, release_time=500.0
        )
        scenario = Scenario(platform=small_platform, applications=(early, late))
        with pytest.raises(StallError) as err:
            simulate(scenario, _NeverAllocate())
        # Both applications made it into the stalled candidate set, so the
        # late release did fire before the stall was declared.
        assert "2 application(s)" in str(err.value)

    def test_permanent_blackout_raises_stall_error_not_livelock(
        self, small_platform
    ):
        # Satellite 3 regression: a blackout window that never lifts leaves
        # every I/O candidate waiting on bandwidth that never returns.  The
        # engines must diagnose the stall — naming the stalled applications,
        # the simulation time, and the active fault window — instead of
        # spinning forever.
        from repro.faults import BandwidthWindow, FaultModel

        apps = tuple(
            Application.periodic(
                f"dark-{i}", 10, work=10.0, io_volume=1e8, n_instances=2
            )
            for i in range(2)
        )
        scenario = Scenario(
            platform=small_platform, applications=apps
        ).with_faults(
            FaultModel(
                windows=(
                    BandwidthWindow(start=5.0, end=math.inf, factor=0.0),
                )
            )
        )
        for run in (simulate, reference_simulate):
            with pytest.raises(StallError) as err:
                run(scenario, ideal_fair_share())
            message = str(err.value)
            assert "stalled" in message
            assert "2 application(s)" in message
            assert "dark-0" in message and "dark-1" in message
            assert "simulation time" in message
            assert "fault window" in message
            assert "factor=0" in message

    def test_finite_blackout_does_not_stall(self, small_platform):
        # The same blackout with an end is just a delay: once the window
        # lifts the transfers resume and the run completes.
        from repro.faults import BandwidthWindow, FaultModel

        app = Application.periodic(
            "waits", 10, work=10.0, io_volume=1e8, n_instances=1
        )
        scenario = Scenario(
            platform=small_platform, applications=(app,)
        ).with_faults(
            FaultModel(
                windows=(BandwidthWindow(start=5.0, end=50.0, factor=0.0),)
            )
        )
        result = simulate(scenario, ideal_fair_share())
        assert result.record("waits").completion_time > 50.0
        assert result.fault_stats.blackout_time > 0.0

    def test_max_events_exhaustion_message(self, simple_scenario):
        with pytest.raises(SimulationError, match="max_events=3"):
            simulate(
                simple_scenario, ideal_fair_share(), SimulatorConfig(max_events=3)
            )

    def test_max_events_not_triggered_by_normal_run(self, simple_scenario):
        # A correct run needs n_events well below the valve; make sure the
        # optimized engine does not generate spurious (stale-heap) events.
        result = simulate(simple_scenario, ideal_fair_share())
        generous = simulate(
            simple_scenario,
            ideal_fair_share(),
            SimulatorConfig(max_events=result.n_events),
        )
        assert generous.n_events == result.n_events


class TestBadScheduler:
    def test_wrong_return_type_raises(self, simple_scenario):
        class Broken:
            name = "broken"

            def allocate(self, view):
                return {"alpha": 1.0}

            def reset(self):
                pass

        with pytest.raises(SimulationError):
            simulate(simple_scenario, Broken())

    def test_over_allocation_raises(self, simple_scenario):
        from repro.core.allocation import BandwidthAllocation

        class Greedy:
            name = "greedy"

            def allocate(self, view):
                return BandwidthAllocation(
                    {a.name: view.platform.node_bandwidth for a in view.applications}
                )

            def reset(self):
                pass

        # 2 * 40 procs * 1 MB/s = 80 MB/s > B = 20 MB/s: must be rejected.
        with pytest.raises(ValidationError):
            simulate(simple_scenario, Greedy())
