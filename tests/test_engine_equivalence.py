"""Optimized engine vs seed engine: the timelines must be identical.

The engine (:mod:`repro.simulator.engine`) replaces the seed engine's
per-event full scans with incremental state: plain-float passes over the
I/O candidates (the scalar kernel) or whole-column numpy passes (the
columnar kernel); every test here runs on both.
Those are pure bookkeeping changes — every event time and every float in
the records must come out bit-for-bit the same — so these tests run
randomized scenarios through both engines and require identical records,
makespans, event counts and event logs.

The scenario matrix crosses: randomized mixes (several seeds), all four
paper heuristics plus Priority variants and the fair-share baseline, with
and without burst buffers, plus the awkward shapes (zero-work instances,
zero-I/O instances, staggered releases, ``max_time`` truncation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.application import Application
from repro.core.platform import BurstBufferSpec, Platform
from repro.core.scenario import Scenario
from repro.faults import BandwidthWindow, CrashEvent, FaultModel
from repro.core.events import EventLog
from repro.online.registry import available_schedulers, make_scheduler
from repro.simulator.engine import SimulatorConfig, simulate
from repro.simulator.reference import reference_simulate

#: Every test runs once on each native kernel (scalar and columnar); see
#: the ``engine_kernel`` fixture in conftest.py.
pytestmark = pytest.mark.usefixtures("engine_kernel")

#: Makespans / completion times must agree to this tolerance (they are
#: expected — and observed — to agree exactly; the tolerance documents the
#: acceptance bound).
TOL = 1e-9

#: The four paper heuristics, their Priority variants (all four run in
#: every Figure 6 cell), Priority over FCFS, and the fair-share baseline
#: with interference.
SCHEDULERS = (
    "RoundRobin",
    "MinDilation",
    "MaxSysEff",
    "MinMax-0.5",
    "Priority-RoundRobin",
    "Priority-MaxSysEff",
    "Priority-MinDilation",
    "Priority-MinMax-0.5",
    "Priority-FCFS",
    "Intrepid",
)


def random_scenario(
    seed: int, *, n_apps: int = 12, with_bb: bool = False
) -> Scenario:
    """A randomized congested scenario, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    bb = (
        BurstBufferSpec(capacity=2e9, ingest_bandwidth=5e8, drain_bandwidth=2e7)
        if with_bb
        else None
    )
    platform = Platform(
        name=f"equiv-{seed}",
        total_processors=n_apps * 20,
        node_bandwidth=1e6,
        # ~3x oversubscribed when everybody transfers at once.
        system_bandwidth=n_apps * 20 * 1e6 / 3.0,
        burst_buffer=bb,
    )
    apps = []
    for i in range(n_apps):
        procs = int(rng.integers(5, 21))
        apps.append(
            Application.periodic(
                name=f"app-{i:02d}",
                processors=procs,
                work=float(rng.uniform(10.0, 120.0)),
                io_volume=float(rng.uniform(0.2, 2.0)) * 30.0 * procs * 1e6,
                n_instances=int(rng.integers(2, 7)),
                release_time=float(rng.uniform(0.0, 150.0)),
            )
        )
    return Scenario(platform=platform, applications=tuple(apps), label=f"equiv-{seed}")


def assert_equivalent(scenario, scheduler_name, config=None):
    """Run the engine and the seed reference engine; require bit-identity.

    The tolerance checks name the first diverging application when the
    engines drift; the exact equalities below them are the contract.
    """
    config = config or SimulatorConfig()
    seed_engine = reference_simulate(scenario, make_scheduler(scheduler_name), config)
    fast = simulate(scenario, make_scheduler(scheduler_name), config)
    assert fast.n_events == seed_engine.n_events
    assert fast.makespan == pytest.approx(seed_engine.makespan, abs=TOL)
    assert set(fast.records) == set(seed_engine.records)
    for name, rec in fast.records.items():
        ref_rec = seed_engine.records[name]
        assert rec.completion_time == pytest.approx(
            ref_rec.completion_time, abs=TOL
        ), name
        assert rec.executed_work == pytest.approx(ref_rec.executed_work, abs=TOL)
        assert rec.total_io_transferred == pytest.approx(
            ref_rec.total_io_transferred, abs=TOL
        )
        assert len(rec.instances) == len(ref_rec.instances)
        assert rec.restarts == ref_rec.restarts, name
    assert fast.fault_stats == seed_engine.fault_stats
    # Bit-identity, not just tolerance: the engine's contract.
    assert fast.records == seed_engine.records
    assert fast.makespan == seed_engine.makespan
    assert fast.burst_buffer == seed_engine.burst_buffer
    return fast, seed_engine


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_all_heuristics_without_burst_buffer(self, seed, scheduler):
        assert_equivalent(random_scenario(seed), scheduler)

    @pytest.mark.parametrize("scheduler", ("Intrepid", "MaxSysEff"))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_with_burst_buffer(self, seed, scheduler):
        scenario = random_scenario(seed, with_bb=True)
        fast, seed_engine = assert_equivalent(
            scenario, scheduler, SimulatorConfig(use_burst_buffer=True)
        )
        assert fast.burst_buffer is not None
        assert fast.burst_buffer.total_absorbed == pytest.approx(
            seed_engine.burst_buffer.total_absorbed, abs=TOL
        )
        assert fast.burst_buffer.time_full == pytest.approx(
            seed_engine.burst_buffer.time_full, abs=TOL
        )


class TestAwkwardShapes:
    def make_platform(self) -> Platform:
        return Platform(
            name="awkward",
            total_processors=100,
            node_bandwidth=1e6,
            system_bandwidth=2e7,
        )

    def test_zero_work_and_zero_io_instances(self):
        # Pure-I/O and pure-compute instances exercise the immediate
        # transition chains (release -> compute done -> I/O done at one
        # instant), which the engine's scalar cascade must fire in order.
        apps = (
            Application.from_sequences(
                "chain", 20, works=[0.0, 50.0, 0.0], io_volumes=[1e8, 0.0, 5e7]
            ),
            Application.periodic("steady", 30, work=40.0, io_volume=2e8, n_instances=3),
            Application.periodic(
                "cpu-only", 10, work=25.0, io_volume=0.0, n_instances=4
            ),
        )
        scenario = Scenario(platform=self.make_platform(), applications=apps)
        for scheduler in ("MaxSysEff", "RoundRobin"):
            assert_equivalent(scenario, scheduler)

    def test_simultaneous_releases_and_ties(self):
        # Identical applications released at the same instant: every event
        # is a tie, so any ordering slip between the engines would surface.
        apps = tuple(
            Application.periodic(f"tied-{i}", 20, work=30.0, io_volume=3e8, n_instances=3)
            for i in range(4)
        )
        scenario = Scenario(platform=self.make_platform(), applications=apps)
        for scheduler in ("RoundRobin", "MinDilation"):
            assert_equivalent(scenario, scheduler)

    @pytest.mark.parametrize("max_time", (100.0, 333.3, 1000.0))
    def test_max_time_truncation(self, max_time):
        scenario = random_scenario(4)
        assert_equivalent(scenario, "MaxSysEff", SimulatorConfig(max_time=max_time))

    def test_event_logs_serialize_identically(self):
        scenario = random_scenario(5, n_apps=6)
        config = SimulatorConfig(record_events=True)
        fast_log, seed_log = EventLog(), EventLog()
        simulate(scenario, make_scheduler("MaxSysEff"), config, fast_log)
        reference_simulate(scenario, make_scheduler("MaxSysEff"), config, seed_log)

        def flatten(log):
            return [
                (e.time, e.event_type, e.app_name, e.instance_index) for e in log
            ]

        assert flatten(fast_log) == flatten(seed_log)


def random_fault_model(
    seed: int,
    scenario: Scenario,
    *,
    with_windows: bool = True,
    with_crashes: bool = True,
    with_blackout: bool = False,
) -> FaultModel:
    """A randomized (but seed-deterministic) fault model for ``scenario``."""
    rng = np.random.default_rng(1000 + seed)
    windows: list[BandwidthWindow] = []
    if with_windows:
        t = 0.0
        for _ in range(4):
            t += float(rng.uniform(30.0, 200.0))
            duration = float(rng.uniform(20.0, 120.0))
            windows.append(
                BandwidthWindow(
                    start=t,
                    end=t + duration,
                    factor=float(rng.uniform(0.0, 0.8)),
                )
            )
            t += duration
    if with_blackout:
        windows.append(BandwidthWindow(start=250.0, end=320.0, factor=0.0))
    crashes: list[CrashEvent] = []
    if with_crashes:
        names = list(scenario.application_names)
        for _ in range(5):
            name = names[int(rng.integers(0, len(names)))]
            app = scenario.application(name)
            crashes.append(
                CrashEvent(
                    app_name=name,
                    time=float(rng.uniform(10.0, 800.0)),
                    checkpoint_io=float(rng.uniform(0.0, 1.0))
                    * app.instances[0].io_volume,
                )
            )
    return FaultModel(windows=tuple(windows), crashes=tuple(crashes))


class TestFaultedEquivalence:
    """Tentpole acceptance: equivalence extends to faulted scenarios.

    Degradation windows (brown-outs and full blackouts), crash/restart
    cycles and their combination must leave the two engines bit-for-bit
    identical — including the new resilience counters and the APP_CRASH /
    APP_RESTART events.
    """

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_all_heuristics_with_faults(self, seed, scheduler):
        scenario = random_scenario(seed)
        faulted = scenario.with_faults(random_fault_model(seed, scenario))
        fast, _ = assert_equivalent(faulted, scheduler)
        assert fast.fault_stats is not None

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_degradation_windows_only(self, seed):
        scenario = random_scenario(seed)
        faulted = scenario.with_faults(
            random_fault_model(seed, scenario, with_crashes=False,
                               with_blackout=True)
        )
        fast, _ = assert_equivalent(faulted, "MaxSysEff")
        assert fast.fault_stats.n_crashes == 0
        assert fast.fault_stats.blackout_time > 0.0
        assert fast.fault_stats.brownout_time >= fast.fault_stats.blackout_time

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_crashes_only(self, seed):
        scenario = random_scenario(seed)
        faulted = scenario.with_faults(
            random_fault_model(seed, scenario, with_windows=False)
        )
        fast, _ = assert_equivalent(faulted, "MinDilation")
        assert fast.fault_stats.brownout_time == 0.0
        total_restarts = sum(
            rec.restarts for rec in fast.records.values()
        )
        assert total_restarts == fast.fault_stats.n_crashes

    def test_zero_checkpoint_crash(self):
        # A crash with no checkpoint to re-read restarts the instance at the
        # crash instant — the chain the fast engine must fire without a full
        # sweep backing it up.
        scenario = random_scenario(3, n_apps=6)
        faulted = scenario.with_faults(
            FaultModel(
                crashes=(
                    CrashEvent(app_name="app-00", time=40.0, checkpoint_io=0.0),
                    CrashEvent(app_name="app-03", time=40.0, checkpoint_io=0.0),
                )
            )
        )
        assert_equivalent(faulted, "MaxSysEff")

    def test_repeated_crashes_same_app(self):
        # Crash during recovery: the checkpoint re-read restarts from zero.
        scenario = random_scenario(6, n_apps=6)
        app = scenario.applications[0]
        faulted = scenario.with_faults(
            FaultModel(
                crashes=tuple(
                    CrashEvent(
                        app_name=app.name,
                        time=50.0 + 30.0 * k,
                        checkpoint_io=app.instances[0].io_volume,
                    )
                    for k in range(4)
                )
            )
        )
        fast, _ = assert_equivalent(faulted, "RoundRobin")
        assert fast.records[app.name].restarts > 0

    @pytest.mark.parametrize("max_time", (100.0, 333.3, 1000.0))
    def test_faulted_max_time_truncation(self, max_time):
        scenario = random_scenario(4)
        faulted = scenario.with_faults(
            random_fault_model(4, scenario, with_blackout=True)
        )
        assert_equivalent(
            faulted, "MaxSysEff", SimulatorConfig(max_time=max_time)
        )

    @pytest.mark.parametrize("scheduler", ("Intrepid", "MaxSysEff"))
    def test_faulted_with_burst_buffer(self, scheduler):
        scenario = random_scenario(1, with_bb=True)
        faulted = scenario.with_faults(random_fault_model(1, scenario))
        fast, seed_engine = assert_equivalent(
            faulted, scheduler, SimulatorConfig(use_burst_buffer=True)
        )
        assert fast.burst_buffer is not None
        assert fast.burst_buffer.total_absorbed == pytest.approx(
            seed_engine.burst_buffer.total_absorbed, abs=TOL
        )

    def test_faulted_event_logs_serialize_identically(self):
        from repro.core.events import EventType

        scenario = random_scenario(5, n_apps=6)
        faulted = scenario.with_faults(
            random_fault_model(5, scenario, with_blackout=True)
        )
        config = SimulatorConfig(record_events=True)
        fast_log, seed_log = EventLog(), EventLog()
        simulate(faulted, make_scheduler("MaxSysEff"), config, fast_log)
        reference_simulate(
            faulted, make_scheduler("MaxSysEff"), config, seed_log
        )

        def flatten(log):
            return [
                (e.time, e.event_type, e.app_name, e.instance_index) for e in log
            ]

        assert flatten(fast_log) == flatten(seed_log)
        crash_events = [e for e in fast_log if e.event_type is EventType.APP_CRASH]
        restart_events = [
            e for e in fast_log if e.event_type is EventType.APP_RESTART
        ]
        assert crash_events
        assert len(restart_events) <= len(crash_events)


class TestRunCase:
    """The experiment runner's cell path is bit-identical to the oracle."""

    @pytest.mark.parametrize("n_apps", [6, 40])
    def test_run_case_matches_reference(self, n_apps):
        from repro.experiments.runner import SchedulerCase, run_case

        scenario = random_scenario(7, n_apps=n_apps)
        case = SchedulerCase(name="MaxSysEff")
        cell, result = run_case(scenario, case, return_result=True)
        oracle = reference_simulate(scenario, make_scheduler("MaxSysEff"))
        assert result.records == oracle.records
        assert cell.makespan == oracle.makespan
        assert cell.n_events == oracle.n_events
        assert cell.summary == oracle.summary()


class TestReferenceFallback:
    """Schedulers without a vectorized kernel run on the reference engine."""

    @staticmethod
    def _fallbacks(rec) -> dict:
        return {
            dict(c.labels)["scheduler"]: c.value
            for c in rec.registry.counters()
            if c.name == "repro_engine_fallback_total"
        }

    @pytest.fixture
    def rec(self):
        from repro.obs.telemetry import recorder

        rec = recorder()
        rec.reset()
        rec.enable()
        yield rec
        rec.reset()

    def test_subclass_falls_back_bit_identically(self, rec):
        from repro.online.heuristics import MaxSysEff

        class TunedMaxSysEff(MaxSysEff):
            pass

        scenario = random_scenario(2)
        faulted = scenario.with_faults(random_fault_model(2, scenario))
        config = SimulatorConfig(record_events=True)
        log, oracle_log = EventLog(), EventLog()
        result = simulate(faulted, TunedMaxSysEff(), config, log)
        oracle = reference_simulate(faulted, MaxSysEff(), config, oracle_log)
        assert self._fallbacks(rec) == {"TunedMaxSysEff": 1.0}
        assert result.records == oracle.records
        assert result.makespan == oracle.makespan
        assert result.n_events == oracle.n_events
        assert result.fault_stats == oracle.fault_stats
        assert list(log) == list(oracle_log)

    @pytest.mark.parametrize("prefix", ["", "Priority-"])
    @pytest.mark.parametrize(
        "base", [n.replace("<gamma>", "0.5") for n in available_schedulers()]
    )
    def test_registry_schedulers_never_fall_back(self, rec, prefix, base):
        simulate(random_scenario(0, n_apps=6), make_scheduler(prefix + base))
        assert self._fallbacks(rec) == {}
