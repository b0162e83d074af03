"""Unit tests for periodic schedules, greedy insertion and the period search."""

from __future__ import annotations

import hashlib
import math

import pytest

from repro.core.application import Application
from repro.core.platform import Platform
from repro.periodic.heuristics import (
    InsertInScheduleCong,
    InsertInScheduleThrou,
    application_profiles,
)
from repro.periodic.insertion import GreedyInserter
from repro.periodic.period_search import minimum_period, search_period
from repro.periodic.schedule import PeriodicSchedule, ScheduledInstance
from repro.utils.validation import ValidationError
from repro.workload.generator import MixSpec, generate_mix

PLATFORM = Platform("p", 100, 1e6, 2e7)


def app(name="a", procs=10, work=100.0, vol=1e8, n=3):
    # 10 procs * 1 MB/s = 10 MB/s -> vol 1e8 takes 10 s dedicated.
    return Application.periodic(name, procs, work, vol, n)


class TestScheduledInstance:
    def test_properties(self):
        inst = ScheduledInstance("a", 0.0, 10.0, 10.0, 5.0, 1e6)
        assert inst.compute_end == 10.0
        assert inst.io_end == 15.0
        assert inst.end == 15.0

    def test_io_before_compute_end_rejected(self):
        with pytest.raises(ValidationError):
            ScheduledInstance("a", 0.0, 10.0, 5.0, 5.0, 1e6)

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError):
            ScheduledInstance("a", -1.0, 10.0, 10.0, 5.0, 1e6)


class TestPeriodicSchedule:
    def test_requires_periodic_applications(self):
        aperiodic = Application.from_sequences("x", 10, [1, 2], [1e6, 1e6])
        with pytest.raises(ValidationError):
            PeriodicSchedule(PLATFORM, [aperiodic], period=100.0)

    def test_add_instance_and_counts(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=300.0)
        schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 10.0, 1e6))
        assert schedule.instances_per_application()["a"] == 1
        assert len(schedule) == 1
        assert schedule.is_complete()

    def test_volume_mismatch_rejected(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=300.0)
        with pytest.raises(ValidationError):
            # Transfers 10 procs * 1e6 * 5 s = 5e7 != 1e8.
            schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 5.0, 1e6))

    def test_own_overlap_rejected(self):
        schedule = PeriodicSchedule(PLATFORM, [app(n=2)], period=400.0)
        schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 10.0, 1e6))
        with pytest.raises(ValidationError):
            schedule.add_instance(ScheduledInstance("a", 50.0, 100.0, 150.0, 10.0, 1e6))

    def test_bandwidth_cap_rejected(self):
        big1 = app("b1", procs=50, vol=1e9)   # 50 MB/s demand at gamma = b
        big2 = app("b2", procs=50, vol=1e9)
        schedule = PeriodicSchedule(PLATFORM, [big1, big2], period=1000.0)
        # b1 uses min(50*1e6, 2e7) = 2e7 -> gamma = 4e5 over 50 s.
        schedule.add_instance(ScheduledInstance("b1", 0.0, 100.0, 100.0, 50.0, 4e5))
        with pytest.raises(ValidationError):
            # Overlapping I/O that would need another 2e7.
            schedule.add_instance(ScheduledInstance("b2", 10.0, 100.0, 110.0, 50.0, 4e5))

    def test_node_bandwidth_cap_rejected(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=300.0)
        with pytest.raises(ValidationError):
            schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 5.0, 2e6))

    def test_period_overflow_rejected(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=105.0)
        with pytest.raises(ValidationError):
            schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 10.0, 1e6))

    def test_steady_state_efficiency(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=220.0)
        schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 10.0, 1e6))
        schedule.add_instance(ScheduledInstance("a", 110.0, 100.0, 210.0, 10.0, 1e6))
        assert schedule.steady_state_efficiency("a") == pytest.approx(200.0 / 220.0)
        summary = schedule.summary()
        assert summary.dilation == pytest.approx((100 / 110) / (200 / 220))

    def test_available_bandwidth_profile(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=300.0)
        schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 10.0, 1e6))
        assert schedule.available_bandwidth(50.0) == pytest.approx(2e7)
        assert schedule.available_bandwidth(105.0) == pytest.approx(2e7 - 1e7)
        assert schedule.min_available_bandwidth(0.0, 300.0) == pytest.approx(1e7)

    def test_validate_passes_on_consistent_schedule(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=300.0)
        schedule.add_instance(ScheduledInstance("a", 0.0, 100.0, 100.0, 10.0, 1e6))
        schedule.validate()


class TestGreedyInserter:
    def test_first_instance_at_time_zero(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=300.0)
        inserter = GreedyInserter(schedule)
        assert inserter.try_insert(app()) is True
        placed = schedule.instances[0]
        assert placed.compute_start == 0.0
        assert placed.io_start == pytest.approx(100.0)
        assert placed.io_bandwidth == pytest.approx(1e6)

    def test_insertion_stops_when_full(self):
        schedule = PeriodicSchedule(PLATFORM, [app()], period=230.0)
        inserter = GreedyInserter(schedule)
        count = 0
        while inserter.try_insert(app()):
            count += 1
        # Each instance occupies 110 s: exactly two fit in 230 s.
        assert count == 2

    def test_two_apps_share_bandwidth_windows(self):
        a = app("a", procs=30, vol=6e8)   # peak 2e7 system-limited -> 30 s I/O
        c = app("c", procs=30, vol=6e8)
        schedule = PeriodicSchedule(PLATFORM, [a, c], period=400.0)
        inserter = GreedyInserter(schedule)
        assert inserter.try_insert(a)
        assert inserter.try_insert(c)
        schedule.validate()
        # The second application cannot transfer at the full back-end rate
        # while the first one is transferring, so either it starts later or
        # it runs at a reduced constant bandwidth.
        first, second = schedule.instances
        if second.io_start < first.io_end:
            assert second.io_bandwidth < PLATFORM.node_bandwidth

    def test_unknown_application_rejected(self):
        schedule = PeriodicSchedule(PLATFORM, [app("a")], period=300.0)
        inserter = GreedyInserter(schedule)
        with pytest.raises(ValidationError):
            inserter.find_placement(app("ghost"))

    def test_infeasible_period_returns_none(self):
        schedule = PeriodicSchedule(PLATFORM, [app(work=500.0)], period=100.0)
        inserter = GreedyInserter(schedule)
        assert inserter.find_placement(app(work=500.0)) is None

    def test_bandwidth_fixed_point_crosses_a_long_staircase(self):
        """Regression: the fixed point used to stop after 64 refinements and
        return a bandwidth it never checked over its own (longer) window, so
        add_instance then rejected the placement mid-build.

        80 blocker transfers start one after another; each refinement of the
        probe's bandwidth stretches its window across exactly one more of
        them, so the true fixed point is B - 80 r, reached after 81 steps.
        """
        capacity, rate, volume, period, io_start = 1.0e9, 1.0e6, 1.0e9, 100.0, 1.0
        platform = Platform("stair", 81, capacity, capacity)
        steps = [io_start + volume / (capacity - k * rate) - 1e-4 for k in range(80)]
        blockers = [
            Application.periodic(f"blk{k:02d}", 1, t, rate * (period - t), 1)
            for k, t in enumerate(steps)
        ]
        probe = Application.periodic("probe", 1, io_start, volume, 1)
        schedule = PeriodicSchedule(platform, blockers + [probe], period)
        for blocker, t in zip(blockers, steps):
            schedule.add_instance(
                ScheduledInstance(blocker.name, 0.0, t, t, period - t, rate)
            )
        assert GreedyInserter(schedule).try_insert(probe)
        schedule.validate()
        placed = schedule.instances_of("probe")[0]
        assert placed.io_start == io_start
        assert placed.io_bandwidth == capacity - 80 * rate


class TestHeuristics:
    def apps(self):
        return [
            app("io_heavy", procs=20, work=50.0, vol=1e9, n=3),
            app("cpu_heavy", procs=40, work=400.0, vol=2e8, n=3),
            app("balanced", procs=30, work=150.0, vol=5e8, n=3),
        ]

    @pytest.mark.parametrize("heuristic", [InsertInScheduleThrou(), InsertInScheduleCong()])
    def test_schedules_are_valid_and_complete(self, heuristic):
        schedule = heuristic.build(PLATFORM, self.apps(), period=1200.0)
        schedule.validate()
        assert schedule.is_complete()

    def test_throu_fills_more_of_the_period(self):
        # The throughput heuristic should never schedule fewer total
        # instances than needed for completeness; usually it packs more of
        # the I/O-bound application.
        schedule = InsertInScheduleThrou().build(PLATFORM, self.apps(), period=1200.0)
        counts = schedule.instances_per_application()
        assert counts["io_heavy"] >= 1

    def test_cong_balances_scheduled_load(self):
        # The Dilation-oriented heuristic balances n_per * (w + time_io), not
        # raw instance counts: every application's scheduled load should end
        # up within one footprint of the others.
        schedule = InsertInScheduleCong().build(PLATFORM, self.apps(), period=1200.0)
        counts = schedule.instances_per_application()
        loads = {}
        footprints = {}
        for application in self.apps():
            inst = application.instances[0]
            peak = PLATFORM.peak_application_bandwidth(application.processors)
            footprint = inst.work + inst.io_volume / peak
            footprints[application.name] = footprint
            loads[application.name] = counts[application.name] * footprint
        spread = max(loads.values()) - min(loads.values())
        assert spread <= max(footprints.values()) + 1e-6

    def test_empty_applications_rejected(self):
        with pytest.raises(ValidationError):
            InsertInScheduleThrou().build(PLATFORM, [], period=100.0)


class TestPeriodSearch:
    def test_minimum_period(self):
        a = app(procs=10, work=100.0, vol=1e8)  # 100 + 10
        c = app("c", procs=20, work=300.0, vol=2e8)  # 300 + 10
        assert minimum_period(PLATFORM, [a, c]) == pytest.approx(310.0)

    def test_search_returns_best_and_sweep(self):
        apps = [app("a", procs=30, work=100.0, vol=3e8, n=2),
                app("b", procs=30, work=150.0, vol=3e8, n=2)]
        result = search_period(
            InsertInScheduleCong(), PLATFORM, apps,
            objective="dilation", epsilon=0.25, max_period_factor=4.0,
        )
        assert result.best_schedule.is_complete()
        assert len(result.sweep) >= 2
        assert result.n_builds == len(result.sweep)  # one build per point
        assert result.best_point.period == result.best_period

    def test_objective_validation(self):
        with pytest.raises(ValidationError):
            search_period(
                InsertInScheduleCong(), PLATFORM, [app()], objective="nonsense"
            )

    def test_bad_epsilon(self):
        with pytest.raises(ValidationError):
            search_period(InsertInScheduleCong(), PLATFORM, [app()], epsilon=0.0)

    def test_epsilon_below_float_resolution_rejected(self):
        """``1 + 1e-20 == 1``: the sweep would never advance, so it must
        fail up front instead of hanging."""
        with pytest.raises(ValidationError, match="epsilon"):
            search_period(InsertInScheduleCong(), PLATFORM, [app()], epsilon=1e-20)

    def test_single_point_sweep(self):
        platform = _golden_platform()
        apps = _golden_spec_apps()
        t_min = minimum_period(platform, apps)
        result = search_period(
            InsertInScheduleThrou(), platform, apps, max_period=t_min
        )
        assert len(result.sweep) == 1
        assert result.n_builds == 1
        assert result.best_period == t_min

    def test_max_period_smaller_than_min_rejected(self):
        with pytest.raises(ValidationError):
            search_period(
                InsertInScheduleCong(), PLATFORM, [app(work=500.0)], max_period=10.0
            )

    def test_all_incomplete_sweep_still_returns_a_schedule(self):
        """Regression: with the dilation objective every incomplete schedule
        scores -inf, which used to tie the -inf best-score sentinel so no
        schedule was ever selected (AssertionError at the end of the sweep).
        Three machine-filling applications can never all fit in one period
        at max_period_factor=1.0."""
        apps = [app(f"app-{i}", procs=100, work=100.0, vol=1e8, n=2)
                for i in range(3)]
        result = search_period(
            InsertInScheduleCong(), PLATFORM, apps,
            objective="dilation", max_period_factor=1.0,
        )
        assert result.best_schedule is not None
        assert not result.best_schedule.is_complete()
        assert result.best_point.period == result.best_period

    def test_best_system_efficiency_not_worse_than_first_point(self):
        apps = [app("a", procs=30, work=100.0, vol=3e8, n=2),
                app("b", procs=30, work=150.0, vol=3e8, n=2)]
        result = search_period(
            InsertInScheduleThrou(), PLATFORM, apps,
            objective="system_efficiency", epsilon=0.3, max_period_factor=3.0,
        )
        first = result.sweep[0]
        best = result.best_point
        if first.complete:
            assert best.system_efficiency >= first.system_efficiency - 1e-9


def _golden_platform() -> Platform:
    return Platform("golden", 400, 1.0e6, 4.0e7)


def _golden_spec_apps() -> list[Application]:
    """The examples/specs/periodic.toml application set."""
    shapes = [
        ("checkpointer", 120, 180.0, 2.4e9, 6),
        ("analytics", 80, 90.0, 1.6e9, 8),
        ("solver", 150, 420.0, 3.0e9, 4),
        ("post-proc", 50, 60.0, 8.0e8, 10),
    ]
    return [Application.periodic(*shape) for shape in shapes]


def _golden_mix_apps(seed: int) -> list[Application]:
    scenario = generate_mix(MixSpec(n_small=5, n_large=2), _golden_platform(),
                            0.25, seed, label=f"golden-{seed}")
    return list(scenario.applications)


def _sweep_text(result) -> str:
    """Every float of a sweep, its best period and best placements, exactly."""
    lines = [f"best {result.best_period.hex()}"]
    for point in result.sweep:
        lines.append(
            f"pt {point.period.hex()} {point.system_efficiency.hex()} "
            f"{point.dilation.hex()} {int(point.complete)}"
        )
    for inst in result.best_schedule.instances:
        lines.append(
            f"in {inst.app_name} {inst.compute_start.hex()} {inst.work.hex()} "
            f"{inst.io_start.hex()} {inst.io_duration.hex()} {inst.io_bandwidth.hex()}"
        )
    return "\n".join(lines)


class TestGoldenSweeps:
    """SHA-256 pins of period sweeps: traces, best periods, best placements.

    Each heuristic runs under its own objective at eps = 0.05 over a 6x
    range (38 points, one greedy build each).  The profile index, the
    early own-overlap rejection and the fixed-point loop must leave every
    float of these sweeps unchanged; a failure here means a schedule moved,
    not that the pins need updating.
    """

    CASES = {
        ("throughput", "spec"): "c4772459c29e1ab5f8f79d3f8f2e7a66b96bccc0a044c03d24798b26e98eb066",
        ("throughput", "mix3"): "d2b68c669459b6dd95274b0c138d64e74f0786762269c6abdae2f39f929b1203",
        ("throughput", "mix11"): "f7f4296a75eeb1c8b873509474796cb1d9377f0a4f6dcf8cd1aeb7c95a0c931f",
        ("congestion", "spec"): "85eb0ca3ac41fa3021976b6e79757a8b37835c25f0d9171e2cb05c2eeacb3c30",
        ("congestion", "mix3"): "6b764febff86a5cd409d09f5ac707c5d2fcfab3457b9adfd13343902229903c6",
        ("congestion", "mix11"): "dcc1b92dd25b26cb607b573194ee1ec715bd12553876ddb073dce107b7a1e042",
    }
    HEURISTICS = {
        "throughput": (InsertInScheduleThrou, "system_efficiency"),
        "congestion": (InsertInScheduleCong, "dilation"),
    }
    APPS = {
        "spec": _golden_spec_apps,
        "mix3": lambda: _golden_mix_apps(3),
        "mix11": lambda: _golden_mix_apps(11),
    }

    @pytest.mark.parametrize("heuristic,apps", sorted(CASES))
    def test_sweep(self, heuristic, apps):
        heuristic_cls, objective = self.HEURISTICS[heuristic]
        result = search_period(
            heuristic_cls(), _golden_platform(), self.APPS[apps](),
            objective=objective, epsilon=0.05, max_period_factor=6.0,
        )
        assert len(result.sweep) == 38
        digest = hashlib.sha256(_sweep_text(result).encode()).hexdigest()
        assert digest == self.CASES[heuristic, apps]


def _placements(schedule) -> list[tuple]:
    return sorted(
        (i.app_name, i.compute_start, i.work, i.io_start, i.io_duration,
         i.io_bandwidth)
        for i in schedule.instances
    )


class TestSweepMatchesPointwiseBuilds:
    """``search_period`` == Section 3.2.3 written out point by point.

    The reference steps ``T`` from the minimum period by ``(1 + eps)`` up
    to ``T_max``, builds a fresh schedule at every period without the
    shared profile table, and keeps the first best point.  The sweep must
    match it exactly: periods, scores and completeness per point, the best
    period, and the best schedule's placements and summary.  Some cases
    admit no complete schedule at any period, so the ranking of incomplete
    points is covered too.
    """

    HEURISTICS = [InsertInScheduleThrou, InsertInScheduleCong]

    def _check(self, heuristic_cls, apps, objective, epsilon, factor):
        platform = _golden_platform()
        result = search_period(
            heuristic_cls(), platform, apps, objective=objective,
            epsilon=epsilon, max_period_factor=factor,
        )
        t_min = minimum_period(platform, apps)
        t_max = t_min * factor
        periods = [t_min]
        while periods[-1] < t_max:
            periods.append(min(periods[-1] * (1.0 + epsilon), t_max))
        schedules = [heuristic_cls().build(platform, apps, p) for p in periods]

        assert result.n_builds == len(periods)
        assert [point.period for point in result.sweep] == periods
        for point, schedule in zip(result.sweep, schedules):
            summary = schedule.summary()
            assert point.system_efficiency == summary.system_efficiency
            assert point.dilation == summary.dilation
            assert point.complete == schedule.is_complete()

        def score(schedule) -> float:
            # Incomplete schedules rank below every complete one; under the
            # dilation objective they are never better than the first point.
            summary = schedule.summary()
            if objective == "system_efficiency":
                bonus = 0.0 if schedule.is_complete() else -1e12
                return bonus + summary.system_efficiency
            if not schedule.is_complete() or not math.isfinite(summary.dilation):
                return -math.inf
            return -summary.dilation

        scores = [score(s) for s in schedules]
        best = scores.index(max(scores))  # the first best point
        assert result.best_period == periods[best]
        assert _placements(result.best_schedule) == _placements(schedules[best])
        assert result.best_schedule.summary() == schedules[best].summary()
        return result

    @pytest.mark.parametrize("heuristic_cls", HEURISTICS)
    @pytest.mark.parametrize("objective", ["system_efficiency", "dilation"])
    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.3])
    def test_spec_apps(self, heuristic_cls, objective, epsilon):
        self._check(heuristic_cls, _golden_spec_apps(), objective, epsilon, 6.0)

    @pytest.mark.parametrize("heuristic_cls", HEURISTICS)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_mixes(self, heuristic_cls, seed):
        self._check(heuristic_cls, _golden_mix_apps(seed), "system_efficiency",
                    0.1, 8.0)

    def test_fine_sweep_builds_every_point(self):
        """eps = 0.005 over a 6x range: every one of the ~360 points is
        built, with no point skipped or reused."""
        result = self._check(InsertInScheduleThrou, _golden_spec_apps(),
                             "system_efficiency", 0.005, 6.0)
        assert len(result.sweep) > 300


class TestProfiles:
    def test_profiles_match_direct_computation(self):
        platform = _golden_platform()
        apps = _golden_spec_apps()
        profiles = application_profiles(platform, apps)
        for application in apps:
            inst = application.instances[0]
            peak = platform.peak_application_bandwidth(application.processors)
            profile = profiles[application.name]
            assert profile.work == inst.work
            assert profile.io_volume == inst.io_volume
            assert profile.time_io == inst.io_volume / peak
            assert profile.footprint == inst.work + inst.io_volume / peak
            assert profile.ratio == inst.work / profile.time_io

    def test_zero_io_profile(self):
        dry = Application.periodic(
            name="dry", processors=10, work=50.0, io_volume=0.0, n_instances=2
        )
        profiles = application_profiles(_golden_platform(), [dry])
        assert profiles["dry"].time_io == 0.0
        assert math.isinf(profiles["dry"].ratio)
        assert profiles["dry"].footprint == 50.0
