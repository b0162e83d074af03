"""Warm-started period sweep == naive sweep, bit for bit.

The warm start (:mod:`repro.periodic.period_search`) skips a greedy build
whenever the inserter's period-validity bound proves the build cannot
change; these tests assert the contract directly — identical sweep traces,
best periods, placements and scores for both heuristics over a spread of
application sets, step sizes and objectives — and that the warm start
actually skips rebuilds (otherwise it is dead weight).
"""

from __future__ import annotations

import math

import pytest

from repro.core.application import Application
from repro.core.platform import Platform
from repro.periodic.heuristics import (
    InsertInScheduleCong,
    InsertInScheduleThrou,
    application_profiles,
)
from repro.obs.telemetry import recorder
from repro.periodic.period_search import search_period
from repro.workload.generator import MixSpec, generate_mix


def _platform() -> Platform:
    return Platform(
        name="warm-start",
        total_processors=400,
        node_bandwidth=1.0e6,
        system_bandwidth=4.0e7,
    )


def _spec_apps() -> list[Application]:
    """The examples/specs/periodic.toml application set."""
    shapes = [
        ("checkpointer", 120, 180.0, 2.4e9, 6),
        ("analytics", 80, 90.0, 1.6e9, 8),
        ("solver", 150, 420.0, 3.0e9, 4),
        ("post-proc", 50, 60.0, 8.0e8, 10),
    ]
    return [
        Application.periodic(
            name=name, processors=procs, work=work, io_volume=vol, n_instances=n
        )
        for name, procs, work, vol, n in shapes
    ]


def _mix_apps(seed: int, n_small: int = 5, n_large: int = 2) -> list[Application]:
    platform = _platform()
    scenario = generate_mix(
        MixSpec(n_small=n_small, n_large=n_large), platform, 0.25, seed,
        label=f"warm-{seed}",
    )
    return list(scenario.applications)


def _placements(schedule) -> list[tuple]:
    return sorted(
        (
            i.app_name,
            i.compute_start,
            i.work,
            i.io_start,
            i.io_duration,
            i.io_bandwidth,
        )
        for i in schedule.instances
    )


HEURISTICS = [InsertInScheduleThrou, InsertInScheduleCong]


@pytest.fixture
def live_recorder():
    rec = recorder()
    rec.reset()
    rec.enable()
    yield rec
    rec.reset()


def _bypasses(rec) -> float:
    return sum(
        c.value
        for c in rec.registry.counters()
        if c.name == "repro_period_warm_start_bypass_total"
    )


class TestWarmStartEquivalence:
    @pytest.mark.parametrize("heuristic_cls", HEURISTICS)
    @pytest.mark.parametrize("objective", ["system_efficiency", "dilation"])
    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.3])
    def test_spec_apps_identical(self, heuristic_cls, objective, epsilon):
        platform = _platform()
        apps = _spec_apps()
        kwargs = dict(
            objective=objective, epsilon=epsilon, max_period_factor=6.0
        )
        warm = search_period(
            heuristic_cls(), platform, apps, warm_start=True, **kwargs
        )
        naive = search_period(
            heuristic_cls(), platform, apps, warm_start=False, **kwargs
        )
        assert warm.sweep == naive.sweep  # exact float equality, per point
        assert warm.best_period == naive.best_period
        assert _placements(warm.best_schedule) == _placements(naive.best_schedule)
        assert warm.best_schedule.summary() == naive.best_schedule.summary()
        assert naive.n_builds == len(naive.sweep)

    @pytest.mark.parametrize("heuristic_cls", HEURISTICS)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_mixes_identical(self, heuristic_cls, seed):
        platform = _platform()
        apps = _mix_apps(seed)
        warm = search_period(
            heuristic_cls(), platform, apps, epsilon=0.1, max_period_factor=8.0
        )
        naive = search_period(
            heuristic_cls(), platform, apps, epsilon=0.1,
            max_period_factor=8.0, warm_start=False,
        )
        assert warm.sweep == naive.sweep
        assert warm.best_period == naive.best_period
        assert _placements(warm.best_schedule) == _placements(naive.best_schedule)

    def test_warm_start_skips_rebuilds(self):
        """A fine sweep must reuse builds across provably identical points.

        Coarse steps (the bundled spec's eps=0.1 jumps ~50 s at a time)
        genuinely change the greedy packing at almost every point, so skips
        concentrate in fine sweeps — the regime whose cost the warm start is
        meant to amortize.
        """
        platform = _platform()
        apps = _spec_apps()
        result = search_period(
            InsertInScheduleThrou(), platform, apps, epsilon=0.005,
            max_period_factor=6.0,
        )
        assert len(result.sweep) > 2
        assert 0 < result.n_builds < len(result.sweep)
        naive = search_period(
            InsertInScheduleThrou(), platform, apps, epsilon=0.005,
            max_period_factor=6.0, warm_start=False,
        )
        assert naive.n_builds == len(naive.sweep)
        assert result.sweep == naive.sweep

    def test_small_sweep_falls_back_to_naive(self, live_recorder):
        """Below ``_WARM_START_MIN_POINTS`` the warm start must step aside.

        Regression test for the BENCH_grid scale-1 period sweep: at ~20
        sweep points the validity bookkeeping cost more than the (zero)
        reuse it bought, so ``warm_start=True`` ran 0.91–0.94x the naive
        sweep.  The adaptive warm start drops to naive rebuilds there —
        builds at every point, bit-identical trace and placements.
        """
        from repro.periodic.period_search import _WARM_START_MIN_POINTS

        platform = _platform()
        apps = _spec_apps()
        # eps=0.1 over a 6x range gives ~20 points — the regressing regime.
        kwargs = dict(epsilon=0.1, max_period_factor=6.0)
        for heuristic_cls in HEURISTICS:
            warm = search_period(
                heuristic_cls(), platform, apps, warm_start=True, **kwargs
            )
            naive = search_period(
                heuristic_cls(), platform, apps, warm_start=False, **kwargs
            )
            assert len(warm.sweep) < _WARM_START_MIN_POINTS
            # The adaptive fallback rebuilds at every point, exactly like
            # the naive sweep it replaced.
            assert warm.n_builds == len(warm.sweep)
            assert warm.sweep == naive.sweep
            assert warm.best_period == naive.best_period
            assert _placements(warm.best_schedule) == _placements(
                naive.best_schedule
            )
        # One counted bypass per warm_start=True call; warm_start=False
        # sweeps never reach the adaptive check.
        assert _bypasses(live_recorder) == len(HEURISTICS)

    def test_fine_sweep_still_warm_starts(self, live_recorder):
        """Above the threshold the warm start keeps skipping rebuilds."""
        from repro.periodic.period_search import _WARM_START_MIN_POINTS

        platform = _platform()
        apps = _spec_apps()
        result = search_period(
            InsertInScheduleThrou(), platform, apps, epsilon=0.005,
            max_period_factor=6.0,
        )
        assert len(result.sweep) >= _WARM_START_MIN_POINTS
        assert result.n_builds < len(result.sweep)
        assert _bypasses(live_recorder) == 0

    def test_single_point_sweep(self):
        platform = _platform()
        apps = _spec_apps()
        from repro.periodic.period_search import minimum_period

        t_min = minimum_period(platform, apps)
        result = search_period(
            InsertInScheduleThrou(), platform, apps, max_period=t_min
        )
        assert len(result.sweep) == 1
        assert result.n_builds == 1
        assert result.best_period == t_min


class TestProfiles:
    def test_profiles_match_direct_computation(self):
        platform = _platform()
        apps = _spec_apps()
        profiles = application_profiles(platform, apps)
        for app in apps:
            inst = app.instances[0]
            peak = platform.peak_application_bandwidth(app.processors)
            profile = profiles[app.name]
            assert profile.work == inst.work
            assert profile.io_volume == inst.io_volume
            assert profile.time_io == inst.io_volume / peak
            assert profile.footprint == inst.work + inst.io_volume / peak
            assert profile.ratio == inst.work / profile.time_io

    def test_zero_io_profile(self):
        platform = _platform()
        app = Application.periodic(
            name="dry", processors=10, work=50.0, io_volume=0.0, n_instances=2
        )
        profiles = application_profiles(platform, [app])
        assert profiles["dry"].time_io == 0.0
        assert math.isinf(profiles["dry"].ratio)
        assert profiles["dry"].footprint == 50.0
