"""The indexed bandwidth profile agrees with the linear scans, bit for bit.

:class:`~repro.periodic.schedule.PeriodicSchedule` answers ``io_load``,
``min_available_bandwidth``, ``_profile_segments`` and the candidate starts
from a step-function index kept up to date on every mutation, and
:class:`~repro.periodic.insertion.GreedyInserter` rejects candidates that
overlap the application's own instances before fitting a bandwidth.  The
scans both replaced live in ``tests/periodic_oracle.py``.  Hypothesis builds
schedules with breakpoints within ``1e-9`` of each other, instances that
touch the period end and zero-volume applications, and asserts every query
returns the same float (compared through ``float.hex``) and every placement
is the same :class:`ScheduledInstance`.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import periodic_oracle as oracle
from repro.core.application import Application
from repro.core.platform import Platform
from repro.periodic.heuristics import (
    InsertInScheduleCong,
    InsertInScheduleThrou,
    application_profiles,
)
from repro.periodic.insertion import GreedyInserter
from repro.periodic.period_search import minimum_period
from repro.periodic.schedule import PeriodicSchedule, ScheduledInstance
from repro.utils.validation import ValidationError

PERIOD = 12.0
#: Offsets that put points on, just inside and just outside the 1e-9
#: tolerance of each other.
JITTER = st.sampled_from([0.0, 1e-10, -1e-10, 4e-10, 9e-10, 1e-9, -1e-9, 2e-9])
HEURISTICS = [InsertInScheduleThrou, InsertInScheduleCong]


def _hex(values) -> list[str]:
    return [v.hex() for v in values]


def _instance_key(inst: ScheduledInstance | None):
    if inst is None:
        return None
    return (inst.app_name, *_hex([inst.compute_start, inst.work, inst.io_start,
                                  inst.io_duration, inst.io_bandwidth]))


@st.composite
def direct_schedules(draw) -> PeriodicSchedule:
    """A schedule filled with hand-placed instances on a jittered grid."""
    platform = Platform("oracle", 1000, 1.0e6,
                        draw(st.sampled_from([2.0e7, 4.0e7, 1.0e8])))
    shapes = []
    for k in range(draw(st.integers(1, 5))):
        procs = draw(st.integers(1, 40))
        work = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25]))
        duration = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))
        if work == 0.0 and duration == 0.0:
            duration = 1.0
        bandwidth = draw(st.sampled_from([2.5e5, 5.0e5, 1.0e6])) if duration else 0.0
        shapes.append((f"app{k}", procs, work, duration, bandwidth))
    apps = [
        Application.periodic(name, procs, work, bandwidth * duration * procs, 3)
        for name, procs, work, duration, bandwidth in shapes
    ]
    schedule = PeriodicSchedule(platform, apps, PERIOD)
    for _ in range(draw(st.integers(0, 14))):
        name, procs, work, duration, bandwidth = draw(st.sampled_from(shapes))
        if draw(st.booleans()):
            start = draw(st.integers(0, 11)) * 0.75 + draw(JITTER)
        else:  # end at (or within a jitter of) the period end
            start = PERIOD - work - duration - draw(JITTER)
        gap = draw(st.sampled_from([0.0, 0.0, 1e-10, 0.25]))
        try:
            schedule.add_instance(ScheduledInstance(
                name, start, work, start + work + gap, duration, bandwidth,
            ))
        except ValidationError:
            pass
    return schedule


def _probe_times(schedule: PeriodicSchedule) -> list[float]:
    times = {-1.0, 0.0, PERIOD, PERIOD + 1.0}
    edges = set(schedule.breakpoints())
    for inst in schedule.instances:
        edges.add(inst.io_start - 1e-9)
        edges.add(inst.io_end - 1e-9)
    for t in edges:
        times.update((t, t - 1e-9, t + 1e-9, t - 5e-10, t + 5e-10,
                      math.nextafter(t, -math.inf), math.nextafter(t, math.inf)))
    return sorted(times)


class TestProfileQueries:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(direct_schedules())
    def test_queries_match_the_scans(self, schedule):
        assert _hex(schedule.breakpoints()) == _hex(oracle.breakpoints(schedule))
        probes = _probe_times(schedule)
        assert _hex(schedule.io_load(t) for t in probes) == _hex(
            oracle.io_load(schedule, t) for t in probes
        )
        assert _hex(schedule.available_bandwidth(t) for t in probes) == _hex(
            oracle.available_bandwidth(schedule, t) for t in probes
        )
        windows = [
            (probes[i], probes[min(i + span, len(probes) - 1)])
            for i in range(0, len(probes), 3)
            for span in (0, 1, 4, 17, len(probes) // 2)
        ]
        assert _hex(schedule.min_available_bandwidth(s, e) for s, e in windows) == _hex(
            oracle.min_available_bandwidth(schedule, s, e) for s, e in windows
        )
        segments = oracle.profile_segments(schedule)
        full = [_hex(seg) for seg in segments]
        assert [_hex(seg) for seg in schedule._profile_segments()] == full
        # add_instance checks capacity on a window's segments only: every
        # segment it could overlap by more than 1e-9 must be among them.
        for s, e in windows:
            windowed = [_hex(seg) for seg in schedule._profile_segments(s, e)]
            assert all(w in full for w in windowed)
            for seg, text in zip(segments, full):
                if min(seg[1], e) - max(seg[0], s) > 1e-9:
                    assert text in windowed
        inserter = GreedyInserter(schedule)
        assert _hex(inserter._candidate_starts()) == _hex(
            oracle.candidate_starts(schedule)
        )

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(direct_schedules())
    def test_placements_match_the_scans(self, schedule):
        for app in schedule.applications:
            fast = GreedyInserter(schedule)
            slow = oracle.OracleInserter(schedule)
            assert _instance_key(fast.find_placement(app)) == _instance_key(
                slow.find_placement(app)
            )


@st.composite
def app_sets(draw) -> tuple[Platform, list[Application], float]:
    platform = Platform("oracle", 400, 1.0e6,
                        draw(st.sampled_from([1.0e7, 2.0e7, 4.0e7])))
    apps = []
    for k in range(draw(st.integers(1, 4))):
        procs = draw(st.integers(1, 60))
        work = draw(st.floats(10.0, 40.0))
        volume = draw(st.just(0.0) | st.floats(1.0e6, 3.0e9))
        apps.append(Application.periodic(f"app{k}", procs, work, volume, 4))
    period = minimum_period(platform, apps) * draw(st.floats(1.0, 2.5))
    return platform, apps, period


def _oracle_build(heuristic, platform, apps, period):
    schedule = PeriodicSchedule(platform, apps, period)
    inserter = oracle.OracleInserter(schedule)
    heuristic._fill(schedule, inserter, list(apps),
                    application_profiles(platform, apps))
    schedule.validate()
    return schedule


class TestHeuristicBuilds:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(app_sets(), st.sampled_from(HEURISTICS))
    def test_builds_match_the_scans(self, case, heuristic_cls):
        platform, apps, period = case
        heuristic = heuristic_cls()
        schedule = heuristic.build(platform, apps, period)
        expected = _oracle_build(heuristic, platform, apps, period)
        assert [_instance_key(i) for i in schedule.instances] == [
            _instance_key(i) for i in expected.instances
        ]
