"""Reference bandwidth profile: the linear scans the periodic inserter was born with.

Before :class:`~repro.periodic.schedule.PeriodicSchedule` kept a step-function
index of its I/O load, every profile query rescanned the placed instances:
``io_load`` summed the rate of every instance whose transfer window covers
the instant, ``min_available_bandwidth`` probed each breakpoint inside the
window, ``_profile_segments`` summed the instances covering each segment's
midpoint and ``_candidate_starts`` re-sorted every instance's four points.
:class:`OracleInserter` is the first-fit search of
:class:`~repro.periodic.insertion.GreedyInserter` on top of those scans,
without the early own-overlap rejection: every candidate runs the bandwidth
fixed point before the footprint is checked against the application's own
instances.  Its fixed point iterates until it converges, which it always
does (``gamma`` strictly decreases over finitely many availability levels).

``tests/test_periodic_oracle.py`` asserts the indexed production code gives
bit-identical values and identical placements.  Kept as scans on purpose;
do not optimize it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.application import Application
from repro.periodic.schedule import PeriodicSchedule, ScheduledInstance

_EPS = 1e-9
_MIN_BANDWIDTH_FRACTION = 1e-6


def breakpoints(schedule: PeriodicSchedule) -> list[float]:
    """Sorted distinct time points where the I/O load may change."""
    points = {0.0, schedule.period}
    for inst in schedule.instances:
        points.add(inst.io_start)
        points.add(inst.io_end)
        points.add(inst.compute_start)
        points.add(inst.compute_end)
    return sorted(p for p in points if -_EPS <= p <= schedule.period + _EPS)


def io_load(schedule: PeriodicSchedule, time: float) -> float:
    """Aggregate back-end bandwidth in use at ``time``, summed in insertion order."""
    load = 0.0
    for inst in schedule.instances:
        if inst.io_start - _EPS <= time < inst.io_end - _EPS:
            load += inst.io_bandwidth * schedule.application(inst.app_name).processors
    return load


def available_bandwidth(schedule: PeriodicSchedule, time: float) -> float:
    """Back-end bandwidth still free at ``time``."""
    return max(0.0, schedule.platform.system_bandwidth - io_load(schedule, time))


def min_available_bandwidth(
    schedule: PeriodicSchedule, start: float, end: float
) -> float:
    """Minimum free back-end bandwidth over ``[start, end)``."""
    if end <= start:
        return schedule.platform.system_bandwidth
    minimum = available_bandwidth(schedule, start)
    for point in breakpoints(schedule):
        if start < point < end:
            value = available_bandwidth(schedule, point)
            if value < minimum:
                minimum = value
    return minimum


def profile_segments(schedule: PeriodicSchedule) -> list[tuple[float, float, float]]:
    """``(start, end, load)`` segments of the I/O profile, load at each midpoint."""
    points = breakpoints(schedule)
    segments = []
    for start, end in zip(points[:-1], points[1:]):
        if end - start <= _EPS:
            continue
        segments.append((start, end, io_load(schedule, 0.5 * (start + end))))
    return segments


def candidate_starts(schedule: PeriodicSchedule) -> list[float]:
    """Sorted candidate compute-start times (0 plus every breakpoint)."""
    points = set(breakpoints(schedule))
    points.add(0.0)
    return sorted(p for p in points if p < schedule.period - _EPS)


class OracleInserter:
    """First-fit insertion over the scans above, without early rejection."""

    def __init__(self, schedule: PeriodicSchedule):
        self.schedule = schedule

    def try_insert(self, app: Application) -> bool:
        placement = self.find_placement(app)
        if placement is None:
            return False
        self.schedule.add_instance(placement)
        return True

    def find_placement(self, app: Application) -> Optional[ScheduledInstance]:
        work = app.instances[0].work
        volume = app.instances[0].io_volume
        own = [
            (inst.compute_start, inst.end)
            for inst in self.schedule.instances_of(app.name)
        ]
        for start in candidate_starts(self.schedule):
            placement = self._evaluate_candidate(app, own, start, work, volume)
            if placement is not None:
                return placement
        return None

    def _evaluate_candidate(self, app, own, start, work, volume):
        period = self.schedule.period
        compute_end = start + work
        if compute_end > period + _EPS:
            return None
        if volume <= _EPS:
            if _overlaps_own(own, start, compute_end):
                return None
            return ScheduledInstance(
                app_name=app.name, compute_start=start, work=work,
                io_start=compute_end, io_duration=0.0, io_bandwidth=0.0,
            )
        gamma = self._fit_constant_bandwidth(app, compute_end, volume)
        if gamma is None:
            return None
        duration = volume / (gamma * app.processors)
        footprint_end = compute_end + duration
        if footprint_end > period + _EPS:
            return None
        if _overlaps_own(own, start, footprint_end):
            return None
        return ScheduledInstance(
            app_name=app.name, compute_start=start, work=work,
            io_start=compute_end, io_duration=duration, io_bandwidth=gamma,
        )

    def _fit_constant_bandwidth(self, app, io_start, volume):
        schedule = self.schedule
        platform = schedule.platform
        beta = app.processors
        period = schedule.period
        gamma = min(
            platform.node_bandwidth,
            available_bandwidth(schedule, io_start) / beta,
        )
        min_gamma = platform.node_bandwidth * _MIN_BANDWIDTH_FRACTION
        while True:
            if gamma <= min_gamma:
                return None
            duration = volume / (gamma * beta)
            io_end = io_start + duration
            if io_end > period + _EPS:
                return None
            feasible = min(
                platform.node_bandwidth,
                min_available_bandwidth(schedule, io_start, io_end) / beta,
            )
            if feasible >= gamma - _EPS:
                return gamma
            gamma = feasible


def _overlaps_own(own, start, end) -> bool:
    for own_start, own_end in own:
        if start < own_end - _EPS and own_start < end - _EPS:
            return True
    return False
