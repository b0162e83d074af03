"""Greedy placement of one instance into a periodic schedule.

The heuristics of Section 3.2.3 both rely on the same primitive: "try to
find the first instant in the period where ``vol_io`` can be executed
contiguously with a constant bandwidth while matching the various
constraints".  :class:`GreedyInserter` implements that first-fit search:

1. candidate start times are the existing schedule breakpoints (0 is
   always one) — between two breakpoints the bandwidth profile is
   constant, so if a placement is feasible anywhere inside a gap it is
   feasible at the gap's left edge;
2. for a candidate compute start ``t``, the compute chunk occupies
   ``[t, t + w)`` and must not overlap the application's other instances;
   a candidate that fails this is rejected before any bandwidth is fitted
   (the footprint only extends past the compute chunk, so it would collide
   too);
3. the I/O transfer starts at ``t + w`` with the largest constant bandwidth
   the profile allows: starting from ``gamma = min(b, avail / beta)`` the
   inserter repeatedly shrinks ``gamma`` to the minimum availability over
   the transfer window (whose length grows as ``vol / (beta * gamma)``)
   until it reaches a fixed point — usually at once, and always within one
   step per distinct availability level of the profile, since ``gamma``
   strictly decreases through those levels;
4. the placement is accepted if the whole footprint fits inside the period
   and does not collide with the application's other instances.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from repro.core.application import Application
from repro.periodic.schedule import PeriodicSchedule, ScheduledInstance
from repro.utils.validation import ValidationError

__all__ = ["GreedyInserter"]

_EPS = 1e-9
#: Give up on a candidate when the achievable bandwidth is below this
#: fraction of the node bandwidth (the transfer would be absurdly long).
_MIN_BANDWIDTH_FRACTION = 1e-6


class GreedyInserter:
    """First-fit insertion of instances into a :class:`PeriodicSchedule`."""

    def __init__(self, schedule: PeriodicSchedule):
        self.schedule = schedule

    # ------------------------------------------------------------------ #
    def try_insert(self, app: Application) -> bool:
        """Place one more instance of ``app`` if possible.

        Returns ``True`` (and mutates the schedule) on success, ``False``
        when no feasible placement exists within the period.
        """
        placement = self.find_placement(app)
        if placement is None:
            return False
        self.schedule.add_instance(placement)
        return True

    def find_placement(self, app: Application) -> Optional[ScheduledInstance]:
        """Earliest feasible placement of the next instance of ``app``."""
        if app.name not in self.schedule:
            raise ValidationError(
                f"application {app.name!r} is not part of this periodic schedule"
            )
        work = app.instances[0].work
        volume = app.instances[0].io_volume
        # The app's own occupancy spans are fixed for the whole scan.
        own = [
            (inst.compute_start, inst.end)
            for inst in self.schedule.instances_of(app.name)
        ]
        for start in self._candidate_starts():
            placement = self._evaluate_candidate(app, own, start, work, volume)
            if placement is not None:
                return placement
        return None

    # ------------------------------------------------------------------ #
    def _candidate_starts(self) -> list[float]:
        """Sorted candidate compute-start times: every breakpoint before the
        period end (0 is always a breakpoint, and so are the ends of the
        application's own instances, which chain instances back to back)."""
        points = self.schedule._points
        return points[:bisect_left(points, self.schedule.period - _EPS)]

    def _evaluate_candidate(
        self,
        app: Application,
        own: list[tuple[float, float]],
        start: float,
        work: float,
        volume: float,
    ) -> Optional[ScheduledInstance]:
        period = self.schedule.period

        # Compute chunk must fit and not overlap the app's other instances.
        compute_end = start + work
        if compute_end > period + _EPS:
            return None
        if self._overlaps_own(own, start, compute_end):
            return None

        if volume <= _EPS:
            return ScheduledInstance(
                app_name=app.name,
                compute_start=start,
                work=work,
                io_start=compute_end,
                io_duration=0.0,
                io_bandwidth=0.0,
            )

        gamma = self._fit_constant_bandwidth(app, compute_end, volume)
        if gamma is None:
            return None
        duration = volume / (gamma * app.processors)
        footprint_end = compute_end + duration
        if footprint_end > period + _EPS:
            return None
        if self._overlaps_own(own, start, footprint_end):
            return None
        return ScheduledInstance(
            app_name=app.name,
            compute_start=start,
            work=work,
            io_start=compute_end,
            io_duration=duration,
            io_bandwidth=gamma,
        )

    def _fit_constant_bandwidth(
        self, app: Application, io_start: float, volume: float
    ) -> Optional[float]:
        """Largest constant per-processor bandwidth feasible from ``io_start``.

        Fixed-point iteration: the transfer window grows as the bandwidth
        shrinks, and the feasible bandwidth is the minimum availability over
        the window; iterate until stable.
        """
        schedule = self.schedule
        platform = schedule.platform
        beta = app.processors
        period = schedule.period
        gamma = min(
            platform.node_bandwidth,
            schedule.available_bandwidth(io_start) / beta,
        )
        min_gamma = platform.node_bandwidth * _MIN_BANDWIDTH_FRACTION
        # Every gamma after the first is min(b, level / beta) for one of the
        # free-bandwidth levels at io_start or a breakpoint, and each step
        # strictly lowers it, so the fixed point is reached within
        # len(breakpoints) + 2 steps.
        for _ in range(len(schedule._points) + 2):
            if gamma <= min_gamma:
                return None
            duration = volume / (gamma * beta)
            io_end = io_start + duration
            if io_end > period + _EPS:
                return None
            feasible = min(
                platform.node_bandwidth,
                schedule.min_available_bandwidth(io_start, io_end) / beta,
            )
            if feasible >= gamma - _EPS:
                return gamma
            gamma = feasible
        return None

    @staticmethod
    def _overlaps_own(
        own: list[tuple[float, float]], start: float, end: float
    ) -> bool:
        """True when ``[start, end)`` intersects any of the app's spans."""
        for own_start, own_end in own:
            if start < own_end - _EPS and own_start < end - _EPS:
                return True
        return False
