"""Periodic (steady-state) schedules — the data structure of Section 3.2.1.

A periodic schedule of period ``T`` repeats the same pattern of compute and
I/O phases every ``T`` seconds.  Within one regular period, application
``k`` executes ``n_per^{(k)}`` instances; each instance is a compute chunk of
length ``w^{(k)}`` followed by an I/O transfer of ``vol_io^{(k)}`` bytes
executed *contiguously at a constant bandwidth* (the shape the greedy
insertion heuristics of Section 3.2.3 produce — the general model allows
arbitrary piecewise-constant profiles, but the heuristics never need them).

The schedule knows how to:

* check its own feasibility (per-node cap, back-end cap, no overlap between
  the instances of one application, I/O volumes fully transferred);
* compute the steady-state efficiency ``rho_tilde^{(k)} = n_per w / T`` of
  equation (1) and both paper objectives;
* expose its bandwidth profile so the greedy inserter can find room for the
  next instance.

Instances never wrap around the period boundary in this implementation.
The paper's formalism allows wrapping; forbidding it only wastes a sliver of
the period for a greedy first-fit heuristic and keeps the feasibility checks
straightforward (a wrapped schedule can always be "rotated" into an unwrapped
one with the same efficiencies when capacity is not tight at the boundary).

Bandwidth profile index
-----------------------
The greedy inserter queries the I/O profile hundreds of thousands of times
per period sweep, so the schedule keeps it indexed, updated in
:meth:`_append` on every mutation:

* ``io_load(t)`` sums, in insertion order, the rates of the instances with
  ``io_start - eps <= t < io_end - eps``.  That is a step function whose
  steps sit exactly at the floats ``io_start - eps`` and ``io_end - eps``, so
  the schedule stores the sorted steps plus one load per interval and
  answers a query with one bisect.  A new instance splits at most two
  intervals (both halves keep the old load, since no older instance
  changes state inside an interval) and then adds its rate, as the last
  addend, to every interval it covers — the very float sums a scan over
  the instances in insertion order produces, bit for bit;
* the sorted breakpoint list grows by at most four bisected insertions;
* the per-breakpoint free bandwidth behind ``min_available_bandwidth`` is
  rebuilt lazily, once per mutation.

``tests/test_periodic_oracle.py`` checks every query against the linear
scans kept in ``tests/periodic_oracle.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence

from repro.core.application import Application
from repro.core.objectives import ApplicationOutcome, ObjectiveSummary, summarize
from repro.core.platform import Platform
from repro.utils.validation import ValidationError, check_positive

__all__ = ["ScheduledInstance", "PeriodicSchedule"]

_EPS = 1e-9


@dataclass(frozen=True)
class ScheduledInstance:
    """One instance placed inside the period.

    Attributes
    ----------
    app_name:
        Application this instance belongs to.
    compute_start:
        ``initW`` — start of the compute chunk.
    work:
        Length of the compute chunk (``w``).
    io_start:
        Start of the I/O transfer (``>= compute_start + work``; the greedy
        heuristics always use equality, but a gap is legal).
    io_duration:
        Length of the contiguous I/O transfer.
    io_bandwidth:
        Constant per-processor bandwidth ``gamma`` during the transfer.
    """

    app_name: str
    compute_start: float
    work: float
    io_start: float
    io_duration: float
    io_bandwidth: float

    def __post_init__(self) -> None:
        if self.compute_start < -_EPS:
            raise ValidationError("compute_start must be >= 0")
        if self.work < 0 or self.io_duration < 0 or self.io_bandwidth < 0:
            raise ValidationError("work, io_duration and io_bandwidth must be >= 0")
        if self.io_start < self.compute_start + self.work - _EPS:
            raise ValidationError(
                "I/O cannot start before the compute chunk ends "
                f"({self.io_start} < {self.compute_start + self.work})"
            )

    @property
    def compute_end(self) -> float:
        """``endW`` — end of the compute chunk."""
        return self.compute_start + self.work

    @property
    def io_end(self) -> float:
        """End of the I/O transfer."""
        return self.io_start + self.io_duration

    @property
    def end(self) -> float:
        """End of the whole instance footprint."""
        return max(self.compute_end, self.io_end)


class PeriodicSchedule:
    """A steady-state schedule over one regular period.

    Parameters
    ----------
    platform:
        Supplies the ``b`` and ``B`` caps.
    applications:
        The periodic applications being scheduled.  Only their first
        instance's ``(work, io_volume)`` is used (periodic applications have
        identical instances); non-periodic applications are rejected.
    period:
        Length ``T`` of the regular period.
    """

    def __init__(
        self,
        platform: Platform,
        applications: Sequence[Application],
        period: float,
    ):
        self.platform = platform
        self.period = check_positive("period", period)
        self._apps: dict[str, Application] = {}
        for app in applications:
            if not app.is_periodic:
                raise ValidationError(
                    f"application {app.name!r} is not periodic; periodic schedules "
                    "require identical instances"
                )
            if app.name in self._apps:
                raise ValidationError(f"duplicate application {app.name!r}")
            self._apps[app.name] = app
        if not self._apps:
            raise ValidationError("a periodic schedule needs at least one application")
        self._instances: list[ScheduledInstance] = []
        # Indexes maintained by _append (see "Bandwidth profile index" in
        # the module docstring): per-app lists sorted by compute start, the
        # sorted breakpoints, the load steps with one load per interval
        # (``_loads[j]`` covers ``[_steps[j], _steps[j + 1])``), and the
        # free bandwidth at each breakpoint, rebuilt lazily per mutation.
        self._by_app: dict[str, list[ScheduledInstance]] = {
            name: [] for name in self._apps
        }
        self._counts: dict[str, int] = {name: 0 for name in self._apps}
        self._points: list[float] = [0.0, self.period]
        self._steps: list[float] = []
        self._loads: list[float] = []
        self._point_avail: Optional[list[float]] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def applications(self) -> tuple[Application, ...]:
        """The applications known to this schedule (scheduled or not)."""
        return tuple(self._apps.values())

    @property
    def instances(self) -> tuple[ScheduledInstance, ...]:
        """All placed instances, in insertion order."""
        return tuple(self._instances)

    def application(self, name: str) -> Application:
        """Look up an application by name."""
        return self._apps[name]

    def instances_of(self, app_name: str) -> list[ScheduledInstance]:
        """Instances of one application, sorted by compute start."""
        if app_name not in self._apps:
            raise KeyError(f"unknown application {app_name!r}")
        return list(self._by_app[app_name])

    def instances_per_application(self) -> dict[str, int]:
        """``n_per^{(k)}`` for every application (0 if never scheduled)."""
        return dict(self._counts)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_instance(self, instance: ScheduledInstance) -> None:
        """Place an instance, enforcing every feasibility constraint."""
        app = self._apps.get(instance.app_name)
        if app is None:
            raise ValidationError(f"unknown application {instance.app_name!r}")
        if instance.end > self.period + _EPS:
            raise ValidationError(
                f"instance of {instance.app_name!r} ends at {instance.end:.6g}, "
                f"beyond the period {self.period:.6g}"
            )
        if instance.io_bandwidth > self.platform.node_bandwidth * (1 + 1e-9):
            raise ValidationError(
                f"per-processor bandwidth {instance.io_bandwidth:.6g} exceeds "
                f"b = {self.platform.node_bandwidth:.6g}"
            )
        expected_work = app.instances[0].work
        if abs(instance.work - expected_work) > _EPS * max(1.0, expected_work):
            raise ValidationError(
                f"instance work {instance.work} does not match the application's "
                f"work {expected_work}"
            )
        # The transferred volume must match the application's volume.
        volume = instance.io_bandwidth * instance.io_duration * app.processors
        expected_volume = app.instances[0].io_volume
        if abs(volume - expected_volume) > 1e-6 * max(1.0, expected_volume):
            raise ValidationError(
                f"instance transfers {volume:.6g} B but {instance.app_name!r} "
                f"needs {expected_volume:.6g} B"
            )
        # No overlap with the application's other instances.
        for other in self._by_app[instance.app_name]:
            if instance.compute_start < other.end - _EPS and other.compute_start < instance.end - _EPS:
                raise ValidationError(
                    f"instance of {instance.app_name!r} at [{instance.compute_start:.6g}, "
                    f"{instance.end:.6g}) overlaps another at "
                    f"[{other.compute_start:.6g}, {other.end:.6g})"
                )
        # Back-end capacity over the I/O window.  Segments outside the
        # window cannot overlap it by more than _EPS, so only the bisected
        # run of segments that meets it is checked.
        if instance.io_duration > _EPS:
            rate = instance.io_bandwidth * app.processors
            io_start = instance.io_start
            io_end = instance.io_end
            for start, end, used in self._profile_segments(io_start, io_end):
                overlap = min(end, io_end) - max(start, io_start)
                if overlap > _EPS and used + rate > self.platform.system_bandwidth * (1 + 1e-9):
                    raise ValidationError(
                        f"adding {instance.app_name!r} would exceed B over "
                        f"[{max(start, instance.io_start):.6g}, {min(end, instance.io_end):.6g})"
                    )
        self._append(instance)

    def _append(self, instance: ScheduledInstance) -> None:
        """Record an (already validated) instance and refresh the indexes."""
        self._instances.append(instance)
        # insort-right on compute_start matches the former stable
        # sorted(..., key=compute_start): equal keys keep insertion order.
        insort(self._by_app[instance.app_name], instance,
               key=attrgetter("compute_start"))
        self._counts[instance.app_name] += 1
        points = self._points
        lowest, highest = -_EPS, self.period + _EPS
        for point in (instance.io_start, instance.io_end,
                      instance.compute_start, instance.compute_end):
            i = bisect_left(points, point)
            if (i == len(points) or points[i] != point) and lowest <= point <= highest:
                points.insert(i, point)
        # The transfer is active on [rise, fall): split the intervals the two
        # steps fall inside (both halves inherit the old load), then add the
        # rate to every interval between them as the newest addend.
        rise = instance.io_start - _EPS
        fall = instance.io_end - _EPS
        if rise < fall:
            steps = self._steps
            loads = self._loads
            for step in (rise, fall):
                i = bisect_left(steps, step)
                if i == len(steps) or steps[i] != step:
                    steps.insert(i, step)
                    loads.insert(i, loads[i - 1] if i else 0.0)
            rate = instance.io_bandwidth * self._apps[instance.app_name].processors
            for i in range(bisect_left(steps, rise), bisect_left(steps, fall)):
                loads[i] += rate
        self._point_avail = None

    # ------------------------------------------------------------------ #
    # Bandwidth profile
    # ------------------------------------------------------------------ #
    def breakpoints(self) -> list[float]:
        """Sorted distinct time points where the I/O load may change."""
        return list(self._points)

    def io_load(self, time: float) -> float:
        """Aggregate back-end bandwidth in use at ``time`` (bytes/s)."""
        i = bisect_right(self._steps, time)
        return self._loads[i - 1] if i else 0.0

    def available_bandwidth(self, time: float) -> float:
        """Back-end bandwidth still free at ``time``."""
        return max(0.0, self.platform.system_bandwidth - self.io_load(time))

    def min_available_bandwidth(self, start: float, end: float) -> float:
        """Minimum free back-end bandwidth over ``[start, end)``."""
        if end <= start:
            return self.platform.system_bandwidth
        points = self._points
        avail = self._point_avail
        if avail is None:
            # available_bandwidth(p) for every breakpoint, inlined.
            capacity = self.platform.system_bandwidth
            steps, loads = self._steps, self._loads
            avail = []
            for point in points:
                i = bisect_right(steps, point)
                avail.append(max(0.0, capacity - (loads[i - 1] if i else 0.0)))
            self._point_avail = avail
        # The breakpoints inside the window, ``start < p < end``, are one
        # bisected slice of the sorted list.
        lo = bisect_right(points, start)
        hi = bisect_left(points, end, lo)
        minimum = self.available_bandwidth(start)
        if lo < hi:
            inner = min(avail[lo:hi])
            if inner < minimum:
                return inner
        return minimum

    def _profile_segments(
        self, start: float = -math.inf, end: float = math.inf
    ) -> list[tuple[float, float, float]]:
        """``(start, end, load)`` segments of the I/O profile that meet ``[start, end]``.

        Segments are the gaps longer than ``_EPS`` between consecutive
        breakpoints; each carries the load at its midpoint.  The default
        window returns the whole profile.
        """
        points = self._points
        lo = max(bisect_right(points, start) - 1, 0)
        hi = min(bisect_left(points, end), len(points) - 1)
        segments = []
        for i in range(lo, hi):
            left, right = points[i], points[i + 1]
            if right - left > _EPS:
                segments.append((left, right, self.io_load(0.5 * (left + right))))
        return segments

    # ------------------------------------------------------------------ #
    # Validation and scoring
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Re-check every constraint of the whole schedule (defence in depth)."""
        b = self.platform.node_bandwidth
        for inst in self._instances:
            if inst.io_bandwidth > b * (1 + 1e-9):
                raise ValidationError(
                    f"{inst.app_name!r}: per-processor bandwidth exceeds b"
                )
            if inst.end > self.period + _EPS:
                raise ValidationError(f"{inst.app_name!r}: instance exceeds the period")
        for name in self._apps:
            insts = self.instances_of(name)
            for first, second in zip(insts[:-1], insts[1:]):
                if second.compute_start < first.end - _EPS:
                    raise ValidationError(f"{name!r}: overlapping instances")
        for start, end, load in self._profile_segments():
            if load > self.platform.system_bandwidth * (1 + 1e-9):
                raise ValidationError(
                    f"back-end capacity exceeded over [{start:.6g}, {end:.6g}): "
                    f"{load:.6g} > {self.platform.system_bandwidth:.6g}"
                )

    def steady_state_efficiency(self, app_name: str) -> float:
        """Equation (1): ``rho_tilde^{(k)} = n_per^{(k)} w^{(k)} / T``."""
        app = self._apps[app_name]
        n_per = self.instances_per_application()[app_name]
        return n_per * app.instances[0].work / self.period

    def outcomes(self) -> list[ApplicationOutcome]:
        """Objective-level outcomes of one steady-state period.

        The period plays the role of the elapsed time; the executed work of
        application ``k`` is ``n_per^{(k)} * w^{(k)}``, and the dedicated I/O
        time covers the same number of instances — exactly the quantities of
        equation (1) and of the optimal efficiency ``rho``.
        """
        outs: list[ApplicationOutcome] = []
        counts = self.instances_per_application()
        for name, app in self._apps.items():
            n_per = counts[name]
            work = n_per * app.instances[0].work
            peak = self.platform.peak_application_bandwidth(app.processors)
            io_time = n_per * app.instances[0].io_volume / peak if peak > 0 else 0.0
            outs.append(
                ApplicationOutcome(
                    name=name,
                    processors=app.processors,
                    release_time=0.0,
                    completion_time=self.period,
                    executed_work=work,
                    dedicated_io_time=io_time,
                )
            )
        return outs

    def summary(self, total_processors: int | None = None) -> ObjectiveSummary:
        """SysEfficiency / Dilation of the steady state (per period)."""
        return summarize(self.outcomes(), total_processors)

    def is_complete(self) -> bool:
        """True when every application has at least one instance in the period."""
        return all(n > 0 for n in self.instances_per_application().values())

    def __contains__(self, app_name: str) -> bool:
        """True when ``app_name`` is one of this schedule's applications."""
        return app_name in self._apps

    def __len__(self) -> int:
        return len(self._instances)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.instances_per_application()
        return (
            f"PeriodicSchedule(T={self.period:g}, "
            f"instances={sum(counts.values())}, apps={len(counts)})"
        )
