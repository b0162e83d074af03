"""Periodic scheduling heuristics of Section 3.2.3.

Both heuristics fill a period greedily with instances until nothing more
fits; they differ in *which* application gets the next slot:

* :class:`InsertInScheduleThrou` (SysEfficiency-oriented) — applications are
  sorted once by non-decreasing ``w / time_io`` (most I/O-bound first, so
  their transfers claim the early, empty parts of the period); the heuristic
  packs as many instances as possible of the first application before moving
  to the next.
* :class:`InsertInScheduleCong` (Dilation-oriented) — applications are
  re-ranked after every insertion by their *currently scheduled load*
  ``n_per * (w + time_io)`` and the least-loaded application is served next,
  which balances progress across applications.  (The paper's text says
  "sorts by non-increasing values … and always picks the largest one"; taken
  literally that degenerates into scheduling a single application forever,
  so we implement the fairness-balancing reading — pick the application with
  the smallest scheduled load — which is the only interpretation consistent
  with the heuristic's stated goal of optimizing Dilation.)

Both stop when a full round of applications yields no insertion.

The per-application congestion-free quantities both heuristics rank on
(``time_io``, the ``w / time_io`` ratio, the ``w + time_io`` footprint) are
period-independent, so :func:`application_profiles` computes them once and
the ``(1 + eps)`` period sweep shares one profile table across every sweep
point instead of re-deriving them per insertion.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.application import Application
from repro.core.platform import Platform
from repro.periodic.insertion import GreedyInserter
from repro.periodic.schedule import PeriodicSchedule
from repro.utils.validation import ValidationError

__all__ = [
    "ApplicationProfile",
    "application_profiles",
    "PeriodicHeuristic",
    "InsertInScheduleThrou",
    "InsertInScheduleCong",
    "PERIODIC_HEURISTIC_TABLE",
]


@dataclass(frozen=True)
class ApplicationProfile:
    """Congestion-free per-instance quantities of one periodic application.

    ``time_io`` is the dedicated-mode transfer time ``vol / min(beta b, B)``;
    ``ratio`` is the compute/transfer balance ``w / time_io`` (``inf`` for
    I/O-free applications) and ``footprint`` the congestion-free instance
    duration ``w + time_io`` — exactly the quantities the Section 3.2.3
    orderings and the minimum-period bound are defined on.
    """

    work: float
    io_volume: float
    time_io: float
    ratio: float
    footprint: float


def application_profiles(
    platform: Platform, applications: Sequence[Application]
) -> dict[str, ApplicationProfile]:
    """One :class:`ApplicationProfile` per application, keyed by name."""
    profiles: dict[str, ApplicationProfile] = {}
    for app in applications:
        inst = app.instances[0]
        peak = platform.peak_application_bandwidth(app.processors)
        time_io = inst.io_volume / peak if peak > 0 else 0.0
        ratio = inst.work / time_io if time_io > 0 else float("inf")
        profiles[app.name] = ApplicationProfile(
            work=inst.work,
            io_volume=inst.io_volume,
            time_io=time_io,
            ratio=ratio,
            footprint=inst.work + time_io,
        )
    return profiles


class PeriodicHeuristic(abc.ABC):
    """Common driver: repeatedly pick an application and insert one instance."""

    #: Display name used in reports.
    name: str = "periodic"

    def build(
        self,
        platform: Platform,
        applications: Sequence[Application],
        period: float,
        *,
        profiles: Mapping[str, ApplicationProfile] | None = None,
    ) -> PeriodicSchedule:
        """Fill a period of length ``period`` with application instances."""
        if not applications:
            raise ValidationError("need at least one application")
        if profiles is None:
            profiles = application_profiles(platform, applications)
        schedule = PeriodicSchedule(platform, applications, period)
        self._fill(schedule, GreedyInserter(schedule), list(applications), profiles)
        schedule.validate()
        return schedule

    @abc.abstractmethod
    def _fill(
        self,
        schedule: PeriodicSchedule,
        inserter: GreedyInserter,
        applications: list[Application],
        profiles: Mapping[str, ApplicationProfile],
    ) -> None:
        """Insert instances until no more fit."""


class InsertInScheduleThrou(PeriodicHeuristic):
    """Pack I/O-bound applications first, as many instances each as fit."""

    name = "Insert-In-Schedule-Throu"

    def _fill(
        self,
        schedule: PeriodicSchedule,
        inserter: GreedyInserter,
        applications: list[Application],
        profiles: Mapping[str, ApplicationProfile],
    ) -> None:
        ordered = sorted(
            applications, key=lambda a: (profiles[a.name].ratio, a.name)
        )
        for app in ordered:
            while inserter.try_insert(app):
                pass
        # A second pass catches applications that could not be placed at all
        # during their turn but fit in leftover gaps once everyone is placed.
        for app in ordered:
            if schedule.instances_per_application()[app.name] == 0:
                inserter.try_insert(app)


class InsertInScheduleCong(PeriodicHeuristic):
    """Balance scheduled load across applications (Dilation-oriented)."""

    name = "Insert-In-Schedule-Cong"

    def _fill(
        self,
        schedule: PeriodicSchedule,
        inserter: GreedyInserter,
        applications: list[Application],
        profiles: Mapping[str, ApplicationProfile],
    ) -> None:
        blocked: set[str] = set()
        while True:
            counts = schedule.instances_per_application()
            candidates = [a for a in applications if a.name not in blocked]
            if not candidates:
                break
            # Least scheduled load first; ties broken by name for determinism.
            candidates.sort(
                key=lambda a: (counts[a.name] * profiles[a.name].footprint, a.name)
            )
            app = candidates[0]
            if not inserter.try_insert(app):
                blocked.add(app.name)


#: The heuristics a spec's ``[periodic].heuristics`` names: name ->
#: (heuristic class, the period-sweep objective it optimizes).
PERIODIC_HEURISTIC_TABLE: dict[str, tuple[type[PeriodicHeuristic], str]] = {
    "throughput": (InsertInScheduleThrou, "system_efficiency"),
    "congestion": (InsertInScheduleCong, "dilation"),
}
