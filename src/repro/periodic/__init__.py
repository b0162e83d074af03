"""Periodic (steady-state) schedules and heuristics (Section 3.2).

Computing an optimal periodic schedule is NP-complete (Theorem 1, reduction
from 3-Partition), so the package provides the paper's two greedy
heuristics plus the period sweep that wraps them:

* :class:`~repro.periodic.schedule.PeriodicSchedule` — the schedule object,
  with feasibility validation and steady-state scoring (equation (1));
* :class:`~repro.periodic.insertion.GreedyInserter` — first-fit placement of
  one instance at constant bandwidth;
* :class:`~repro.periodic.heuristics.InsertInScheduleThrou` /
  :class:`~repro.periodic.heuristics.InsertInScheduleCong` — the
  SysEfficiency- and Dilation-oriented fillers;
* :func:`~repro.periodic.period_search.search_period` — the ``(1 + eps)``
  sweep over period lengths.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.periodic.heuristics import (
        InsertInScheduleCong,
        InsertInScheduleThrou,
        PeriodicHeuristic,
    )
    from repro.periodic.insertion import GreedyInserter
    from repro.periodic.period_search import (
        PeriodSearchResult,
        minimum_period,
        search_period,
    )
    from repro.periodic.schedule import PeriodicSchedule, ScheduledInstance


__all__ = [
    "PeriodicSchedule",
    "ScheduledInstance",
    "GreedyInserter",
    "PeriodicHeuristic",
    "InsertInScheduleThrou",
    "InsertInScheduleCong",
    "PeriodSearchResult",
    "minimum_period",
    "search_period",
]

__getattr__, __dir__ = attach(__name__)
