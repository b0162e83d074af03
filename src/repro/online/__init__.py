"""Online I/O schedulers (Section 3.1) and the baseline system schedulers.

The heuristics rank applications at every event and favour them greedily:

=================  =============================================================
Scheduler          Priority order under congestion
=================  =============================================================
``RoundRobin``     Longest time since last completed I/O (FCFS + fairness)
``MinDilation``    Lowest progress ratio ``rho_tilde / rho`` (most slowed down)
``MaxSysEff``      Lowest ``beta * rho_tilde`` (most wasted compute capacity)
``MinMax-γ``       MaxSysEff with a rescue rule for ratios below ``γ``
``Priority-*``     Same, but never interrupt an in-flight transfer
``FairShare``      (baseline) proportional sharing = uncoordinated congestion
``FCFS``           (baseline) strict first-come first-served
=================  =============================================================
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.online.base import OnlineScheduler
    from repro.online.baselines import (
        FCFS,
        FairShare,
        intrepid_scheduler,
        ior_scheduler,
        mira_scheduler,
        vesta_scheduler,
    )
    from repro.online.heuristics import MaxSysEff, MinDilation, MinMaxGamma, RoundRobin
    from repro.online.priority import Priority
    from repro.online.registry import (
        available_schedulers,
        figure6_suite,
        make_scheduler,
        paper_heuristics,
        tables_suite,
    )


__all__ = [
    "OnlineScheduler",
    "RoundRobin",
    "MinDilation",
    "MaxSysEff",
    "MinMaxGamma",
    "Priority",
    "FairShare",
    "FCFS",
    "intrepid_scheduler",
    "mira_scheduler",
    "vesta_scheduler",
    "ior_scheduler",
    "make_scheduler",
    "available_schedulers",
    "paper_heuristics",
    "figure6_suite",
    "tables_suite",
]

__getattr__, __dir__ = attach(__name__)
