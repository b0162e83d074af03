"""Reference orderings: the hand-written ``order_candidates`` bodies the
online heuristics were born with.

Each online scheduler now declares its rank as a
:class:`~repro.simulator.interface.GrantOrder`, which
:meth:`repro.online.base.OnlineScheduler.order_candidates` interprets over
a view.  Before that, every heuristic sorted its candidates itself; the
classes below keep those bodies as they were, so the declarations are
checked against an ordering that does not read them
(``tests/test_ordering_oracle.py``).  :func:`oracle_for` maps a registry
scheduler to its oracle.  Kept verbatim on purpose; do not fold it into the
interpreter.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.online.base import OnlineScheduler
from repro.online.baselines import FCFS, FairShare
from repro.online.heuristics import MaxSysEff, MinDilation, MinMaxGamma, RoundRobin
from repro.online.priority import Priority
from repro.simulator.interface import ApplicationView, SystemView


class OracleRoundRobin:
    def order_candidates(self, view: SystemView) -> Sequence[ApplicationView]:
        return sorted(
            view.io_candidates(),
            key=lambda a: (a.last_io_end, *a.order_key),
        )


class OracleMinDilation:
    def order_candidates(self, view: SystemView) -> Sequence[ApplicationView]:
        return sorted(
            view.io_candidates(),
            key=lambda a: (a.efficiency_ratio, *a.order_key),
        )


class OracleMaxSysEff:
    def order_candidates(self, view: SystemView) -> Sequence[ApplicationView]:
        return sorted(
            view.io_candidates(),
            key=lambda a: (-a.processors * a.achieved_efficiency, *a.order_key),
        )


class OracleMinMaxGamma:
    def __init__(self, gamma: float):
        self.gamma = gamma

    def order_candidates(self, view: SystemView) -> Sequence[ApplicationView]:
        # Single partition pass (the ratio is computed once per candidate),
        # then each side sorts on its own criterion.
        starved: list[ApplicationView] = []
        healthy: list[ApplicationView] = []
        gamma = self.gamma
        for a in view.io_candidates():
            (starved if a.efficiency_ratio < gamma else healthy).append(a)
        starved.sort(key=lambda a: (a.efficiency_ratio, *a.order_key))
        healthy.sort(
            key=lambda a: (-a.processors * a.achieved_efficiency, *a.order_key)
        )
        starved.extend(healthy)
        return starved


class OracleFairShare:
    def order_candidates(self, view: SystemView) -> Sequence[ApplicationView]:
        # Ordering is irrelevant for fair sharing; keep the candidates as-is.
        return view.io_candidates()


class OracleFCFS:
    def order_candidates(self, view: SystemView) -> Sequence[ApplicationView]:
        def key(a: ApplicationView) -> tuple[float, str]:
            req = a.io_request_time if a.io_request_time is not None else math.inf
            return (req, a.name)

        return sorted(view.io_candidates(), key=key)


class OraclePriority:
    def __init__(self, inner):
        self.inner = inner

    def order_candidates(self, view: SystemView) -> Sequence[ApplicationView]:
        # Single stable partition pass over the inner ordering.
        started: list[ApplicationView] = []
        fresh: list[ApplicationView] = []
        for a in self.inner.order_candidates(view):
            (started if a.io_started else fresh).append(a)
        started.extend(fresh)
        return started


def oracle_for(scheduler: OnlineScheduler):
    """The oracle ordering of a built-in scheduler (exact types only)."""
    kind = type(scheduler)
    if kind is Priority:
        return OraclePriority(oracle_for(scheduler.inner))
    if kind is MinMaxGamma:
        return OracleMinMaxGamma(scheduler.gamma)
    simple = {
        RoundRobin: OracleRoundRobin,
        MinDilation: OracleMinDilation,
        MaxSysEff: OracleMaxSysEff,
        FairShare: OracleFairShare,
        FCFS: OracleFCFS,
    }
    return simple[kind]()
