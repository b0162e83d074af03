"""Baseline system schedulers the paper compares against.

The paper's comparison points are "what happens when congestion occurs" on
the production machines:

* :class:`FairShare` — the parallel file system serves every concurrent
  writer at once; the back-end bandwidth is split proportionally
  (max-min / water-filling on the per-processor rate) and, because the
  concurrent streams interfere on the storage servers, the *aggregate*
  bandwidth itself degrades following an
  :class:`~repro.simulator.interference.InterferenceModel`.  This models
  the native Intrepid / Mira / Vesta behaviour without any application-aware
  coordination, and is also the behaviour applications fall back to when
  the burst buffer is full.
* :class:`FCFS` — strict first-come first-served service of whole I/O
  phases: the earliest requester gets as much bandwidth as it can use,
  then the next, and so on.  This is the "simple first-come first-served
  strategy for each storage server" the introduction mentions as the
  low-level default.  Being essentially serialized, it does not take the
  interference penalty.
* :func:`intrepid_scheduler`, :func:`mira_scheduler`, :func:`vesta_scheduler`,
  :func:`ior_scheduler` — convenience constructors that name the fair-share
  baseline after the machine whose observed behaviour it stands in for;
  combined with ``SimulatorConfig(use_burst_buffer=True)`` they reproduce
  the "Intrepid / Mira with burst buffers" rows of Tables 1–2.

These classes are :class:`~repro.online.base.OnlineScheduler` subclasses, so
they run through exactly the same engine and scoring code as the paper's
heuristics.
"""

from __future__ import annotations

from repro.core.allocation import BandwidthAllocation
from repro.online.base import OnlineScheduler
from repro.simulator.bandwidth import fair_share
from repro.simulator.interface import GrantOrder, SystemView
from repro.simulator.interference import (
    DEFAULT_INTERFERENCE,
    InterferenceModel,
)

__all__ = [
    "FairShare",
    "FCFS",
    "intrepid_scheduler",
    "mira_scheduler",
    "vesta_scheduler",
    "ior_scheduler",
]


class FairShare(OnlineScheduler):
    """Uncoordinated congestion: concurrent writers share a degraded back-end.

    Parameters
    ----------
    name:
        Display name (``"FairShare"`` by default; the machine-named
        constructors below use ``"Intrepid"`` etc.).
    interference:
        Aggregate-bandwidth degradation model.  Defaults to the calibrated
        :data:`~repro.simulator.interference.DEFAULT_INTERFERENCE`; pass
        :data:`~repro.simulator.interference.NO_INTERFERENCE` to get ideal
        work-conserving sharing (useful as an ablation).
    """

    name = "FairShare"
    #: Fair sharing ignores the order; ``Priority(FairShare())`` favours
    #: the candidates in the order the scenario lists them.
    grant_order = GrantOrder(key="index")

    def __init__(
        self,
        name: str | None = None,
        interference: InterferenceModel | None = None,
    ):
        if name is not None:
            self.name = name
        self.interference = interference if interference is not None else DEFAULT_INTERFERENCE

    def allocate(self, view: SystemView) -> BandwidthAllocation:
        candidates = view.io_candidates()
        effective = self.interference.effective_bandwidth(
            view.available_bandwidth, len(candidates)
        )
        return fair_share(
            candidates,
            node_bandwidth=view.platform.node_bandwidth,
            total_bandwidth=effective,
        )


class FCFS(OnlineScheduler):
    """Strict first-come first-served service of entire I/O phases."""

    name = "FCFS"
    #: The default order: request time, then name.
    grant_order = GrantOrder()


def intrepid_scheduler(interference: InterferenceModel | None = None) -> FairShare:
    """The native Intrepid I/O behaviour (interfering fair share)."""
    return FairShare(name="Intrepid", interference=interference)


def mira_scheduler(interference: InterferenceModel | None = None) -> FairShare:
    """The native Mira I/O behaviour (interfering fair share)."""
    return FairShare(name="Mira", interference=interference)


def vesta_scheduler(interference: InterferenceModel | None = None) -> FairShare:
    """The native Vesta I/O behaviour (interfering fair share)."""
    return FairShare(name="Vesta", interference=interference)


def ior_scheduler(interference: InterferenceModel | None = None) -> FairShare:
    """Unmodified IOR groups writing concurrently (Section 5 'IOR' series)."""
    return FairShare(name="IOR", interference=interference)
