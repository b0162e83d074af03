"""The online heuristics of Section 3.1.

Each heuristic is a different answer to "who should transfer first when the
back-end is over-subscribed":

* :class:`RoundRobin` — the comparison point modelled on what HPC system
  I/O schedulers do: first-come first-served, with a fairness twist — under
  congestion, favour the application that completed its previous instance's
  I/O the longest time ago.
* :class:`MinDilation` — favour applications with the lowest progress ratio
  ``rho_tilde / rho``: help whoever has been hurt the most, which directly
  optimizes the Dilation (fairness) objective.
* :class:`MaxSysEff` — favour applications with the lowest ``beta *
  rho_tilde``: help whoever currently wastes the most processor-seconds per
  unit of time, which directly optimizes SysEfficiency.
* :class:`MinMaxGamma` — MaxSysEff, unless some application's progress ratio
  has dropped below a threshold ``gamma`` (set by the administrator), in
  which case the most-starved application goes first.  ``gamma = 0`` is
  exactly MaxSysEff; ``gamma = 1`` is exactly MinDilation.

All orderings resolve ties deterministically (request time, then name) so
simulations are reproducible.
"""

from __future__ import annotations

from typing import Sequence

from repro.online.base import OnlineScheduler
from repro.simulator.interface import ApplicationView, SystemView
from repro.utils.validation import check_in_range

__all__ = ["RoundRobin", "MinDilation", "MaxSysEff", "MinMaxGamma"]


# Every sort key below ends with the same deterministic tie-break pair:
# earlier I/O request first (inf when no request is pending), then name.
# The pair is cached on the view (`ApplicationView.order_key`), so repeated
# sorts of one event look it up rather than rebuild the tuple.


class RoundRobin(OnlineScheduler):
    """FCFS with fairness: serve the application idle from I/O the longest.

    When there is no congestion every applicant is served anyway (the greedy
    favouring loop hands out bandwidth until either the applicants or the
    back-end are exhausted), so the ordering only matters under contention —
    where the paper's rule is "the application that finished the I/O
    transfer of its last instance the longest time ago is favoured".
    """

    name = "RoundRobin"

    def order_candidates(self, view: SystemView) -> Sequence[ApplicationView]:
        return sorted(
            view.io_candidates(),
            key=lambda a: (a.last_io_end, *a.order_key),
        )


class MinDilation(OnlineScheduler):
    """Favour the most slowed-down applications (lowest ``rho_tilde / rho``)."""

    name = "MinDilation"

    def order_candidates(self, view: SystemView) -> Sequence[ApplicationView]:
        return sorted(
            view.io_candidates(),
            key=lambda a: (a.efficiency_ratio, *a.order_key),
        )


class MaxSysEff(OnlineScheduler):
    """Favour the applications contributing the most to system efficiency.

    Applications are ranked by decreasing ``beta * rho_tilde``: large,
    well-progressing (compute-intensive) applications are served first, so
    the bulk of the machine's processors get back to computing as soon as
    possible; small and I/O-bound applications absorb the waiting.  This is
    the behaviour the paper reports for MaxSysEff — Figure 16 shows the
    large applications' dilation dropping by ~48% while the small
    applications are slowed further, "which is responsible for the good
    system performance values" — and it is the CPU-oriented counterpart of
    MinDilation.

    Note on the paper's wording: Section 3.1 writes that MaxSysEff "favors
    applications with low values of ``beta * rho_tilde``"; taken literally
    that systematically prioritizes the *smallest* applications (beta
    dominates the product), which contradicts both the stated rationale
    ("priority to compute-intensive applications") and the measured
    behaviour of Figure 16.  We therefore implement the reading consistent
    with the evaluation: the applications with the largest current
    contribution to SysEfficiency are served first.
    """

    name = "MaxSysEff"

    def order_candidates(self, view: SystemView) -> Sequence[ApplicationView]:
        return sorted(
            view.io_candidates(),
            key=lambda a: (-a.processors * a.achieved_efficiency, *a.order_key),
        )


class MinMaxGamma(OnlineScheduler):
    """Trade-off heuristic: MaxSysEff with a Dilation guard-rail at ``gamma``.

    Applications whose progress ratio ``rho_tilde / rho`` has fallen below
    the threshold are rescued first (most-starved first); the remaining
    bandwidth is distributed by the MaxSysEff criterion.

    Parameters
    ----------
    gamma:
        Threshold in ``[0, 1]``.  The paper evaluates 0.25, 0.5 and 0.75 in
        Tables 1–2 and uses 0.27 in Figure 6.
    """

    def __init__(self, gamma: float):
        self.gamma = check_in_range("gamma", gamma, 0.0, 1.0)
        self.name = f"MinMax-{self.gamma:g}"

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
