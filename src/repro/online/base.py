"""Base class for the online schedulers of Section 3.1.

Every online heuristic in the paper reduces to the same mechanism: at each
event, rank the applications that want to perform I/O, then *favour* them in
that order — the first application receives ``min(beta*b, available)``, the
next receives the same out of what is left, and so on until the back-end
bandwidth is exhausted (the remaining applications are stalled until the
next event).

Concrete heuristics therefore only declare their rank, as a
:class:`~repro.simulator.interface.GrantOrder` in :attr:`grant_order`.
:meth:`order_candidates` interprets it over a view, and the shared
:meth:`allocate` turns the ordering into a feasible
:class:`~repro.core.allocation.BandwidthAllocation` through
:func:`repro.simulator.bandwidth.favor_in_order`; the native kernels of
:mod:`repro.simulator.engine` read the same declaration.  The ``Priority``
variants (:mod:`repro.online.priority`) declare the inner heuristic's order
with the started-first partition, so they compose with any of them.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.allocation import BandwidthAllocation
from repro.simulator.bandwidth import favor_in_order
from repro.simulator.interface import ApplicationView, GrantOrder, SystemView

__all__ = ["OnlineScheduler"]


#: Each :class:`GrantOrder` key as a sort key over views, ending in the
#: shared ``(request time, name)`` tie-break cached on the view; ``None``
#: keeps the candidates in the order the view lists them.
_VIEW_KEYS = {
    "request": lambda a: a.order_key,
    "index": None,
    "last_io_end": lambda a: (a.last_io_end, *a.order_key),
    "ratio": lambda a: (a.efficiency_ratio, *a.order_key),
    "syseff": lambda a: (-a.processors * a.achieved_efficiency, *a.order_key),
}


class OnlineScheduler:
    """Event-driven scheduler: rank I/O candidates, favour them greedily."""

    #: Human-readable name used in result tables; subclasses override.
    name: str = "online"

    #: The rank :meth:`order_candidates` and the native kernels read;
    #: subclasses override (the default is first-come first-served).
    grant_order: GrantOrder = GrantOrder()

    # ------------------------------------------------------------------ #
    def order_candidates(self, view: SystemView) -> Sequence[ApplicationView]:
        """Return the I/O candidates of ``view`` ordered by decreasing priority.

        The order is :attr:`grant_order`'s.  An override must return a
        permutation of ``view.io_candidates()`` (dropping candidates is
        allowed and means "deliberately stall them"); the scheduler then
        runs on the reference engine.
        """
        order = self.grant_order
        key = _VIEW_KEYS[order.key]
        candidates = view.io_candidates()
        ordered: list[ApplicationView] = []
        starve = order.starve_below
        if starve > 0:
            # The starved go first, most starved first; the rest follow in
            # the declared order.
            rest: list[ApplicationView] = []
            for a in candidates:
                (ordered if a.efficiency_ratio < starve else rest).append(a)
            ordered.sort(key=_VIEW_KEYS["ratio"])
            candidates = rest
        ordered += candidates if key is None else sorted(candidates, key=key)
        if order.started_first:
            # Stable partition: the transfers already in flight first.
            started = [a for a in ordered if a.io_started]
            ordered = started + [a for a in ordered if not a.io_started]
        return ordered

    # ------------------------------------------------------------------ #
    def allocate(self, view: SystemView) -> BandwidthAllocation:
        """Favour candidates in priority order until the bandwidth runs out."""
        ordered = self.order_candidates(view)
        if not isinstance(ordered, (list, tuple)):
            # Re-iterable sequence required (checked below, then favoured);
            # sorted() already hands back a fresh list, so the common path
            # skips the copy.
            ordered = list(ordered)
        self._check_ordering(view, ordered)
        return favor_in_order(
            ordered,
            node_bandwidth=view.platform.node_bandwidth,
            total_bandwidth=view.available_bandwidth,
        )

    def reset(self) -> None:
        """Clear internal state between runs (most heuristics are stateless)."""

    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_ordering(view: SystemView, ordered: Sequence[ApplicationView]) -> None:
        # The candidate-name set is memoized on the view, so this runs one
        # O(n) membership sweep per event instead of rebuilding the set.
        candidate_names = view.candidate_names()
        seen: set[str] = set()
        for app_view in ordered:
            if app_view.name not in candidate_names:
                raise ValueError(
                    f"ordering contains {app_view.name!r}, which is not an I/O candidate"
                )
            if app_view.name in seen:
                raise ValueError(f"ordering contains {app_view.name!r} twice")
            seen.add(app_view.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
