"""The ``Priority`` variant of the online heuristics (Section 3.1).

On disk-based systems, interrupting an application's I/O to serve another
breaks spatial locality on the storage servers and hurts everybody.  The
paper therefore evaluates, for every heuristic, a *Priority* variant that
"always chooses applications that already started performing their I/O
before favouring any other application".  On SSD-based systems the original
heuristics can be used as-is — this wrapper is exactly the extra constraint
the paper pays on Intrepid/Mira/Vesta, which use spinning disks.

The wrapper composes with any :class:`~repro.online.base.OnlineScheduler`
that declares its order: it declares the inner
:class:`~repro.simulator.interface.GrantOrder` with ``started_first``, a
stable partition that puts applications with a transfer already in flight
first.  An inner scheduler that overrides ``order_candidates`` declares no
order, and is refused.
"""

from __future__ import annotations

from dataclasses import replace

from repro.online.base import OnlineScheduler

__all__ = ["Priority"]


class Priority(OnlineScheduler):
    """Never preempt an application whose I/O transfer has already started.

    Parameters
    ----------
    inner:
        The heuristic providing the underlying priority order; it must not
        override ``order_candidates``.
    """

    def __init__(self, inner: OnlineScheduler):
        if not isinstance(inner, OnlineScheduler):
            raise TypeError(
                f"inner must be an OnlineScheduler, got {type(inner).__name__}"
            )
        if isinstance(inner, Priority):
            raise TypeError("Priority wrappers do not nest")
        if type(inner).order_candidates is not OnlineScheduler.order_candidates:
            raise TypeError(f"{type(inner).__name__} overrides order_candidates, so it "
                            "declares no grant order for Priority to partition")
        self.inner = inner
        self.name = f"Priority-{inner.name}"
        self.grant_order = replace(inner.grant_order, started_first=True)

    def reset(self) -> None:
        self.inner.reset()
