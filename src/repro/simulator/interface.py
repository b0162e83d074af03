"""Scheduler-facing view of the simulation state.

The online scheduler of Section 3.1 "looks at the current state of the
system, which is represented by the application efficiency and the amount of
I/O already performed by each application", and chooses which applications
may transfer.  :class:`SystemView` is exactly that read-only snapshot: it is
rebuilt at every event and handed to the scheduler, which answers with a
:class:`~repro.core.allocation.BandwidthAllocation`.

Keeping the view immutable and self-contained means heuristics can be unit
tested without running the engine at all — the test just builds a view by
hand and inspects the returned allocation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

from repro.core.allocation import BandwidthAllocation
from repro.core.platform import Platform
from repro.utils.validation import ValidationError, check_in_range

__all__ = [
    "ApplicationPhase", "ApplicationView", "GrantOrder", "SystemView", "SchedulerProtocol",
]


class ApplicationPhase(enum.Enum):
    """Lifecycle phase of an application inside the simulator."""

    NOT_RELEASED = "not_released"
    COMPUTING = "computing"
    #: The compute phase finished; the application wants to transfer I/O but
    #: currently has zero bandwidth (it is stalled, waiting for the scheduler).
    IO_PENDING = "io_pending"
    #: The application currently holds bandwidth and is transferring.
    DOING_IO = "doing_io"
    DONE = "done"


@dataclass(frozen=True)
class ApplicationView:
    """Read-only snapshot of one application, as the scheduler sees it.

    Attributes
    ----------
    name, processors:
        Identity and ``beta^{(k)}``.
    phase:
        Current :class:`ApplicationPhase`.
    remaining_io_volume:
        Bytes still to transfer for the current instance (0 unless the
        application is in an I/O phase).
    io_started:
        True once the current instance's transfer has begun — the
        ``Priority`` variants never preempt such applications.
    achieved_efficiency:
        ``rho_tilde^{(k)}(t)`` at the view's time.
    optimal_efficiency:
        ``rho^{(k)}(t)`` (congestion-free efficiency over the instances seen
        so far; for periodic applications this is constant).
    last_io_end:
        Time at which the application last completed an instance's I/O
        (``-inf`` if it never did); the RoundRobin heuristic's fairness key.
    io_request_time:
        Time at which the current I/O request was issued (None outside I/O
        phases); used for FCFS ordering and waiting-time statistics.
    instance_index, n_instances:
        Progress indicator (0-based index of the instance being executed).
    total_io_transferred:
        Bytes moved so far, all instances included.
    """

    name: str
    processors: int
    phase: ApplicationPhase
    remaining_io_volume: float
    io_started: bool
    achieved_efficiency: float
    optimal_efficiency: float
    last_io_end: float
    io_request_time: Optional[float]
    instance_index: int
    n_instances: int
    total_io_transferred: float

    @property
    def wants_io(self) -> bool:
        """True when the application is ready to transfer (pending or active)."""
        # Identity checks on the enum members: this predicate runs once per
        # application per scheduling event.
        phase = self.phase
        return phase is ApplicationPhase.IO_PENDING or phase is ApplicationPhase.DOING_IO

    @property
    def efficiency_ratio(self) -> float:
        """``rho_tilde / rho`` — the progress ratio the heuristics sort on.

        Bounded to [0, 1]; an application that has not been slowed down at
        all has ratio 1.
        """
        if self.optimal_efficiency <= 0:
            return 1.0
        return min(1.0, self.achieved_efficiency / self.optimal_efficiency)

    @property
    def order_key(self) -> tuple[float, str]:
        """``(request time or inf, name)`` — the shared deterministic tie-break.

        Every heuristic ordering ends with this pair; it is computed once
        and cached on the view, so the sorts of one event pay for it once.
        """
        key: Optional[tuple[float, str]] = self.__dict__.get("_order_key")
        if key is None:
            t = self.io_request_time
            key = (t if t is not None else math.inf, self.name)
            self.__dict__["_order_key"] = key
        return key


@dataclass(frozen=True)
class SystemView:
    """Snapshot of the whole system at one scheduling event.

    Attributes
    ----------
    time:
        Current simulation time.
    platform:
        The platform (for ``b`` and ``B``).
    available_bandwidth:
        Total back-end bandwidth the scheduler may distribute at this event.
        Usually ``B``; smaller when a burst buffer is draining in the
        background.
    applications:
        One :class:`ApplicationView` per application still in the system.
    """

    time: float
    platform: Platform
    available_bandwidth: float
    applications: tuple[ApplicationView, ...]

    def io_candidates(self) -> tuple[ApplicationView, ...]:
        """Applications that want to perform I/O right now.

        Memoized: schedulers typically ask several times per event (ordering,
        feasibility checking, allocation), and the view is immutable, so the
        filtered tuple is computed once and cached on the instance.
        """
        cached: Optional[tuple[ApplicationView, ...]] = self.__dict__.get(
            "_io_candidates"
        )
        if cached is None:
            pending = ApplicationPhase.IO_PENDING
            doing = ApplicationPhase.DOING_IO
            cached = tuple(
                a
                for a in self.applications
                if a.phase is pending or a.phase is doing
            )
            self.__dict__["_io_candidates"] = cached
        return cached

    def candidate_names(self) -> frozenset[str]:
        """Names of the I/O candidates (memoized like :meth:`io_candidates`).

        Schedulers use it to cheaply sanity-check an ordering against the
        candidate set without rebuilding a throwaway set per allocation.
        """
        cached: Optional[frozenset[str]] = self.__dict__.get("_candidate_names")
        if cached is None:
            cached = frozenset(a.name for a in self.io_candidates())
            self.__dict__["_candidate_names"] = cached
        return cached

    def view(self, name: str) -> ApplicationView:
        """Look a single application view up by name."""
        for a in self.applications:
            if a.name == name:
                return a
        raise KeyError(f"no application named {name!r} in this view")

    @property
    def congested(self) -> bool:
        """True when the aggregate demand of I/O candidates exceeds supply."""
        demand = sum(
            min(a.processors * self.platform.node_bandwidth, self.available_bandwidth)
            for a in self.io_candidates()
        )
        return demand > self.available_bandwidth * (1 + 1e-12)


#: The primary keys a :class:`GrantOrder` may rank on.
GRANT_KEYS: tuple[str, ...] = ("request", "index", "last_io_end", "ratio", "syseff")


@dataclass(frozen=True)
class GrantOrder:
    """The order in which a favouring heuristic grants bandwidth, as data:
    the view interpreter (``OnlineScheduler.order_candidates``) and both
    native kernels of :mod:`repro.simulator.engine` read it.

    Candidates are ranked by ``key``, ascending:

    * ``"request"`` — the request time alone (FCFS);
    * ``"index"`` — the order the scenario lists the applications in, with
      no tie-break (FairShare, read only under ``Priority``);
    * ``"last_io_end"`` — end of the last completed I/O (RoundRobin);
    * ``"ratio"`` — the progress ratio ``rho_tilde / rho`` (MinDilation);
    * ``"syseff"`` — ``-(processors * achieved_efficiency)`` (MaxSysEff).

    Every key but ``"index"`` ends in the shared ``(request time, name)``
    tie-break, so the order is total.  Candidates whose progress ratio is
    below ``starve_below`` go first, by ratio (MinMax's ``gamma``).  With
    ``started_first``, a stable partition then puts the candidates whose
    transfer has already started ahead of the rest (``Priority``).
    """

    key: str = "request"
    starve_below: float = 0.0
    started_first: bool = False

    def __post_init__(self) -> None:
        if self.key not in GRANT_KEYS:
            raise ValidationError(f"unknown grant order key {self.key!r}; "
                                  f"expected one of {list(GRANT_KEYS)}")
        # Stored as a float, so the kernels compare plain floats.
        starve = check_in_range("starve_below", self.starve_below, 0.0, 1.0)
        object.__setattr__(self, "starve_below", starve)
        if not isinstance(self.started_first, bool):
            raise ValidationError(f"started_first must be a bool, got {self.started_first!r}")


@runtime_checkable
class SchedulerProtocol(Protocol):
    """Anything the engine can drive: gets a view, returns an allocation."""

    #: Human-readable identifier used in result tables.
    name: str

    def allocate(self, view: SystemView) -> BandwidthAllocation:
        """Decide the bandwidth of every I/O candidate until the next event."""
        ...

    def reset(self) -> None:
        """Clear any internal state before a new simulation run."""
        ...
