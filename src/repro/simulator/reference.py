"""Reference (naive) discrete-event engine — the pre-optimization semantics.

This module preserves the original straight-line implementation of the
engine: at every event it re-scans **all** applications to find candidates,
fire transitions, and compute the next event horizon, and it re-sums
instance prefixes inside every view.  That makes each event cost
O(n_apps × n_instances) — quadratic over a whole run — which is exactly what
:mod:`repro.simulator.engine` replaces with columnar numpy state and
vectorized per-event passes.

It is kept (and must stay behaviourally frozen) for three reasons:

* ``tests/test_engine_equivalence.py`` runs it head-to-head against the
  optimized engine and asserts bit-identical records, makespans and event
  logs — the optimized engine's correctness argument is "same timeline,
  same floats, faster bookkeeping";
* ``benchmarks/bench_engine_scaling.py`` uses it as the baseline when
  reporting the optimized engine's events/sec speedup in ``BENCH_engine.json``;
* :func:`repro.simulator.engine.simulate` runs a scenario here when the
  scheduler has no vectorized kernel (a custom
  :class:`~repro.simulator.interface.SchedulerProtocol` or a subclass of a
  built-in policy), since this engine drives any scheduler through views.

Call :func:`repro.simulator.engine.simulate` rather than this module: it
produces the same results and picks this engine only when it must.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.allocation import BandwidthAllocation
from repro.core.application import Application
from repro.core.events import Event, EventLog, EventType
from repro.core.scenario import Scenario
from repro.faults.model import CrashEvent, FaultTimeline
from repro.simulator.bandwidth import fair_share
from repro.simulator.burst_buffer import BurstBufferState
from repro.simulator.engine import (
    SimulationError,
    SimulatorConfig,
    StallError,
    _stall_message,
)
from repro.simulator.interface import (
    ApplicationPhase,
    ApplicationView,
    SchedulerProtocol,
    SystemView,
)
from repro.simulator.metrics import (
    ApplicationRecord,
    BurstBufferStats,
    FaultStats,
    InstanceRecord,
    SimulationResult,
)
from repro.utils.validation import ValidationError

__all__ = ["ReferenceSimulator", "reference_simulate"]

#: Absolute slack (seconds / bytes) used when comparing event times and
#: residual volumes.  Scales are seconds and bytes, so 1e-6 is far below any
#: physically meaningful quantity while being far above accumulated rounding.
_TIME_EPS = 1e-9
_VOLUME_EPS = 1e-6


@dataclass
class _Runtime:
    """Mutable per-application state inside the engine."""

    app: Application
    phase: ApplicationPhase = ApplicationPhase.NOT_RELEASED
    instance_idx: int = 0
    executed_work: float = 0.0
    completed_instance_work: float = 0.0
    compute_start: float = 0.0
    compute_end: float = math.inf
    remaining_io: float = 0.0
    io_started: bool = False
    io_first_transfer: Optional[float] = None
    io_request_time: Optional[float] = None
    last_io_end: float = -math.inf
    completion_time: float = math.nan
    total_io_transferred: float = 0.0
    current_rate: float = 0.0
    instance_records: list[InstanceRecord] = field(default_factory=list)
    # Fault-injection state: a recovering application is re-reading its
    # checkpoint (``remaining_io`` holds recovery bytes, not instance I/O).
    recovering: bool = False
    n_crashes: int = 0
    recovery_io: float = 0.0

    @property
    def done(self) -> bool:
        return self.phase == ApplicationPhase.DONE

    @property
    def wants_io(self) -> bool:
        return self.phase in (ApplicationPhase.IO_PENDING, ApplicationPhase.DOING_IO)

    def current_instance(self):
        return self.app.instances[self.instance_idx]


class ReferenceSimulator:
    """The seed engine: full per-event scans, kept as the equivalence baseline."""

    def __init__(self, scenario: Scenario, config: SimulatorConfig | None = None):
        self.scenario = scenario
        self.config = config or SimulatorConfig()
        self.platform = scenario.platform
        self._app_map = scenario.application_map()
        if self.config.use_burst_buffer and self.platform.burst_buffer is None:
            raise ValidationError(
                f"use_burst_buffer=True but platform {self.platform.name!r} "
                "has no burst buffer specification"
            )
        if scenario.faults is not None:
            unknown = sorted(scenario.faults.crash_app_names() - set(self._app_map))
            if unknown:
                raise ValidationError(
                    f"fault model crashes name unknown application(s): {unknown}"
                )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self, scheduler: SchedulerProtocol, event_log: EventLog | None = None
    ) -> SimulationResult:
        """Simulate the scenario to completion under ``scheduler``."""
        scheduler.reset()
        runtimes = {app.name: _Runtime(app=app) for app in self.scenario}
        bb = (
            BurstBufferState(self.platform.burst_buffer)
            if (self.config.use_burst_buffer and self.platform.burst_buffer)
            else None
        )
        log = event_log if event_log is not None else (
            EventLog() if self.config.record_events else None
        )

        # Fault injection: one forward-only timeline cursor per run, shared
        # semantics with the optimized engine (same class interprets the
        # same model, so the engines cannot diverge on fault arithmetic).
        faults = self.scenario.faults
        timeline = FaultTimeline(faults) if faults is not None else None
        self._timeline = timeline
        fault_factor = 1.0
        fault_brownout = 0.0
        fault_blackout = 0.0
        fault_stall = 0.0

        time = min(app.release_time for app in self.scenario)
        n_events = 0
        time_bb_full = 0.0

        # Release / start whatever is due at the initial instant.
        self._process_transitions(runtimes, time, log)

        while not all(rt.done for rt in runtimes.values()):
            n_events += 1
            if n_events > self.config.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.config.max_events}; "
                    "the scheduler is probably thrashing"
                )

            # ---------------- allocation for the coming interval ----------
            candidates = [rt for rt in runtimes.values() if rt.wants_io]
            bb_ingest_rates: dict[str, float] = {}
            drain = bb.drain_rate() if bb is not None else 0.0
            if timeline is None:
                available = max(0.0, self.platform.system_bandwidth - drain)
            else:
                # A brown-out degrades the shared PFS only; the per-node cap
                # and the burst-buffer ingest fabric stay fault-free.
                fault_factor = timeline.factor_at(time)
                available = max(
                    0.0, self.platform.system_bandwidth * fault_factor - drain
                )

            if bb is not None and bb.can_absorb() and candidates:
                # Writes are absorbed by the burst buffer: fair share of the
                # ingest fabric, no scheduler involvement, no PFS bandwidth.
                views = [self._view_of(rt, time) for rt in candidates]
                alloc = fair_share(
                    views, self.platform.node_bandwidth, bb.ingest_capacity()
                )
                for rt in candidates:
                    bb_ingest_rates[rt.app.name] = alloc.gamma(rt.app.name) * rt.app.processors
                allocation = alloc
            elif candidates:
                view = self._system_view(runtimes, time, available)
                allocation = scheduler.allocate(view)
                if not isinstance(allocation, BandwidthAllocation):
                    raise SimulationError(
                        f"scheduler {scheduler.name!r} returned "
                        f"{type(allocation).__name__}, expected BandwidthAllocation"
                    )
                allocation.validate(self.platform, self._app_map, capacity=available)
            else:
                allocation = BandwidthAllocation.empty()

            # Apply the allocation to the candidates.
            total_ingest = 0.0
            for rt in candidates:
                if bb_ingest_rates:
                    rate = bb_ingest_rates.get(rt.app.name, 0.0)
                    total_ingest += rate
                else:
                    rate = allocation.gamma(rt.app.name) * rt.app.processors
                rt.current_rate = rate
                if rate > 0:
                    if rt.io_first_transfer is None:
                        rt.io_first_transfer = time
                    rt.io_started = True
                    rt.phase = ApplicationPhase.DOING_IO
                else:
                    # Zero bandwidth: whether the transfer already started or
                    # not, the application holds no bandwidth for the coming
                    # interval, so it is pending (an interrupted application
                    # does not keep the DOING_IO flag).
                    rt.phase = ApplicationPhase.IO_PENDING

            # ---------------- find the next event -------------------------
            dt = self._next_event_delta(runtimes, bb, total_ingest, time)
            if dt is None:
                if candidates:
                    raise StallError(
                        _stall_message(
                            scheduler.name,
                            [rt.app.name for rt in candidates],
                            time,
                            timeline,
                        )
                    )
                raise SimulationError("no future event but applications remain")

            if time + dt > self.config.max_time:
                dt = self.config.max_time - time
                if dt <= _TIME_EPS:
                    break

            if timeline is not None and fault_factor < 1.0:
                fault_brownout += dt
                if fault_factor <= 0.0:
                    fault_blackout += dt
                if candidates:
                    fault_stall += dt

            # ---------------- advance the interval ------------------------
            for rt in runtimes.values():
                if rt.wants_io and rt.current_rate > 0:
                    # Clamp to the remaining volume: when the interval is cut
                    # by an unrelated event the transfer may finish inside it,
                    # and the excess must not be counted as moved bytes.
                    moved = min(rt.current_rate * dt, rt.remaining_io)
                    rt.remaining_io = max(0.0, rt.remaining_io - moved)
                    rt.total_io_transferred += moved
                    if rt.recovering:
                        rt.recovery_io += moved
            if bb is not None:
                if not bb.can_absorb():
                    time_bb_full += dt
                bb.advance(dt, total_ingest)
            time += dt

            # ---------------- fire transitions at the new time ------------
            self._process_transitions(runtimes, time, log)

            if time >= self.config.max_time:
                break

        self._finalize_truncated(runtimes, min(time, self.config.max_time))

        records = {
            name: self._record_of(rt) for name, rt in runtimes.items()
        }
        makespan = max(rec.completion_time for rec in records.values())
        bb_stats = None
        if bb is not None:
            bb_stats = BurstBufferStats(
                total_absorbed=bb.total_absorbed,
                total_drained=bb.total_drained,
                final_level=bb.level,
                time_full=time_bb_full,
            )
        fault_stats = None
        if timeline is not None:
            fault_stats = FaultStats(
                n_crashes=sum(rt.n_crashes for rt in runtimes.values()),
                restarts={
                    rt.app.name: rt.n_crashes
                    for rt in runtimes.values()
                    if rt.n_crashes
                },
                brownout_time=fault_brownout,
                blackout_time=fault_blackout,
                stall_time=fault_stall,
                recovery_io=sum(rt.recovery_io for rt in runtimes.values()),
            )
        return SimulationResult(
            scenario_label=self.scenario.label,
            scheduler_name=scheduler.name,
            platform=self.platform,
            records=records,
            makespan=makespan,
            n_events=n_events,
            burst_buffer=bb_stats,
            fault_stats=fault_stats,
        )

    # ------------------------------------------------------------------ #
    # State transitions
    # ------------------------------------------------------------------ #
    def _process_transitions(
        self, runtimes: dict[str, _Runtime], time: float, log: EventLog | None
    ) -> None:
        """Fire every transition due at ``time`` (releases, compute ends, I/O ends)."""
        # Crashes fire before the ordinary transitions of the same instant:
        # an instance whose I/O "just finished" when its application dies is
        # lost, deterministically, in both engines.
        if self._timeline is not None:
            for crash in self._timeline.pop_due_crashes(time):
                rt = runtimes.get(crash.app_name)
                if rt is not None:
                    self._apply_crash(rt, crash, time, log)
        for rt in runtimes.values():
            # Releases.
            if (
                rt.phase == ApplicationPhase.NOT_RELEASED
                and rt.app.release_time <= time + _TIME_EPS
            ):
                self._log(log, time, EventType.APP_RELEASE, rt.app.name)
                self._start_compute(rt, time, log)
            # Compute completions.
            if (
                rt.phase == ApplicationPhase.COMPUTING
                and rt.compute_end <= time + _TIME_EPS
            ):
                rt.executed_work += rt.current_instance().work
                self._request_io(rt, time, log)
            # I/O completions (a recovering application finished its
            # checkpoint re-read instead: restart the crashed instance).
            if rt.wants_io and rt.remaining_io <= _VOLUME_EPS:
                if rt.recovering:
                    self._finish_recovery(rt, time, log)
                else:
                    self._complete_instance(rt, time, log)

    def _apply_crash(
        self, rt: _Runtime, crash: CrashEvent, time: float, log: EventLog | None
    ) -> None:
        """Crash ``rt``: discard the in-flight instance, queue recovery I/O.

        Crashes aimed at applications outside the system (not yet released,
        or already done) are no-ops.  A crash during recovery restarts the
        checkpoint re-read from scratch.
        """
        phase = rt.phase
        if phase is ApplicationPhase.DONE or phase is ApplicationPhase.NOT_RELEASED:
            return
        rt.n_crashes += 1
        self._log(log, time, EventType.APP_CRASH, rt.app.name, rt.instance_idx)
        if phase is not ApplicationPhase.COMPUTING and not rt.recovering:
            # The instance's compute chunk was credited at compute end; the
            # crash loses that progress (partial compute progress of a
            # COMPUTING application was never credited, so there is nothing
            # to subtract there).
            rt.executed_work -= rt.current_instance().work
        rt.recovering = True
        rt.phase = ApplicationPhase.IO_PENDING
        rt.remaining_io = crash.checkpoint_io
        rt.io_started = False
        rt.io_first_transfer = None
        rt.io_request_time = time
        rt.current_rate = 0.0

    def _finish_recovery(self, rt: _Runtime, time: float, log: EventLog | None) -> None:
        """Checkpoint re-read done: restart the crashed instance from scratch."""
        rt.recovering = False
        rt.remaining_io = 0.0
        rt.current_rate = 0.0
        rt.io_started = False
        rt.io_first_transfer = None
        rt.io_request_time = None
        self._log(log, time, EventType.APP_RESTART, rt.app.name, rt.instance_idx)
        self._start_compute(rt, time, log)

    def _start_compute(self, rt: _Runtime, time: float, log: EventLog | None) -> None:
        inst = rt.current_instance()
        rt.phase = ApplicationPhase.COMPUTING
        rt.compute_start = time
        rt.compute_end = time + inst.work
        rt.current_rate = 0.0
        if inst.work <= _TIME_EPS:
            rt.executed_work += inst.work
            self._request_io(rt, time, log)

    def _request_io(self, rt: _Runtime, time: float, log: EventLog | None) -> None:
        inst = rt.current_instance()
        rt.compute_end = min(rt.compute_end, time)
        if inst.io_volume <= _VOLUME_EPS:
            # Instance without I/O: it is complete as soon as computation ends.
            rt.remaining_io = 0.0
            rt.io_request_time = None
            rt.io_first_transfer = None
            rt.phase = ApplicationPhase.IO_PENDING
            self._complete_instance(rt, time, log)
            return
        rt.phase = ApplicationPhase.IO_PENDING
        rt.remaining_io = inst.io_volume
        rt.io_started = False
        rt.io_first_transfer = None
        rt.io_request_time = time
        rt.current_rate = 0.0
        self._log(log, time, EventType.IO_REQUEST, rt.app.name, rt.instance_idx)

    def _complete_instance(self, rt: _Runtime, time: float, log: EventLog | None) -> None:
        inst = rt.current_instance()
        rt.instance_records.append(
            InstanceRecord(
                index=rt.instance_idx,
                work=inst.work,
                io_volume=inst.io_volume,
                compute_start=rt.compute_start,
                compute_end=rt.compute_start + inst.work,
                io_first_transfer=rt.io_first_transfer,
                io_end=time,
            )
        )
        if inst.io_volume > _VOLUME_EPS:
            self._log(log, time, EventType.IO_COMPLETE, rt.app.name, rt.instance_idx)
        rt.completed_instance_work += inst.work
        rt.last_io_end = time
        rt.remaining_io = 0.0
        rt.current_rate = 0.0
        rt.io_started = False
        rt.io_first_transfer = None
        rt.io_request_time = None
        rt.instance_idx += 1
        if rt.instance_idx >= rt.app.n_instances:
            rt.phase = ApplicationPhase.DONE
            rt.completion_time = time
            self._log(log, time, EventType.APP_COMPLETE, rt.app.name)
        else:
            self._start_compute(rt, time, log)

    # ------------------------------------------------------------------ #
    # Event horizon
    # ------------------------------------------------------------------ #
    def _next_event_delta(
        self,
        runtimes: dict[str, _Runtime],
        bb: BurstBufferState | None,
        total_ingest: float,
        time: float,
    ) -> Optional[float]:
        """Seconds until the next event, or None if nothing will ever happen."""
        deltas: list[float] = []
        for rt in runtimes.values():
            if rt.phase == ApplicationPhase.NOT_RELEASED:
                deltas.append(max(0.0, rt.app.release_time - time))
            elif rt.phase == ApplicationPhase.COMPUTING:
                deltas.append(max(0.0, rt.compute_end - time))
            elif rt.wants_io and rt.current_rate > 0:
                deltas.append(rt.remaining_io / rt.current_rate)
        if bb is not None:
            transition = bb.next_transition(total_ingest)
            if transition is not None:
                deltas.append(transition)
        if self._timeline is not None:
            # Fault breakpoints are time-certain events: the interval must be
            # cut at every degradation-factor change and at every crash so
            # rates stay piecewise-constant between events.
            boundary = self._timeline.next_boundary(time)
            if boundary is not None:
                deltas.append(boundary - time)
            crash_time = self._timeline.peek_crash_time()
            if crash_time is not None:
                deltas.append(max(0.0, crash_time - time))
        eligible = [d for d in deltas if d >= 0.0]
        if not eligible:
            return None
        # Always honour the earliest event; clamp to a minimal step so that
        # zero-length deltas (a transition due "now" after floating-point
        # rounding) still advance time instead of looping forever — and are
        # never skipped in favour of a much later event.
        return max(min(eligible), _TIME_EPS)

    # ------------------------------------------------------------------ #
    # Views and records
    # ------------------------------------------------------------------ #
    def _view_of(self, rt: _Runtime, time: float) -> ApplicationView:
        app = rt.app
        elapsed = time - app.release_time
        if elapsed > _TIME_EPS:
            # Use the work of every *finished compute chunk* (not only fully
            # completed instances): an application that just spent w seconds
            # computing has made real progress even though its instance's I/O
            # is still pending, and the heuristics' rankings degenerate (every
            # first-instance application ties at zero) if that progress is
            # ignored.  At completion time the two definitions coincide.
            achieved = rt.executed_work / elapsed
        else:
            achieved = None  # placeholder, fixed below
        # Optimal efficiency over the instances seen so far (at least one).
        upto = min(rt.instance_idx + 1, app.n_instances)
        works = sum(inst.work for inst in app.instances[:upto])
        vols = sum(inst.io_volume for inst in app.instances[:upto])
        peak = self.platform.peak_application_bandwidth(app.processors)
        denom = works + (vols / peak if peak > 0 else 0.0)
        optimal = works / denom if denom > 0 else 1.0
        if achieved is None:
            achieved = optimal
        return ApplicationView(
            name=app.name,
            processors=app.processors,
            phase=rt.phase,
            remaining_io_volume=rt.remaining_io if rt.wants_io else 0.0,
            io_started=rt.io_started,
            achieved_efficiency=achieved,
            optimal_efficiency=optimal,
            last_io_end=rt.last_io_end,
            io_request_time=rt.io_request_time,
            instance_index=rt.instance_idx,
            n_instances=app.n_instances,
            total_io_transferred=rt.total_io_transferred,
        )

    def _system_view(
        self, runtimes: dict[str, _Runtime], time: float, available: float
    ) -> SystemView:
        views = tuple(
            self._view_of(rt, time)
            for rt in runtimes.values()
            if rt.phase != ApplicationPhase.DONE
        )
        return SystemView(
            time=time,
            platform=self.platform,
            available_bandwidth=available,
            applications=views,
        )

    def _finalize_truncated(self, runtimes: dict[str, _Runtime], time: float) -> None:
        """Assign completion data to applications cut off by ``max_time``."""
        for rt in runtimes.values():
            if not rt.done:
                rt.completion_time = time
                rt.phase = ApplicationPhase.DONE

    def _record_of(self, rt: _Runtime) -> ApplicationRecord:
        app = rt.app
        peak = self.platform.peak_application_bandwidth(app.processors)
        finished_all = rt.instance_idx >= app.n_instances
        if finished_all:
            dedicated_io_time = app.total_io_volume / peak if peak > 0 else 0.0
            executed_work = app.total_work
        else:
            # Truncated run: score the work and I/O actually performed, so the
            # efficiency ratio compares like with like.
            dedicated_io_time = rt.total_io_transferred / peak if peak > 0 else 0.0
            executed_work = rt.completed_instance_work
        return ApplicationRecord(
            application=app,
            release_time=app.release_time,
            completion_time=rt.completion_time,
            executed_work=executed_work,
            dedicated_io_time=dedicated_io_time,
            total_io_transferred=rt.total_io_transferred,
            instances=list(rt.instance_records),
            restarts=rt.n_crashes,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _log(
        log: EventLog | None,
        time: float,
        event_type: EventType,
        app_name: str | None = None,
        instance_index: int | None = None,
    ) -> None:
        if log is not None:
            log.append(
                Event(
                    time=time,
                    event_type=event_type,
                    app_name=app_name,
                    instance_index=instance_index,
                )
            )


def reference_simulate(
    scenario: Scenario,
    scheduler: SchedulerProtocol,
    config: SimulatorConfig | None = None,
    event_log: EventLog | None = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`ReferenceSimulator` and run it once."""
    return ReferenceSimulator(scenario, config).run(scheduler, event_log=event_log)
