"""Discrete-event engine simulating compute / I/O phases under shared bandwidth.

The engine implements the execution model of Section 2.1 directly:

* compute phases run undisturbed on dedicated processors;
* at every *event* (application release, I/O request, I/O completion,
  burst-buffer transition, fault-window boundary, crash) the scheduler's
  policy yields a piecewise-constant bandwidth assignment, feasible with
  respect to the per-node cap ``b`` and the aggregate cap ``B``;
* between events every quantity evolves linearly, so the engine only ever
  advances time to the *next* event — there is no fixed time step and no
  numerical integration error beyond floating-point rounding.

Per-application state is kept as flat numpy columns (phases,
release/compute-end times, remaining volumes, rates, request times), so
each event is a handful of vectorized passes over all applications instead
of per-object Python dispatch: candidate collection, ordering keys, the
next-event horizon and the interval advance are all array expressions, and
only the (few) applications actually transitioning at the new time are
touched by scalar code.

The contract is **bit-for-bit identity** with the reference engine
(:mod:`repro.simulator.reference`, the frozen oracle) — same event
timeline, same floats in every record and event log.  That constrains the
vectorization in two ways:

* elementwise array arithmetic is used freely (IEEE-754 elementwise ops are
  identical to the equivalent scalar ops), but *sequential accumulations*
  whose rounding depends on evaluation order (the greedy favouring loop, the
  burst-buffer ingest total, per-run recovery-I/O sums) stay as ordered
  Python loops exactly mirroring the reference;
* the scheduler policies are dispatched **by exact type** onto vectorized
  ordering kernels (``np.lexsort`` with the shared ``(request time, name)``
  tie-break).  Any scheduler outside the built-in set — subclasses and
  custom :class:`~repro.simulator.interface.SchedulerProtocol` objects —
  runs the whole scenario on the reference engine instead, which handles
  arbitrary schedulers; each such run is counted as
  ``repro_engine_fallback_total``.

``tests/test_engine_equivalence.py`` and the differential fuzz suite
(``tests/test_engine_differential.py``) enforce the identity;
``benchmarks/bench_engine_scaling.py`` tracks the speedup over the
reference in ``BENCH_engine.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.events import Event, EventLog, EventType
from repro.core.scenario import Scenario
from repro.faults.model import FaultTimeline
from repro.obs.telemetry import recorder as _obs_recorder
from repro.simulator.burst_buffer import BurstBufferState
from repro.simulator.interface import SchedulerProtocol
from repro.simulator.metrics import (
    ApplicationRecord,
    BurstBufferStats,
    FaultStats,
    InstanceRecord,
    SimulationResult,
)
from repro.utils.validation import ValidationError

#: Process-wide telemetry funnel.  The kernel only *accumulates plain int
#: counters* during a run and flushes them once at the end when the
#: recorder is enabled — no clocks, no per-event telemetry calls, so the
#: hot loop stays at native speed and the determinism contract is
#: untouched (telemetry never reaches results or store keys).
_OBS = _obs_recorder()

__all__ = ["SimulationError", "StallError", "SimulatorConfig", "Simulator", "simulate"]

class SimulationError(RuntimeError):
    """Raised when the simulation cannot proceed or an invariant is broken."""


class StallError(SimulationError):
    """Raised when applications wait for I/O forever (scheduler deadlock,
    or a permanent blackout window with applications still wanting I/O)."""


def _stall_message(
    scheduler_name: str,
    app_names: list[str],
    time: float,
    timeline: Optional[FaultTimeline],
) -> str:
    """Diagnostic for a stall: who is stuck, when, and under which faults.

    Shared with the reference engine so the diagnosis never diverges.  The message
    keeps the ``"stalled"`` / ``"N application(s)"`` phrasing the guard-rail
    tests (and downstream log scrapers) match on.
    """
    message = (
        f"scheduler {scheduler_name!r} left {len(app_names)} application(s) "
        "stalled with no future event to unblock them "
        f"(stalled: {', '.join(app_names)}; simulation time t={time:g})"
    )
    if timeline is not None:
        active = timeline.active_windows(time)
        if active:
            windows = ", ".join(
                f"[{w.start:g}, {w.end:g}) factor={w.factor:g}" for w in active
            )
            message += f"; active fault window(s): {windows}"
    return message


@dataclass(frozen=True)
class SimulatorConfig:
    """Tunable knobs of a simulation run.

    Attributes
    ----------
    use_burst_buffer:
        Route writes through the platform's burst buffer when it has one.
        The paper's heuristics run without; the Intrepid/Mira baselines run
        with.
    record_events:
        Keep a full :class:`~repro.core.events.EventLog` (slower, used by
        tests and the quickstart example).
    max_time:
        Hard horizon; applications still running at that point are truncated
        and scored on the work they completed.
    max_events:
        Safety valve against schedulers that thrash (each event triggers a
        reallocation); generously above anything a correct run needs.
    """

    use_burst_buffer: bool = False
    record_events: bool = False
    max_time: float = math.inf
    max_events: int = 10_000_000


#: Same slacks as the reference engine (times in seconds, volumes in bytes).
_TIME_EPS = 1e-9
_VOLUME_EPS = 1e-6
#: Same epsilon as :mod:`repro.simulator.bandwidth` (bandwidth in bytes/s).
_BW_EPS = 1e-12

# Integer phase codes for the ``phase`` column (the enum members of
# ``ApplicationPhase``, in lifecycle order).
_NOT_RELEASED = 0
_COMPUTING = 1
_IO_PENDING = 2
_DOING_IO = 3
_DONE = 4

#: Heuristics whose ``allocate`` is the shared greedy favouring loop and
#: whose ordering reduces to a lexsort kernel.  Keys are *exact* types: a
#: subclass may override anything, so it must take the reference path.
#: Populated lazily — the scheduler modules import the simulator package,
#: so importing them at module scope would be circular.
_FAVOR_ORDERINGS: dict[type, str] = {}
_POLICY_TYPES: dict[str, type] = {}


def _policy_types() -> dict[str, type]:
    if not _POLICY_TYPES:
        from repro.online.baselines import FCFS, FairShare
        from repro.online.heuristics import (
            MaxSysEff,
            MinDilation,
            MinMaxGamma,
            RoundRobin,
        )
        from repro.online.priority import Priority

        _FAVOR_ORDERINGS.update(
            {
                RoundRobin: "roundrobin",
                MinDilation: "mindilation",
                MaxSysEff: "maxsyseff",
                FCFS: "fcfs",
            }
        )
        _POLICY_TYPES.update(
            {
                "fairshare": FairShare,
                "minmax": MinMaxGamma,
                "priority": Priority,
            }
        )
    return _POLICY_TYPES


def _native_policy(scheduler: SchedulerProtocol):
    """Classify ``scheduler`` for the vectorized path, or ``None`` if unknown.

    Returns ``(alloc, ordering, priority, gamma)`` where ``alloc`` is
    ``"favor"`` or ``"fairshare"``, ``ordering`` names the lexsort kernel,
    ``priority`` requests the stable started-first partition and ``gamma``
    is the MinMax threshold (``None`` otherwise).
    """
    types = _policy_types()
    fair_share_t = types["fairshare"]
    minmax_t = types["minmax"]
    priority_t = types["priority"]
    t = type(scheduler)
    if t is fair_share_t:
        # FairShare overrides allocate() itself (interference-degraded
        # water-filling); ordering is irrelevant.
        return ("fairshare", None, False, None)
    if t is minmax_t:
        return ("favor", "minmax", False, scheduler.gamma)
    if t in _FAVOR_ORDERINGS:
        return ("favor", _FAVOR_ORDERINGS[t], False, None)
    if t is priority_t:
        inner = scheduler.inner
        it = type(inner)
        if it is fair_share_t:
            # Priority inherits the generic allocate(), so the inner
            # FairShare only contributes its identity candidate ordering.
            return ("favor", "identity", True, None)
        if it is minmax_t:
            return ("favor", "minmax", True, inner.gamma)
        if it in _FAVOR_ORDERINGS:
            return ("favor", _FAVOR_ORDERINGS[it], True, None)
    return None


class Simulator:
    """Runs one scenario under one scheduler and produces a result record."""

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
    def run(
        self, scheduler: SchedulerProtocol, event_log: EventLog | None = None
    ) -> SimulationResult:
        """Simulate the scenario to completion under ``scheduler``."""
        policy = _native_policy(scheduler)
        if policy is None:
            # Unknown policy (custom scheduler or subclass): the columnar
            # kernels cannot reproduce an arbitrary allocate(), so the
            # reference engine, which drives any scheduler through views,
            # runs the whole scenario.  Imported here: the reference
            # imports this module's config and errors.
            from repro.simulator.reference import ReferenceSimulator

            _OBS.count(
                "repro_engine_fallback_total", scheduler=type(scheduler).__name__
            )
            return ReferenceSimulator(self.scenario, self.config).run(
                scheduler, event_log=event_log
            )
        alloc_kind, ordering, priority, minmax_gamma = policy

        scheduler.reset()
        config = self.config
        platform = self.platform
        apps = list(self.scenario)
        n = len(apps)
        node_bw = float(platform.node_bandwidth)
        system_bw = float(platform.system_bandwidth)
        names = [app.name for app in apps]
        index_of = {name: i for i, name in enumerate(names)}
        interference = scheduler.interference if alloc_kind == "fairshare" else None

        # ---------------- immutable per-application columns --------------
        procs_i = [app.processors for app in apps]
        procs_f = np.array(procs_i, dtype=np.float64)
        procs_int = np.array(procs_i, dtype=np.int64)
        release = np.array([app.release_time for app in apps], dtype=np.float64)
        n_inst = [app.n_instances for app in apps]
        peaks = [
            platform.peak_application_bandwidth(app.processors) for app in apps
        ]
        # Unique rank of each name in sorted order: the deterministic final
        # tie-break of every ordering, so lexsort produces exactly the
        # ordering of sorted() with (..., request time, name) tuple keys.
        name_rank = np.empty(n, dtype=np.int64)
        for rank, i in enumerate(sorted(range(n), key=names.__getitem__)):
            name_rank[i] = rank
        # Congestion-free efficiency per instance prefix, accumulated with
        # the exact add sequence of the reference's per-event
        # sum(instances[:upto]) so the floats match bit-for-bit.
        opt_tables: list[list[float]] = []
        for app, peak in zip(apps, peaks):
            works = 0.0
            vols = 0.0
            table: list[float] = []
            for inst in app.instances:
                works += inst.work
                vols += inst.io_volume
                denom = works + (vols / peak if peak > 0 else 0.0)
                table.append(works / denom if denom > 0 else 1.0)
            opt_tables.append(table)

        # ---------------- mutable state columns ---------------------------
        phase = np.full(n, _NOT_RELEASED, dtype=np.int64)
        instance_idx = [0] * n
        executed = np.zeros(n, dtype=np.float64)
        completed_work = [0.0] * n
        compute_start = np.zeros(n, dtype=np.float64)
        compute_end = np.full(n, np.inf, dtype=np.float64)
        remaining = np.zeros(n, dtype=np.float64)
        rate = np.zeros(n, dtype=np.float64)
        io_started = np.zeros(n, dtype=bool)
        io_first = np.full(n, np.nan, dtype=np.float64)  # NaN = "no transfer yet"
        io_req = np.full(n, np.inf, dtype=np.float64)  # inf = "no request"
        last_io_end = np.full(n, -np.inf, dtype=np.float64)
        completion = [math.nan] * n
        total_io = np.zeros(n, dtype=np.float64)
        recovering = np.zeros(n, dtype=bool)
        n_crashes = [0] * n
        recovery_io = np.zeros(n, dtype=np.float64)
        opt_cur = np.array([table[0] for table in opt_tables], dtype=np.float64)
        inst_records: list[list[InstanceRecord]] = [[] for _ in range(n)]
        n_done = 0

        log = event_log if event_log is not None else (
            EventLog() if config.record_events else None
        )

        def emit(time, event_type, app_name=None, inst_index=None):
            if log is not None:
                log.append(
                    Event(
                        time=time,
                        event_type=event_type,
                        app_name=app_name,
                        instance_index=inst_index,
                    )
                )

        # ---------------- scalar transition cascade -----------------------
        # These closures mirror the reference's transition methods line for
        # line; they run only for the few applications due at each event.

        def start_compute(i, time):
            inst = apps[i].instances[instance_idx[i]]
            phase[i] = _COMPUTING
            compute_start[i] = time
            compute_end[i] = time + inst.work
            rate[i] = 0.0
            if inst.work <= _TIME_EPS:
                executed[i] += inst.work
                request_io(i, time)

        def request_io(i, time):
            inst = apps[i].instances[instance_idx[i]]
            if time < compute_end[i]:
                compute_end[i] = time
            if inst.io_volume <= _VOLUME_EPS:
                # Instance without I/O: complete as soon as computation ends.
                remaining[i] = 0.0
                io_req[i] = np.inf
                io_first[i] = np.nan
                phase[i] = _IO_PENDING
                complete_instance(i, time)
                return
            phase[i] = _IO_PENDING
            remaining[i] = inst.io_volume
            io_started[i] = False
            io_first[i] = np.nan
            io_req[i] = time
            rate[i] = 0.0
            emit(time, EventType.IO_REQUEST, names[i], instance_idx[i])

        def complete_instance(i, time):
            nonlocal n_done
            idx = instance_idx[i]
            inst = apps[i].instances[idx]
            first = float(io_first[i])
            cs = float(compute_start[i])
            inst_records[i].append(
                InstanceRecord(
                    index=idx,
                    work=inst.work,
                    io_volume=inst.io_volume,
                    compute_start=cs,
                    compute_end=cs + inst.work,
                    io_first_transfer=None if math.isnan(first) else first,
                    io_end=time,
                )
            )
            if inst.io_volume > _VOLUME_EPS:
                emit(time, EventType.IO_COMPLETE, names[i], idx)
            completed_work[i] += inst.work
            last_io_end[i] = time
            remaining[i] = 0.0
            rate[i] = 0.0
            io_started[i] = False
            io_first[i] = np.nan
            io_req[i] = np.inf
            instance_idx[i] = idx + 1
            opt_cur[i] = opt_tables[i][min(idx + 2, n_inst[i]) - 1]
            if idx + 1 >= n_inst[i]:
                phase[i] = _DONE
                completion[i] = time
                n_done += 1
                emit(time, EventType.APP_COMPLETE, names[i])
            else:
                start_compute(i, time)

        def finish_recovery(i, time):
            recovering[i] = False
            remaining[i] = 0.0
            rate[i] = 0.0
            io_started[i] = False
            io_first[i] = np.nan
            io_req[i] = np.inf
            emit(time, EventType.APP_RESTART, names[i], instance_idx[i])
            start_compute(i, time)

        def apply_crash(i, crash, time):
            p = phase[i]
            if p == _DONE or p == _NOT_RELEASED:
                return
            n_crashes[i] += 1
            emit(time, EventType.APP_CRASH, names[i], instance_idx[i])
            if p != _COMPUTING and not recovering[i]:
                # The instance's compute chunk was credited at compute end;
                # the crash loses it (a COMPUTING application was never
                # credited, so there is nothing to subtract there).
                executed[i] -= apps[i].instances[instance_idx[i]].work
            recovering[i] = True
            phase[i] = _IO_PENDING
            remaining[i] = crash.checkpoint_io
            io_started[i] = False
            io_first[i] = np.nan
            io_req[i] = time
            rate[i] = 0.0

        faults = self.scenario.faults
        timeline = FaultTimeline(faults) if faults is not None else None

        def process_transitions(time):
            # Crashes fire before the ordinary transitions of the instant.
            if timeline is not None:
                for crash in timeline.pop_due_crashes(time):
                    i = index_of.get(crash.app_name)
                    if i is not None:
                        apply_crash(i, crash, time)
            # One vectorized sweep finds every application with a due
            # transition; the scalar cascade below then re-applies the
            # reference's three sequential checks per due application, so
            # same-instant chains (release → zero-work compute → zero-volume
            # I/O → next instance) fire exactly as in the reference.  No
            # transition has cross-application effects, so an application
            # outside the mask cannot become due during the sweep.
            slack = time + _TIME_EPS
            due = (
                ((phase == _NOT_RELEASED) & (release <= slack))
                | ((phase == _COMPUTING) & (compute_end <= slack))
                | (
                    ((phase == _IO_PENDING) | (phase == _DOING_IO))
                    & (remaining <= _VOLUME_EPS)
                )
            )
            for i in np.nonzero(due)[0].tolist():
                if phase[i] == _NOT_RELEASED and release[i] <= slack:
                    emit(time, EventType.APP_RELEASE, names[i])
                    start_compute(i, time)
                if phase[i] == _COMPUTING and compute_end[i] <= slack:
                    executed[i] += apps[i].instances[instance_idx[i]].work
                    request_io(i, time)
                if (
                    phase[i] == _IO_PENDING or phase[i] == _DOING_IO
                ) and remaining[i] <= _VOLUME_EPS:
                    if recovering[i]:
                        finish_recovery(i, time)
                    else:
                        complete_instance(i, time)

        # ---------------- allocation kernels -------------------------------
        def fair_rates(cand, total):
            """Vectorized closed-form fair share (bandwidth.fair_share)."""
            if not cand.size or total <= _BW_EPS:
                return np.zeros(cand.size, dtype=np.float64)
            total_procs = int(procs_int[cand].sum())  # int sum: exact
            share = float(total) / total_procs
            if share >= node_bw:
                gamma = node_bw if node_bw > _BW_EPS else 0.0
            else:
                gamma = share if share > _BW_EPS else 0.0
            return gamma * procs_f[cand]

        def candidate_order(cand, time):
            """Permutation of ``cand`` matching the scheduler's ordering."""
            if ordering == "identity":
                order = np.arange(cand.size)
            else:
                nm = name_rank[cand]
                req = io_req[cand]
                if ordering == "fcfs":
                    order = np.lexsort((nm, req))
                elif ordering == "roundrobin":
                    order = np.lexsort((nm, req, last_io_end[cand]))
                else:
                    opt = opt_cur[cand]
                    el = time - release[cand]
                    with np.errstate(divide="ignore", invalid="ignore"):
                        ach = np.where(el > _TIME_EPS, executed[cand] / el, opt)
                        ratio = np.where(
                            opt <= 0.0, 1.0, np.minimum(1.0, ach / opt)
                        )
                    if ordering == "mindilation":
                        order = np.lexsort((nm, req, ratio))
                    elif ordering == "maxsyseff":
                        order = np.lexsort((nm, req, -(procs_f[cand] * ach)))
                    else:  # minmax: rescue the starved first, then MaxSysEff
                        pf = procs_f[cand]
                        starved = ratio < minmax_gamma
                        s_pos = np.nonzero(starved)[0]
                        h_pos = np.nonzero(~starved)[0]
                        s_ord = s_pos[
                            np.lexsort((nm[s_pos], req[s_pos], ratio[s_pos]))
                        ]
                        h_ord = h_pos[
                            np.lexsort(
                                (nm[h_pos], req[h_pos], -(pf[h_pos] * ach[h_pos]))
                            )
                        ]
                        order = np.concatenate((s_ord, h_ord))
            if priority:
                st = io_started[cand][order]
                order = np.concatenate((order[st], order[~st]))
            return order

        # ---------------- main loop ---------------------------------------
        fault_factor = 1.0
        fault_brownout = 0.0
        fault_blackout = 0.0
        fault_stall = 0.0
        time = min(app.release_time for app in apps)
        n_events = 0
        n_allocations = 0
        time_bb_full = 0.0
        max_time = config.max_time
        max_events = config.max_events
        bb = (
            BurstBufferState(platform.burst_buffer)
            if (config.use_burst_buffer and platform.burst_buffer)
            else None
        )

        process_transitions(time)

        while n_done < n:
            n_events += 1
            if n_events > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "the scheduler is probably thrashing"
                )

            # ---------------- allocation for the coming interval ----------
            wants = (phase == _IO_PENDING) | (phase == _DOING_IO)
            cand = np.nonzero(wants)[0]
            k = cand.size
            drain = bb.drain_rate() if bb is not None else 0.0
            if timeline is None:
                available = max(0.0, system_bw - drain)
            else:
                fault_factor = timeline.factor_at(time)
                available = max(0.0, system_bw * fault_factor - drain)

            total_ingest = 0.0
            if k:
                n_allocations += 1
                rate[cand] = 0.0
                if bb is not None and bb.can_absorb():
                    cand_rates = fair_rates(cand, bb.ingest_capacity())
                    rate[cand] = cand_rates
                    # Sequential sum in candidate (= declaration) order: the
                    # reference accumulates the ingest total one rate at a
                    # time, and float addition rounds per step.
                    for r in cand_rates.tolist():
                        total_ingest += r
                elif alloc_kind == "fairshare":
                    effective = interference.effective_bandwidth(available, k)
                    rate[cand] = fair_rates(cand, effective)
                else:
                    # Greedy favouring in priority order — an ordered
                    # sequential loop by definition (each grant rounds the
                    # remaining capacity before the next), mirroring
                    # bandwidth.favor_in_order float for float.
                    rem = available
                    for i in cand[candidate_order(cand, time)].tolist():
                        if rem <= _BW_EPS:
                            break
                        p = procs_i[i]
                        gamma = rem / p
                        if gamma > node_bw:
                            gamma = node_bw
                        if gamma <= _BW_EPS:
                            continue
                        r = gamma * p
                        rate[i] = r
                        rem -= r
                # Apply: transferring candidates hold bandwidth, the rest
                # are pending (an interrupted transfer drops DOING_IO).
                served = rate[cand] > 0.0
                scand = cand[served]
                fresh = scand[np.isnan(io_first[scand])]
                io_first[fresh] = time
                io_started[scand] = True
                phase[scand] = _DOING_IO
                phase[cand[~served]] = _IO_PENDING

            # ---------------- find the next event -------------------------
            with np.errstate(divide="ignore", invalid="ignore"):
                app_delta = np.where(
                    phase == _NOT_RELEASED,
                    np.maximum(0.0, release - time),
                    np.where(
                        phase == _COMPUTING,
                        np.maximum(0.0, compute_end - time),
                        np.where(
                            wants & (rate > 0.0), remaining / rate, np.inf
                        ),
                    ),
                )
            deltas = []
            best = float(app_delta.min())
            if best < math.inf:
                deltas.append(best)
            if bb is not None:
                transition = bb.next_transition(total_ingest)
                if transition is not None:
                    deltas.append(transition)
            if timeline is not None:
                boundary = timeline.next_boundary(time)
                if boundary is not None:
                    deltas.append(boundary - time)
                crash_time = timeline.peek_crash_time()
                if crash_time is not None:
                    deltas.append(max(0.0, crash_time - time))
            eligible = [d for d in deltas if d >= 0.0]
            if not eligible:
                if k:
                    raise StallError(
                        _stall_message(
                            scheduler.name,
                            [names[i] for i in cand.tolist()],
                            time,
                            timeline,
                        )
                    )
                raise SimulationError("no future event but applications remain")
            dt = max(min(eligible), _TIME_EPS)

            if time + dt > max_time:
                dt = max_time - time
                if dt <= _TIME_EPS:
                    break

            if timeline is not None and fault_factor < 1.0:
                fault_brownout += dt
                if fault_factor <= 0.0:
                    fault_blackout += dt
                if k:
                    fault_stall += dt

            # ---------------- advance the interval ------------------------
            active = np.nonzero(wants & (rate > 0.0))[0]
            if active.size:
                rem_a = remaining[active]
                moved = np.minimum(rate[active] * dt, rem_a)
                remaining[active] = np.maximum(0.0, rem_a - moved)
                total_io[active] += moved
                rec = recovering[active]
                if rec.any():
                    recovery_io[active[rec]] += moved[rec]
            if bb is not None:
                if not bb.can_absorb():
                    time_bb_full += dt
                bb.advance(dt, total_ingest)
            time += dt

            process_transitions(time)

            if time >= max_time:
                break

        # ---------------- records and statistics ---------------------------
        final_time = min(time, max_time)
        for i in range(n):
            if phase[i] != _DONE:
                completion[i] = final_time
                phase[i] = _DONE
        records = {}
        for i, app in enumerate(apps):
            peak = peaks[i]
            if instance_idx[i] >= n_inst[i]:
                dedicated_io_time = (
                    app.total_io_volume / peak if peak > 0 else 0.0
                )
                executed_work = app.total_work
            else:
                dedicated_io_time = (
                    float(total_io[i]) / peak if peak > 0 else 0.0
                )
                executed_work = completed_work[i]
            records[names[i]] = ApplicationRecord(
                application=app,
                release_time=app.release_time,
                completion_time=completion[i],
                executed_work=executed_work,
                dedicated_io_time=dedicated_io_time,
                total_io_transferred=float(total_io[i]),
                instances=list(inst_records[i]),
                restarts=n_crashes[i],
            )
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
            recovery_total = 0.0
            for v in recovery_io.tolist():
                recovery_total += v
            fault_stats = FaultStats(
                n_crashes=sum(n_crashes),
                restarts={
                    names[i]: n_crashes[i] for i in range(n) if n_crashes[i]
                },
                brownout_time=fault_brownout,
                blackout_time=fault_blackout,
                stall_time=fault_stall,
                recovery_io=recovery_total,
            )
        if _OBS.enabled:
            # One flush per run: the loop above only bumped local ints.
            _OBS.count("repro_engine_allocations_total", float(n_allocations))
            _OBS.count("repro_engine_events_total", float(n_events))
        return SimulationResult(
            scenario_label=self.scenario.label,
            scheduler_name=scheduler.name,
            platform=platform,
            records=records,
            makespan=makespan,
            n_events=n_events,
            burst_buffer=bb_stats,
            fault_stats=fault_stats,
        )


def simulate(
    scenario: Scenario,
    scheduler: SchedulerProtocol,
    config: SimulatorConfig | None = None,
    event_log: EventLog | None = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it once."""
    return Simulator(scenario, config).run(scheduler, event_log=event_log)
