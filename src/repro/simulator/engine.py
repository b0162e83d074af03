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

Per-application state lives in flat columns (phases, remaining volumes,
rates, request times, ...) that the transitions keep current, so an event
never re-derives state from the application objects.  Two kernels share
one event loop and one set of transitions; they differ only in the passes
whose cost grows with width — the due set, the candidate set and its
ordering, the horizon and the advance:

* the **scalar kernel** keeps the columns as Python lists, and the
  transitions keep three more structures current so that an event's work
  grows with its candidates and transitions, not with the width: a heap of
  own transition times (lazily deleted), the I/O candidates as a queue in
  ``(request time, name rank)`` order, and the list of transfers drained
  since the last transitions;
* the **columnar kernel** keeps them as numpy arrays, so each event is a
  fixed number of whole-column numpy calls (a mask, a ``lexsort``, a
  reduction) whatever the width.

At the paper's widths (4 to 55 applications) a numpy call costs more in
dispatch than in arithmetic, and the scalar kernel is up to almost four
times faster per event; past about fifty I/O candidates (FairShare) to a
hundred (the favouring policies) its per-candidate Python work costs
more than the columnar kernel's fixed calls.
:meth:`Simulator.run` therefore runs scenarios of at most
``_SCALAR_MAX_APPS`` applications on the scalar kernel and wider ones on
the columnar kernel; the crossover was measured per width (see
``docs/performance.md``) and each run is counted as
``repro_engine_runs_total{kernel=...}``.  Both kernels keep the same
columns with the same meaning:

* ``own_t`` holds each application's own next transition time — its
  release while not released, its compute end while computing, ``inf``
  otherwise — and ``remaining`` holds the pending volume while in an I/O
  phase, ``inf`` otherwise.  So an application is due when
  ``own_t <= t + eps`` or ``remaining <= eps``, and the horizon is
  ``max(0, min(own_t) - t)`` against the transfer times of the served
  candidates.  The columnar kernel reduces the column; the scalar kernel
  reads the top of its heap, which holds an ``(own_t[i], i)`` entry for
  every finite own time (an entry is live while ``own_t[i]`` still equals
  it), and takes the due volumes from the drained list.
  ``min(fl(x_i - t)) == fl(min(x_i) - t)`` because IEEE rounding is
  monotone, so the horizon is exact.
* pending and transferring I/O share one phase code, so the candidates
  are one set; the served ones (positive rate) are the only transfers the
  horizon and the advance touch.  The scalar kernel takes them from the
  allocation (the greedy loop's grants, or every candidate of a positive
  fair share) instead of rescanning the candidates' rates.
* the columnar kernel enters one ``np.errstate`` per run instead of two
  per event, and calls reductions and ``nonzero`` on the ufunc or the
  array directly rather than through numpy's Python wrappers.

The contract is **bit-for-bit identity** with the reference engine
(:mod:`repro.simulator.reference`, the frozen oracle) — same event
timeline, same floats in every record and event log.  That constrains the
kernels in two ways:

* elementwise array arithmetic is used freely (IEEE-754 elementwise ops are
  identical to the equivalent scalar ops, which is also why the two
  kernels agree), but *sequential accumulations* whose rounding depends
  on evaluation order (the greedy favouring loop, the burst-buffer ingest
  total, per-run recovery-I/O sums) stay as ordered Python loops exactly
  mirroring the reference;
* each kernel compiles the scheduler's
  :class:`~repro.simulator.interface.GrantOrder` once per run, every key
  ending in the shared ``(request time, name)`` tie-break, which makes the
  order total: one ``np.lexsort`` over the columns, or a stable ``sorted``
  of the request-ordered queue by the primary key (FCFS is the queue
  itself).  A scheduler that overrides ``order_candidates`` or
  ``allocate`` (but for FairShare's), or a custom
  :class:`~repro.simulator.interface.SchedulerProtocol` object, runs the
  whole scenario on the reference engine instead, which handles arbitrary
  schedulers; each such run is counted as ``repro_engine_fallback_total``.

``tests/test_engine_equivalence.py``, ``tests/test_batched_edge_cases.py``
and the differential fuzz suite (``tests/test_engine_differential.py``)
enforce the identity, each on both kernels;
``benchmarks/engine_bench.py`` tracks the speedup over the reference in
``BENCH_engine.json``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional

import numpy as np

from repro.core.events import Event, EventLog, EventType
from repro.core.scenario import Scenario
from repro.faults.model import FaultTimeline
from repro.obs.telemetry import recorder as _obs_recorder
from repro.online.base import OnlineScheduler
from repro.online.baselines import FairShare
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

# Integer phase codes for the ``phase`` column, in lifecycle order.
# ``ApplicationPhase``'s IO_PENDING and DOING_IO share ``_IO``: no kernel
# decision tells them apart, and whether the instance's transfer has
# started is ``io_first`` (NaN until then).
_NOT_RELEASED = 0
_COMPUTING = 1
_IO = 2
_DONE = 3

#: Widest scenario (in applications) that runs on the scalar kernel; wider
#: ones run on the columnar kernel.  The measured crossover: see the module
#: docstring and the per-width table in docs/performance.md.
_SCALAR_MAX_APPS = 80

def _native_fair(scheduler: SchedulerProtocol) -> Optional[bool]:
    """``True`` if the kernels run ``scheduler`` as FairShare, ``False`` as
    greedy favouring in its ``grant_order``, ``None`` if they cannot: it is
    no ``OnlineScheduler``, or it overrides ``order_candidates`` or (but for
    FairShare's) ``allocate``."""
    cls = type(scheduler)
    if getattr(cls, "order_candidates", None) is not OnlineScheduler.order_candidates:
        return None
    allocate = cls.allocate
    if allocate is OnlineScheduler.allocate:
        return False
    if allocate is FairShare.allocate:
        return True
    return None


class _ScenarioColumns:
    """The per-application columns that depend on the scenario alone.

    A grid runs every scheduler of a scenario in a row (8 series per
    Figure 6 mix), so these are built once per :class:`Scenario` object
    and shared by its runs; see :func:`_scenario_columns`.  Every column is
    a tuple: a run copies what it mutates.
    """

    __slots__ = (
        "apps", "names", "index_of", "ranks", "procs", "procs_f", "release",
        "n_inst", "peaks", "opt_tables",
    )

    def __init__(self, scenario: Scenario):
        platform = scenario.platform
        apps = tuple(scenario)
        n = len(apps)
        self.apps = apps
        self.names = tuple(app.name for app in apps)
        self.index_of = {name: i for i, name in enumerate(self.names)}
        # Unique rank of each name in sorted order: the deterministic final
        # tie-break of every ordering, so lexsort (and the scalar kernel's
        # request-ordered queue) orders exactly as sorted() with
        # (..., request time, name) tuple keys.
        ranks = [0] * n
        for rank, i in enumerate(sorted(range(n), key=self.names.__getitem__)):
            ranks[i] = rank
        self.ranks = tuple(ranks)
        self.procs = tuple(app.processors for app in apps)
        self.procs_f = tuple(float(p) for p in self.procs)
        self.release = tuple(app.release_time for app in apps)
        self.n_inst = tuple(app.n_instances for app in apps)
        self.peaks = tuple(
            platform.peak_application_bandwidth(app.processors) for app in apps
        )
        # Congestion-free efficiency per instance prefix, accumulated with
        # the exact add sequence of the reference's per-event
        # sum(instances[:upto]) so the floats match bit-for-bit.
        opt_tables = []
        for app, peak in zip(apps, self.peaks):
            works = 0.0
            vols = 0.0
            table = []
            for inst in app.instances:
                works += inst.work
                vols += inst.io_volume
                denom = works + (vols / peak if peak > 0 else 0.0)
                table.append(works / denom if denom > 0 else 1.0)
            opt_tables.append(tuple(table))
        self.opt_tables = tuple(opt_tables)


#: The columns of the most recently simulated scenario, behind a weak
#: reference to it.  One slot serves a grid, which runs a scenario's
#: schedulers in a row, and holds one scenario's columns at most; they
#: never live on the scenario itself, a frozen dataclass that is keyed
#: into the result store and pickled to workers.  Sharing the slot across
#: callers is safe: the columns are a pure function of an immutable
#: scenario.
_last_columns: tuple = (None, None)


def _scenario_columns(scenario: Scenario) -> _ScenarioColumns:
    global _last_columns
    ref, columns = _last_columns
    if ref is None or ref() is not scenario:
        columns = _ScenarioColumns(scenario)
        _last_columns = (weakref.ref(scenario), columns)
    return columns


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
        fair = _native_fair(scheduler)
        if fair is None:
            # The native kernels cannot reproduce an arbitrary allocate()
            # or order_candidates(), so the reference engine, which drives
            # any scheduler through views, runs the whole scenario.
            # Imported here: the reference imports this module's config and
            # errors.
            from repro.simulator.reference import ReferenceSimulator

            _OBS.count(
                "repro_engine_fallback_total", scheduler=type(scheduler).__name__
            )
            return ReferenceSimulator(self.scenario, self.config).run(
                scheduler, event_log=event_log
            )
        if len(self.scenario) <= _SCALAR_MAX_APPS:
            return self._run(scheduler, fair, event_log, scalar=True)
        # Masked-out divisions in the columnar ordering passes would warn:
        # one errstate per run instead of one per event.
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._run(scheduler, fair, event_log, scalar=False)

    def _run(
        self,
        scheduler: OnlineScheduler,
        fair_alloc: bool,
        event_log: EventLog | None,
        scalar: bool,
    ) -> SimulationResult:
        """One run on the scalar kernel (``scalar``) or the columnar one,
        sharing bandwidth fairly (``fair_alloc``) or greedily in the
        scheduler's grant order."""

        scheduler.reset()
        config = self.config
        platform = self.platform
        static = _scenario_columns(self.scenario)
        apps = static.apps
        n = len(apps)
        node_bw = float(platform.node_bandwidth)
        system_bw = float(platform.system_bandwidth)
        names = static.names
        index_of = static.index_of
        interference = scheduler.interference if fair_alloc else None
        grant = scheduler.grant_order
        starve = grant.starve_below
        started_first = grant.started_first

        def column(values, dtype=np.float64):
            """One per-application column from a fresh list: the list itself
            (scalar) or an array."""
            return values if scalar else np.array(values, dtype=dtype)

        # ---------------- immutable per-application columns --------------
        procs_i = static.procs
        procs_f = column(static.procs_f)
        release = column(static.release)
        n_inst = static.n_inst
        peaks = static.peaks
        name_rank = column(static.ranks, np.int64)
        opt_tables = static.opt_tables

        # ---------------- mutable state columns ---------------------------
        phase = column([_NOT_RELEASED] * n, np.int64)
        instance_idx = [0] * n
        executed = column([0.0] * n)
        completed_work = [0.0] * n
        compute_start = [0.0] * n
        # Own next transition: release if not released, compute end if
        # computing, else inf.
        own_t = column(list(static.release))
        # Volume still to move while in an I/O phase, else inf.
        remaining = column([math.inf] * n)
        rate = column([0.0] * n)
        # NaN = "no transfer yet" (the instance's I/O has not started).
        io_first = column([math.nan] * n)
        io_req = column([math.inf] * n)  # current request time
        last_io_end = column([-math.inf] * n)
        completion = [math.nan] * n
        total_io = column([0.0] * n)
        recovering = column([False] * n, bool)
        n_crashes = [0] * n
        recovery_io = column([0.0] * n)
        opt_cur = column([table[0] for table in opt_tables])
        inst_records: list[list[InstanceRecord]] = [[] for _ in range(n)]
        # Scalar-kernel bookkeeping, kept by the transitions so that no
        # scalar pass scans the whole width:
        # * own_heap: (own_t, i) entries, one pushed whenever own_t[i]
        #   becomes finite; an entry is live iff own_t[i] still equals its
        #   time, and stale ones are dropped as they surface;
        # * queue: the I/O candidates in (io_req, name rank) order, the
        #   shared tie-break of every ordering;
        # * drained: the I/O applications whose volume fell to
        #   _VOLUME_EPS since the last transitions (advance, zero-byte
        #   checkpoint).
        own_heap = [(t, i) for i, t in enumerate(static.release)]
        heapify(own_heap)
        queue: list[int] = []
        drained: list[int] = []
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
        # These closures mirror the reference's transition methods; they run
        # only for the few applications due at each event.  They skip the
        # reference's resets that no pass reads: ``rate`` is read for served
        # transfers only, each of which the allocation has just rated, and
        # ``io_req`` for I/O candidates only.  ``io_first`` is NaN outside a
        # started transfer: the instance's exits (completion, recovery,
        # crash) reset it.

        def enqueue(i, time):
            # Every queued request is at most ``time`` old (time only moves
            # forward), so i goes last but for same-instant requests of a
            # higher name rank.
            rank = name_rank[i]
            pos = len(queue)
            while pos:
                j = queue[pos - 1]
                if io_req[j] != time or name_rank[j] < rank:
                    break
                pos -= 1
            queue.insert(pos, i)

        def start_compute(i, time):
            inst = apps[i].instances[instance_idx[i]]
            phase[i] = _COMPUTING
            compute_start[i] = time
            remaining[i] = math.inf
            if inst.work <= _TIME_EPS:
                executed[i] += inst.work
                request_io(i, time)
                return
            end = time + inst.work
            own_t[i] = end
            if scalar:
                heappush(own_heap, (end, i))

        def request_io(i, time):
            inst = apps[i].instances[instance_idx[i]]
            own_t[i] = math.inf
            if inst.io_volume <= _VOLUME_EPS:
                # Instance without I/O: complete as soon as computation ends.
                complete_instance(i, time)
                return
            phase[i] = _IO
            remaining[i] = inst.io_volume
            io_req[i] = time
            if scalar:
                enqueue(i, time)
            emit(time, EventType.IO_REQUEST, names[i], instance_idx[i])

        def complete_instance(i, time):
            nonlocal n_done
            idx = instance_idx[i]
            inst = apps[i].instances[idx]
            first = float(io_first[i])
            cs = compute_start[i]
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
            io_first[i] = math.nan
            instance_idx[i] = idx + 1
            opt_cur[i] = opt_tables[i][min(idx + 2, n_inst[i]) - 1]
            if idx + 1 >= n_inst[i]:
                phase[i] = _DONE
                remaining[i] = math.inf
                completion[i] = time
                n_done += 1
                emit(time, EventType.APP_COMPLETE, names[i])
            else:
                start_compute(i, time)

        def finish_recovery(i, time):
            recovering[i] = False
            io_first[i] = math.nan
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
            phase[i] = _IO
            own_t[i] = math.inf
            remaining[i] = crash.checkpoint_io
            io_first[i] = math.nan
            io_req[i] = time
            if scalar:
                # A new request: an application already in I/O re-queues.
                if p == _IO:
                    queue.remove(i)
                enqueue(i, time)
                if crash.checkpoint_io <= _VOLUME_EPS:
                    drained.append(i)

        faults = self.scenario.faults
        timeline = FaultTimeline(faults) if faults is not None else None

        def fair_gamma(total_procs, total):
            """Per-processor rate of the closed-form fair share
            (bandwidth.fair_share) of ``total`` over ``total_procs``."""
            if total <= _BW_EPS:
                return 0.0
            share = float(total) / total_procs
            if share >= node_bw:
                return node_bw if node_bw > _BW_EPS else 0.0
            return share if share > _BW_EPS else 0.0

        # ---------------- width-proportional passes -----------------------
        # Two forms with one contract each: the scalar form does plain-float
        # work over the I/O candidates and the applications that transition;
        # the columnar form is whole-column numpy.  Both produce the same
        # floats in the same order.
        #
        # due(time)             due applications, ascending index
        # candidates()          the I/O candidates (scalar: request order;
        #                       columnar: ascending index)
        # fair(cand, total, ingest)  fair-share rates; returns their
        #                       sequential sum in index order if ingest, and
        #                       the granted candidates (scalar only)
        # favor_order(cand, t)  the candidates in the scheduler's grant
        #                       order (a list); columnar: zeroes their rates
        # serve(cand, grants, time)  stamp first transfers, return the
        #                       served (scalar: the grants as they are)
        # horizon(active, t)    time to the next own transition or transfer
        # advance(active, dt)   move the served transfers forward by dt
        if scalar:

            def due(time):
                slack = time + _TIME_EPS
                ready = [i for i in drained if remaining[i] <= _VOLUME_EPS]
                drained.clear()
                while own_heap and own_heap[0][0] <= slack:
                    t, i = heappop(own_heap)
                    if own_t[i] == t:
                        ready.append(i)
                if len(ready) > 1:
                    return sorted(set(ready))
                return ready

            def candidates():
                return queue

            def fair(cand, total, ingest):
                gamma = fair_gamma(sum([procs_i[i] for i in cand]), total)
                if gamma <= 0.0:
                    return 0.0, []
                granted = 0.0
                # Sequential ingest sum in index order, as the reference.
                for i in sorted(cand) if ingest else cand:
                    r = gamma * procs_f[i]
                    rate[i] = r
                    granted += r
                return granted, cand

            # The grant order, compiled once per run into one sort key per
            # candidate index, then a stable sort of the request-ordered
            # queue, which equals sorted() on the full (primary, request
            # time, name rank) key because name ranks are unique.  The keys
            # that rank on efficiency read it from ``ach``, filled for the
            # candidates as the reference's views compute it.
            ach = [0.0] * n

            def ratio_of(i):
                """A candidate's progress ratio, as the views compute it."""
                opt = opt_cur[i]
                ratio = 1.0 if opt <= 0.0 else ach[i] / opt
                return 1.0 if ratio > 1.0 else ratio

            # Each GrantOrder key as (the sort key, whether it reads ach);
            # None keeps the queue's own order.
            key, reads_ach = {
                "request": (None, False),
                "index": (int, False),
                "last_io_end": (last_io_end.__getitem__, False),
                "ratio": (ratio_of, True),
                "syseff": (lambda i: -(procs_f[i] * ach[i]), True),
            }[grant.key]
            reads_ach = reads_ach or starve > 0

            def favor_order(cand, time):
                if len(cand) < 2:
                    return cand
                if reads_ach:
                    for i in cand:
                        el = time - release[i]
                        ach[i] = executed[i] / el if el > _TIME_EPS else opt_cur[i]
                ordered = cand
                starved = None
                if starve:
                    # The starved (ratio below the threshold) first, by
                    # ratio; the rest by the key.  The threshold is at most
                    # 1, so a ratio below it needs no clamping.
                    starved = {}
                    ordered = []
                    for i in cand:
                        opt = opt_cur[i]
                        ratio = 1.0 if opt <= 0.0 else ach[i] / opt
                        if ratio < starve:
                            starved[i] = ratio
                        else:
                            ordered.append(i)
                if key is not None:
                    ordered = sorted(ordered, key=key)
                if starved:
                    ordered = sorted(starved, key=starved.__getitem__) + ordered
                if started_first:
                    # Stable partition: applications already transferring
                    # (io_first set, so not NaN and equal to itself) first.
                    started = []
                    fresh = []
                    for i in ordered:
                        first = io_first[i]
                        (started if first == first else fresh).append(i)
                    return started + fresh
                return ordered

            def serve(cand, grants, time):
                for i in grants:
                    first = io_first[i]
                    if first != first:  # NaN: the transfer starts now
                        io_first[i] = time
                return grants

            def horizon(active, time):
                # Drop the stale entries above the earliest live own time.
                while own_heap:
                    t, i = own_heap[0]
                    if own_t[i] == t:
                        break
                    heappop(own_heap)
                best = max(0.0, own_heap[0][0] - time) if own_heap else math.inf
                if active:
                    transfer = min([remaining[i] / rate[i] for i in active])
                    if transfer < best:
                        best = transfer
                return best

            def advance(active, dt):
                for i in active:
                    rem = remaining[i]
                    moved = rate[i] * dt
                    if moved > rem:
                        moved = rem
                    rem -= moved
                    remaining[i] = rem
                    total_io[i] += moved
                    if recovering[i]:
                        recovery_io[i] += moved
                    if rem <= _VOLUME_EPS:
                        drained.append(i)

        else:
            procs_int = np.array(procs_i, dtype=np.int64)

            def due(time):
                slack = time + _TIME_EPS
                mask = (own_t <= slack) | (remaining <= _VOLUME_EPS)
                return mask.nonzero()[0].tolist()

            def candidates():
                return (phase == _IO).nonzero()[0]

            def fair(cand, total, ingest):
                gamma = fair_gamma(int(procs_int[cand].sum()), total)  # int: exact
                cand_rates = gamma * procs_f[cand]
                rate[cand] = cand_rates
                granted = 0.0
                if ingest:
                    for r in cand_rates.tolist():
                        granted += r
                return granted, None

            # Division by a zero elapsed time or optimum is masked out by
            # the np.where; run()'s errstate hushes it.
            def achieved(cand, time):
                el = time - release[cand]
                return np.where(el > _TIME_EPS, executed[cand] / el, opt_cur[cand])

            def ratios(cand, ach):
                opt = opt_cur[cand]
                return np.where(opt <= 0.0, 1.0, np.minimum(1.0, ach / opt))

            # Each GrantOrder key as (the candidates' primary-key column
            # from their achieved efficiencies, whether it reads those).
            primary, reads_ach = {
                "request": (lambda cand, ach: io_req[cand], False),
                "index": (lambda cand, ach: cand, False),
                "last_io_end": (lambda cand, ach: last_io_end[cand], False),
                "ratio": (ratios, True),
                "syseff": (lambda cand, ach: -(procs_f[cand] * ach), True),
            }[grant.key]
            reads_ach = reads_ach or starve > 0

            def favor_order(cand, time):
                # The whole grant order is one lexsort, least significant
                # key first.
                rate[cand] = 0.0
                ach = achieved(cand, time) if reads_ach else None
                key = primary(cand, ach)
                keys = [name_rank[cand], io_req[cand]]
                if starve:
                    # The starved group first, ranked by ratio.
                    ratio = ratios(cand, ach)
                    starved = ratio < starve
                    keys += [np.where(starved, ratio, key), ~starved]
                else:
                    keys.append(key)
                if started_first:
                    # Applications already transferring first.
                    keys.append(np.isnan(io_first[cand]))
                return cand[np.lexsort(keys)].tolist()

            def serve(cand, grants, time):
                # io_first is NaN until the first transfer and never later
                # than now, so fmin stamps exactly the fresh ones.
                active = cand[rate[cand] > 0.0]
                io_first[active] = np.fmin(io_first[active], time)
                return active

            # The served transfers' volumes and rates: gathered once per
            # event by the horizon, reused by the advance.
            rem_a = rate_a = None

            def horizon(active, time):
                nonlocal rem_a, rate_a
                best = max(0.0, float(np.minimum.reduce(own_t)) - time)
                if active.size:
                    rem_a = remaining[active]
                    rate_a = rate[active]
                    best = min(best, float(np.minimum.reduce(rem_a / rate_a)))
                return best

            def advance(active, dt):
                if not active.size:
                    return
                # moved <= rem_a, so the difference never goes negative.
                moved = np.minimum(rate_a * dt, rem_a)
                remaining[active] = rem_a - moved
                total_io[active] += moved
                if timeline is not None:  # only crashes start recoveries
                    rec = recovering[active]
                    if np.logical_or.reduce(rec):
                        recovery_io[active[rec]] += moved[rec]

        def process_transitions(time):
            # Crashes fire before the ordinary transitions of the instant.
            if timeline is not None:
                for crash in timeline.pop_due_crashes(time):
                    i = index_of.get(crash.app_name)
                    if i is not None:
                        apply_crash(i, crash, time)
            # One pass finds every application with a due transition; the
            # cascade below then re-applies the reference's three sequential
            # checks per due application, so same-instant chains (release →
            # zero-work compute → zero-volume I/O → next instance) fire
            # exactly as in the reference.  No transition has
            # cross-application effects, so an application outside the due
            # set cannot become due during the sweep.
            slack = time + _TIME_EPS
            for i in due(time):
                if phase[i] == _NOT_RELEASED:  # due, so released by now
                    emit(time, EventType.APP_RELEASE, names[i])
                    start_compute(i, time)
                if phase[i] == _COMPUTING and own_t[i] <= slack:
                    executed[i] += apps[i].instances[instance_idx[i]].work
                    request_io(i, time)
                if remaining[i] <= _VOLUME_EPS:  # finite only in an I/O phase
                    if scalar:
                        queue.remove(i)
                    if recovering[i]:
                        finish_recovery(i, time)
                    else:
                        complete_instance(i, time)

        # ---------------- main loop ---------------------------------------
        fault_factor = 1.0
        fault_brownout = 0.0
        fault_blackout = 0.0
        fault_stall = 0.0
        time = min(static.release)
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
            cand = candidates()
            k = len(cand)
            drain = bb.drain_rate() if bb is not None else 0.0
            if timeline is None:
                available = max(0.0, system_bw - drain)
            else:
                fault_factor = timeline.factor_at(time)
                available = max(0.0, system_bw * fault_factor - drain)

            total_ingest = 0.0
            active = cand  # candidates holding bandwidth (none if k == 0)
            if k:
                n_allocations += 1
                if bb is not None and bb.can_absorb():
                    # Sequential sum in declaration order: the reference
                    # accumulates the ingest total one rate at a time, and
                    # float addition rounds per step.
                    total_ingest, grants = fair(cand, bb.ingest_capacity(), True)
                elif fair_alloc:
                    _, grants = fair(
                        cand, interference.effective_bandwidth(available, k), False
                    )
                else:
                    # Greedy favouring in priority order — an ordered
                    # sequential loop by definition (each grant rounds the
                    # remaining capacity before the next), mirroring
                    # bandwidth.favor_in_order float for float.
                    rem = available
                    grants = []
                    for i in favor_order(cand, time):
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
                        grants.append(i)
                active = serve(cand, grants, time)

            # ---------------- find the next event -------------------------
            # Own transitions (release, compute end) and transfers of the
            # served candidates; everything else never moves on its own.
            best = horizon(active, time)
            if bb is None and timeline is None and best < math.inf:
                # The horizon is the only (non-negative) delta.
                dt = max(best, _TIME_EPS)
            else:
                deltas = [best] if best < math.inf else []
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
                                [names[i] for i in sorted(cand)],
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
            advance(active, dt)
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
            for v in recovery_io:
                recovery_total += float(v)
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
            _OBS.count(
                "repro_engine_runs_total", kernel="scalar" if scalar else "columnar"
            )
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
