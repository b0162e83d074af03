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

* the **scalar kernel** keeps the columns as Python lists and the I/O
  candidates as a set updated by the transitions that enter and leave an
  I/O phase, so each event is plain-float work over the candidates and
  the applications that transition;
* the **columnar kernel** keeps them as numpy arrays, so each event is a
  fixed number of whole-column numpy calls (a mask, a ``lexsort``, a
  reduction) whatever the width.

At the paper's widths (4 to 55 applications) a numpy call costs more in
dispatch than in arithmetic, and the scalar kernel is up to three times
faster per event; past a few dozen I/O candidates its per-candidate
Python work costs more than the columnar kernel's fixed calls.
:meth:`Simulator.run` therefore runs scenarios of at most
``_SCALAR_MAX_APPS`` applications on the scalar kernel and wider ones on
the columnar kernel; the crossover was measured per width (see
``docs/performance.md``) and each run is counted as
``repro_engine_runs_total{kernel=...}``.  Both kernels read the same
columns the same way:

* ``own_t`` holds each application's own next transition time — its
  release while not released, its compute end while computing, ``inf``
  otherwise — and ``remaining`` holds the pending volume while in an I/O
  phase, ``inf`` otherwise.  So an application is due when
  ``own_t <= t + eps`` or ``remaining <= eps``, and the horizon is
  ``max(0, min(own_t) - t)`` against the transfer times of the served
  candidates.  ``min(fl(x_i - t)) == fl(min(x_i) - t)`` because IEEE
  rounding is monotone, so the horizon is exact.
* pending and transferring I/O share one phase code, so the candidates
  are one set; the served ones (positive rate) are the only transfers the
  horizon and the advance touch.
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
* the scheduler policies are dispatched **by exact type** onto native
  orderings (``np.lexsort``, or ``sorted`` on tuple keys, both ending in
  the shared ``(request time, name)`` tie-break, which makes the order
  total).  Any scheduler outside the built-in set — subclasses and
  custom :class:`~repro.simulator.interface.SchedulerProtocol` objects —
  runs the whole scenario on the reference engine instead, which handles
  arbitrary schedulers; each such run is counted as
  ``repro_engine_fallback_total``.

``tests/test_engine_equivalence.py``, ``tests/test_batched_edge_cases.py``
and the differential fuzz suite (``tests/test_engine_differential.py``)
enforce the identity, each on both kernels;
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
_SCALAR_MAX_APPS = 55

#: Heuristics whose ``allocate`` is the shared greedy favouring loop and
#: whose ordering reduces to a native ordering.  Keys are *exact* types: a
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
    """Classify ``scheduler`` for the native kernels, or ``None`` if unknown.

    Returns ``(alloc, ordering, priority, gamma)`` where ``alloc`` is
    ``"favor"`` or ``"fairshare"``, ``ordering`` names the candidate order,
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
            # Unknown policy (custom scheduler or subclass): the native
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
        if len(self.scenario) <= _SCALAR_MAX_APPS:
            return self._run(scheduler, policy, event_log, scalar=True)
        # Masked-out divisions in the columnar ordering passes would warn:
        # one errstate per run instead of one per event.
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._run(scheduler, policy, event_log, scalar=False)

    def _run(
        self,
        scheduler: SchedulerProtocol,
        policy: tuple,
        event_log: EventLog | None,
        scalar: bool,
    ) -> SimulationResult:
        """One run on the scalar kernel (``scalar``) or the columnar one."""
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

        def column(values, dtype=np.float64):
            """One per-application column: a list (scalar) or an array."""
            return list(values) if scalar else np.array(values, dtype=dtype)

        # ---------------- immutable per-application columns --------------
        procs_i = [app.processors for app in apps]
        procs_f = column([float(p) for p in procs_i])
        release = column([app.release_time for app in apps])
        n_inst = [app.n_instances for app in apps]
        peaks = [
            platform.peak_application_bandwidth(app.processors) for app in apps
        ]
        # Unique rank of each name in sorted order: the deterministic final
        # tie-break of every ordering, so lexsort (and sorted() on tuple
        # keys) produces exactly the ordering of sorted() with
        # (..., request time, name) tuple keys.
        ranks = [0] * n
        for rank, i in enumerate(sorted(range(n), key=names.__getitem__)):
            ranks[i] = rank
        name_rank = column(ranks, np.int64)
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
        phase = column([_NOT_RELEASED] * n, np.int64)
        instance_idx = [0] * n
        executed = column([0.0] * n)
        completed_work = [0.0] * n
        compute_start = [0.0] * n
        # Own next transition: release if not released, compute end if
        # computing, else inf.
        own_t = column([app.release_time for app in apps])
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
        # The applications in an I/O phase (``phase == _IO``), kept by the
        # transitions that enter and leave one; the scalar passes read it
        # instead of scanning every application.
        io_apps: set[int] = set()
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
        # reference's resets that no pass reads: ``rate`` and ``io_req``
        # are read for I/O candidates only, and every allocation rewrites
        # ``rate`` for all of them.  ``io_first`` is NaN outside a started
        # transfer: the instance's exits (completion, recovery, crash)
        # reset it.

        def start_compute(i, time):
            inst = apps[i].instances[instance_idx[i]]
            phase[i] = _COMPUTING
            compute_start[i] = time
            own_t[i] = time + inst.work
            remaining[i] = math.inf
            if inst.work <= _TIME_EPS:
                executed[i] += inst.work
                request_io(i, time)

        def request_io(i, time):
            inst = apps[i].instances[instance_idx[i]]
            own_t[i] = math.inf
            if inst.io_volume <= _VOLUME_EPS:
                # Instance without I/O: complete as soon as computation ends.
                complete_instance(i, time)
                return
            phase[i] = _IO
            io_apps.add(i)
            remaining[i] = inst.io_volume
            io_req[i] = time
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
            io_apps.add(i)
            own_t[i] = math.inf
            remaining[i] = crash.checkpoint_io
            io_first[i] = math.nan
            io_req[i] = time

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
        # work over the I/O candidates and the due applications; the
        # columnar form is whole-column numpy.  Both produce the same
        # floats in the same order.
        #
        # due(time)             due applications, ascending index
        # candidates()          the I/O candidates, ascending index
        # fair(cand, total, ingest)  fair-share rates; their sequential sum
        #                       if ingest
        # favor_order(cand, t)  zero the candidates' rates, return them in
        #                       the scheduler's grant order (a list)
        # serve(cand, time)     stamp first transfers, return the served
        # horizon(active, t)    time to the next own transition or transfer
        # advance(active, dt)   move the served transfers forward by dt
        if scalar:

            def due(time):
                slack = time + _TIME_EPS
                # remaining is inf outside an I/O phase, so only the I/O
                # applications can be due by volume.
                ready = {i for i in io_apps if remaining[i] <= _VOLUME_EPS}
                if min(own_t) <= slack:
                    ready.update(i for i, t in enumerate(own_t) if t <= slack)
                return sorted(ready)

            def candidates():
                return sorted(io_apps)

            def fair(cand, total, ingest):
                gamma = fair_gamma(sum([procs_i[i] for i in cand]), total)
                granted = 0.0
                for i in cand:
                    r = gamma * procs_f[i]
                    rate[i] = r
                    granted += r
                return granted

            def favor_order(cand, time):
                for i in cand:
                    rate[i] = 0.0
                if len(cand) < 2:
                    return cand
                key = None  # identity: declaration order, as cand already is
                if ordering == "fcfs":

                    def key(i):
                        return (io_req[i], name_rank[i])

                elif ordering == "roundrobin":

                    def key(i):
                        return (last_io_end[i], io_req[i], name_rank[i])

                elif ordering != "identity":

                    def key(i):
                        opt = opt_cur[i]
                        el = time - release[i]
                        ach = executed[i] / el if el > _TIME_EPS else opt
                        if ordering == "maxsyseff":
                            return (-(procs_f[i] * ach), io_req[i], name_rank[i])
                        ratio = 1.0 if opt <= 0.0 else ach / opt
                        if ratio > 1.0:
                            ratio = 1.0
                        if ordering == "mindilation":
                            return (ratio, io_req[i], name_rank[i])
                        # minmax: the starved first by dilation ratio, then
                        # the rest by MaxSysEff.
                        starved = ratio < minmax_gamma
                        return (
                            not starved,
                            ratio if starved else -(procs_f[i] * ach),
                            io_req[i],
                            name_rank[i],
                        )

                ordered = sorted(cand, key=key)
                if priority:
                    # Stable partition: applications already transferring
                    # first.
                    isnan = math.isnan
                    return [i for i in ordered if not isnan(io_first[i])] + [
                        i for i in ordered if isnan(io_first[i])
                    ]
                return ordered

            def serve(cand, time):
                active = [i for i in cand if rate[i] > 0.0]
                for i in active:
                    if math.isnan(io_first[i]):
                        io_first[i] = time
                return active

            def horizon(active, time):
                best = max(0.0, min(own_t) - time)
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
                    remaining[i] = rem - moved
                    total_io[i] += moved
                    if recovering[i]:
                        recovery_io[i] += moved

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
                return granted

            def favor_order(cand, time):
                rate[cand] = 0.0
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
                        # Division by a zero elapsed time or optimum is
                        # masked out by the np.where; run()'s errstate
                        # hushes it.
                        opt = opt_cur[cand]
                        el = time - release[cand]
                        ach = np.where(el > _TIME_EPS, executed[cand] / el, opt)
                        if ordering == "maxsyseff":
                            order = np.lexsort((nm, req, -(procs_f[cand] * ach)))
                        else:
                            ratio = np.where(
                                opt <= 0.0, 1.0, np.minimum(1.0, ach / opt)
                            )
                            if ordering == "mindilation":
                                order = np.lexsort((nm, req, ratio))
                            else:
                                # minmax: one lexsort with the group as
                                # primary key and a per-group key.
                                starved = ratio < minmax_gamma
                                key = np.where(
                                    starved, ratio, -(procs_f[cand] * ach)
                                )
                                order = np.lexsort((nm, req, key, ~starved))
                if priority:
                    # Stable partition: applications already transferring
                    # first.
                    fresh = np.isnan(io_first[cand[order]])
                    order = order[fresh.argsort(kind="stable")]
                return cand[order].tolist()

            def serve(cand, time):
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
                    io_apps.discard(i)
                    if recovering[i]:
                        finish_recovery(i, time)
                    else:
                        complete_instance(i, time)

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
                    # Sequential sum in candidate (= declaration) order: the
                    # reference accumulates the ingest total one rate at a
                    # time, and float addition rounds per step.
                    total_ingest = fair(cand, bb.ingest_capacity(), True)
                elif alloc_kind == "fairshare":
                    fair(cand, interference.effective_bandwidth(available, k), False)
                else:
                    # Greedy favouring in priority order — an ordered
                    # sequential loop by definition (each grant rounds the
                    # remaining capacity before the next), mirroring
                    # bandwidth.favor_in_order float for float.
                    rem = available
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
                active = serve(cand, time)

            # ---------------- find the next event -------------------------
            # Own transitions (release, compute end) and transfers of the
            # served candidates; everything else never moves on its own.
            best = horizon(active, time)
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
                            [names[i] for i in cand],
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
