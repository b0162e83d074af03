"""Experiment runner: execute (scenario × scheduler) grids and collect objectives.

Every figure and table of the paper boils down to the same operation: run a
set of scenarios under a set of schedulers (some with burst buffers, some
without) and tabulate SysEfficiency, Dilation and the upper limit.  The
runner centralizes that loop so the figure-specific modules only describe
*what* to run.

Grid cells are mutually independent — every scenario carries its own
pre-generated applications (per-cell randomness is decided *before* the grid
runs, when scenarios are built from seeds), and schedulers are constructed
fresh inside each cell.  :func:`run_grid` therefore accepts ``workers=`` and
fans the cells out over worker processes; results are collected in
submission order, so a parallel grid is cell-for-cell identical to a serial
one, just faster.

Pool reuse
----------
A paper campaign is a *fleet* of grids — the Figure 6 panels, the seven
sensibility levels of Figure 7, the periodic-vs-online comparison — and
spawning a fresh process pool per grid used to dominate small campaigns.
:class:`ExperimentExecutor` owns one lazily-spawned pool that many
``map_parallel`` / :func:`run_grid` calls share (``repro run`` drives a
whole multi-study spec through a single executor), and dispatches work in
contiguous chunks so a shared immutable payload (platform + scenarios) is
serialized once per worker instead of once per cell.

Result store
------------
Cells are deterministic, so they are also *memoizable*: with a
:class:`repro.store.ResultStore` attached (``run_grid(..., store=...)``,
threaded down from ``repro run``), the executor consults the store before
dispatching each cell and writes every freshly computed cell back as soon
as it drains — a rerun of an unchanged campaign executes zero simulations,
and an interrupted campaign resumes from whatever cells already landed.
Each cell's key digests the canonical scenario + scheduler case + horizon
plus the code fingerprint of the producing modules (see
:mod:`repro.store`); results are merged back in submission order, so a
cached grid is cell-for-cell (and byte-for-byte) identical to a cold one.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from repro.core.objectives import ObjectiveSummary
from repro.core.platform import Platform
from repro.core.scenario import Scenario
from repro.obs.telemetry import recorder as _obs_recorder
from repro.online.registry import make_scheduler
from repro.simulator.engine import SimulatorConfig, simulate
from repro.simulator.interface import SchedulerProtocol
from repro.simulator.metrics import FaultStats, SimulationResult
from repro.store import ResultStore, canonical_json, code_fingerprint, digest
from repro.utils.validation import ValidationError

__all__ = [
    "SchedulerCase",
    "CaseResult",
    "ExperimentGrid",
    "ExecutorStats",
    "ExperimentExecutor",
    "MapCache",
    "grid_cell_keys",
    "estimate_cell_seconds",
    "encode_case_result",
    "decode_case_result",
    "run_case",
    "run_grid",
    "map_parallel",
    "resolve_workers",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Process-wide telemetry funnel (no-op unless a CLI/campaign enabled it).
#: Instrumentation here observes dispatch and recovery; it never touches
#: results — see docs/observability.md.
_OBS = _obs_recorder()

#: The simulation kernel, looked up by :func:`run_case` at call time.  A
#: one-entry table rather than a direct call so that tracing tools can wrap
#: the engine from outside the program (``perfbench/layers.py`` swaps the
#: entry for a timing wrapper and restores it afterwards).
_ENGINE_RUNNERS = {"simulate": simulate}


#: Sentinel distinguishing "no shared payload" from a shared payload of None.
_NO_SHARED = object()

#: Without a shared payload, chunks this many times the worker count keep the
#: pool load-balanced while still amortizing per-task dispatch overhead.
_CHUNKS_PER_WORKER = 4

#: With a shared payload *and* progress streaming, the payload travels with
#: every chunk, so the chunk count is the payload-copy count: two per worker
#: bounds the serialization overhead at 2x the quiet-map minimum while still
#: draining progress in sub-grid bursts.  Payload copies stay O(workers) in
#: every mode — never O(cells).
_SHARED_CHUNKS_PER_WORKER = 2

#: Maps whose estimated total serial cost (``cost_hint * n_items``) falls
#: below this many seconds run inline even when a pool is configured: at
#: that size pool spawn + payload pickling dominate and the pooled "speedup"
#: measures pure overhead (the scale-1 regression of ``BENCH_grid.json``).
_SERIAL_FALLBACK_SECONDS = 0.25


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers=`` argument into a concrete process count.

    ``None`` and ``1`` mean serial execution (the default — identical to the
    pre-parallel behaviour); ``0`` means "one process per CPU"; any other
    positive integer is taken literally.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise ValidationError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _run_plain_chunk(fn: Callable[[_T], _R], chunk: list[_T]) -> list[_R]:
    """Worker-side adapter: run one contiguous chunk of plain items."""
    return [fn(item) for item in chunk]


def _run_shared_chunk(
    fn: Callable[[object, _T], _R], shared: object, chunk: list[_T]
) -> list[_R]:
    """Worker-side adapter: run one chunk against a shared payload.

    ``shared`` travels with the chunk submission, so it is serialized once
    per chunk — and the executor sizes shared-payload dispatches at one
    chunk per worker (a few when per-cell progress streaming is requested),
    never once per cell.
    """
    return [fn(shared, item) for item in chunk]


def _submit_or_broken(
    pool: ProcessPoolExecutor, fn: Callable[..., list[_R]], *args: object
) -> "Future[list[_R]]":
    """Submit, turning a synchronous ``BrokenProcessPool`` into a failed future.

    A worker death races the submit loop: chunks queued after the death see
    the broken pool from ``submit`` itself rather than from their future.
    Funnelling both through the future keeps recovery in one place — the
    drain loop's per-chunk retry.
    """
    try:
        return pool.submit(fn, *args)
    except BrokenProcessPool as exc:
        failed: "Future[list[_R]]" = Future()
        failed.set_exception(exc)
        return failed


class MapCache:
    """Item-level memo table consulted by :meth:`ExperimentExecutor.map`.

    Subclasses bind a :class:`repro.store.ResultStore` to one family of
    items by implementing :meth:`key` (the content digest of everything that
    determines the item's result) plus the ``encode``/``decode`` pair that
    converts results to/from JSON payloads.  ``lookup`` returning ``None``
    means *miss* (map results are never ``None``).
    """

    def __init__(self, store: ResultStore):
        self._store = store

    def key(self, item: object) -> str:
        """Content-addressed key of one item (subclass responsibility)."""
        raise NotImplementedError

    def encode(self, result: object) -> dict:
        """JSON payload of one result (subclass responsibility)."""
        raise NotImplementedError

    def decode(self, payload: dict) -> object:
        """Inverse of :meth:`encode` (subclass responsibility)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def lookup(self, item: object) -> Optional[object]:
        """The cached result for ``item``, or ``None`` on miss/corruption."""
        key = self.key(item)
        payload = self._store.get(key)
        if payload is None:
            return None
        try:
            return self.decode(payload)
        except Exception:
            # A payload the current decoder cannot read (e.g. written by a
            # code state whose fingerprint collided — practically a format
            # bug) must degrade to a recompute, never crash a campaign.
            # Discard the poisoned entry like ResultStore.get does for
            # unparsable ones, so it cannot re-hit on every future run.
            self._store.stats.hits -= 1
            self._store.stats.misses += 1
            self._store.stats.corrupt += 1
            self._store.discard(key)
            _OBS.count("repro_store_decode_corrupt_total")
            return None

    def save(self, item: object, result: object) -> None:
        """Persist one freshly computed result."""
        self._store.put(self.key(item), self.encode(result))


@dataclass
class ExecutorStats:
    """Fault-recovery counters of one :class:`ExperimentExecutor`.

    ``worker_deaths`` counts pool breakages (a worker process died hard —
    OOM kill, ``os._exit``, segfault); ``cell_retries`` counts the cells
    resubmitted individually to a fresh pool after a breakage poisoned
    their chunk; ``inline_recoveries`` counts the cells that ultimately ran
    inline in the calling process because their retry broke the pool again
    (the poisoned cell itself, typically).  Purely observational — recovery
    never changes results, only where they compute.

    Like :class:`repro.store.StoreStats`, this is the per-executor *view*
    of events the process-wide telemetry registry also aggregates: the
    ``record_*`` methods bump the plain ints and mirror into the
    ``repro_executor_*`` counters when the recorder is enabled.
    """

    worker_deaths: int = 0
    cell_retries: int = 0
    inline_recoveries: int = 0

    def record_worker_death(self) -> None:
        self.worker_deaths += 1
        _OBS.count("repro_executor_worker_deaths_total")

    def record_cell_retry(self) -> None:
        self.cell_retries += 1
        _OBS.count("repro_executor_cell_retries_total")

    def record_inline_recovery(self) -> None:
        self.inline_recoveries += 1
        _OBS.count("repro_executor_inline_recoveries_total")

    def as_dict(self) -> dict:
        """Plain-dict view for status reports."""
        return {
            "worker_deaths": self.worker_deaths,
            "cell_retries": self.cell_retries,
            "inline_recoveries": self.inline_recoveries,
        }


class ExperimentExecutor:
    """Reusable worker pool behind ``map_parallel`` / ``run_grid``.

    Context manager; the underlying :class:`ProcessPoolExecutor` is spawned
    lazily on the first parallel map and reused by every subsequent call, so
    a campaign of many small grids pays the process start-up cost once.
    ``workers`` follows :func:`resolve_workers` (``None``/``1`` serial,
    ``0`` one per CPU); with one worker every map runs inline and no pool is
    ever spawned.

    Determinism: results are always collected in submission order, and the
    items are dispatched as contiguous chunks, so a map through an executor
    is element-for-element identical to the serial loop whatever the worker
    count (asserted by ``tests/test_experiment_executor.py``).
    """

    def __init__(self, workers: int | None = None):
        self._n_workers = resolve_workers(workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self.stats = ExecutorStats()

    @property
    def n_workers(self) -> int:
        """Resolved worker-process count (1 = serial inline execution)."""
        return self._n_workers

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ExperimentExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down (idempotent); further maps are an error."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ValidationError("ExperimentExecutor is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._n_workers)
        return self._pool

    # ------------------------------------------------------------------ #
    def map(
        self,
        fn: Callable[..., _R],
        items: Sequence[_T],
        *,
        progress: Optional[Callable[[int, _T, _R], None]] = None,
        shared: object = _NO_SHARED,
        cache: Optional[MapCache] = None,
        cost_hint: Optional[float] = None,
    ) -> list[_R]:
        """Map ``fn`` over ``items`` on the (shared) pool.

        Without ``shared``, ``fn(item)`` is called per item.  With
        ``shared``, ``fn(shared, item)`` is called instead and the payload
        travels with the chunk submissions instead of with every cell — the
        idiom for grids whose cells reference the same large immutable
        platform/workload state.  A quiet shared map uses exactly one chunk
        per worker (payload serialized once per worker); when ``progress``
        is given, two chunks per worker are used instead, trading one extra
        payload copy per worker for streaming granularity and load
        balancing.  Either way the payload-copy count is O(workers), never
        O(cells).  The flip side of static contiguous chunks is skew: a
        quiet map whose expensive cells cluster in one chunk leaves the
        other workers idle at the tail — pass ``progress`` (finer chunks)
        or skip ``shared`` (pure load-balanced dispatch) for strongly
        heterogeneous cell costs.

        ``progress(index, item, result)`` fires in the caller's process in
        submission order as results drain — one call per item, delivered as
        each chunk completes.

        ``cache`` (a :class:`MapCache`) short-circuits items whose results
        are already in the result store: hits are served without dispatching
        anything (their ``progress`` fires first, in submission order), the
        remaining misses run through the pool exactly as above, and each
        miss is written back to the store *as it drains* — so an interrupted
        map resumes from every cell that already landed.  The returned list
        is always in submission order, element-for-element identical to an
        uncached map.

        ``cost_hint`` is the caller's estimate of one item's serial cost in
        seconds; when ``cost_hint * len(items)`` falls below
        :data:`_SERIAL_FALLBACK_SECONDS` the map runs inline even with a
        pool configured — dispatch overhead would dominate such maps.  The
        fallback never changes results (pooled and serial maps are
        element-for-element identical by contract), only where they compute.

        Worker death (e.g. the OOM killer, a hard ``os._exit``) surfaces as
        :class:`BrokenProcessPool` on every in-flight chunk.  The map does
        not die with the pool: the broken pool is discarded and every cell
        of an affected chunk is retried *individually* on a fresh pool, so
        one poisoned cell costs one retry round, not a serial rerun of its
        whole chunk — only a cell whose own retry breaks the pool again
        falls back to running inline in the calling process.  Every cell
        still lands (cache write-back rides the normal drain path) and the
        recovery is counted in :attr:`stats`.  Real exceptions raised by
        ``fn`` propagate unchanged.
        """
        if self._closed:
            raise ValidationError("ExperimentExecutor is closed")
        items = list(items)
        if cache is not None:
            results_by_index: list[Optional[_R]] = [
                cache.lookup(item) for item in items
            ]
            miss_indexes = [
                i for i, result in enumerate(results_by_index) if result is None
            ]
            if _OBS.enabled:
                _OBS.count(
                    "repro_executor_cache_hits_total",
                    len(items) - len(miss_indexes),
                )
                _OBS.count("repro_executor_cache_misses_total", len(miss_indexes))
            if progress is not None:
                for i, result in enumerate(results_by_index):
                    if result is not None:
                        progress(i, items[i], result)

            def on_miss(position: int, item: _T, result: _R) -> None:
                index = miss_indexes[position]
                cache.save(item, result)
                results_by_index[index] = result
                if progress is not None:
                    progress(index, item, result)

            # Write-back rides the progress hook so it happens incrementally
            # as chunks drain, not after the whole map joins.
            self.map(
                fn,
                [items[i] for i in miss_indexes],
                progress=on_miss,
                shared=shared,
                cost_hint=cost_hint,
            )
            return results_by_index  # type: ignore[return-value]
        has_shared = shared is not _NO_SHARED
        n = len(items)
        run_serial = self._n_workers <= 1 or n <= 1
        if (
            not run_serial
            and cost_hint is not None
            and cost_hint * n < _SERIAL_FALLBACK_SECONDS
        ):
            run_serial = True
        if run_serial:
            results: list[_R] = []
            for index, item in enumerate(items):
                result = fn(shared, item) if has_shared else fn(item)
                if progress is not None:
                    progress(index, item, result)
                results.append(result)
            return results

        # Chunked dispatch.  Chunks are contiguous, so flattening the chunk
        # results in submission order reproduces the serial output order.
        if has_shared:
            per_worker = 1 if progress is None else _SHARED_CHUNKS_PER_WORKER
            n_chunks = min(self._n_workers * per_worker, n)
        else:
            n_chunks = min(self._n_workers * _CHUNKS_PER_WORKER, n)
        _OBS.count("repro_executor_chunks_total", n_chunks)
        _OBS.count("repro_executor_dispatched_items_total", n)
        base, extra = divmod(n, n_chunks)
        pool = self._ensure_pool()
        futures = []
        start = 0
        for i in range(n_chunks):
            stop = start + base + (1 if i < extra else 0)
            chunk = items[start:stop]
            if has_shared:
                futures.append(
                    (
                        start,
                        chunk,
                        _submit_or_broken(pool, _run_shared_chunk, fn, shared, chunk),
                    )
                )
            else:
                futures.append(
                    (start, chunk, _submit_or_broken(pool, _run_plain_chunk, fn, chunk))
                )
            start = stop

        results = []
        with _OBS.span(
            "executor.map", category="executor", items=n, chunks=n_chunks
        ):
            for chunk_start, chunk, future in futures:
                try:
                    chunk_results = future.result()
                except BrokenProcessPool:
                    # A worker died mid-chunk (killed, crashed, os._exit):
                    # the pool is unusable and every other in-flight future
                    # will raise the same error.  Drop the pool — counting
                    # the death only when this future's pool is still the
                    # live one, so the sibling chunks poisoned by the same
                    # death don't recount it or tear down the replacement
                    # pool — then retry the chunk's cells individually on a
                    # fresh pool.
                    if self._pool is pool:
                        self.stats.record_worker_death()
                        self._pool.shutdown(wait=False)
                        self._pool = None
                    chunk_results = self._recover_chunk(
                        fn, chunk, has_shared, shared
                    )
                for offset, result in enumerate(chunk_results):
                    if progress is not None:
                        index = chunk_start + offset
                        progress(index, items[index], result)
                    results.append(result)
        return results

    def _recover_chunk(
        self,
        fn: Callable[..., _R],
        chunk: list[_T],
        has_shared: bool,
        shared: object,
    ) -> list[_R]:
        """Per-cell recovery of one chunk poisoned by a worker death.

        The cells are resubmitted as single-cell tasks on a fresh pool, so
        the innocent cells of the chunk stay parallel; a cell whose retry
        breaks the pool *again* (a reliably crashing "poisoned" cell) runs
        inline in the calling process, and the cells queued behind it move
        to yet another fresh pool.  Results are returned in chunk order —
        identical to what the original chunk would have produced.
        """
        results: list[_R] = []
        pending = list(chunk)
        while pending:
            if self._n_workers <= 1 or len(pending) == 1:
                for item in pending:
                    self.stats.record_inline_recovery()
                    results.append(
                        fn(shared, item) if has_shared else fn(item)
                    )
                return results
            pool = self._ensure_pool()
            futures = []
            for item in pending:
                self.stats.record_cell_retry()
                if has_shared:
                    futures.append(
                        _submit_or_broken(pool, _run_shared_chunk, fn, shared, [item])
                    )
                else:
                    futures.append(
                        _submit_or_broken(pool, _run_plain_chunk, fn, [item])
                    )
            advanced = 0
            for item, future in zip(pending, futures):
                try:
                    results.append(future.result()[0])
                    advanced += 1
                except BrokenProcessPool:
                    # This cell's own retry killed a worker: run it inline
                    # (a real exception from fn propagates from here), then
                    # resubmit whatever was queued behind it.
                    if self._pool is pool:
                        self.stats.record_worker_death()
                        self._pool.shutdown(wait=False)
                        self._pool = None
                    self.stats.record_inline_recovery()
                    results.append(
                        fn(shared, item) if has_shared else fn(item)
                    )
                    advanced += 1
                    break
            pending = pending[advanced:]
        return results


def map_parallel(
    fn: Callable[..., _R],
    items: Sequence[_T],
    *,
    workers: int | None = None,
    progress: Optional[Callable[[int, _T, _R], None]] = None,
    executor: Optional[ExperimentExecutor] = None,
    shared: object = _NO_SHARED,
    cache: Optional[MapCache] = None,
    cost_hint: Optional[float] = None,
) -> list[_R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Results come back in input order regardless of completion order, so
    callers observe exactly the serial semantics.  ``fn`` and the items must
    be picklable (module-level function, plain-data arguments) when more
    than one process is involved.

    ``executor`` reuses a caller-owned :class:`ExperimentExecutor` (its
    worker count wins; ``workers`` is ignored) instead of spawning and
    tearing down a pool for this one call.  ``shared`` switches to the
    shared-payload calling convention ``fn(shared, item)`` — see
    :meth:`ExperimentExecutor.map`.  ``cache`` memoizes items through the
    result store (see :class:`MapCache`).

    ``progress(index, item, result)`` is invoked in the caller's process,
    once per item in submission order — in parallel runs results drain as
    each dispatched chunk completes, so long maps report in chunk-sized
    bursts instead of staying silent until the pool joins.
    """
    if executor is not None:
        return executor.map(fn, items, progress=progress, shared=shared,
                            cache=cache, cost_hint=cost_hint)
    # Ephemeral pool for this one call: never spawn more workers than there
    # are items (a persistent executor keeps its full size because later
    # maps may be larger).
    items = list(items)
    n_workers = max(1, min(resolve_workers(workers), len(items)))
    with ExperimentExecutor(n_workers) as pool:
        return pool.map(fn, items, progress=progress, shared=shared,
                        cache=cache, cost_hint=cost_hint)


@dataclass(frozen=True)
class SchedulerCase:
    """One scheduler column of an experiment.

    Attributes
    ----------
    name:
        Scheduler name understood by
        :func:`repro.online.registry.make_scheduler` (also the display name).
    use_burst_buffer:
        Run the scenario on its platform's burst-buffer configuration.  The
        scenario's platform must carry a burst-buffer spec (the runner swaps
        in ``burst_buffer_platform`` when provided).
    burst_buffer_platform:
        Optional platform override supplying the burst-buffer spec (e.g.
        ``core.intrepid(with_burst_buffer=True)``).
    label:
        Display label; defaults to ``name`` plus a ``+BB`` suffix when the
        burst buffer is enabled.
    """

    name: str
    use_burst_buffer: bool = False
    burst_buffer_platform: Optional[Platform] = None
    label: Optional[str] = None

    @property
    def display(self) -> str:
        """Label shown in tables."""
        if self.label is not None:
            return self.label
        return f"{self.name}+BB" if self.use_burst_buffer else self.name

    def build_scheduler(self) -> SchedulerProtocol:
        """Fresh scheduler instance for one run."""
        return make_scheduler(self.name)


@dataclass(frozen=True)
class CaseResult:
    """Objectives of one (scenario, scheduler) cell.

    ``makespan`` is in seconds of simulated time; ``n_events`` counts the
    discrete events the engine processed (each one triggers a scheduler
    reallocation).
    """

    scenario_label: str
    scheduler_label: str
    summary: ObjectiveSummary
    makespan: float
    n_events: int
    #: Resilience metrics when the scenario carried a fault model
    #: (``None`` for healthy cells, which keeps their payloads byte-stable).
    faults: Optional[FaultStats] = None

    @property
    def system_efficiency(self) -> float:
        """SysEfficiency as a percentage (0–100, the paper's convention)."""
        return self.summary.system_efficiency

    @property
    def dilation(self) -> float:
        """Worst per-application slowdown (ratio >= 1; 1 = no slowdown)."""
        return self.summary.dilation

    @property
    def upper_limit(self) -> float:
        """Upper limit of SysEfficiency as a percentage (congestion-free bound)."""
        return self.summary.upper_limit


@dataclass
class ExperimentGrid:
    """All cells of a (scenarios × schedulers) experiment."""

    cases: list[CaseResult] = field(default_factory=list)

    def add(self, result: CaseResult) -> None:
        """Append one cell (cells keep submission order)."""
        self.cases.append(result)

    # ------------------------------------------------------------------ #
    def schedulers(self) -> list[str]:
        """Scheduler labels in first-appearance order."""
        seen: list[str] = []
        for case in self.cases:
            if case.scheduler_label not in seen:
                seen.append(case.scheduler_label)
        return seen

    def scenarios(self) -> list[str]:
        """Scenario labels in first-appearance order."""
        seen: list[str] = []
        for case in self.cases:
            if case.scenario_label not in seen:
                seen.append(case.scenario_label)
        return seen

    def cell(self, scenario_label: str, scheduler_label: str) -> CaseResult:
        """The cell for one scenario and scheduler."""
        for case in self.cases:
            if (
                case.scenario_label == scenario_label
                and case.scheduler_label == scheduler_label
            ):
                return case
        raise KeyError(f"no cell for ({scenario_label!r}, {scheduler_label!r})")

    def series(self, scheduler_label: str, metric: str) -> list[float]:
        """Per-scenario series of one metric for one scheduler.

        ``metric`` is ``"system_efficiency"``, ``"dilation"`` or
        ``"upper_limit"``.
        """
        order = self.scenarios()
        values = {c.scenario_label: getattr(c, metric) for c in self.cases
                  if c.scheduler_label == scheduler_label}
        missing = [s for s in order if s not in values]
        if missing:
            raise KeyError(f"scheduler {scheduler_label!r} missing scenarios {missing}")
        return [values[s] for s in order]

    def mean(self, scheduler_label: str, metric: str) -> float:
        """Average of one metric over all scenarios for one scheduler."""
        return float(np.mean(self.series(scheduler_label, metric)))

    def averages(self) -> dict[str, dict[str, float]]:
        """``{scheduler: {metric: mean}}`` over all scenarios."""
        out: dict[str, dict[str, float]] = {}
        for scheduler in self.schedulers():
            out[scheduler] = {
                metric: self.mean(scheduler, metric)
                for metric in ("system_efficiency", "dilation", "upper_limit")
            }
        return out


# ---------------------------------------------------------------------- #
def run_case(
    scenario: Scenario,
    case: SchedulerCase,
    *,
    max_time: float = float("inf"),
    return_result: bool = False,
) -> CaseResult | tuple[CaseResult, SimulationResult]:
    """Run one scenario under one scheduler case."""
    run_simulation = _ENGINE_RUNNERS["simulate"]
    run_scenario = scenario
    if case.use_burst_buffer:
        platform = case.burst_buffer_platform or scenario.platform
        if platform.burst_buffer is None:
            raise ValidationError(
                f"case {case.display!r} requires a burst buffer but platform "
                f"{platform.name!r} does not define one"
            )
        run_scenario = scenario.with_platform(platform)
    config = SimulatorConfig(use_burst_buffer=case.use_burst_buffer, max_time=max_time)
    if not _OBS.enabled:
        result = run_simulation(run_scenario, case.build_scheduler(), config)
    else:
        with _OBS.span(
            "cell",
            category="cell",
            observe="repro_cell_seconds",
            scenario=scenario.label,
            scheduler=case.display,
        ):
            result = run_simulation(run_scenario, case.build_scheduler(), config)
        _OBS.count("repro_cells_total")
        _OBS.count("repro_cell_events_total", float(result.n_events))
    case_result = CaseResult(
        scenario_label=scenario.label,
        scheduler_label=case.display,
        summary=result.summary(),
        makespan=result.makespan,
        n_events=result.n_events,
        faults=result.fault_stats,
    )
    if return_result:
        return case_result, result
    return case_result


def encode_case_result(result: CaseResult) -> dict:
    """JSON payload of one grid cell (inverse of :func:`decode_case_result`).

    Values survive a JSON round trip bit-for-bit (floats re-serialize to the
    same shortest ``repr``), so a cell served from the result store yields a
    byte-identical artefact.
    """
    payload = {
        "scenario_label": result.scenario_label,
        "scheduler_label": result.scheduler_label,
        "summary": result.summary.as_dict(),
        "makespan": result.makespan,
        "n_events": result.n_events,
    }
    if result.faults is not None:
        # Key present only for faulted cells: healthy payloads (and their
        # stored bytes) are unchanged by the fault subsystem's existence.
        payload["faults"] = result.faults.as_dict()
    return payload


def decode_case_result(payload: dict) -> CaseResult:
    """Rebuild a :class:`CaseResult` from its stored payload."""
    faults = payload.get("faults")
    return CaseResult(
        scenario_label=payload["scenario_label"],
        scheduler_label=payload["scheduler_label"],
        summary=ObjectiveSummary.from_dict(payload["summary"]),
        makespan=payload["makespan"],
        n_events=int(payload["n_events"]),
        faults=FaultStats.from_dict(faults) if faults is not None else None,
    )


def grid_cell_keys(
    scenarios: Sequence[Scenario],
    cases: Sequence[SchedulerCase],
    *,
    max_time: float = float("inf"),
) -> list[list[str]]:
    """Content-addressed store key of every ``(scenario, case)`` grid cell.

    ``result[i][j]`` keys the cell of ``scenarios[i]`` under ``cases[j]``.
    Keys are *per-cell*, not per-grid: each digests its own canonical
    scenario and scheduler case (plus the horizon and the producing-code
    fingerprint), so adding a scenario to a campaign, reordering the axes,
    or sharing cells across different specs all hit whatever overlaps.
    This is the single key derivation behind every consumer — the in-run
    memo table of :func:`run_grid` and the sharded campaign coordinator of
    :mod:`repro.campaign` — which is what makes stores written by campaign
    workers on other hosts serve a local serial rerun with 100% hits.
    """
    prefix = digest("grid-cell", code_fingerprint(), max_time)
    scenario_texts = [canonical_json(s) for s in scenarios]
    case_texts = [canonical_json(c) for c in cases]
    return [
        [digest(prefix, s_text, c_text) for c_text in case_texts]
        for s_text in scenario_texts
    ]


class _GridCellCache(MapCache):
    """Memo table for :func:`run_grid` cells (keys: :func:`grid_cell_keys`)."""

    def __init__(
        self,
        store: ResultStore,
        scenarios: Sequence[Scenario],
        cases: Sequence[SchedulerCase],
        max_time: float,
    ):
        super().__init__(store)
        self._keys = grid_cell_keys(scenarios, cases, max_time=max_time)

    def key(self, item: tuple[int, int]) -> str:
        i, j = item
        return self._keys[i][j]

    def encode(self, result: CaseResult) -> dict:
        return encode_case_result(result)

    def decode(self, payload: dict) -> CaseResult:
        return decode_case_result(payload)


def _run_grid_cell_shared(
    shared: tuple[tuple[Scenario, ...], tuple[SchedulerCase, ...], float],
    cell: tuple[int, int],
) -> CaseResult:
    """Shared-payload grid cell: the axes travel once per worker, not per cell."""
    scenarios, cases, max_time = shared
    i, j = cell
    return run_case(scenarios[i], cases[j], max_time=max_time)


#: Rough per-event simulation cost backing the grid's serial-fallback hint.
#: Deliberately coarse — it only needs to separate millisecond grids (where
#: pool dispatch dominates) from second-plus grids (where workers pay off).
_EVENT_COST_SECONDS = 2e-6


def estimate_cell_seconds(scenario: Scenario) -> float:
    """Estimated serial seconds of one grid cell over ``scenario``.

    Event count scales with the total instance count and per-event work
    scales with the number of concurrent applications, so a cell costs
    roughly ``n_apps * n_instances`` event-units.  Deliberately coarse — it
    backs the executor's serial-fallback hint and the campaign
    coordinator's per-cell timeout watchdog, both of which only need the
    right order of magnitude.
    """
    return _EVENT_COST_SECONDS * len(scenario.applications) * sum(
        len(a.instances) for a in scenario.applications
    )


def _grid_cost_hint(scenarios: Sequence[Scenario]) -> float:
    """Estimated serial seconds of one *average* grid cell."""
    if not scenarios:
        return 0.0
    per_cell = [estimate_cell_seconds(s) for s in scenarios]
    return sum(per_cell) / len(per_cell)


def run_grid(
    scenarios: Sequence[Scenario],
    cases: Sequence[SchedulerCase],
    *,
    max_time: float = float("inf"),
    workers: int | None = None,
    progress: Optional[Callable[[str], None]] = None,
    executor: Optional[ExperimentExecutor] = None,
    store: Optional[ResultStore] = None,
) -> ExperimentGrid:
    """Run every scenario under every scheduler case.

    Parameters
    ----------
    scenarios, cases:
        The grid axes; every (scenario, case) pair becomes one cell.
    max_time:
        Simulation horizon passed to every cell.
    workers:
        Number of worker processes (see :func:`resolve_workers`; ``None`` or
        ``1`` runs serially, ``0`` uses every CPU).  Cells are independent
        and deterministic — scenario randomness is fixed when the scenarios
        are built — and results are collected in submission order, so the
        grid is identical whatever the worker count.
    progress:
        Optional callback receiving one human-readable line per completed
        cell (``cell 3/9: mixA x MaxSysEff ...``), so long campaigns stream
        status instead of staying silent until the grid finishes (parallel
        runs deliver the lines in chunk-sized bursts, in submission order).
        Called in the driving process only; it does not affect results.
    executor:
        Reuse a caller-owned :class:`ExperimentExecutor` (``workers`` is
        then ignored) so consecutive grids share one pool.  Either way the
        grid axes are shipped to the workers as a per-chunk shared payload
        (once per worker, a few times with progress streaming); the
        per-cell messages are just index pairs.
    store:
        Optional :class:`repro.store.ResultStore`: cells whose keys are
        already stored are served without simulating anything, and fresh
        cells are written back as they complete.  Cached grids are
        cell-for-cell identical to cold ones (the key covers the canonical
        scenario, case, horizon and producing-code fingerprint).
    """
    if not scenarios:
        raise ValidationError("run_grid needs at least one scenario")
    if not cases:
        raise ValidationError("run_grid needs at least one scheduler case")
    shared = (tuple(scenarios), tuple(cases), max_time)
    cells = [
        (i, j) for i in range(len(scenarios)) for j in range(len(cases))
    ]
    cache = None
    if store is not None:
        cache = _GridCellCache(store, shared[0], shared[1], max_time)

    on_cell = None
    if progress is not None:
        n_cells = len(cells)

        def on_cell(index: int, cell, result: CaseResult) -> None:
            from repro.experiments.reporting import percent, ratio

            progress(
                f"cell {index + 1}/{n_cells}: {result.scenario_label} x "
                f"{result.scheduler_label} — SysEff "
                f"{percent(result.system_efficiency)}%, dilation "
                f"{ratio(result.dilation)}"
            )

    grid = ExperimentGrid()
    with _OBS.span(
        "run_grid",
        category="grid",
        scenarios=len(scenarios),
        cases=len(cases),
    ):
        for result in map_parallel(
            _run_grid_cell_shared,
            cells,
            workers=workers,
            progress=on_cell,
            executor=executor,
            shared=shared,
            cache=cache,
            cost_hint=_grid_cost_hint(scenarios),
        ):
            _OBS.count("repro_grid_cells_total")
            grid.add(result)
    return grid
