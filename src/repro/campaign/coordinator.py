"""The campaign coordinator: journaled work-stealing over worker processes.

One coordinator shards a grid spec's cell set across ``config.workers``
worker processes (:mod:`repro.campaign.worker`) through append-only
mailbox files (:mod:`repro.campaign.mailbox`), journaling every state
transition (:mod:`repro.campaign.journal`) so a crash at *any* point is
resumable with no lost work.

Fault model, and what each fault costs:

==================  ============================  =======================
fault               detected by                   cost
==================  ============================  =======================
worker crash        ``Process.is_alive()``        one in-flight cell retried
worker ``kill -9``  same (child of coordinator)   same
worker wedged/mute  lease expiry (no heartbeat)   one lease period
cell hangs          per-cell timeout watchdog     the watchdog period
cell raises         worker ``error`` record       one backoff delay
poisoned cell       retry budget -> quarantine    that cell only (degraded)
host loses workers  respawn budget exhausted      remaining cells quarantined
coordinator crash   journal replay on resume      cells in flight at the crash
==================  ============================  =======================

Work stealing is coordinator-mediated: an expired or failed lease returns
to the pending queue and the next idle worker takes it — workers never
talk to each other, which keeps the protocol two files per worker and
makes every fault path testable by deleting processes.

Completion is *degraded*, never abandoned: cells that exhaust their retry
budget are quarantined and reported loudly (exit code 1 at the CLI), but
every other cell still lands — one poisoned cell cannot sink a campaign.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

from repro.campaign.journal import (
    LANDED,
    LEASED,
    PENDING,
    QUARANTINED,
    CampaignJournal,
    JournalState,
    read_journal,
    replay_journal,
)
from repro.campaign.mailbox import MailboxReader, MailboxWriter, wait_for_mail
from repro.campaign.model import (
    CampaignConfig,
    CampaignResult,
    QuarantinedCell,
    backoff_seconds,
)
from repro.campaign.plan import CampaignPlan, plan_campaign
from repro.campaign.worker import campaign_worker_main
from repro.config.spec import ExperimentSpec, parse_spec
from repro.obs.telemetry import recorder as _obs_recorder
from repro.store import ResultStore, default_store_path
from repro.utils.validation import ValidationError

__all__ = ["campaign_status", "resume_campaign", "run_campaign"]

#: Campaign metrics land here when the CLI enabled telemetry
#: (``--metrics``/``--trace``); lifecycle status events reach whatever
#: sinks are installed (``--progress``, ``--webhook``).
_OBS = _obs_recorder()


@dataclass
class _Lease:
    """One cell in flight on one worker."""

    cell: int
    attempt: int
    seq: int
    #: Monotonic instant of the worker's ``start`` ack (timeout anchor);
    #: ``None`` until acked (lease expiry covers that window).
    started: Optional[float] = None


@dataclass
class _Worker:
    """Coordinator-side handle of one worker process."""

    worker_id: str
    generation: int
    process: "mp.process.BaseProcess"
    inbox: MailboxWriter
    reader: MailboxReader
    last_seen: float
    ready: bool = False
    lease: Optional[_Lease] = None


def _mp_context() -> mp.context.BaseContext:
    # Fork keeps worker startup cheap (no re-import, no spec pickling
    # constraints); fall back to spawn where fork does not exist.
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _mailbox_generations(mail: Path, pattern: str = "*.jsonl") -> dict[str, int]:
    """Highest generation per worker id among ``<id>.g<N>.{in,out}.jsonl``."""
    latest: dict[str, int] = {}
    if not mail.is_dir():
        return latest
    for path in mail.glob(pattern):
        stem, _, direction = path.name.removesuffix(".jsonl").rpartition(".")
        worker_id, sep, generation_text = stem.rpartition(".g")
        if direction not in ("in", "out") or not sep or not worker_id:
            continue
        try:
            generation = int(generation_text)
        except ValueError:
            continue
        latest[worker_id] = max(generation, latest.get(worker_id, 0))
    return latest


def _as_store(store: Union[ResultStore, str, Path, None]) -> ResultStore:
    if isinstance(store, ResultStore):
        return store
    return ResultStore(store if store is not None else default_store_path())


def _register_pointer(store: ResultStore, campaign_id: str, journal_path: Path) -> None:
    """Drop the gc-protection pointer (see ``ResultStore.protected_keys``)."""
    store.campaigns_dir.mkdir(parents=True, exist_ok=True)
    pointer = store.campaigns_dir / f"{campaign_id}.journal"
    pointer.write_text(str(journal_path) + "\n", encoding="utf-8")


def _unregister_pointer(store: ResultStore, campaign_id: str) -> None:
    try:
        (store.campaigns_dir / f"{campaign_id}.journal").unlink()
    except OSError:
        pass


class CampaignCoordinator:
    """One coordinator run (fresh or resumed) over an open journal."""

    def __init__(
        self,
        plan: CampaignPlan,
        config: CampaignConfig,
        campaign_dir: Path,
        store: ResultStore,
        journal: CampaignJournal,
    ):
        self.plan = plan
        self.config = config
        self.campaign_dir = campaign_dir
        self.store = store
        self.journal = journal
        self._mp = _mp_context()
        # Cell state: a cell is in exactly one of pending / leased /
        # landed / quarantined.  Pending maps to the monotonic instant the
        # cell becomes dispatchable (backoff).
        self._pending: dict[int, float] = {}
        self._leased: set[int] = set()
        self._landed: set[int] = set()
        self._quarantined: dict[int, tuple[int, str]] = {}
        self._attempts: dict[int, int] = {}
        self._seq = 0
        self._workers: list[_Worker] = []
        # A resumed run numbers its mailboxes past every earlier run's, so
        # no worker replays a predecessor's leases or shutdown.
        self._generations = _mailbox_generations(campaign_dir / "mail")
        self._respawns = 0
        self._worker_store_handles: dict[str, ResultStore] = {}
        # Counters surfaced in the result.
        self.retries = 0
        self.lease_expiries = 0
        self.timeouts = 0
        self.worker_deaths = 0
        self.landed_from_store = 0
        self.landed_computed = 0
        self.resumes = 0
        self.halted = False

    # ------------------------------------------------------------------ #
    def _landed_total(self) -> int:
        return len(self._landed)

    # ------------------------------------------------------------------ #
    def seed_fresh(self) -> None:
        """Every cell pending, dispatchable immediately."""
        self._pending = {cell.index: 0.0 for cell in self.plan.cells}

    def seed_resume(self, state: JournalState, *, retry_quarantined: bool = False) -> None:
        """Rebuild in-memory state from a replayed journal.

        Landed cells are *verified* against the store(s) — a journal that
        outlived its store (or a landed record racing an eviction) demotes
        the cell back to pending with a ``requeue`` record rather than
        silently reporting work that cannot be served.  This is also where
        the resume acceptance test gets its store-hit accounting: one
        ``get`` per previously landed cell.
        """
        for cell in self.plan.cells:
            cell_state = state.states.get(cell.index, PENDING)
            self._attempts[cell.index] = state.attempts.get(cell.index, 0)
            if cell_state == LANDED:
                if self._probe_store(cell.key):
                    self._landed.add(cell.index)
                    continue
                self.journal.append(
                    {"type": "requeue", "cell": cell.index, "reason": "missing-from-store"}
                )
                self._pending[cell.index] = 0.0
            elif cell_state == QUARANTINED:
                if retry_quarantined:
                    self.journal.append(
                        {"type": "requeue", "cell": cell.index, "reason": "retry-quarantined"}
                    )
                    self._attempts[cell.index] = 0
                    self._pending[cell.index] = 0.0
                else:
                    error = state.quarantine_errors.get(cell.index, "unknown error")
                    self._quarantined[cell.index] = (
                        state.attempts.get(cell.index, 0),
                        error,
                    )
            else:
                if cell_state == LEASED:
                    # In flight when the previous coordinator died: the
                    # lease is void (its worker is long gone).
                    self.journal.append(
                        {"type": "requeue", "cell": cell.index, "reason": "resume"}
                    )
                self._pending[cell.index] = 0.0

    # ------------------------------------------------------------------ #
    def _worker_store_root(self, worker_id: str) -> Path:
        if self.config.worker_stores:
            return self.campaign_dir / "stores" / worker_id
        return self.store.root

    def _probe_store(self, key: str) -> bool:
        """Is this cell already served by the main or any worker store?"""
        if self.store.get(key) is not None:
            return True
        if not self.config.worker_stores:
            return False
        stores_dir = self.campaign_dir / "stores"
        if not stores_dir.is_dir():
            return False
        for child in sorted(p for p in stores_dir.iterdir() if p.is_dir()):
            handle = self._worker_store_handles.get(child.name)
            if handle is None:
                handle = ResultStore(child)
                self._worker_store_handles[child.name] = handle
            if handle.get(key) is not None:
                return True
        return False

    # ------------------------------------------------------------------ #
    def _spawn(self, worker_id: str, *, respawn: bool = False) -> None:
        generation = self._generations.get(worker_id, 0) + 1
        self._generations[worker_id] = generation
        mail = self.campaign_dir / "mail"
        inbox_path = mail / f"{worker_id}.g{generation}.in.jsonl"
        outbox_path = mail / f"{worker_id}.g{generation}.out.jsonl"
        if respawn:
            self.journal.append({"type": "worker-respawn", "worker": worker_id})
            if _OBS.sinks:
                _OBS.event(
                    "worker-respawn", worker=worker_id, generation=generation,
                    message=f"respawning worker {worker_id} (generation {generation})",
                )
        # One doorbell pipe per direction (see repro.campaign.mailbox);
        # Connection ends also reach spawn-context children.
        inbox_bell_r, inbox_bell_w = self._mp.Pipe(duplex=False)
        outbox_bell_r, outbox_bell_w = self._mp.Pipe(duplex=False)
        inbox = MailboxWriter(inbox_path, inbox_bell_w)
        reader = MailboxReader(outbox_path, outbox_bell_r)
        process = self._mp.Process(
            target=campaign_worker_main,
            args=(
                worker_id,
                self.plan.spec,
                self.config,
                str(inbox_path),
                str(outbox_path),
                str(self._worker_store_root(worker_id)),
                inbox_bell_r,
                outbox_bell_w,
            ),
            name=f"campaign-{worker_id}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            # The child owns these ends now; closing ours lets the outbox
            # doorbell report end-of-file once the worker is gone.
            inbox_bell_r.close()
            outbox_bell_w.close()
        self._workers.append(
            _Worker(
                worker_id=worker_id,
                generation=generation,
                process=process,
                inbox=inbox,
                reader=reader,
                last_seen=time.monotonic(),
            )
        )

    def _kill(self, worker: _Worker) -> None:
        worker.inbox.close()
        worker.reader.close()
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(2.0)

    def _replace(self, worker: _Worker) -> None:
        """Remove a casualty and spawn its successor if budget remains.

        The respawn budget is campaign-wide: against a machine-level
        problem (OOM killer, broken interpreter) replacements die exactly
        like their predecessors, and forking forever would just thrash —
        past the budget the coordinator degrades instead.
        """
        self._kill(worker)
        self._workers.remove(worker)
        if self._respawns < self.config.max_respawns:
            self._respawns += 1
            self._spawn(worker.worker_id, respawn=True)
        elif _OBS.sinks:
            _OBS.event(
                "worker-retired", worker=worker.worker_id,
                message=f"worker {worker.worker_id} not replaced (respawn budget "
                        f"{self.config.max_respawns} exhausted)",
            )

    # ------------------------------------------------------------------ #
    def _land(self, cell_index: int, *, source: str, worker: Optional[str], attempt: int) -> None:
        cell = self.plan.cells[cell_index]
        record = {
            "type": "landed",
            "cell": cell.index,
            "key": cell.key,
            "worker": worker,
            "attempt": attempt,
            "source": source,
        }
        self.journal.append(record)
        self._landed.add(cell.index)
        self._leased.discard(cell.index)
        self._pending.pop(cell.index, None)
        if source == "store":
            self.landed_from_store += 1
        else:
            self.landed_computed += 1
        _OBS.count("repro_campaign_landed_total", source=source)
        _OBS.gauge_set("repro_campaign_cells_landed", float(self._landed_total()))
        if _OBS.sinks:
            landed, n_cells = self._landed_total(), len(self.plan.cells)
            _OBS.event(
                "cell-landed", cell=cell.index, scenario=cell.scenario_label,
                scheduler=cell.scheduler_label, source=source, worker=worker,
                landed=landed, n_cells=n_cells,
                message=f"landed {landed}/{n_cells} "
                        f"({cell.scenario_label} x {cell.scheduler_label}, {source})",
            )

    def _fail_cell(
        self, cell_index: int, attempt: int, kind: str, error: str, *, worker: Optional[str]
    ) -> None:
        """Journal one failed attempt; schedule a retry or quarantine."""
        self._leased.discard(cell_index)
        attempts = max(self._attempts.get(cell_index, 0), attempt)
        self._attempts[cell_index] = attempts
        quarantine = attempts >= self.config.retry_budget
        retry_in = (
            None
            if quarantine
            else backoff_seconds(self.config, self.plan.campaign_id, cell_index, attempts)
        )
        self.journal.append(
            {
                "type": "failed",
                "cell": cell_index,
                "worker": worker,
                "attempt": attempt,
                "kind": kind,
                "error": error,
                "retry_in": retry_in,
            }
        )
        cell = self.plan.cells[cell_index]
        _OBS.count("repro_campaign_cell_failures_total", kind=kind)
        if quarantine:
            self.journal.append(
                {"type": "quarantined", "cell": cell_index, "attempts": attempts, "error": error}
            )
            self._quarantined[cell_index] = (attempts, error)
            _OBS.count("repro_campaign_quarantined_total")
            if _OBS.sinks:
                _OBS.event(
                    "cell-quarantined", cell=cell_index, scenario=cell.scenario_label,
                    scheduler=cell.scheduler_label, attempts=attempts, error=error,
                    message=f"QUARANTINED cell {cell_index} ({cell.scenario_label} x "
                            f"{cell.scheduler_label}) after {attempts} attempt(s): {error}",
                )
        else:
            assert retry_in is not None
            self._pending[cell_index] = time.monotonic() + retry_in
            self.retries += 1
            _OBS.count("repro_campaign_retries_total", kind=kind)
            if _OBS.sinks:
                _OBS.event(
                    "cell-failed", cell=cell_index, scenario=cell.scenario_label,
                    scheduler=cell.scheduler_label, attempt=attempt, kind=kind,
                    error=error, retry_in=retry_in,
                    message=f"cell {cell_index} attempt {attempt} failed ({kind}): "
                            f"{error} — retry in {retry_in:.2f}s",
                )

    # ------------------------------------------------------------------ #
    def _drain(self, rung: list[MailboxReader]) -> None:
        """Act on new mail from the workers whose mailbox is in ``rung``."""
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.reader not in rung:
                continue
            records = worker.reader.poll()
            if records:
                worker.last_seen = now
            for record in records:
                rtype = record.get("type")
                if rtype == "ready":
                    worker.ready = True
                elif rtype == "start":
                    if worker.lease is not None and record.get("seq") == worker.lease.seq:
                        worker.lease.started = now
                elif rtype == "done":
                    if worker.lease is not None and record.get("seq") == worker.lease.seq:
                        lease = worker.lease
                        worker.lease = None
                        self._land(
                            lease.cell,
                            source="worker",
                            worker=worker.worker_id,
                            attempt=lease.attempt,
                        )
                elif rtype == "error":
                    if worker.lease is not None and record.get("seq") == worker.lease.seq:
                        lease = worker.lease
                        worker.lease = None
                        self._fail_cell(
                            lease.cell,
                            lease.attempt,
                            "error",
                            str(record.get("error", "worker error")),
                            worker=worker.worker_id,
                        )
                elif rtype == "fatal":
                    # Startup failure: the process is about to exit on its
                    # own; replace it through the normal casualty path.
                    self.worker_deaths += 1
                    _OBS.count("repro_campaign_worker_deaths_total", kind="fatal")
                    if _OBS.sinks:
                        _OBS.event(
                            "worker-death", worker=worker.worker_id, kind="fatal",
                            error=str(record.get("error", "")),
                            message=f"worker {worker.worker_id} fatal: {record.get('error')}",
                        )
                    self._replace(worker)
                    break
                # "heartbeat" / "bye" only refresh last_seen.

    def _check_health(self) -> None:
        now = time.monotonic()
        for worker in list(self._workers):
            if not worker.process.is_alive():
                self.worker_deaths += 1
                _OBS.count("repro_campaign_worker_deaths_total", kind="died")
                _OBS.event(
                    "worker-death",
                    worker=worker.worker_id,
                    kind="died",
                    exitcode=worker.process.exitcode,
                )
                if worker.lease is not None:
                    lease = worker.lease
                    worker.lease = None
                    self._fail_cell(
                        lease.cell,
                        lease.attempt,
                        "worker-died",
                        f"worker {worker.worker_id} died "
                        f"(exit code {worker.process.exitcode})",
                        worker=worker.worker_id,
                    )
                self._replace(worker)
                continue
            if worker.lease is not None and worker.lease.started is not None:
                cell = self.plan.cells[worker.lease.cell]
                timeout = self.config.cell_timeout(cell.estimate_seconds)
                if now - worker.lease.started > timeout:
                    self.timeouts += 1
                    _OBS.count("repro_campaign_timeouts_total")
                    lease = worker.lease
                    worker.lease = None
                    self._fail_cell(
                        lease.cell,
                        lease.attempt,
                        "timeout",
                        f"cell exceeded its {timeout:g}s watchdog",
                        worker=worker.worker_id,
                    )
                    # The worker is wedged inside the cell: replace it.
                    self._replace(worker)
                    continue
            if now - worker.last_seen > self.config.lease_seconds:
                if worker.lease is not None:
                    self.lease_expiries += 1
                    _OBS.count("repro_campaign_lease_expiries_total")
                    lease = worker.lease
                    worker.lease = None
                    self._fail_cell(
                        lease.cell,
                        lease.attempt,
                        "lease-expired",
                        f"worker {worker.worker_id} silent for "
                        f"{self.config.lease_seconds:g}s; lease forfeited",
                        worker=worker.worker_id,
                    )
                self._replace(worker)

    def _dispatch(self) -> None:
        now = time.monotonic()
        idle = [
            w
            for w in self._workers
            if w.ready and w.lease is None and w.process.is_alive()
        ]
        if not idle:
            return
        ready_cells = sorted(
            index for index, ready_at in self._pending.items() if ready_at <= now
        )
        for worker in idle:
            leased = False
            while ready_cells and not leased:
                cell_index = ready_cells.pop(0)
                cell = self.plan.cells[cell_index]
                if self._probe_store(cell.key):
                    # Someone already produced this cell (earlier run,
                    # another host's merged store, a timed-out worker that
                    # finished after forfeiting): land it without compute.
                    self._land(cell_index, source="store", worker=None, attempt=0)
                    continue
                self._seq += 1
                attempt = self._attempts.get(cell_index, 0) + 1
                self.journal.append(
                    {
                        "type": "lease",
                        "cell": cell_index,
                        "worker": worker.worker_id,
                        "attempt": attempt,
                        "seq": self._seq,
                    }
                )
                worker.inbox.send(
                    {"type": "lease", "cell": cell_index, "attempt": attempt, "seq": self._seq}
                )
                worker.lease = _Lease(cell=cell_index, attempt=attempt, seq=self._seq)
                del self._pending[cell_index]
                self._leased.add(cell_index)
                _OBS.count("repro_campaign_leases_total")
                _OBS.event(
                    "cell-leased",
                    cell=cell_index,
                    worker=worker.worker_id,
                    attempt=attempt,
                )
                leased = True

    def _degrade_no_workers(self) -> None:
        """Quarantine everything still open once no worker can ever run it."""
        for cell_index in sorted(set(self._pending) | self._leased):
            attempts = self._attempts.get(cell_index, 0)
            error = "no workers left (respawn budget exhausted)"
            self.journal.append(
                {"type": "quarantined", "cell": cell_index, "attempts": attempts, "error": error}
            )
            self._quarantined[cell_index] = (attempts, error)
        self._pending.clear()
        self._leased.clear()

    def _shutdown_workers(self) -> None:
        if self.halted:
            # Halt simulates a coordinator crash: take the workers down
            # with no goodbye, exactly like the real thing.
            for worker in self._workers:
                self._kill(worker)
            self._workers.clear()
            return
        for worker in self._workers:
            try:
                worker.inbox.send({"type": "shutdown"})
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 5.0
        for worker in self._workers:
            worker.process.join(max(0.1, deadline - time.monotonic()))
            self._kill(worker)
        self._workers.clear()

    # ------------------------------------------------------------------ #
    def run(self) -> CampaignResult:
        _OBS.event(
            "campaign-start",
            campaign=self.plan.campaign_id,
            n_cells=len(self.plan.cells),
            workers=self.config.workers,
            resumed=self.resumes > 0,
        )
        try:
            for i in range(self.config.workers):
                self._spawn(f"w{i}")
            rung = [worker.reader for worker in self._workers]
            while True:
                self._drain(rung)
                if (
                    self.config.halt_after_landed is not None
                    and self.landed_computed >= self.config.halt_after_landed
                ):
                    self.halted = True
                    break
                self._check_health()
                self._dispatch()
                if not self._pending and not self._leased:
                    break
                if not self._workers:
                    self._degrade_no_workers()
                    break
                # Wake on mail or on a worker's exit; poll_seconds only caps
                # the wait, so expiry, watchdog and backoff keep their clock.
                rung = wait_for_mail(
                    [worker.reader for worker in self._workers],
                    self.config.poll_seconds,
                    also=[worker.process.sentinel for worker in self._workers],
                )
        finally:
            self._shutdown_workers()
        if not self.halted:
            self.journal.append(
                {
                    "type": "complete",
                    "landed": len(self._landed),
                    "quarantined": len(self._quarantined),
                    "degraded": bool(self._quarantined),
                }
            )
            _unregister_pointer(self.store, self.plan.campaign_id)
        outcome = self.result()
        _OBS.event(
            "campaign-complete",
            campaign=outcome.campaign_id,
            landed=outcome.landed,
            n_cells=outcome.n_cells,
            quarantined=len(outcome.quarantined),
            retries=outcome.retries,
            worker_deaths=outcome.worker_deaths,
            degraded=outcome.degraded,
            halted=outcome.halted,
        )
        return outcome

    def result(self) -> CampaignResult:
        quarantined = tuple(
            QuarantinedCell(
                index=index,
                key=self.plan.cells[index].key,
                scenario_label=self.plan.cells[index].scenario_label,
                scheduler_label=self.plan.cells[index].scheduler_label,
                attempts=attempts,
                error=error,
            )
            for index, (attempts, error) in sorted(self._quarantined.items())
        )
        return CampaignResult(
            campaign_id=self.plan.campaign_id,
            journal_path=str(self.journal.path),
            n_cells=len(self.plan.cells),
            landed=len(self._landed),
            landed_from_store=self.landed_from_store,
            landed_computed=self.landed_computed,
            quarantined=quarantined,
            retries=self.retries,
            lease_expiries=self.lease_expiries,
            timeouts=self.timeouts,
            worker_deaths=self.worker_deaths,
            degraded=bool(quarantined),
            halted=self.halted,
            resumes=self.resumes,
        )


# ---------------------------------------------------------------------- #
def run_campaign(
    spec: ExperimentSpec,
    campaign_dir: Union[str, Path],
    *,
    store: Union[ResultStore, str, Path, None] = None,
    config: Optional[CampaignConfig] = None,
    spec_data: Optional[dict] = None,
) -> CampaignResult:
    """Start a fresh campaign in ``campaign_dir``.

    ``spec_data`` is the spec's raw (pre-validation) mapping, embedded in
    the journal header so a later ``resume`` is self-contained; without it
    the campaign still runs, but only ``status`` — not ``resume`` — works
    afterwards.  A directory already holding a journal is refused: that
    campaign must be resumed (or a fresh directory chosen), never silently
    restarted over its own history.
    """
    plan = plan_campaign(spec)
    config = config if config is not None else CampaignConfig()
    campaign_dir = Path(campaign_dir)
    journal_path = campaign_dir / "journal.jsonl"
    if journal_path.exists() and journal_path.stat().st_size > 0:
        raise ValidationError(
            f"{campaign_dir} already holds a campaign journal; use "
            "'repro campaign resume' to continue it, or pick a fresh --dir"
        )
    result_store = _as_store(store)
    with CampaignJournal(journal_path) as journal:
        journal.append(
            {
                "type": "campaign",
                "version": 1,
                "id": plan.campaign_id,
                "spec_name": spec.name,
                "spec_data": spec_data,
                "overrides": {
                    "seed": spec.seed,
                    "max_time": spec.max_time,
                },
                "config": config.as_dict(),
                "store": str(result_store.root),
                "worker_stores": config.worker_stores,
                "n_cells": len(plan.cells),
                "cells": [cell.as_dict() for cell in plan.cells],
            }
        )
        _register_pointer(result_store, plan.campaign_id, journal_path)
        coordinator = CampaignCoordinator(
            plan, config, campaign_dir, result_store, journal
        )
        coordinator.seed_fresh()
        return coordinator.run()


def resume_campaign(
    campaign_dir: Union[str, Path],
    *,
    store: Union[ResultStore, str, Path, None] = None,
    workers: Optional[int] = None,
    retry_quarantined: bool = False,
    halt_after_landed: Optional[int] = None,
) -> CampaignResult:
    """Resume a crashed (or halted) campaign from its journal.

    Replays the journal, verifies every replayed-landed cell against the
    store(s), and recomputes only cells that never landed.  The plan is
    re-derived from the embedded spec and must hash to the journal's
    campaign id — if the producing code or the spec changed in between,
    resume refuses loudly rather than mixing incompatible results.
    """
    campaign_dir = Path(campaign_dir)
    journal_path = campaign_dir / "journal.jsonl"
    records, corrupt = read_journal(journal_path)
    state = replay_journal(records)
    header = state.header
    if header is None:
        raise ValidationError(
            f"{journal_path} has no readable campaign header; nothing to resume"
        )
    spec_data = header.get("spec_data")
    if not isinstance(spec_data, dict):
        raise ValidationError(
            "this campaign's journal does not embed its spec (it was started "
            "programmatically without spec_data); resume needs the original spec"
        )
    overrides = header.get("overrides") or {}
    spec = parse_spec(spec_data, name=str(header.get("spec_name", "experiment")))
    spec = spec.with_overrides(
        seed=overrides.get("seed"),
        max_time=overrides.get("max_time"),
    )
    config = CampaignConfig.from_dict(header.get("config") or {})
    if workers is not None:
        config = replace(config, workers=workers)
    config = replace(config, halt_after_landed=halt_after_landed)
    plan = plan_campaign(spec)
    if plan.campaign_id != header.get("id"):
        raise ValidationError(
            f"campaign identity mismatch: the journal was written as "
            f"{header.get('id')} but the current code/spec plans "
            f"{plan.campaign_id} — the producing code or the spec changed; "
            "start a fresh campaign instead of resuming this one"
        )
    result_store = _as_store(store if store is not None else header.get("store"))
    if state.complete and not (retry_quarantined and state.quarantine_errors):
        # Nothing left to coordinate; report the recorded outcome.
        quarantined = tuple(
            QuarantinedCell(
                index=index,
                key=plan.cells[index].key,
                scenario_label=plan.cells[index].scenario_label,
                scheduler_label=plan.cells[index].scheduler_label,
                attempts=state.attempts.get(index, 0),
                error=error,
            )
            for index, error in sorted(state.quarantine_errors.items())
        )
        counts = state.counts()
        return CampaignResult(
            campaign_id=str(header.get("id")),
            journal_path=str(journal_path),
            n_cells=len(plan.cells),
            landed=counts[LANDED],
            landed_from_store=0,
            landed_computed=0,
            quarantined=quarantined,
            retries=0,
            lease_expiries=0,
            timeouts=0,
            worker_deaths=0,
            degraded=bool(quarantined),
            halted=False,
            resumes=state.resumes,
        )
    with CampaignJournal(journal_path) as journal:
        journal.append({"type": "resume"})
        _register_pointer(result_store, plan.campaign_id, journal_path)
        coordinator = CampaignCoordinator(
            plan, config, campaign_dir, result_store, journal
        )
        coordinator.resumes = state.resumes + 1
        coordinator.seed_resume(state, retry_quarantined=retry_quarantined)
        return coordinator.run()


def _worker_heartbeats(campaign_dir: Path, *, now: Optional[float] = None) -> list[dict]:
    """Per-worker liveness rows scanned from the outbox mailboxes.

    Only the latest generation of each worker counts (a respawned worker
    gets a fresh mailbox pair, so earlier generations are dead history).
    Heartbeat *age* is ``now − t`` with ``t`` the wall-clock stamp the
    worker wrote last (a heartbeat, or the final ``bye``) — the mailbox
    file's mtime is useless here, because ``done``/``error`` records also
    touch the file.  Cells/sec divides the snapshot's ``cells_done`` by its
    ``elapsed_seconds``, both measured by the worker itself, so a status
    read seconds later cannot skew the rate.
    """
    mail = campaign_dir / "mail"
    latest = _mailbox_generations(mail, "*.out.jsonl")
    if now is None:
        now = time.time()
    rows: list[dict] = []
    for worker_id, generation in sorted(latest.items()):
        last_beat: Optional[float] = None
        metrics: dict = {}
        for record in MailboxReader(mail / f"{worker_id}.g{generation}.out.jsonl").poll():
            t = record.get("t")
            if isinstance(t, (int, float)) and not isinstance(t, bool):
                last_beat = float(t)
                snapshot = record.get("metrics")
                if isinstance(snapshot, dict):
                    metrics = snapshot
        cells_done = metrics.get("cells_done")
        elapsed = metrics.get("elapsed_seconds")
        rate: Optional[float] = None
        if (
            isinstance(cells_done, (int, float))
            and isinstance(elapsed, (int, float))
            and elapsed > 0
        ):
            rate = float(cells_done) / float(elapsed)
        rows.append(
            {
                "worker": worker_id,
                "generation": generation,
                "heartbeat_age_seconds": (
                    max(0.0, now - last_beat) if last_beat is not None else None
                ),
                "cells_done": cells_done,
                "cells_failed": metrics.get("cells_failed"),
                "cells_per_second": rate,
            }
        )
    return rows


def campaign_status(campaign_dir: Union[str, Path]) -> dict:
    """Journal-derived status of a campaign directory (live or dead).

    Pure journal read — needs neither the producing code of the cells nor
    any process to be running, so it also works on a campaign directory
    copied off a crashed host.  The ``workers`` rows add the mailbox-side
    view: per-worker heartbeat age and cells/sec (see
    :func:`_worker_heartbeats`), live only while worker processes run but
    still readable afterwards as each worker's final word.
    """
    journal_path = Path(campaign_dir) / "journal.jsonl"
    if not journal_path.exists():
        raise ValidationError(f"no campaign journal at {journal_path}")
    records, corrupt = read_journal(journal_path)
    state = replay_journal(records)
    header = state.header or {}
    counts = state.counts()
    cells = []
    header_cells = header.get("cells")
    if isinstance(header_cells, list):
        for row in header_cells:
            if not isinstance(row, dict):
                continue
            index = row.get("index")
            detail = dict(row)
            detail["state"] = state.states.get(index, "unknown")
            detail["attempts"] = state.attempts.get(index, 0)
            if index in state.landed_source:
                detail["source"] = state.landed_source[index]
            if index in state.quarantine_errors:
                detail["error"] = state.quarantine_errors[index]
            cells.append(detail)
    return {
        "id": header.get("id"),
        "spec": header.get("spec_name"),
        "store": header.get("store"),
        "worker_stores": header.get("worker_stores"),
        "n_cells": header.get("n_cells"),
        "complete": state.complete,
        "resumes": state.resumes,
        "corrupt_journal_lines": corrupt,
        "counts": counts,
        "cells": cells,
        "workers": _worker_heartbeats(Path(campaign_dir)),
    }
