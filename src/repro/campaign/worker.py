"""Campaign worker process: lease in, simulate, store, ack out.

A worker is intentionally almost stateless: it rebuilds the campaign plan
from the spec (deterministically identical to the coordinator's), then
loops pulling leases from its inbox mailbox, running each cell with the
same :func:`repro.experiments.runner.run_case` +
:func:`~repro.experiments.runner.encode_case_result` path the serial
runner uses, and writing the result into its store *before* acking
``done`` — so a journal-landed cell always implies store presence, no
matter where in the protocol the worker dies.

A daemon heartbeat thread writes to the outbox every
``heartbeat_seconds`` from the moment the process starts (before the plan
build, which can take a while on big grids), keeping the coordinator's
liveness clock fresh.  Each heartbeat carries a wall-clock timestamp
(``t``) plus a small metrics snapshot (cells done/failed, elapsed
seconds), so ``repro campaign status`` can report per-worker heartbeat
*age* and cells/sec from the mailbox files alone — no process needed.
The closing ``bye`` record carries the same final stamp and snapshot, so a
worker that finishes between beats (or before its first) still reports
every cell it ran.  Heartbeats are transient signalling, never part of any
payload, so the snapshot rides along unconditionally.  Any failure mode
past that is the coordinator's problem by design: crash → process death or
lease expiry; hang → cell timeout (heartbeats keep flowing); ``kill -9`` →
lease expiry.

Between leases the worker blocks on its inbox doorbell
(:func:`~repro.campaign.mailbox.wait_for_mail`), so a lease starts as soon
as the coordinator mails it; ``poll_seconds`` only bounds that wait.

Chaos hook
----------
``REPRO_CAMPAIGN_CHAOS`` may name a JSON file mapping cell indices to
fault injections, e.g. ``{"3": {"exit": [1], "fail": [2]}}`` — on attempt
1 of cell 3 the worker dies with ``os._exit``, on attempt 2 it raises.
Modes: ``exit`` (sudden death), ``fail`` (raised error), ``hang`` (sleep
forever, heartbeats alive → exercises the timeout watchdog), ``mute``
(sleep forever, heartbeats stopped → exercises lease expiry).  A mode maps
to a list of attempt numbers or the string ``"always"``.  The hook exists
for the chaos tests and the CI distributed-smoke job; production campaigns
never set the variable.
"""

from __future__ import annotations

import json
import os
import threading
import time
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Union

from repro.campaign.mailbox import MailboxReader, MailboxWriter, wait_for_mail
from repro.campaign.model import CampaignConfig
from repro.campaign.plan import plan_campaign
from repro.config.spec import ExperimentSpec
from repro.experiments.runner import encode_case_result, run_case
from repro.store import ResultStore

__all__ = ["CHAOS_ENV", "campaign_worker_main"]

CHAOS_ENV = "REPRO_CAMPAIGN_CHAOS"

#: "Forever" for the hang/mute chaos modes — far past any test timeout.
_CHAOS_SLEEP_SECONDS = 3600.0


def _load_chaos() -> dict:
    """The chaos injection table ({} when the hook is unset or unreadable)."""
    path = os.environ.get(CHAOS_ENV)
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def _chaos_matches(spec: object, attempt: int) -> bool:
    if spec == "always":
        return True
    return isinstance(spec, list) and attempt in spec


def _apply_chaos(
    chaos: dict, cell_index: int, attempt: int, mute_heartbeats: threading.Event
) -> None:
    """Inject the configured fault for this (cell, attempt), if any."""
    entry = chaos.get(str(cell_index))
    if not isinstance(entry, dict):
        return
    if _chaos_matches(entry.get("exit"), attempt):
        os._exit(17)
    if _chaos_matches(entry.get("fail"), attempt):
        raise RuntimeError(f"chaos: injected failure (cell {cell_index}, attempt {attempt})")
    if _chaos_matches(entry.get("mute"), attempt):
        mute_heartbeats.set()
        time.sleep(_CHAOS_SLEEP_SECONDS)
    if _chaos_matches(entry.get("hang"), attempt):
        time.sleep(_CHAOS_SLEEP_SECONDS)


def campaign_worker_main(
    worker_id: str,
    spec: ExperimentSpec,
    config: CampaignConfig,
    inbox_path: Union[str, Path],
    outbox_path: Union[str, Path],
    store_root: Union[str, Path],
    inbox_doorbell: Connection,
    outbox_doorbell: Connection,
) -> None:
    """Entry point of one worker process (the coordinator's spawn target).

    The doorbells are this worker's ends of the two mailbox doorbell pipes:
    the reading end for the inbox, the writing end for the outbox.
    """
    outbox = MailboxWriter(outbox_path, outbox_doorbell)
    stop = threading.Event()
    mute = threading.Event()
    started_wall = time.time()
    # Plain-int counters shared with the heartbeat thread: individual reads
    # and writes are atomic under the GIL, and a snapshot one beat stale is
    # fine for a liveness signal.
    stats = {"cells_done": 0, "cells_failed": 0}

    def _stamped(rtype: str) -> dict:
        """A record carrying the wall-clock stamp and the metrics snapshot."""
        now = time.time()
        return {
            "type": rtype,
            "t": now,
            "metrics": {
                "cells_done": stats["cells_done"],
                "cells_failed": stats["cells_failed"],
                "elapsed_seconds": now - started_wall,
            },
        }

    def _beat() -> None:
        while not stop.wait(config.heartbeat_seconds):
            if mute.is_set():
                continue
            try:
                outbox.send(_stamped("heartbeat"))
            except (OSError, ValueError):
                return

    heartbeat = threading.Thread(target=_beat, name=f"{worker_id}-heartbeat", daemon=True)
    heartbeat.start()
    chaos = _load_chaos()
    try:
        plan = plan_campaign(spec)
        store = ResultStore(store_root)
        outbox.send({"type": "ready", "n_cells": len(plan.cells)})
        inbox = MailboxReader(inbox_path, inbox_doorbell)
        while True:
            records = inbox.poll()
            if not records:
                wait_for_mail([inbox], config.poll_seconds)
                continue
            for record in records:
                rtype = record.get("type")
                if rtype == "shutdown":
                    outbox.send(_stamped("bye"))
                    return
                if rtype != "lease":
                    continue
                cell_index = int(record["cell"])
                attempt = int(record["attempt"])
                seq = int(record["seq"])
                ack = {"cell": cell_index, "attempt": attempt, "seq": seq}
                # No ring: "start" only anchors the cell watchdog, and the
                # next heartbeat or ack delivers it soon enough for that.
                outbox.send({"type": "start", **ack}, ring=False)
                try:
                    _apply_chaos(chaos, cell_index, attempt, mute)
                    cell = plan.cells[cell_index]
                    result = run_case(
                        plan.scenarios[cell.scenario_index],
                        plan.cases[cell.case_index],
                        max_time=spec.max_time,
                    )
                    # Store before ack: journal "landed" must imply the
                    # entry is durably readable, whatever kills us next.
                    store.put(cell.key, encode_case_result(result))
                    stats["cells_done"] += 1
                    outbox.send({"type": "done", **ack})
                except Exception as exc:
                    stats["cells_failed"] += 1
                    outbox.send(
                        {"type": "error", **ack, "error": f"{type(exc).__name__}: {exc}"}
                    )
    except Exception as exc:
        # Startup/plan failures: tell the coordinator why before dying —
        # a fatal record beats diagnosing a silent respawn loop.
        try:
            outbox.send({"type": "fatal", "error": f"{type(exc).__name__}: {exc}"})
        except (OSError, ValueError):
            pass
    finally:
        stop.set()
        outbox.close()
