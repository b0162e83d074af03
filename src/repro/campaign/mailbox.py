"""Kill-safe coordinator/worker IPC: append-only JSONL mailbox files.

The campaign deliberately does not use ``multiprocessing.Queue`` (or pipes,
or sockets) between the coordinator and its workers: a ``kill -9`` on
either side of a queue can wedge the survivor in a feeder-thread join or
lose buffered messages, and a coordinator crash would sever every worker.
Plain append-only files have none of those failure modes:

* each direction is its own file (``<worker>.g<N>.in.jsonl`` written by the
  coordinator, ``.out.jsonl`` by the worker), so there is exactly one
  writer per file and appends need no cross-process locking;
* a writer dying mid-line tears at most the final line, which the reader
  simply never completes on;
* a reader crash loses nothing — the file *is* the backlog, and a restarted
  reader re-reads from any offset it likes;
* every worker generation gets a fresh file pair (a respawn, or a resumed
  coordinator, numbers past the highest generation already on disk), so a
  lease mailed to a dead worker's inbox can never leak to its replacement.

Readers do not sleep-poll.  Next to each mailbox runs a *doorbell*: a
one-way pipe on which the writer puts one byte after every appended line,
so the reader blocks in :func:`wait_for_mail` until mail actually arrives
and a cell costs its compute time, not a poll period.  The doorbell
carries no data and is never the record: a ring dropped because the pipe
is full is harmless (the pipe already holds unread rings), a reader
drains the rings *before* reading the file (so a line written after the
read always leaves a ring behind), and a dead or absent doorbell falls
back to waiting out the timeout.  The timeout (the campaign's
``poll_seconds``) is thus only the longest any wait lasts, which keeps
lease expiry, the cell watchdog and backoff on their usual clock.
"""

from __future__ import annotations

import json
import os
import threading
import time
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Iterable, Optional, Union

__all__ = ["MailboxReader", "MailboxWriter", "wait_for_mail"]

#: A pipe end or a process sentinel: anything ``connection.wait`` accepts.
Waitable = Union[Connection, int]


class MailboxWriter:
    """Single-writer appender: one JSON line per ``send``, O_APPEND, locked.

    The lock serializes the worker's main loop against its heartbeat
    thread; ``O_APPEND`` plus one ``os.write`` per line keeps every record
    on its own line even under that concurrency.  Mailboxes are *not*
    fsync'd — unlike the journal they are transient signalling, and a lost
    tail only costs a lease period.

    ``doorbell`` is the writing end of the reader's doorbell pipe (see the
    module docstring); it is made non-blocking so a reader that stopped
    draining can never stall a send.  The writer owns it and closes it.
    """

    def __init__(self, path: Union[str, Path], doorbell: Optional[Connection] = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fd: Optional[int] = os.open(
            str(self.path), os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
        )
        self._doorbell = doorbell
        if doorbell is not None:
            os.set_blocking(doorbell.fileno(), False)

    def send(self, record: dict, *, ring: bool = True) -> None:
        """Append one record, then ring the doorbell unless ``ring`` is off
        (for records the reader need not act on at once: they arrive with
        the next ring or the next timed-out wait)."""
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._fd is None:
                raise ValueError(f"mailbox {self.path} is closed")
            os.write(self._fd, line.encode("utf-8"))
            if ring and self._doorbell is not None:
                try:
                    os.write(self._doorbell.fileno(), b"\x01")
                except (BlockingIOError, BrokenPipeError):
                    # Full: unread rings are already waiting.  Broken: the
                    # reader is gone.  Either way no wake-up is lost.
                    pass

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
            if self._doorbell is not None:
                self._doorbell.close()
                self._doorbell = None


class MailboxReader:
    """Incremental tail-reader for one mailbox file.

    Keeps a byte offset plus a partial-line buffer, so records are
    delivered exactly once, in order, even when a poll races the writer
    mid-line.  Corrupt complete lines are skipped and counted — a reader
    must never die on a half-written record from a killed process.

    ``doorbell`` is the reading end of this mailbox's doorbell pipe; the
    reader owns it, drains it on every :meth:`poll` and drops it once its
    writer has gone (end of file), after which waits just time out.
    """

    def __init__(self, path: Union[str, Path], doorbell: Optional[Connection] = None):
        self.path = Path(path)
        self._offset = 0
        self._partial = b""
        self.corrupt = 0
        self.doorbell = doorbell
        if doorbell is not None:
            os.set_blocking(doorbell.fileno(), False)

    def _drain_doorbell(self) -> None:
        """Swallow every pending ring (before the file read, never after)."""
        if self.doorbell is None:
            return
        try:
            while os.read(self.doorbell.fileno(), 4096):
                pass
        except BlockingIOError:
            return
        self.close()

    def close(self) -> None:
        if self.doorbell is not None:
            self.doorbell.close()
            self.doorbell = None

    def poll(self) -> list[dict]:
        """Every complete record appended since the previous poll."""
        self._drain_doorbell()
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                data = handle.read()
        except FileNotFoundError:
            return []
        if not data:
            return []
        self._offset += len(data)
        buffer = self._partial + data
        lines = buffer.split(b"\n")
        self._partial = lines.pop()
        records: list[dict] = []
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self.corrupt += 1
                continue
            if not isinstance(record, dict):
                self.corrupt += 1
                continue
            records.append(record)
        return records


def wait_for_mail(
    readers: Iterable[MailboxReader], timeout: float, *, also: Iterable[Waitable] = ()
) -> list[MailboxReader]:
    """Block until a reader's doorbell rings, a handle in ``also`` is ready
    (e.g. a process sentinel), or ``timeout`` seconds pass.

    Returns the readers worth polling: those whose doorbell rang plus those
    without one, or every reader when the wait timed out.
    """
    readers = list(readers)
    bells = {r.doorbell: r for r in readers if r.doorbell is not None}
    handles: list[Waitable] = [*bells, *also]
    if not handles:
        time.sleep(timeout)
        return readers
    ready = wait(handles, timeout)
    if not ready:
        return readers
    rung = [bells[h] for h in ready if h in bells]
    return [r for r in readers if r.doorbell is None or r in rung]
