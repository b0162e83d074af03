"""The progress webhook: an event sink for external watchers.

:class:`ProgressWebhook` is the sink behind ``--webhook TARGET``,
subscribed to the recorder's status events (:meth:`Recorder.subscribed`):
events are appended as JSONL when ``TARGET`` is a path, or POSTed as JSON
when it is an ``http(s)://`` URL.  Webhook delivery is strictly
fire-and-forget — a dead listener increments a counter and never fails
(or slows) the run it is watching.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, Mapping, Optional

from repro.obs.telemetry import Recorder

__all__ = ["ProgressWebhook", "WEBHOOK_SCHEMA"]

WEBHOOK_SCHEMA = "repro-progress/1"

#: Seconds an HTTP webhook POST may take before being abandoned.
_WEBHOOK_TIMEOUT = 2.0


class ProgressWebhook:
    """Fire-and-forget progress events for external watchers.

    ``target`` is either a filesystem path (events are appended as JSON
    lines — the ``repro-progress/1`` schema in ``docs/observability.md``)
    or an ``http(s)://`` URL (each event is POSTed as a JSON body with
    ``Content-Type: application/json``).  Delivery failures are counted
    (``errors`` / the ``obs_webhook_errors`` counter) but never raised.
    ``stamp`` fields (``repro run`` stamps ``spec``) are added to every
    event; an event's own fields win on a clash.
    """

    def __init__(
        self,
        target: str,
        recorder: Optional[Recorder] = None,
        stamp: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.target = target
        self.stamp = dict(stamp or {})
        self.is_http = target.startswith("http://") or target.startswith("https://")
        self.sent = 0
        self.errors = 0
        self._recorder = recorder
        self._seq = 0
        self._lock = threading.Lock()
        if not self.is_http:
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("", encoding="utf-8")

    def emit(self, event: str, **fields: object) -> None:
        with self._lock:
            seq = self._seq
            self._seq += 1
        body: Dict[str, object] = {
            "schema": WEBHOOK_SCHEMA,
            "seq": seq,
            "event": event,
        }
        if self._recorder is not None:
            body["elapsed_seconds"] = round(self._recorder.elapsed_seconds(), 6)
        body.update(self.stamp)
        body.update(fields)
        text = json.dumps(body, sort_keys=True)
        try:
            if self.is_http:
                self._post(text)
            else:
                with self._lock:
                    with Path(self.target).open("a", encoding="utf-8") as handle:
                        handle.write(text + "\n")
            self.sent += 1
            if self._recorder is not None:
                self._recorder.count("obs_webhook_events")
        except Exception:
            self.errors += 1
            if self._recorder is not None:
                self._recorder.count("obs_webhook_errors")

    def _post(self, body: str) -> None:
        import urllib.request

        request = urllib.request.Request(
            self.target,
            data=body.encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=_WEBHOOK_TIMEOUT):
            pass
