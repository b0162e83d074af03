"""The content-addressed on-disk result store.

Layout (``~/.cache/repro`` by default, relocatable via ``REPRO_STORE`` or
``repro run --store PATH``)::

    <root>/
      v1/                     # store format version; a format change bumps it
        ab/                   # first two hex digits of the key (git-style fan-out)
          ab3f…e2.json        # one entry: {"key", "payload"}

Guarantees:

* **atomic entries** — every entry is written to a temp sibling and
  ``os.replace``d into place, so a crash or ``Ctrl-C`` mid-campaign can
  never leave a truncated entry (interrupted campaigns resume from whatever
  cells already landed);
* **corruption-tolerant reads** — an unreadable / truncated / wrong-key
  entry counts as a miss (and is deleted), never as an exception: the worst
  a corrupt store can do is cost a recompute;
* **byte-stable payloads** — entries round-trip through JSON with NaN /
  Infinity preserved, so a decoded result re-serializes to the exact bytes
  a fresh computation would produce;
* **verified collisions** — a write against an existing key compares
  canonical payload bytes: identical payloads (concurrent producers of the
  same cell) skip the rewrite, different payloads raise
  :class:`StoreCollisionError` loudly instead of silently replacing —
  same key must mean same content;
* **bounded growth** — :meth:`ResultStore.gc` evicts by age and by
  count/size (least-recently-used first; hits refresh an entry's mtime),
  but never evicts entries referenced by an active campaign journal
  (:meth:`ResultStore.protected_keys`).

The store knows nothing about simulators or specs: callers bring a key
(see :mod:`repro.store.canonical` / :mod:`repro.store.fingerprint`) and a
JSON-able payload.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Union

from repro.obs.telemetry import recorder as _obs_recorder
from repro.utils.io import atomic_write_text
from repro.utils.validation import ValidationError

#: Process-wide telemetry funnel.  Imported here (the store *entry* layer)
#: only — key derivation (canonical.py / fingerprint.py) must stay
#: telemetry-free, which reprolint rule O001 enforces statically.
_OBS = _obs_recorder()

__all__ = [
    "StoreStats",
    "StoreEntryInfo",
    "StoreCollisionError",
    "ResultStore",
    "default_store_path",
]

#: On-disk format version; bump on any incompatible layout/payload change so
#: an old store degrades to misses instead of mis-decoding.
STORE_FORMAT = "v1"

_KEY_HEX_LEN = 64  # sha256
_KEY_RE = re.compile(f"[0-9a-f]{{{_KEY_HEX_LEN}}}")


def default_store_path() -> Path:
    """``$REPRO_STORE`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_STORE", "").strip()
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def _json_default(value: object) -> object:
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        scalar: object = item()
        return scalar
    tolist = getattr(value, "tolist", None)
    if callable(tolist):  # numpy array
        nested: object = tolist()
        return nested
    raise TypeError(
        f"store payloads must be JSON-able, got {type(value).__qualname__!r}"
    )


class StoreCollisionError(ValidationError):
    """Two different payloads were written under the same key.

    Keys are content-addressed, so this should be impossible for correct
    code — it means either non-determinism in a producer (two hosts
    computed different results for the same inputs) or a key-derivation
    bug.  Either way the store must fail loudly instead of silently letting
    the last writer win.
    """


@dataclass
class StoreStats:
    """Per-handle counters of one store handle (not persisted).

    This is the *per-handle view* of the same event stream the process-wide
    telemetry registry (:mod:`repro.obs`) aggregates across every handle:
    ``get``/``put`` bump these plain ints unconditionally and additionally
    emit ``repro_store_get_total`` / ``repro_store_put_total`` counters and
    latency histograms when the recorder is enabled.  Keep using these
    attributes for handle-scoped reporting (``repro run``'s store line);
    use the registry for whole-process dashboards.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    write_errors: int = 0
    #: Writes that collided with an existing entry and were *verified*
    #: byte-identical instead of rewritten (concurrent producers of the
    #: same cell — campaign workers racing on a shared store).
    collisions: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls (hits + misses; corrupt entries are misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 with no lookups)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view for payload-free reporting (CLI line, report)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "write_errors": self.write_errors,
            "collisions": self.collisions,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class StoreEntryInfo:
    """Metadata of one on-disk entry (for ``gc`` ordering and ``info``)."""

    path: Path
    key: str
    size: int
    mtime: float


class ResultStore:
    """A content-addressed key → JSON-payload store on the local disk.

    Opening a store never touches the disk; directories appear on the first
    write, so a read-only consultation of a non-existent store is simply all
    misses.  One handle's :attr:`stats` describe the lookups made *through
    that handle* — ``repro run`` reports them as the campaign's hit/miss
    line.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_store_path()
        self.stats = StoreStats()
        self._warned_unwritable = False

    # ------------------------------------------------------------------ #
    @property
    def _objects(self) -> Path:
        return self.root / STORE_FORMAT

    def _entry_path(self, key: str) -> Path:
        if _KEY_RE.fullmatch(key) is None:
            raise ValidationError(
                f"malformed store key {key!r} (expected {_KEY_HEX_LEN} hex chars)"
            )
        return self.root / f"{STORE_FORMAT}/{key[:2]}/{key}.json"

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[dict[str, Any]]:
        """The payload stored under ``key``, or ``None`` on miss.

        Any defect — unreadable file, truncated JSON, an entry whose
        recorded key disagrees with its filename — is treated as a miss:
        the entry is deleted, ``stats.corrupt`` is bumped, and the caller
        recomputes.  A hit refreshes the entry's mtime (LRU input for
        :meth:`gc`).
        """
        if not _OBS.enabled:
            return self._get_impl(key)
        corrupt_before = self.stats.corrupt
        with _OBS.span(
            "store.get", category="store",
            observe="repro_store_get_seconds", key=key[:12],
        ):
            payload = self._get_impl(key)
        if payload is not None:
            outcome = "hit"
        elif self.stats.corrupt > corrupt_before:
            outcome = "corrupt"
        else:
            outcome = "miss"
        _OBS.count("repro_store_get_total", outcome=outcome)
        return payload

    def _get_impl(self, key: str) -> Optional[dict[str, Any]]:
        path = self._entry_path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.misses += 1
            self.stats.corrupt += 1
            self._discard(path)
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict) or entry.get("key") != key:
                raise ValueError("store entry does not match its key")
            payload = entry["payload"]
            if not isinstance(payload, dict):
                raise ValueError("store payload is not a JSON object")
        except (ValueError, KeyError):
            self.stats.misses += 1
            self.stats.corrupt += 1
            self._discard(path)
            return None
        self.stats.hits += 1
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - mtime refresh is best-effort
            pass
        return payload

    def _existing_payload(self, path: Path, key: str) -> Optional[dict[str, Any]]:
        """The valid payload already stored at ``path``, if any.

        Collision-check helper for :meth:`put`: unlike :meth:`get` it never
        touches the hit/miss counters (a write is not a lookup) and leaves a
        corrupt entry in place for the caller to overwrite (counting it in
        ``stats.corrupt``).
        """
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError:
            self.stats.corrupt += 1
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict) or entry.get("key") != key:
                raise ValueError("store entry does not match its key")
            payload = entry["payload"]
            if not isinstance(payload, dict):
                raise ValueError("store payload is not a JSON object")
        except (ValueError, KeyError):
            self.stats.corrupt += 1
            return None
        return payload

    def put(self, key: str, payload: Mapping[str, Any]) -> Optional[Path]:
        """Atomically persist ``payload`` under ``key``.

        Keys are content-addressed, so a ``put`` against an existing entry
        is *verified*, never blindly replaced: an identical payload (the
        normal case — concurrent campaign workers racing on the same cell)
        refreshes the entry's mtime, counts in ``stats.collisions`` and
        skips the rewrite; a **different** payload raises
        :class:`StoreCollisionError` loudly, because it means a
        non-deterministic producer or a key-derivation bug.  A corrupt
        existing entry is simply overwritten.

        Write failures (disk full, read-only store, quota) are **fail-soft**:
        the campaign that computed the result must never die on cache
        bookkeeping, so the failure is counted (``stats.write_errors``),
        warned about once per handle on stderr, and ``None`` is returned —
        the run simply continues uncached.  A payload that is not JSON-able
        is a programming error and still raises.
        """
        if not _OBS.enabled:
            return self._put_impl(key, payload)
        collisions = self.stats.collisions
        write_errors = self.stats.write_errors
        with _OBS.span(
            "store.put", category="store",
            observe="repro_store_put_seconds", key=key[:12],
        ):
            result = self._put_impl(key, payload)
        if self.stats.collisions > collisions:
            outcome = "collision"
        elif self.stats.write_errors > write_errors:
            outcome = "write_error"
        else:
            outcome = "write"
        _OBS.count("repro_store_put_total", outcome=outcome)
        return result

    def _put_impl(self, key: str, payload: Mapping[str, Any]) -> Optional[Path]:
        path = self._entry_path(key)
        new_text = json.dumps(
            payload, allow_nan=True, sort_keys=True, default=_json_default
        )
        existing = self._existing_payload(path, key)
        if existing is not None:
            existing_text = json.dumps(existing, allow_nan=True, sort_keys=True)
            if existing_text == new_text:
                self.stats.collisions += 1
                try:
                    os.utime(path)
                except OSError:  # pragma: no cover - mtime refresh is best-effort
                    pass
                return path
            raise StoreCollisionError(
                f"store collision on key {key} at {self.root}: an entry with "
                f"a different payload already exists ({len(existing_text)} vs "
                f"{len(new_text)} canonical bytes). Same key must mean same "
                "content — this indicates a non-deterministic producer or a "
                "key-derivation bug, not a cache eviction problem."
            )
        entry = {"key": key, "payload": payload}
        text = json.dumps(entry, allow_nan=True, default=_json_default)  # reprolint: ignore[D004] — entry bytes are not content-addressed (key is the filename); readers parse, never diff
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, text + "\n")
        except OSError as exc:
            self.stats.write_errors += 1
            if not self._warned_unwritable:
                self._warned_unwritable = True
                print(
                    f"warning: result store at {self.root} is not writable "
                    f"({exc}); continuing without caching new results",
                    file=sys.stderr,
                )
            return None
        self.stats.writes += 1
        return path

    def discard(self, key: str) -> None:
        """Remove one entry if present (poisoned-payload eviction)."""
        self._discard(self._entry_path(key))

    def __contains__(self, key: str) -> bool:
        return self._entry_path(key).is_file()

    # ------------------------------------------------------------------ #
    @property
    def campaigns_dir(self) -> Path:
        """Registration directory of active campaign journals.

        A running campaign coordinator (:mod:`repro.campaign`) drops a
        ``<campaign-id>.journal`` pointer file here naming its journal;
        :meth:`gc` refuses to evict any entry such a journal references.
        Completed campaigns unregister themselves; a stale pointer (journal
        gone, or carrying a ``complete`` record) is cleaned up lazily by
        :meth:`protected_keys`.
        """
        return self.root / "campaigns"

    def protected_keys(self) -> frozenset[str]:
        """Keys referenced by active campaign journals (gc-protected).

        Scans the ``<campaign-id>.journal`` pointers under
        :attr:`campaigns_dir` and collects the cell-key list from each
        journal's header record — one JSON object per line, written by
        :class:`repro.campaign.CampaignJournal`; unparsable lines are
        skipped (the journal is append-only and crash-tolerant by design).
        A journal that recorded ``{"type": "complete"}`` is finished: its
        pointer is unlinked and its keys are fair game.
        """
        protected: set[str] = set()
        if not self.campaigns_dir.is_dir():
            return frozenset()
        for pointer in sorted(self.campaigns_dir.glob("*.journal")):
            try:
                journal_path = Path(pointer.read_text(encoding="utf-8").strip())
            except OSError:
                continue
            try:
                lines = journal_path.read_text(encoding="utf-8").splitlines()
            except OSError:
                # Journal vanished: the campaign directory was deleted, so
                # the registration is stale.
                self._discard(pointer)
                continue
            keys: set[str] = set()
            complete = False
            for line in lines:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(record, dict):
                    continue
                if record.get("type") == "campaign":
                    cells = record.get("cells")
                    if isinstance(cells, list):
                        keys.update(
                            cell["key"]
                            for cell in cells
                            if isinstance(cell, dict)
                            and isinstance(cell.get("key"), str)
                        )
                elif record.get("type") == "complete":
                    complete = True
            if complete:
                self._discard(pointer)
            else:
                protected.update(keys)
        return frozenset(protected)

    # ------------------------------------------------------------------ #
    def entries(self) -> Iterator[StoreEntryInfo]:
        """Iterate the on-disk entries (silently skipping vanished files)."""
        if not self._objects.is_dir():
            return
        for path in sorted(self._objects.glob("??/*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue
            yield StoreEntryInfo(
                path=path, key=path.stem, size=stat.st_size, mtime=stat.st_mtime
            )

    def info(self) -> dict[str, object]:
        """Summary of the on-disk state (path, entry count, bytes, ages)."""
        entries = list(self.entries())
        total = sum(e.size for e in entries)
        return {
            "path": str(self.root),
            "format": STORE_FORMAT,
            "entries": len(entries),
            "total_bytes": total,
            "oldest_mtime": min((e.mtime for e in entries), default=None),
            "newest_mtime": max((e.mtime for e in entries), default=None),
        }

    def gc(
        self,
        *,
        max_age_days: Optional[float] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Evict entries; returns how many were removed.

        ``max_age_days`` drops everything not touched within the window
        (hits refresh mtime, so live cells survive).  ``max_entries`` /
        ``max_bytes`` then trim least-recently-used entries until the store
        fits both budgets.  With no arguments nothing is removed.

        Entries referenced by an **active campaign journal** (see
        :meth:`protected_keys`) are never evicted, whatever the budgets: a
        crashed campaign's ``resume`` depends on those cells still being
        here.  Protected entries keep counting toward the size/count
        totals, so gc trims everything evictable first and simply stops
        when only protected entries remain over budget.
        """
        for name, bound in (
            ("max_age_days", max_age_days),
            ("max_entries", max_entries),
            ("max_bytes", max_bytes),
        ):
            if bound is not None and bound < 0:
                raise ValidationError(f"{name} must be >= 0, got {bound}")
        protected = self.protected_keys()
        all_entries = sorted(self.entries(), key=lambda e: e.mtime)  # oldest first
        entries = [e for e in all_entries if e.key not in protected]
        protected_size = sum(e.size for e in all_entries if e.key in protected)
        protected_count = len(all_entries) - len(entries)
        removed = 0
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0  # reprolint: ignore[D002] — gc age policy against file mtimes; host-local, never in results
            keep: list[StoreEntryInfo] = []
            for entry in entries:
                if entry.mtime < cutoff:
                    self._discard(entry.path)
                    removed += 1
                else:
                    keep.append(entry)
            entries = keep
        total = protected_size + sum(e.size for e in entries)
        index = 0
        while entries[index:] and (
            (
                max_entries is not None
                and protected_count + len(entries) - index > max_entries
            )
            or (max_bytes is not None and total > max_bytes)
        ):
            victim = entries[index]
            self._discard(victim.path)
            total -= victim.size
            index += 1
            removed += 1
        return removed

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        removed = 0
        for entry in self.entries():
            self._discard(entry.path)
            removed += 1
        return removed
