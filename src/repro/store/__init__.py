"""Content-addressed result store: never compute the same cell twice.

Every experiment cell (one ``(scenario, scheduler)`` simulation) and every
analysis/periodic study is deterministic given three inputs: the canonical
form of the objects describing it, the source code of the modules that
compute it, and its derived seed.  This package turns that observation into
a durable memo table:

* :mod:`repro.store.canonical` — :func:`canonical_json`, the one-pass
  deterministic JSON encoder of model objects (dataclasses, numpy
  scalars, …), and the SHA-256 key format: :func:`digest` and
  :func:`digest_grid` (a digest per row × column, each row hashed once);
* :mod:`repro.store.fingerprint` — a fingerprint of the producing source
  tree, folded into every key so editing the simulator invalidates the
  cache;
* :mod:`repro.store.store` — the atomic, corruption-tolerant, evictable
  on-disk store (``~/.cache/repro`` or ``repro run --store PATH``).

The consumers live next to the things they cache:
:func:`repro.experiments.runner.run_grid` memoizes grid cells through
:class:`repro.experiments.runner.ExperimentExecutor`, and
:mod:`repro.config.run` memoizes whole analysis figures and periodic sweeps.
See ``docs/artifacts.md`` for the key contract and on-disk layout.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.store.canonical import (
        CanonicalizationError,
        canonical_json,
        digest,
        digest_grid,
    )
    from repro.store.fingerprint import (
        PRODUCING_PACKAGES,
        clear_fingerprint_cache,
        code_fingerprint,
    )
    from repro.store.merge import MergeReport, StoreMergeError, merge_stores
    from repro.store.store import (
        ResultStore,
        StoreCollisionError,
        StoreEntryInfo,
        StoreStats,
        default_store_path,
    )


__all__ = [
    "CanonicalizationError",
    "canonical_json",
    "digest",
    "digest_grid",
    "PRODUCING_PACKAGES",
    "code_fingerprint",
    "clear_fingerprint_cache",
    "ResultStore",
    "StoreStats",
    "StoreEntryInfo",
    "StoreCollisionError",
    "StoreMergeError",
    "MergeReport",
    "merge_stores",
    "default_store_path",
]

__getattr__, __dir__ = attach(__name__)
