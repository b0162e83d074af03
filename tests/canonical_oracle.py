"""Reference canonicalizer: the two-stage encoder the store keys were born with.

``canonicalize`` reduces a value to a plain dict/list tree and
``oracle_json`` re-serializes that tree with ``json.dumps(sort_keys=True)``.
Every key in every existing result store was derived from this text, so the
production one-pass encoder (:func:`repro.store.canonical_json`) is tested
against it for byte-identity (``tests/test_store_canonical_oracle.py``).
Kept verbatim on purpose; do not optimize it.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Mapping

from repro.store import CanonicalizationError

_ATOMS = (str, int, bool, type(None))


def canonicalize(value: object) -> object:
    """Reduce ``value`` to plain JSON-able data with deterministic structure."""
    if isinstance(value, _ATOMS):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__qualname__, "value": canonicalize(value.value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: dict[str, object] = {"__dc__": type(value).__qualname__}
        for field in dataclasses.fields(value):
            out[field.name] = canonicalize(getattr(value, field.name))
        return out
    if isinstance(value, Mapping):
        items = {str(k): canonicalize(v) for k, v in value.items()}
        if len(items) != len(value):
            raise CanonicalizationError(
                f"mapping keys collide after str() conversion: {sorted(items)}"
            )
        return items
    if isinstance(value, (set, frozenset)):
        return {"__set__": sorted(oracle_json(v) for v in value)}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    # numpy without importing numpy at module scope (the store must stay
    # dependency-light): scalars expose .item(), arrays expose .tolist().
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "shape", None) == ():
        return canonicalize(item())
    tolist = getattr(value, "tolist", None)
    if callable(tolist) and hasattr(value, "shape"):
        return canonicalize(tolist())
    raise CanonicalizationError(
        f"cannot canonicalize {type(value).__qualname__!r} for a cache key; "
        "give the store plain data, dataclasses, or numpy scalars/arrays"
    )


def oracle_json(value: object) -> str:
    """The canonical JSON text of ``value`` (compact, sorted keys)."""
    return json.dumps(
        canonicalize(value),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=True,
        ensure_ascii=True,
    )
