"""Canonical serialization for cache keys.

A cache key must be a *pure function of the inputs that determine the
result*: same scenario + same scheduler case + same horizon ⇒ same key, on
any machine, in any process, in any order of construction.  Python's default
``repr`` does not guarantee that (dict order, numpy scalar reprs, object
identity), so this module defines one canonical JSON form, written by
:func:`canonical_json` in a single recursive pass:

* mappings are emitted with **sorted keys** (non-``str`` keys go through
  ``str()``; keys that collide after that conversion are an error);
* sequences (list / tuple) keep their order (order is semantic for
  instances, scenarios, scheduler lists);
* sets become ``{"__set__": [...]}``, the canonical texts of their
  elements sorted and emitted as JSON strings;
* dataclasses become ``{"__dc__": <qualname>, <field>: ...}`` using only
  their **declared fields** — ``cached_property`` memos and other
  ``__dict__`` residue never leak into the key;
* numpy scalars collapse to their Python equivalents (``.item()``), numpy
  arrays to nested lists;
* floats are written by ``float.__repr__`` (shortest exact representation,
  deterministic for a given IEEE double); NaN/Infinity are emitted as the
  JSON-extension tokens ``NaN``, ``Infinity`` and ``-Infinity``;
* enums become ``{"__enum__": <qualname>, "value": ...}`` — except those
  that are also ``str``/``int``/``float`` (``IntEnum``…), which are written
  as that plain value;
* strings are ASCII-only JSON (``json.encoder.encode_basestring_ascii``).

The text is byte-identical to ``json.dumps(tree, sort_keys=True,
separators=(",", ":"))`` of the equivalent plain tree, which is how every
existing store key was first derived.

Anything else (functions, live RNGs, open files …) raises
:class:`CanonicalizationError` — an unstable key must fail loudly, not
silently produce a cache that never hits (or worse, wrongly hits).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Mapping, Optional, Sequence

__all__ = [
    "CanonicalizationError",
    "canonical_json",
    "digest",
    "digest_grid",
]


class CanonicalizationError(TypeError):
    """Raised for values with no stable canonical form."""


#: Within one :func:`canonical_json` call: ``id(obj) -> (obj, text)`` for
#: every dataclass instance already written.  Holding ``obj`` keeps its id
#: from being reused mid-call.  Identity, never equality: ``0.0 == -0.0``
#: and ``1 == 1.0 == True`` all have different texts.
_Memo = dict[int, tuple[object, str]]

#: A dataclass layout: ``(prefix, field name)`` in emitted key order, where
#: ``prefix`` is the encoded ``"name":``.  The ``"__dc__"`` entry carries its
#: whole ``"__dc__":"<qualname>"`` text as the prefix and an empty name.
_Layout = tuple[tuple[str, str], ...]

#: ``repr`` of the non-finite floats -> their JSON-extension tokens.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: ``type -> layout`` for dataclass types, ``type -> None`` for every other
#: type seen (which then takes the general path).
_LAYOUTS: dict[type, Optional[_Layout]] = {}
_UNSEEN: Any = object()


def _layout(cls: type) -> Optional[_Layout]:
    layout: Optional[_Layout] = None
    # Plain-value and enum subclasses are written as those values first,
    # and a class object is never encoded as the dataclass it describes.
    if dataclasses.is_dataclass(cls) and not issubclass(
        cls, (str, int, float, enum.Enum, type)
    ):
        entries = {f.name: (_encode_str(f.name) + ":", f.name)
                   for f in dataclasses.fields(cls)}
        # A field literally named "__dc__" overwrites the type tag.
        entries.setdefault(
            "__dc__", ('"__dc__":' + _encode_str(cls.__qualname__), "")
        )
        layout = tuple(entries[name] for name in sorted(entries))
    _LAYOUTS[cls] = layout
    return layout


def _encode(value: Any, memo: _Memo) -> str:
    # Exact-type fast paths first; ``repr`` equals ``float.__repr__`` /
    # ``int.__repr__`` on exact floats and ints.
    cls = type(value)
    if cls is float:
        text = repr(value)
        return _NON_FINITE.get(text, text)
    if cls is str:
        return _encode_str(value)
    if cls is int:
        return repr(value)
    if cls is tuple or cls is list:
        return "[" + ",".join([_encode(v, memo) for v in value]) + "]"
    layout = _LAYOUTS.get(cls, _UNSEEN)
    if layout is _UNSEEN:
        layout = _layout(cls)
    if layout is None:
        return _encode_other(value, memo)
    hit = memo.get(id(value))
    if hit is not None:
        return hit[1]
    parts: list[str] = []
    for prefix, name in layout:
        if not name:
            parts.append(prefix)
            continue
        field = getattr(value, name)
        if type(field) is float:
            # Inlined: float fields (work, volumes, times) dominate scenarios.
            text = repr(field)
            parts.append(prefix + _NON_FINITE.get(text, text))
        else:
            parts.append(prefix + _encode(field, memo))
    text = "{" + ",".join(parts) + "}"
    memo[id(value)] = (value, text)
    return text


def _encode_other(value: Any, memo: _Memo) -> str:
    """Every value that is not an exact float/str/int/list/tuple/dataclass.

    The checks run in a fixed order (plain values, enums, mappings, sets,
    sequences, numpy) so a value matching several kinds — an ``IntEnum``,
    a ``dict`` subclass, a ``float`` subclass such as ``np.float64`` — is
    always written the same way.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if isinstance(value, enum.Enum):
        return (
            '{"__enum__":' + _encode_str(type(value).__qualname__)
            + ',"value":' + _encode(value.value, memo) + "}"
        )
    if isinstance(value, Mapping):
        items = {k if type(k) is str else str(k): v for k, v in value.items()}
        if len(items) != len(value):
            raise CanonicalizationError(
                f"mapping keys collide after str() conversion: {sorted(items)}"
            )
        return "{" + ",".join([
            _encode_str(k) + ":" + _encode(items[k], memo) for k in sorted(items)
        ]) + "}"
    if isinstance(value, (set, frozenset)):
        texts = sorted(_encode(v, memo) for v in value)
        return '{"__set__":[' + ",".join(map(_encode_str, texts)) + "]}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([_encode(v, memo) for v in value]) + "]"
    # numpy without importing numpy at module scope (the store must stay
    # dependency-light): scalars expose .item(), arrays expose .tolist().
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "shape", None) == ():
        return _encode(item(), memo)
    tolist = getattr(value, "tolist", None)
    if callable(tolist) and hasattr(value, "shape"):
        return _encode(tolist(), memo)
    raise CanonicalizationError(
        f"cannot canonicalize {type(value).__qualname__!r} for a cache key; "
        "give the store plain data, dataclasses, or numpy scalars/arrays"
    )


def canonical_json(value: object) -> str:
    """The canonical JSON text of ``value`` (compact, sorted keys)."""
    return _encode(value, {})


def _frame(part: object) -> bytes:
    """One digest part: type tag, byte length, ``:``, canonical bytes."""
    # Type-tag each part: a raw string and a canonicalized value with the
    # same text (digest("3") vs digest(3)) must never collide.
    if isinstance(part, str):
        tag, text = b"s", part
    else:
        tag, text = b"c", canonical_json(part)
    data = text.encode("utf-8")
    return tag + str(len(data)).encode("ascii") + b":" + data


def digest(*parts: object) -> str:
    """SHA-256 hex digest over the canonical forms of ``parts``.

    Each part is canonicalized independently and length-prefixed, so
    ``digest("ab", "c") != digest("a", "bc")``.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(_frame(part))
    return h.hexdigest()


def digest_grid(
    prefix: object, rows: Sequence[object], columns: Sequence[object]
) -> list[list[str]]:
    """``[[digest(prefix, r, c) for c in columns] for r in rows]``.

    Each row is framed and hashed once; every cell then continues from a
    copy of its row's hash state, so a long row part (a scenario's
    canonical text) is not re-hashed once per column.
    """
    head = hashlib.sha256(_frame(prefix))
    tails = [_frame(c) for c in columns]
    out: list[list[str]] = []
    for row in rows:
        h = head.copy()
        h.update(_frame(row))
        keys: list[str] = []
        for tail in tails:
            cell = h.copy()
            cell.update(tail)
            keys.append(cell.hexdigest())
        out.append(keys)
    return out
