"""Low-level spec validation: declared keys, one walker, path-aware errors.

Declarative specs arrive as nested mappings (parsed from TOML or JSON, or
built directly as Python dicts).  Everything in this module exists to turn a
malformed spec into an error message that names the exact key that is wrong
— ``scenarios[2].io_ratio must be a number, got 'lots'`` — instead of a bare
``KeyError`` three stack frames deep inside a builder.

Each spec key is declared once, as a :func:`key` field of the spec
dataclass its table parses into (:mod:`repro.config.spec`): the getter
kind, default, ``required`` flag, bounds, choices, list constraints and,
for ``[[scenarios]]``, the scenario kinds the key belongs to.
:func:`parse_body` walks a dataclass's declared keys in field order, reads
each through :class:`Section`, recurses into nested tables and arrays of
tables, runs the class's hand-written ``cross_check`` (the rules that span
several keys) and finally rejects unknown keys.

:class:`Section` wraps one table of the spec together with its path.  Typed
getters (:meth:`Section.get_str`, :meth:`Section.get_float`, ...) consume
keys as they validate them; :meth:`Section.finish` then rejects any key that
was never consumed, so typos (``scheduler`` for ``schedulers``) fail loudly
with the list of keys that *would* have been accepted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Literal, Mapping, Optional, Sequence, overload

from repro.utils.validation import ValidationError

__all__ = [
    "SpecError",
    "Section",
    "Key",
    "key",
    "declared_keys",
    "read_key",
    "read_keys",
    "parse_body",
]


class SpecError(ValidationError):
    """Raised when a declarative scenario/experiment spec is malformed.

    The message always starts with the spec path of the offending key
    (``experiment.kind``, ``scenarios[0].apps[1].work``, ...) so the error
    can be traced straight back to the line of the spec file.
    """


def _type_name(value: object) -> str:
    return type(value).__name__


def _as_float(value: int | float) -> float:
    # An integer beyond the float range (JSON allows any length) is
    # infinite, so the finiteness and bound checks report it as such.
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class Section:
    """One table of a spec, with typed key extraction and unknown-key checks.

    Parameters
    ----------
    data:
        The mapping to validate.
    where:
        Spec path of this table, used as the prefix of every error message
        (e.g. ``"scenarios[0]"``; the empty string denotes the spec root).
    """

    def __init__(self, data: Mapping[str, Any], where: str = "") -> None:
        if not isinstance(data, Mapping):
            raise SpecError(
                f"{where or 'spec'} must be a table/mapping, got {_type_name(data)}"
            )
        self._data = data
        self._where = where
        self._consumed: set[str] = set()

    # ------------------------------------------------------------------ #
    @property
    def where(self) -> str:
        """Spec path of this table."""
        return self._where

    def path(self, key: str) -> str:
        """Spec path of one key inside this table."""
        return f"{self._where}.{key}" if self._where else key

    def has(self, key: str) -> bool:
        """Whether the key is present (does not consume it)."""
        return key in self._data

    def has_value(self, key: str) -> bool:
        """Whether the key is present with a non-null value (not consumed).

        JSON null counts as absent, matching how every getter treats it.
        """
        return self._data.get(key) is not None

    def error(self, message: str) -> SpecError:
        """A :class:`SpecError` prefixed with this table's path."""
        prefix = f"{self._where}: " if self._where else ""
        return SpecError(f"{prefix}{message}")

    # ------------------------------------------------------------------ #
    def _take(self, key: str, default: Any, required: bool) -> Any:
        self._consumed.add(key)
        # A JSON null is treated exactly like an absent key (TOML cannot
        # express null at all): it must not bypass required/type/bounds
        # checks by short-circuiting the getters' `value is None` paths.
        if self._data.get(key) is not None:
            return self._data[key]
        if required:
            raise SpecError(f"missing required key {self.path(key)!r}")
        return default

    def get_str(
        self,
        key: str,
        default: Optional[str] = None,
        *,
        required: bool = False,
        choices: Optional[Sequence[str]] = None,
    ) -> Optional[str]:
        """A string value, optionally restricted to ``choices``."""
        value = self._take(key, default, required)
        if value is None:
            return None
        if not isinstance(value, str):
            raise SpecError(
                f"{self.path(key)} must be a string, got {_type_name(value)}"
            )
        if choices is not None and value not in choices:
            raise SpecError(
                f"{self.path(key)} must be one of {sorted(choices)}, got {value!r}"
            )
        return value

    def get_bool(
        self, key: str, default: Optional[bool] = None, *, required: bool = False
    ) -> Optional[bool]:
        """A boolean value (``true``/``false`` in TOML)."""
        value = self._take(key, default, required)
        if value is None:
            return None
        if not isinstance(value, bool):
            raise SpecError(
                f"{self.path(key)} must be a boolean, got {_type_name(value)}"
            )
        return value

    def get_int(
        self,
        key: str,
        default: Optional[int] = None,
        *,
        required: bool = False,
        minimum: Optional[int] = None,
        maximum: Optional[int] = None,
    ) -> Optional[int]:
        """An integer value within optional inclusive bounds."""
        value = self._take(key, default, required)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(
                f"{self.path(key)} must be an integer, got {value!r}"
            )
        if minimum is not None and value < minimum:
            raise SpecError(f"{self.path(key)} must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise SpecError(f"{self.path(key)} must be <= {maximum}, got {value}")
        return value

    def get_float(
        self,
        key: str,
        default: Optional[float] = None,
        *,
        required: bool = False,
        minimum: Optional[float] = None,
        maximum: Optional[float] = None,
        positive: bool = False,
        allow_inf: bool = False,
    ) -> Optional[float]:
        """A numeric value (int or float) within optional bounds.

        NaN is always rejected (every bound comparison is vacuously false on
        NaN, so it would silently defeat validation); infinities only pass
        with ``allow_inf`` (meaningful for e.g. an unbounded ``max_time``).
        The ``default`` is trusted as-is.
        """
        present = self._data.get(key) is not None
        value = self._take(key, default, required)
        if not present:
            return default
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(
                f"{self.path(key)} must be a number, got {value!r}"
            )
        number = _as_float(value)
        if number != number:
            raise SpecError(f"{self.path(key)} must not be NaN")
        if not allow_inf and number in (float("inf"), float("-inf")):
            raise SpecError(f"{self.path(key)} must be finite, got {number}")
        if positive and number <= 0:
            raise SpecError(f"{self.path(key)} must be > 0, got {number}")
        if minimum is not None and number < minimum:
            raise SpecError(f"{self.path(key)} must be >= {minimum}, got {number}")
        if maximum is not None and number > maximum:
            raise SpecError(f"{self.path(key)} must be <= {maximum}, got {number}")
        return number

    def get_str_list(
        self,
        key: str,
        default: Optional[Sequence[str]] = None,
        *,
        required: bool = False,
        non_empty: bool = False,
        unique: bool = False,
        choices: Optional[Sequence[str]] = None,
    ) -> Optional[list[str]]:
        """A list of strings; ``unique`` rejects duplicate entries and
        ``choices`` any entry outside it.

        Results keyed by these strings (panels, scheduler averages, node
        mixes) silently collapse on duplicates, so list keys that feed such
        indexes should pass ``unique=True``.
        """
        value = self._take(key, default, required)
        if value is None:
            return None
        if isinstance(value, str) or not isinstance(value, Sequence):
            raise SpecError(
                f"{self.path(key)} must be a list of strings, got {value!r}"
            )
        out: list[str] = []
        for i, item in enumerate(value):
            if not isinstance(item, str):
                raise SpecError(
                    f"{self.path(key)}[{i}] must be a string, got {_type_name(item)}"
                )
            if unique and item in out:
                raise SpecError(
                    f"{self.path(key)}[{i}] duplicates {item!r}; entries "
                    "must be unique"
                )
            out.append(item)
        if non_empty and not out:
            raise SpecError(f"{self.path(key)} must not be empty")
        for i, item in enumerate(out):
            if choices is not None and item not in choices:
                raise SpecError(
                    f"{self.path(key)}[{i}] must be one of {sorted(choices)}, "
                    f"got {item!r}"
                )
        return out

    def get_float_list(
        self,
        key: str,
        default: Optional[Sequence[float]] = None,
        *,
        required: bool = False,
        non_empty: bool = False,
        unique: bool = False,
        minimum: Optional[float] = None,
        maximum: Optional[float] = None,
    ) -> Optional[list[float]]:
        """A list of numbers (ints or floats) within optional bounds.

        NaN entries are always rejected (bound checks are vacuously false on
        NaN); ``unique`` rejects duplicates, which matters for lists that key
        result payloads (e.g. sensibility levels).
        """
        value = self._take(key, default, required)
        if value is None:
            return None
        # Defaults run through the same validation as spec values (matching
        # get_str_list): they are tiny lists, and an invalid code-authored
        # default should fail fast, not slip through.
        if isinstance(value, (str, Mapping)) or not isinstance(value, Sequence):
            raise SpecError(
                f"{self.path(key)} must be a list of numbers, got {value!r}"
            )
        out: list[float] = []
        for i, item in enumerate(value):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise SpecError(
                    f"{self.path(key)}[{i}] must be a number, got {item!r}"
                )
            item = _as_float(item)
            if item != item:
                raise SpecError(f"{self.path(key)}[{i}] must not be NaN")
            if minimum is not None and item < minimum:
                raise SpecError(
                    f"{self.path(key)}[{i}] must be >= {minimum}, got {item:g}"
                )
            if maximum is not None and item > maximum:
                raise SpecError(
                    f"{self.path(key)}[{i}] must be <= {maximum}, got {item:g}"
                )
            if unique and item in out:
                raise SpecError(
                    f"{self.path(key)}[{i}] duplicates {item:g}; entries "
                    "must be unique"
                )
            out.append(item)
        if non_empty and not out:
            raise SpecError(f"{self.path(key)} must not be empty")
        return out

    # ------------------------------------------------------------------ #
    @overload
    def subsection(self, key: str, *, required: Literal[True]) -> "Section": ...

    @overload
    def subsection(
        self, key: str, *, required: bool = ...
    ) -> Optional["Section"]: ...

    def subsection(self, key: str, *, required: bool = False) -> Optional["Section"]:
        """A nested table, or ``None`` when absent and not required."""
        value = self._take(key, None, required)
        if value is None:
            return None
        return Section(value, self.path(key))

    def sections(self, key: str, *, required: bool = False) -> list["Section"]:
        """An array of tables (``[[key]]`` in TOML); empty when absent."""
        value = self._take(key, None, required)
        if value is None:
            return []
        if isinstance(value, (str, Mapping)) or not isinstance(value, Sequence):
            raise SpecError(
                f"{self.path(key)} must be an array of tables "
                f"(use [[{key}]] in TOML), got {_type_name(value)}"
            )
        return [Section(item, f"{self.path(key)}[{i}]") for i, item in enumerate(value)]

    def finish(self) -> None:
        """Reject keys that no getter consumed (typos, unsupported options)."""
        unknown = sorted(set(self._data) - self._consumed)
        if unknown:
            expected = sorted(self._consumed)
            raise self.error(
                f"unknown key(s) {unknown}; expected keys are {expected}"
            )


# ---------------------------------------------------------------------- #
# Declared keys
# ---------------------------------------------------------------------- #
_KEY = "repro.config.key"


@dataclass(frozen=True)
class Key:
    """How one spec key is read: the declaration :func:`key` attaches.

    ``kind`` names the getter: ``str``, ``bool``, ``int``, ``float``,
    ``str_list`` and ``float_list`` call :class:`Section`'s ``get_<kind>``
    with ``default``, ``required`` and ``options`` (its bound, choice and
    list keywords; ``choices`` may be a zero-argument callable, resolved at
    read time).  ``table`` reads a nested table into the dataclass
    ``table`` (or through the hand-written ``parse``, which receives the
    table or ``None``).  For a table the walker only asks whether
    ``default`` is ``None``: if so an absent table reads as ``None``,
    otherwise (no default, or an instance kept as the dataclass default)
    it parses as an empty table and the default value itself is never
    read.  ``tables`` reads an array of tables into a tuple of ``table``
    instances.

    ``check(value, path)`` runs right after the key is read, for rules on
    that key alone (a registry lookup, a parsable mix); ``kinds`` limits a
    ``[[scenarios]]`` key to those scenario kinds and needs a ``kind`` key
    declared before it (:func:`declared_keys` enforces this); ``name`` is
    the spec key when it differs from the field name.
    """

    kind: str
    # MISSING ("no default") as a plain default would make the field required.
    default: Any = field(default_factory=lambda: MISSING)
    required: bool = False
    options: Mapping[str, Any] = field(default_factory=dict)
    table: Any = None
    parse: Optional[Callable[[Optional[Section]], Any]] = None
    check: Optional[Callable[[Any, str], Any]] = None
    kinds: Optional[tuple[str, ...]] = None
    name: Optional[str] = None


def key(
    kind: str,
    default: Any = MISSING,
    *,
    required: bool = False,
    table: Any = None,
    parse: Optional[Callable[[Optional[Section]], Any]] = None,
    check: Optional[Callable[[Any, str], Any]] = None,
    kinds: Optional[tuple[str, ...]] = None,
    name: Optional[str] = None,
    **options: Any,
) -> Any:
    """A dataclass field declaring one spec key (see :class:`Key`).

    ``default`` is both the field's default and the value an absent key
    reads as; without one the field has no default and an absent optional
    key reads as ``None``.
    """
    declared = Key(kind, default, required, options, table, parse, check, kinds, name)
    return field(default=default, metadata={_KEY: declared})


@functools.cache
def declared_keys(cls: Any) -> tuple[tuple[str, str, Key], ...]:
    """``(field name, spec key, declaration)`` of each declared key of
    ``cls``, in field order (computed once per class).

    Raises TypeError when a key declared with ``kinds`` precedes the
    class's ``kind`` key: :func:`read_keys` selects such keys by the
    ``kind`` already read.
    """
    declared = tuple(
        (f.name, f.metadata[_KEY].name or f.name, f.metadata[_KEY])
        for f in fields(cls)
        if _KEY in f.metadata
    )
    attrs = [attr for attr, _, _ in declared]
    for i, (attr, _, k) in enumerate(declared):
        if k.kinds is not None and "kind" not in attrs[:i]:
            raise TypeError(
                f"{cls.__name__}.{attr} is declared with kinds= but no "
                "'kind' key is declared before it"
            )
    return declared


def read_key(section: Section, name: str, declared: Key) -> Any:
    """Read and validate one declared key of ``section``.

    Lists come back as tuples, the form the spec dataclasses store.
    """
    if declared.kind == "table":
        table = section.subsection(name, required=declared.required)
        if declared.parse is not None:
            value = declared.parse(table)
        elif table is None and declared.default is None:
            value = None
        else:
            if table is None:
                table = Section({}, section.path(name))
            value = parse_body(declared.table, table)
    elif declared.kind == "tables":
        value = tuple(
            parse_body(declared.table, item)
            for item in section.sections(name, required=declared.required)
        )
    else:
        options = dict(declared.options)
        if callable(options.get("choices")):
            options["choices"] = options["choices"]()
        default = None if declared.default is MISSING else declared.default
        getter = getattr(section, f"get_{declared.kind}")
        value = getter(name, default, required=declared.required, **options)
        if isinstance(value, list):
            value = tuple(value)
    if declared.check is not None and value is not None:
        declared.check(value, section.path(name))
    return value


def read_keys(cls: Any, section: Section) -> dict[str, Any]:
    """Read every declared key of ``cls`` from ``section``, in field order,
    then apply ``cls.cross_check(section, values)`` when it defines one.

    A key declared with ``kinds`` is read only when the ``kind`` already
    read is one of them.  The section is left open: :func:`parse_body`
    finishes it, a caller sharing the table with other readers does so
    itself.
    """
    values: dict[str, Any] = {}
    for attr, name, declared in declared_keys(cls):
        if declared.kinds is not None and values.get("kind") not in declared.kinds:
            continue
        values[attr] = read_key(section, name, declared)
    cross_check = getattr(cls, "cross_check", None)
    if cross_check is not None:
        cross_check(section, values)
    return values


def parse_body(cls: Any, section: Section) -> Any:
    """Parse one table into a ``cls`` instance, rejecting unknown keys."""
    values = read_keys(cls, section)
    section.finish()
    return cls(**values)
