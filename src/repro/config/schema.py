"""Low-level spec validation: typed key extraction with path-aware errors.

Declarative specs arrive as nested mappings (parsed from TOML or JSON, or
built directly as Python dicts).  Everything in this module exists to turn a
malformed spec into an error message that names the exact key that is wrong
— ``scenarios[2].io_ratio must be a number, got 'lots'`` — instead of a bare
``KeyError`` three stack frames deep inside a builder.

:class:`Section` wraps one table of the spec together with its path.  Typed
getters (:meth:`Section.get_str`, :meth:`Section.get_float`, ...) consume
keys as they validate them; :meth:`Section.finish` then rejects any key that
was never consumed, so typos (``scheduler`` for ``schedulers``) fail loudly
with the list of keys that *would* have been accepted.
"""

from __future__ import annotations

from typing import Any, Literal, Mapping, Optional, Sequence, overload

from repro.utils.validation import ValidationError

__all__ = ["SpecError", "Section"]


class SpecError(ValidationError):
    """Raised when a declarative scenario/experiment spec is malformed.

    The message always starts with the spec path of the offending key
    (``experiment.kind``, ``scenarios[0].apps[1].work``, ...) so the error
    can be traced straight back to the line of the spec file.
    """


def _type_name(value: object) -> str:
    return type(value).__name__


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

    # The getters narrow statically the same way they behave dynamically:
    # a non-None default or required=True can never return None, so those
    # call shapes type as the bare value — spec dataclass fields annotated
    # non-Optional accept them under mypy --strict without casts.
    @overload
    def get_str(
        self,
        key: str,
        default: str,
        *,
        required: bool = ...,
        choices: Optional[Sequence[str]] = ...,
    ) -> str: ...

    @overload
    def get_str(
        self,
        key: str,
        default: None = ...,
        *,
        required: Literal[True],
        choices: Optional[Sequence[str]] = ...,
    ) -> str: ...

    @overload
    def get_str(
        self,
        key: str,
        default: None = ...,
        *,
        required: bool = ...,
        choices: Optional[Sequence[str]] = ...,
    ) -> Optional[str]: ...

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

    @overload
    def get_bool(
        self, key: str, default: bool, *, required: bool = ...
    ) -> bool: ...

    @overload
    def get_bool(
        self, key: str, default: None = ..., *, required: Literal[True]
    ) -> bool: ...

    @overload
    def get_bool(
        self, key: str, default: None = ..., *, required: bool = ...
    ) -> Optional[bool]: ...

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

    @overload
    def get_int(
        self,
        key: str,
        default: int,
        *,
        required: bool = ...,
        minimum: Optional[int] = ...,
        maximum: Optional[int] = ...,
    ) -> int: ...

    @overload
    def get_int(
        self,
        key: str,
        default: None = ...,
        *,
        required: Literal[True],
        minimum: Optional[int] = ...,
        maximum: Optional[int] = ...,
    ) -> int: ...

    @overload
    def get_int(
        self,
        key: str,
        default: None = ...,
        *,
        required: bool = ...,
        minimum: Optional[int] = ...,
        maximum: Optional[int] = ...,
    ) -> Optional[int]: ...

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

    @overload
    def get_float(
        self,
        key: str,
        default: float,
        *,
        required: bool = ...,
        minimum: Optional[float] = ...,
        maximum: Optional[float] = ...,
        positive: bool = ...,
        allow_inf: bool = ...,
    ) -> float: ...

    @overload
    def get_float(
        self,
        key: str,
        default: None = ...,
        *,
        required: Literal[True],
        minimum: Optional[float] = ...,
        maximum: Optional[float] = ...,
        positive: bool = ...,
        allow_inf: bool = ...,
    ) -> float: ...

    @overload
    def get_float(
        self,
        key: str,
        default: None = ...,
        *,
        required: bool = ...,
        minimum: Optional[float] = ...,
        maximum: Optional[float] = ...,
        positive: bool = ...,
        allow_inf: bool = ...,
    ) -> Optional[float]: ...

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
        if value is None:
            return None
        if not present:
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(
                f"{self.path(key)} must be a number, got {value!r}"
            )
        value = float(value)
        if value != value:
            raise SpecError(f"{self.path(key)} must not be NaN")
        if not allow_inf and value in (float("inf"), float("-inf")):
            raise SpecError(f"{self.path(key)} must be finite, got {value}")
        if positive and value <= 0:
            raise SpecError(f"{self.path(key)} must be > 0, got {value}")
        if minimum is not None and value < minimum:
            raise SpecError(f"{self.path(key)} must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise SpecError(f"{self.path(key)} must be <= {maximum}, got {value}")
        return value

    @overload
    def get_str_list(
        self,
        key: str,
        default: Sequence[str],
        *,
        required: bool = ...,
        non_empty: bool = ...,
        unique: bool = ...,
        choices: Optional[Sequence[str]] = ...,
    ) -> list[str]: ...

    @overload
    def get_str_list(
        self,
        key: str,
        default: None = ...,
        *,
        required: Literal[True],
        non_empty: bool = ...,
        unique: bool = ...,
        choices: Optional[Sequence[str]] = ...,
    ) -> list[str]: ...

    @overload
    def get_str_list(
        self,
        key: str,
        default: None = ...,
        *,
        required: bool = ...,
        non_empty: bool = ...,
        unique: bool = ...,
        choices: Optional[Sequence[str]] = ...,
    ) -> Optional[list[str]]: ...

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

    @overload
    def get_float_list(
        self,
        key: str,
        default: Sequence[float],
        *,
        required: bool = ...,
        non_empty: bool = ...,
        unique: bool = ...,
        minimum: Optional[float] = ...,
        maximum: Optional[float] = ...,
    ) -> list[float]: ...

    @overload
    def get_float_list(
        self,
        key: str,
        default: None = ...,
        *,
        required: Literal[True],
        non_empty: bool = ...,
        unique: bool = ...,
        minimum: Optional[float] = ...,
        maximum: Optional[float] = ...,
    ) -> list[float]: ...

    @overload
    def get_float_list(
        self,
        key: str,
        default: None = ...,
        *,
        required: bool = ...,
        non_empty: bool = ...,
        unique: bool = ...,
        minimum: Optional[float] = ...,
        maximum: Optional[float] = ...,
    ) -> Optional[list[float]]: ...

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
            item = float(item)
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
