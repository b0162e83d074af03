"""Load spec files (TOML or JSON) into validated :class:`ExperimentSpec` objects.

The file format is chosen by extension: ``.toml`` goes through the standard
library ``tomllib``, ``.json`` through ``json``.  Both produce the same
nested mappings, so a spec can be written in either language — the examples
under ``examples/specs/`` use TOML because inline comments make them
self-documenting.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.config.schema import SpecError
from repro.config.spec import ExperimentSpec, parse_spec

__all__ = ["load_spec", "load_spec_data", "parse_spec_text"]


def _parse_data(text: str, *, format: str) -> dict:
    """The raw nested mapping of spec source text (pre-validation)."""
    if format == "toml":
        import tomllib

        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"invalid TOML: {exc}") from exc
    elif format == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise SpecError("a JSON spec must be an object at the top level")
        return data
    raise SpecError(f"unknown spec format {format!r}; use 'toml' or 'json'")


def parse_spec_text(text: str, *, format: str = "toml", name: str = "experiment") -> ExperimentSpec:
    """Parse spec source text (``format`` is ``"toml"`` or ``"json"``)."""
    return parse_spec(_parse_data(text, format=format), name=name)


def load_spec_data(path: Union[str, Path]) -> dict:
    """Load one spec file into its raw (unvalidated) nested mapping.

    The campaign journal embeds this mapping so ``repro campaign resume``
    is self-contained — it can rebuild the exact spec after a coordinator
    crash even if the original file moved.  ``load_spec`` is this plus
    :func:`~repro.config.spec.parse_spec` validation.
    """
    path = Path(path)
    if not path.exists():
        raise SpecError(f"spec file not found: {path}")
    suffix = path.suffix.lower()
    if suffix == ".toml":
        format = "toml"
    elif suffix == ".json":
        format = "json"
    else:
        raise SpecError(
            f"unsupported spec extension {suffix!r} for {path}; use .toml or .json"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: not valid UTF-8 text ({exc})") from exc
    except OSError as exc:
        raise SpecError(f"{path}: cannot read spec file ({exc})") from exc
    try:
        return _parse_data(text, format=format)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def load_spec(path: Union[str, Path]) -> ExperimentSpec:
    """Load and validate one spec file.

    Raises :class:`~repro.config.schema.SpecError` when the file does not
    exist, has an unsupported extension, is not valid TOML/JSON, or fails
    schema validation — always with a message naming the file.
    """
    path = Path(path)
    data = load_spec_data(path)
    try:
        return parse_spec(data, name=path.stem)
    except SpecError as exc:
        raise SpecError(f"{path}: {exc}") from exc
