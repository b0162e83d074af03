"""Lazily resolved module names (PEP 562), the one laziness mechanism of ``repro``.

A module declares the names it re-exports, or imports only for some of its
callers, as ordinary ``from ... import`` statements inside an
``if TYPE_CHECKING:`` block, where type checkers and readers see them, and
installs the pair :func:`attach` returns::

    from typing import TYPE_CHECKING

    from repro._lazy import attach

    if TYPE_CHECKING:
        from repro.store.store import ResultStore

    __getattr__, __dir__ = attach(__name__)

The first access to ``ResultStore`` (an attribute access or a ``from
repro.store import ResultStore``) imports :mod:`repro.store.store` and
binds the value in the module's namespace, so later accesses are plain
lookups and a function of that module can then call the name as a global.
A name imported from the declaring package itself (``from repro import
core`` in ``repro/__init__.py``) is that package's submodule.

Nothing is imported until a name is used, so importing a package costs one
small module body, and a run loads only the modules its code reaches
(``docs/architecture.md``, "Import policy").
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import sys
from typing import Callable

__all__ = ["attach"]

#: A top-level ``if TYPE_CHECKING:`` line and the indented or blank lines after it.
_TYPE_CHECKING_BLOCK = re.compile(r"^if TYPE_CHECKING:\n(?:(?:[ \t].*)?\n)*", re.MULTILINE)


def _declared_imports(module_name: str) -> dict[str, tuple[str, str]]:
    """``name -> (source module, attribute)`` of the module's TYPE_CHECKING imports."""
    module = sys.modules[module_name]
    path = module.__file__
    if path is None:
        raise ImportError(f"{module_name} has no source file to read its imports from")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    package = module.__package__ or ""
    declared: dict[str, tuple[str, str]] = {}
    # Only the blocks are parsed: a whole module costs as much as compiling it.
    for block in _TYPE_CHECKING_BLOCK.finditer(text):
        for statement in ast.walk(ast.parse(block.group())):
            if isinstance(statement, ast.ImportFrom):
                source = importlib.util.resolve_name(
                    "." * statement.level + (statement.module or ""), package
                )
                for alias in statement.names:
                    declared[alias.asname or alias.name] = (source, alias.name)
    return declared


def attach(module_name: str) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of module ``module_name``."""
    declared = _declared_imports(module_name)
    namespace = vars(sys.modules[module_name])

    def __getattr__(name: str) -> object:
        try:
            source, attribute = declared[name]
        except KeyError:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            ) from None
        if source == module_name:
            value: object = importlib.import_module(f"{source}.{attribute}")
        else:
            value = getattr(importlib.import_module(source), attribute)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | declared.keys())

    return __getattr__, __dir__
