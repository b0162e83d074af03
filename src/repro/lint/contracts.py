"""Cross-module contract rule ``C001``: store-key serializability.

The content-addressed store keys every cell by the canonical JSON of the
model dataclasses that describe it (``store/canonical.py``).  That encoder
fails loudly on values with no stable form — but only at run time, on the
first campaign that touches the offending field.  ``C001`` moves the check
to lint time: it indexes every dataclass in the scanned tree, takes the
ones defined in ``config/spec.py`` and under ``experiments/`` as roots
(these are what key construction canonicalizes), walks the field-annotation
closure, and flags any field whose declared type the canonical encoder
cannot represent (``Callable``, ``Any``, ``bytes``, ``Path``, classes that
are neither dataclasses nor enums, unresolvable names).

The walk is purely static — annotations only, no imports of the code under
analysis — so a field annotated ``object`` passes (the encoder handles it
by raising loudly at runtime, which is the documented contract for
escape-hatch fields), while a field annotated with a concrete
non-serializable type fails here, before it ships.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import ClassVar, Optional

from .framework import FileContext, Finding, ProjectRule, register_project_rule

__all__ = ["StoreKeyContractRule"]

#: Leaf annotation names the canonical encoder represents directly.
_ALLOWED_LEAVES = frozenset(
    {
        "str",
        "int",
        "float",
        "bool",
        "None",
        "NoneType",
        "object",
    }
)

#: Generic heads whose arguments we recurse into.
_ALLOWED_CONTAINERS = frozenset(
    {
        "list",
        "tuple",
        "dict",
        "set",
        "frozenset",
        "List",
        "Tuple",
        "Dict",
        "Set",
        "FrozenSet",
        "Sequence",
        "Mapping",
        "MutableMapping",
        "Optional",
        "Union",
        "Literal",
        "Final",
    }
)

#: Leaf names with a concrete reason in the message (everything else
#: unresolvable gets the generic "cannot prove serializable" text).
_FORBIDDEN_LEAVES = {
    "Any": "erases the type entirely — the encoder cannot be checked",
    "Callable": "functions have no canonical form",
    "bytes": "the canonical encoder has no bytes representation",
    "bytearray": "the canonical encoder has no bytes representation",
    "complex": "the canonical encoder has no complex representation",
    "Path": "paths are machine-local state, not experiment identity",
}

#: Module roots whose attribute types we accept wholesale: numpy scalars
#: and arrays collapse via item()/tolist() in the encoder.
_ALLOWED_MODULE_ROOTS = frozenset({"np", "numpy"})


@dataclass
class _ClassInfo:
    """One class definition found during indexing."""

    name: str
    node: ast.ClassDef
    context: FileContext
    is_dataclass: bool
    is_enum: bool


def _decorator_name(node: ast.expr) -> Optional[str]:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return None


_ENUM_BASES = frozenset({"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"})


def _index_classes(files: list[FileContext]) -> dict[str, _ClassInfo]:
    """Name -> class info over the whole scanned tree.

    Resolution is by bare class name — this codebase keeps model class
    names unique, and a duplicate would shadow arbitrarily; the first
    definition (stable file order) wins.
    """
    index: dict[str, _ClassInfo] = {}
    for context in files:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            is_dc = any(
                _decorator_name(dec) == "dataclass" for dec in node.decorator_list
            )
            base_names = {
                base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
                for base in node.bases
            }
            is_enum = bool(base_names & _ENUM_BASES)
            if node.name not in index:
                index[node.name] = _ClassInfo(
                    name=node.name,
                    node=node,
                    context=context,
                    is_dataclass=is_dc,
                    is_enum=is_enum,
                )
    return index


def _index_aliases(files: list[FileContext]) -> dict[str, ast.expr]:
    """Module-level type aliases (``Body = Union[A, B]``, ``X = A | B``).

    Only shapes that are recognizably type expressions are recorded — a
    ``Subscript`` (``Union[...]``, ``Optional[...]``, ``list[...]``) or a
    ``|``-union — so ordinary value assignments never masquerade as types.
    """
    aliases: dict[str, ast.expr] = {}
    for context in files:
        for stmt in context.tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(
                    stmt.value,
                    (ast.Subscript, ast.BinOp),
                )
            ):
                name = stmt.targets[0].id
                if name not in aliases:
                    aliases[name] = stmt.value
    return aliases


def _is_classvar(annotation: ast.expr) -> bool:
    head = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    name = head.attr if isinstance(head, ast.Attribute) else getattr(head, "id", "")
    return name == "ClassVar"


@register_project_rule
class StoreKeyContractRule(ProjectRule):
    """C001 — dataclasses reachable from store keys must serialize
    canonically (see module docstring)."""

    id: ClassVar[str] = "C001"
    title: ClassVar[str] = "store-key dataclass field not canonically serializable"

    #: Package-relative locations whose dataclasses seed the walk: the
    #: declarative spec layer and the experiment models are exactly what
    #:  grid/study key construction canonicalizes.
    ROOT_LOCATIONS: ClassVar[tuple[str, ...]] = ("config/spec.py", "experiments/")

    def _roots(self, index: dict[str, _ClassInfo]) -> list[_ClassInfo]:
        roots = []
        for info in index.values():
            if not info.is_dataclass:
                continue
            scoped = info.context.scope_path
            if scoped == self.ROOT_LOCATIONS[0] or scoped.startswith(
                self.ROOT_LOCATIONS[1:]
            ):
                roots.append(info)
        return sorted(roots, key=lambda info: (info.context.rel_path, info.node.lineno))

    # ------------------------------------------------------------------ #
    def _check_annotation(
        self,
        annotation: ast.expr,
        index: dict[str, _ClassInfo],
        queue: list[_ClassInfo],
        problems: list[str],
        _alias_depth: int = 0,
    ) -> None:
        """Validate one annotation expression, collecting problems and
        enqueueing referenced dataclasses for their own walk."""

        def recurse(node: ast.expr) -> None:
            self._check_annotation(node, index, queue, problems, _alias_depth)

        if isinstance(annotation, ast.Constant):
            if annotation.value is None or annotation.value is Ellipsis:
                return
            if isinstance(annotation.value, str):
                # string (forward-reference) annotation: parse and recurse
                try:
                    parsed = ast.parse(annotation.value, mode="eval").body
                except SyntaxError:
                    problems.append(f"unparseable annotation {annotation.value!r}")
                    return
                recurse(parsed)
                return
            return
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            recurse(annotation.left)
            recurse(annotation.right)
            return
        if isinstance(annotation, ast.Subscript):
            head = annotation.value
            head_name = (
                head.attr if isinstance(head, ast.Attribute) else getattr(head, "id", "")
            )
            if head_name in _ALLOWED_CONTAINERS:
                if head_name == "Literal":
                    return  # literal values are primitives by construction
                inner = annotation.slice
                elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
                for element in elements:
                    recurse(element)
                return
            # subscripted non-container (a generic dataclass, Callable[...])
            recurse(head)
            return
        if isinstance(annotation, ast.Tuple):
            for element in annotation.elts:
                recurse(element)
            return
        if isinstance(annotation, ast.Attribute):
            root = annotation
            while isinstance(root, ast.Attribute):
                root = root.value
            root_name = getattr(root, "id", "")
            if root_name in _ALLOWED_MODULE_ROOTS:
                return
            name = annotation.attr
        elif isinstance(annotation, ast.Name):
            name = annotation.id
        else:
            problems.append(
                f"annotation shape `{ast.unparse(annotation)}` not analyzable"
            )
            return

        if name in _ALLOWED_LEAVES or name in _ALLOWED_CONTAINERS:
            return
        if name in _FORBIDDEN_LEAVES:
            problems.append(f"`{name}`: {_FORBIDDEN_LEAVES[name]}")
            return
        info = index.get(name)
        if info is None:
            alias = self._aliases.get(name)
            if alias is not None and _alias_depth < 8:
                self._check_annotation(
                    alias, index, queue, problems, _alias_depth + 1
                )
                return
            problems.append(
                f"`{name}` is not resolvable to a dataclass or enum in the "
                "scanned tree — cannot prove it serializes canonically"
            )
            return
        if info.is_enum:
            return
        if info.is_dataclass:
            queue.append(info)
            return
        problems.append(
            f"`{name}` is a plain class (neither dataclass nor enum); "
            "store/canonical.canonical_json raises on it"
        )

    # ------------------------------------------------------------------ #
    def check(self, files: list[FileContext]) -> list[Finding]:
        index = _index_classes(files)
        self._aliases = _index_aliases(files)
        findings: list[Finding] = []
        queue = self._roots(index)
        seen: set[str] = set()
        while queue:
            info = queue.pop(0)
            if info.name in seen:
                continue
            seen.add(info.name)
            for stmt in info.node.body:
                if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                    stmt.target, ast.Name
                ):
                    continue
                if _is_classvar(stmt.annotation):
                    continue
                problems: list[str] = []
                self._check_annotation(stmt.annotation, index, queue, problems)
                for problem in problems:
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=info.context.rel_path,
                            line=stmt.lineno,
                            message=(
                                f"field `{stmt.target.id}` of store-key "
                                f"dataclass `{info.name}`: {problem}"
                            ),
                        )
                    )
        findings.sort(key=lambda f: (f.path, f.line, f.message))
        return findings
