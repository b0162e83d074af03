"""The ``reprolint`` scan driver: collect files, run rules, format output.

:func:`run_lint` is the single entry point used by the CLI, the tests and
CI.  It walks the requested paths, parses every ``.py`` file once, runs the
per-file rules (scope- and waiver-aware), runs the project rules over the
whole set, applies severity config and the optional baseline, and returns
a :class:`LintResult` whose :meth:`~LintResult.exit_code` encodes the
contract: ``0`` clean, ``1`` error findings present, ``2`` usage/baseline
problems (raised as exceptions by the callers).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

# Import the rule modules for their registration side effects.
from . import contracts as _contracts  # noqa: F401
from . import obs_rules as _obs_rules  # noqa: F401
from . import rules as _rules  # noqa: F401
from .baseline import Baseline
from .framework import (
    PROJECT_RULE_REGISTRY,
    RULE_REGISTRY,
    FileContext,
    Finding,
    all_rule_ids,
    parse_waivers,
    severity_for,
)

__all__ = [
    "LintResult",
    "run_lint",
    "collect_files",
    "format_text",
    "format_json",
    "all_rule_ids",
]

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".repro-store"})


@dataclass
class LintResult:
    """Outcome of one scan."""

    findings: list[Finding] = field(default_factory=list)
    n_files: int = 0
    n_baselined: int = 0
    #: Files that failed to parse: (path, message). Reported, and an error.
    parse_errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def exit_code(self) -> int:
        return 1 if (self.errors or self.parse_errors) else 0


def collect_files(paths: Sequence[Path]) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    out: set[Path] = set()
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                out.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    out.add(candidate)
        else:
            raise FileNotFoundError(f"lint path does not exist: {path}")
    return sorted(out)


def _relativize(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    paths: Sequence[Path],
    baseline: Optional[Baseline] = None,
    severity_overrides: Optional[Mapping[str, str]] = None,
    root: Optional[Path] = None,
) -> LintResult:
    """Scan ``paths`` and return the aggregated result.

    ``root`` anchors the reported relative paths (defaults to the current
    working directory, which is what the CLI and CI want); baseline entries
    match against those reported paths.
    """
    root = root or Path.cwd()
    result = LintResult()
    contexts: list[FileContext] = []

    for file_path in collect_files(paths):
        rel = _relativize(file_path, root)
        source = file_path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            result.parse_errors.append((rel, f"line {exc.lineno}: {exc.msg}"))
            continue
        contexts.append(
            FileContext(
                rel_path=rel,
                source=source,
                tree=tree,
                waivers=parse_waivers(source),
            )
        )
    result.n_files = len(contexts)

    findings: list[Finding] = []
    for context in contexts:
        for rule_id in sorted(RULE_REGISTRY):
            rule_cls = RULE_REGISTRY[rule_id]
            if not rule_cls.applies_to(context.rel_path):
                continue
            findings.extend(rule_cls(context).run())

    waivers_by_path = {context.rel_path: context.waivers for context in contexts}
    for rule_id in sorted(PROJECT_RULE_REGISTRY):
        for finding in PROJECT_RULE_REGISTRY[rule_id]().check(contexts):
            waived = waivers_by_path.get(finding.path, {}).get(finding.line, set())
            if finding.rule not in waived:
                findings.append(finding)

    if severity_overrides:
        findings = [
            Finding(
                rule=f.rule,
                path=f.path,
                line=f.line,
                message=f.message,
                severity=severity_for(f.rule, f.path, severity_overrides),
            )
            for f in findings
        ]

    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    if baseline is not None:
        findings, result.n_baselined = baseline.filter(findings)
    result.findings = findings
    return result


def format_text(result: LintResult) -> str:
    """Human-oriented report, one finding per line, stable order."""
    lines: list[str] = []
    for rel, message in result.parse_errors:
        lines.append(f"{rel}: PARSE ERROR: {message}")
    for f in result.findings:
        lines.append(f"{f.path}:{f.line}: {f.rule} [{f.severity}] {f.message}")
    summary = (
        f"{len(result.errors)} error(s), {len(result.warnings)} warning(s) "
        f"in {result.n_files} file(s)"
    )
    if result.n_baselined:
        summary += f"; {result.n_baselined} baselined finding(s) suppressed"
    lines.append(summary)
    return "\n".join(lines)


def format_json(result: LintResult) -> dict[str, object]:
    """Machine-oriented report — the schema ``--format json`` commits to.

    Top level: ``version`` (schema version), ``findings`` (sorted list of
    finding objects), ``counts`` (errors/warnings/files/baselined), and
    ``parse_errors``.  Additive changes bump nothing; removals or renames
    bump ``version``.
    """
    return {
        "version": 1,
        "findings": [f.as_dict() for f in result.findings],
        "counts": {
            "errors": len(result.errors),
            "warnings": len(result.warnings),
            "files": result.n_files,
            "baselined": result.n_baselined,
        },
        "parse_errors": [
            {"path": rel, "message": message}
            for rel, message in result.parse_errors
        ],
    }
