"""``docs/scenarios.md`` and ``docs/faults.md`` document exactly the declared spec keys.

Every key table of ``docs/scenarios.md`` (a markdown table whose first
column is ``key``) sits under a heading that names one spec table; its key
column must equal that table's declared key set — per scenario kind for
the ``[[scenarios]]`` tables.  A key column cell may hold several keys, and
a nested table appears as ``[parent.name]`` / ``[[parent.name]]``.

``docs/faults.md`` has one key table for the whole ``[faults]`` tree, whose
nested keys are spelled by path: ``windows[].start`` for a key of an array
of tables, ``random_windows.rate`` for a key of a table.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional

import pytest

from repro.config.schema import declared_keys
from repro.config.spec import (
    SCENARIO_KINDS,
    SCHEDULERS_KEYS,
    AnalysisSpec,
    AppSpec,
    BurstBufferTable,
    CongestedMomentsSpec,
    ExperimentSpec,
    FaultsSpec,
    Figure1Spec,
    Figure5Spec,
    Figure6Spec,
    Figure7Spec,
    OutputSpec,
    PeriodicSpec,
    PlatformSpec,
    ScenarioEntry,
    SchedulerCaseSpec,
    VestaSpec,
)

DOCS = Path(__file__).resolve().parents[1] / "docs"
DOC = DOCS / "scenarios.md"


def _keys(cls: type) -> set[str]:
    return {name for _, name, _ in declared_keys(cls)}


def _scenario_keys(kind: Optional[str]) -> set[str]:
    """``[[scenarios]]`` keys common to every kind (``None``) or only of ``kind``."""
    return {
        name
        for _, name, k in declared_keys(ScenarioEntry)
        if (k.kinds is None if kind is None else kind in (k.kinds or ()))
    }


#: (heading level, first code span of the heading) -> declared key set.
EXPECTED: dict[tuple[int, str], set[str]] = {
    (2, "[experiment]"): _keys(ExperimentSpec),
    (2, "[platform]"): _keys(PlatformSpec),
    (3, "[platform.burst_buffer]"): _keys(BurstBufferTable),
    (3, "[[scenarios]]"): _scenario_keys(None),
    **{(3, f'kind = "{kind}"'): _scenario_keys(kind) for kind in SCENARIO_KINDS},
    (4, "[[scenarios.apps]]"): _keys(AppSpec),
    (3, "[schedulers]"): set(SCHEDULERS_KEYS),
    (4, "[[schedulers.cases]]"): _keys(SchedulerCaseSpec),
    (3, "[faults]"): _keys(FaultsSpec),
    (2, 'kind = "figure6"'): _keys(Figure6Spec),
    (2, 'kind = "congested-moments"'): _keys(CongestedMomentsSpec),
    (2, 'kind = "vesta"'): _keys(VestaSpec),
    (2, 'kind = "periodic"'): _keys(PeriodicSpec),
    (2, 'kind = "analysis"'): _keys(AnalysisSpec),
    (4, "[analysis.figure1]"): _keys(Figure1Spec),
    (4, "[analysis.figure5]"): _keys(Figure5Spec),
    (4, "[analysis.figure7]"): _keys(Figure7Spec),
    (2, "[output]"): _keys(OutputSpec),
}


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def _key_names(cell: str) -> set[str]:
    """``"`small`, `large`"`` -> {small, large}; ``"`[[a.b]]`"`` -> {b}."""
    return {span.strip("[]").rsplit(".", 1)[-1] for span in re.findall(r"`([^`]+)`", cell)}


def _documented_tables() -> dict[tuple[int, str], list[set[str]]]:
    """Key column sets of every key table, by the heading above it."""
    tables: dict[tuple[int, str], list[set[str]]] = {}
    heading: Optional[tuple[int, str]] = None
    in_code = False
    in_key_table = False
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        match = re.match(r"(#+) .*?`([^`]+)`", line)
        if match:
            heading = (len(match.group(1)), match.group(2))
            continue
        if not line.startswith("|"):
            in_key_table = False
            continue
        cells = _cells(line)
        if not in_key_table:
            in_key_table = cells[0] == "key"
            if in_key_table:
                assert heading is not None, "key table before any heading"
                tables.setdefault(heading, []).append(set())
            continue
        if set(cells[0]) <= {"-", " "}:
            continue
        tables[heading][-1] |= _key_names(cells[0])
    return tables


DOCUMENTED = _documented_tables()


def test_every_key_table_names_a_declared_table() -> None:
    unmapped = sorted(set(DOCUMENTED) - set(EXPECTED))
    assert not unmapped, f"key tables under headings with no declaration: {unmapped}"


@pytest.mark.parametrize("heading", sorted(EXPECTED), ids=lambda h: f"{'#' * h[0]} {h[1]}")
def test_key_table_matches_declarations(heading: tuple[int, str]) -> None:
    assert heading in DOCUMENTED, f"no key table under {heading}"
    (documented,) = DOCUMENTED[heading]
    declared = EXPECTED[heading]
    assert documented == declared, (
        f"undocumented: {sorted(declared - documented)}, "
        f"not declared: {sorted(documented - declared)}"
    )


def _key_paths(cls: type, prefix: str = "") -> set[str]:
    """Declared keys of ``cls`` with nested tables spelled by path."""
    paths = set()
    for _, name, declared in declared_keys(cls):
        if declared.table is None:
            paths.add(prefix + name)
        else:
            joint = "[]." if declared.kind == "tables" else "."
            paths |= _key_paths(declared.table, prefix + name + joint)
    return paths


def _faults_doc_keys() -> set[str]:
    """The key column of the key table in ``docs/faults.md``."""
    keys: set[str] = set()
    in_key_table = False
    for line in (DOCS / "faults.md").read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            in_key_table = False
            continue
        first = _cells(line)[0]
        if first == "key":
            in_key_table = True
        elif in_key_table and not set(first) <= {"-", " "}:
            keys |= set(re.findall(r"`([^`]+)`", first))
    return keys


def test_faults_doc_key_table_matches_declarations() -> None:
    documented = _faults_doc_keys()
    declared = _key_paths(FaultsSpec)
    assert documented == declared, (
        f"undocumented: {sorted(declared - documented)}, "
        f"not declared: {sorted(documented - declared)}"
    )
