"""Declarative scenario/experiment configs (the layer behind ``repro run``).

A *spec* is a TOML or JSON file (or a plain dict) that fully determines a
reproducible experiment: platform, application scenarios with pinned seeds,
scheduler list, truncation horizon and output destination.  The subsystem
splits into six small modules:

* :mod:`repro.config.schema` — key declarations, the one walker that reads
  them, and typed key extraction with path-aware errors
  (``scenarios[0].io_ratio must be a number``);
* :mod:`repro.config.spec` — the validated spec dataclasses, whose fields
  declare every key, and :func:`~repro.config.spec.parse_spec`;
* :mod:`repro.config.loader` — :func:`~repro.config.loader.load_spec` for
  ``.toml`` / ``.json`` files;
* :mod:`repro.config.build` / :mod:`repro.config.run` — spec → live model
  objects → executed results (JSON/CSV dumps included);
* :mod:`repro.config.kinds` — :data:`~repro.config.kinds.KINDS`, the one
  table that maps each experiment kind to its parser, horizon rule,
  build-time check and runner.

Quickstart::

    from repro.config import load_spec, run_spec

    spec = load_spec("examples/specs/figure6.toml")
    result = run_spec(spec.with_overrides(max_time=2000.0))
    print(result.text)

See ``docs/scenarios.md`` for the full key reference.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.config.build import (
        build_burst_buffer_platform,
        build_cases,
        build_entry_scenarios,
        build_grid_scenarios,
        build_periodic_setup,
        build_platform,
    )
    from repro.config.kinds import EXPERIMENT_KINDS, KINDS, Kind
    from repro.config.loader import load_spec, load_spec_data, parse_spec_text
    from repro.config.run import SpecRunResult, run_spec, write_result
    from repro.config.schema import Section, SpecError
    from repro.config.spec import (
        ANALYSIS_FIGURES,
        PERIODIC_HEURISTICS,
        SCENARIO_KINDS,
        AnalysisSpec,
        AppSpec,
        BurstBufferTable,
        CongestedMomentsSpec,
        CrashSpec,
        ExperimentSpec,
        FaultsSpec,
        FaultWindowSpec,
        Figure1Spec,
        Figure5Spec,
        Figure6Spec,
        Figure7Spec,
        GridSpec,
        OutputSpec,
        PeriodicSpec,
        PlatformSpec,
        RandomCrashesSpec,
        RandomWindowsSpec,
        ScenarioEntry,
        SchedulerCaseSpec,
        VestaSpec,
        check_scheduler_name,
        parse_spec,
    )


__all__ = [
    "SpecError",
    "Section",
    "EXPERIMENT_KINDS",
    "KINDS",
    "Kind",
    "SCENARIO_KINDS",
    "PlatformSpec",
    "BurstBufferTable",
    "AppSpec",
    "ScenarioEntry",
    "SchedulerCaseSpec",
    "OutputSpec",
    "FaultWindowSpec",
    "CrashSpec",
    "RandomWindowsSpec",
    "RandomCrashesSpec",
    "FaultsSpec",
    "GridSpec",
    "Figure6Spec",
    "CongestedMomentsSpec",
    "VestaSpec",
    "PeriodicSpec",
    "AnalysisSpec",
    "Figure1Spec",
    "Figure5Spec",
    "Figure7Spec",
    "PERIODIC_HEURISTICS",
    "ANALYSIS_FIGURES",
    "ExperimentSpec",
    "check_scheduler_name",
    "parse_spec",
    "parse_spec_text",
    "load_spec",
    "load_spec_data",
    "build_platform",
    "build_burst_buffer_platform",
    "build_entry_scenarios",
    "build_grid_scenarios",
    "build_cases",
    "build_periodic_setup",
    "SpecRunResult",
    "run_spec",
    "write_result",
]

__getattr__, __dir__ = attach(__name__)
