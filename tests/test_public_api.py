"""The public API of every ``repro`` package, pinned.

Each package ``__init__`` resolves its names lazily (:mod:`repro._lazy`),
so nothing but these tests notices a name that stopped resolving, or one
that resolves to a different object than the module defining it holds.
``PUBLIC_API`` lists, per package, the names of its ``__all__`` grouped by
the module that holds them.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")

PUBLIC_API: dict[str, dict[str, tuple[str, ...]]] = {
    "repro.analysis": {
        "repro.analysis.sensitivity": (
            "FIGURE7_SCHEDULERS", "SensitivityPoint", "SensitivityStudy",
            "sensitivity_study",
        ),
        "repro.analysis.throughput": ("ThroughputDecreaseStudy", "throughput_decrease_study"),
        "repro.analysis.usage": (
            "UsageByCategory", "characterize", "daily_usage", "io_time_percentage",
        ),
    },
    "repro.campaign": {
        "repro.campaign.coordinator": (
            "CampaignCoordinator", "campaign_status", "resume_campaign", "run_campaign",
        ),
        "repro.campaign.journal": (
            "CampaignJournal", "JournalState", "read_journal", "replay_journal",
        ),
        "repro.campaign.mailbox": ("MailboxReader", "MailboxWriter"),
        "repro.campaign.model": (
            "CampaignConfig", "CampaignResult", "QuarantinedCell", "backoff_seconds",
        ),
        "repro.campaign.plan": (
            "CampaignCell", "CampaignPlan", "campaign_id_for", "plan_campaign",
        ),
    },
    "repro.config": {
        "repro.config.build": (
            "build_burst_buffer_platform", "build_cases", "build_entry_scenarios",
            "build_grid_scenarios", "build_periodic_setup", "build_platform",
        ),
        "repro.config.kinds": ("EXPERIMENT_KINDS", "KINDS", "Kind"),
        "repro.config.loader": ("load_spec", "load_spec_data", "parse_spec_text"),
        "repro.config.run": ("SpecRunResult", "run_spec", "write_result"),
        "repro.config.schema": ("Section", "SpecError"),
        "repro.config.spec": (
            "ANALYSIS_FIGURES", "AnalysisSpec", "AppSpec", "BurstBufferTable",
            "CongestedMomentsSpec", "CrashSpec", "ExperimentSpec", "FaultWindowSpec",
            "FaultsSpec", "Figure1Spec", "Figure5Spec", "Figure6Spec", "Figure7Spec",
            "GridSpec", "OutputSpec", "PERIODIC_HEURISTICS", "PeriodicSpec",
            "PlatformSpec", "RandomCrashesSpec", "RandomWindowsSpec", "SCENARIO_KINDS",
            "ScenarioEntry", "SchedulerCaseSpec", "VestaSpec", "check_scheduler_name",
            "parse_spec",
        ),
    },
    "repro.core": {
        "repro.core.allocation": ("BandwidthAllocation",),
        "repro.core.application": ("Application", "Instance", "total_processors"),
        "repro.core.events": ("Event", "EventLog", "EventType"),
        "repro.core.objectives": (
            "ApplicationOutcome", "ObjectiveSummary", "achieved_efficiency",
            "application_dilation", "max_dilation", "mean_dilation", "optimal_efficiency",
            "summarize", "system_efficiency", "system_efficiency_upper_limit",
        ),
        "repro.core.platform": (
            "BurstBufferSpec", "Platform", "generic", "intrepid", "mira", "vesta",
        ),
        "repro.core.scenario": ("Scenario",),
    },
    "repro.experiments": {
        "repro.experiments.comparison": (
            "CongestedMomentsResult", "FIGURE6_SCENARIOS", "FIGURE6_SCHEDULERS",
            "Figure6Result", "HeuristicAverages", "TABLE_SCHEDULERS",
            "congested_moments_experiment", "figure6_experiment",
        ),
        "repro.experiments.overhead": (
            "DEFAULT_OVERHEAD", "OverheadModel", "scenario_overhead_fractions",
        ),
        "repro.experiments.reporting": (
            "format_mapping", "format_series", "format_table", "grid_records", "percent",
            "ratio", "write_csv", "write_json",
        ),
        "repro.experiments.runner": (
            "CaseResult", "ExperimentGrid", "SchedulerCase", "map_parallel",
            "resolve_workers", "run_case", "run_grid",
        ),
        "repro.experiments.vesta": (
            "VESTA_CONFIGURATIONS", "VestaCase", "VestaExperimentResult",
            "figure14_overheads", "figure16_per_application_dilation", "run_vesta_case",
            "score_with_overhead", "vesta_experiment",
        ),
    },
    "repro.faults": {
        "repro.faults.model": ("BandwidthWindow", "CrashEvent", "FaultModel", "FaultTimeline"),
        "repro.faults.sampling": ("sample_crashes", "sample_windows"),
    },
    "repro.lint": {
        "repro.lint.baseline": ("Baseline", "BaselineError", "load_baseline", "write_baseline"),
        "repro.lint.framework": (
            "Finding", "PROJECT_RULE_REGISTRY", "PROTECTED_PREFIXES", "RULE_REGISTRY",
            "all_rule_ids",
        ),
        "repro.lint.runner": (
            "LintResult", "collect_files", "format_json", "format_text", "run_lint",
        ),
    },
    "repro.obs": {
        "repro.obs.telemetry": (
            "Counter", "Gauge", "Histogram", "MetricsRegistry", "Recorder", "SpanRecord",
            "recorder", "span", "stage",
        ),
    },
    "repro.online": {
        "repro.online.base": ("OnlineScheduler",),
        "repro.online.baselines": (
            "FCFS", "FairShare", "intrepid_scheduler", "ior_scheduler", "mira_scheduler",
            "vesta_scheduler",
        ),
        "repro.online.heuristics": ("MaxSysEff", "MinDilation", "MinMaxGamma", "RoundRobin"),
        "repro.online.priority": ("Priority",),
        "repro.online.registry": (
            "available_schedulers", "figure6_suite", "make_scheduler", "paper_heuristics",
            "tables_suite",
        ),
    },
    "repro.periodic": {
        "repro.periodic.heuristics": (
            "InsertInScheduleCong", "InsertInScheduleThrou", "PeriodicHeuristic",
        ),
        "repro.periodic.insertion": ("GreedyInserter",),
        "repro.periodic.period_search": ("PeriodSearchResult", "minimum_period", "search_period"),
        "repro.periodic.schedule": ("PeriodicSchedule", "ScheduledInstance"),
    },
    "repro.report": {
        "repro.report.build": ("RenderedFigure", "ReportResult", "SpecSection", "build_report"),
        "repro.report.charts": ("matplotlib_available", "render_png", "render_text"),
        "repro.report.figures": ("FigureData", "extract_figures"),
    },
    "repro.simulator": {
        "repro.simulator.bandwidth": ("fair_share", "favor_in_order", "single_application_rate"),
        "repro.simulator.burst_buffer": ("BurstBufferState",),
        "repro.simulator.engine": (
            "SimulationError", "Simulator", "SimulatorConfig", "StallError", "simulate",
        ),
        "repro.simulator.interface": (
            "ApplicationPhase", "ApplicationView", "GrantOrder", "SchedulerProtocol",
            "SystemView",
        ),
        "repro.simulator.interference": (
            "DEFAULT_INTERFERENCE", "InterferenceModel", "NO_INTERFERENCE",
        ),
        "repro.simulator.metrics": (
            "ApplicationRecord", "BurstBufferStats", "FaultStats", "InstanceRecord",
            "SimulationResult",
        ),
        "repro.simulator.reference": ("ReferenceSimulator", "reference_simulate"),
        "repro.core.allocation": ("BandwidthAllocation",),
    },
    "repro.store": {
        "repro.store.canonical": (
            "CanonicalizationError", "canonical_json", "digest", "digest_grid",
        ),
        "repro.store.fingerprint": (
            "PRODUCING_PACKAGES", "clear_fingerprint_cache", "code_fingerprint",
        ),
        "repro.store.merge": ("MergeReport", "StoreMergeError", "merge_stores"),
        "repro.store.store": (
            "ResultStore", "StoreCollisionError", "StoreEntryInfo", "StoreStats",
            "default_store_path",
        ),
    },
    "repro.utils": {
        "repro.utils.io": ("atomic_write_bytes", "atomic_write_text"),
        "repro.utils.rng": ("RngLike", "as_rng", "spawn_rngs"),
        "repro.utils.units": (
            "GB", "GIB", "KB", "MB", "MIB", "TB", "format_bandwidth", "format_bytes",
            "format_duration",
        ),
        "repro.utils.validation": (
            "ValidationError", "check_finite", "check_in_range", "check_non_negative",
            "check_positive",
        ),
    },
    "repro.workload": {
        "repro.workload.categories": (
            "CATEGORY_PROFILES", "Category", "CategoryProfile", "categorize",
        ),
        "repro.workload.congested": (
            "CongestedMomentSpec", "N_INTREPID_MOMENTS", "N_MIRA_MOMENTS",
            "generate_congested_moment", "intrepid_congested_moments",
            "mira_congested_moments",
        ),
        "repro.workload.darshan": (
            "DarshanRecord", "generate_records", "load_records", "record_to_application",
            "replicate_uncovered", "save_records",
        ),
        "repro.workload.generator": (
            "MixSpec", "apply_sensibility", "figure6_mix", "generate_application",
            "generate_mix",
        ),
        "repro.workload.ior": ("IORGroup", "VESTA_SCENARIOS", "ior_scenario", "parse_scenario"),
    },
}

#: The subpackages ``import repro`` exposes as attributes.
TOP_LEVEL = ("core", "simulator", "online", "periodic", "workload", "experiments",
             "analysis", "config")


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=REPO_ROOT, env=env, timeout=120,
    )


@pytest.mark.parametrize("package", sorted(PUBLIC_API))
def test_all_lists_exactly_the_pinned_names(package):
    names = importlib.import_module(package).__all__
    assert len(names) == len(set(names)), f"{package}.__all__ repeats a name"
    pinned = {name for group in PUBLIC_API[package].values() for name in group}
    assert set(names) == pinned


@pytest.mark.parametrize("package", sorted(PUBLIC_API))
def test_every_name_is_the_object_its_module_holds(package):
    for source, names in PUBLIC_API[package].items():
        holder = importlib.import_module(source)
        for name in names:
            exported = getattr(importlib.import_module(package), name)
            assert exported is getattr(holder, name), f"{package}.{name}"


@pytest.mark.parametrize("package", sorted(PUBLIC_API))
def test_dir_lists_every_public_name(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


def test_top_level_package():
    import repro

    assert repro.__all__ == [*TOP_LEVEL, "__version__"]
    assert set(repro.__all__) <= set(dir(repro))
    for name in TOP_LEVEL:
        assert getattr(repro, name) is importlib.import_module(f"repro.{name}")


def test_every_name_resolves_in_a_fresh_interpreter():
    """``from repro.<pkg> import <name>`` for every name, with nothing loaded.

    In-process, other tests have already imported most modules; a fresh
    interpreter is where an import cycle or a misdeclared name would show.
    """
    code = f"""
import importlib, json
api = json.loads({json.dumps(json.dumps(PUBLIC_API))})
for package, groups in api.items():
    for source, names in groups.items():
        for name in names:
            exec(f"from {{package}} import {{name}} as value")
            assert value is getattr(importlib.import_module(source), name), (package, name)
print("ok")
"""
    done = _fresh_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]


def test_package_docstring_quickstart_runs():
    import repro

    code = repro.__doc__.split("Quickstart::", 1)[1]
    done = _fresh_python(code.replace("\n    ", "\n"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ObjectiveSummary(system_efficiency=")


def test_readme_quickstart_runs():
    """The README's first command, ``repro quickstart``."""
    assert "$ repro quickstart" in (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    done = _fresh_python("import sys; from repro.cli import main; sys.exit(main(['quickstart']))")
    assert done.returncode == 0, done.stderr
    for scheduler in ("FairShare", "MaxSysEff", "MinDilation"):
        assert scheduler in done.stdout
