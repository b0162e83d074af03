"""Execute a parsed experiment spec and package the results.

:func:`run_spec` is the single entry point behind ``repro run``: it looks
the experiment kind up in :data:`repro.config.kinds.KINDS` and calls the
kind's runner below, which drives the corresponding harness
(:func:`repro.experiments.runner.run_grid`,
:func:`repro.experiments.comparison.figure6_experiment`,
:func:`repro.experiments.comparison.congested_moments_experiment`,
:func:`repro.experiments.vesta.vesta_experiment`,
:func:`repro.periodic.period_search.search_period` for ``periodic`` specs,
or the :mod:`repro.analysis` studies for ``analysis`` specs) and returns a
:class:`SpecRunResult` carrying three synchronized views of the outcome:

* ``payload`` — a JSON-serializable dict (spec echo + per-cell records +
  averages), the round-trip artefact a spec fully determines;
* ``records`` — flat per-cell rows for CSV;
* ``text`` — the aligned plain-text tables printed to the terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from repro.analysis.sensitivity import sensitivity_study
from repro.analysis.throughput import throughput_decrease_study
from repro.analysis.usage import characterize
from repro.config.build import (
    analysis_seed_slots,
    build_cases,
    build_grid_scenarios,
    build_periodic_setup,
    build_platform,
)
from repro.config.schema import SpecError
from repro.config.spec import (
    PERIODIC_HEURISTIC_TABLE,
    AnalysisSpec,
    CongestedMomentsSpec,
    ExperimentSpec,
    Figure6Spec,
    GridSpec,
    PeriodicSpec,
    VestaSpec,
)
from repro.core.scenario import Scenario
from repro.experiments.comparison import (
    congested_moments_experiment,
    figure6_experiment,
)
from repro.experiments.reporting import (
    format_table,
    grid_records,
    percent,
    ratio,
    resilience_records,
    write_csv,
    write_json,
)
from repro.experiments.runner import ExperimentExecutor, SchedulerCase, run_grid
from repro.experiments.vesta import vesta_experiment
from repro.obs.telemetry import recorder as _obs_recorder
from repro.periodic.period_search import search_period
from repro.store import (
    ResultStore,
    StoreStats,
    canonical_json,
    code_fingerprint,
    digest,
)
from repro.workload.darshan import generate_records

__all__ = ["SpecRunResult", "run_spec", "write_result"]

#: Process-wide telemetry funnel.  The ``build`` / ``run`` / ``report``
#: stage markers below are what ``--trace`` renders as top-level lanes,
#: what ``--profile DIR`` profiles, and what ``--metrics`` snapshots
#: after; they are no-ops unless the CLI enabled the recorder and they
#: never influence payloads (see docs/observability.md).  Status events
#: (``_OBS.event``) reach the installed sinks whether or not it is enabled.
_OBS = _obs_recorder()


@dataclass
class SpecRunResult:
    """Everything one spec run produced (see module docstring)."""

    spec: ExperimentSpec
    payload: dict
    records: list[dict]
    text: str
    #: Hit/miss counters of the attached result store for this run (``None``
    #: when the run was uncached).  Deliberately *not* part of ``payload``:
    #: a cached rerun must stay byte-identical to the cold run it replays.
    store_stats: Optional[dict] = None

    def write(self, path: Optional[str] = None, format: Optional[str] = None) -> Optional[Path]:
        """Write the results to disk; see :func:`write_result`."""
        return write_result(self, path=path, format=format)


#: What a kind's runner returns: the payload after its ``experiment``
#: header, the per-cell records and the text tables.
_RunOutput = tuple[dict, list[dict], str]


def _averages_rows(averages: dict[str, dict[str, float]]) -> list[list[object]]:
    # Pre-format through the percent/ratio helpers: a truncated run can leave
    # a NaN/inf dilation, which must render as "-"/"inf", not as ":.2f" noise.
    return [
        [
            scheduler,
            percent(metrics["system_efficiency"]),
            ratio(metrics["dilation"]),
            percent(metrics["upper_limit"]),
        ]
        for scheduler, metrics in averages.items()
    ]


_AVERAGES_HEADERS = ["Scheduler", "SysEfficiency (%)", "Dilation", "Upper limit (%)"]


# ---------------------------------------------------------------------- #
def _run_grid_spec(
    spec: ExperimentSpec, body: GridSpec,
    executor: ExperimentExecutor, store: Optional[ResultStore],
) -> _RunOutput:
    with _OBS.stage("build", kind=spec.kind):
        scenarios = build_grid_scenarios(body, spec.seed, max_time=spec.max_time)
        cases = build_cases(body)
    with _OBS.stage("run", kind=spec.kind):
        grid = run_grid(scenarios, cases, max_time=spec.max_time,
                        executor=executor, store=store)
    with _OBS.stage("report", kind=spec.kind):
        return _grid_spec_report(spec, body, scenarios, grid)


def _grid_spec_report(
    spec: ExperimentSpec,
    body: GridSpec,
    scenarios: list[Scenario],
    grid,
) -> _RunOutput:
    """Assemble the grid payload/records/tables (the ``report`` stage)."""
    records = grid_records(grid)
    averages = grid.averages()
    payload = {
        "platform": build_platform(body.platform).name,
        "n_scenarios": len(scenarios),
        "n_cells": len(records),
        "cells": records,
        "averages": averages,
    }
    if any(entry.platform is not None for entry in body.scenarios):
        # Per-entry platform overrides: the single grid-level name above
        # would misattribute those cells, so record the real machine per
        # scenario.  (Keyed on overrides, not on name differences — an
        # override may coincidentally reuse the grid platform's name.)
        payload["scenario_platforms"] = {
            s.label: s.platform.name for s in scenarios
        }
    text = format_table(
        _AVERAGES_HEADERS,
        _averages_rows(averages),
        title=f"{spec.name}: averages over {len(scenarios)} scenario(s)",
    )
    resilience = resilience_records(grid)
    if resilience:
        # Keys present only for faulted grids: healthy payloads stay
        # byte-identical to pre-fault-subsystem artefacts.
        payload["resilience"] = resilience
        text += "\n" + format_table(
            ["Scheduler", "Retained (%)", "Crashes", "Brown-out (s)",
             "Stall (s)", "Recovery I/O"],
            [
                [
                    str(row["scheduler"]),
                    percent(row["throughput_retained"]),
                    str(row["total_crashes"]),
                    ratio(row["mean_brownout_time"]),
                    ratio(row["mean_stall_time"]),
                    ratio(row["mean_recovery_io"]),
                ]
                for row in resilience
            ],
            title=(
                f"Resilience under fault injection "
                f"({resilience[0]['n_faulted_cells']} faulted scenario(s) "
                "per scheduler)"
            ),
        )
    return payload, records, text


def _run_figure6_spec(
    spec: ExperimentSpec, body: Figure6Spec,
    executor: ExperimentExecutor, store: Optional[ResultStore],
) -> _RunOutput:
    with _OBS.stage("build", kind=spec.kind):
        platform = (
            build_platform(body.platform) if body.platform is not None else None
        )
    records: list[dict] = []
    panels_payload: dict[str, dict] = {}
    blocks: list[str] = []
    with _OBS.stage("run", kind=spec.kind):
        for i, panel in enumerate(body.panels):
            result = figure6_experiment(
                panel,
                n_repetitions=body.n_repetitions,
                schedulers=body.schedulers,
                platform=platform,
                rng=spec.seed,
                max_time=spec.max_time,
                executor=executor,
                store=store,
            )
            if _OBS.sinks:
                _OBS.event(
                    "progress", step="panel", panel=panel,
                    message=f"panel {panel}: {i + 1}/{len(body.panels)} done",
                )
            averages = {
                scheduler: {
                    "system_efficiency": avg.system_efficiency,
                    "dilation": avg.dilation,
                    "upper_limit": avg.upper_limit,
                }
                for scheduler, avg in result.averages.items()
            }
            panels_payload[panel] = averages
            for scheduler, metrics in averages.items():
                records.append({"panel": panel, "scheduler": scheduler, **metrics})
            blocks.append(format_table(
                _AVERAGES_HEADERS,
                _averages_rows(averages),
                title=f"Figure 6 — {panel} ({body.n_repetitions} mixes)",
            ))
    payload = {
        "n_repetitions": body.n_repetitions,
        "panels": panels_payload,
        "cells": records,
    }
    return payload, records, "\n".join(blocks)


def _run_congested_spec(
    spec: ExperimentSpec, body: CongestedMomentsSpec,
    executor: ExperimentExecutor, store: Optional[ResultStore],
) -> _RunOutput:
    with _OBS.stage("run", kind=spec.kind):
        result = congested_moments_experiment(
            body.machine,
            n_moments=body.n_moments,
            schedulers=body.schedulers,
            rng=spec.seed,
            priority_only=body.priority_only,
            max_time=spec.max_time,
            executor=executor,
            store=store,
        )
    with _OBS.stage("report", kind=spec.kind):
        records = grid_records(result.grid)
        averages = result.grid.averages()
        payload = {
            "machine": body.machine,
            "n_moments": len(result.grid.scenarios()),
            "baseline": result.baseline_label,
            "mean_upper_limit": result.mean_upper_limit(),
            "cells": records,
            "averages": averages,
        }
        text = format_table(
            _AVERAGES_HEADERS,
            _averages_rows(averages),
            title=(
                f"Congested moments on {body.machine} "
                f"({len(result.grid.scenarios())} moments; "
                f"baseline {result.baseline_label} runs with burst buffers)"
            ),
        )
        return payload, records, text


def _run_vesta_spec(
    spec: ExperimentSpec, body: VestaSpec,
    executor: ExperimentExecutor, store: Optional[ResultStore],
) -> _RunOutput:
    with _OBS.stage("run", kind=spec.kind):
        result = vesta_experiment(
            scenarios=body.scenarios,
            configurations=body.configurations,
            rng=spec.seed,
            executor=executor,
            store=store,
        )
    with _OBS.stage("report", kind=spec.kind):
        records = [
            {
                "scenario": case.scenario,
                "configuration": case.configuration,
                "system_efficiency": case.summary.system_efficiency,
                "dilation": case.summary.dilation,
                "upper_limit": case.summary.upper_limit,
                "makespan": case.makespan,
            }
            for case in result.cases
        ]
        payload = {
            "scenarios": list(body.scenarios),
            "configurations": list(body.configurations),
            "cells": records,
        }
        rows = [
            [r["scenario"], r["configuration"],
             percent(r["system_efficiency"]), ratio(r["dilation"])]
            for r in records
        ]
        text = format_table(
            ["Node mix", "Configuration", "SysEfficiency (%)", "Dilation"],
            rows,
            title=(
                f"{spec.name}: Vesta / modified-IOR emulation "
                "(Figure 15 grid)"
            ),
        )
        return payload, records, text


def _memoized_study(store, key, compute, *args) -> tuple[dict, bool]:
    """One study, served from ``store`` when present: ``(value, cached)``.

    A study (a period sweep, an analysis figure) memoizes as one unit, not
    as a grid of cells.  ``key()`` derives the store key; it runs only with
    a store attached, so an uncached run never hashes anything.
    ``compute(*args)`` returns the JSON-able value a hit replays.
    """
    if store is None:
        return compute(*args), False
    study_key = key()
    cached = store.get(study_key)
    if cached is not None:
        return cached, True
    value = compute(*args)
    store.put(study_key, value)
    return value, False


def _periodic_study(key: str, body: PeriodicSpec, platform, applications) -> dict:
    """The period sweep of one ``[periodic].heuristics`` entry."""
    heuristic_cls, objective = PERIODIC_HEURISTIC_TABLE[key]
    heuristic = heuristic_cls()
    result = search_period(
        heuristic,
        platform,
        applications,
        objective=objective,
        epsilon=body.epsilon,
        max_period=body.max_period,
        max_period_factor=body.max_period_factor,
    )
    summary = result.best_schedule.summary()
    counts = result.best_schedule.instances_per_application()
    fragment = {
        "heuristic": heuristic.name,
        "objective": objective,
        "best_period": result.best_period,
        "system_efficiency": summary.system_efficiency,
        "dilation": summary.dilation,
        "n_instances_per_period": sum(counts.values()),
        "complete": result.best_schedule.is_complete(),
        "sweep": [
            {
                "period": point.period,
                "system_efficiency": point.system_efficiency,
                "dilation": point.dilation,
                "complete": point.complete,
            }
            for point in result.sweep
        ],
    }
    record = {
        "mode": "periodic",
        "scheduler": heuristic.name,
        "objective": objective,
        "system_efficiency": summary.system_efficiency,
        "dilation": summary.dilation,
        "period": result.best_period,
    }
    row = [
        f"{heuristic.name} (periodic)",
        percent(summary.system_efficiency),
        ratio(summary.dilation),
        ratio(result.best_period),
    ]
    return {"fragment": fragment, "record": record, "row": row}


def _run_periodic_spec(
    spec: ExperimentSpec, body: PeriodicSpec,
    executor: ExperimentExecutor, store: Optional[ResultStore],
) -> _RunOutput:
    with _OBS.stage("build", kind=spec.kind):
        platform, applications = build_periodic_setup(body, spec.seed)
    records: list[dict] = []
    rows: list[list[object]] = []
    periodic_payload: dict[str, dict] = {}
    with _OBS.stage("run", kind=spec.kind):
        # One study per heuristic: the key digests the built platform +
        # applications (capturing the seed-derived mix), the sweep knobs
        # and the producing-code fingerprint.
        study_prefix = None
        if store is not None:
            study_prefix = digest(
                "periodic-study",
                code_fingerprint(),
                canonical_json(platform),
                canonical_json(applications),
                body.epsilon,
                body.max_period,
                body.max_period_factor,
            )
        for key in body.heuristics:
            objective = PERIODIC_HEURISTIC_TABLE[key][1]
            study, _ = _memoized_study(
                store,
                lambda: digest(study_prefix, key, objective),
                _periodic_study, key, body, platform, applications,
            )
            fragment = study["fragment"]
            periodic_payload[key] = fragment
            records.append(study["record"])
            rows.append(study["row"])
            if _OBS.sinks:
                _OBS.event(
                    "progress", step="sweep", heuristic=key,
                    message=f"periodic {key}: swept {len(fragment['sweep'])} "
                            f"periods, best T = {fragment['best_period']:.6g} s",
                )

        online_payload: dict[str, dict] = {}
        if body.online:
            scenario = Scenario(
                platform=platform,
                applications=tuple(applications),
                label=f"{spec.name}-apps",
                metadata={"kind": "periodic"},
            )
            cases = [SchedulerCase(name=name) for name in body.online]
            # No max_time: the kind's horizon rule pins it to inf, and the
            # online half must structurally run to completion to stay
            # comparable with the steady-state schedules.
            grid = run_grid(
                [scenario],
                cases,
                executor=executor,
                store=store,
            )
            for case in grid.cases:
                online_payload[case.scheduler_label] = {
                    "system_efficiency": case.system_efficiency,
                    "dilation": case.dilation,
                    "upper_limit": case.upper_limit,
                    "makespan": case.makespan,
                }
                records.append(
                    {
                        "mode": "online",
                        "scheduler": case.scheduler_label,
                        "system_efficiency": case.system_efficiency,
                        "dilation": case.dilation,
                        "makespan": case.makespan,
                    }
                )
                rows.append(
                    [
                        f"{case.scheduler_label} (online)",
                        percent(case.system_efficiency),
                        ratio(case.dilation),
                        "-",
                    ]
                )

    with _OBS.stage("report", kind=spec.kind):
        payload = {
            "platform": platform.name,
            "n_applications": len(applications),
            "applications": [
                {
                    "name": app.name,
                    "processors": app.processors,
                    "work": app.instances[0].work,
                    "io_volume": app.instances[0].io_volume,
                    "instances": app.n_instances,
                }
                for app in applications
            ],
            "periodic": periodic_payload,
            "online": online_payload,
        }
        text = format_table(
            ["Case", "SysEfficiency (%)", "Dilation", "Best period T (s)"],
            rows,
            title=(
                f"{spec.name}: Section 3.2 periodic heuristics vs online "
                f"({len(applications)} applications on {platform.name})"
            ),
        )
        return payload, records, text


def _analysis_figure1(
    spec: ExperimentSpec, body: AnalysisSpec, platform, rng, executor: ExperimentExecutor
) -> dict:
    """Figure 1: the throughput-decrease replay."""
    f1 = body.figure1
    study = throughput_decrease_study(
        f1.n_applications,
        platform=platform,
        applications_per_batch=f1.applications_per_batch,
        io_ratio=f1.io_ratio,
        release_spread=f1.release_spread,
        rng=rng,
        bin_width=f1.bin_width,
        max_time=spec.max_time,
        executor=executor,
    )
    fragment = {
        "n_applications_requested": study.n_applications_requested,
        "n_applications": study.n_applications,
        "mean_decrease": study.mean_decrease,
        "max_decrease": study.max_decrease,
        "fraction_above_30pct": study.fraction_above(30.0),
        "bin_edges": list(study.bin_edges),
        "histogram": list(study.histogram),
    }
    records: list[dict] = []
    rows: list[list[object]] = []
    for lo, hi, count in zip(
        study.bin_edges[:-1], study.bin_edges[1:], study.histogram
    ):
        records.append(
            {"figure": "figure1", "bin_start": lo, "bin_end": hi, "count": count}
        )
        rows.append([f"{lo:g}-{hi:g}", str(count)])
    block = format_table(
        ["Decrease bin (%)", "Applications"],
        rows,
        title=(
            f"Figure 1 — I/O throughput decrease "
            f"({study.n_applications} applications, "
            f"max {study.max_decrease:.1f}%)"
        ),
    )
    if _OBS.sinks:
        _OBS.event(
            "progress", step="figure", figure="figure1",
            message=f"figure1: {study.n_applications} applications measured, "
                    f"worst decrease {study.max_decrease:.1f}%",
        )
    return {"fragment": fragment, "records": records, "block": block}


def _analysis_figure5(
    spec: ExperimentSpec, body: AnalysisSpec, platform, rng, executor: ExperimentExecutor
) -> dict:
    """Figure 5: the synthetic-Darshan workload characterization."""
    f5 = body.figure5
    usage = characterize(
        generate_records(
            f5.n_jobs,
            platform,
            rng,
            duration_days=f5.duration_days,
            coverage=f5.coverage,
        ),
        duration_days=f5.duration_days,
    )
    fragment = {
        "n_jobs": f5.n_jobs,
        "duration_days": f5.duration_days,
        "daily_node_hours": {
            c.value: v for c, v in usage.daily_node_hours.items()
        },
        "io_time_percent": {
            c.value: v for c, v in usage.io_time_percent.items()
        },
        "job_counts": {c.value: n for c, n in usage.job_counts.items()},
        "dominant_category": usage.dominant_category().value,
    }
    records: list[dict] = []
    rows: list[list[object]] = []
    for category, node_hours in usage.daily_node_hours.items():
        records.append(
            {
                "figure": "figure5",
                "category": category.value,
                "daily_node_hours": node_hours,
                "io_time_percent": usage.io_time_percent[category],
                "job_count": usage.job_counts[category],
            }
        )
        rows.append(
            [
                category.value,
                ratio(node_hours),
                percent(usage.io_time_percent[category]),
                str(usage.job_counts[category]),
            ]
        )
    block = format_table(
        ["Category", "Node-hours/day", "I/O time (%)", "Jobs"],
        rows,
        title=(
            f"Figure 5 — workload characterization "
            f"({f5.n_jobs} synthetic Darshan jobs)"
        ),
    )
    if _OBS.sinks:
        _OBS.event(
            "progress", step="figure", figure="figure5",
            message=f"figure5: {f5.n_jobs} jobs characterized, dominant "
                    f"category {usage.dominant_category().value}",
        )
    return {"fragment": fragment, "records": records, "block": block}


def _analysis_figure7(
    spec: ExperimentSpec, body: AnalysisSpec, platform, rng, executor: ExperimentExecutor
) -> dict:
    """Figure 7: the sensibility (periodicity) sweep."""
    f7 = body.figure7
    study = sensitivity_study(
        f7.sensibilities,
        schedulers=f7.schedulers,
        scenario=f7.scenario,
        n_repetitions=f7.n_repetitions,
        platform=platform,
        rng=rng,
        perturb_io=f7.perturb_io,
        max_time=spec.max_time,
        executor=executor,
    )
    fragment = {
        "scenario": f7.scenario,
        "n_repetitions": f7.n_repetitions,
        "perturb_io": f7.perturb_io,
        "sensibilities_percent": study.sensibilities(),
        "series": {
            scheduler: {
                "system_efficiency": study.series(
                    scheduler, "system_efficiency"
                ),
                "dilation": study.series(scheduler, "dilation"),
            }
            for scheduler in study.schedulers
        },
        "max_relative_variation": {
            scheduler: study.max_relative_variation(
                scheduler, "system_efficiency"
            )
            for scheduler in study.schedulers
        },
    }
    records: list[dict] = []
    rows: list[list[object]] = []
    for point in study.points:
        for scheduler in study.schedulers:
            records.append(
                {
                    "figure": "figure7",
                    "sensibility_percent": point.sensibility_percent,
                    "scheduler": scheduler,
                    "system_efficiency": point.system_efficiency[scheduler],
                    "dilation": point.dilation[scheduler],
                }
            )
            rows.append(
                [
                    f"{point.sensibility_percent:g}",
                    scheduler,
                    percent(point.system_efficiency[scheduler]),
                    ratio(point.dilation[scheduler]),
                ]
            )
    block = format_table(
        ["Sensibility (%)", "Scheduler", "SysEfficiency (%)", "Dilation"],
        rows,
        title=(
            f"Figure 7 — sensibility sweep on {f7.scenario} "
            f"({f7.n_repetitions} mixes per level)"
        ),
    )
    if _OBS.sinks:
        _OBS.event(
            "progress", step="figure", figure="figure7",
            message=f"figure7: {len(study.points)} sensibility levels x "
                    f"{len(study.schedulers)} heuristics done",
        )
    return {"fragment": fragment, "records": records, "block": block}


_ANALYSIS_RUNNERS = {
    "figure1": _analysis_figure1,
    "figure5": _analysis_figure5,
    "figure7": _analysis_figure7,
}


def _run_analysis_spec(
    spec: ExperimentSpec, body: AnalysisSpec,
    executor: ExperimentExecutor, store: Optional[ResultStore],
) -> _RunOutput:
    with _OBS.stage("build", kind=spec.kind):
        platform = build_platform(body.platform)
        slots = analysis_seed_slots(spec.seed)
    records: list[dict] = []
    figures_payload: dict[str, dict] = {}
    blocks: list[str] = []
    with _OBS.stage("run", kind=spec.kind):
        for figure in body.figures:
            # One study per figure: the key digests the built platform, the
            # figure's own spec fragment, the experiment seed (the slot
            # streams derive deterministically from it) and the horizon — so
            # a second run of an unchanged spec performs zero study work.
            study, cached = _memoized_study(
                store,
                lambda: digest(
                    "analysis-study",
                    code_fingerprint(),
                    figure,
                    canonical_json(platform),
                    canonical_json(getattr(body, figure)),
                    spec.seed,
                    spec.max_time,
                ),
                _ANALYSIS_RUNNERS[figure], spec, body, platform, slots[figure],
                executor,
            )
            if cached and _OBS.sinks:
                _OBS.event(
                    "progress", step="figure", figure=figure, cached=True,
                    message=f"{figure}: served from the result store",
                )
            figures_payload[figure] = study["fragment"]
            records.extend(study["records"])
            blocks.append(study["block"])

    with _OBS.stage("report", kind=spec.kind):
        payload = {
            "platform": platform.name,
            "figures": figures_payload,
            "cells": records,
        }
        return payload, records, "\n".join(blocks)


# ---------------------------------------------------------------------- #
def run_spec(
    spec: ExperimentSpec,
    *,
    store: Optional[ResultStore] = None,
) -> SpecRunResult:
    """Run one experiment spec to completion.

    The spec's own ``seed`` / ``workers`` / ``max_time`` are honoured; apply
    CLI-level overrides first via
    :meth:`~repro.config.spec.ExperimentSpec.with_overrides`.  Status
    goes out as ``progress`` events on the telemetry recorder, one per
    collected grid cell / sweep / level / figure study (see
    ``docs/observability.md``); sinks never affect results.

    ``store`` attaches a :class:`repro.store.ResultStore`: every grid cell
    and analysis/periodic study is served from the store when its key is
    present and written back when computed, so a rerun of an unchanged spec
    performs zero simulation work and an interrupted campaign resumes from
    the cells that already landed.  Cached runs are byte-identical to cold
    ones; the run's hit/miss counters land in
    :attr:`SpecRunResult.store_stats` (never in the payload).
    """
    # The kind table imports this module's runners, so it loads lazily.
    from repro.config.kinds import KINDS

    kind = KINDS[spec.kind]
    # Re-checked here: a CLI --max-time override lands after parsing.
    kind.refuse_horizon(spec.body, spec.max_time)
    # Snapshot the handle's counters so store_stats describes *this* run
    # even when one store serves a whole fleet of specs (repro report).
    stats_before = replace(store.stats) if store is not None else None
    # One executor for the whole spec run: every harness below shares the
    # same lazily-spawned pool (never spawned at all for serial specs), so
    # a multi-study spec pays process start-up at most once.
    with _OBS.span("spec", category="spec", spec=spec.name, kind=spec.kind), \
            ExperimentExecutor(spec.workers) as executor:
        payload, records, text = kind.run(spec, spec.body, executor, store)
    # The reproducibility header opens every payload.
    echo = {"name": spec.name, "kind": spec.kind, "seed": spec.seed, "max_time": spec.max_time}
    result = SpecRunResult(
        spec=spec, payload={"experiment": echo, **payload}, records=records, text=text
    )
    if store is not None:
        result.store_stats = StoreStats(
            hits=store.stats.hits - stats_before.hits,
            misses=store.stats.misses - stats_before.misses,
            writes=store.stats.writes - stats_before.writes,
            corrupt=store.stats.corrupt - stats_before.corrupt,
            write_errors=store.stats.write_errors - stats_before.write_errors,
            collisions=store.stats.collisions - stats_before.collisions,
        ).as_dict()
    return result


def write_result(
    result: SpecRunResult,
    *,
    path: Optional[str] = None,
    format: Optional[str] = None,
) -> Optional[Path]:
    """Write a run's results to disk.

    ``path`` / ``format`` override the spec's ``[output]`` table; with
    neither an ``[output]`` table nor an explicit path, nothing is written
    and ``None`` is returned.  The format is picked in order: explicit
    ``format`` argument; the spec's ``[output].format`` — but only when the
    spec's own path is used (a ``path`` override switches to its suffix, so
    ``--out cells.csv`` never receives JSON); else the target suffix
    (``.csv`` selects CSV, anything else JSON).
    """
    output = result.spec.output
    target = path or (output.path if output else None)
    if target is None:
        return None
    chosen = format
    if chosen is None and path is None and output is not None:
        chosen = output.format
    if chosen is None:
        chosen = "csv" if str(target).lower().endswith(".csv") else "json"
    if chosen == "csv":
        return write_csv(result.records, target)
    if chosen == "json":
        return write_json(result.payload, target)
    raise SpecError(f"unknown output format {chosen!r}; use 'json' or 'csv'")
