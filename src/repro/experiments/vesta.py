"""Vesta experiment emulation (Section 5, Figures 14–16).

The paper's Section 5 runs a modified IOR benchmark on Argonne's Vesta
machine: groups of IOR processes act as independent applications, a
scheduler thread implements the Priority variants of MaxSysEff and
MinDilation, and every node mix of :data:`repro.workload.ior.VESTA_SCENARIOS`
is executed under six configurations — {stock IOR, MaxSysEff, MinDilation}
× {bypassing, using} the burst buffers.

We cannot run on Vesta; the emulation replays exactly the same grid through
the simulator:

* "IOR" is the uncoordinated fair-share baseline with interference — the
  behaviour of concurrent, unscheduled IOR groups on a shared file system;
* the heuristics run through the engine as usual and are charged the
  scheduler-thread overhead measured in Figure 14 (see
  :mod:`repro.experiments.overhead`), scored against the original
  application parameters so the overhead shows up as lost efficiency;
* the ``BB*`` variants run on the Vesta burst-buffer platform with
  ``use_burst_buffer=True``.

Outputs map one-to-one onto the paper's artefacts: Figure 14 (overhead per
scenario), Figure 15 (SysEfficiency and Dilation per scenario and
configuration) and Figure 16 (per-application dilation in the
``512/256/256/32`` mix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.evaluation import VESTA_CONFIGURATIONS, VESTA_SCENARIOS
from repro.core.objectives import (
    ApplicationOutcome,
    ObjectiveSummary,
    summarize,
)
from repro.core.platform import Platform, vesta
from repro.core.scenario import Scenario
from repro.experiments.overhead import (
    DEFAULT_OVERHEAD,
    OverheadModel,
    scenario_overhead_fractions,
)
from repro.experiments.runner import (
    ExperimentExecutor,
    MapCache,
    map_parallel,
)
from repro.obs.telemetry import recorder as _obs_recorder
from repro.online.baselines import ior_scheduler
from repro.online.registry import make_scheduler
from repro.simulator.engine import SimulatorConfig, simulate
from repro.simulator.metrics import SimulationResult
from repro.store import ResultStore, canonical_json, code_fingerprint, digest
from repro.utils.rng import RngLike
from repro.utils.validation import ValidationError
from repro.workload.ior import ior_scenario

__all__ = [
    "VESTA_CONFIGURATIONS",
    "VestaCase",
    "VestaExperimentResult",
    "score_with_overhead",
    "run_vesta_case",
    "vesta_experiment",
    "figure14_overheads",
    "figure16_per_application_dilation",
]

#: The Section 5 heuristics are the Priority variants (Vesta uses disks).
_HEURISTIC_NAMES = {
    "MaxSysEff": "Priority-MaxSysEff",
    "MinDilation": "Priority-MinDilation",
}

#: Process-wide telemetry funnel; status events go through it.
_OBS = _obs_recorder()


@dataclass(frozen=True)
class VestaCase:
    """One cell of the Vesta grid: a node mix under one configuration."""

    scenario: str
    configuration: str
    summary: ObjectiveSummary
    per_application_dilation: dict[str, float]
    makespan: float


@dataclass
class VestaExperimentResult:
    """All cells of the Vesta grid, indexed like Figure 15."""

    cases: list[VestaCase] = field(default_factory=list)

    def cell(self, scenario: str, configuration: str) -> VestaCase:
        """Look one cell up."""
        for case in self.cases:
            if case.scenario == scenario and case.configuration == configuration:
                return case
        raise KeyError(f"no Vesta cell for ({scenario!r}, {configuration!r})")

    def scenarios(self) -> list[str]:
        """Scenario labels in first-appearance order."""
        seen: list[str] = []
        for case in self.cases:
            if case.scenario not in seen:
                seen.append(case.scenario)
        return seen

    def series(self, configuration: str, metric: str) -> list[float]:
        """Per-scenario series of ``system_efficiency`` or ``dilation``."""
        values = []
        for scenario in self.scenarios():
            values.append(getattr(self.cell(scenario, configuration).summary, metric))
        return values


# ---------------------------------------------------------------------- #
def score_with_overhead(
    original: Scenario, result: SimulationResult
) -> tuple[ObjectiveSummary, dict[str, float]]:
    """Score an overhead-inflated run against the original application parameters.

    The overhead model lengthens instances with unproductive serial time; if
    the run were scored on the inflated work, the overhead would count as
    useful computation.  Instead we rebuild each outcome with the original
    ``executed_work`` and dedicated I/O time, keeping the (later) completion
    times from the run — so the overhead translates into lower efficiency
    and higher dilation, as it does on the real machine.
    """
    outcomes: list[ApplicationOutcome] = []
    dilations: dict[str, float] = {}
    for app in original.applications:
        record = result.record(app.name)
        peak = original.platform.peak_application_bandwidth(app.processors)
        outcome = ApplicationOutcome(
            name=app.name,
            processors=app.processors,
            release_time=app.release_time,
            completion_time=record.completion_time,
            executed_work=app.total_work,
            dedicated_io_time=app.total_io_volume / peak if peak > 0 else 0.0,
        )
        outcomes.append(outcome)
        achieved = outcome.executed_work / max(outcome.elapsed, 1e-12)
        optimal = outcome.executed_work / (
            outcome.executed_work + outcome.dedicated_io_time
        )
        dilations[app.name] = optimal / max(achieved, 1e-12)
    return summarize(outcomes), dilations


def run_vesta_case(
    scenario_name: str,
    configuration: str,
    *,
    platform: Optional[Platform] = None,
    overhead: OverheadModel = DEFAULT_OVERHEAD,
    rng: RngLike = 0,
    jitter: float = 0.05,
) -> VestaCase:
    """Run one (node mix, configuration) cell of the Vesta grid."""
    if configuration not in VESTA_CONFIGURATIONS:
        raise ValidationError(
            f"unknown Vesta configuration {configuration!r}; "
            f"choose one of {VESTA_CONFIGURATIONS}"
        )
    use_bb = configuration.startswith("BB")
    scheduler_key = configuration[2:] if use_bb else configuration
    base_platform = platform or vesta(with_burst_buffer=use_bb)
    if use_bb and base_platform.burst_buffer is None:
        raise ValidationError(
            f"configuration {configuration!r} needs a burst-buffer platform"
        )
    scenario = ior_scenario(scenario_name, base_platform, rng=rng, jitter=jitter)
    config = SimulatorConfig(use_burst_buffer=use_bb)

    if scheduler_key == "IOR":
        result = simulate(scenario, ior_scheduler(), config)
        summary = result.summary()
        dilations = result.dilations()
        makespan = result.makespan
    else:
        scheduler = make_scheduler(_HEURISTIC_NAMES[scheduler_key])
        inflated = overhead.apply_to_scenario(scenario)
        result = simulate(inflated, scheduler, config)
        summary, dilations = score_with_overhead(scenario, result)
        makespan = result.makespan
    return VestaCase(
        scenario=scenario_name,
        configuration=configuration,
        summary=summary,
        per_application_dilation=dilations,
        makespan=makespan,
    )


class _VestaCellCache(MapCache):
    """Memo table for Vesta grid cells.

    A Vesta cell rebuilds its jittered IOR scenario *inside* the worker from
    the shared seed, so the key digests the seed and the overhead model
    alongside the (node mix, configuration) coordinates — plus the
    producing-code fingerprint, like every store key.  Only seed-like
    ``rng`` values are cacheable; live generators advance across cells and
    have no canonical form (the caller skips caching for them).
    """

    def __init__(
        self,
        store: ResultStore,
        overhead: OverheadModel,
        seed: object,
    ):
        super().__init__(store)
        self._prefix = digest(
            "vesta-cell", code_fingerprint(), canonical_json(overhead), seed
        )

    def key(self, item: tuple[str, str]) -> str:
        return digest(self._prefix, item[0], item[1])

    def encode(self, result: VestaCase) -> dict:
        return {
            "scenario": result.scenario,
            "configuration": result.configuration,
            "summary": result.summary.as_dict(),
            "per_application_dilation": dict(result.per_application_dilation),
            "makespan": result.makespan,
        }

    def decode(self, payload: dict) -> VestaCase:
        return VestaCase(
            scenario=payload["scenario"],
            configuration=payload["configuration"],
            summary=ObjectiveSummary.from_dict(payload["summary"]),
            per_application_dilation=dict(payload["per_application_dilation"]),
            makespan=payload["makespan"],
        )


def _run_vesta_cell_shared(
    shared: tuple[OverheadModel, RngLike], cell: tuple[str, str]
) -> VestaCase:
    """Shared-payload Vesta cell: overhead and seed travel once."""
    overhead, rng = shared
    scenario, configuration = cell
    return run_vesta_case(scenario, configuration, overhead=overhead, rng=rng)


def _check_parallel_rng(
    rng: RngLike,
    workers: int | None,
    executor: Optional[ExperimentExecutor] = None,
) -> None:
    """Refuse a live generator in a parallel run.

    A ``Generator``'s state advances across cells in a serial run; pickling
    it into worker processes would replay the *same* state in every cell and
    silently change results.  Seed-like values (int / SeedSequence / None)
    rebuild identically per cell, so only live generators are rejected.
    """
    import numpy as np

    from repro.experiments.runner import resolve_workers

    n_workers = (
        executor.n_workers if executor is not None else resolve_workers(workers)
    )
    if n_workers > 1 and isinstance(rng, np.random.Generator):
        raise ValidationError(
            "workers > 1 requires a seed-like rng (int, SeedSequence or "
            "None): a live numpy Generator cannot advance across worker "
            "processes, so parallel results would silently diverge from "
            "serial ones"
        )


def vesta_experiment(
    scenarios: Sequence[str] = VESTA_SCENARIOS,
    configurations: Sequence[str] = VESTA_CONFIGURATIONS,
    *,
    overhead: OverheadModel = DEFAULT_OVERHEAD,
    rng: RngLike = 0,
    workers: int | None = None,
    executor: Optional[ExperimentExecutor] = None,
    store: Optional[ResultStore] = None,
) -> VestaExperimentResult:
    """The full Figure 15 grid.

    ``workers`` fans the (node mix × configuration) cells out over processes
    (see :func:`repro.experiments.runner.map_parallel`).  With a seed-like
    ``rng`` (an integer, the default) every cell rebuilds its jittered IOR
    scenario from that seed, so the grid is identical whatever the worker
    count; a live ``Generator`` is accepted only in serial runs (where its
    state advances across cells exactly as before) and rejected otherwise.
    Each collected cell emits one ``progress`` status event (see
    ``docs/observability.md``), in submission order.
    ``executor`` reuses a caller-owned pool; the overhead model and seed
    travel as one shared payload per worker.  ``store`` memoizes cells in
    the content-addressed result store — integer ``rng`` seeds only (a live
    generator has no canonical form, and ``rng=None`` means fresh entropy
    per run; both run silently uncached).
    """
    _check_parallel_rng(rng, workers, executor)
    cells = [
        (scenario, configuration)
        for scenario in scenarios
        for configuration in configurations
    ]

    cache = None
    # Integer seeds only: rng=None documents "fresh OS entropy per run", so
    # memoizing it would freeze one run's random draw forever; live
    # generators have no canonical form.  Both run uncached.
    if store is not None and isinstance(rng, int) and not isinstance(rng, bool):
        cache = _VestaCellCache(store, overhead, rng)
    result = VestaExperimentResult()
    result.cases.extend(
        map_parallel(
            _run_vesta_cell_shared,
            cells,
            workers=workers,
            executor=executor,
            shared=(overhead, rng),
            cache=cache,
        )
    )
    if _OBS.sinks:
        for index, case in enumerate(result.cases):
            _OBS.event(
                "progress", step="cell", cell=index + 1, n_cells=len(cells),
                scenario=case.scenario, configuration=case.configuration,
                message=f"cell {index + 1}/{len(cells)}: {case.scenario} x "
                        f"{case.configuration} done",
            )
    return result


def _build_ior_mix_shared(rng: RngLike, name: str) -> Scenario:
    """Picklable adapter: build one jittered IOR mix (seed sent per worker)."""
    return ior_scenario(name, vesta(), rng=rng)


def figure14_overheads(
    scenarios: Sequence[str] = VESTA_SCENARIOS,
    *,
    overhead: OverheadModel = DEFAULT_OVERHEAD,
    rng: RngLike = 0,
    workers: int | None = None,
    executor: Optional[ExperimentExecutor] = None,
) -> dict[str, float]:
    """Figure 14: relative execution-time overhead (%) per node mix.

    ``workers`` parallelizes the per-mix scenario generation (the costly
    part; the overhead model itself is pure arithmetic, evaluated in batch
    afterwards).  Deterministic for seed-like ``rng``; a live ``Generator``
    is rejected in parallel runs, see :func:`vesta_experiment`.
    ``executor`` reuses a caller-owned pool.
    """
    _check_parallel_rng(rng, workers, executor)
    built = map_parallel(
        _build_ior_mix_shared,
        list(scenarios),
        workers=workers,
        executor=executor,
        shared=rng,
    )
    fractions = scenario_overhead_fractions(built, overhead=overhead)
    return {
        name: 100.0 * fraction for name, fraction in zip(scenarios, fractions)
    }


def figure16_per_application_dilation(
    scenario_name: str = "512/256/256/32",
    *,
    overhead: OverheadModel = DEFAULT_OVERHEAD,
    rng: RngLike = 0,
) -> dict[str, dict[str, float]]:
    """Figure 16: per-application dilation under each heuristic and under IOR.

    Returns ``{configuration: {application: dilation}}`` for the congested
    ``512/256/256/32`` mix, which is where the paper discusses how
    MaxSysEff sacrifices the small application while MinDilation spreads the
    slowdown evenly.
    """
    out: dict[str, dict[str, float]] = {}
    for configuration in ("IOR", "MaxSysEff", "MinDilation"):
        case = run_vesta_case(
            scenario_name, configuration, overhead=overhead, rng=rng
        )
        out[configuration] = dict(case.per_application_dilation)
    return out
