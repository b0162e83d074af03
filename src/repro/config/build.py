"""Turn parsed specs into live model objects: platforms, scenarios, cases.

This is the deterministic half of the subsystem: given the same
:class:`~repro.config.spec.ExperimentSpec` the builders always produce the
same :class:`~repro.core.scenario.Scenario` objects, byte for byte, because
every random draw comes from seeds derived by the contract documented in
:mod:`repro.config.spec` (and in ``docs/scenarios.md``).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from repro.config.schema import SpecError
from repro.config.spec import (
    ANALYSIS_FIGURES,
    AnalysisSpec,
    AppSpec,
    FaultsSpec,
    Figure6Spec,
    GridSpec,
    PeriodicSpec,
    PlatformSpec,
    ScenarioEntry,
)
from repro.core.application import Application
from repro.core.platform import BurstBufferSpec, Platform, generic, intrepid, mira, vesta
from repro.core.scenario import Scenario
from repro.experiments.runner import SchedulerCase
from repro.faults import (
    BandwidthWindow,
    CrashEvent,
    FaultModel,
    sample_crashes,
    sample_windows,
)
from repro.utils.rng import spawn_rngs
from repro.utils.validation import ValidationError
from repro.workload.congested import CongestedMomentSpec, generate_congested_moment
from repro.workload.generator import MixSpec, figure6_mix, generate_mix
from repro.workload.ior import (
    DEFAULT_COMPUTE_TIME,
    DEFAULT_ITERATIONS,
    DEFAULT_WRITE_PER_NODE,
    ior_scenario,
)

__all__ = [
    "build_platform",
    "build_burst_buffer_platform",
    "build_entry_scenarios",
    "build_grid_scenarios",
    "build_cases",
    "build_periodic_setup",
    "check_figure6_setup",
    "analysis_seed_slots",
    "check_analysis_setup",
]

_PRESETS = {"intrepid": intrepid, "mira": mira, "vesta": vesta}


def build_platform(
    spec: Optional[PlatformSpec], *, with_burst_buffer: bool = False
) -> Platform:
    """Concrete :class:`~repro.core.platform.Platform` for one platform spec.

    ``None`` means the default (Intrepid, the paper's primary machine).
    ``with_burst_buffer`` asks a preset for its burst-buffer variant; the
    scale/rename post-processing is identical either way, so the plain and
    BB platforms of one spec differ only in the burst-buffer layer.
    """
    if spec is None:
        return intrepid(with_burst_buffer=with_burst_buffer)
    if spec.preset in _PRESETS:
        platform = _PRESETS[spec.preset](with_burst_buffer=with_burst_buffer)
    else:
        platform = generic(
            total_processors=spec.processors,
            node_bandwidth=spec.node_bandwidth,
            system_bandwidth=spec.system_bandwidth,
            name=spec.name or "generic",
        )
    if spec.burst_buffer is not None:
        platform = platform.with_burst_buffer(
            BurstBufferSpec(
                capacity=spec.burst_buffer.capacity,
                ingest_bandwidth=spec.burst_buffer.ingest_bandwidth,
                drain_bandwidth=spec.burst_buffer.drain_bandwidth,
            )
        )
    if spec.scale is not None:
        platform = platform.scaled(spec.scale, name=spec.name)
        if platform.burst_buffer is not None:
            # Platform.scaled leaves the burst buffer untouched; the spec
            # layer promises uniform machine scaling, and a 5%-size machine
            # with a full-size buffer would absorb all I/O and silently
            # invalidate any BB-vs-no-BB comparison.
            bb = platform.burst_buffer
            platform = platform.with_burst_buffer(
                BurstBufferSpec(
                    capacity=bb.capacity * spec.scale,
                    ingest_bandwidth=bb.ingest_bandwidth * spec.scale,
                    drain_bandwidth=bb.drain_bandwidth * spec.scale,
                )
            )
    if spec.name is not None and platform.name != spec.name:
        platform = dataclasses.replace(platform, name=spec.name)
    return platform


def build_burst_buffer_platform(spec: Optional[PlatformSpec]) -> Optional[Platform]:
    """The burst-buffer variant of a platform spec, when one is derivable.

    Presets carry the machine's burst-buffer description; generic platforms
    need an explicit ``[platform.burst_buffer]`` table.  Returns ``None``
    when no burst buffer can be built — scheduler cases that ask for one
    then fail with a spec-level error.
    """
    if spec is not None and spec.burst_buffer is not None:
        return build_platform(spec)
    if spec is None or spec.preset in _PRESETS:
        return build_platform(spec, with_burst_buffer=True)
    return None


# ---------------------------------------------------------------------- #
def _build_app(spec: AppSpec) -> Application:
    return Application.periodic(
        name=spec.name,
        processors=spec.processors,
        work=spec.work,
        io_volume=spec.io_volume,
        n_instances=spec.instances,
        release_time=spec.release,
    )


def _entry_label(entry: ScenarioEntry, index: int) -> str:
    if entry.label is not None:
        return entry.label
    return f"{entry.kind}-{index}"


def build_entry_scenarios(
    entry: ScenarioEntry,
    index: int,
    platform: Platform,
    rng: np.random.Generator,
) -> list[Scenario]:
    """All scenarios of one ``[[scenarios]]`` entry (one per repetition).

    ``rng`` is the entry's child generator from the experiment seed; an
    entry-level ``seed`` replaces it, pinning the entry's randomness
    independently of its position in the spec.
    """
    if entry.platform is not None:
        platform = build_platform(entry.platform)
    base_label = _entry_label(entry, index)
    rep_rngs = spawn_rngs(entry.seed if entry.seed is not None else rng,
                          entry.repetitions)
    scenarios: list[Scenario] = []
    for rep, rep_rng in enumerate(rep_rngs):
        label = base_label if entry.repetitions == 1 else f"{base_label}-rep{rep:02d}"
        if entry.kind == "mix":
            scenario = generate_mix(
                MixSpec(
                    n_small=entry.small,
                    n_large=entry.large,
                    n_very_large=entry.very_large,
                ),
                platform,
                entry.io_ratio,
                rep_rng,
                label=label,
                fit_to_platform=entry.fit_to_platform,
            )
        elif entry.kind == "congested":
            scenario = generate_congested_moment(
                CongestedMomentSpec(
                    congestion_factor=entry.congestion_factor,
                    n_small=entry.small,
                    n_large=entry.large,
                    n_very_large=entry.very_large,
                    io_ratio=entry.io_ratio,
                ),
                platform,
                rep_rng,
                label=label,
            )
        elif entry.kind == "figure6":
            scenario = figure6_mix(entry.panel, platform, rep_rng, label=label)
        elif entry.kind == "ior":
            scenario = ior_scenario(
                entry.mix,
                platform,
                iterations=entry.iterations or DEFAULT_ITERATIONS,
                compute_time=entry.compute_time or DEFAULT_COMPUTE_TIME,
                write_per_node=entry.write_per_node or DEFAULT_WRITE_PER_NODE,
                jitter=entry.jitter,
                rng=rep_rng,
            ).with_label(label)
        elif entry.kind == "apps":
            scenario = Scenario(
                platform=platform,
                applications=tuple(_build_app(a) for a in entry.apps),
                label=label,
                metadata={"kind": "apps"},
            )
        else:  # pragma: no cover - parser rejects unknown kinds
            raise SpecError(f"unknown scenario kind {entry.kind!r}")
        scenarios.append(scenario)
    return scenarios


def _realize_fault_model(
    faults: FaultsSpec,
    scenario: Scenario,
    windows_rng: np.random.Generator,
    crashes_rng: np.random.Generator,
    horizon: float,
) -> FaultModel:
    """One realized :class:`FaultModel` for one scenario.

    Deterministic windows/crashes translate directly; the stochastic
    processes are sampled *here*, at build time, from the scenario's two
    dedicated fault streams — the engines never draw randomness, which is
    what keeps faulted runs byte-reproducible under any worker count.
    """
    unknown = {c.app for c in faults.crashes} - set(scenario.application_names)
    if unknown:
        raise SpecError(
            f"[[faults.crashes]] names unknown application(s) "
            f"{sorted(unknown)} — scenario {scenario.label!r} has "
            f"{list(scenario.application_names)}"
        )
    windows = [
        BandwidthWindow(
            start=w.start,
            end=w.end if w.end is not None else math.inf,
            factor=w.factor,
        )
        for w in faults.windows
    ]
    crashes = [
        CrashEvent(app_name=c.app, time=c.time, checkpoint_io=c.checkpoint_io)
        for c in faults.crashes
    ]
    if faults.random_windows is not None:
        rw = faults.random_windows
        windows.extend(
            sample_windows(
                rate=rw.rate,
                duration=rw.duration,
                factor=rw.factor,
                horizon=horizon,
                rng=windows_rng,
            )
        )
    if faults.random_crashes is not None:
        rc = faults.random_crashes
        crashes.extend(
            sample_crashes(
                scenario.application_names,
                rate=rc.rate,
                checkpoint_io=rc.checkpoint_io,
                horizon=horizon,
                rng=crashes_rng,
            )
        )
    return FaultModel(windows=tuple(windows), crashes=tuple(crashes))


def build_grid_scenarios(
    grid: GridSpec, seed: int, *, max_time: float = float("inf")
) -> list[Scenario]:
    """Every scenario of a grid experiment, in declaration order.

    Implements the determinism contract of :mod:`repro.config.spec`: one
    child generator per entry from ``spawn_rngs(seed, n_entries)``, then one
    per repetition inside each entry.

    With a ``[faults]`` table each built scenario gets a realized
    :class:`~repro.faults.FaultModel`.  Fault randomness comes from its own
    seed tree — ``spawn_rngs(faults.seed or seed, n_scenarios)``, two child
    streams (windows, crashes) per scenario — so adding or tuning faults
    never perturbs the application draws, and vice versa.  With
    ``baseline = true`` the healthy scenario is kept and its faulted twin
    (labelled ``"<label>+faults"``) is inserted right after it, so reports
    can pair the two.  ``max_time`` is the horizon the stochastic fault
    processes are realized over.
    """
    platform = build_platform(grid.platform)
    entry_rngs = spawn_rngs(seed, len(grid.scenarios))
    scenarios: list[Scenario] = []
    labels: set[str] = set()
    for index, (entry, rng) in enumerate(zip(grid.scenarios, entry_rngs)):
        for scenario in build_entry_scenarios(entry, index, platform, rng):
            if scenario.label in labels:
                raise SpecError(
                    f"duplicate scenario label {scenario.label!r}; give "
                    "entries distinct 'label' values"
                )
            labels.add(scenario.label)
            scenarios.append(scenario)
    faults = grid.faults
    if faults is None:
        return scenarios
    if faults.is_stochastic and not math.isfinite(max_time):
        raise SpecError(
            "stochastic fault processes need a finite max_time horizon "
            "to realize their events over"
        )
    faults_seed = faults.seed if faults.seed is not None else seed
    fault_rngs = spawn_rngs(faults_seed, len(scenarios))
    out: list[Scenario] = []
    for scenario, fault_rng in zip(scenarios, fault_rngs):
        windows_rng, crashes_rng = spawn_rngs(fault_rng, 2)
        model = _realize_fault_model(
            faults, scenario, windows_rng, crashes_rng, max_time
        )
        if faults.baseline:
            out.append(scenario)
        out.append(
            scenario.with_faults(model).with_label(f"{scenario.label}+faults")
        )
    return out


def build_periodic_setup(
    body: PeriodicSpec, seed: int
) -> tuple[Platform, list[Application]]:
    """Platform and application set of a ``periodic`` experiment.

    Explicit ``[[periodic.apps]]`` tables build deterministically; a
    generated mix draws from ``spawn_rngs(experiment.seed, 1)[0]`` (one child
    stream, mirroring the grid contract), so the same spec always schedules
    the same applications.

    An explicit ``max_period`` below the application set's minimum period
    is rejected here — this helper backs both ``repro validate`` and
    ``repro run``, so validation really means the sweep will start.
    """
    platform = build_platform(body.platform)
    if body.apps:
        applications = [_build_app(a) for a in body.apps]
        # In the paper's model the applications jointly own dedicated
        # processors for the whole steady state, so the set must fit the
        # machine.  The generated-mix path is safe by construction
        # (generate_mix partitions the platform); explicit apps are not,
        # and with online = [] no Scenario would ever check the budget —
        # the heuristics would score a physically impossible machine.
        used = sum(app.processors for app in applications)
        if used > platform.total_processors:
            raise SpecError(
                f"periodic.apps use {used} processors but platform "
                f"{platform.name!r} only has {platform.total_processors}"
            )
    else:
        (mix_rng,) = spawn_rngs(seed, 1)
        scenario = generate_mix(
            MixSpec(
                n_small=body.small,
                n_large=body.large,
                n_very_large=body.very_large,
            ),
            platform,
            body.io_ratio,
            mix_rng,
            label="periodic-mix",
            fit_to_platform=body.fit_to_platform,
        )
        applications = list(scenario.applications)
    if body.max_period is not None:
        from repro.periodic.period_search import minimum_period

        t_min = minimum_period(platform, applications)
        if body.max_period < t_min:
            raise SpecError(
                f"periodic.max_period ({body.max_period:g}) is smaller than "
                f"the application set's minimum period ({t_min:g}) — the "
                "(1+eps) sweep could not evaluate a single period length"
            )
    return platform, applications


def _check_mixes(where: str, build_mix, rngs) -> None:
    """Build one mix per stream; a mix that cannot exist fails as ``where``."""
    for rng in rngs:
        try:
            build_mix(rng)
        except ValidationError as exc:
            raise SpecError(f"{where}: {exc}") from None


def check_figure6_setup(body: Figure6Spec, seed: int) -> None:
    """Build every Figure-6 mix a run would, without simulating any.

    A panel's mix must fit the ``[figure6.platform]`` machine (every
    application needs a processor).  ``repro validate`` calls this so that
    exit 0 means ``repro run`` accepts the spec; the error names the key.
    """
    if body.platform is None:
        return  # the default Intrepid fits every panel
    platform = build_platform(body.platform)
    for panel in body.panels:
        # The seed derivation of figure6_experiment: one stream per mix.
        _check_mixes(
            f"figure6.platform: panel {panel!r}",
            lambda rng: figure6_mix(panel, platform, rng),
            spawn_rngs(seed, body.n_repetitions),
        )


def analysis_seed_slots(seed: int) -> dict[str, np.random.Generator]:
    """The random stream of every ``analysis`` figure study.

    Fixed seed slots: figure N always consumes child stream N of the
    experiment seed, so deselecting one figure never shifts the others.
    """
    return dict(zip(ANALYSIS_FIGURES, spawn_rngs(seed, len(ANALYSIS_FIGURES))))


def check_analysis_setup(body: AnalysisSpec, seed: int) -> None:
    """Build every mix the selected figure studies would, without simulating.

    The Figure 1 batches and the Figure 7 base mixes must fit the
    ``[analysis.platform]`` machine, the way :func:`check_figure6_setup`
    checks Figure 6 panels.
    """
    from repro.analysis.sensitivity import derive_streams
    from repro.analysis.throughput import figure1_batch_count, figure1_batch_mix

    platform = build_platform(body.platform)
    slots = analysis_seed_slots(seed)
    f1, f7 = body.figure1, body.figure7
    if "figure1" in body.figures:
        # The seed derivation of throughput_decrease_study: one stream per batch.
        mix = figure1_batch_mix(f1.applications_per_batch)
        n_batches = figure1_batch_count(f1.n_applications, f1.applications_per_batch)
        _check_mixes(
            "analysis.figure1.applications_per_batch",
            lambda rng: generate_mix(mix, platform, f1.io_ratio, rng),
            spawn_rngs(slots["figure1"], n_batches),
        )
    if "figure7" in body.figures:
        # The seed derivation of sensitivity_study: its base-mix streams.
        mix_rngs, _ = derive_streams(slots["figure7"], f7.n_repetitions, len(f7.sensibilities))
        _check_mixes(
            f"analysis.figure7.scenario: mix {f7.scenario!r}",
            lambda rng: figure6_mix(f7.scenario, platform, rng),
            mix_rngs,
        )


def build_cases(grid: GridSpec) -> list[SchedulerCase]:
    """Concrete :class:`~repro.experiments.runner.SchedulerCase` columns.

    Cases with ``burst_buffer = true`` are bound to the grid platform's
    burst-buffer variant; a spec whose platform has no derivable burst
    buffer fails here with a message naming the case.  Because that binding
    is grid-wide, burst-buffer cases are rejected when any scenario entry
    overrides its platform — the BB cell would silently run on a different
    machine than the entry's other cells.
    """
    bb_platform: Optional[Platform] = None
    cases: list[SchedulerCase] = []
    for spec in grid.cases:
        if spec.burst_buffer:
            if any(entry.platform is not None for entry in grid.scenarios):
                raise SpecError(
                    f"scheduler case {spec.name!r} sets burst_buffer = true, "
                    "which binds the grid-level platform's burst buffer to "
                    "every scenario — incompatible with per-entry "
                    "[scenarios.platform] overrides; drop the overrides or "
                    "split the grid into separate specs"
                )
            if bb_platform is None:
                bb_platform = build_burst_buffer_platform(grid.platform)
            if bb_platform is None or bb_platform.burst_buffer is None:
                raise SpecError(
                    f"scheduler case {spec.name!r} sets burst_buffer = true "
                    "but the platform defines no burst buffer; use a preset "
                    "platform or add a [platform.burst_buffer] table"
                )
        case = SchedulerCase(
            name=spec.name,
            use_burst_buffer=spec.burst_buffer,
            burst_buffer_platform=bb_platform if spec.burst_buffer else None,
            label=spec.label,
        )
        # Grids index cells by display label; a collision would silently
        # merge two columns (last cell wins), exactly like duplicate
        # scenario labels in build_grid_scenarios.
        if any(case.display == existing.display for existing in cases):
            raise SpecError(
                f"duplicate scheduler label {case.display!r}; give cases "
                "distinct 'label' values"
            )
        cases.append(case)
    return cases
