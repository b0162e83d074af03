"""Declarative experiment specs: the parsed, validated form of a spec file.

A spec fully determines a reproducible run: the platform, the application
scenarios (with every random draw pinned by seeds), the scheduler list, the
truncation horizon and the output destination.  ``docs/scenarios.md``
documents every key with worked examples; the short version is::

    [experiment]
    kind = "grid"              # grid | figure6 | congested-moments | vesta
                               #   | periodic | analysis
    seed = 42
    max_time = 2000.0          # optional truncation horizon (seconds)

    [platform]
    preset = "intrepid"

    [[scenarios]]
    kind = "mix"               # mix | figure6 | congested | ior | apps
    small = 20
    large = 3
    io_ratio = 0.2

    [schedulers]
    names = ["FairShare", "MaxSysEff", "MinDilation"]

Determinism contract (asserted by ``tests/test_config_spec.py``): for a
``grid`` experiment with entries ``e_0 .. e_{n-1}``,

* every entry gets one child generator from
  ``spawn_rngs(experiment.seed, n)``, in declaration order;
* an entry with ``repetitions = R`` builds its scenarios from
  ``spawn_rngs(entry.seed, R)`` when the entry pins its own ``seed``
  (any value >= 0, including 0), else from ``spawn_rngs(child_i, R)`` —
  so inserting or reordering entries never perturbs a pinned entry.

A spec-driven grid is therefore cell-for-cell identical to the equivalent
hand-built :func:`repro.experiments.runner.run_grid` call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Union

from repro.analysis.sensitivity import FIGURE7_SCHEDULERS
from repro.config.schema import Section, SpecError
from repro.core.platform import vesta as vesta_platform
from repro.experiments.comparison import (
    FIGURE6_SCENARIOS,
    FIGURE6_SCHEDULERS,
    TABLE_SCHEDULERS,
)
from repro.experiments.vesta import VESTA_CONFIGURATIONS
from repro.online.registry import make_scheduler
from repro.periodic.heuristics import InsertInScheduleCong, InsertInScheduleThrou
from repro.workload.ior import VESTA_SCENARIOS, parse_scenario

__all__ = [
    "SpecError",
    "check_scheduler_name",
    "SCENARIO_KINDS",
    "PERIODIC_HEURISTICS",
    "ANALYSIS_FIGURES",
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
    "Figure1Spec",
    "Figure5Spec",
    "Figure7Spec",
    "AnalysisSpec",
    "ExperimentSpec",
    "parse_spec",
]

#: Section 3.2.3 heuristics accepted by ``[periodic].heuristics``: name ->
#: (heuristic class, period-sweep objective).  Single source of truth — the
#: parser validates against its keys and the runner instantiates from it,
#: so a new heuristic cannot pass ``repro validate`` yet crash ``repro run``.
PERIODIC_HEURISTIC_TABLE: dict[str, tuple[type[object], str]] = {
    "throughput": (InsertInScheduleThrou, "system_efficiency"),
    "congestion": (InsertInScheduleCong, "dilation"),
}

#: The accepted ``[periodic].heuristics`` names, in canonical order.
PERIODIC_HEURISTICS: tuple[str, ...] = tuple(PERIODIC_HEURISTIC_TABLE)

#: Figure studies accepted by ``[analysis].figures``, in the fixed seed-slot
#: order of the determinism contract.
ANALYSIS_FIGURES: tuple[str, ...] = ("figure1", "figure5", "figure7")

#: Scenario-entry kinds accepted inside a ``grid`` experiment.
SCENARIO_KINDS: tuple[str, ...] = ("mix", "figure6", "congested", "ior", "apps")

_PLATFORM_PRESETS: tuple[str, ...] = ("intrepid", "mira", "vesta", "generic")


# ---------------------------------------------------------------------- #
# Platform
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class BurstBufferTable:
    """Explicit burst-buffer description for ``generic`` platforms.

    All three attributes are in the paper's units: ``capacity`` in bytes,
    the two bandwidths in bytes/s.
    """

    capacity: float
    ingest_bandwidth: float
    drain_bandwidth: float


@dataclass(frozen=True)
class PlatformSpec:
    """Declarative platform description.

    Either a named preset (``intrepid`` / ``mira`` / ``vesta`` — the
    machines of the paper's evaluation) or a fully ``generic`` platform with
    explicit ``processors`` / ``node_bandwidth`` (bytes/s) /
    ``system_bandwidth`` (bytes/s).  ``scale`` shrinks or grows the machine
    uniformly (see :meth:`repro.core.platform.Platform.scaled`), which is
    how truncated-depth specs keep full-machine physics at laptop cost.
    """

    preset: str = "intrepid"
    processors: Optional[int] = None
    node_bandwidth: Optional[float] = None
    system_bandwidth: Optional[float] = None
    name: Optional[str] = None
    scale: Optional[float] = None
    burst_buffer: Optional[BurstBufferTable] = None


def _parse_burst_buffer(section: Optional[Section]) -> Optional[BurstBufferTable]:
    if section is None:
        return None
    table = BurstBufferTable(
        capacity=section.get_float("capacity", required=True, positive=True),
        ingest_bandwidth=section.get_float(
            "ingest_bandwidth", required=True, positive=True
        ),
        drain_bandwidth=section.get_float(
            "drain_bandwidth", required=True, positive=True
        ),
    )
    section.finish()
    return table


def _parse_platform(section: Optional[Section]) -> Optional[PlatformSpec]:
    if section is None:
        return None
    # Without an explicit preset, the table means "the default machine
    # (Intrepid), tweaked" — unless it carries explicit sizes, which only a
    # generic platform accepts.  A scale-only table must not demand generic
    # keys.
    has_sizes = any(
        section.has_value(k)
        for k in ("processors", "node_bandwidth", "system_bandwidth")
    )
    preset = section.get_str(
        "preset",
        "generic" if has_sizes else "intrepid",
        choices=_PLATFORM_PRESETS,
    )
    spec = PlatformSpec(
        preset=preset,
        processors=section.get_int("processors", minimum=1),
        node_bandwidth=section.get_float("node_bandwidth", positive=True),
        system_bandwidth=section.get_float("system_bandwidth", positive=True),
        name=section.get_str("name"),
        scale=section.get_float("scale", positive=True),
        burst_buffer=_parse_burst_buffer(section.subsection("burst_buffer")),
    )
    if preset == "generic":
        for key in ("processors", "node_bandwidth", "system_bandwidth"):
            if getattr(spec, key) is None:
                raise SpecError(
                    f"{section.path(key)} is required for a 'generic' platform"
                )
    else:
        for key in ("processors", "node_bandwidth", "system_bandwidth"):
            if getattr(spec, key) is not None:
                raise SpecError(
                    f"{section.path(key)} cannot be combined with "
                    f"preset {preset!r}; use preset = 'generic' for custom sizes"
                )
    section.finish()
    return spec


# ---------------------------------------------------------------------- #
# Scenario entries (grid experiments)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AppSpec:
    """One explicitly described periodic application (``kind = "apps"``).

    ``work`` is seconds of compute per instance; ``io_volume`` is bytes
    written per instance; ``release`` is the release time in seconds
    (staggered releases are a scenario shape the paper never explores).
    """

    name: str
    processors: int
    work: float
    io_volume: float
    instances: int = 1
    release: float = 0.0


@dataclass(frozen=True)
class ScenarioEntry:
    """One ``[[scenarios]]`` entry of a grid experiment.

    The ``kind`` selects the generator; only the fields relevant to that
    kind are set (the parser rejects the rest).  ``repetitions`` replicates
    the entry with independent random streams; ``seed`` pins the entry's
    randomness independently of its position in the spec.
    """

    kind: str
    label: Optional[str] = None
    seed: Optional[int] = None
    repetitions: int = 1
    platform: Optional[PlatformSpec] = None
    # kind == "mix" / "congested"
    small: int = 0
    large: int = 0
    very_large: int = 0
    io_ratio: float = 0.2
    fit_to_platform: bool = True
    # kind == "congested"
    congestion_factor: float = 1.5
    # kind == "figure6"
    panel: Optional[str] = None
    # kind == "ior"
    mix: Optional[str] = None
    iterations: Optional[int] = None
    compute_time: Optional[float] = None
    write_per_node: Optional[float] = None
    jitter: float = 0.0
    # kind == "apps"
    apps: tuple[AppSpec, ...] = ()


def _parse_app(section: Section) -> AppSpec:
    app = AppSpec(
        name=section.get_str("name", required=True),
        processors=section.get_int("processors", required=True, minimum=1),
        work=section.get_float("work", required=True, minimum=0.0),
        io_volume=section.get_float("io_volume", required=True, minimum=0.0),
        instances=section.get_int("instances", 1, minimum=1),
        release=section.get_float("release", 0.0, minimum=0.0),
    )
    section.finish()
    return app


def _parse_scenario_entry(section: Section) -> ScenarioEntry:
    kind = section.get_str("kind", required=True, choices=SCENARIO_KINDS)
    entry = ScenarioEntry(
        kind=kind,
        label=section.get_str("label"),
        seed=section.get_int("seed", minimum=0),
        repetitions=section.get_int("repetitions", 1, minimum=1),
        platform=_parse_platform(section.subsection("platform")),
    )
    if kind in ("mix", "congested"):
        entry = replace(
            entry,
            small=section.get_int("small", 0, minimum=0),
            large=section.get_int("large", 0, minimum=0),
            very_large=section.get_int("very_large", 0, minimum=0),
            io_ratio=section.get_float("io_ratio", 0.2, minimum=0.0, maximum=10.0),
        )
        if entry.small + entry.large + entry.very_large <= 0:
            raise section.error(
                "a mix needs at least one application: set small, large "
                "and/or very_large"
            )
        if kind == "mix":
            entry = replace(
                entry,
                fit_to_platform=section.get_bool("fit_to_platform", True),
            )
        else:
            entry = replace(
                entry,
                congestion_factor=section.get_float(
                    "congestion_factor", 1.5, positive=True
                ),
            )
    elif kind == "figure6":
        entry = replace(
            entry,
            panel=section.get_str("panel", required=True, choices=FIGURE6_SCENARIOS),
        )
    elif kind == "ior":
        mix = section.get_str("mix", required=True)
        try:
            parse_scenario(mix)
        except Exception as exc:
            raise SpecError(f"{section.path('mix')}: {exc}") from exc
        entry = replace(
            entry,
            mix=mix,
            iterations=section.get_int("iterations", minimum=1),
            compute_time=section.get_float("compute_time", positive=True),
            write_per_node=section.get_float("write_per_node", positive=True),
            jitter=section.get_float("jitter", 0.0, minimum=0.0, maximum=0.9),
        )
    elif kind == "apps":
        app_sections = section.sections("apps", required=True)
        if not app_sections:
            raise section.error("kind 'apps' needs at least one [[scenarios.apps]]")
        entry = replace(entry, apps=tuple(_parse_app(s) for s in app_sections))
    section.finish()
    return entry


# ---------------------------------------------------------------------- #
# Schedulers / output
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SchedulerCaseSpec:
    """One scheduler column of the grid.

    ``name`` is resolved through :func:`repro.online.registry.make_scheduler`
    (validated at parse time so a typo fails before anything runs).  With
    ``burst_buffer = true`` the case runs on the platform's burst-buffer
    configuration, which must exist.
    """

    name: str
    burst_buffer: bool = False
    label: Optional[str] = None


def check_scheduler_name(name: str, where: str) -> str:
    """Resolve ``name`` through the scheduler registry, or raise SpecError.

    ``where`` names the spec path (or CLI flag) carried by the error.
    KeyError means an unknown name (the registry message lists the valid
    ones); ValueError/ValidationError means a recognized pattern with bad
    parameters, e.g. ``MinMax-1.5`` (gamma must be <= 1).
    """
    try:
        make_scheduler(name)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise SpecError(f"{where}: {message}") from exc
    return name


def _scheduler_names(
    section: Section, key: str, default: Sequence[str], *, non_empty: bool = True
) -> tuple[str, ...]:
    """A list of distinct registry scheduler names, each resolved now."""
    names = tuple(
        section.get_str_list(key, list(default), non_empty=non_empty, unique=True)
    )
    for i, name in enumerate(names):
        check_scheduler_name(name, f"{section.path(key)}[{i}]")
    return names


def _parse_schedulers(section: Optional[Section], where: str) -> tuple[SchedulerCaseSpec, ...]:
    if section is None:
        raise SpecError(
            f"missing required table {where!r} (set {where}.names = [...] "
            "or add [[" + where + ".cases]] entries)"
        )
    cases: list[SchedulerCaseSpec] = []
    names = section.get_str_list("names", [])
    for i, name in enumerate(names):
        check_scheduler_name(name, f"{section.path('names')}[{i}]")
        cases.append(SchedulerCaseSpec(name=name))
    for case_section in section.sections("cases"):
        name = case_section.get_str("name", required=True)
        check_scheduler_name(name, case_section.path("name"))
        cases.append(
            SchedulerCaseSpec(
                name=name,
                burst_buffer=case_section.get_bool("burst_buffer", False),
                label=case_section.get_str("label"),
            )
        )
        case_section.finish()
    if not cases:
        raise section.error("at least one scheduler is required")
    section.finish()
    return tuple(cases)


@dataclass(frozen=True)
class OutputSpec:
    """Where and how to dump results (overridable from the CLI).

    ``format`` is ``"json"``, ``"csv"``, or ``None`` — meaning "infer from
    the path suffix" (``.csv`` selects CSV, anything else JSON).
    """

    path: str
    format: Optional[str] = None


def _parse_output(section: Optional[Section]) -> Optional[OutputSpec]:
    if section is None:
        return None
    path = section.get_str("path", required=True)
    if not path.strip():
        raise SpecError(f"{section.path('path')} must be a non-empty file path")
    out = OutputSpec(
        path=path,
        format=section.get_str("format", choices=("json", "csv")),
    )
    section.finish()
    return out


# ---------------------------------------------------------------------- #
# Fault injection ([faults] table, grid experiments only)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultWindowSpec:
    """One deterministic PFS degradation window (``[[faults.windows]]``).

    ``factor`` scales the aggregate PFS bandwidth over ``[start, end)``;
    0 is a full blackout.  ``end = None`` means the window never lifts.
    """

    start: float
    factor: float
    end: Optional[float] = None


@dataclass(frozen=True)
class CrashSpec:
    """One deterministic crash event (``[[faults.crashes]]``).

    ``app`` must name an application of every scenario the grid builds
    (checked at build time); ``checkpoint_io`` is the bytes of checkpoint
    re-read charged before the lost instance restarts.
    """

    app: str
    time: float
    checkpoint_io: float


@dataclass(frozen=True)
class RandomWindowsSpec:
    """Poisson brown-out process (``[faults.random_windows]``).

    Window starts arrive with exponential inter-arrival times of mean
    ``1 / rate`` seconds; each window lasts ``duration`` seconds at
    ``factor`` of nominal bandwidth.  Realized per scenario at build time
    from the fault seed, never inside the engines.
    """

    rate: float
    duration: float
    factor: float


@dataclass(frozen=True)
class RandomCrashesSpec:
    """Poisson crash process (``[faults.random_crashes]``).

    Each application draws its own exponential inter-arrival stream of mean
    ``1 / rate`` seconds; every crash charges ``checkpoint_io`` bytes of
    recovery I/O.
    """

    rate: float
    checkpoint_io: float


@dataclass(frozen=True)
class FaultsSpec:
    """The ``[faults]`` table: fault injection for a grid experiment.

    ``seed`` pins the stochastic processes independently of the experiment
    seed (default: the experiment seed).  With ``baseline = true`` (the
    default) every scenario also runs healthy, so resilience metrics can
    report throughput retained versus the fault-free twin.
    """

    seed: Optional[int] = None
    baseline: bool = True
    windows: tuple[FaultWindowSpec, ...] = ()
    crashes: tuple[CrashSpec, ...] = ()
    random_windows: Optional[RandomWindowsSpec] = None
    random_crashes: Optional[RandomCrashesSpec] = None

    @property
    def is_stochastic(self) -> bool:
        """True when any fault source needs random draws (and a horizon)."""
        return self.random_windows is not None or self.random_crashes is not None


def _parse_fault_factor(section: Section) -> float:
    factor = section.get_float("factor", required=True, minimum=0.0, maximum=1.0)
    if factor >= 1.0:
        raise SpecError(
            f"{section.path('factor')} must be < 1 (a factor of 1 is a "
            "healthy platform; use 0 for a full blackout)"
        )
    return factor


def _parse_faults(section: Optional[Section]) -> Optional[FaultsSpec]:
    if section is None:
        return None
    windows: list[FaultWindowSpec] = []
    for w in section.sections("windows"):
        start = w.get_float("start", required=True, minimum=0.0)
        end = w.get_float("end", positive=True)
        factor = _parse_fault_factor(w)
        if end is not None and end <= start:
            raise SpecError(
                f"{w.path('end')} must be > start ({start:g}), got {end:g}"
            )
        windows.append(FaultWindowSpec(start=start, factor=factor, end=end))
        w.finish()
    crashes: list[CrashSpec] = []
    for c in section.sections("crashes"):
        crashes.append(
            CrashSpec(
                app=c.get_str("app", required=True),
                time=c.get_float("time", required=True, minimum=0.0),
                checkpoint_io=c.get_float("checkpoint_io", required=True, minimum=0.0),
            )
        )
        c.finish()
    random_windows: Optional[RandomWindowsSpec] = None
    rw = section.subsection("random_windows")
    if rw is not None:
        random_windows = RandomWindowsSpec(
            rate=rw.get_float("rate", required=True, positive=True),
            duration=rw.get_float("duration", required=True, positive=True),
            factor=_parse_fault_factor(rw),
        )
        rw.finish()
    random_crashes: Optional[RandomCrashesSpec] = None
    rc = section.subsection("random_crashes")
    if rc is not None:
        random_crashes = RandomCrashesSpec(
            rate=rc.get_float("rate", required=True, positive=True),
            checkpoint_io=rc.get_float("checkpoint_io", required=True, minimum=0.0),
        )
        rc.finish()
    spec = FaultsSpec(
        seed=section.get_int("seed", minimum=0),
        baseline=section.get_bool("baseline", True),
        windows=tuple(windows),
        crashes=tuple(crashes),
        random_windows=random_windows,
        random_crashes=random_crashes,
    )
    if not (spec.windows or spec.crashes or spec.is_stochastic):
        raise section.error(
            "a [faults] table needs at least one fault source: "
            "[[faults.windows]], [[faults.crashes]], [faults.random_windows] "
            "or [faults.random_crashes]"
        )
    section.finish()
    return spec


# ---------------------------------------------------------------------- #
# Experiment bodies
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class GridSpec:
    """Body of a ``grid`` experiment: scenarios × scheduler cases."""

    platform: PlatformSpec
    scenarios: tuple[ScenarioEntry, ...]
    cases: tuple[SchedulerCaseSpec, ...]
    faults: Optional[FaultsSpec] = None


@dataclass(frozen=True)
class Figure6Spec:
    """Body of a ``figure6`` experiment (one or more panels)."""

    panels: tuple[str, ...]
    n_repetitions: int = 20
    schedulers: tuple[str, ...] = FIGURE6_SCHEDULERS
    platform: Optional[PlatformSpec] = None


@dataclass(frozen=True)
class CongestedMomentsSpec:
    """Body of a ``congested-moments`` experiment (Tables 1–2 campaigns)."""

    machine: str = "intrepid"
    n_moments: Optional[int] = None
    schedulers: tuple[str, ...] = TABLE_SCHEDULERS
    priority_only: bool = False


@dataclass(frozen=True)
class VestaSpec:
    """Body of a ``vesta`` experiment (the Figure 15 grid)."""

    scenarios: tuple[str, ...] = VESTA_SCENARIOS
    configurations: tuple[str, ...] = VESTA_CONFIGURATIONS


@dataclass(frozen=True)
class PeriodicSpec:
    """Body of a ``periodic`` experiment (Section 3.2).

    The application set comes either from explicit ``[[periodic.apps]]``
    tables or from a generated category mix (``small`` / ``large`` /
    ``very_large`` / ``io_ratio`` — the Figure 6 generator, seeded by the
    experiment seed).  Each selected heuristic runs the ``(1 + epsilon)``
    period sweep of :func:`repro.periodic.period_search.search_period` for
    its natural objective; ``online`` lists the online schedulers the same
    applications are simulated under for the steady-state-vs-online
    comparison (empty list: periodic only).
    """

    heuristics: tuple[str, ...] = PERIODIC_HEURISTICS
    online: tuple[str, ...] = ("MaxSysEff", "MinDilation")
    epsilon: float = 0.1
    max_period: Optional[float] = None
    max_period_factor: float = 10.0
    platform: Optional[PlatformSpec] = None
    apps: tuple[AppSpec, ...] = ()
    small: int = 0
    large: int = 0
    very_large: int = 0
    io_ratio: float = 0.2
    fit_to_platform: bool = True


@dataclass(frozen=True)
class Figure1Spec:
    """``[analysis.figure1]`` — the throughput-decrease replay."""

    n_applications: int = 400
    applications_per_batch: int = 6
    io_ratio: float = 0.15
    release_spread: float = 2.0
    bin_width: float = 10.0


@dataclass(frozen=True)
class Figure5Spec:
    """``[analysis.figure5]`` — the synthetic-Darshan characterization."""

    n_jobs: int = 400
    duration_days: float = 365.0
    coverage: float = 0.5


@dataclass(frozen=True)
class Figure7Spec:
    """``[analysis.figure7]`` — the sensibility (periodicity) sweep."""

    sensibilities: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    schedulers: tuple[str, ...] = FIGURE7_SCHEDULERS
    scenario: str = "10large-20"
    n_repetitions: int = 5
    perturb_io: bool = False


@dataclass(frozen=True)
class AnalysisSpec:
    """Body of an ``analysis`` experiment (Figures 1, 5 and 7).

    ``figures`` selects which studies run; each study's random stream comes
    from a *fixed* slot of ``spawn_rngs(experiment.seed, 3)`` (figure1 = 0,
    figure5 = 1, figure7 = 2), so deselecting one figure never perturbs the
    others' results.
    """

    figures: tuple[str, ...] = ANALYSIS_FIGURES
    platform: Optional[PlatformSpec] = None
    figure1: Figure1Spec = Figure1Spec()
    figure5: Figure5Spec = Figure5Spec()
    figure7: Figure7Spec = Figure7Spec()


ExperimentBody = Union[
    GridSpec,
    Figure6Spec,
    CongestedMomentsSpec,
    VestaSpec,
    PeriodicSpec,
    AnalysisSpec,
]


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully parsed experiment: common knobs plus a kind-specific body."""

    name: str
    kind: str
    body: ExperimentBody
    seed: int = 0
    workers: Optional[int] = None
    max_time: float = float("inf")
    output: Optional[OutputSpec] = None

    def with_overrides(
        self,
        *,
        seed: Optional[int] = None,
        workers: Optional[int] = None,
        max_time: Optional[float] = None,
        output: Optional[OutputSpec] = None,
    ) -> "ExperimentSpec":
        """Copy with CLI-level overrides applied (``None`` keeps the spec value).

        Overrides bypass :func:`parse_spec`, so its bounds are re-enforced
        here (raising :class:`SpecError`) — a ``--seed -1`` must fail the
        same way for every caller, not surface as a deep numpy error.
        """
        spec = self
        if seed is not None:
            if seed < 0:
                raise SpecError(f"seed must be >= 0, got {seed}")
            spec = replace(spec, seed=seed)
        if workers is not None:
            if workers < 0:
                raise SpecError(f"workers must be >= 0, got {workers}")
            spec = replace(spec, workers=workers)
        if max_time is not None:
            if max_time != max_time or max_time <= 0:
                raise SpecError(f"max_time must be > 0, got {max_time}")
            spec = replace(spec, max_time=max_time)
        if output is not None:
            spec = replace(spec, output=output)
        return spec


# ---------------------------------------------------------------------- #
def _parse_grid_body(root: Section) -> GridSpec:
    platform = _parse_platform(root.subsection("platform")) or PlatformSpec(
        preset="intrepid"
    )
    scenario_sections = root.sections("scenarios", required=True)
    if not scenario_sections:
        raise SpecError(
            "a grid experiment needs at least one [[scenarios]] entry"
        )
    scenarios = tuple(_parse_scenario_entry(s) for s in scenario_sections)
    cases = _parse_schedulers(root.subsection("schedulers"), "schedulers")
    faults = _parse_faults(root.subsection("faults"))
    return GridSpec(platform=platform, scenarios=scenarios, cases=cases, faults=faults)


def _parse_figure6_body(root: Section) -> Figure6Spec:
    section = root.subsection("figure6") or Section({}, "figure6")
    panels = tuple(
        section.get_str_list("panels", list(FIGURE6_SCENARIOS), non_empty=True,
                             unique=True, choices=FIGURE6_SCENARIOS)
    )
    spec = Figure6Spec(
        panels=panels,
        n_repetitions=section.get_int("n_repetitions", 20, minimum=1),
        schedulers=_scheduler_names(section, "schedulers", FIGURE6_SCHEDULERS),
        platform=_parse_platform(section.subsection("platform")),
    )
    section.finish()
    return spec


def _parse_congested_body(root: Section) -> CongestedMomentsSpec:
    section = root.subsection("congested_moments") or Section({}, "congested_moments")
    schedulers = _scheduler_names(section, "schedulers", TABLE_SCHEDULERS)
    spec = CongestedMomentsSpec(
        machine=section.get_str("machine", "intrepid", choices=("intrepid", "mira")),
        n_moments=section.get_int("n_moments", minimum=1),
        schedulers=schedulers,
        priority_only=section.get_bool("priority_only", False),
    )
    section.finish()
    return spec


def _parse_vesta_body(root: Section) -> VestaSpec:
    section = root.subsection("vesta") or Section({}, "vesta")
    scenarios = tuple(
        section.get_str_list("scenarios", list(VESTA_SCENARIOS), non_empty=True,
                             unique=True)
    )
    vesta_nodes = vesta_platform().total_processors
    for i, mix in enumerate(scenarios):
        try:
            counts = parse_scenario(mix)
        except Exception as exc:
            raise SpecError(f"{section.path('scenarios')}[{i}]: {exc}") from exc
        if sum(counts) > vesta_nodes:
            # The vesta experiment always runs on the Vesta machine; catch
            # oversized mixes here so `repro validate` means "will run".
            raise SpecError(
                f"{section.path('scenarios')}[{i}]: mix {mix!r} needs "
                f"{sum(counts)} nodes but Vesta has only {vesta_nodes}"
            )
    configurations = tuple(
        section.get_str_list(
            "configurations", list(VESTA_CONFIGURATIONS), non_empty=True,
            unique=True, choices=VESTA_CONFIGURATIONS,
        )
    )
    spec = VestaSpec(scenarios=scenarios, configurations=configurations)
    section.finish()
    return spec


def _parse_periodic_body(root: Section) -> PeriodicSpec:
    section = root.subsection("periodic", required=True)
    heuristics = tuple(
        section.get_str_list(
            "heuristics", list(PERIODIC_HEURISTICS), non_empty=True, unique=True,
            choices=PERIODIC_HEURISTICS,
        )
    )
    online = _scheduler_names(
        section, "online", ("MaxSysEff", "MinDilation"), non_empty=False
    )

    app_sections = section.sections("apps")
    apps = tuple(_parse_app(s) for s in app_sections)
    for i, app in enumerate(apps):
        if app.release != 0.0:
            raise SpecError(
                f"{section.path('apps')}[{i}].release must be 0 for a "
                "periodic experiment: a steady-state schedule has no "
                "release times"
            )
        if any(other.name == app.name for other in apps[:i]):
            raise SpecError(
                f"{section.path('apps')}[{i}].name duplicates {app.name!r}; "
                "periodic schedules need distinct application names"
            )
    epsilon = section.get_float("epsilon", 0.1, positive=True)
    if 1.0 + epsilon == 1.0:
        raise SpecError(
            f"{section.path('epsilon')} = {epsilon!r} is too small: "
            "1 + epsilon rounds to 1, so the period sweep would never advance"
        )
    spec = PeriodicSpec(
        heuristics=heuristics,
        online=online,
        epsilon=epsilon,
        max_period=section.get_float("max_period", positive=True),
        max_period_factor=section.get_float(
            "max_period_factor", 10.0, minimum=1.0
        ),
        platform=_parse_platform(section.subsection("platform")),
        apps=apps,
        small=section.get_int("small", 0, minimum=0),
        large=section.get_int("large", 0, minimum=0),
        very_large=section.get_int("very_large", 0, minimum=0),
        io_ratio=section.get_float("io_ratio", 0.2, minimum=0.0, maximum=10.0),
        fit_to_platform=section.get_bool("fit_to_platform", True),
    )
    n_mix = spec.small + spec.large + spec.very_large
    if apps and n_mix > 0:
        raise section.error(
            "give either explicit [[periodic.apps]] tables or a generated "
            "mix (small/large/very_large), not both"
        )
    if not apps and n_mix <= 0:
        raise section.error(
            "a periodic experiment needs applications: add [[periodic.apps]] "
            "tables or set small/large/very_large counts"
        )
    section.finish()
    return spec


def _parse_analysis_body(root: Section) -> AnalysisSpec:
    section = root.subsection("analysis") or Section({}, "analysis")
    figures = tuple(
        section.get_str_list(
            "figures", list(ANALYSIS_FIGURES), non_empty=True, unique=True,
            choices=ANALYSIS_FIGURES,
        )
    )

    # An absent figure table parses as an empty one: every key defaults.
    fig1_section = section.subsection("figure1") or Section({}, "analysis.figure1")
    figure1 = Figure1Spec(
        n_applications=fig1_section.get_int("n_applications", 400, minimum=1),
        applications_per_batch=fig1_section.get_int(
            "applications_per_batch", 6, minimum=2
        ),
        io_ratio=fig1_section.get_float("io_ratio", 0.15, minimum=0.0, maximum=10.0),
        release_spread=fig1_section.get_float("release_spread", 2.0, minimum=0.0),
        bin_width=fig1_section.get_float("bin_width", 10.0, positive=True),
    )
    fig1_section.finish()

    fig5_section = section.subsection("figure5") or Section({}, "analysis.figure5")
    figure5 = Figure5Spec(
        n_jobs=fig5_section.get_int("n_jobs", 400, minimum=1),
        duration_days=fig5_section.get_float("duration_days", 365.0, positive=True),
        coverage=fig5_section.get_float("coverage", 0.5, minimum=0.0, maximum=1.0),
    )
    fig5_section.finish()

    fig7_section = section.subsection("figure7") or Section({}, "analysis.figure7")
    schedulers = _scheduler_names(fig7_section, "schedulers", FIGURE7_SCHEDULERS)
    figure7 = Figure7Spec(
        sensibilities=tuple(
            fig7_section.get_float_list(
                "sensibilities",
                list(Figure7Spec().sensibilities),
                non_empty=True,
                unique=True,
                minimum=0.0,
                maximum=99.0,
            )
        ),
        schedulers=schedulers,
        scenario=fig7_section.get_str("scenario", "10large-20", choices=FIGURE6_SCENARIOS),
        n_repetitions=fig7_section.get_int("n_repetitions", 5, minimum=1),
        perturb_io=fig7_section.get_bool("perturb_io", False),
    )
    fig7_section.finish()

    spec = AnalysisSpec(
        figures=figures,
        platform=_parse_platform(section.subsection("platform")),
        figure1=figure1,
        figure5=figure5,
        figure7=figure7,
    )
    section.finish()
    return spec


def parse_spec(data: Mapping[str, object], *, name: str = "experiment") -> ExperimentSpec:
    """Validate a raw spec mapping into an :class:`ExperimentSpec`.

    ``data`` is whatever ``tomllib.load`` / ``json.load`` produced (or a
    hand-built dict — the quickstart command builds one inline).  Raises
    :class:`SpecError` with the exact spec path on any malformed key.
    """
    # The kind table imports this module's parsers, so it loads lazily.
    from repro.config.kinds import EXPERIMENT_KINDS, KINDS

    root = Section(data, "")
    experiment = root.subsection("experiment", required=True)
    kind = experiment.get_str("kind", required=True, choices=EXPERIMENT_KINDS)
    spec_name = experiment.get_str("name", name)
    seed = experiment.get_int("seed", 0, minimum=0)
    workers = experiment.get_int("workers", minimum=0)
    max_time = experiment.get_float(
        "max_time", float("inf"), positive=True, allow_inf=True
    )
    experiment.finish()
    kind_entry = KINDS[kind]
    body = kind_entry.parse(root)
    kind_entry.refuse_horizon(body, max_time)
    output = _parse_output(root.subsection("output"))
    root.finish()
    return ExperimentSpec(
        name=spec_name,
        kind=kind,
        body=body,
        seed=seed,
        workers=workers,
        max_time=max_time,
        output=output,
    )
