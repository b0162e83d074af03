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

Every key is declared once, as a :func:`repro.config.schema.key` field of
the dataclass its table parses into; :func:`repro.config.schema.parse_body`
reads them all.  The hand code left here is the rules that span several
keys (each class's ``cross_check``) and the per-key checks that need more
than a type, bound or choice (scheduler names, IOR mixes, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Sequence, Union

from repro.config.schema import Key, Section, SpecError, key, read_key, read_keys
from repro.core.evaluation import (
    FIGURE6_SCENARIOS,
    FIGURE6_SCHEDULERS,
    FIGURE7_SCHEDULERS,
    TABLE_SCHEDULERS,
    VESTA_CONFIGURATIONS,
    VESTA_SCENARIOS,
)
from repro.core.platform import vesta as vesta_platform
from repro.online.registry import make_scheduler
from repro.workload.ior import parse_scenario

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

#: The accepted ``[periodic].heuristics`` names, in canonical order: the
#: keys of :data:`repro.periodic.heuristics.PERIODIC_HEURISTIC_TABLE`, from
#: which the runner instantiates them (a test pins the two together).
PERIODIC_HEURISTICS: tuple[str, ...] = ("throughput", "congestion")

#: Figure studies accepted by ``[analysis].figures``, in the fixed seed-slot
#: order of the determinism contract.
ANALYSIS_FIGURES: tuple[str, ...] = ("figure1", "figure5", "figure7")

#: Scenario-entry kinds accepted inside a ``grid`` experiment.
SCENARIO_KINDS: tuple[str, ...] = ("mix", "figure6", "congested", "ior", "apps")

_PLATFORM_PRESETS: tuple[str, ...] = ("intrepid", "mira", "vesta", "generic")

_GENERIC_SIZES: tuple[str, ...] = ("processors", "node_bandwidth", "system_bandwidth")


# ---------------------------------------------------------------------- #
# Per-key checks (run right after their key is read)
# ---------------------------------------------------------------------- #
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


def _check_scheduler_names(names: Sequence[str], path: str) -> None:
    for i, name in enumerate(names):
        check_scheduler_name(name, f"{path}[{i}]")


def _check_ior_mix(mix: str, path: str) -> None:
    try:
        parse_scenario(mix)
    except Exception as exc:
        raise SpecError(f"{path}: {exc}") from exc


def _check_vesta_mixes(mixes: Sequence[str], path: str) -> None:
    vesta_nodes = vesta_platform().total_processors
    for i, mix in enumerate(mixes):
        try:
            counts = parse_scenario(mix)
        except Exception as exc:
            raise SpecError(f"{path}[{i}]: {exc}") from exc
        if sum(counts) > vesta_nodes:
            # The vesta experiment always runs on the Vesta machine; catch
            # oversized mixes here so `repro validate` means "will run".
            raise SpecError(
                f"{path}[{i}]: mix {mix!r} needs "
                f"{sum(counts)} nodes but Vesta has only {vesta_nodes}"
            )


def _check_fault_factor(factor: float, path: str) -> None:
    if factor >= 1.0:
        raise SpecError(
            f"{path} must be < 1 (a factor of 1 is a "
            "healthy platform; use 0 for a full blackout)"
        )


def _check_output_path(output_path: str, path: str) -> None:
    if not output_path.strip():
        raise SpecError(f"{path} must be a non-empty file path")


def _check_periodic_apps(apps: Sequence["AppSpec"], path: str) -> None:
    for i, app in enumerate(apps):
        if app.release != 0.0:
            raise SpecError(
                f"{path}[{i}].release must be 0 for a "
                "periodic experiment: a steady-state schedule has no "
                "release times"
            )
        if any(other.name == app.name for other in apps[:i]):
            raise SpecError(
                f"{path}[{i}].name duplicates {app.name!r}; "
                "periodic schedules need distinct application names"
            )


def _check_epsilon(epsilon: float, path: str) -> None:
    if 1.0 + epsilon == 1.0:
        raise SpecError(
            f"{path} = {epsilon!r} is too small: "
            "1 + epsilon rounds to 1, so the period sweep would never advance"
        )


def _check_has_scenarios(scenarios: Sequence["ScenarioEntry"], path: str) -> None:
    if not scenarios:
        raise SpecError("a grid experiment needs at least one [[scenarios]] entry")


def _experiment_kinds() -> tuple[str, ...]:
    # The kind table imports this module, so it loads lazily.
    from repro.config.kinds import EXPERIMENT_KINDS

    return EXPERIMENT_KINDS


# ---------------------------------------------------------------------- #
# Platform
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class BurstBufferTable:
    """Explicit burst-buffer description for ``generic`` platforms.

    All three attributes are in the paper's units: ``capacity`` in bytes,
    the two bandwidths in bytes/s.
    """

    capacity: float = key("float", required=True, positive=True)
    ingest_bandwidth: float = key("float", required=True, positive=True)
    drain_bandwidth: float = key("float", required=True, positive=True)


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

    preset: str = key("str", "intrepid", choices=_PLATFORM_PRESETS)
    processors: Optional[int] = key("int", None, minimum=1)
    node_bandwidth: Optional[float] = key("float", None, positive=True)
    system_bandwidth: Optional[float] = key("float", None, positive=True)
    name: Optional[str] = key("str", None)
    scale: Optional[float] = key("float", None, positive=True)
    burst_buffer: Optional[BurstBufferTable] = key("table", None, table=BurstBufferTable)

    @staticmethod
    def cross_check(section: Section, values: dict[str, Any]) -> None:
        """Sizes belong to generic platforms only, and generic needs all three."""
        # Without an explicit preset, the table means "the default machine
        # (Intrepid), tweaked" — unless it carries explicit sizes, which only
        # a generic platform accepts.  A scale-only table must not demand
        # generic keys.
        if not section.has_value("preset") and any(
            values[k] is not None for k in _GENERIC_SIZES
        ):
            values["preset"] = "generic"
        preset = values["preset"]
        for k in _GENERIC_SIZES:
            if preset == "generic" and values[k] is None:
                raise SpecError(
                    f"{section.path(k)} is required for a 'generic' platform"
                )
            if preset != "generic" and values[k] is not None:
                raise SpecError(
                    f"{section.path(k)} cannot be combined with "
                    f"preset {preset!r}; use preset = 'generic' for custom sizes"
                )


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

    name: str = key("str", required=True)
    processors: int = key("int", required=True, minimum=1)
    work: float = key("float", required=True, minimum=0.0)
    io_volume: float = key("float", required=True, minimum=0.0)
    instances: int = key("int", 1, minimum=1)
    release: float = key("float", 0.0, minimum=0.0)


_MIXES = ("mix", "congested")


@dataclass(frozen=True)
class ScenarioEntry:
    """One ``[[scenarios]]`` entry of a grid experiment.

    The ``kind`` selects the generator; only the fields relevant to that
    kind are set (the parser rejects the rest).  ``repetitions`` replicates
    the entry with independent random streams; ``seed`` pins the entry's
    randomness independently of its position in the spec.
    """

    kind: str = key("str", required=True, choices=SCENARIO_KINDS)
    label: Optional[str] = key("str", None)
    seed: Optional[int] = key("int", None, minimum=0)
    repetitions: int = key("int", 1, minimum=1)
    platform: Optional[PlatformSpec] = key("table", None, table=PlatformSpec)
    small: int = key("int", 0, minimum=0, kinds=_MIXES)
    large: int = key("int", 0, minimum=0, kinds=_MIXES)
    very_large: int = key("int", 0, minimum=0, kinds=_MIXES)
    io_ratio: float = key("float", 0.2, minimum=0.0, maximum=10.0, kinds=_MIXES)
    fit_to_platform: bool = key("bool", True, kinds=("mix",))
    congestion_factor: float = key("float", 1.5, positive=True, kinds=("congested",))
    panel: Optional[str] = key(
        "str", None, required=True, choices=FIGURE6_SCENARIOS, kinds=("figure6",)
    )
    mix: Optional[str] = key("str", None, required=True, check=_check_ior_mix, kinds=("ior",))
    iterations: Optional[int] = key("int", None, minimum=1, kinds=("ior",))
    compute_time: Optional[float] = key("float", None, positive=True, kinds=("ior",))
    write_per_node: Optional[float] = key("float", None, positive=True, kinds=("ior",))
    jitter: float = key("float", 0.0, minimum=0.0, maximum=0.9, kinds=("ior",))
    apps: tuple[AppSpec, ...] = key("tables", (), required=True, table=AppSpec, kinds=("apps",))

    @staticmethod
    def cross_check(section: Section, values: dict[str, Any]) -> None:
        """A mix draws at least one application; ``apps`` lists at least one."""
        kind = values["kind"]
        if kind in _MIXES and values["small"] + values["large"] + values["very_large"] <= 0:
            raise section.error(
                "a mix needs at least one application: set small, large "
                "and/or very_large"
            )
        if kind == "apps" and not values["apps"]:
            raise section.error("kind 'apps' needs at least one [[scenarios.apps]]")


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

    name: str = key("str", required=True, check=check_scheduler_name)
    burst_buffer: bool = key("bool", False)
    label: Optional[str] = key("str", None)


#: The ``[schedulers]`` table's keys (it has no dataclass of its own):
#: ``names`` is shorthand for plain cases, each ``[[schedulers.cases]]``
#: entry a long-form case.
SCHEDULERS_KEYS: dict[str, Key] = {
    "names": Key("str_list", (), check=_check_scheduler_names),
    "cases": Key("tables", (), table=SchedulerCaseSpec),
}


def _parse_schedulers(section: Optional[Section]) -> tuple[SchedulerCaseSpec, ...]:
    if section is None:
        raise SpecError(
            "missing required table 'schedulers' (set schedulers.names = [...] "
            "or add [[schedulers.cases]] entries)"
        )
    names = read_key(section, "names", SCHEDULERS_KEYS["names"])
    cases = tuple(SchedulerCaseSpec(name=name) for name in names)
    cases += read_key(section, "cases", SCHEDULERS_KEYS["cases"])
    if not cases:
        raise section.error("at least one scheduler is required")
    section.finish()
    return cases


@dataclass(frozen=True)
class OutputSpec:
    """Where and how to dump results (overridable from the CLI).

    ``format`` is ``"json"``, ``"csv"``, or ``None`` — meaning "infer from
    the path suffix" (``.csv`` selects CSV, anything else JSON).
    """

    path: str = key("str", required=True, check=_check_output_path)
    format: Optional[str] = key("str", None, choices=("json", "csv"))


# ---------------------------------------------------------------------- #
# Fault injection ([faults] table, grid experiments only)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultWindowSpec:
    """One deterministic PFS degradation window (``[[faults.windows]]``).

    ``factor`` scales the aggregate PFS bandwidth over ``[start, end)``;
    0 is a full blackout.  ``end = None`` means the window never lifts.
    """

    start: float = key("float", required=True, minimum=0.0)
    factor: float = key(
        "float", required=True, minimum=0.0, maximum=1.0, check=_check_fault_factor
    )
    end: Optional[float] = key("float", None, positive=True)

    @staticmethod
    def cross_check(section: Section, values: dict[str, Any]) -> None:
        """A window that lifts ends after it starts."""
        start, end = values["start"], values["end"]
        if end is not None and end <= start:
            raise SpecError(
                f"{section.path('end')} must be > start ({start:g}), got {end:g}"
            )


@dataclass(frozen=True)
class CrashSpec:
    """One deterministic crash event (``[[faults.crashes]]``).

    ``app`` must name an application of every scenario the grid builds
    (checked at build time); ``checkpoint_io`` is the bytes of checkpoint
    re-read charged before the lost instance restarts.
    """

    app: str = key("str", required=True)
    time: float = key("float", required=True, minimum=0.0)
    checkpoint_io: float = key("float", required=True, minimum=0.0)


@dataclass(frozen=True)
class RandomWindowsSpec:
    """Poisson brown-out process (``[faults.random_windows]``).

    Window starts arrive with exponential inter-arrival times of mean
    ``1 / rate`` seconds; each window lasts ``duration`` seconds at
    ``factor`` of nominal bandwidth.  Realized per scenario at build time
    from the fault seed, never inside the engines.
    """

    rate: float = key("float", required=True, positive=True)
    duration: float = key("float", required=True, positive=True)
    factor: float = key(
        "float", required=True, minimum=0.0, maximum=1.0, check=_check_fault_factor
    )


@dataclass(frozen=True)
class RandomCrashesSpec:
    """Poisson crash process (``[faults.random_crashes]``).

    Each application draws its own exponential inter-arrival stream of mean
    ``1 / rate`` seconds; every crash charges ``checkpoint_io`` bytes of
    recovery I/O.
    """

    rate: float = key("float", required=True, positive=True)
    checkpoint_io: float = key("float", required=True, minimum=0.0)


@dataclass(frozen=True)
class FaultsSpec:
    """The ``[faults]`` table: fault injection for a grid experiment.

    ``seed`` pins the stochastic processes independently of the experiment
    seed (default: the experiment seed).  With ``baseline = true`` (the
    default) every scenario also runs healthy, so resilience metrics can
    report throughput retained versus the fault-free twin.
    """

    windows: tuple[FaultWindowSpec, ...] = key("tables", (), table=FaultWindowSpec)
    crashes: tuple[CrashSpec, ...] = key("tables", (), table=CrashSpec)
    random_windows: Optional[RandomWindowsSpec] = key(
        "table", None, table=RandomWindowsSpec
    )
    random_crashes: Optional[RandomCrashesSpec] = key(
        "table", None, table=RandomCrashesSpec
    )
    seed: Optional[int] = key("int", None, minimum=0)
    baseline: bool = key("bool", True)

    @property
    def is_stochastic(self) -> bool:
        """True when any fault source needs random draws (and a horizon)."""
        return self.random_windows is not None or self.random_crashes is not None

    @staticmethod
    def cross_check(section: Section, values: dict[str, Any]) -> None:
        """At least one fault source."""
        sources = ("windows", "crashes", "random_windows", "random_crashes")
        if not any(values[k] for k in sources):
            raise section.error(
                "a [faults] table needs at least one fault source: "
                "[[faults.windows]], [[faults.crashes]], [faults.random_windows] "
                "or [faults.random_crashes]"
            )


# ---------------------------------------------------------------------- #
# Experiment bodies
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class GridSpec:
    """Body of a ``grid`` experiment: scenarios × scheduler cases.

    Its keys sit at the spec root, next to ``[experiment]`` and
    ``[output]``; an absent ``[platform]`` is the default (Intrepid).
    """

    platform: PlatformSpec = key("table", table=PlatformSpec)
    scenarios: tuple[ScenarioEntry, ...] = key(
        "tables", required=True, table=ScenarioEntry, check=_check_has_scenarios
    )
    cases: tuple[SchedulerCaseSpec, ...] = key(
        "table", name="schedulers", parse=_parse_schedulers
    )
    faults: Optional[FaultsSpec] = key("table", None, table=FaultsSpec)


@dataclass(frozen=True)
class Figure6Spec:
    """Body of a ``figure6`` experiment (one or more panels)."""

    panels: tuple[str, ...] = key(
        "str_list", FIGURE6_SCENARIOS, non_empty=True, unique=True,
        choices=FIGURE6_SCENARIOS,
    )
    n_repetitions: int = key("int", 20, minimum=1)
    schedulers: tuple[str, ...] = key(
        "str_list", FIGURE6_SCHEDULERS, non_empty=True, unique=True,
        check=_check_scheduler_names,
    )
    platform: Optional[PlatformSpec] = key("table", None, table=PlatformSpec)


@dataclass(frozen=True)
class CongestedMomentsSpec:
    """Body of a ``congested-moments`` experiment (Tables 1–2 campaigns)."""

    schedulers: tuple[str, ...] = key(
        "str_list", TABLE_SCHEDULERS, non_empty=True, unique=True,
        check=_check_scheduler_names,
    )
    machine: str = key("str", "intrepid", choices=("intrepid", "mira"))
    n_moments: Optional[int] = key("int", None, minimum=1)
    priority_only: bool = key("bool", False)


@dataclass(frozen=True)
class VestaSpec:
    """Body of a ``vesta`` experiment (the Figure 15 grid)."""

    scenarios: tuple[str, ...] = key(
        "str_list", VESTA_SCENARIOS, non_empty=True, unique=True,
        check=_check_vesta_mixes,
    )
    configurations: tuple[str, ...] = key(
        "str_list", VESTA_CONFIGURATIONS, non_empty=True, unique=True,
        choices=VESTA_CONFIGURATIONS,
    )


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

    heuristics: tuple[str, ...] = key(
        "str_list", PERIODIC_HEURISTICS, non_empty=True, unique=True,
        choices=PERIODIC_HEURISTICS,
    )
    online: tuple[str, ...] = key(
        "str_list", ("MaxSysEff", "MinDilation"), unique=True,
        check=_check_scheduler_names,
    )
    apps: tuple[AppSpec, ...] = key("tables", (), table=AppSpec, check=_check_periodic_apps)
    epsilon: float = key("float", 0.1, positive=True, check=_check_epsilon)
    max_period: Optional[float] = key("float", None, positive=True)
    max_period_factor: float = key("float", 10.0, minimum=1.0)
    platform: Optional[PlatformSpec] = key("table", None, table=PlatformSpec)
    small: int = key("int", 0, minimum=0)
    large: int = key("int", 0, minimum=0)
    very_large: int = key("int", 0, minimum=0)
    io_ratio: float = key("float", 0.2, minimum=0.0, maximum=10.0)
    fit_to_platform: bool = key("bool", True)

    @staticmethod
    def cross_check(section: Section, values: dict[str, Any]) -> None:
        """Explicit applications or a generated mix, exactly one of them."""
        n_mix = values["small"] + values["large"] + values["very_large"]
        if values["apps"] and n_mix > 0:
            raise section.error(
                "give either explicit [[periodic.apps]] tables or a generated "
                "mix (small/large/very_large), not both"
            )
        if not values["apps"] and n_mix <= 0:
            raise section.error(
                "a periodic experiment needs applications: add [[periodic.apps]] "
                "tables or set small/large/very_large counts"
            )


@dataclass(frozen=True)
class Figure1Spec:
    """``[analysis.figure1]`` — the throughput-decrease replay."""

    n_applications: int = key("int", 400, minimum=1)
    applications_per_batch: int = key("int", 6, minimum=2)
    io_ratio: float = key("float", 0.15, minimum=0.0, maximum=10.0)
    release_spread: float = key("float", 2.0, minimum=0.0)
    bin_width: float = key("float", 10.0, positive=True)


@dataclass(frozen=True)
class Figure5Spec:
    """``[analysis.figure5]`` — the synthetic-Darshan characterization."""

    n_jobs: int = key("int", 400, minimum=1)
    duration_days: float = key("float", 365.0, positive=True)
    coverage: float = key("float", 0.5, minimum=0.0, maximum=1.0)


@dataclass(frozen=True)
class Figure7Spec:
    """``[analysis.figure7]`` — the sensibility (periodicity) sweep."""

    schedulers: tuple[str, ...] = key(
        "str_list", FIGURE7_SCHEDULERS, non_empty=True, unique=True,
        check=_check_scheduler_names,
    )
    sensibilities: tuple[float, ...] = key(
        "float_list", (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0), non_empty=True,
        unique=True, minimum=0.0, maximum=99.0,
    )
    scenario: str = key("str", "10large-20", choices=FIGURE6_SCENARIOS)
    n_repetitions: int = key("int", 5, minimum=1)
    perturb_io: bool = key("bool", False)


@dataclass(frozen=True)
class AnalysisSpec:
    """Body of an ``analysis`` experiment (Figures 1, 5 and 7).

    ``figures`` selects which studies run; each study's random stream comes
    from a *fixed* slot of ``spawn_rngs(experiment.seed, 3)`` (figure1 = 0,
    figure5 = 1, figure7 = 2), so deselecting one figure never perturbs the
    others' results.  An absent figure table parses as an empty one: every
    key defaults.
    """

    figures: tuple[str, ...] = key(
        "str_list", ANALYSIS_FIGURES, non_empty=True, unique=True,
        choices=ANALYSIS_FIGURES,
    )
    figure1: Figure1Spec = key("table", Figure1Spec(), table=Figure1Spec)
    figure5: Figure5Spec = key("table", Figure5Spec(), table=Figure5Spec)
    figure7: Figure7Spec = key("table", Figure7Spec(), table=Figure7Spec)
    platform: Optional[PlatformSpec] = key("table", None, table=PlatformSpec)


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
    """A fully parsed experiment: common knobs plus a kind-specific body.

    The declared keys are the ``[experiment]`` table's; ``name`` defaults
    to the ``name`` given to :func:`parse_spec` (the file stem).  ``body``
    comes first: type checkers count every :func:`key` field as defaulted.
    """

    body: ExperimentBody
    kind: str = key("str", required=True, choices=_experiment_kinds)
    name: str = key("str")
    seed: int = key("int", 0, minimum=0)
    workers: Optional[int] = key("int", None, minimum=0)
    max_time: float = key("float", math.inf, positive=True, allow_inf=True)
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


#: ``[output]``: a root table, read after the body.
OUTPUT_KEY = Key("table", None, table=OutputSpec)


def parse_spec(data: Mapping[str, object], *, name: str = "experiment") -> ExperimentSpec:
    """Validate a raw spec mapping into an :class:`ExperimentSpec`.

    ``data`` is whatever ``tomllib.load`` / ``json.load`` produced (or a
    hand-built dict — the quickstart command builds one inline).  Raises
    :class:`SpecError` with the exact spec path on any malformed key.
    """
    # The kind table imports this module's dataclasses, so it loads lazily.
    from repro.config.kinds import KINDS

    root = Section(data, "")
    experiment = root.subsection("experiment", required=True)
    head = read_keys(ExperimentSpec, experiment)
    experiment.finish()
    if head["name"] is None:
        head["name"] = name
    kind_entry = KINDS[head["kind"]]
    body = kind_entry.parse(root)
    kind_entry.refuse_horizon(body, head["max_time"])
    output = read_key(root, "output", OUTPUT_KEY)
    root.finish()
    kind_entry.load()
    return ExperimentSpec(body=body, output=output, **head)
