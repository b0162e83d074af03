"""The experiment-kind table: every ``[experiment].kind`` in one place.

:data:`KINDS` maps each kind's name to a :class:`Kind` record, and each
step that depends on the kind does one lookup: ``parse_spec``,
``run_spec``, ``repro validate`` and ``repro list experiments``.  The
body dataclasses, whose fields declare the keys, stay in
:mod:`repro.config.spec` and the runners in :mod:`repro.config.run`:
``perfbench``'s tracer times each layer by patching the harness names on
:mod:`repro.config.run`, so the runners must keep calling them there.
Those of another kind's producers are lazily resolved names there, which
a kind's ``imports`` bind when its spec is parsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import repro.config.build as builders
import repro.config.run as runners
from repro.config.schema import Key, Section, SpecError, read_key, read_keys
from repro.config.spec import (
    AnalysisSpec,
    CongestedMomentsSpec,
    ExperimentBody,
    ExperimentSpec,
    Figure6Spec,
    GridSpec,
    PeriodicSpec,
    VestaSpec,
)

__all__ = ["Kind", "KINDS", "EXPERIMENT_KINDS"]


@dataclass(frozen=True)
class Kind:
    """One experiment kind and how each pipeline step treats it.

    * ``parse(root)`` builds the kind's body from the spec's root table;
    * ``horizon(body, max_time)`` says why the kind refuses that
      truncation horizon, or returns ``None``.  It runs at parse time and
      again at run time, where a CLI ``--max-time`` override lands;
    * ``check(spec)`` runs the build-time checks that make ``repro
      validate`` exit 0 only for specs ``repro run`` accepts;
    * ``run(spec, body, executor, store)`` executes the experiment and
      returns its payload (less the ``experiment`` header), per-cell
      records and text tables;
    * ``imports`` names the lazily resolved producers of
      :mod:`repro.config.run` that only this kind's runner calls;
      :meth:`load` binds them (importing their modules) when a spec of the
      kind is parsed, so running it imports nothing new.
    """

    description: str
    parse: Callable[[Section], ExperimentBody]
    run: Callable[..., tuple[dict, list[dict], str]]
    horizon: Callable[[ExperimentBody, float], Optional[str]] = lambda body, max_time: None
    check: Callable[[ExperimentSpec], None] = lambda spec: None
    imports: tuple[str, ...] = ()

    def load(self) -> None:
        """Import this kind's producers into :mod:`repro.config.run`."""
        for name in self.imports:
            getattr(runners, name)

    def refuse_horizon(self, body: ExperimentBody, max_time: float) -> None:
        """Raise :class:`SpecError` when the kind refuses ``max_time``."""
        refusal = self.horizon(body, max_time)
        if refusal is not None:
            raise SpecError(refusal)


def _parse_grid(root: Section) -> ExperimentBody:
    # The grid's keys sit at the spec root, which parse_spec finishes.
    return GridSpec(**read_keys(GridSpec, root))


def _body_table(kind: str, body: type, *, required: bool = False):
    """``parse`` for a kind whose body is the root table named after it
    (``-`` spelled ``_``), absent meaning empty unless ``required``.  Such
    kinds have no fault injection: a ``[faults]`` table is refused first,
    before the body can trip over something else."""
    table = Key("table", table=body, required=required)

    def parse(root: Section) -> ExperimentBody:
        if root.has("faults"):
            raise SpecError(f"[faults] is only supported for kind 'grid', not {kind!r}")
        return read_key(root, kind.replace("-", "_"), table)

    return parse


def _complete_runs_only(kind: str, reason: str):
    """A horizon rule that refuses every finite ``max_time``."""

    def horizon(body: ExperimentBody, max_time: float) -> Optional[str]:
        if max_time == math.inf:
            return None
        return (
            f"experiment.max_time is not supported for kind {kind!r} ({reason}) "
            "— remove experiment.max_time (or the --max-time override)"
        )

    return horizon


def _grid_horizon(body, max_time: float) -> Optional[str]:
    if body.faults is None or not body.faults.is_stochastic or max_time != math.inf:
        return None
    return (
        "stochastic fault processes ([faults.random_windows] / "
        "[faults.random_crashes]) need a finite experiment.max_time "
        "horizon to realize their events over"
    )


def _check_grid(spec: ExperimentSpec) -> None:
    builders.build_grid_scenarios(spec.body, spec.seed, max_time=spec.max_time)
    builders.build_cases(spec.body)


#: Every experiment kind, in the order ``repro list experiments`` shows.
KINDS: dict[str, Kind] = {
    "grid": Kind(
        description="generic (scenarios x schedulers) grid — fully declarative",
        parse=_parse_grid,
        run=runners._run_grid_spec,
        horizon=_grid_horizon,
        check=_check_grid,
    ),
    "figure6": Kind(
        description="random-mix heuristic comparison (Figure 6 panels)",
        parse=_body_table("figure6", Figure6Spec),
        run=runners._run_figure6_spec,
        check=lambda spec: builders.check_figure6_setup(spec.body, spec.seed),
        imports=("figure6_experiment",),
    ),
    "congested-moments": Kind(
        description="Intrepid/Mira congested-moment campaigns (Tables 1-2, Figures 8-13)",
        parse=_body_table("congested-moments", CongestedMomentsSpec),
        run=runners._run_congested_spec,
        imports=("congested_moments_experiment",),
    ),
    "vesta": Kind(
        description="Vesta / modified-IOR emulation (Figures 14-16)",
        parse=_body_table("vesta", VestaSpec),
        run=runners._run_vesta_spec,
        # score_with_overhead rebuilds each outcome from the complete original
        # parameters, so a truncated cell would score misleadingly.
        horizon=_complete_runs_only("vesta", "cells are overhead-scored on complete runs"),
        imports=("vesta_experiment",),
    ),
    "periodic": Kind(
        description="Section 3.2 periodic heuristics + (1+eps) period sweep, "
                    "compared against the online schedulers",
        parse=_body_table("periodic", PeriodicSpec, required=True),
        run=runners._run_periodic_spec,
        horizon=_complete_runs_only(
            "periodic",
            "a steady-state schedule has no horizon; truncating only the "
            "online half would skew the periodic-vs-online comparison",
        ),
        check=lambda spec: builders.build_periodic_setup(spec.body, spec.seed),
        imports=("search_period", "PERIODIC_HEURISTIC_TABLE"),
    ),
    "analysis": Kind(
        description="figure-level studies: throughput decrease (Fig 1), workload "
                    "characterization (Fig 5), sensibility (Fig 7)",
        parse=_body_table("analysis", AnalysisSpec),
        run=runners._run_analysis_spec,
        check=lambda spec: builders.check_analysis_setup(spec.body, spec.seed),
        imports=(
            "throughput_decrease_study", "characterize", "generate_records",
            "sensitivity_study",
        ),
    ),
}

#: Experiment kinds understood by ``repro run``.
EXPERIMENT_KINDS: tuple[str, ...] = tuple(KINDS)
