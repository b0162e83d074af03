"""The experiment-kind table: every ``[experiment].kind`` in one place.

:data:`KINDS` maps each kind's name to a :class:`Kind` record, and each
step that depends on the kind does one lookup: ``parse_spec``,
``run_spec``, ``repro validate``, ``repro list experiments`` and the spec
benchmark.  The functions a record points at stay in their layer modules
(parsers in :mod:`repro.config.spec`, runners in :mod:`repro.config.run`):
``perfbench``'s tracer times each layer by patching the harness names on
:mod:`repro.config.run`, so the runners must keep calling them there.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import repro.config.build as builders
import repro.config.run as runners
import repro.config.spec as parsers
from repro.analysis.throughput import figure1_batch_count
from repro.config.schema import Section, SpecError
from repro.config.spec import ExperimentBody, ExperimentSpec

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
    * ``deepen(body, scale)`` and ``cells(body, payload)`` serve the spec
      benchmark: a ``scale``-times deeper body, and the independent work
      units a run's payload represents.
    """

    description: str
    parse: Callable[[Section], ExperimentBody]
    run: Callable[..., tuple[dict, list[dict], str]]
    horizon: Callable[[ExperimentBody, float], Optional[str]] = lambda body, max_time: None
    check: Callable[[ExperimentSpec], None] = lambda spec: None
    deepen: Callable[[ExperimentBody, int], ExperimentBody] = lambda body, scale: body
    cells: Callable[[ExperimentBody, Mapping], int] = (
        lambda body, payload: max(1, len(payload.get("cells", ())))
    )

    def refuse_horizon(self, body: ExperimentBody, max_time: float) -> None:
        """Raise :class:`SpecError` when the kind refuses ``max_time``."""
        refusal = self.horizon(body, max_time)
        if refusal is not None:
            raise SpecError(refusal)


def _without_faults(kind: str, parse: Callable[[Section], ExperimentBody]):
    """``parse`` for a kind without fault injection: a ``[faults]`` table is
    refused first, before the body parser can trip over something else."""

    def parse_body(root: Section) -> ExperimentBody:
        if root.has("faults"):
            raise SpecError(f"[faults] is only supported for kind 'grid', not {kind!r}")
        return parse(root)

    return parse_body


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


def _periodic_cells(body, payload: Mapping) -> int:
    # One schedule evaluation per sweep point, one simulation per online case.
    sweeps = [entry.get("sweep", ()) for entry in payload.get("periodic", {}).values()]
    return sum(map(len, sweeps)) + len(payload.get("online", {}))


def _deepen_analysis(body, scale: int):
    # More Figure 1 applications and more Figure 7 repetitions.
    f1, f7 = body.figure1, body.figure7
    return dataclasses.replace(
        body,
        figure1=dataclasses.replace(f1, n_applications=f1.n_applications * scale),
        figure7=dataclasses.replace(f7, n_repetitions=f7.n_repetitions * scale),
    )


def _analysis_cells(body, payload: Mapping) -> int:
    # Figure 1 batches, one characterization, Figure 7 simulations.
    figures = payload.get("figures", {})
    f1, f7 = body.figure1, body.figure7
    cells = 0
    if "figure1" in figures:
        cells += figure1_batch_count(f1.n_applications, f1.applications_per_batch)
    if "figure5" in figures:
        cells += 1
    if "figure7" in figures:
        cells += len(f7.sensibilities) * f7.n_repetitions * len(f7.schedulers)
    return cells


#: Every experiment kind, in the order ``repro list experiments`` shows.
KINDS: dict[str, Kind] = {
    "grid": Kind(
        description="generic (scenarios x schedulers) grid — fully declarative",
        parse=parsers._parse_grid_body,
        run=runners._run_grid_spec,
        horizon=_grid_horizon,
        check=_check_grid,
    ),
    "figure6": Kind(
        description="random-mix heuristic comparison (Figure 6 panels)",
        parse=_without_faults("figure6", parsers._parse_figure6_body),
        run=runners._run_figure6_spec,
        check=lambda spec: builders.check_figure6_setup(spec.body, spec.seed),
    ),
    "congested-moments": Kind(
        description="Intrepid/Mira congested-moment campaigns (Tables 1-2, Figures 8-13)",
        parse=_without_faults("congested-moments", parsers._parse_congested_body),
        run=runners._run_congested_spec,
    ),
    "vesta": Kind(
        description="Vesta / modified-IOR emulation (Figures 14-16)",
        parse=_without_faults("vesta", parsers._parse_vesta_body),
        run=runners._run_vesta_spec,
        # score_with_overhead rebuilds each outcome from the complete original
        # parameters, so a truncated cell would score misleadingly.
        horizon=_complete_runs_only("vesta", "cells are overhead-scored on complete runs"),
    ),
    "periodic": Kind(
        description="Section 3.2 periodic heuristics + (1+eps) period sweep, "
                    "compared against the online schedulers",
        parse=_without_faults("periodic", parsers._parse_periodic_body),
        run=runners._run_periodic_spec,
        horizon=_complete_runs_only(
            "periodic",
            "a steady-state schedule has no horizon; truncating only the "
            "online half would skew the periodic-vs-online comparison",
        ),
        check=lambda spec: builders.build_periodic_setup(spec.body, spec.seed),
        # A finer sweep: more greedy builds.
        deepen=lambda body, scale: dataclasses.replace(body, epsilon=body.epsilon / scale),
        cells=_periodic_cells,
    ),
    "analysis": Kind(
        description="figure-level studies: throughput decrease (Fig 1), workload "
                    "characterization (Fig 5), sensibility (Fig 7)",
        parse=_without_faults("analysis", parsers._parse_analysis_body),
        run=runners._run_analysis_spec,
        check=lambda spec: builders.check_analysis_setup(spec.body, spec.seed),
        deepen=_deepen_analysis,
        cells=_analysis_cells,
    ),
}

#: Experiment kinds understood by ``repro run``.
EXPERIMENT_KINDS: tuple[str, ...] = tuple(KINDS)
