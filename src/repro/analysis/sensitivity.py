"""Sensibility (periodicity) study — Figure 7.

Section 4.3 asks whether the periodicity assumption matters: applications
are perturbed so that their per-instance compute time (or I/O volume) varies
by a controlled *sensibility* ``(max - min) / max`` between 0% and 30%, and
the heuristics are re-evaluated.  The paper's finding — which this module
reproduces — is that the online heuristics are essentially insensitive to
the perturbation, because they only ever react to the current state of the
system and never rely on the repetition pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.evaluation import FIGURE7_SCHEDULERS
from repro.core.platform import Platform, intrepid
from repro.core.scenario import Scenario
from repro.experiments.runner import ExperimentExecutor, SchedulerCase, run_grid
from repro.obs.telemetry import recorder as _obs_recorder
from repro.utils.rng import RngLike, as_rng, spawn_rngs
from repro.utils.validation import ValidationError, check_in_range
from repro.workload.generator import apply_sensibility, figure6_mix

__all__ = [
    "SensitivityPoint",
    "SensitivityStudy",
    "sensitivity_study",
    "derive_streams",
]

#: Process-wide telemetry funnel; status events go through it.
_OBS = _obs_recorder()


@dataclass(frozen=True)
class SensitivityPoint:
    """Mean objectives of every heuristic at one sensibility level."""

    sensibility_percent: float
    system_efficiency: dict[str, float]
    dilation: dict[str, float]


@dataclass
class SensitivityStudy:
    """The Figure 7 sweep."""

    points: list[SensitivityPoint]
    schedulers: tuple[str, ...]

    def series(self, scheduler: str, metric: str) -> list[float]:
        """The per-sensibility series of one heuristic for one metric."""
        if metric not in ("system_efficiency", "dilation"):
            raise ValidationError(f"unknown metric {metric!r}")
        return [getattr(p, metric)[scheduler] for p in self.points]

    def sensibilities(self) -> list[float]:
        """The x axis (percent)."""
        return [p.sensibility_percent for p in self.points]

    def max_relative_variation(self, scheduler: str, metric: str) -> float:
        """Largest relative deviation from the 0%-sensibility value.

        The paper's claim is that this stays small; the integration tests
        assert it directly.
        """
        series = self.series(scheduler, metric)
        baseline = series[0]
        if baseline == 0:
            return 0.0
        return float(max(abs(v - baseline) / abs(baseline) for v in series))


def derive_streams(
    rng: RngLike, n_repetitions: int, n_levels: int
) -> tuple[list[np.random.Generator], list[list[np.random.Generator]]]:
    """Disjoint random streams for the Figure 7 sweep.

    Returns ``(mix_rngs, perturb_rngs)`` where ``mix_rngs[rep]`` generates
    repetition ``rep``'s base mix and ``perturb_rngs[level][rep]`` perturbs
    that mix at one sensibility level.  All ``n_repetitions * (1 + n_levels)``
    generators are spawned from a *single* coerced generator, so:

    * perturbation streams never replay the mix streams (spawning twice from
      the same integer seed would — the pre-fix bug correlated Figure 7's
      perturbations with its mix generation, undermining the insensitivity
      claim);
    * each (level, repetition) pair owns a fresh generator, making every
      level's perturbation a pure function of (seed, level index, repetition)
      instead of depending on how many draws earlier levels consumed from a
      shared stateful stream.
    """
    base = as_rng(rng)
    mix_rngs = spawn_rngs(base, n_repetitions)
    perturb_rngs = [spawn_rngs(base, n_repetitions) for _ in range(n_levels)]
    return mix_rngs, perturb_rngs


def sensitivity_study(
    sensibilities_percent: Sequence[float] = (0, 5, 10, 15, 20, 25, 30),
    *,
    schedulers: Sequence[str] = FIGURE7_SCHEDULERS,
    scenario: str = "10large-20",
    n_repetitions: int = 5,
    platform: Optional[Platform] = None,
    rng: RngLike = None,
    perturb_io: bool = False,
    max_time: float = float("inf"),
    workers: int | None = None,
    executor: Optional[ExperimentExecutor] = None,
) -> SensitivityStudy:
    """Run the Figure 7 sweep.

    Parameters
    ----------
    sensibilities_percent:
        The x axis: per-instance compute-time variability, in percent.
    perturb_io:
        Also perturb the I/O volumes (the paper notes the conclusion is the
        same).
    max_time, workers:
        Passed to :func:`repro.experiments.runner.run_grid` for every level's
        grid: a simulated-time truncation horizon and the worker-process
        count.
    executor:
        Caller-owned :class:`~repro.experiments.runner.ExperimentExecutor`
        shared by every level's grid — the sweep runs many small grids, so
        reusing one pool instead of spawning one per level is the difference
        between paying process start-up once and paying it ``n_levels``
        times.

    Each completed level emits one ``progress`` status event (see
    ``docs/observability.md``).
    """
    platform = platform or intrepid()
    cases = [SchedulerCase(name=name) for name in schedulers]
    levels = [float(s) for s in sensibilities_percent]
    for sensibility in levels:
        check_in_range("sensibility", sensibility, 0.0, 99.0)
    # The base mixes are generated once and shared by every sensibility level,
    # so the sweep isolates the effect of the perturbation (the paper's x axis)
    # from the randomness of the mix itself.  Perturbation streams are spawned
    # per (level, repetition), disjoint from the mix streams — see
    # :func:`derive_streams`.
    mix_rngs, perturb_rngs = derive_streams(rng, n_repetitions, len(levels))
    base_mixes = [
        figure6_mix(scenario, platform, mix_rng, label=f"{scenario}-rep{i}")
        for i, mix_rng in enumerate(mix_rngs)
    ]
    points: list[SensitivityPoint] = []
    for level, sensibility in enumerate(levels):
        fraction = sensibility / 100.0
        scenarios: list[Scenario] = []
        for i, base in enumerate(base_mixes):
            perturbed = tuple(
                apply_sensibility(
                    app,
                    sensibility_work=fraction,
                    sensibility_io=fraction if perturb_io else 0.0,
                    rng=perturb_rngs[level][i],
                )
                for app in base.applications
            )
            scenarios.append(
                base.with_applications(perturbed).with_label(
                    f"sens{sensibility:g}-rep{i}"
                )
            )
        grid = run_grid(scenarios, cases, max_time=max_time, workers=workers,
                        executor=executor)
        averages = grid.averages()
        points.append(
            SensitivityPoint(
                sensibility_percent=float(sensibility),
                system_efficiency={
                    s: averages[s]["system_efficiency"] for s in schedulers
                },
                dilation={s: averages[s]["dilation"] for s in schedulers},
            )
        )
        if _OBS.sinks:
            _OBS.event(
                "progress", step="level", sensibility_percent=sensibility,
                message=f"sensibility {sensibility:g}%: level {level + 1}/{len(levels)} "
                        f"done ({len(scenarios)} mixes x {len(cases)} heuristics)",
            )
    return SensitivityStudy(points=points, schedulers=tuple(schedulers))
