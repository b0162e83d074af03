"""Heuristic-comparison experiments: Figure 6 and Tables 1–2 / Figures 8–13.

Two experiment shapes:

* :func:`figure6_experiment` — generate many random application mixes of a
  given shape (10 large apps, or 50 small + 5 large) and report the mean
  SysEfficiency and Dilation of every heuristic, as in Figure 6.
* :func:`congested_moments_experiment` — replay the Intrepid / Mira
  congested-moment series under the heuristics, the machine's native
  scheduler (with burst buffers) and record the upper limit, producing both
  the per-moment series of Figures 8–13 and the averages of Tables 1–2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional, Sequence

import numpy as np

from repro.core.evaluation import FIGURE6_SCENARIOS, FIGURE6_SCHEDULERS, TABLE_SCHEDULERS
from repro.core.platform import Platform, intrepid, mira
from repro.experiments.runner import (
    ExperimentExecutor,
    ExperimentGrid,
    SchedulerCase,
    run_grid,
)
from repro.store import ResultStore
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import ValidationError
from repro.workload.congested import (
    intrepid_congested_moments,
    mira_congested_moments,
)
from repro.workload.generator import figure6_mix

__all__ = [
    "HeuristicAverages",
    "Figure6Result",
    "figure6_experiment",
    "FIGURE6_SCENARIOS",
    "CongestedMomentsResult",
    "congested_moments_experiment",
    "TABLE_SCHEDULERS",
]

@dataclass(frozen=True)
class HeuristicAverages:
    """Mean objectives of one scheduler over a set of scenarios."""

    scheduler: str
    system_efficiency: float
    dilation: float
    upper_limit: float


@dataclass
class Figure6Result:
    """Mean objectives per heuristic for one Figure 6 panel."""

    scenario: str
    n_repetitions: int
    averages: dict[str, HeuristicAverages] = field(default_factory=dict)

    def ranked_by_system_efficiency(self) -> list[HeuristicAverages]:
        """Heuristics from best to worst SysEfficiency."""
        return sorted(self.averages.values(), key=lambda a: -a.system_efficiency)

    def ranked_by_dilation(self) -> list[HeuristicAverages]:
        """Heuristics from best (lowest) to worst Dilation."""
        return sorted(self.averages.values(), key=lambda a: a.dilation)


def figure6_experiment(
    scenario: str,
    *,
    n_repetitions: int = 20,
    schedulers: Sequence[str] = FIGURE6_SCHEDULERS,
    platform: Optional[Platform] = None,
    rng: RngLike = None,
    workers: int | None = None,
    max_time: float = float("inf"),
    executor: Optional[ExperimentExecutor] = None,
    store: Optional[ResultStore] = None,
) -> Figure6Result:
    """Reproduce one panel of Figure 6.

    The paper averages 200 random mixes per panel; ``n_repetitions`` defaults
    to a laptop-friendly 20, which is already enough for stable orderings
    (the benchmark harness exposes the full setting).

    ``workers`` fans the (mix × heuristic) grid out over processes (see
    :func:`repro.experiments.runner.run_grid`); every repetition's mix is
    generated from its own spawned seed *before* the grid runs, so results
    are identical whatever the worker count.  ``max_time`` truncates every
    cell at a simulated-time horizon (seconds); the default runs every mix
    to completion.  ``executor`` reuses a caller-owned pool (multi-panel
    campaigns pass one executor to every panel).  ``store`` memoizes the
    grid cells through the content-addressed result store (see
    :func:`repro.experiments.runner.run_grid`).
    """
    if scenario not in FIGURE6_SCENARIOS:
        raise ValidationError(
            f"unknown Figure 6 scenario {scenario!r}; choose one of {FIGURE6_SCENARIOS}"
        )
    if n_repetitions <= 0:
        raise ValidationError("n_repetitions must be positive")
    platform = platform or intrepid()
    rngs = spawn_rngs(rng, n_repetitions)
    scenarios = [
        figure6_mix(scenario, platform, rep_rng, label=f"{scenario}-rep{i:03d}")
        for i, rep_rng in enumerate(rngs)
    ]
    cases = [SchedulerCase(name=name) for name in schedulers]
    grid = run_grid(scenarios, cases, max_time=max_time, workers=workers,
                    executor=executor, store=store)
    result = Figure6Result(scenario=scenario, n_repetitions=n_repetitions)
    for scheduler, metrics in grid.averages().items():
        result.averages[scheduler] = HeuristicAverages(
            scheduler=scheduler,
            system_efficiency=metrics["system_efficiency"],
            dilation=metrics["dilation"],
            upper_limit=metrics["upper_limit"],
        )
    return result


# ---------------------------------------------------------------------- #
@dataclass
class CongestedMomentsResult:
    """Per-moment series and averages for a congested-moment campaign."""

    machine: str
    grid: ExperimentGrid
    baseline_label: str

    def series(self, scheduler_label: str, metric: str) -> list[float]:
        """Per-moment series (Figures 8–13)."""
        return self.grid.series(scheduler_label, metric)

    def upper_limit_series(self) -> list[float]:
        """The per-moment upper limit (identical for every scheduler)."""
        return self.grid.series(self.baseline_label, "upper_limit")

    def table(self) -> dict[str, HeuristicAverages]:
        """The Table 1 / Table 2 averages."""
        out: dict[str, HeuristicAverages] = {}
        for scheduler, metrics in self.grid.averages().items():
            out[scheduler] = HeuristicAverages(
                scheduler=scheduler,
                system_efficiency=metrics["system_efficiency"],
                dilation=metrics["dilation"],
                upper_limit=metrics["upper_limit"],
            )
        return out

    def mean_upper_limit(self) -> float:
        """Average upper limit over the moments (the tables' last row)."""
        return float(np.mean(self.upper_limit_series()))


def congested_moments_experiment(
    machine: Literal["intrepid", "mira"] = "intrepid",
    *,
    n_moments: Optional[int] = None,
    schedulers: Sequence[str] = TABLE_SCHEDULERS,
    rng: RngLike = None,
    priority_only: bool = False,
    workers: int | None = None,
    max_time: float = float("inf"),
    executor: Optional[ExperimentExecutor] = None,
    store: Optional[ResultStore] = None,
) -> CongestedMomentsResult:
    """Reproduce the congested-moment campaigns (Tables 1–2, Figures 8–13).

    The native machine scheduler is always included, run **with** burst
    buffers on the machine's burst-buffer platform — this is the key
    comparison of the paper: the heuristics run without burst buffers and
    still match or beat it.

    ``workers`` parallelizes the (moment × scheduler) grid; the moments are
    generated up front from the seed, so the tables are identical whatever
    the worker count.  ``max_time`` truncates every cell at a simulated-time
    horizon (seconds).  ``executor`` reuses a caller-owned pool.
    """
    if machine == "intrepid":
        moments = intrepid_congested_moments(n_moments or 56, rng)
        bb_platform = intrepid(with_burst_buffer=True)
        baseline = "Intrepid"
    elif machine == "mira":
        moments = mira_congested_moments(n_moments or 11, rng)
        bb_platform = mira(with_burst_buffer=True)
        baseline = "Mira"
    else:
        raise ValidationError(f"unknown machine {machine!r}")
    chosen = [s for s in schedulers if not priority_only or s.startswith("Priority-")]
    cases = [SchedulerCase(name=name) for name in chosen]
    cases.append(
        SchedulerCase(
            name=baseline,
            use_burst_buffer=True,
            burst_buffer_platform=bb_platform,
            label=baseline,
        )
    )
    grid = run_grid(moments, cases, max_time=max_time, workers=workers,
                    executor=executor, store=store)
    return CongestedMomentsResult(machine=machine, grid=grid, baseline_label=baseline)
