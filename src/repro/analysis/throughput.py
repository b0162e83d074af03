"""Per-application I/O throughput decrease under congestion (Figure 1).

Figure 1 of the paper histograms, over ~400 Intrepid applications, the
percentage decrease of the I/O throughput each application observed
compared to what it would have obtained with the I/O system to itself; the
worst cases lose about 70%.

The reproduction replays synthetic Intrepid applications through the
simulator under the uncoordinated (interfering fair-share) baseline and
measures exactly the same quantity from the
:class:`~repro.simulator.metrics.ApplicationRecord` timings.  The result is
returned both as raw per-application values and as a binned distribution
ready to print or plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.platform import Platform, intrepid
from repro.experiments.runner import ExperimentExecutor, map_parallel
from repro.online.baselines import FairShare
from repro.simulator.engine import SimulatorConfig, simulate
from repro.simulator.interference import InterferenceModel
from repro.utils.rng import RngLike, spawn_rngs
from repro.utils.validation import ValidationError
from repro.workload.generator import MixSpec, generate_mix

__all__ = [
    "ThroughputDecreaseStudy",
    "figure1_batch_count",
    "figure1_batch_mix",
    "throughput_decrease_study",
]


def figure1_batch_count(n_applications: int, applications_per_batch: int) -> int:
    """Number of simulated batches for a requested application count.

    Batches are integral, so the request is rounded to the nearest whole
    batch (at least one).  Exposed so consumers that need the study's work
    breakdown — e.g. the grid benchmark's cells/sec denominator — stay in
    lockstep with the batching rule here.
    """
    return max(1, int(round(n_applications / applications_per_batch)))


@dataclass(frozen=True)
class ThroughputDecreaseStudy:
    """Outcome of the Figure 1 replay.

    Attributes
    ----------
    decreases:
        Per-application throughput decrease, in percent (0 = no loss).
    bin_edges, histogram:
        Binned distribution (10%-wide bins by default).
    """

    decreases: tuple[float, ...]
    bin_edges: tuple[float, ...]
    histogram: tuple[int, ...]
    #: The caller's requested application count.  Batches are integral, so
    #: the measured count is ``n_batches * applications_per_batch`` — report
    #: both honestly instead of pretending the request was met exactly.
    n_applications_requested: int = 0

    @property
    def n_applications(self) -> int:
        """Number of applications actually measured."""
        return len(self.decreases)

    @property
    def max_decrease(self) -> float:
        """Worst observed decrease (percent) — the paper's ~70% headline."""
        return max(self.decreases) if self.decreases else 0.0

    @property
    def mean_decrease(self) -> float:
        """Average decrease (percent)."""
        return float(np.mean(self.decreases)) if self.decreases else 0.0

    def fraction_above(self, threshold_percent: float) -> float:
        """Fraction of applications losing more than ``threshold_percent``."""
        if not self.decreases:
            return 0.0
        return float(
            np.mean([d > threshold_percent for d in self.decreases])
        )


def figure1_batch_mix(applications_per_batch: int) -> MixSpec:
    """One Figure 1 batch: 80/20 small/large, at least one of each.

    Clamped so the batch holds exactly ``applications_per_batch``
    applications (rounding used to inflate a 2-app batch to 3).
    """
    n_small = min(
        applications_per_batch - 1,
        max(1, int(round(applications_per_batch * 0.8))),
    )
    return MixSpec(n_small=n_small, n_large=applications_per_batch - n_small)


def _run_figure1_batch(shared: tuple, batch: tuple[int, np.random.Generator]) -> list[float]:
    """One Figure 1 batch: build the staggered mix, simulate, measure.

    Module-level and driven by a self-contained ``(index, generator)`` item
    so batches fan out over an :class:`ExperimentExecutor` — each batch owns
    a spawned generator, so a worker replays exactly the draws the serial
    loop would have made.
    """
    platform, mix, io_ratio, release_spread, interference, max_time = shared
    index, batch_rng = batch
    scenario = generate_mix(
        mix,
        platform,
        io_ratio,
        batch_rng,
        label=f"figure1-batch-{index:03d}",
    )
    if release_spread > 0:
        typical_duration = float(
            np.mean([app.total_work for app in scenario.applications])
        )
        window = release_spread * typical_duration
        staggered = tuple(
            app.with_release_time(float(batch_rng.uniform(0.0, window)))
            for app in scenario.applications
        )
        scenario = scenario.with_applications(staggered)
    scheduler = (
        FairShare(interference=interference)
        if interference is not None
        else FairShare()
    )
    result = simulate(scenario, scheduler, SimulatorConfig(max_time=max_time))
    return [100.0 * d for d in result.throughput_decreases().values()]


def throughput_decrease_study(
    n_applications: int = 400,
    *,
    platform: Optional[Platform] = None,
    applications_per_batch: int = 6,
    io_ratio: float = 0.15,
    release_spread: float = 2.0,
    interference: Optional[InterferenceModel] = None,
    rng: RngLike = None,
    bin_width: float = 10.0,
    max_time: float = float("inf"),
    workers: int | None = None,
    executor: Optional[ExperimentExecutor] = None,
) -> ThroughputDecreaseStudy:
    """Replay ~``n_applications`` applications under congestion (Figure 1).

    Applications are simulated in batches (each batch is one concurrent mix
    on the full machine, like a slice of the production schedule); their
    release times are staggered over ``release_spread`` times the typical
    application duration — on the real machine jobs start at different
    times, so I/O phases only sometimes collide — and the throughput
    decrease of every application is measured against its dedicated-mode
    bandwidth ``min(beta b, B)``.  ``max_time`` truncates each batch's
    simulation at that horizon (decreases are then measured on the I/O
    completed so far).

    Batches are mutually independent (each owns one spawned generator), so
    ``workers`` / ``executor`` fan them out over processes exactly like a
    grid — results are collected in batch order and are identical to the
    serial loop.
    """
    if n_applications <= 0:
        raise ValidationError("n_applications must be positive")
    if applications_per_batch <= 1:
        raise ValidationError("applications_per_batch must be at least 2")
    if release_spread < 0:
        raise ValidationError("release_spread must be >= 0")
    platform = platform or intrepid()
    n_batches = figure1_batch_count(n_applications, applications_per_batch)
    rngs = spawn_rngs(rng, n_batches)
    shared = (
        platform, figure1_batch_mix(applications_per_batch), io_ratio,
        release_spread, interference, max_time,
    )
    batch_results = map_parallel(
        _run_figure1_batch,
        list(enumerate(rngs)),
        workers=workers,
        executor=executor,
        shared=shared,
    )
    decreases: list[float] = []
    for batch_decreases in batch_results:
        decreases.extend(batch_decreases)
    values = np.asarray(decreases, dtype=float)
    edges = np.arange(0.0, 100.0 + bin_width, bin_width)
    histogram, _ = np.histogram(values, bins=edges)
    return ThroughputDecreaseStudy(
        decreases=tuple(values.tolist()),
        bin_edges=tuple(edges.tolist()),
        histogram=tuple(int(h) for h in histogram),
        n_applications_requested=int(n_applications),
    )
