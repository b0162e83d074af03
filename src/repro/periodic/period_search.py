"""Search over the period length ``T`` (Section 3.2.3, first paragraph).

"The first decision is to choose the length ``T`` of the period.  We start
from ``T = max_k (w^{(k)} + time_io^{(k)})``; while ``T`` is smaller than
``T_max``, the period is incremented by a factor ``(1 + eps)``, and a
solution is re-computed.  We take the best solution over all the periods."

:func:`search_period` implements exactly that sweep for either objective and
returns the best schedule together with the full sweep trace, so the
ablation benchmark can show the quality/price trade-off of ``eps`` and
``T_max``.

Warm start
----------
Most consecutive sweep points replay the *same* greedy build: a slightly
longer period only adds empty room at the right edge, and unless that room
turns one of the build's failed insertion attempts into a success, every
placement decision is provably unchanged.  The greedy inserter tracks a
conservative bound on the first period at which any of its decisions could
flip (see :mod:`repro.periodic.insertion`); ``search_period`` rebuilds only
when a sweep point crosses that bound and otherwise materializes the point
by rescoring the cached placements under the new period
(:meth:`~repro.periodic.schedule.PeriodicSchedule.with_period`).  The sweep
trace, the best period and the best schedule are bit-for-bit identical to
the naive sweep (``warm_start=False``; asserted by
``tests/test_period_warm_start.py``) — the warm start only skips provably
redundant greedy builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, Sequence

from repro.core.application import Application
from repro.core.platform import Platform
from repro.obs.telemetry import recorder as _obs_recorder
from repro.periodic.heuristics import PeriodicHeuristic, application_profiles
from repro.periodic.schedule import PeriodicSchedule
from repro.utils.validation import ValidationError, check_positive

__all__ = ["PeriodSearchResult", "minimum_period", "search_period"]

Objective = Literal["system_efficiency", "dilation"]


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated period length."""

    period: float
    system_efficiency: float
    dilation: float
    complete: bool


@dataclass(frozen=True)
class PeriodSearchResult:
    """Outcome of a period sweep.

    ``n_builds`` counts the greedy builds actually executed;
    ``len(sweep) - n_builds`` sweep points were warm-started from a cached
    build whose placements provably persist at the longer period.
    """

    best_schedule: PeriodicSchedule
    best_period: float
    objective: Objective
    sweep: tuple[SweepPoint, ...]
    n_builds: int = 0

    @property
    def best_point(self) -> SweepPoint:
        """The sweep point corresponding to the best period."""
        for point in self.sweep:
            if point.period == self.best_period:
                return point
        raise RuntimeError("best period missing from sweep")  # pragma: no cover


#: Sweeps with fewer estimated points than this run naive (no warm-start
#: reuse, no validity bookkeeping): reuse hits are too rare at that size to
#: pay for the tracking.  Pinned by tests/test_period_warm_start.py.
_WARM_START_MIN_POINTS = 32

#: Process-wide telemetry funnel: counts the warm-start bypass (a no-op
#: unless a CLI/benchmark enabled the recorder).
_OBS = _obs_recorder()


def minimum_period(platform: Platform, applications: Sequence[Application]) -> float:
    """``max_k (w^{(k)} + time_io^{(k)})`` — the smallest sensible period."""
    if not applications:
        raise ValidationError("need at least one application")
    worst = 0.0
    for app in applications:
        inst = app.instances[0]
        peak = platform.peak_application_bandwidth(app.processors)
        time_io = inst.io_volume / peak if peak > 0 else 0.0
        worst = max(worst, inst.work + time_io)
    return worst


def search_period(
    heuristic: PeriodicHeuristic,
    platform: Platform,
    applications: Sequence[Application],
    *,
    objective: Objective = "system_efficiency",
    epsilon: float = 0.1,
    max_period: float | None = None,
    max_period_factor: float = 10.0,
    warm_start: bool = True,
) -> PeriodSearchResult:
    """Sweep the period length and keep the best schedule for ``objective``.

    Parameters
    ----------
    heuristic:
        The periodic heuristic used at every period length.
    objective:
        ``"system_efficiency"`` (maximize) or ``"dilation"`` (minimize).
        Schedules that fail to place at least one instance of every
        application are heavily penalized (a missing application means
        infinite dilation and zero progress).
    epsilon:
        Multiplicative step of the sweep (``T <- T * (1 + epsilon)``).
    max_period, max_period_factor:
        The sweep stops at ``max_period``; when not given, it defaults to
        ``max_period_factor`` times the minimum period.
    warm_start:
        Reuse the previous greedy build for sweep points at which it
        provably cannot change (the default; see the module docstring).
        ``False`` rebuilds at every point — same results, used by the
        equivalence tests and as the benchmark baseline.  The warm start is
        adaptive: sweeps shorter than ``_WARM_START_MIN_POINTS`` fall back
        to naive rebuilds (with validity bookkeeping switched off), because
        at that size the tracking overhead outweighs the occasional reuse —
        results are bit-identical either way.
    """
    check_positive("epsilon", epsilon)
    t_min = minimum_period(platform, applications)
    t_max = max_period if max_period is not None else t_min * max_period_factor
    if t_max < t_min:
        raise ValidationError(
            f"max_period ({t_max}) is smaller than the minimum period ({t_min})"
        )
    if objective not in ("system_efficiency", "dilation"):
        raise ValidationError(f"unknown objective {objective!r}")
    # Adaptive warm start: estimate the sweep length up front (the ladder is
    # t_min * (1+eps)^k capped at t_max, so the count is a closed form) and
    # drop to the naive path when it is too short to amortize the validity
    # bookkeeping.  Placements never depend on the bookkeeping, so this is a
    # pure speed decision.
    track_validity = warm_start
    if warm_start:
        if t_max <= t_min:
            estimated_points = 1
        else:
            estimated_points = (
                math.floor(math.log(t_max / t_min) / math.log(1.0 + epsilon)) + 2
            )
        if estimated_points < _WARM_START_MIN_POINTS:
            warm_start = False
            track_validity = False
            _OBS.count("repro_period_warm_start_bypass_total")

    profiles = application_profiles(platform, applications)
    best_schedule: PeriodicSchedule | None = None
    best_period = math.nan
    best_score = -math.inf
    sweep: list[SweepPoint] = []
    cached_build: Optional[PeriodicSchedule] = None
    cached_valid_until = -math.inf
    n_builds = 0

    period = t_min
    while True:
        if warm_start and cached_build is not None and period < cached_valid_until:
            # The previous build provably replays unchanged at this period:
            # reuse its placements and rescore them under the longer period
            # (the summary code below is the same either way, so the sweep
            # point is bit-for-bit what a fresh build would have produced).
            schedule = cached_build.with_period(period)
        else:
            schedule, valid_until = heuristic.build_with_validity(
                platform, applications, period, profiles=profiles,
                track_validity=track_validity,
            )
            cached_build = schedule
            cached_valid_until = valid_until
            n_builds += 1
        summary = schedule.summary()
        complete = schedule.is_complete()
        sweep.append(
            SweepPoint(
                period=period,
                system_efficiency=summary.system_efficiency,
                dilation=summary.dilation,
                complete=complete,
            )
        )
        score = _score(summary.system_efficiency, summary.dilation, complete, objective)
        # `best_schedule is None` keeps the first sweep point even when every
        # score is -inf (e.g. no period admits a complete schedule under the
        # dilation objective) — the sweep must always return *a* schedule.
        if best_schedule is None or score > best_score:
            best_score = score
            best_schedule = schedule
            best_period = period
        if period >= t_max:
            break
        period = min(period * (1.0 + epsilon), t_max)

    assert best_schedule is not None  # at least one period is always evaluated
    return PeriodSearchResult(
        best_schedule=best_schedule,
        best_period=best_period,
        objective=objective,
        sweep=tuple(sweep),
        n_builds=n_builds,
    )


def _score(
    system_efficiency: float, dilation: float, complete: bool, objective: Objective
) -> float:
    """Higher-is-better score used to compare sweep points."""
    if not complete:
        # Incomplete schedules are only acceptable when nothing else exists.
        return -math.inf if objective == "dilation" else -1e12 + system_efficiency
    if objective == "system_efficiency":
        return system_efficiency
    if not math.isfinite(dilation):
        return -math.inf
    return -dilation
