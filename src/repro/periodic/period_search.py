"""Search over the period length ``T`` (Section 3.2.3, first paragraph).

"The first decision is to choose the length ``T`` of the period.  We start
from ``T = max_k (w^{(k)} + time_io^{(k)})``; while ``T`` is smaller than
``T_max``, the period is incremented by a factor ``(1 + eps)``, and a
solution is re-computed.  We take the best solution over all the periods."

:func:`search_period` implements exactly that sweep for either objective and
returns the best schedule together with the full sweep trace, so the
ablation benchmark can show the quality/price trade-off of ``eps`` and
``T_max``.

Every sweep point is one greedy build
(:meth:`~repro.periodic.heuristics.PeriodicHeuristic.build`); the only thing
shared across points is the period-independent profile table of
:func:`~repro.periodic.heuristics.application_profiles`.  The step must move
the period in floating point: an ``epsilon`` so small that ``1 + epsilon``
rounds to ``1`` would never advance, so it is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

from repro.core.application import Application
from repro.core.platform import Platform
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

    ``n_builds`` counts the greedy builds executed: one per sweep point.
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
        Multiplicative step of the sweep (``T <- T * (1 + epsilon)``); it
        must be large enough that ``1 + epsilon != 1`` in floating point.
    max_period, max_period_factor:
        The sweep stops at ``max_period``; when not given, it defaults to
        ``max_period_factor`` times the minimum period.
    """
    check_positive("epsilon", epsilon)
    if 1.0 + epsilon == 1.0:
        raise ValidationError(
            f"epsilon ({epsilon!r}) is too small: 1 + epsilon rounds to 1, "
            "so the period sweep would never advance"
        )
    t_min = minimum_period(platform, applications)
    t_max = max_period if max_period is not None else t_min * max_period_factor
    if t_max < t_min:
        raise ValidationError(
            f"max_period ({t_max}) is smaller than the minimum period ({t_min})"
        )
    if objective not in ("system_efficiency", "dilation"):
        raise ValidationError(f"unknown objective {objective!r}")
    profiles = application_profiles(platform, applications)
    best_schedule: PeriodicSchedule | None = None
    best_period = math.nan
    best_score = -math.inf
    sweep: list[SweepPoint] = []

    period = t_min
    while True:
        schedule = heuristic.build(
            platform, applications, period, profiles=profiles
        )
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
        n_builds=len(sweep),
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
