"""Objectives of Section 2.2: application efficiency, SysEfficiency, Dilation.

Definitions (using the paper's notation):

* ``rho_tilde(k)(t) = sum_{i <= n(k)(t)} w^{(k,i)} / (t - r_k)`` — the
  *achieved* efficiency of application ``k`` at time ``t``: fraction of the
  elapsed wall-clock time spent computing.
* ``rho(k)(t) = sum w / (sum w + sum time_io)`` — the *optimal* efficiency,
  obtained when the I/O system is dedicated to the application
  (``time_io^{(k,i)} = vol_io^{(k,i)} / min(beta b, B)``).
* ``SysEfficiency = (1/N) sum_k beta^{(k)} rho_tilde^{(k)}(d_k)`` — maximize.
* ``Dilation = max_k rho^{(k)}(d_k) / rho_tilde^{(k)}(d_k)`` — minimize.

The functions below operate on :class:`ApplicationOutcome` records produced
by the simulator (or by the periodic-schedule evaluator), so the same code
scores every heuristic, every baseline and the upper limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.utils.validation import ValidationError, check_non_negative

__all__ = [
    "ApplicationOutcome",
    "achieved_efficiency",
    "optimal_efficiency",
    "application_dilation",
    "system_efficiency",
    "system_efficiency_upper_limit",
    "max_dilation",
    "mean_dilation",
    "ObjectiveSummary",
    "summarize",
]


@dataclass(frozen=True)
class ApplicationOutcome:
    """Everything needed to score one application after a run.

    Attributes
    ----------
    name:
        Application identifier.
    processors:
        ``beta^{(k)}`` — number of dedicated processors.
    release_time:
        ``r_k`` — when the application entered the system.
    completion_time:
        ``d_k`` — when its last instance finished.
    executed_work:
        Total seconds of computation executed (``sum_i w^{(k,i)}``).
    dedicated_io_time:
        Total I/O time the application would have needed with the I/O system
        in dedicated mode (``sum_i time_io^{(k,i)}``).
    """

    name: str
    processors: int
    release_time: float
    completion_time: float
    executed_work: float
    dedicated_io_time: float

    def __post_init__(self) -> None:
        check_non_negative("release_time", self.release_time)
        check_non_negative("executed_work", self.executed_work)
        check_non_negative("dedicated_io_time", self.dedicated_io_time)
        if self.processors <= 0:
            raise ValidationError(f"processors must be > 0, got {self.processors}")
        if self.completion_time < self.release_time:
            raise ValidationError(
                f"completion_time ({self.completion_time}) is before "
                f"release_time ({self.release_time}) for {self.name!r}"
            )

    # Convenience accessors -------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Wall-clock time spent in the system, ``d_k - r_k``."""
        return self.completion_time - self.release_time


def achieved_efficiency(outcome: ApplicationOutcome) -> float:
    """``rho_tilde^{(k)}(d_k)`` — achieved efficiency at completion.

    Degenerate cases: an application whose elapsed time is zero (it did
    nothing measurable) is given efficiency equal to its optimal efficiency,
    so that its dilation is 1 and it does not pollute the aggregate metrics.
    """
    return _achieved(outcome, optimal_efficiency(outcome))


def _achieved(outcome: ApplicationOutcome, optimal: float) -> float:
    if outcome.elapsed <= 0:
        return optimal
    return outcome.executed_work / outcome.elapsed


def optimal_efficiency(outcome: ApplicationOutcome) -> float:
    """``rho^{(k)}(d_k)`` — efficiency with a dedicated I/O system."""
    denom = outcome.executed_work + outcome.dedicated_io_time
    if denom <= 0:
        return 1.0
    return outcome.executed_work / denom


def application_dilation(outcome: ApplicationOutcome) -> float:
    """Slowdown ``rho / rho_tilde`` of one application (>= 1 up to rounding)."""
    optimal = optimal_efficiency(outcome)
    return _dilation(_achieved(outcome, optimal), optimal)


def _dilation(achieved: float, optimal: float) -> float:
    if achieved <= 0:
        if optimal <= 0:
            return 1.0
        return float("inf")
    return optimal / achieved


def _total_processors(outcomes: Sequence[ApplicationOutcome], total: int | None) -> int:
    if total is not None:
        if total <= 0:
            raise ValidationError(f"total_processors must be > 0, got {total}")
        return int(total)
    return int(sum(o.processors for o in outcomes))


def system_efficiency(
    outcomes: Sequence[ApplicationOutcome], total_processors: int | None = None
) -> float:
    """SysEfficiency ``(1/N) sum_k beta^{(k)} rho_tilde^{(k)}(d_k)``.

    ``total_processors`` defaults to the sum of the outcomes' processor
    counts; pass the platform's ``N`` explicitly when parts of the machine
    are intentionally idle (the paper normalizes by the full machine).
    """
    if not outcomes:
        raise ValidationError("system_efficiency needs at least one outcome")
    n = _total_processors(outcomes, total_processors)
    return float(
        sum(o.processors * achieved_efficiency(o) for o in outcomes) / n
    )


def system_efficiency_upper_limit(
    outcomes: Sequence[ApplicationOutcome], total_processors: int | None = None
) -> float:
    """Upper limit ``(1/N) sum_k beta^{(k)} rho^{(k)}(d_k)`` of SysEfficiency."""
    if not outcomes:
        raise ValidationError("upper limit needs at least one outcome")
    n = _total_processors(outcomes, total_processors)
    return float(sum(o.processors * optimal_efficiency(o) for o in outcomes) / n)


def max_dilation(outcomes: Sequence[ApplicationOutcome]) -> float:
    """Dilation objective: the worst per-application slowdown."""
    if not outcomes:
        raise ValidationError("max_dilation needs at least one outcome")
    return float(max(application_dilation(o) for o in outcomes))


def mean_dilation(outcomes: Sequence[ApplicationOutcome]) -> float:
    """Average per-application slowdown (not a paper objective; diagnostic)."""
    if not outcomes:
        raise ValidationError("mean_dilation needs at least one outcome")
    return float(np.mean([application_dilation(o) for o in outcomes]))


@dataclass(frozen=True)
class ObjectiveSummary:
    """Both objectives plus the upper limit for one scheduler run.

    SysEfficiency values are reported on a 0–100 percentage scale because
    that is how the paper's tables and figures present them.
    """

    system_efficiency: float
    dilation: float
    upper_limit: float
    mean_dilation: float

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view used by the reporting layer."""
        return {
            "system_efficiency": self.system_efficiency,
            "dilation": self.dilation,
            "upper_limit": self.upper_limit,
            "mean_dilation": self.mean_dilation,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "ObjectiveSummary":
        """Inverse of :meth:`as_dict` (the result-store decode path)."""
        return cls(
            system_efficiency=data["system_efficiency"],
            dilation=data["dilation"],
            upper_limit=data["upper_limit"],
            mean_dilation=data["mean_dilation"],
        )


def summarize(
    outcomes: Sequence[ApplicationOutcome], total_processors: int | None = None
) -> ObjectiveSummary:
    """Compute both objectives (and the upper limit) for a set of outcomes.

    Each application's efficiencies are computed once; the sums, the max
    and the mean run over the same values in the same order as
    :func:`system_efficiency`, :func:`max_dilation`,
    :func:`system_efficiency_upper_limit` and :func:`mean_dilation`, so
    every float equals theirs.
    """
    if not outcomes:
        raise ValidationError("system_efficiency needs at least one outcome")
    n = _total_processors(outcomes, total_processors)
    optimal = [optimal_efficiency(o) for o in outcomes]
    achieved = [_achieved(o, opt) for o, opt in zip(outcomes, optimal)]
    dilations = [_dilation(ach, opt) for ach, opt in zip(achieved, optimal)]
    return ObjectiveSummary(
        system_efficiency=100.0
        * float(sum(o.processors * ach for o, ach in zip(outcomes, achieved)) / n),
        dilation=float(max(dilations)),
        upper_limit=100.0
        * float(sum(o.processors * opt for o, opt in zip(outcomes, optimal)) / n),
        mean_dilation=float(np.mean(dilations)),
    )
