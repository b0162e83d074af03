"""Core model of the paper: applications, platforms, objectives, allocations.

This subpackage contains no scheduling policy and no simulation machinery —
only the Section 2 framework that everything else is written against:

* :class:`~repro.core.application.Application` /
  :class:`~repro.core.application.Instance` — the compute/I-O instance model.
* :class:`~repro.core.platform.Platform` — ``N`` processors, node bandwidth
  ``b``, aggregate I/O bandwidth ``B``, optional burst buffer; with the
  Intrepid / Mira / Vesta presets used in the evaluation.
* :class:`~repro.core.allocation.BandwidthAllocation` — the per-event
  decision object produced by schedulers, with feasibility validation.
* :mod:`~repro.core.objectives` — achieved/optimal efficiency,
  SysEfficiency, Dilation and the upper limit.
* :class:`~repro.core.scenario.Scenario` — platform + applications bundle.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.core.allocation import BandwidthAllocation
    from repro.core.application import Application, Instance, total_processors
    from repro.core.events import Event, EventLog, EventType
    from repro.core.objectives import (
        ApplicationOutcome,
        ObjectiveSummary,
        achieved_efficiency,
        application_dilation,
        max_dilation,
        mean_dilation,
        optimal_efficiency,
        summarize,
        system_efficiency,
        system_efficiency_upper_limit,
    )
    from repro.core.platform import BurstBufferSpec, Platform, generic, intrepid, mira, vesta
    from repro.core.scenario import Scenario


__all__ = [
    "Application",
    "Instance",
    "total_processors",
    "Platform",
    "BurstBufferSpec",
    "intrepid",
    "mira",
    "vesta",
    "generic",
    "BandwidthAllocation",
    "Event",
    "EventLog",
    "EventType",
    "ApplicationOutcome",
    "ObjectiveSummary",
    "achieved_efficiency",
    "optimal_efficiency",
    "application_dilation",
    "system_efficiency",
    "system_efficiency_upper_limit",
    "max_dilation",
    "mean_dilation",
    "summarize",
    "Scenario",
]

__getattr__, __dir__ = attach(__name__)
