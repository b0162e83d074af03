"""Deterministic fault injection: PFS brown-outs and crash/restart.

See :mod:`repro.faults.model` for the fault vocabulary and
:mod:`repro.faults.sampling` for the seeded stochastic processes.
``docs/faults.md`` documents the semantics and the determinism contract.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.faults.model import (
        BandwidthWindow,
        CrashEvent,
        FaultModel,
        FaultTimeline,
    )
    from repro.faults.sampling import sample_crashes, sample_windows


__all__ = [
    "BandwidthWindow",
    "CrashEvent",
    "FaultModel",
    "FaultTimeline",
    "sample_crashes",
    "sample_windows",
]

__getattr__, __dir__ = attach(__name__)
