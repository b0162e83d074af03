"""Discrete-event simulation substrate.

The simulator plays the role of the paper's Section 4 simulator: it executes
a :class:`~repro.core.scenario.Scenario` under any object implementing the
:class:`~repro.simulator.interface.SchedulerProtocol`, re-allocating
bandwidth at every event and returning a
:class:`~repro.simulator.metrics.SimulationResult` from which both
objectives (and every figure-level metric) can be computed.
"""

from repro.simulator.bandwidth import fair_share, favor_in_order, single_application_rate
from repro.simulator.burst_buffer import BurstBufferState
from repro.simulator.engine import (
    SimulationError,
    Simulator,
    SimulatorConfig,
    StallError,
    simulate,
)
from repro.simulator.interface import (
    ApplicationPhase,
    ApplicationView,
    SchedulerProtocol,
    SystemView,
)
from repro.simulator.interference import (
    DEFAULT_INTERFERENCE,
    NO_INTERFERENCE,
    InterferenceModel,
)
from repro.simulator.metrics import (
    ApplicationRecord,
    BurstBufferStats,
    FaultStats,
    InstanceRecord,
    SimulationResult,
)
from repro.simulator.reference import ReferenceSimulator, reference_simulate

__all__ = [
    "Simulator",
    "SimulatorConfig",
    "simulate",
    "ReferenceSimulator",
    "reference_simulate",
    "SimulationError",
    "StallError",
    "ApplicationPhase",
    "ApplicationView",
    "SystemView",
    "SchedulerProtocol",
    "BandwidthAllocation",
    "fair_share",
    "favor_in_order",
    "single_application_rate",
    "BurstBufferState",
    "InterferenceModel",
    "DEFAULT_INTERFERENCE",
    "NO_INTERFERENCE",
    "ApplicationRecord",
    "InstanceRecord",
    "BurstBufferStats",
    "FaultStats",
    "SimulationResult",
]

from repro.core.allocation import BandwidthAllocation  # noqa: E402  (re-export)
