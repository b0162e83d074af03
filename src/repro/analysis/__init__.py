"""Figure-level analyses that are not heuristic comparisons.

* :mod:`repro.analysis.throughput` — Figure 1, per-application I/O
  throughput decrease under congestion;
* :mod:`repro.analysis.usage` — Figure 5, workload characterization of the
  Darshan-like records;
* :mod:`repro.analysis.sensitivity` — Figure 7, impact of deviations from
  perfect periodicity.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.analysis.sensitivity import (
        FIGURE7_SCHEDULERS,
        SensitivityPoint,
        SensitivityStudy,
        sensitivity_study,
    )
    from repro.analysis.throughput import ThroughputDecreaseStudy, throughput_decrease_study
    from repro.analysis.usage import (
        UsageByCategory,
        characterize,
        daily_usage,
        io_time_percentage,
    )


__all__ = [
    "ThroughputDecreaseStudy",
    "throughput_decrease_study",
    "UsageByCategory",
    "characterize",
    "daily_usage",
    "io_time_percentage",
    "SensitivityStudy",
    "SensitivityPoint",
    "sensitivity_study",
    "FIGURE7_SCHEDULERS",
]

__getattr__, __dir__ = attach(__name__)
