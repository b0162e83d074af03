"""Experiment harness: the code behind every table and figure of the paper.

* :mod:`repro.experiments.runner` — generic (scenario × scheduler) grids;
* :mod:`repro.experiments.comparison` — Figure 6 mixes and the
  congested-moment campaigns of Tables 1–2 / Figures 8–13;
* :mod:`repro.experiments.overhead` — the scheduler-request overhead model
  of Figure 14;
* :mod:`repro.experiments.vesta` — the Vesta / modified-IOR emulation of
  Figures 14–16;
* :mod:`repro.experiments.reporting` — plain-text tables and series.

The engine and experiment-grid benchmarks are not part of the package:
they live in ``benchmarks/``, so editing them leaves the code fingerprint
of the result store unchanged.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.experiments.comparison import (
        FIGURE6_SCENARIOS,
        FIGURE6_SCHEDULERS,
        TABLE_SCHEDULERS,
        CongestedMomentsResult,
        Figure6Result,
        HeuristicAverages,
        congested_moments_experiment,
        figure6_experiment,
    )
    from repro.experiments.overhead import (
        DEFAULT_OVERHEAD,
        OverheadModel,
        scenario_overhead_fractions,
    )
    from repro.experiments.reporting import (
        format_mapping,
        format_series,
        format_table,
        grid_records,
        percent,
        ratio,
        write_csv,
        write_json,
    )
    from repro.experiments.runner import (
        CaseResult,
        ExperimentGrid,
        SchedulerCase,
        map_parallel,
        resolve_workers,
        run_case,
        run_grid,
    )
    from repro.experiments.vesta import (
        VESTA_CONFIGURATIONS,
        VestaCase,
        VestaExperimentResult,
        figure14_overheads,
        figure16_per_application_dilation,
        run_vesta_case,
        score_with_overhead,
        vesta_experiment,
    )


__all__ = [
    "SchedulerCase",
    "CaseResult",
    "ExperimentGrid",
    "run_case",
    "run_grid",
    "map_parallel",
    "resolve_workers",
    "scenario_overhead_fractions",
    "Figure6Result",
    "HeuristicAverages",
    "figure6_experiment",
    "FIGURE6_SCENARIOS",
    "FIGURE6_SCHEDULERS",
    "TABLE_SCHEDULERS",
    "CongestedMomentsResult",
    "congested_moments_experiment",
    "OverheadModel",
    "DEFAULT_OVERHEAD",
    "VestaCase",
    "VestaExperimentResult",
    "VESTA_CONFIGURATIONS",
    "run_vesta_case",
    "vesta_experiment",
    "figure14_overheads",
    "figure16_per_application_dilation",
    "score_with_overhead",
    "format_table",
    "format_series",
    "format_mapping",
    "percent",
    "ratio",
    "grid_records",
    "write_json",
    "write_csv",
]

__getattr__, __dir__ = attach(__name__)
