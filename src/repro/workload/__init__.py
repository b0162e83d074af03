"""Workload substrates: synthetic Intrepid/Mira/Vesta application mixes.

The paper's evaluation is driven by three kinds of workloads, all available
here:

* **Random mixes** (Figure 6, Figure 7): :func:`~repro.workload.generator.generate_mix`
  and :func:`~repro.workload.generator.figure6_mix`, with
  :func:`~repro.workload.generator.apply_sensibility` for the quasi-periodic
  perturbation study.
* **Darshan-like traces** (Figure 5, and the raw material of the congested
  moments): :mod:`repro.workload.darshan` — synthetic records carrying the
  same fields the paper extracts from real Darshan logs.
* **Congested moments** (Tables 1–2, Figures 8–13):
  :func:`~repro.workload.congested.intrepid_congested_moments` and
  :func:`~repro.workload.congested.mira_congested_moments`.
* **IOR node mixes on Vesta** (Figures 14–16):
  :func:`~repro.workload.ior.ior_scenario` and
  :data:`~repro.workload.ior.VESTA_SCENARIOS`.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.workload.categories import (
        CATEGORY_PROFILES,
        Category,
        CategoryProfile,
        categorize,
    )
    from repro.workload.congested import (
        N_INTREPID_MOMENTS,
        N_MIRA_MOMENTS,
        CongestedMomentSpec,
        generate_congested_moment,
        intrepid_congested_moments,
        mira_congested_moments,
    )
    from repro.workload.darshan import (
        DarshanRecord,
        generate_records,
        load_records,
        record_to_application,
        replicate_uncovered,
        save_records,
    )
    from repro.workload.generator import (
        MixSpec,
        apply_sensibility,
        figure6_mix,
        generate_application,
        generate_mix,
    )
    from repro.workload.ior import VESTA_SCENARIOS, IORGroup, ior_scenario, parse_scenario


__all__ = [
    "Category",
    "CategoryProfile",
    "CATEGORY_PROFILES",
    "categorize",
    "MixSpec",
    "generate_application",
    "generate_mix",
    "figure6_mix",
    "apply_sensibility",
    "DarshanRecord",
    "generate_records",
    "save_records",
    "load_records",
    "record_to_application",
    "replicate_uncovered",
    "CongestedMomentSpec",
    "generate_congested_moment",
    "intrepid_congested_moments",
    "mira_congested_moments",
    "N_INTREPID_MOMENTS",
    "N_MIRA_MOMENTS",
    "IORGroup",
    "parse_scenario",
    "ior_scenario",
    "VESTA_SCENARIOS",
]

__getattr__, __dir__ = attach(__name__)
