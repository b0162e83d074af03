"""Campaign planning: one spec -> its cell table and campaign identity.

The plan is recomputed, never stored: both the coordinator and every
worker rebuild it independently from the (deterministic) spec, and agree
on cell indices, store keys and cost estimates by construction.  The
journal's header carries a copy of the cell table purely for *outside*
readers — ``repro campaign status`` and the store's gc protection — that
must not need the producing code importable.

Cell keys come from :func:`repro.experiments.runner.grid_cell_keys` — the
exact derivation the serial runner memoizes with — which is the whole
trick: a store written by a campaign worker on another host serves a local
``repro run --require-cached`` rerun with 100% hits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config.build import build_cases, build_grid_scenarios
from repro.config.spec import ExperimentSpec
from repro.core.scenario import Scenario
from repro.experiments.runner import (
    SchedulerCase,
    estimate_cell_seconds,
    grid_cell_keys,
)
from repro.store import canonical_json, code_fingerprint, digest
from repro.utils.validation import ValidationError

__all__ = ["CampaignCell", "CampaignPlan", "campaign_id_for", "plan_campaign"]


@dataclass(frozen=True)
class CampaignCell:
    """One ``(scenario, scheduler)`` unit of leased work."""

    #: Row-major position: ``scenario_index * n_cases + case_index``.
    index: int
    scenario_index: int
    case_index: int
    #: Content-addressed store key (shared with the serial runner).
    key: str
    scenario_label: str
    scheduler_label: str
    #: Coarse serial-seconds estimate backing the timeout watchdog.
    estimate_seconds: float

    def as_dict(self) -> dict:
        """Journal-header row (kept small: status/gc only need these)."""
        return {
            "index": self.index,
            "key": self.key,
            "scenario": self.scenario_label,
            "scheduler": self.scheduler_label,
        }


@dataclass(frozen=True)
class CampaignPlan:
    """Deterministic expansion of one grid spec into leasable cells."""

    campaign_id: str
    spec: ExperimentSpec
    scenarios: tuple[Scenario, ...]
    cases: tuple[SchedulerCase, ...]
    cells: tuple[CampaignCell, ...]


def campaign_id_for(spec: ExperimentSpec) -> str:
    """Stable campaign identity: code fingerprint + science-relevant spec.

    ``workers`` and ``output`` are masked out before digesting — resuming
    with a different worker count (or artifact path) is the same campaign,
    while any change to the science (scenarios, seed, horizon) or
    to the producing code yields a different identity, which ``resume``
    turns into a loud mismatch error instead of silently mixing results.
    """
    neutral = replace(spec, workers=None, output=None)
    return digest("campaign", code_fingerprint(), canonical_json(neutral))[:16]


def plan_campaign(spec: ExperimentSpec) -> CampaignPlan:
    """Expand a grid spec into its campaign plan.

    Only ``kind = "grid"`` experiments shard — they are the embarrassingly
    parallel cell sets campaigns exist for.  Analysis/periodic kinds have
    cross-cell structure and are memoized whole by :mod:`repro.config.run`
    instead.
    """
    if spec.kind != "grid":
        raise ValidationError(
            f"campaigns shard grid experiments; spec {spec.name!r} has "
            f"kind {spec.kind!r} (run it with 'repro run' instead)"
        )
    scenarios = build_grid_scenarios(spec.body, spec.seed, max_time=spec.max_time)
    cases = build_cases(spec.body)
    keys = grid_cell_keys(scenarios, cases, max_time=spec.max_time)
    cells: list[CampaignCell] = []
    for i, scenario in enumerate(scenarios):
        estimate = estimate_cell_seconds(scenario)
        for j, case in enumerate(cases):
            cells.append(
                CampaignCell(
                    index=i * len(cases) + j,
                    scenario_index=i,
                    case_index=j,
                    key=keys[i][j],
                    scenario_label=scenario.label,
                    scheduler_label=case.display,
                    estimate_seconds=estimate,
                )
            )
    return CampaignPlan(
        campaign_id=campaign_id_for(spec),
        spec=spec,
        scenarios=tuple(scenarios),
        cases=tuple(cases),
        cells=tuple(cells),
    )
