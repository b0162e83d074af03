"""Campaign data model: tuning knobs, the retry/backoff policy, results.

A campaign is a sharded, fault-tolerant execution of one grid spec's cell
set (see :mod:`repro.campaign`).  This module holds the pieces every other
campaign module shares:

* :class:`CampaignConfig` — the coordinator's tuning knobs (worker count,
  lease/heartbeat periods, retry budget, backoff shape, timeout policy),
  validated up front so a bad knob fails before any worker spawns;
* :func:`backoff_seconds` — seeded exponential backoff with jitter.  The
  jitter RNG is seeded from ``(campaign id, cell, attempt)``, so retry
  schedules are deterministic per campaign — reproducible chaos tests —
  while still de-synchronizing cells that fail together;
* :class:`QuarantinedCell` / :class:`CampaignResult` — what a campaign
  reports back, including the loud per-cell failure report that degraded
  completion prints instead of burying failures in an exit code.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Any, Mapping, Optional

import numpy as np

from repro.store.canonical import digest
from repro.utils.validation import ValidationError

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "QuarantinedCell",
    "backoff_seconds",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Coordinator tuning knobs (everything lands in the journal header).

    Attributes
    ----------
    workers:
        Worker processes the coordinator shards cells over.
    worker_stores:
        Give every worker its own result store under the campaign
        directory (``stores/<worker>/``) instead of sharing the main
        store — the multi-host mode, joined later by ``repro store
        merge``.
    lease_seconds:
        A worker silent for longer than this forfeits its lease: the cell
        is re-queued and the worker replaced.  This is the price of a
        ``kill -9``'d (or wedged) worker — one lease period, not the
        campaign.
    heartbeat_seconds:
        Worker heartbeat period; must be well under ``lease_seconds``.
    poll_seconds:
        The longest any coordinator or worker wait lasts.  Both sides
        wake as soon as mail arrives (the mailbox doorbells), so this is
        not a per-cell cost; it is how often lease expiry, the cell
        watchdog and backoff are re-checked when no mail comes.
    retry_budget:
        Attempts a cell gets before quarantine (1 = no retries).
    backoff_base_seconds / backoff_factor / backoff_max_seconds /
    backoff_jitter:
        Shape of :func:`backoff_seconds` between attempts.
    cell_timeout_seconds:
        Hard per-cell wall-clock timeout.  ``None`` derives one per cell
        from the executor's cost estimate:
        ``max(cell_timeout_floor_seconds, cell_timeout_factor * estimate)``.
    max_respawns:
        Replacement workers the coordinator may spawn campaign-wide before
        it stops replacing casualties (it then degrades rather than
        forking forever against a machine-level problem).
    halt_after_landed:
        Testing knob: halt the coordinator (journal intact, no completion
        record) after this many worker-computed cells land — a
        deterministic stand-in for a coordinator crash, exercised by the
        resume tests.
    """

    workers: int = 2
    worker_stores: bool = False
    lease_seconds: float = 30.0
    heartbeat_seconds: float = 0.25
    poll_seconds: float = 0.05
    retry_budget: int = 3
    backoff_base_seconds: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 30.0
    backoff_jitter: float = 0.25
    cell_timeout_seconds: Optional[float] = None
    cell_timeout_factor: float = 500.0
    cell_timeout_floor_seconds: float = 30.0
    max_respawns: int = 8
    halt_after_landed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValidationError(f"campaign workers must be >= 1, got {self.workers}")
        for name in ("lease_seconds", "heartbeat_seconds", "poll_seconds"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(f"campaign {name} must be finite and > 0, got {value}")
        if self.heartbeat_seconds >= self.lease_seconds:
            raise ValidationError(
                f"heartbeat_seconds ({self.heartbeat_seconds:g}) must be smaller than "
                f"lease_seconds ({self.lease_seconds:g}) or every worker looks dead"
            )
        if self.retry_budget < 1:
            raise ValidationError(f"retry_budget must be >= 1, got {self.retry_budget}")
        if self.backoff_base_seconds < 0:
            raise ValidationError(
                f"backoff_base_seconds must be >= 0, got {self.backoff_base_seconds}"
            )
        if self.backoff_factor < 1:
            raise ValidationError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.backoff_max_seconds < self.backoff_base_seconds:
            raise ValidationError(
                f"backoff_max_seconds ({self.backoff_max_seconds:g}) must be >= "
                f"backoff_base_seconds ({self.backoff_base_seconds:g})"
            )
        if self.backoff_jitter < 0:
            raise ValidationError(f"backoff_jitter must be >= 0, got {self.backoff_jitter}")
        if self.cell_timeout_seconds is not None and self.cell_timeout_seconds <= 0:
            raise ValidationError(
                f"cell_timeout_seconds must be > 0, got {self.cell_timeout_seconds}"
            )
        if self.cell_timeout_factor <= 0 or self.cell_timeout_floor_seconds <= 0:
            raise ValidationError("cell timeout factor and floor must be > 0")
        if self.max_respawns < 0:
            raise ValidationError(f"max_respawns must be >= 0, got {self.max_respawns}")
        if self.halt_after_landed is not None and self.halt_after_landed < 1:
            raise ValidationError(
                f"halt_after_landed must be >= 1, got {self.halt_after_landed}"
            )

    def cell_timeout(self, estimate_seconds: float) -> float:
        """Wall-clock watchdog for one cell with the given cost estimate."""
        if self.cell_timeout_seconds is not None:
            return self.cell_timeout_seconds
        return max(
            self.cell_timeout_floor_seconds,
            self.cell_timeout_factor * estimate_seconds,
        )

    def as_dict(self) -> dict:
        """Plain-dict view (stored verbatim in the journal header)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignConfig":
        """Rebuild from a journal header (unknown keys are ignored)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def backoff_seconds(
    config: CampaignConfig, campaign_id: str, cell_index: int, attempt: int
) -> float:
    """Delay before retrying ``cell_index`` after its ``attempt``-th failure.

    Exponential in the attempt number, capped at ``backoff_max_seconds``,
    then stretched by up to ``backoff_jitter`` of itself.  The jitter draw
    is seeded from ``digest(campaign_id, cell, attempt)``, so a campaign's
    retry schedule is a pure function of its identity — chaos tests replay
    exactly — while colliding cells still spread out.
    """
    base = min(
        config.backoff_max_seconds,
        config.backoff_base_seconds * config.backoff_factor ** max(0, attempt - 1),
    )
    if config.backoff_jitter == 0 or base == 0:
        return base
    seed = int(digest("campaign-backoff", campaign_id, cell_index, attempt)[:16], 16)
    rng = np.random.default_rng(seed)
    return float(base * (1.0 + config.backoff_jitter * rng.random()))


@dataclass(frozen=True)
class QuarantinedCell:
    """A cell that exhausted its retry budget (or outlived its workers)."""

    index: int
    key: str
    scenario_label: str
    scheduler_label: str
    attempts: int
    error: str

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one coordinator run (fresh or resumed).

    ``landed_from_store`` / ``landed_computed`` count cells landed *by this
    run* (store pre-check hits vs worker computations); ``landed`` is the
    campaign-wide total including cells landed by earlier runs that this
    resume merely verified.
    """

    campaign_id: str
    journal_path: str
    n_cells: int
    landed: int
    landed_from_store: int
    landed_computed: int
    quarantined: tuple[QuarantinedCell, ...]
    retries: int
    lease_expiries: int
    timeouts: int
    worker_deaths: int
    degraded: bool
    halted: bool
    resumes: int

    @property
    def ok(self) -> bool:
        """Every cell landed and the coordinator ran to completion."""
        return not self.degraded and not self.halted

    def as_dict(self) -> dict:
        out = asdict(self)
        out["quarantined"] = [q.as_dict() for q in self.quarantined]
        out["ok"] = self.ok
        return out

    def failure_report(self) -> str:
        """Loud, per-cell description of everything that did not land.

        Degraded completion is a feature — one poisoned cell must not
        sink a thousand-cell campaign — but it must never be quiet about
        what it dropped, so the CLI prints this block verbatim.
        """
        if not self.quarantined:
            return ""
        lines = [
            f"campaign {self.campaign_id} completed DEGRADED: "
            f"{len(self.quarantined)} of {self.n_cells} cells quarantined"
        ]
        for cell in self.quarantined:
            lines.append(
                f"  cell {cell.index} ({cell.scenario_label!r} x "
                f"{cell.scheduler_label!r}) failed {cell.attempts} attempt(s): "
                f"{cell.error}"
            )
            lines.append(f"    key {cell.key}")
        lines.append(
            "fix the cause and 'repro campaign resume --retry-quarantined' to "
            "recompute only these cells"
        )
        return "\n".join(lines)
