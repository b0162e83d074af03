"""Fault-tolerant distributed campaigns: shard a grid spec across workers.

A *campaign* runs one grid experiment's cell set across N worker
processes — and, with per-worker stores merged by ``repro store merge``,
across hosts — surviving every failure mode short of losing the journal:

* **work-stealing leases** (:mod:`~repro.campaign.coordinator`): cells are
  leased to workers with a liveness deadline; a crashed, ``kill -9``'d or
  wedged worker forfeits its lease after one lease period and the cell is
  re-queued to the next idle worker;
* **retry with seeded backoff** (:mod:`~repro.campaign.model`): failing
  cells retry under a deterministic exponential-backoff-with-jitter
  schedule up to a retry budget, then are *quarantined* — the campaign
  completes degraded with a loud per-cell failure report instead of dying;
* **timeout watchdog**: each cell gets a wall-clock budget derived from the
  executor's cost estimate, so a hung simulation cannot stall the fleet;
* **crash-safe journal** (:mod:`~repro.campaign.journal`): every
  transition is fsync'd to an append-only JSONL journal before it takes
  effect; ``repro campaign resume`` replays it and recomputes only cells
  that never landed;
* **mergeable stores** (:mod:`repro.store.merge`): results are
  content-addressed, so per-worker stores union into one that serves a
  serial ``repro run --require-cached`` rerun byte-identically.

``repro campaign run | status | resume`` is the CLI face; see
``docs/distributed.md`` for the full protocol walk-through.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.campaign.coordinator import (
        CampaignCoordinator,
        campaign_status,
        resume_campaign,
        run_campaign,
    )
    from repro.campaign.journal import (
        CampaignJournal,
        JournalState,
        read_journal,
        replay_journal,
    )
    from repro.campaign.mailbox import MailboxReader, MailboxWriter
    from repro.campaign.model import (
        CampaignConfig,
        CampaignResult,
        QuarantinedCell,
        backoff_seconds,
    )
    from repro.campaign.plan import (
        CampaignCell,
        CampaignPlan,
        campaign_id_for,
        plan_campaign,
    )


__all__ = [
    "CampaignCell",
    "CampaignConfig",
    "CampaignCoordinator",
    "CampaignJournal",
    "CampaignPlan",
    "CampaignResult",
    "JournalState",
    "MailboxReader",
    "MailboxWriter",
    "QuarantinedCell",
    "backoff_seconds",
    "campaign_id_for",
    "campaign_status",
    "plan_campaign",
    "read_journal",
    "replay_journal",
    "resume_campaign",
    "run_campaign",
]

__getattr__, __dir__ = attach(__name__)
