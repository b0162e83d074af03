"""Unit tests for the campaign building blocks (:mod:`repro.campaign`).

Covers the deterministic pieces in isolation — config validation, the
seeded backoff schedule, journal append/replay semantics, mailbox framing
and doorbells, and campaign planning/identity — plus three process-level
properties of the coordinator: wake-ups are event-driven, the ``spawn``
start method works, and a resumed coordinator never reuses an earlier
run's mailboxes.  The process-level fault injection lives in
``tests/test_campaign_chaos.py``.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import time
import tomllib
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignJournal,
    backoff_seconds,
    campaign_id_for,
    campaign_status,
    coordinator,
    plan_campaign,
    read_journal,
    replay_journal,
    resume_campaign,
    run_campaign,
)
from repro.campaign.journal import LANDED, LEASED, PENDING, QUARANTINED
from repro.campaign.mailbox import MailboxReader, MailboxWriter, wait_for_mail
from repro.campaign.worker import CHAOS_ENV
from repro.config import load_spec, parse_spec, run_spec
from repro.experiments.runner import grid_cell_keys
from repro.store import ResultStore
from repro.utils.validation import ValidationError

TINY_GRID = """
[experiment]
name = "tiny"
kind = "grid"
seed = 5
max_time = 500.0

[platform]
preset = "generic"
processors = 100
node_bandwidth = 1.0e6
system_bandwidth = 2.0e7

[[scenarios]]
kind = "mix"
small = 3
io_ratio = 0.2

[[scenarios]]
kind = "mix"
small = 2
io_ratio = 0.4

[schedulers]
names = ["FairShare", "MaxSysEff"]
"""


@pytest.fixture(scope="module")
def tiny_spec():
    return parse_spec(tomllib.loads(TINY_GRID))


# ---------------------------------------------------------------------- #
# CampaignConfig
# ---------------------------------------------------------------------- #
class TestCampaignConfig:
    def test_defaults_are_valid(self):
        config = CampaignConfig()
        assert config.workers == 2
        assert config.retry_budget == 3

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"workers": 0}, "workers"),
            ({"lease_seconds": 0.0}, "lease_seconds"),
            ({"heartbeat_seconds": -1.0}, "heartbeat_seconds"),
            ({"poll_seconds": float("inf")}, "poll_seconds"),
            ({"heartbeat_seconds": 30.0, "lease_seconds": 30.0}, "heartbeat"),
            ({"retry_budget": 0}, "retry_budget"),
            ({"backoff_base_seconds": -0.1}, "backoff_base_seconds"),
            ({"backoff_factor": 0.5}, "backoff_factor"),
            ({"backoff_max_seconds": 0.1, "backoff_base_seconds": 1.0}, "backoff_max"),
            ({"backoff_jitter": -0.5}, "backoff_jitter"),
            ({"cell_timeout_seconds": 0.0}, "cell_timeout_seconds"),
            ({"cell_timeout_factor": 0.0}, "timeout factor"),
            ({"max_respawns": -1}, "max_respawns"),
            ({"halt_after_landed": 0}, "halt_after_landed"),
        ],
    )
    def test_bad_knobs_fail_before_any_worker_spawns(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            CampaignConfig(**kwargs)

    def test_cell_timeout_explicit_wins(self):
        config = CampaignConfig(cell_timeout_seconds=7.5)
        assert config.cell_timeout(1e6) == 7.5

    def test_cell_timeout_derived_from_estimate_with_floor(self):
        config = CampaignConfig(
            cell_timeout_factor=100.0, cell_timeout_floor_seconds=30.0
        )
        # Tiny estimate: the floor dominates.
        assert config.cell_timeout(0.001) == 30.0
        # Big estimate: the scaled estimate dominates.
        assert config.cell_timeout(2.0) == 200.0

    def test_from_dict_round_trips(self):
        config = CampaignConfig(workers=5, lease_seconds=9.0, retry_budget=2)
        assert CampaignConfig.from_dict(config.as_dict()) == config

    def test_from_dict_ignores_unknown_keys(self):
        # Journals written by a newer coordinator may carry extra knobs.
        data = CampaignConfig().as_dict()
        data["knob_from_the_future"] = 42
        assert CampaignConfig.from_dict(data) == CampaignConfig()


# ---------------------------------------------------------------------- #
# Backoff schedule
# ---------------------------------------------------------------------- #
class TestBackoffSeconds:
    def test_deterministic_per_campaign_cell_attempt(self):
        config = CampaignConfig()
        a = backoff_seconds(config, "abc123", 4, 2)
        b = backoff_seconds(config, "abc123", 4, 2)
        assert a == b

    def test_exponential_growth_capped_without_jitter(self):
        config = CampaignConfig(
            backoff_base_seconds=1.0,
            backoff_factor=2.0,
            backoff_max_seconds=5.0,
            backoff_jitter=0.0,
        )
        delays = [backoff_seconds(config, "id", 0, n) for n in range(1, 6)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_stays_within_bounds(self):
        config = CampaignConfig(
            backoff_base_seconds=1.0,
            backoff_factor=1.0,
            backoff_max_seconds=1.0,
            backoff_jitter=0.5,
        )
        delays = [backoff_seconds(config, "id", cell, 1) for cell in range(50)]
        assert all(1.0 <= d <= 1.5 for d in delays)
        # Jitter de-synchronizes cells that failed together.
        assert len(set(delays)) > 1

    def test_different_campaigns_draw_different_jitter(self):
        config = CampaignConfig(backoff_jitter=1.0)
        assert backoff_seconds(config, "campaign-a", 0, 1) != backoff_seconds(
            config, "campaign-b", 0, 1
        )


# ---------------------------------------------------------------------- #
# Journal
# ---------------------------------------------------------------------- #
def _header(n_cells: int) -> dict:
    return {
        "type": "campaign",
        "id": "deadbeef",
        "n_cells": n_cells,
        "cells": [{"index": i, "key": "00" * 32} for i in range(n_cells)],
    }


class TestJournal:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            journal.append(_header(2))
            journal.append({"type": "lease", "cell": 0, "attempt": 1, "seq": 1})
        records, corrupt = read_journal(path)
        assert corrupt == 0
        assert [r["type"] for r in records] == ["campaign", "lease"]

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.close()
        with pytest.raises(ValueError, match="closed"):
            journal.append({"type": "lease"})

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_journal(tmp_path / "nope.jsonl") == ([], 0)

    def test_torn_final_line_is_skipped_and_counted(self, tmp_path):
        # The one crash mode the O_APPEND protocol allows: a partial tail.
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            journal.append(_header(1))
            journal.append({"type": "landed", "cell": 0})
        with open(path, "ab") as handle:
            handle.write(b'{"type": "lease", "cel')
        records, corrupt = read_journal(path)
        assert corrupt == 1
        assert [r["type"] for r in records] == ["campaign", "landed"]
        state = replay_journal(records)
        assert state.states == {0: LANDED}

    def test_corrupt_middle_lines_do_not_block_later_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            journal.append(_header(1))
        with open(path, "ab") as handle:
            handle.write(b"\x00\xffgarbage\n")  # not UTF-8
            handle.write(b"[1, 2, 3]\n")  # JSON but not an object
            handle.write(b'{"no_type_field": true}\n')  # object, no type
        with CampaignJournal(path) as journal:
            journal.append({"type": "landed", "cell": 0, "source": "worker"})
        records, corrupt = read_journal(path)
        assert corrupt == 3
        assert replay_journal(records).states == {0: LANDED}

    def test_replay_folds_the_full_cell_lifecycle(self):
        records = [
            _header(4),
            {"type": "resume"},
            {"type": "lease", "cell": 0, "attempt": 1, "seq": 1},
            {"type": "landed", "cell": 0, "source": "worker", "attempt": 1},
            {"type": "landed", "cell": 1, "source": "store"},
            {"type": "lease", "cell": 2, "attempt": 1, "seq": 2},
            {"type": "failed", "cell": 2, "attempt": 1, "kind": "error"},
            {"type": "lease", "cell": 3, "attempt": 1, "seq": 3},
            {"type": "failed", "cell": 3, "attempt": 1, "kind": "timeout"},
            {"type": "quarantined", "cell": 3, "attempts": 3, "error": "boom"},
        ]
        state = replay_journal(records)
        assert state.resumes == 1
        assert not state.complete
        assert state.states == {0: LANDED, 1: LANDED, 2: PENDING, 3: QUARANTINED}
        assert state.landed_source == {0: "worker", 1: "store"}
        assert state.attempts[0] == 1
        assert state.attempts[3] == 3
        assert state.quarantine_errors == {3: "boom"}
        assert state.counts() == {
            PENDING: 1,
            LEASED: 0,
            LANDED: 2,
            QUARANTINED: 1,
        }

    def test_replay_requeue_clears_quarantine(self):
        records = [
            _header(1),
            {"type": "quarantined", "cell": 0, "attempts": 3, "error": "boom"},
            {"type": "requeue", "cell": 0, "reason": "retry-quarantined"},
        ]
        state = replay_journal(records)
        assert state.states == {0: PENDING}
        assert state.quarantine_errors == {}

    def test_replay_leased_cell_stays_leased(self):
        state = replay_journal(
            [_header(1), {"type": "lease", "cell": 0, "attempt": 1, "seq": 1}]
        )
        assert state.states == {0: LEASED}

    def test_replay_ignores_unknown_cells_and_types(self):
        records = [
            _header(1),
            {"type": "landed", "cell": 99},  # never declared by the header
            {"type": "landed", "cell": "junk"},
            {"type": "record-from-the-future", "payload": 1},
            {"type": "worker-respawn", "worker": "w0"},
        ]
        state = replay_journal(records)
        assert state.states == {0: PENDING}

    def test_replay_without_header_yields_empty_state(self):
        state = replay_journal([{"type": "landed", "cell": 0}])
        assert state.header is None
        assert state.states == {}

    def test_complete_record_marks_campaign_finished(self):
        state = replay_journal([_header(1), {"type": "complete", "landed": 1}])
        assert state.complete


# ---------------------------------------------------------------------- #
# Mailboxes
# ---------------------------------------------------------------------- #
class TestMailbox:
    def test_send_poll_round_trip_in_order(self, tmp_path):
        path = tmp_path / "w0.out.jsonl"
        writer = MailboxWriter(path)
        reader = MailboxReader(path)
        writer.send({"type": "ready", "n_cells": 4})
        writer.send({"type": "heartbeat"})
        assert [r["type"] for r in reader.poll()] == ["ready", "heartbeat"]
        assert reader.poll() == []  # exactly-once delivery
        writer.send({"type": "done", "cell": 0})
        assert [r["type"] for r in reader.poll()] == ["done"]
        writer.close()

    def test_partial_line_is_buffered_until_complete(self, tmp_path):
        # A poll racing the writer mid-line must neither lose nor split
        # the record.
        path = tmp_path / "mail.jsonl"
        reader = MailboxReader(path)
        with open(path, "ab") as handle:
            handle.write(b'{"type": "hea')
        assert reader.poll() == []
        with open(path, "ab") as handle:
            handle.write(b'rtbeat"}\n')
        assert reader.poll() == [{"type": "heartbeat"}]
        assert reader.corrupt == 0

    def test_corrupt_complete_lines_are_counted_and_skipped(self, tmp_path):
        path = tmp_path / "mail.jsonl"
        with open(path, "wb") as handle:
            handle.write(b"not json\n")
            handle.write(b"17\n")  # JSON, but not an object
            handle.write(b'{"type": "done"}\n')
        reader = MailboxReader(path)
        assert reader.poll() == [{"type": "done"}]
        assert reader.corrupt == 2

    def test_missing_mailbox_polls_empty(self, tmp_path):
        assert MailboxReader(tmp_path / "ghost.jsonl").poll() == []

    def test_closed_writer_refuses_sends(self, tmp_path):
        writer = MailboxWriter(tmp_path / "mail.jsonl")
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.send({"type": "heartbeat"})


class TestDoorbell:
    @pytest.fixture
    def pair(self, tmp_path):
        bell_r, bell_w = mp.Pipe(duplex=False)
        writer = MailboxWriter(tmp_path / "mail.jsonl", bell_w)
        reader = MailboxReader(tmp_path / "mail.jsonl", bell_r)
        yield writer, reader
        writer.close()
        reader.close()

    def test_send_rings_and_poll_silences(self, pair):
        writer, reader = pair
        assert wait_for_mail([reader], 0.0) == [reader]  # timed out: poll all
        assert not reader.doorbell.poll(0)
        writer.send({"type": "done"})
        writer.send({"type": "done"})
        assert reader.doorbell.poll(0)
        assert [r["type"] for r in reader.poll()] == ["done", "done"]
        assert not reader.doorbell.poll(0)  # both rings drained by the poll

    def test_unrung_send_waits_for_the_next_ring(self, pair):
        writer, reader = pair
        writer.send({"type": "start"}, ring=False)
        assert not reader.doorbell.poll(0)
        writer.send({"type": "done"})
        assert [r["type"] for r in reader.poll()] == ["start", "done"]

    def test_wait_returns_only_rung_readers(self, tmp_path, pair):
        writer, reader = pair
        quiet_r, quiet_w = mp.Pipe(duplex=False)
        quiet = MailboxReader(tmp_path / "quiet.jsonl", quiet_r)
        writer.send({"type": "done"})
        started = time.monotonic()
        assert wait_for_mail([quiet, reader], 5.0) == [reader]
        assert time.monotonic() - started < 1.0
        quiet.close()
        quiet_w.close()

    def test_a_full_doorbell_never_blocks_the_writer(self, pair):
        # Rings are dropped once the pipe is full; unread rings remain, so
        # the reader still wakes, and every record is still delivered.
        writer, reader = pair
        for i in range(100_000):
            writer.send({"i": i})
        assert reader.doorbell.poll(0)
        assert len(reader.poll()) == 100_000

    def test_closed_writer_end_drops_the_doorbell(self, pair):
        writer, reader = pair
        writer.send({"type": "bye"})
        writer.close()
        assert [r["type"] for r in reader.poll()] == ["bye"]
        assert reader.doorbell is None
        # With no doorbell left, a wait simply times out.
        assert wait_for_mail([reader], 0.01) == [reader]


# ---------------------------------------------------------------------- #
# Planning and identity
# ---------------------------------------------------------------------- #
class TestPlan:
    def test_plan_matches_the_serial_runner_keys(self, tiny_spec):
        plan = plan_campaign(tiny_spec)
        keys = grid_cell_keys(
            list(plan.scenarios),
            list(plan.cases),
            max_time=tiny_spec.max_time,
        )
        assert len(plan.cells) == len(plan.scenarios) * len(plan.cases) == 4
        for cell in plan.cells:
            assert cell.index == cell.scenario_index * len(plan.cases) + cell.case_index
            assert cell.key == keys[cell.scenario_index][cell.case_index]
            assert cell.estimate_seconds > 0.0
            assert set(cell.as_dict()) == {"index", "key", "scenario", "scheduler"}

    def test_non_grid_specs_are_refused(self):
        spec = load_spec("examples/specs/figure6.toml")
        with pytest.raises(ValidationError, match="shard grid experiments"):
            plan_campaign(spec)

    def test_identity_ignores_workers_and_output(self, tiny_spec):
        base = campaign_id_for(tiny_spec)
        assert campaign_id_for(replace(tiny_spec, workers=8)) == base
        assert campaign_id_for(tiny_spec.with_overrides(seed=None)) == base

    def test_identity_tracks_the_science(self, tiny_spec):
        base = campaign_id_for(tiny_spec)
        assert campaign_id_for(tiny_spec.with_overrides(seed=6)) != base
        assert campaign_id_for(tiny_spec.with_overrides(max_time=100.0)) != base


# ---------------------------------------------------------------------- #
# Status on broken inputs
# ---------------------------------------------------------------------- #
class TestStatusErrors:
    def test_status_without_journal_is_loud(self, tmp_path):
        with pytest.raises(ValidationError, match="no campaign journal"):
            campaign_status(tmp_path / "ghost")

    def test_status_reads_a_headerless_journal(self, tmp_path):
        # A journal whose header line was corrupted: status degrades to
        # zero-knowledge rather than crashing.
        campaign_dir = tmp_path / "camp"
        campaign_dir.mkdir()
        (campaign_dir / "journal.jsonl").write_bytes(b"garbage header\n")
        status = campaign_status(campaign_dir)
        assert status["corrupt_journal_lines"] == 1
        assert status["n_cells"] is None
        assert status["cells"] == []


# ---------------------------------------------------------------------- #
# Coordinator processes: wake-ups, start methods, resume mailboxes
# ---------------------------------------------------------------------- #
N_CELLS = 4  # 2 scenarios x 2 schedulers


def _canonical(store: ResultStore, key: str) -> str:
    payload = store.get(key)
    assert payload is not None, f"cell {key} missing from {store.root}"
    return json.dumps(payload, sort_keys=True, allow_nan=True)


class TestCoordinatorProcesses:
    def test_wake_ups_are_event_driven(self, tiny_spec, tmp_path):
        # A sleep-polling coordinator needs at least one poll period per
        # cell and worker; the doorbells let the campaign run at compute
        # speed, whatever the poll period.
        config = CampaignConfig(workers=2, poll_seconds=1.0)
        started = time.monotonic()
        result = run_campaign(
            tiny_spec, tmp_path / "camp", store=ResultStore(tmp_path / "store"),
            config=config,
        )
        elapsed = time.monotonic() - started
        assert result.ok and result.landed_computed == N_CELLS
        assert elapsed < 0.5 * (N_CELLS / config.workers) * config.poll_seconds

    def test_spawn_start_method_lands_serial_payloads(
        self, tiny_spec, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(coordinator, "_mp_context", lambda: mp.get_context("spawn"))
        store = ResultStore(tmp_path / "store")
        result = run_campaign(
            tiny_spec, tmp_path / "camp", store=store,
            config=CampaignConfig(workers=2, poll_seconds=0.02),
        )
        assert result.ok and result.landed_computed == N_CELLS
        assert result.worker_deaths == 0
        serial = ResultStore(tmp_path / "serial")
        run_spec(tiny_spec, store=serial)
        for cell in plan_campaign(tiny_spec).cells:
            assert _canonical(store, cell.key) == _canonical(serial, cell.key)

    def test_resume_writes_fresh_mailboxes(self, tiny_spec, tmp_path, monkeypatch):
        # A degraded campaign (cell 1 always fails), then a resume that
        # retries the quarantined cell.  The resumed workers must start on
        # new mailbox files: replaying the first run's leases and shutdown
        # would kill them and could land a stale ack on a new lease.
        chaos = tmp_path / "chaos.json"
        chaos.write_text(json.dumps({"1": {"fail": "always"}}))
        monkeypatch.setenv(CHAOS_ENV, str(chaos))
        config = CampaignConfig(
            workers=2, retry_budget=2, poll_seconds=0.02, heartbeat_seconds=0.05,
            backoff_base_seconds=0.05, backoff_max_seconds=0.2,
        )
        store = ResultStore(tmp_path / "store")
        camp = tmp_path / "camp"
        first = run_campaign(
            tiny_spec, camp, store=store, config=config,
            spec_data=tomllib.loads(TINY_GRID),
        )
        assert first.degraded
        mail_before = {p.name: p.read_bytes() for p in (camp / "mail").iterdir()}
        monkeypatch.delenv(CHAOS_ENV)
        result = resume_campaign(camp, store=ResultStore(tmp_path / "store"),
                                 retry_quarantined=True)
        assert result.ok and result.landed == N_CELLS
        assert result.worker_deaths == 0
        for name, data in mail_before.items():
            assert (camp / "mail" / name).read_bytes() == data, name
        assert set(p.name for p in (camp / "mail").iterdir()) > set(mail_before)
        status = campaign_status(camp)
        landed = [c for c in status["cells"] if c["state"] == LANDED]
        assert len(landed) == N_CELLS
        check = ResultStore(tmp_path / "store")
        assert all(check.get(c["key"]) is not None for c in landed)
