"""CLI surface of the telemetry layer: ``--trace``/``--metrics``/
``--profile``/``--webhook`` on ``repro run`` and ``repro campaign``.

Covers the PR's acceptance criteria: the trace is a valid Chrome trace
document containing spans for the build stage, at least one grid cell and
at least one store access; ``campaign status`` reports per-worker
heartbeat age and throughput; and every artefact stays well-formed when a
worker is killed mid-campaign (the sinks flush in ``finally``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign.worker import CHAOS_ENV
from repro.cli import main
from repro.obs.schema import (
    validate_metrics_file,
    validate_trace_file,
    validate_webhook_file,
)

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

N_CELLS = 4  # 2 scenarios x 2 schedulers


@pytest.fixture
def tiny_spec(tmp_path) -> Path:
    path = tmp_path / "tiny.toml"
    path.write_text(TINY_GRID)
    return path


def span_names(trace_path: Path) -> set[str]:
    document = json.loads(trace_path.read_text())
    return {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}


class TestRunObsFlags:
    def test_trace_covers_build_cells_and_store(self, tiny_spec, tmp_path):
        trace = tmp_path / "trace.json"
        rc = main(
            ["run", str(tiny_spec), "--quiet",
             "--store", str(tmp_path / "store"), "--trace", str(trace)]
        )
        assert rc == 0
        assert validate_trace_file(trace) == []
        names = span_names(trace)
        # The acceptance criterion: build stage, >=1 cell, >=1 store access.
        assert {"build", "run", "report", "spec", "cell"} <= names
        assert names & {"store.get", "store.put"}

    def test_metrics_jsonl_and_prometheus_sibling(self, tiny_spec, tmp_path):
        metrics = tmp_path / "metrics.jsonl"
        rc = main(
            ["run", str(tiny_spec), "--quiet", "--no-cache",
             "--metrics", str(metrics)]
        )
        assert rc == 0
        assert validate_metrics_file(metrics) == []
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        # One snapshot per closed stage plus the final flush.
        assert [l["reason"] for l in lines[-4:]] == [
            "stage:build", "stage:run", "stage:report", "final",
        ]
        prom = Path(f"{metrics}.prom")
        assert "repro_cells_total" in prom.read_text()

    def test_profile_writes_one_pstats_file_per_stage(self, tiny_spec, tmp_path):
        import pstats

        profile_dir = tmp_path / "prof"
        rc = main(
            ["run", str(tiny_spec), "--quiet", "--no-cache",
             "--profile", str(profile_dir)]
        )
        assert rc == 0
        files = sorted(p.name for p in profile_dir.glob("*.prof"))
        assert files == ["00-build.prof", "01-run.prof", "02-report.prof"]
        pstats.Stats(str(profile_dir / "01-run.prof"))  # loadable

    def test_webhook_file_receives_lifecycle_and_progress(
        self, tiny_spec, tmp_path, capsys
    ):
        hook = tmp_path / "progress.jsonl"
        rc = main(
            ["run", str(tiny_spec), "--quiet", "--no-cache", "--progress",
             "--webhook", str(hook)]
        )
        assert rc == 0
        assert validate_webhook_file(hook) == []
        events = [json.loads(l)["event"] for l in hook.read_text().splitlines()]
        assert events[0] == "run-start"
        assert events[-1] == "run-complete"
        assert events.count("progress") == N_CELLS

    def test_telemetry_does_not_change_the_output_payload(
        self, tiny_spec, tmp_path
    ):
        bare = tmp_path / "bare.json"
        observed = tmp_path / "observed.json"
        assert main(["run", str(tiny_spec), "--quiet", "--no-cache",
                     "--out", str(bare)]) == 0
        assert main(["run", str(tiny_spec), "--quiet", "--no-cache",
                     "--out", str(observed),
                     "--trace", str(tmp_path / "t.json"),
                     "--metrics", str(tmp_path / "m.jsonl"),
                     "--profile", str(tmp_path / "prof")]) == 0
        assert observed.read_bytes() == bare.read_bytes()


class TestCampaignObs:
    def test_campaign_artefacts_and_status_worker_rows(
        self, tiny_spec, tmp_path, capsys
    ):
        camp = tmp_path / "camp"
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.jsonl"
        hook = tmp_path / "progress.jsonl"
        rc = main(
            ["campaign", "run", str(tiny_spec), "--workers", "2",
             "--dir", str(camp), "--store", str(tmp_path / "store"),
             "--heartbeat-seconds", "0.02", "--quiet",
             "--trace", str(trace), "--metrics", str(metrics),
             "--webhook", str(hook)]
        )
        assert rc == 0
        assert validate_trace_file(trace) == []
        assert validate_metrics_file(metrics) == []
        assert validate_webhook_file(hook) == []
        events = [json.loads(l)["event"] for l in hook.read_text().splitlines()]
        assert events[0] == "campaign-start"
        assert events[-1] == "campaign-complete"
        assert events.count("cell-landed") == N_CELLS

        capsys.readouterr()
        assert main(["campaign", "status", str(camp), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        workers = status["workers"]
        assert workers, "status must list the campaign's workers"
        for row in workers:
            assert row["heartbeat_age_seconds"] >= 0.0
            assert row["cells_done"] + row["cells_failed"] >= 0
        assert sum(row["cells_done"] for row in workers) == N_CELLS
        assert any(
            row["cells_per_second"] and row["cells_per_second"] > 0.0
            for row in workers
        )

        assert main(["campaign", "status", str(camp)]) == 0
        human = capsys.readouterr().out
        assert "heartbeat" in human and "cells/s" in human

    def test_artefacts_stay_well_formed_when_a_worker_is_killed(
        self, tiny_spec, tmp_path, monkeypatch
    ):
        # Cell 0's first host dies kill -9 style mid-cell.  The campaign
        # retries and completes; every artefact must still parse and
        # validate (the sinks flush in ``finally``, never incrementally
        # trusting a clean exit).
        chaos_path = tmp_path / "chaos.json"
        chaos_path.write_text(json.dumps({"0": {"exit": [1]}}, sort_keys=True))
        monkeypatch.setenv(CHAOS_ENV, str(chaos_path))
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.jsonl"
        hook = tmp_path / "progress.jsonl"
        rc = main(
            ["campaign", "run", str(tiny_spec), "--workers", "2",
             "--dir", str(tmp_path / "camp"),
             "--store", str(tmp_path / "store"),
             "--heartbeat-seconds", "0.02", "--quiet",
             "--trace", str(trace), "--metrics", str(metrics),
             "--webhook", str(hook)]
        )
        assert rc == 0
        assert validate_trace_file(trace) == []
        assert validate_metrics_file(metrics) == []
        assert validate_webhook_file(hook) == []
        events = [json.loads(l)["event"] for l in hook.read_text().splitlines()]
        assert "worker-death" in events
        assert events.count("cell-landed") == N_CELLS
