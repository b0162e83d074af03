"""The telemetry isolation contract, tested dynamically.

``--trace``/``--metrics``/``--profile`` may *observe* a run but never
change it: for every experiment kind the payload produced with the
recorder fully enabled (spans, metrics, sinks, stage hooks) must be
byte-identical to the payload produced with telemetry off, and the store
keys written by an instrumented run must equal those of a bare run.  The
static half of this contract is reprolint rule O001
(:mod:`repro.lint.obs_rules`); the rationale is ``docs/observability.md``.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.cli import main
from repro.config import parse_spec, run_spec
from repro.obs.metrics import MetricsWriter
from repro.obs.telemetry import recorder
from repro.obs.trace import write_trace
from repro.store import ResultStore
from repro.store.fingerprint import PRODUCING_PACKAGES

PLATFORM = {
    "preset": "generic",
    "processors": 200,
    "node_bandwidth": 1.0e6,
    "system_bandwidth": 2.0e7,
    "name": "obs-isolation",
}

#: One small spec per experiment kind the dispatcher knows.
SPECS: dict[str, dict] = {
    "grid": {
        "experiment": {"name": "iso-grid", "kind": "grid", "seed": 7,
                       "max_time": 2000.0},
        "platform": dict(PLATFORM),
        "scenarios": [
            {"kind": "mix", "label": "mixA", "small": 3, "large": 1,
             "io_ratio": 0.25, "repetitions": 2},
        ],
        "schedulers": {"names": ["FairShare", "MaxSysEff"]},
    },
    "figure6": {
        "experiment": {"kind": "figure6", "seed": 3, "max_time": 1500.0},
        "figure6": {
            "panels": ["10large-20"],
            "n_repetitions": 2,
            "schedulers": ["MaxSysEff"],
        },
    },
    "congested-moments": {
        "experiment": {"kind": "congested-moments", "seed": 1,
                       "max_time": 1000.0},
        "congested_moments": {
            "machine": "intrepid",
            "n_moments": 1,
            "schedulers": ["Priority-MaxSysEff"],
        },
    },
    "vesta": {
        "experiment": {"kind": "vesta", "seed": 0},
        "vesta": {
            "scenarios": ["256"],
            "configurations": ["IOR", "MaxSysEff"],
        },
    },
    "periodic": {
        "experiment": {"name": "iso-periodic", "kind": "periodic", "seed": 3},
        "periodic": {
            "heuristics": ["throughput"],
            "online": ["MaxSysEff"],
            "epsilon": 0.2,
            "max_period_factor": 4.0,
            "platform": {"preset": "generic", "processors": 400,
                         "node_bandwidth": 1.0e6,
                         "system_bandwidth": 4.0e7, "name": "steady-state"},
            "apps": [
                {"name": "checkpointer", "processors": 120, "work": 180.0,
                 "io_volume": 2.4e9, "instances": 6},
                {"name": "analytics", "processors": 80, "work": 90.0,
                 "io_volume": 1.6e9, "instances": 8},
            ],
        },
    },
    "analysis": {
        "experiment": {"name": "iso-analysis", "kind": "analysis", "seed": 9,
                       "max_time": 4000.0},
        "analysis": {
            "figures": ["figure5"],
            "figure5": {"n_jobs": 40},
        },
    },
}


def payload_bytes(result) -> bytes:
    return json.dumps(result.payload, sort_keys=True).encode("utf-8")


def run_instrumented(data: dict, tmp_path, store=None):
    """Run a spec with the recorder fully live: spans, sinks, stage hooks."""
    rec = recorder()
    rec.reset()
    rec.enable()
    writer = MetricsWriter(tmp_path / "metrics.jsonl")
    rec.install_stage_hook(
        lambda stage: writer.write_snapshot(rec, reason=f"stage:{stage}")
    )
    try:
        return run_spec(parse_spec(data), store=store)
    finally:
        write_trace(tmp_path / "trace.json", rec)
        writer.write_snapshot(rec, reason="final")
        rec.reset()


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_payload_identical_with_telemetry_on_and_off(kind, tmp_path):
    bare = run_spec(parse_spec(SPECS[kind]))
    instrumented = run_instrumented(SPECS[kind], tmp_path)
    assert payload_bytes(instrumented) == payload_bytes(bare)
    assert instrumented.records == bare.records
    assert instrumented.text == bare.text
    # The run really was observed — otherwise this test proves nothing.
    assert (tmp_path / "trace.json").exists()
    assert (tmp_path / "metrics.jsonl").read_text().strip()


def test_store_keys_identical_with_telemetry_on_and_off(tmp_path):
    bare_store = ResultStore(tmp_path / "bare")
    run_spec(parse_spec(SPECS["grid"]), store=bare_store)
    obs_store = ResultStore(tmp_path / "obs")
    run_instrumented(SPECS["grid"], tmp_path / "artefacts", store=obs_store)
    bare_keys = {entry.key for entry in bare_store.entries()}
    obs_keys = {entry.key for entry in obs_store.entries()}
    assert bare_keys == obs_keys
    assert bare_keys  # the grid spec caches at least one cell


def test_cached_replay_with_telemetry_matches_cold_bare_run(tmp_path):
    store = ResultStore(tmp_path / "store")
    cold = run_spec(parse_spec(SPECS["grid"]), store=store)
    warm = run_instrumented(SPECS["grid"], tmp_path / "artefacts", store=store)
    assert payload_bytes(warm) == payload_bytes(cold)
    assert warm.store_stats is not None and warm.store_stats["hits"] > 0


def test_obs_is_not_a_producing_package():
    # Editing telemetry must never invalidate cached results: repro.obs
    # stays out of the code fingerprint, like the linter and the CLI.
    assert "obs" not in PRODUCING_PACKAGES


# ---------------------------------------------------------------------- #
# Status-event sinks
# ---------------------------------------------------------------------- #
def _broken_sink(event: str, **fields: object) -> None:
    raise RuntimeError(f"sink failure on {event}")


def _via_run_spec(tmp_path) -> bytes:
    return payload_bytes(run_spec(parse_spec(SPECS["grid"])))


def _via_run_campaign(tmp_path) -> bytes:
    spec = parse_spec(SPECS["grid"])
    store = ResultStore(tmp_path / "store")
    config = CampaignConfig(
        workers=2, heartbeat_seconds=0.05, poll_seconds=0.02
    )
    outcome = run_campaign(spec, tmp_path / "camp", store=store, config=config)
    assert outcome.ok and outcome.landed == outcome.n_cells
    # Every cell is served from the campaign's store: this assembles the
    # payload without simulating anything.
    return payload_bytes(run_spec(spec, store=store))


@pytest.mark.parametrize("run", [_via_run_spec, _via_run_campaign])
def test_raising_sink_never_changes_or_stops_a_run(run, tmp_path):
    bare = run(tmp_path / "bare")
    rec = recorder()
    with rec.subscribed(_broken_sink):
        observed = run(tmp_path / "observed")
    assert observed == bare
    assert rec.sinks == ()


def test_progress_alone_leaves_metrics_off(tmp_path, capsys):
    spec_path = tmp_path / "grid.json"
    spec_path.write_text(json.dumps(SPECS["grid"]))
    rec = recorder()
    rec.reset()
    assert main(["run", str(spec_path), "--quiet", "--no-cache",
                 "--progress"]) == 0
    assert capsys.readouterr().err.count("cell ") == 4
    assert not rec.enabled
    assert rec.registry.snapshot() == {
        "counters": [], "gauges": [], "histograms": []
    }
    assert rec.sinks == ()
