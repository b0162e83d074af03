"""End-to-end cache-key semantics of the result store (ISSUE 5 tentpole).

The contract under test:

* an unchanged spec re-run against the same store is **100% hits**, performs
  **zero simulation work**, and produces a **byte-identical** payload;
* changing any key ingredient — the seed, or the producing modules' code
  fingerprint — misses and recomputes;
* a corrupted/truncated store entry degrades to a recompute, never a crash;
* deleting a subset of entries (the interrupted-campaign shape) recomputes
  exactly the missing cells.
"""

from __future__ import annotations

import json

import pytest

import repro.config.run as config_run
import repro.experiments.runner as runner_module
from repro.config import parse_spec, run_spec
from repro.experiments.reporting import _jsonable
from repro.store import ResultStore, clear_fingerprint_cache

TINY_GRID = {
    "experiment": {"name": "tiny", "kind": "grid", "seed": 5, "max_time": 500.0},
    "platform": {
        "preset": "generic",
        "processors": 100,
        "node_bandwidth": 1.0e6,
        "system_bandwidth": 2.0e7,
    },
    "scenarios": [{"kind": "mix", "small": 3, "io_ratio": 0.2}],
    "schedulers": {"names": ["FairShare", "MaxSysEff"]},
}

TINY_ANALYSIS = {
    "experiment": {"name": "tiny-analysis", "kind": "analysis", "seed": 7,
                   "max_time": 400.0},
    "analysis": {
        "figures": ["figure1", "figure5"],
        "platform": {
            "preset": "generic",
            "processors": 100,
            "node_bandwidth": 1.0e6,
            "system_bandwidth": 2.0e7,
        },
        "figure1": {"n_applications": 4, "applications_per_batch": 2,
                    "release_spread": 0.1},
        "figure5": {"n_jobs": 40},
    },
}


def _payload_bytes(result) -> str:
    """The exact artefact bytes ``write_json`` would emit."""
    return json.dumps(_jsonable(dict(result.payload)), indent=2, sort_keys=False)


@pytest.fixture(autouse=True)
def _reset_fingerprint_cache():
    # REPRO_CACHE_SALT is read per call, but (root, salt) pairs are
    # memoized; keep tests that mutate the environment independent.
    clear_fingerprint_cache()
    yield
    clear_fingerprint_cache()


def _forbid_simulation(monkeypatch):
    """Make any simulator/study invocation explode."""

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("simulation work performed on a cached rerun")

    monkeypatch.setattr(runner_module, "run_case", boom)
    for figure in list(config_run._ANALYSIS_RUNNERS):
        monkeypatch.setitem(config_run._ANALYSIS_RUNNERS, figure, boom)


# ---------------------------------------------------------------------- #
class TestUnchangedSpec:
    def test_second_run_is_all_hits_and_byte_identical(self, tmp_path, monkeypatch):
        spec = parse_spec(TINY_GRID)
        store = ResultStore(tmp_path)
        first = run_spec(spec, store=store)
        assert first.store_stats["misses"] == 2
        assert first.store_stats["writes"] == 2

        _forbid_simulation(monkeypatch)
        second = run_spec(spec, store=ResultStore(tmp_path))
        assert second.store_stats == {
            "hits": 2, "misses": 0, "writes": 0, "corrupt": 0,
            "collisions": 0, "write_errors": 0, "hit_rate": 1.0,
        }
        assert _payload_bytes(second) == _payload_bytes(first)
        assert second.text == first.text
        assert second.records == first.records

    def test_analysis_studies_are_memoized(self, tmp_path, monkeypatch):
        spec = parse_spec(TINY_ANALYSIS)
        store = ResultStore(tmp_path)
        first = run_spec(spec, store=store)
        assert first.store_stats["misses"] == 2  # one per figure study

        _forbid_simulation(monkeypatch)
        second = run_spec(spec, store=ResultStore(tmp_path))
        assert second.store_stats["hits"] == 2
        assert second.store_stats["misses"] == 0
        assert _payload_bytes(second) == _payload_bytes(first)

    def test_cached_run_is_identical_to_uncached_run(self, tmp_path):
        spec = parse_spec(TINY_GRID)
        cold = run_spec(spec)
        store = ResultStore(tmp_path)
        run_spec(spec, store=store)
        warm = run_spec(spec, store=store)
        assert cold.store_stats is None
        assert _payload_bytes(warm) == _payload_bytes(cold)

    def test_progress_lines_match_between_cold_and_cached_runs(
        self, tmp_path, status_lines
    ):
        spec = parse_spec(TINY_GRID)
        store = ResultStore(tmp_path)
        with status_lines() as cold_lines:
            run_spec(spec, store=store)
        with status_lines() as warm_lines:
            run_spec(spec, store=ResultStore(tmp_path))
        assert warm_lines == cold_lines


# ---------------------------------------------------------------------- #
class TestKeyIngredients:
    def test_seed_change_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        run_spec(parse_spec(TINY_GRID), store=store)
        reseeded = dict(TINY_GRID, experiment=dict(TINY_GRID["experiment"], seed=6))
        second = run_spec(parse_spec(reseeded), store=ResultStore(tmp_path))
        assert second.store_stats["hits"] == 0
        assert second.store_stats["misses"] == 2

    def test_max_time_change_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        run_spec(parse_spec(TINY_GRID), store=store)
        retimed = dict(
            TINY_GRID, experiment=dict(TINY_GRID["experiment"], max_time=600.0)
        )
        second = run_spec(parse_spec(retimed), store=ResultStore(tmp_path))
        assert second.store_stats["hits"] == 0

    def test_code_fingerprint_change_misses(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        run_spec(parse_spec(TINY_GRID), store=store)
        # Simulate "a producing module changed" via the fingerprint salt.
        monkeypatch.setenv("REPRO_CACHE_SALT", "simulator-was-edited")
        second = run_spec(parse_spec(TINY_GRID), store=ResultStore(tmp_path))
        assert second.store_stats["hits"] == 0
        assert second.store_stats["misses"] == 2
        # Back to the original code state: the original entries still hit.
        monkeypatch.delenv("REPRO_CACHE_SALT")
        third = run_spec(parse_spec(TINY_GRID), store=ResultStore(tmp_path))
        assert third.store_stats["hits"] == 2

    def test_scheduler_set_change_hits_the_overlap(self, tmp_path):
        store = ResultStore(tmp_path)
        run_spec(parse_spec(TINY_GRID), store=store)
        extended = dict(
            TINY_GRID,
            schedulers={"names": ["FairShare", "MaxSysEff", "MinDilation"]},
        )
        second = run_spec(parse_spec(extended), store=ResultStore(tmp_path))
        # Per-cell keys: the two existing columns hit, the new one misses.
        assert second.store_stats["hits"] == 2
        assert second.store_stats["misses"] == 1


# ---------------------------------------------------------------------- #
class TestDegradedStores:
    def test_corrupted_entry_recomputes_instead_of_crashing(self, tmp_path):
        spec = parse_spec(TINY_GRID)
        store = ResultStore(tmp_path)
        first = run_spec(spec, store=store)
        victim = next(iter(store.entries())).path
        victim.write_text('{"key": "oops", "payload"')  # truncated garbage

        second_store = ResultStore(tmp_path)
        second = run_spec(spec, store=second_store)
        assert second.store_stats["corrupt"] == 1
        assert second.store_stats["misses"] == 1
        assert second.store_stats["hits"] == 1
        assert _payload_bytes(second) == _payload_bytes(first)
        # The recompute healed the store.
        third = run_spec(spec, store=ResultStore(tmp_path))
        assert third.store_stats["hits"] == 2

    def test_partial_store_recomputes_only_missing_cells(self, tmp_path):
        """The interrupted-campaign shape: some cells landed, some did not."""
        spec = parse_spec(TINY_GRID)
        store = ResultStore(tmp_path)
        first = run_spec(spec, store=store)
        entries = list(store.entries())
        entries[0].path.unlink()  # one cell "did not land"

        second = run_spec(spec, store=ResultStore(tmp_path))
        assert second.store_stats["hits"] == len(entries) - 1
        assert second.store_stats["misses"] == 1
        assert _payload_bytes(second) == _payload_bytes(first)

    def test_undecodable_payload_is_discarded_and_recomputed(self, tmp_path):
        """Valid JSON, right key, wrong shape: decode fails → recompute,
        and the poisoned entry is evicted rather than re-hit forever."""
        spec = parse_spec(TINY_GRID)
        store = ResultStore(tmp_path)
        first = run_spec(spec, store=store)
        victim = next(iter(store.entries()))
        entry = json.loads(victim.path.read_text())
        entry["payload"] = {"bogus": True}
        victim.path.write_text(json.dumps(entry))

        second = run_spec(spec, store=ResultStore(tmp_path))
        assert second.store_stats["corrupt"] == 1
        assert second.store_stats["misses"] == 1
        assert _payload_bytes(second) == _payload_bytes(first)
        third = run_spec(spec, store=ResultStore(tmp_path))
        assert third.store_stats["hits"] == 2

    def test_unwritable_store_still_completes_the_campaign(self, tmp_path, capsys):
        spec = parse_spec(TINY_GRID)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        result = run_spec(spec, store=ResultStore(blocker / "store"))
        assert result.store_stats["write_errors"] == 2
        assert result.store_stats["misses"] == 2
        assert _payload_bytes(result) == _payload_bytes(run_spec(spec))

    def test_vesta_rng_none_is_never_cached(self, tmp_path):
        """rng=None means fresh entropy per run; memoizing it would freeze
        one run's random draw forever."""
        from repro.experiments.vesta import vesta_experiment

        store = ResultStore(tmp_path)
        vesta_experiment(
            scenarios=["512/256/256/32"], configurations=["IOR"],
            rng=None, store=store,
        )
        assert store.stats.writes == 0 and store.stats.lookups == 0


# ---------------------------------------------------------------------- #
TINY_FAULTED = {
    "experiment": {"name": "tiny-faulted", "kind": "grid", "seed": 5,
                   "max_time": 800.0},
    "platform": {
        "preset": "generic",
        "processors": 40,
        "node_bandwidth": 1.0e6,
        "system_bandwidth": 8.0e6,
    },
    "scenarios": [
        {
            "kind": "apps",
            "label": "duo",
            "apps": [
                {"name": "f0", "processors": 16, "work": 30.0,
                 "io_volume": 1.0e8, "instances": 2},
                {"name": "f1", "processors": 16, "work": 50.0,
                 "io_volume": 5.0e7, "instances": 2},
            ],
        }
    ],
    "faults": {
        "windows": [{"start": 40.0, "end": 120.0, "factor": 0.25}],
        "crashes": [{"app": "f1", "time": 60.0, "checkpoint_io": 5.0e7}],
    },
    "schedulers": {"names": ["FairShare", "MaxSysEff"]},
}


def _faulted_variant(**fault_updates):
    spec = json.loads(json.dumps(TINY_FAULTED))
    spec["faults"].update(fault_updates)
    return parse_spec(spec)


class TestFaultedCacheSemantics:
    """Satellite 4: fault parameters are first-class cache-key ingredients."""

    def test_faulted_rerun_is_all_hits_with_zero_simulation(
        self, tmp_path, monkeypatch
    ):
        spec = parse_spec(TINY_FAULTED)
        first = run_spec(spec, store=ResultStore(tmp_path))
        # 2 scenarios (healthy twin + faulted) x 2 schedulers.
        assert first.store_stats["misses"] == 4

        _forbid_simulation(monkeypatch)
        second = run_spec(spec, store=ResultStore(tmp_path))
        assert second.store_stats["hits"] == 4
        assert second.store_stats["misses"] == 0
        assert _payload_bytes(second) == _payload_bytes(first)

    @pytest.mark.parametrize(
        "variant",
        (
            {"windows": [{"start": 40.0, "end": 120.0, "factor": 0.3}]},
            {"windows": [{"start": 45.0, "end": 120.0, "factor": 0.25}]},
            {"crashes": [{"app": "f1", "time": 61.0, "checkpoint_io": 5.0e7}]},
            {"crashes": [{"app": "f1", "time": 60.0, "checkpoint_io": 6.0e7}]},
            {"crashes": [{"app": "f0", "time": 60.0, "checkpoint_io": 5.0e7}]},
        ),
        ids=("factor", "window-start", "crash-time", "checkpoint-io",
             "crash-app"),
    )
    def test_changing_any_fault_parameter_misses_faulted_cells_only(
        self, tmp_path, variant
    ):
        run_spec(parse_spec(TINY_FAULTED), store=ResultStore(tmp_path))
        second = run_spec(_faulted_variant(**variant),
                          store=ResultStore(tmp_path))
        # Healthy baseline cells are untouched by the fault edit and hit;
        # both faulted cells re-key and recompute.
        assert second.store_stats["hits"] == 2
        assert second.store_stats["misses"] == 2

    def test_changing_fault_seed_rekeys_stochastic_timelines(self, tmp_path):
        stochastic = {"seed": 1,
                      "random_windows": {"rate": 2e-3, "duration": 50.0,
                                         "factor": 0.5}}
        run_spec(_faulted_variant(**stochastic), store=ResultStore(tmp_path))
        second = run_spec(
            _faulted_variant(**dict(stochastic, seed=2)),
            store=ResultStore(tmp_path),
        )
        assert second.store_stats["hits"] == 2
        assert second.store_stats["misses"] == 2
