"""The persistent :class:`ExperimentExecutor` and its determinism contract.

Three concerns:

* **identity** — maps through an executor (serial, pooled, shared-payload,
  reused across calls) return element-for-element what the plain serial
  loop returns, and a pooled ``run_spec`` payload is byte-identical to the
  serial one (the ISSUE 4 acceptance criterion, same contract as
  ``tests/test_config_spec.py``);
* **reuse** — one pool serves many maps; it is spawned lazily and at most
  once, and serial executors never spawn at all;
* **ergonomics** — cache write-back lands per item in submission order,
  closed executors refuse work, and the cost-hint serial fallback is
  counted.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.analysis.throughput import throughput_decrease_study
from repro.config import load_spec, run_spec
from repro.core.application import Application
from repro.core.platform import Platform
from repro.core.scenario import Scenario
from repro.experiments.runner import (
    ExperimentExecutor,
    MapCache,
    SchedulerCase,
    map_parallel,
    run_grid,
)
from repro.obs.telemetry import recorder
from repro.utils.validation import ValidationError


def _square(x: int) -> int:
    return x * x


def _scale(shared: int, x: int) -> int:
    return shared * x


def _square_or_die(x: int) -> int:
    # Kills the *worker process* outright (no exception, no cleanup) — the
    # parent sees a BrokenProcessPool.  The serial retry runs in the main
    # process, where parent_process() is None, and succeeds.
    if x == 3 and multiprocessing.parent_process() is not None:
        os._exit(1)
    return x * x


def _scale_or_die(shared: int, x: int) -> int:
    if x == 3 and multiprocessing.parent_process() is not None:
        os._exit(1)
    return shared * x


class _RecordingCache(MapCache):
    """Every lookup misses; ``save`` records the write-back order."""

    def __init__(self) -> None:
        self.saved: list[tuple[int, int]] = []

    def lookup(self, item: object) -> None:
        return None

    def save(self, item: object, result: object) -> None:
        self.saved.append((item, result))


@pytest.fixture
def live_recorder():
    rec = recorder()
    rec.reset()
    rec.enable()
    yield rec
    rec.reset()


def _counter_value(rec, name: str) -> float:
    return sum(c.value for c in rec.registry.counters() if c.name == name)


def _grid_axes() -> tuple[list[Scenario], list[SchedulerCase]]:
    platform = Platform(
        name="executor-test",
        total_processors=100,
        node_bandwidth=1e6,
        system_bandwidth=1e7,
    )
    scenarios = []
    for i in range(3):
        apps = tuple(
            Application.periodic(
                name=f"app{i}{j}",
                processors=20 + 5 * j,
                work=40.0 + 10.0 * i,
                io_volume=3e8 + 1e8 * j,
                n_instances=2,
            )
            for j in range(3)
        )
        scenarios.append(
            Scenario(platform=platform, applications=apps, label=f"s{i}")
        )
    cases = [SchedulerCase(name=n) for n in ("FairShare", "MaxSysEff")]
    return scenarios, cases


class TestExecutorMap:
    def test_serial_inline_without_pool(self):
        with ExperimentExecutor(workers=None) as pool:
            assert pool.n_workers == 1
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert pool._pool is None  # never spawned

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parallel_matches_serial(self, workers):
        items = list(range(17))
        with ExperimentExecutor(workers=workers) as pool:
            assert pool.map(_square, items) == [x * x for x in items]

    def test_shared_payload_serial_and_parallel(self):
        items = list(range(11))
        expected = [3 * x for x in items]
        with ExperimentExecutor(workers=None) as pool:
            assert pool.map(_scale, items, shared=3) == expected
        with ExperimentExecutor(workers=2) as pool:
            assert pool.map(_scale, items, shared=3) == expected

    def test_pool_reused_across_maps(self):
        with ExperimentExecutor(workers=2) as pool:
            assert pool._pool is None
            pool.map(_square, [1, 2, 3, 4])
            first = pool._pool
            assert first is not None
            pool.map(_scale, [5, 6, 7], shared=2)
            assert pool._pool is first

    def test_cache_write_back_in_submission_order(self):
        cache = _RecordingCache()
        with ExperimentExecutor(workers=2) as pool:
            out = pool.map(_square, [3, 1, 4, 1, 5], cache=cache)
        assert out == [9, 1, 16, 1, 25]
        assert cache.saved == [(3, 9), (1, 1), (4, 16), (1, 1), (5, 25)]

    def test_closed_executor_refuses_work(self):
        pool = ExperimentExecutor(workers=2)
        pool.close()
        with pytest.raises(ValidationError, match="closed"):
            pool.map(_square, [1])

    def test_map_parallel_with_executor_ignores_workers(self):
        with ExperimentExecutor(workers=None) as pool:
            out = map_parallel(_square, [2, 3], workers=4, executor=pool)
        assert out == [4, 9]


class TestWorkerDeath:
    """Satellite 1: a dying worker must not kill the campaign."""

    def test_map_survives_worker_death(self):
        items = list(range(8))
        with ExperimentExecutor(workers=2) as pool:
            out = pool.map(_square_or_die, items)
            # The broken pool was discarded; the results are still complete
            # and in submission order.
            assert out == [x * x for x in items]
            assert pool.stats.worker_deaths >= 1

    def test_poisoned_cell_mid_chunk_is_isolated(self):
        # Regression for the per-cell recovery: item 3 reliably kills any
        # worker process that hosts it, poisoning whatever chunk it rides
        # in.  Recovery must (a) retry the chunk's innocent cells on a
        # fresh pool instead of rerunning the whole chunk serially, (b)
        # run only the poisoned cell inline, and (c) leave a usable pool
        # behind for the cells queued after the poison.  20 items across 2
        # workers yields 8 chunks of 2-3 cells, so the poison has innocent
        # chunk-mates (8 items would chunk 1:1 and sidestep the scenario).
        items = list(range(20))
        with ExperimentExecutor(workers=2) as pool:
            out = pool.map(_square_or_die, items)
            assert out == [x * x for x in items]
            stats = pool.stats
            # The original death, plus the poisoned cell's own retry death.
            assert stats.worker_deaths >= 2
            # Innocent chunk-mates were resubmitted as single cells.
            assert stats.cell_retries >= 1
            # Exactly the poisoned cell fell back to inline execution.
            assert stats.inline_recoveries == 1
            assert stats.as_dict() == {
                "worker_deaths": stats.worker_deaths,
                "cell_retries": stats.cell_retries,
                "inline_recoveries": stats.inline_recoveries,
            }
            # Later maps reuse a healthy pool as if nothing happened.
            assert pool.map(_square, [9, 10]) == [81, 100]

    def test_map_survives_worker_death_with_shared_payload(self):
        items = list(range(8))
        with ExperimentExecutor(workers=2) as pool:
            out = pool.map(_scale_or_die, items, shared=10)
        assert out == [10 * x for x in items]

    def test_cache_write_back_covers_retried_chunks(self):
        cache = _RecordingCache()
        items = list(range(8))
        with ExperimentExecutor(workers=2) as pool:
            pool.map(_square_or_die, items, cache=cache)
        assert [item for item, _ in cache.saved] == items

    def test_executor_remains_usable_after_pool_death(self):
        with ExperimentExecutor(workers=2) as pool:
            assert pool.map(_square_or_die, [1, 2, 3, 4]) == [1, 4, 9, 16]
            # A later map on the same executor lazily re-spawns a pool.
            assert pool.map(_square, [5, 6]) == [25, 36]

    def test_ordinary_exceptions_still_propagate(self):
        # Only pool death is absorbed — a plain bug in fn must surface.
        with ExperimentExecutor(workers=2) as pool:
            with pytest.raises(Exception, match="(?i)unsupported|str"):
                pool.map(_square, ["not-a-number", 2, 3, 4])


class TestSerialFallback:
    """Satellite 2: tiny maps skip the pool when the cost hint says so."""

    def test_cheap_map_never_spawns_a_pool(self, live_recorder):
        with ExperimentExecutor(workers=4) as pool:
            out = pool.map(_square, [1, 2, 3], cost_hint=1e-6)
            assert out == [1, 4, 9]
            assert pool._pool is None
        fallbacks = "repro_executor_serial_fallback_total"
        assert _counter_value(live_recorder, fallbacks) == 1.0

    def test_expensive_map_still_uses_the_pool(self, live_recorder):
        with ExperimentExecutor(workers=2) as pool:
            out = pool.map(_square, [1, 2, 3], cost_hint=1.0)
            assert out == [1, 4, 9]
            assert pool._pool is not None
        fallbacks = "repro_executor_serial_fallback_total"
        assert _counter_value(live_recorder, fallbacks) == 0.0

    def test_serial_executor_is_not_a_fallback(self, live_recorder):
        # One worker runs inline by configuration, not by the cost hint.
        with ExperimentExecutor(workers=1) as pool:
            assert pool.map(_square, [1, 2, 3], cost_hint=1e-6) == [1, 4, 9]
        fallbacks = "repro_executor_serial_fallback_total"
        assert _counter_value(live_recorder, fallbacks) == 0.0

    def test_no_hint_preserves_old_behaviour(self):
        with ExperimentExecutor(workers=2) as pool:
            pool.map(_square, [1, 2])
            assert pool._pool is not None

    def test_grid_cost_hint_scales_with_scenario_size(self):
        from repro.experiments.runner import _grid_cost_hint

        scenarios, _cases = _grid_axes()
        small = _grid_cost_hint(scenarios)
        assert small > 0.0
        # The bundled BENCH grid regression shape: scale-1 scenarios must
        # fall under the fallback threshold at any worker count.
        from repro.experiments.runner import _SERIAL_FALLBACK_SECONDS

        assert small * len(scenarios) * 2 < _SERIAL_FALLBACK_SECONDS


class TestGridThroughExecutor:
    def test_run_grid_identical_serial_vs_pooled_executor(self):
        scenarios, cases = _grid_axes()
        serial = run_grid(scenarios, cases)
        with ExperimentExecutor(workers=2) as pool:
            pooled = run_grid(scenarios, cases, executor=pool)
            again = run_grid(scenarios, cases, executor=pool)  # pool reuse
        assert pooled.cases == serial.cases
        assert again.cases == serial.cases

    def test_throughput_study_identical_serial_vs_pooled(self):
        kwargs = dict(applications_per_batch=4, release_spread=0.2, rng=7)
        serial = throughput_decrease_study(8, **kwargs)
        with ExperimentExecutor(workers=2) as pool:
            pooled = throughput_decrease_study(8, executor=pool, **kwargs)
        assert pooled == serial


class TestSpecRunsByteIdentical:
    """Pooled end-to-end spec runs == serial ones, byte for byte."""

    @pytest.mark.parametrize(
        "spec_path",
        [
            "examples/specs/analysis_figures.toml",
            "examples/specs/periodic.toml",
        ],
    )
    def test_bundled_spec_pooled_identical(self, spec_path):
        spec = load_spec(spec_path)
        serial = run_spec(spec)
        pooled = run_spec(spec.with_overrides(workers=2))
        assert json.dumps(pooled.payload, sort_keys=True) == json.dumps(
            serial.payload, sort_keys=True
        )
        assert pooled.records == serial.records
        assert pooled.text == serial.text
