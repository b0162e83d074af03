"""End-to-end experiment-throughput benchmark: the ``BENCH_grid.json`` payload.

``BENCH_engine.json`` tracks the *simulator* hot path (events/sec of one
run); this module tracks the *experiment* hot path — what a whole
``repro run`` costs.  ``benchmarks/run_bench.py`` drives it.  Two
measurements:

* **spec throughput** — each bench spec (``examples/specs/analysis_figures.toml``
  and ``examples/specs/periodic.toml``) is executed end to end twice:
  serially (``workers=1``) and pooled (``workers=0`` — one persistent
  :class:`~repro.experiments.runner.ExperimentExecutor` per run, one worker
  per CPU).  The payload records wall-clock seconds, cells/sec and the
  per-stage (``build``/``run``/``report``) wall-time breakdown — read from
  the telemetry spans of :mod:`repro.obs` — for both modes, the speedup,
  and an ``identical`` flag asserting the pooled payload is byte-for-byte
  the serial one (same contract as ``tests/test_experiment_executor.py``;
  a false flag fails the benchmark).
* **campaign throughput** — the bundled checkpoint-storm grid is run
  serially and as a sharded campaign (:mod:`repro.campaign`), with an
  ``identical`` flag comparing every merged cell payload to the serial one.

``--scale N`` deepens the spec runs (more Figure 1 applications, more
Figure 7 repetitions, a ``1/N`` finer period-sweep step) without touching
the bundled spec files.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform as _platform
import time
from pathlib import Path
from typing import Callable, Mapping

from repro.config.loader import load_spec
from repro.config.run import run_spec
from repro.config.spec import ExperimentSpec
from repro.experiments.runner import resolve_workers
from repro.obs.telemetry import recorder as _obs_recorder
from repro.utils.validation import ValidationError, check_positive

#: Process-wide telemetry funnel; its spans give the per-stage breakdown.
_OBS = _obs_recorder()

#: The checkout whose ``examples/specs`` the spec stems resolve against.
_SPECS_DIR = Path(__file__).resolve().parents[1] / "examples" / "specs"

#: The bundled specs the end-to-end benchmark replays: the analysis suite
#: (Figures 1/5/7) and the periodic study.
DEFAULT_BENCH_SPECS: tuple[str, ...] = ("analysis_figures", "periodic")

#: The bundled grid spec the sharded-campaign benchmark shards (a 6-cell
#: checkpoint storm — small enough that coordination overhead is visible,
#: which is exactly what the row is meant to track).
DEFAULT_CAMPAIGN_SPEC = "checkpoint_storm"


def _deepen_analysis(body, scale: int):
    # More Figure 1 applications and more Figure 7 repetitions.
    f1, f7 = body.figure1, body.figure7
    return dataclasses.replace(
        body,
        figure1=dataclasses.replace(f1, n_applications=f1.n_applications * scale),
        figure7=dataclasses.replace(f7, n_repetitions=f7.n_repetitions * scale),
    )


def _analysis_cells(body, payload: Mapping) -> int:
    # Figure 1 batches, one characterization, Figure 7 simulations.
    from repro.analysis.throughput import figure1_batch_count

    figures = payload.get("figures", {})
    f1, f7 = body.figure1, body.figure7
    cells = 0
    if "figure1" in figures:
        cells += figure1_batch_count(f1.n_applications, f1.applications_per_batch)
    if "figure5" in figures:
        cells += 1
    if "figure7" in figures:
        cells += len(f7.sensibilities) * f7.n_repetitions * len(f7.schedulers)
    return cells


def _periodic_cells(body, payload: Mapping) -> int:
    # One schedule evaluation per sweep point, one simulation per online case.
    sweeps = [entry.get("sweep", ()) for entry in payload.get("periodic", {}).values()]
    return sum(map(len, sweeps)) + len(payload.get("online", {}))


#: Per bench kind: ``deepen(body, scale)`` — a ``scale``-times deeper body —
#: and ``cells(body, payload)`` — the independent work units a run's
#: payload represents.
_KIND_RULES: dict[str, tuple[Callable, Callable[..., int]]] = {
    "analysis": (_deepen_analysis, _analysis_cells),
    # A finer sweep: more greedy builds.
    "periodic": (
        lambda body, scale: dataclasses.replace(body, epsilon=body.epsilon / scale),
        _periodic_cells,
    ),
}


def _kind_rules(kind: str) -> tuple[Callable, Callable[..., int]]:
    try:
        return _KIND_RULES[kind]
    except KeyError:
        raise ValidationError(
            f"the spec benchmark runs kinds {sorted(_KIND_RULES)}, not {kind!r}"
        ) from None


def bench_spec_path(name: str) -> Path:
    """Path of the bundled spec ``name`` in this checkout's ``examples/specs``."""
    return _SPECS_DIR / f"{name}.toml"


def scaled_spec(spec: ExperimentSpec, scale: int) -> ExperimentSpec:
    """A deepened copy of a bench spec (``scale=1`` returns it unchanged).

    Scaling stays inside the spec dataclasses, so the bundled files remain
    the source of truth.  Only the bench kinds (``analysis``, ``periodic``)
    are accepted.
    """
    check_positive("scale", scale)
    deepen, _ = _kind_rules(spec.kind)
    if scale == 1:
        return spec
    return dataclasses.replace(spec, body=deepen(spec.body, scale))


def _stage_seconds() -> dict[str, float]:
    """Wall time per pipeline stage, read from the recorder's spans."""
    seconds: dict[str, float] = {}
    for record in _OBS.span_snapshot():
        if record.category == "stage":
            seconds[record.name] = (
                seconds.get(record.name, 0.0) + record.dur_us / 1e6
            )
    return seconds


def _timed_run(spec: ExperimentSpec) -> tuple[float, dict, dict[str, float]]:
    """Run a spec with the telemetry spans on; return seconds/payload/stages.

    The recorder is an observer by contract (``tests/test_obs_isolation.py``),
    so the stage breakdown rides along for free without perturbing the
    ``identical`` byte-comparisons below.
    """
    _OBS.reset()
    _OBS.enable()
    try:
        start = time.perf_counter()
        result = run_spec(spec)
        elapsed = time.perf_counter() - start
        stages = _stage_seconds()
    finally:
        _OBS.reset()
    return elapsed, result.payload, stages


def measure_spec_run(
    name: str, *, scale: int = 1, workers: int = 0
) -> dict:
    """Serial-vs-pooled end-to-end timing of one bench spec.

    Returns a JSON-ready mapping with per-mode ``seconds`` / ``cells_per_sec``,
    the ``speedup`` ratio, the resolved pooled worker count, and the
    ``identical`` flag (byte-compared payloads).  Output tables are dropped
    from both runs (the benchmark measures computation, not I/O paths).
    """
    spec = load_spec(bench_spec_path(name))
    spec = dataclasses.replace(scaled_spec(spec, scale), output=None)
    serial_spec = spec.with_overrides(workers=1)
    pooled_spec = spec.with_overrides(workers=workers)

    serial_seconds, serial_payload, serial_stages = _timed_run(serial_spec)
    pooled_seconds, pooled_payload, pooled_stages = _timed_run(pooled_spec)
    _, cells = _kind_rules(spec.kind)
    n_cells = cells(spec.body, serial_payload)
    identical = json.dumps(serial_payload, sort_keys=True) == json.dumps(
        pooled_payload, sort_keys=True
    )
    return {
        "spec": name,
        "kind": spec.kind,
        "scale": scale,
        "n_cells": n_cells,
        "serial": {
            "seconds": serial_seconds,
            "cells_per_sec": n_cells / serial_seconds if serial_seconds > 0 else float("inf"),
            "stage_seconds": serial_stages,
        },
        "pooled": {
            "workers": resolve_workers(pooled_spec.workers),
            "seconds": pooled_seconds,
            "cells_per_sec": n_cells / pooled_seconds if pooled_seconds > 0 else float("inf"),
            "stage_seconds": pooled_stages,
        },
        "speedup": serial_seconds / pooled_seconds if pooled_seconds > 0 else float("inf"),
        "identical": identical,
    }


def measure_campaign_run(
    name: str = DEFAULT_CAMPAIGN_SPEC, *, workers: int = 2
) -> dict:
    """Sharded-campaign vs serial cells/sec for one bundled grid spec.

    Runs the spec twice: serially through :func:`run_spec` into a fresh
    store, and as a fault-tolerant campaign (:mod:`repro.campaign`) with
    per-worker stores that are then unioned by
    :func:`repro.store.merge.merge_stores` — the full multi-host path of
    ``docs/distributed.md``.  The ``identical`` flag asserts every merged
    cell payload is byte-for-byte the serial store's payload; a false flag
    is a determinism regression and fails the benchmark, exactly like the
    pooled-vs-serial flags.
    """
    import tempfile

    from repro.campaign import CampaignConfig, plan_campaign, run_campaign
    from repro.store import ResultStore, merge_stores

    spec = dataclasses.replace(load_spec(bench_spec_path(name)), output=None)
    plan = plan_campaign(spec)
    with tempfile.TemporaryDirectory(prefix="repro-bench-campaign-") as tmp:
        tmp_path = Path(tmp)
        serial_store = ResultStore(tmp_path / "serial-store")
        start = time.perf_counter()
        run_spec(spec.with_overrides(workers=1), store=serial_store)
        serial_seconds = time.perf_counter() - start

        merged_store = ResultStore(tmp_path / "campaign-store")
        config = CampaignConfig(
            workers=workers,
            worker_stores=True,
            heartbeat_seconds=0.1,
            poll_seconds=0.02,
        )
        start = time.perf_counter()
        result = run_campaign(
            spec, tmp_path / "campaign", store=merged_store, config=config
        )
        stores_dir = tmp_path / "campaign" / "stores"
        sources = sorted(stores_dir.iterdir()) if stores_dir.is_dir() else []
        merge_stores(sources, merged_store)
        sharded_seconds = time.perf_counter() - start

        identical = result.ok
        for cell in plan.cells:
            merged = merged_store.get(cell.key)
            serial = serial_store.get(cell.key)
            if (
                merged is None
                or serial is None
                or json.dumps(merged, sort_keys=True, allow_nan=True)
                != json.dumps(serial, sort_keys=True, allow_nan=True)
            ):
                identical = False
    n_cells = len(plan.cells)
    return {
        "spec": name,
        "n_cells": n_cells,
        "serial": {
            "seconds": serial_seconds,
            "cells_per_sec": n_cells / serial_seconds if serial_seconds > 0 else float("inf"),
        },
        "sharded": {
            "workers": workers,
            "seconds": sharded_seconds,
            "cells_per_sec": n_cells / sharded_seconds if sharded_seconds > 0 else float("inf"),
        },
        "speedup": serial_seconds / sharded_seconds if sharded_seconds > 0 else float("inf"),
        "identical": identical,
    }


def run_grid_bench(*, scale: int = 1, workers: int = 0) -> dict:
    """Measure every bench spec plus the campaign, printing one line per
    measurement, and assemble the ``BENCH_grid.json`` payload.

    Any entry whose ``identical`` flag is false marks a determinism
    regression (see :func:`grid_bench_broken`).
    """
    check_positive("scale", scale)
    spec_entries = []
    for name in DEFAULT_BENCH_SPECS:
        entry = measure_spec_run(name, scale=scale, workers=workers)
        spec_entries.append(entry)
        print(
            f"{entry['spec']:<18} serial {entry['serial']['seconds']:6.2f}s, "
            f"pooled {entry['pooled']['seconds']:6.2f}s "
            f"({entry['pooled']['workers']} worker(s), "
            f"speedup {entry['speedup']:.2f}x, "
            f"identical={entry['identical']})",
            flush=True,
        )
    campaign = measure_campaign_run()
    print(
        f"campaign {campaign['spec']:<18} "
        f"serial {campaign['serial']['cells_per_sec']:7.1f} cells/s, "
        f"sharded {campaign['sharded']['cells_per_sec']:7.1f} cells/s "
        f"({campaign['sharded']['workers']} worker(s), "
        f"identical={campaign['identical']})",
        flush=True,
    )
    return {
        "benchmark": "experiment_grid",
        "scale": scale,
        "workers_requested": workers,
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "cpu_count": os.cpu_count(),
        "specs": spec_entries,
        "campaign": campaign,
    }


def grid_bench_broken(payload: Mapping) -> list[str]:
    """Names of entries whose ``identical`` flag is false (regressions)."""
    broken = [
        entry["spec"]
        for entry in payload.get("specs", ())
        if not entry.get("identical", True)
    ]
    campaign = payload.get("campaign", {})
    if campaign and not campaign.get("identical", True):
        broken.append(f"campaign:{campaign.get('spec', 'unknown')}")
    return broken
