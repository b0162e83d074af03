#!/usr/bin/env python3
"""Benchmark of the ``repro`` simulator, end to end and per layer.

    python3 perfbench/run.py --workload fig6-wide --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (and writes its Chrome trace under
``.perfbench_work/traces/``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every output check passed.
README.md in this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import metrics as declared
import workloads
from layers import Tracer, cell_percentiles_ms, cycle_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: After each cold pass, warm passes on its store are timed as one batch of
#: at least this many passes and this many seconds, so that a fast warm pass
#: is not timed below the calibration kernel's resolution.
MIN_WARM = 3
WARM_BATCH_S = 0.3
#: Every run times at least this many cold passes, however long they take.
MIN_COLD = 3
#: Fresh interpreters behind one ``setup_s`` median.
SETUP_INTERPRETERS = 7
#: Cells re-simulated with the reference engine in a traced run.
REFERENCE_SAMPLE = 8


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass
class Pass:
    seconds: float
    payload: bytes
    store: Path
    campaign: object = None


class Bench:
    """One workload's spec, its private stores, and the output checks.

    Stores and payload files stay until the run ends, so no deletion's
    file-system work lands inside a later timed pass.
    """

    def __init__(self, workload: str, seed: int, work: Path):
        from repro.config import parse_spec

        self.workload = workload
        self.seed = seed
        self.work = work
        self.data = workloads.spec_data(workload, seed)
        self.spec = parse_spec(self.data)
        self.is_campaign = workload in workloads.CAMPAIGN_WORKLOADS
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self.reference: bytes | None = None
        self._n = 0

    def _fresh(self, stem: str) -> Path:
        self._n += 1
        return self.work / f"{stem}-{self._n}"

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        if len(self.violations) < 20:
            self.violations.append(message)
        log(f"FAILED: {message}")

    def _run(self, store_dir: Path, tracer: Tracer | None):
        from repro.config import run_spec, write_result
        from repro.store import ResultStore

        store = ResultStore(store_dir)
        out = self._fresh("payload").with_suffix(".json")
        result = run_spec(self.spec, store=store)
        if tracer is None:
            write_result(result, path=str(out))
        else:
            with tracer.span("report.write"):
                write_result(result, path=str(out))
        return result, out

    def cold(self, tracer: Tracer | None = None) -> Pass:
        from repro.campaign import CampaignConfig, run_campaign
        from repro.store import ResultStore

        store_dir = self._fresh("store")
        gc.collect()
        campaign = None
        start = time.perf_counter()
        if self.is_campaign:
            config = CampaignConfig(workers=workloads.CAMPAIGN_WORKERS)
            camp_dir = self._fresh("campaign")
            if tracer is None:
                campaign = run_campaign(self.spec, camp_dir, store=ResultStore(store_dir), config=config)
            else:
                with tracer.span("campaign.run"):
                    campaign = run_campaign(self.spec, camp_dir, store=ResultStore(store_dir), config=config)
        result, out = self._run(store_dir, tracer)
        seconds = time.perf_counter() - start
        payload = out.read_bytes()
        stats = result.store_stats
        ops = stats["hits"] + stats["misses"]
        if campaign is not None:
            ops = campaign.n_cells
            bad = len(campaign.quarantined) + campaign.landed_from_store + stats["misses"]
            if bad:
                self.fail(bad, f"campaign: {len(campaign.quarantined)} quarantined, "
                               f"{campaign.landed_from_store} served from a cold store, "
                               f"{stats['misses']} cells missing after it")
        elif stats["hits"]:
            self.fail(stats["hits"], f"cold pass hit the store {stats['hits']} time(s)")
        self.attempted += ops
        self._check_payload(payload, ops, "cold")
        return Pass(seconds, payload, store_dir, campaign)

    def warm(self, cold: Pass, tracer: Tracer | None = None) -> float:
        gc.collect()
        start = time.perf_counter()
        result, out = self._run(cold.store, tracer)
        seconds = time.perf_counter() - start
        stats = result.store_stats
        ops = stats["hits"] + stats["misses"]
        self.attempted += ops
        if stats["misses"]:
            self.fail(stats["misses"], f"warm pass missed the store {stats['misses']} time(s)")
        payload = out.read_bytes()
        if payload != cold.payload:
            self.fail(ops, "warm payload differs from its cold payload")
        return seconds

    def _check_payload(self, payload: bytes, ops: int, what: str) -> None:
        if self.reference is None:
            self.reference = payload
            pinned = workloads.PINNED_SHA256.get(self.workload)
            if self.seed == workloads.DEFAULT_SEED and pinned is not None:
                digest = hashlib.sha256(payload).hexdigest()
                if digest != pinned:
                    self.fail(ops, f"payload sha256 {digest} differs from the pinned {pinned}")
        elif payload != self.reference:
            self.fail(ops, f"{what} payload differs from the reference payload")

    def serial_reference(self) -> None:
        """The campaign payload must equal a plain serial run of its spec."""
        from repro.config import run_spec, write_result

        out = self._fresh("payload").with_suffix(".json")
        write_result(run_spec(self.spec), path=str(out))
        self._check_payload(out.read_bytes(), 0, "serial")

    def corrupt_one_entry(self, store_dir: Path) -> None:
        """Truncate one stored entry (the failure-path self-test)."""
        entry = sorted(store_dir.rglob("*.json"))[0]
        entry.write_text(entry.read_text(encoding="utf-8")[:40], encoding="utf-8")
        log(f"corrupted store entry {entry.name}")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def measure_setup(bench: Bench) -> tuple[float, float]:
    """Medians of fresh-interpreter set-up (host-speed scaled) and import times."""
    spec_file = bench.work / "spec.json"
    spec_file.write_text(json.dumps(bench.data), encoding="utf-8")
    totals, imports = [], []
    speed = hostspeed.kernel_s()
    for _ in range(SETUP_INTERPRETERS):
        before = speed
        launched = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(spec_file), str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        line = json.loads(done.stdout.strip().splitlines()[-1])
        speed = hostspeed.kernel_s()
        totals.append(hostspeed.scaled(line["end"] - launched, before, speed))
        imports.append(line["import_s"])
    return statistics.median(totals), statistics.median(imports)


def timed_cycles(seconds: float):
    """Yield cycle numbers until ``seconds`` run out (at least MIN_COLD).

    A cycle starts only while at least half of the previous cycle's
    duration is left, so runs end close to the deadline on average.
    """
    deadline = time.perf_counter() + seconds
    last = 0.0
    n = 0
    while n < MIN_COLD or time.perf_counter() + last / 2 < deadline:
        started = time.perf_counter()
        yield n
        last = time.perf_counter() - started
        n += 1


def run_untraced(bench: Bench, seconds: float, corrupt: bool) -> dict:
    if bench.is_campaign:
        bench.serial_reference()
    cold_s, warm_s, raw_cold, raw_warm = [], [], [], []
    speed = hostspeed.kernel_s()
    for _ in timed_cycles(seconds):
        before = speed
        p = bench.cold()
        speed = hostspeed.kernel_s()
        raw_cold.append(p.seconds)
        cold_s.append(hostspeed.scaled(p.seconds, before, speed))
        if corrupt and len(cold_s) == 1:
            bench.corrupt_one_entry(p.store)
        before = speed
        batch = []
        while len(batch) < MIN_WARM or sum(batch) < WARM_BATCH_S:
            batch.append(bench.warm(p))
        speed = hostspeed.kernel_s()
        raw_warm.append(statistics.fmean(batch))
        warm_s.append(hostspeed.scaled(raw_warm[-1], before, speed))
    rss = peak_rss_mb()
    setup_s, _ = measure_setup(bench)
    log(f"{len(cold_s)} cold passes and {len(warm_s)} warm batches; unscaled medians "
        f"cold {statistics.median(raw_cold):.4g} s, warm {statistics.median(raw_warm):.4g} s")
    return {
        "cold_s": statistics.median(cold_s),
        "warm_s": statistics.median(warm_s),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }


def run_traced(bench: Bench, seconds: float, trace_path: Path) -> dict:
    from repro.config import parse_spec
    from repro.obs.schema import validate_trace_file
    from repro.obs.telemetry import recorder
    from repro.obs.trace import trace_events

    tracer = Tracer()
    # The warm-up runs traced so the reference check below has in-process
    # cells to sample even when the workload's cells run in workers.
    with tracer.installed():
        if bench.is_campaign:
            bench.serial_reference()
        first = bench.cold(tracer)
        bench.warm(first, tracer)
    tracer.spans.clear()
    cells, tracer.cells = tracer.cells, []

    plain, traced_cold, traced_warm, with_obs = [], [], [], []
    cycles, parse_s, campaigns = [], [], []
    for _ in timed_cycles(seconds):
        p = bench.cold()
        plain.append(p.seconds)

        begin = len(tracer.spans)
        with tracer.installed():
            with tracer.span("config.parse") as span:
                parse_spec(bench.data)
            parse_s.append(span.end - span.start)
            cold_start = time.perf_counter()
            p = bench.cold(tracer)
            cold_end = time.perf_counter()
            traced_warm.append(bench.warm(p, tracer))
        traced_cold.append(p.seconds)
        spans = tracer.spans[begin:]
        cycles.append(cycle_metrics(spans, (cold_start, cold_end)))
        if p.campaign is not None:
            campaigns.append(p.campaign)

        obs = recorder()
        obs.enable()
        try:
            p = bench.cold()
        finally:
            obs.reset()
        with_obs.append(p.seconds)

    _check_reference(bench, cells)
    _, import_s = measure_setup(bench)

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "traceEvents": trace_events(tracer.chrome_events(), process_name=f"perfbench {bench.workload}"),
        "displayTimeUnit": "ms",
        "otherData": {"workload": bench.workload, "seed": bench.seed},
    }
    trace_path.write_text(json.dumps(document, sort_keys=True) + "\n", encoding="utf-8")
    for error in validate_trace_file(trace_path):
        bench.violations.append(f"trace file: {error}")
    log(f"{len(cycles)} traced cycles; trace written to {trace_path}")

    values = {name: statistics.median(c[name] for c in cycles) for name in cycles[0]}
    p50, p90, n_cells = cell_percentiles_ms(tracer.spans)
    untraced = statistics.median(plain)
    values.update({
        "config.parse_s": statistics.median(parse_s),
        "experiments.cell_p50_ms": p50,
        "experiments.cell_p90_ms": p90,
        "experiments.cell_samples": n_cells,
        "campaign.cells_computed": statistics.median(c.landed_computed for c in campaigns) if campaigns else 0,
        "campaign.retries": statistics.median(c.retries for c in campaigns) if campaigns else 0,
        "report.payload_bytes": len(bench.reference or b""),
        "setup.import_s": import_s,
        "trace.cold_s": statistics.median(traced_cold),
        "trace.warm_s": statistics.median(traced_warm),
        "trace.overhead_ratio": statistics.median(traced_cold) / untraced,
        "obs.overhead_ratio": statistics.median(with_obs) / untraced,
    })
    return values


def _check_reference(bench: Bench, cells: list) -> None:
    """Re-simulate a seeded sample of cells with the reference engine."""
    from repro.online.registry import make_scheduler
    from repro.simulator import SimulatorConfig, reference_simulate

    plain = [c for c in cells if not c.case.use_burst_buffer]
    if bench.workload in workloads.CELL_WORKLOADS and len(plain) < REFERENCE_SAMPLE:
        bench.fail(1, f"only {len(plain)} cells captured for the reference re-check "
                      f"(need {REFERENCE_SAMPLE})")
    sample = random.Random(bench.seed).sample(plain, min(REFERENCE_SAMPLE, len(plain)))
    for cell in sample:
        bench.attempted += 1
        ref = reference_simulate(
            cell.scenario, make_scheduler(cell.case.name), SimulatorConfig(max_time=cell.max_time)
        )
        if (ref.makespan, ref.n_events) != (cell.result.makespan, cell.result.n_events):
            bench.fail(1, f"reference engine disagrees on {cell.scenario.label} x {cell.case.display}: "
                          f"{(ref.makespan, ref.n_events)} != {(cell.result.makespan, cell.result.n_events)}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-store", action="store_true",
                        help="truncate one stored entry after the first timed cold pass "
                             "(self-test: the run must then report failures)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: the repro sources are not at {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Belt and braces: anything that falls back to the default store lands
    # in the private work directory, never in ~/.cache/repro.
    os.environ["REPRO_STORE"] = str(work / "default-store")
    table = declared.PER_LAYER if args.trace else declared.END_TO_END
    try:
        bench = Bench(args.workload, args.seed, work)
        try:
            if args.trace:
                trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
                values = run_traced(bench, args.seconds, trace_path)
            else:
                values = run_untraced(bench, args.seconds, args.corrupt_store)
        except Exception as exc:  # an exception is a failed operation, not a crash
            traceback.print_exc()
            bench.fail(1, f"{type(exc).__name__}: {exc}")
            bench.attempted = max(bench.attempted, 1)
            values = {}
        if not args.trace:
            values["ok_frac"] = 1.0 - bench.failed / bench.attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)

    emitted = declared.emit(values, table)
    errors = declared.validate(emitted, table)
    bench.violations.extend(f"metric {e}" for e in errors)
    correct = bench.failed == 0 and not bench.violations
    for metric in table:
        if metric.name in emitted:
            print(f"{metric.name:28s} {emitted[metric.name]['value']:>16.6g} {metric.unit}")
    for violation in bench.violations:
        print(f"violation: {violation}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": emitted,
    }, sort_keys=False))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
