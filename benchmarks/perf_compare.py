#!/usr/bin/env python
"""Compare two ``BENCH_engine.json`` payloads with a noise band.

The bench-smoke CI job snapshots the *committed* ``BENCH_engine.json``
(the baseline this repository ships), reruns the suite on the runner, and
feeds both payloads here.  The gate fails (exit 1) when:

* any cell of the current payload reports ``identical: false`` — an engine
  stopped reproducing the reference timeline, which is a correctness
  regression no perf number can excuse; or
* a cell's events/sec **speedup ratio** regressed more than the noise band
  (default 20%) below the baseline's.

Ratios, not raw events/sec: the committed baseline and the CI runner are
different machines, so absolute throughput is not comparable across them —
but the engine-vs-reference ratio is measured within a single run on one
machine and transfers cleanly.  Pass ``--raw`` to gate on
absolute events/sec instead when both payloads come from the same machine
(e.g. a local before/after check).

Stdlib only on purpose: the bench-smoke job installs nothing beyond numpy,
and this script must keep working even when the simulator itself cannot
import.

Usage::

    python benchmarks/perf_compare.py BASELINE CURRENT [--band 0.20] [--raw]
"""

from __future__ import annotations

import argparse
import json
import sys

#: (payload key, human label) of every ratio the gate watches.  Keys missing
#: from the *baseline* are skipped (a baseline may predate a metric); keys
#: missing from the *current* payload fail loudly.  ``batched`` is the
#: payload's historical name for the columnar engine.
RATIO_METRICS = (
    ("batched_speedup", "engine vs reference"),
)

#: Engine sub-payloads gated under ``--raw`` (same-machine comparisons).
RAW_ENGINES = ("batched", "reference")


def load_cells(path: str) -> dict[tuple[int, int], dict]:
    with open(path) as handle:
        payload = json.load(handle)
    cells = payload.get("cells")
    if not isinstance(cells, list) or not cells:
        raise SystemExit(f"{path}: no benchmark cells found")
    return {(c["n_apps"], c["n_instances"]): c for c in cells}


def check_identical(cells: dict[tuple[int, int], dict]) -> list[str]:
    return [
        f"{n_apps}x{n_instances}: identical=false — the engine diverged "
        "from the reference timeline"
        for (n_apps, n_instances), cell in sorted(cells.items())
        if not cell.get("identical", False)
    ]


def check_ratios(
    baseline: dict[tuple[int, int], dict],
    current: dict[tuple[int, int], dict],
    band: float,
) -> list[str]:
    failures = []
    for key, cell in sorted(current.items()):
        base_cell = baseline.get(key)
        if base_cell is None:
            continue  # a new grid cell has no baseline yet
        for metric, label in RATIO_METRICS:
            if metric not in base_cell:
                continue  # baseline predates this metric
            if metric not in cell:
                failures.append(
                    f"{key[0]}x{key[1]}: current payload lost the "
                    f"{metric!r} metric"
                )
                continue
            base, now = float(base_cell[metric]), float(cell[metric])
            floor = base * (1.0 - band)
            if now < floor:
                failures.append(
                    f"{key[0]}x{key[1]}: {label} speedup regressed "
                    f"{base:.2f}x -> {now:.2f}x "
                    f"(> {band:.0%} below baseline)"
                )
    return failures


def check_raw(
    baseline: dict[tuple[int, int], dict],
    current: dict[tuple[int, int], dict],
    band: float,
) -> list[str]:
    failures = []
    for key, cell in sorted(current.items()):
        base_cell = baseline.get(key)
        if base_cell is None:
            continue
        for engine in RAW_ENGINES:
            if engine not in base_cell or engine not in cell:
                continue
            base = float(base_cell[engine]["events_per_sec"])
            now = float(cell[engine]["events_per_sec"])
            if now < base * (1.0 - band):
                failures.append(
                    f"{key[0]}x{key[1]}: {engine} events/sec regressed "
                    f"{base:.0f} -> {now:.0f} (> {band:.0%} below baseline)"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="BENCH_engine.json perf-regression gate"
    )
    parser.add_argument("baseline", help="committed baseline payload")
    parser.add_argument("current", help="freshly measured payload")
    parser.add_argument(
        "--band",
        type=float,
        default=0.20,
        metavar="FRACTION",
        help="allowed regression before failing (default: 0.20 = 20%%)",
    )
    parser.add_argument(
        "--raw",
        action="store_true",
        help=(
            "also gate absolute events/sec (only meaningful when both "
            "payloads were measured on the same machine)"
        ),
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.band < 1.0:
        parser.error(f"--band must lie in [0, 1), got {args.band}")

    baseline = load_cells(args.baseline)
    current = load_cells(args.current)

    failures = check_identical(current)
    failures += check_ratios(baseline, current, args.band)
    if args.raw:
        failures += check_raw(baseline, current, args.band)

    compared = sorted(set(baseline) & set(current))
    print(
        f"perf gate: {len(compared)} cell(s) compared "
        f"(band {args.band:.0%}, metrics: ratios"
        + (" + raw events/sec" if args.raw else "")
        + ")"
    )
    for key in compared:
        cell = current[key]
        parts = [f"identical={cell.get('identical', False)}"]
        for metric, label in RATIO_METRICS:
            if metric in cell:
                parts.append(f"{label} {cell[metric]:.2f}x")
        print(f"  {key[0]}x{key[1]}: {', '.join(parts)}")

    if failures:
        print()
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
