#!/usr/bin/env python
"""One-command benchmark suite: write ``BENCH_engine.json`` + ``BENCH_grid.json``.

The benchmark entry point — runs the engine-scaling suite of
``benchmarks/engine_bench.py`` and the end-to-end experiment benchmark of
``benchmarks/grid_bench.py`` at scale 1 (or ``--scale N``) and writes both
machine-readable payloads:

    PYTHONPATH=src python benchmarks/run_bench.py
    PYTHONPATH=src python benchmarks/run_bench.py --scale 4 --out perf/BENCH_engine.json

Exit status is 1 when any ``identical`` flag goes false — the engine
disagreeing with the reference timeline, or a pooled spec run or sharded
campaign disagreeing with the serial one.  All are correctness
regressions, not just slow runs, so a CI job fails loudly on the thing
that matters most.  Bad arguments, or a ``repro`` that cannot be
imported, exit 2.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="BENCH_engine.json",
        help="output path for the engine payload (default: %(default)s)",
    )
    parser.add_argument(
        "--grid-out",
        default="BENCH_grid.json",
        help="output path for the experiment-grid payload (default: %(default)s)",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=1,
        help="benchmark-size multiplier (default: %(default)s)",
    )
    half = parser.add_mutually_exclusive_group()
    half.add_argument(
        "--engine-only",
        action="store_true",
        help="skip the experiment-grid benchmark (BENCH_grid.json)",
    )
    half.add_argument(
        "--grid-only",
        action="store_true",
        help="skip the engine-scaling benchmark (BENCH_engine.json)",
    )
    args = parser.parse_args(argv)
    if args.scale < 1:
        print(f"error: scale must be >= 1, got {args.scale}", file=sys.stderr)
        return 2

    try:
        from repro.utils.validation import ValidationError
    except ImportError as exc:  # pragma: no cover - environment guard
        print(
            f"cannot import repro ({exc}); run with PYTHONPATH=src "
            "or install the package",
            file=sys.stderr,
        )
        return 2

    try:
        return _run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import write_json

    status = 0
    if not args.grid_only:
        from engine_bench import run_engine_bench

        payload = run_engine_bench(events_budget=4000 * args.scale)
        print(f"wrote {write_json(payload, args.out)}")
        broken = [
            f"{c['n_apps']}x{c['n_instances']}"
            for c in payload["cells"]
            if not c["identical"]
        ]
        if broken:
            print(
                f"ENGINE MISMATCH on cells: {', '.join(broken)} — the "
                "engine no longer reproduces the reference timeline",
                file=sys.stderr,
            )
            status = 1

    if not args.engine_only:
        from grid_bench import grid_bench_broken, run_grid_bench

        payload = run_grid_bench(scale=args.scale)
        print(f"wrote {write_json(payload, args.grid_out)}")
        broken = grid_bench_broken(payload)
        if broken:
            print(
                f"GRID MISMATCH on: {', '.join(broken)} — a pooled or "
                "sharded run no longer reproduces the serial results",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
