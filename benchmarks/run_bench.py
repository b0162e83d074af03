#!/usr/bin/env python
"""One-command benchmark suite: write ``BENCH_engine.json`` + ``BENCH_grid.json``.

CI perf-job entry point — runs the engine-scaling suite of
:mod:`repro.experiments.scaling` and the end-to-end experiment benchmark of
:mod:`repro.experiments.grid_bench` at scale 1 (or ``--scale N``) without
any pytest machinery and writes both machine-readable payloads:

    PYTHONPATH=src python benchmarks/run_bench.py
    PYTHONPATH=src python benchmarks/run_bench.py --scale 4 --out perf/BENCH_engine.json

Exit status is non-zero when any ``identical`` flag goes false — the
engine disagreeing with the reference timeline, a pooled spec run
disagreeing with the serial one, or a warm-started period sweep disagreeing
with the naive sweep.  All are correctness regressions, not just slow runs,
so a CI job fails loudly on the thing that matters most.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    # The flag set deliberately mirrors `repro bench` (src/repro/cli.py)
    # instead of sharing a builder: this script must finish parsing — and
    # print its friendly PYTHONPATH hint — before anything from `repro` is
    # importable, so keep the two blocks in sync by hand.
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
        help="benchmark-size multiplier, like REPRO_BENCH_SCALE (default: 1)",
    )
    parser.add_argument(
        "--scheduler",
        default="MaxSysEff",
        help="scheduler driven through the engine and the reference (default: %(default)s)",
    )
    parser.add_argument(
        "--no-reference",
        action="store_true",
        help=(
            "time only the engine — no speedups; combine with "
            "--engine-only for a fast smoke run"
        ),
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

    try:
        from repro.experiments.scaling import run_bench_cli
    except ImportError as exc:  # pragma: no cover - environment guard
        print(
            f"cannot import repro ({exc}); run with PYTHONPATH=src "
            "or install the package",
            file=sys.stderr,
        )
        return 2

    from repro.utils.validation import ValidationError

    try:
        return run_bench_cli(
            out=args.out,
            scale=args.scale,
            scheduler=args.scheduler,
            include_reference=not args.no_reference,
            grid_out=None if args.engine_only else args.grid_out,
            include_engine=not args.grid_only,
        )
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
