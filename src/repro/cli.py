"""``repro`` — the unified command-line entry point of the reproduction.

Eight subcommands cover the whole surface:

* ``repro run <spec>`` — execute a declarative scenario/experiment spec
  (TOML or JSON; see ``docs/scenarios.md`` and ``examples/specs/``);
  results are memoized in the content-addressed result store
  (``--no-cache`` / ``--store PATH``; see ``docs/artifacts.md``), so
  reruns of unchanged specs execute zero simulations and interrupted
  campaigns resume from the cells that already landed; ``--trace`` /
  ``--metrics`` / ``--profile`` / ``--webhook`` attach the
  determinism-safe telemetry sinks (``docs/observability.md``);
* ``repro campaign run|status|resume`` — shard a grid spec's cells across
  fault-tolerant worker processes with a crash-safe journal: leases with
  deadlines, retry/backoff, per-cell timeouts, quarantine, and
  ``resume`` after a coordinator crash (see ``docs/distributed.md``);
* ``repro validate <spec> [<spec> ...]`` / ``repro validate --all DIR`` —
  schema-check specs without running them;
* ``repro report <spec> [...]`` — render the paper figures of one or more
  specs (served from the store when cached) into a self-contained
  HTML/Markdown artifact report;
* ``repro store info|gc|clear|merge`` — inspect, evict or union result
  stores (``merge`` joins per-worker campaign stores with byte-identity
  verification on key collisions);
* ``repro quickstart`` — a 30-second built-in demo (four applications
  competing for a shared file system under five schedulers);
* ``repro list`` — discoverability: scheduler names, workload categories,
  experiment kinds and the bundled example specs;
* ``repro lint`` — the static determinism/contract linter (``reprolint``,
  rules D001–D005/C001; see ``docs/determinism.md``).

Installed as a console script (``pip install -e .``) and also runnable
without installation as ``PYTHONPATH=src python -m repro ...``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro import __version__
from repro.config.schema import SpecError
from repro.obs.telemetry import recorder
from repro.utils.validation import ValidationError

if TYPE_CHECKING:
    from repro.store import ResultStore

# Each subcommand imports the specs, runners and stores it uses, so
# `repro --help` and `repro --version` load neither numpy nor the
# simulator.

__all__ = ["main", "build_parser"]

#: Specs bundled with the repository, relative to the repo root.
DEFAULT_SPECS_DIR = Path("examples") / "specs"


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared result-store knobs of ``run`` and ``report``."""
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "memoize cells/studies in the content-addressed result store "
            "(default: on; --no-cache recomputes everything and stores "
            "nothing)"
        ),
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "result-store location (default: $REPRO_STORE or ~/.cache/repro)"
        ),
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared telemetry knobs of ``run`` and ``campaign run/resume``.

    All four are pure observers: enabling any of them never changes
    payloads, store keys or exit codes (see docs/observability.md).
    """
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "write a Chrome-trace-event JSON timeline (spans for build/"
            "run/report stages, cells and store accesses; load in "
            "chrome://tracing or Perfetto)"
        ),
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help=(
            "write metric snapshots as JSON lines (one per completed stage "
            "+ a final one) plus a Prometheus text sibling FILE.prom"
        ),
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="DIR",
        help="cProfile each pipeline stage into DIR/NN-<stage>.prof",
    )
    parser.add_argument(
        "--webhook",
        default=None,
        metavar="TARGET",
        help=(
            "send progress events (repro-progress/1 JSON) to TARGET: an "
            "http(s):// URL (POSTed, fail-soft) or a file path (appended "
            "as JSON lines)"
        ),
    )


def _print_status(event: str, message: Optional[str] = None, **fields: object) -> None:
    """The ``--progress`` sink: each event's ``message`` as a stderr line.

    Status goes to stderr so piped/redirected stdout stays a clean
    artefact.  A broken stderr pipe raises here and the recorder drops the
    line, so it can never abort a long run before its artefact is written.
    """
    if message is not None:
        print(message, file=sys.stderr, flush=True)


@contextlib.contextmanager
def _obs_session(args: argparse.Namespace, **stamp: object) -> Iterator[None]:
    """Attach one command's telemetry: status sinks, recorder, artefacts.

    ``--progress`` / ``--webhook`` subscribe their event sinks for the
    command (``stamp`` fields go on every webhook event).  With none of
    ``--trace``/``--metrics``/``--profile`` given, the recorder stays
    disabled and every metric/span site in the pipeline remains a no-op
    branch.  Artefacts are flushed in ``finally`` so a crashed run still
    leaves a well-formed trace/metrics file of everything recorded up to
    the failure.
    """
    rec = recorder()
    sinks = []
    if getattr(args, "progress", False):
        sinks.append(_print_status)
    if getattr(args, "webhook", None) is not None:
        from repro.obs.log import ProgressWebhook

        sinks.append(ProgressWebhook(args.webhook, recorder=rec, stamp=stamp).emit)
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    profile = getattr(args, "profile", None)
    with rec.subscribed(*sinks):
        if trace is None and metrics is None and profile is None:
            yield
            return
        from repro.obs.metrics import MetricsWriter, write_prometheus
        from repro.obs.trace import write_trace

        rec.reset()
        rec.enable()
        writer: Optional[MetricsWriter] = None
        if metrics is not None:
            writer = MetricsWriter(metrics)
            rec.install_stage_hook(
                lambda stage: writer.write_snapshot(rec, reason=f"stage:{stage}")
            )
        if profile is not None:
            from repro.obs.profile import StageProfiler

            rec.install_profiler(StageProfiler(profile))
        try:
            yield
        finally:
            try:
                if trace is not None:
                    write_trace(trace, rec)
                if writer is not None:
                    writer.write_snapshot(rec, reason="final")
                    write_prometheus(f"{metrics}.prom", rec)
            finally:
                rec.disable()


def build_parser() -> argparse.ArgumentParser:
    """The full argparse tree of the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Scheduling the I/O of HPC applications under "
            "congestion' (IPDPS 2015): run declarative experiment specs "
            "and demos."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run a declarative experiment spec (.toml or .json)",
        description=(
            "Execute a spec file.  The spec fully determines the run; the "
            "flags below override its [experiment]/[output] knobs without "
            "editing the file."
        ),
    )
    run.add_argument("spec", help="path to the spec file (.toml or .json)")
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the grid (0 = one per CPU; default: spec value)",
    )
    run.add_argument(
        "--max-time",
        type=float,
        default=None,
        metavar="SECONDS",
        help="truncate every simulation at this horizon (default: spec value)",
    )
    run.add_argument(
        "--seed", type=int, default=None, help="override the experiment seed"
    )
    run.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write results to this file (overrides the spec's [output] table)",
    )
    run.add_argument(
        "--format",
        choices=("json", "csv"),
        default=None,
        help="output format (default: spec value, else inferred from --out suffix)",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress the result tables on stdout"
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help=(
            "stream per-cell/per-level status lines to stderr while the "
            "experiment runs (long campaigns are otherwise silent until done)"
        ),
    )
    _add_store_arguments(run)
    _add_obs_arguments(run)
    run.add_argument(
        "--require-cached",
        action="store_true",
        help=(
            "fail (exit 2) unless every cell/study was served from the "
            "result store — CI's 'second run performs zero simulation "
            "work' assertion"
        ),
    )
    run.set_defaults(func=_cmd_run)

    campaign = sub.add_parser(
        "campaign",
        help="shard a grid spec across fault-tolerant workers (journaled)",
        description=(
            "Distributed campaigns: shard a grid spec's cell set across N "
            "worker processes behind a crash-safe journal.  Workers hold "
            "cell leases with liveness deadlines (a killed or wedged worker "
            "costs one lease period), failing cells retry with seeded "
            "backoff up to a budget before quarantine, hung cells trip a "
            "per-cell timeout watchdog, and 'resume' replays the journal "
            "after a coordinator crash, recomputing only cells that never "
            "landed.  See docs/distributed.md."
        ),
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    camp_run = campaign_sub.add_parser(
        "run",
        help="start a fresh campaign from a grid spec",
        description=(
            "Shard the spec's cells across worker processes.  Exit 0 when "
            "every cell lands, 1 on degraded completion (quarantined cells "
            "are reported per cell), 2 on validation errors."
        ),
    )
    camp_run.add_argument("spec", help="path to the grid spec (.toml or .json)")
    camp_run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (0 = one per CPU; default: spec value, else 2)",
    )
    camp_run.add_argument(
        "--dir", dest="campaign_dir", default=None, metavar="DIR",
        help=(
            "campaign directory holding the journal, worker mailboxes and "
            "per-worker stores (default: campaigns/<spec name>)"
        ),
    )
    camp_run.add_argument(
        "--store", default=None, metavar="PATH",
        help="result store cells land in (default: $REPRO_STORE or ~/.cache/repro)",
    )
    camp_run.add_argument(
        "--worker-stores", action="store_true",
        help=(
            "give every worker its own store under DIR/stores/<worker> "
            "(the multi-host mode; union them with 'repro store merge')"
        ),
    )
    camp_run.add_argument(
        "--seed", type=int, default=None, help="override the experiment seed"
    )
    camp_run.add_argument(
        "--max-time", type=float, default=None, metavar="SECONDS",
        help="truncate every simulation at this horizon (default: spec value)",
    )
    camp_run.add_argument(
        "--lease-seconds", type=float, default=30.0, metavar="SECONDS",
        help=(
            "liveness deadline: a worker silent this long forfeits its "
            "lease and is replaced (default: %(default)s)"
        ),
    )
    camp_run.add_argument(
        "--retry-budget", type=int, default=3, metavar="N",
        help="attempts per cell before quarantine (default: %(default)s)",
    )
    camp_run.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "hard per-cell wall-clock timeout (default: derived per cell "
            "from the executor's cost estimate)"
        ),
    )
    camp_run.add_argument(
        "--progress", action="store_true",
        help="stream per-cell campaign events to stderr",
    )
    camp_run.add_argument(
        "--quiet", action="store_true",
        help="suppress the result tables after a clean shared-store campaign",
    )
    _add_obs_arguments(camp_run)
    # Testing/CI knobs, deliberately undocumented.
    camp_run.add_argument(
        "--halt-after-landed", type=int, default=None, help=argparse.SUPPRESS
    )
    camp_run.add_argument(
        "--heartbeat-seconds", type=float, default=0.25, help=argparse.SUPPRESS
    )
    camp_run.set_defaults(func=_cmd_campaign)

    camp_status = campaign_sub.add_parser(
        "status",
        help="journal-derived status of a campaign directory",
        description=(
            "Read the campaign journal (no processes needed, works on a "
            "directory copied off a crashed host) and report where every "
            "cell stands."
        ),
    )
    camp_status.add_argument("campaign_dir", metavar="DIR", help="campaign directory")
    camp_status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    camp_status.set_defaults(func=_cmd_campaign)

    camp_resume = campaign_sub.add_parser(
        "resume",
        help="resume a crashed or halted campaign from its journal",
        description=(
            "Replay the journal, verify landed cells against the store(s) "
            "and recompute only cells that never landed.  Refuses loudly if "
            "the producing code or the spec changed since the journal was "
            "written."
        ),
    )
    camp_resume.add_argument("campaign_dir", metavar="DIR", help="campaign directory")
    camp_resume.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: the campaign's recorded value)",
    )
    camp_resume.add_argument(
        "--store", default=None, metavar="PATH",
        help="result store override (default: the campaign's recorded store)",
    )
    camp_resume.add_argument(
        "--retry-quarantined", action="store_true",
        help="re-queue quarantined cells with a fresh retry budget",
    )
    camp_resume.add_argument(
        "--progress", action="store_true",
        help="stream per-cell campaign events to stderr",
    )
    _add_obs_arguments(camp_resume)
    camp_resume.add_argument(
        "--halt-after-landed", type=int, default=None, help=argparse.SUPPRESS
    )
    camp_resume.set_defaults(func=_cmd_campaign)

    validate = sub.add_parser(
        "validate",
        help="parse and validate specs without running them",
        description=(
            "Exit 0 if every given spec is well-formed, 2 with one message "
            "per broken spec otherwise.  Paths and --all compose."
        ),
    )
    validate.add_argument(
        "specs",
        nargs="*",
        metavar="spec",
        help="spec files to validate (.toml or .json)",
    )
    validate.add_argument(
        "--all",
        dest="all_dir",
        metavar="DIR",
        default=None,
        help="also validate every .toml/.json spec under DIR",
    )
    validate.set_defaults(func=_cmd_validate)

    report = sub.add_parser(
        "report",
        help="render paper figures + a self-contained HTML/Markdown report",
        description=(
            "Run one or more specs through the result store (cached "
            "campaigns are served without simulating anything) and render "
            "their figures — matplotlib PNGs when installed, text charts "
            "otherwise — into reports/report.html (and/or report.md)."
        ),
    )
    report.add_argument(
        "specs",
        nargs="*",
        metavar="spec",
        help="spec files to render (.toml or .json)",
    )
    report.add_argument(
        "--all",
        dest="all_dir",
        metavar="DIR",
        default=None,
        help="also render every .toml/.json spec under DIR",
    )
    report.add_argument(
        "--out-dir",
        default="reports",
        metavar="DIR",
        help="directory receiving report.html / report.md / figures "
             "(default: %(default)s)",
    )
    report.add_argument(
        "--format",
        choices=("html", "markdown", "both"),
        default="html",
        help="report flavour(s) to write (default: %(default)s)",
    )
    report.add_argument(
        "--text",
        action="store_true",
        help="force text charts even when matplotlib is installed",
    )
    report.add_argument(
        "--progress",
        action="store_true",
        help="stream per-spec/per-cell status lines to stderr",
    )
    _add_store_arguments(report)
    report.set_defaults(func=_cmd_report)

    store = sub.add_parser(
        "store",
        help="inspect or evict the content-addressed result store",
        description=(
            "The result store memoizes every experiment cell/study "
            "(~/.cache/repro, or REPRO_STORE, or --store PATH; see "
            "docs/artifacts.md)."
        ),
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_info = store_sub.add_parser(
        "info", help="entry count, disk usage and location of the store"
    )
    store_info.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    store_gc = store_sub.add_parser(
        "gc",
        help="evict entries by age and/or least-recently-used budgets",
        description=(
            "Hits refresh an entry's mtime, so --max-age-days keeps live "
            "cells; --max-entries/--max-bytes then trim LRU-first."
        ),
    )
    store_gc.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="drop entries not touched within DAYS",
    )
    store_gc.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="keep at most N entries (LRU eviction)",
    )
    store_gc.add_argument(
        "--max-bytes", type=int, default=None, metavar="BYTES",
        help="keep at most BYTES on disk (LRU eviction)",
    )
    store_clear = store_sub.add_parser("clear", help="remove every entry")
    store_merge = store_sub.add_parser(
        "merge",
        help="union per-worker campaign stores into one",
        description=(
            "Copy every entry of the source stores into --store DEST, "
            "byte-for-byte.  Keys present on both sides are verified, not "
            "replaced: identical payloads count as verified collisions, "
            "different payloads abort with exit 2 (a producer was "
            "non-deterministic — never silently pick a winner)."
        ),
    )
    store_merge.add_argument(
        "sources", nargs="+", metavar="SRC",
        help="source store roots (e.g. <campaign dir>/stores/*)",
    )
    for sub_parser in (store_info, store_gc, store_clear, store_merge):
        sub_parser.add_argument(
            "--store", default=None, metavar="PATH",
            help="store location (default: $REPRO_STORE or ~/.cache/repro)",
        )
    store.set_defaults(func=_cmd_store)

    quickstart = sub.add_parser(
        "quickstart",
        help="run the built-in 30-second demo",
        description=(
            "Four periodic applications compete for a 20 GB/s file system; "
            "compare the uncoordinated baseline against the paper's "
            "heuristics.  Exercises the same spec machinery as 'repro run'."
        ),
    )
    quickstart.add_argument(
        "--seed", type=int, default=0, help="experiment seed (default: %(default)s)"
    )
    quickstart.set_defaults(func=_cmd_quickstart)

    lister = sub.add_parser(
        "list",
        help="list schedulers, workload categories, experiment kinds or specs",
    )
    lister.add_argument(
        "what",
        choices=("schedulers", "categories", "experiments", "specs"),
        help="what to list",
    )
    lister.add_argument(
        "--specs-dir",
        default=str(DEFAULT_SPECS_DIR),
        help="directory scanned by 'list specs' (default: %(default)s)",
    )
    lister.set_defaults(func=_cmd_list)

    lint = sub.add_parser(
        "lint",
        help="static determinism/contract linter (reprolint)",
        description=(
            "Run the AST-based determinism linter over the given paths "
            "(default: src).  Rules D001-D005 catch per-file hazards "
            "(global RNG state, wall-clock reads, unordered set iteration, "
            "non-canonical JSON, mutable defaults); C001 checks that every "
            "dataclass reachable from store-key construction serializes "
            "canonically.  See docs/determinism.md.  Exit status: 0 clean, "
            "1 findings, 2 usage/baseline error."
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=(
            "baseline file of grandfathered findings (default: "
            "reprolint-baseline.json next to the scanned tree, if present; "
            "--no-baseline disables).  Entries under simulator/ or store/ "
            "are rejected outright."
        ),
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    lint.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="write the current findings out as a fresh baseline and exit 0",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: %(default)s)",
    )
    lint.add_argument(
        "--severity",
        action="append",
        default=[],
        metavar="PREFIX[:RULE]=LEVEL",
        help=(
            "per-path severity override, e.g. 'report/=warning' or "
            "'analysis/:D003=warning'; repeatable, longest prefix wins"
        ),
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.set_defaults(func=_cmd_lint)

    return parser


# ---------------------------------------------------------------------- #
def _cmd_run(args: argparse.Namespace) -> int:
    from repro.config import load_spec, run_spec, write_result

    spec = load_spec(args.spec)
    if args.format is not None and args.out is None and spec.output is None:
        raise SpecError(
            "--format has no effect without an output target; add --out PATH "
            "or an [output] table to the spec"
        )
    spec = spec.with_overrides(
        seed=args.seed, workers=args.workers, max_time=args.max_time
    )
    store = _open_store(args)
    with _obs_session(args, spec=spec.name):
        recorder().event("run-start", spec=spec.name, kind=spec.kind)
        result = run_spec(spec, store=store)
        recorder().event(
            "run-complete", spec=spec.name, n_cells=len(result.records)
        )
    if args.require_cached:
        misses = result.store_stats["misses"] if store is not None else None
        if store is None or misses:
            raise SpecError(
                "--require-cached: "
                + (
                    "caching is disabled (--no-cache)"
                    if store is None
                    else f"{misses} cell(s)/study(ies) were computed instead "
                         f"of served from the store at {store.root}"
                )
            )
    # Persist before printing: a BrokenPipeError from stdout (`... | head`)
    # must never discard the artefact of a completed run.
    written = write_result(result, path=args.out, format=args.format)
    if not args.quiet:
        print(result.text)
        _print_store_line(store, result.store_stats)
    if written is not None:
        print(f"wrote {written}")
    return 0


def _print_campaign_result(result) -> None:
    print(
        f"campaign {result.campaign_id}: {result.landed}/{result.n_cells} "
        f"cells landed ({result.landed_from_store} from store, "
        f"{result.landed_computed} computed)"
    )
    if result.retries or result.lease_expiries or result.timeouts or result.worker_deaths:
        print(
            f"  faults survived: {result.retries} retries, "
            f"{result.lease_expiries} lease expiries, {result.timeouts} "
            f"timeouts, {result.worker_deaths} worker deaths"
        )
    if result.degraded:
        # Deliberately not gated on --quiet: degraded completion must
        # never be silent about what it dropped.
        print(result.failure_report(), file=sys.stderr)


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignConfig,
        campaign_status,
        resume_campaign,
        run_campaign,
    )
    from repro.config import load_spec_data, parse_spec, run_spec
    from repro.experiments.runner import resolve_workers
    from repro.store import ResultStore

    if args.campaign_command == "status":
        status = campaign_status(args.campaign_dir)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        counts = status["counts"]
        flags = []
        if status["complete"]:
            flags.append("complete")
        if status["resumes"]:
            flags.append(f"{status['resumes']} resume(s)")
        if status["corrupt_journal_lines"]:
            flags.append(f"{status['corrupt_journal_lines']} corrupt journal line(s)")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        print(
            f"campaign {status['id']} ({status['spec']}): "
            f"{counts['landed']}/{status['n_cells']} landed, "
            f"{counts['pending']} pending, {counts['leased']} leased, "
            f"{counts['quarantined']} quarantined{suffix}"
        )
        for cell in status["cells"]:
            if cell["state"] == "quarantined":
                print(
                    f"  quarantined cell {cell['index']} ({cell['scenario']} x "
                    f"{cell['scheduler']}): {cell.get('error', 'unknown error')}"
                )
        for worker in status["workers"]:
            age = worker["heartbeat_age_seconds"]
            age_text = f"{age:.1f}s ago" if age is not None else "never"
            done = worker["cells_done"]
            done_text = f"{done} cell(s) done" if done is not None else "no metrics"
            rate = worker["cells_per_second"]
            rate_text = f", {rate:.2f} cells/s" if rate is not None else ""
            print(
                f"  worker {worker['worker']} (gen {worker['generation']}): "
                f"heartbeat {age_text}, {done_text}{rate_text}"
            )
        return 0

    if args.campaign_command == "resume":
        with _obs_session(args):
            result = resume_campaign(
                args.campaign_dir,
                store=args.store,
                workers=args.workers,
                retry_quarantined=args.retry_quarantined,
                halt_after_landed=args.halt_after_landed,
            )
        _print_campaign_result(result)
        if result.halted:
            print(f"halted; resume with: repro campaign resume {args.campaign_dir}")
        return 1 if result.degraded else 0

    # campaign run
    spec_data = load_spec_data(args.spec)
    spec = parse_spec(spec_data, name=Path(args.spec).stem)
    spec = spec.with_overrides(seed=args.seed, max_time=args.max_time)
    if args.workers is not None:
        workers = resolve_workers(args.workers)
    elif spec.workers:
        workers = resolve_workers(spec.workers)
    else:
        workers = 2
    config = CampaignConfig(
        workers=workers,
        worker_stores=args.worker_stores,
        lease_seconds=args.lease_seconds,
        heartbeat_seconds=args.heartbeat_seconds,
        retry_budget=args.retry_budget,
        cell_timeout_seconds=args.cell_timeout,
        halt_after_landed=args.halt_after_landed,
    )
    campaign_dir = (
        Path(args.campaign_dir)
        if args.campaign_dir is not None
        else Path("campaigns") / spec.name
    )
    store = ResultStore(args.store)
    with _obs_session(args):
        result = run_campaign(
            spec,
            campaign_dir,
            store=store,
            config=config,
            spec_data=spec_data,
        )
    _print_campaign_result(result)
    if result.halted:
        print(f"halted; resume with: repro campaign resume {campaign_dir}")
        return 0
    if result.degraded:
        return 1
    if config.worker_stores:
        print(
            "cells landed in per-worker stores; union them with:\n"
            f"  repro store merge {campaign_dir / 'stores'}/* --store {store.root}"
        )
    elif not args.quiet:
        # Clean shared-store campaign: assemble the artifact tables through
        # the normal run path — every cell is served from the store, so
        # this simulates nothing and proves the campaign's cells are the
        # serial run's cells.
        run_result = run_spec(spec, store=store)
        print(run_result.text)
        _print_store_line(store, run_result.store_stats)
    return 0


def _open_store(args: argparse.Namespace) -> Optional[ResultStore]:
    """The result store selected by ``--cache``/``--no-cache``/``--store``."""
    from repro.store import ResultStore

    if not args.cache:
        if args.store is not None:
            raise SpecError("--store has no effect with --no-cache")
        return None
    return ResultStore(args.store)


def _print_store_line(
    store: Optional[ResultStore], stats: Optional[dict]
) -> None:
    if store is None or stats is None:
        return
    corrupt = f", {stats['corrupt']} corrupt" if stats["corrupt"] else ""
    print(
        f"store: {stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['writes']} writes{corrupt} "
        f"(hit rate {100.0 * stats['hit_rate']:.1f}%) — {store.root}"
    )


def _collect_spec_paths(args: argparse.Namespace) -> list[str]:
    """Explicit paths plus ``--all DIR`` expansion, in a stable order."""
    paths = [str(p) for p in args.specs]
    if args.all_dir is not None:
        specs_dir = Path(args.all_dir)
        if not specs_dir.is_dir():
            raise SpecError(f"--all: {specs_dir} is not a directory")
        found = sorted(specs_dir.glob("*.toml")) + sorted(specs_dir.glob("*.json"))
        if not found:
            raise SpecError(f"--all: no .toml/.json specs under {specs_dir}")
        paths.extend(str(p) for p in found)
    # A spec named both explicitly and via --all must not run/render twice.
    paths = list(dict.fromkeys(paths))
    if not paths:
        raise SpecError("give at least one spec path (or --all DIR)")
    return paths


def _validate_one(spec_path: str):
    from repro.config import KINDS, load_spec

    spec = load_spec(spec_path)  # its errors already name the file
    # Parsing alone misses the kind's deterministic build-time checks; run
    # them too, so exit 0 really means "repro run will accept this spec".
    # Their errors carry no path of their own.
    try:
        KINDS[spec.kind].check(spec)
    except ValidationError as exc:
        raise ValidationError(f"{spec_path}: {exc}") from exc
    return spec


def _cmd_validate(args: argparse.Namespace) -> int:
    failures = 0
    for spec_path in _collect_spec_paths(args):
        # Validate every spec even after a failure: CI should surface all
        # broken specs in one pass, with one message naming the file each.
        try:
            spec = _validate_one(spec_path)
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(f"OK: {spec_path} — experiment {spec.name!r}, kind {spec.kind!r}")
    return 2 if failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import build_report

    formats = ("html", "markdown") if args.format == "both" else (args.format,)
    with _obs_session(args):
        result = build_report(
            _collect_spec_paths(args),
            store=_open_store(args),
            out_dir=args.out_dir,
            formats=formats,
            force_text=args.text,
        )
    backend = "matplotlib" if result.used_matplotlib else "text charts"
    for section in result.sections:
        stats = section.result.store_stats
        served = (
            f" ({stats['hits']} hits, {stats['misses']} misses)"
            if stats is not None
            else ""
        )
        print(
            f"rendered {section.result.spec.name}: "
            f"{len(section.figures)} figure(s) via {backend}{served}"
        )
    for path in result.report_paths:
        print(f"wrote {path}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import ResultStore

    store = ResultStore(args.store)
    if args.store_command == "info":
        info = store.info()
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
        else:
            print(f"store:   {info['path']} (format {info['format']})")
            print(f"entries: {info['entries']}")
            print(f"size:    {info['total_bytes']} bytes")
    elif args.store_command == "gc":
        if (
            args.max_age_days is None
            and args.max_entries is None
            and args.max_bytes is None
        ):
            raise SpecError(
                "store gc needs at least one budget: --max-age-days, "
                "--max-entries and/or --max-bytes"
            )
        removed = store.gc(
            max_age_days=args.max_age_days,
            max_entries=args.max_entries,
            max_bytes=args.max_bytes,
        )
        print(f"evicted {removed} entries from {store.root}")
    elif args.store_command == "merge":
        from repro.store import merge_stores

        report = merge_stores(args.sources, store)
        print(
            f"merged {len(report.sources)} store(s) into {report.destination}: "
            f"{report.copied} copied, {report.verified} verified identical, "
            f"{report.skipped_corrupt} corrupt skipped"
        )
    else:
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
    return 0


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from repro.config import parse_spec, run_spec

    # Built as a plain dict and pushed through parse_spec/run_spec: the demo
    # exercises exactly the code path a spec file takes.
    data = {
        "experiment": {"name": "quickstart", "kind": "grid", "seed": args.seed},
        "platform": {
            "preset": "generic",
            "processors": 1024,
            "node_bandwidth": 1.0e8,
            "system_bandwidth": 2.0e10,
            "name": "quickstart",
        },
        "scenarios": [
            {
                "kind": "apps",
                "label": "quickstart",
                "apps": [
                    {"name": "climate", "processors": 512, "work": 300.0,
                     "io_volume": 4.0e12, "instances": 5},
                    {"name": "combustion", "processors": 256, "work": 200.0,
                     "io_volume": 2.0e12, "instances": 6},
                    {"name": "cosmology", "processors": 192, "work": 450.0,
                     "io_volume": 1.5e12, "instances": 4},
                    {"name": "materials", "processors": 64, "work": 120.0,
                     "io_volume": 5.0e11, "instances": 8},
                ],
            }
        ],
        "schedulers": {
            "names": ["FairShare", "RoundRobin", "MaxSysEff", "MinDilation",
                      "MinMax-0.5"]
        },
    }
    result = run_spec(parse_spec(data, name="quickstart"))
    print(result.text)
    print(
        "The coordinated heuristics recover most of the efficiency lost to\n"
        "congestion.  Next steps: 'repro run examples/specs/figure6.toml',\n"
        "'repro list schedulers', and docs/scenarios.md for the spec format."
    )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    if args.what == "schedulers":
        from repro.online.registry import available_schedulers

        print("Scheduler names accepted by specs and make_scheduler():")
        for name in available_schedulers():
            print(f"  {name}")
        print("  (any name can be prefixed with 'Priority-')")
    elif args.what == "categories":
        from repro.workload.categories import CATEGORY_PROFILES

        print("Workload categories (Intrepid node-count buckets, Section 4.1):")
        for category, profile in CATEGORY_PROFILES.items():
            print(
                f"  {category.value:<11} {profile.min_nodes}-{profile.max_nodes} "
                f"nodes, {profile.instance_range[0]}-{profile.instance_range[1]} "
                f"instances/job"
            )
    elif args.what == "experiments":
        from repro.config import KINDS

        print("Experiment kinds accepted by [experiment].kind:")
        for name, kind in KINDS.items():
            print(f"  {name:<18} {kind.description}")
    else:
        from repro.config import load_spec

        specs_dir = Path(args.specs_dir)
        if not specs_dir.is_dir() and args.specs_dir == str(DEFAULT_SPECS_DIR):
            # The default is CWD-relative for checkout users; from anywhere
            # else (e.g. after `pip install -e .`), fall back to the spec
            # library next to the source tree.
            fallback = Path(__file__).resolve().parents[2] / DEFAULT_SPECS_DIR
            if fallback.is_dir():
                specs_dir = fallback
        if not specs_dir.is_dir():
            print(f"no specs directory at {specs_dir}", file=sys.stderr)
            return 2
        found = sorted(specs_dir.glob("*.toml")) + sorted(specs_dir.glob("*.json"))
        if not found:
            print(f"no .toml/.json specs under {specs_dir}", file=sys.stderr)
            return 2
        print(f"Specs under {specs_dir}:")
        for path in found:
            try:
                spec = load_spec(path)
                print(f"  {path.name:<28} kind={spec.kind:<18} {spec.name}")
            except SpecError as exc:
                print(f"  {path.name:<28} INVALID: {exc}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Lazy import: the linter is a dev tool; `repro run` should not pay for
    # loading it (and vice versa, the linter imports no simulation code).
    from repro.lint import (
        PROJECT_RULE_REGISTRY,
        RULE_REGISTRY,
        BaselineError,
        format_json,
        format_text,
        load_baseline,
        run_lint,
        write_baseline,
    )

    if args.list_rules:
        for rule_id in sorted(RULE_REGISTRY):
            print(f"{rule_id}  {RULE_REGISTRY[rule_id].title}")
        for rule_id in sorted(PROJECT_RULE_REGISTRY):
            print(f"{rule_id}  {PROJECT_RULE_REGISTRY[rule_id].title}")
        return 0

    overrides: dict[str, str] = {}
    for item in args.severity:
        pattern, sep, level = item.partition("=")
        if not sep or not pattern:
            print(
                f"error: --severity expects PREFIX[:RULE]=LEVEL, got {item!r}",
                file=sys.stderr,
            )
            return 2
        overrides[pattern] = level

    baseline = None
    if not args.no_baseline and args.write_baseline is None:
        baseline_path = (
            Path(args.baseline)
            if args.baseline is not None
            else Path("reprolint-baseline.json")
        )
        if baseline_path.exists():
            try:
                baseline = load_baseline(baseline_path)
            except BaselineError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        elif args.baseline is not None:
            print(f"error: baseline {baseline_path} not found", file=sys.stderr)
            return 2

    try:
        result = run_lint(
            [Path(p) for p in args.paths],
            baseline=baseline,
            severity_overrides=overrides or None,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline is not None:
        write_baseline(Path(args.write_baseline), result.errors)
        print(
            f"wrote {len(result.errors)} finding(s) to {args.write_baseline}"
        )
        return 0

    if args.format == "json":
        print(json.dumps(format_json(result), indent=2, sort_keys=True))
    else:
        print(format_text(result))
    return result.exit_code()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console-script entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        # Covers SpecError (malformed spec) and model-level validation (e.g.
        # a --max-time horizon that truncates before an app is released).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer closed early (e.g. `repro list ... | head`).
        # Point stdout at devnull so the interpreter's shutdown flush does
        # not raise a second time, and exit with the conventional status.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130


if __name__ == "__main__":
    sys.exit(main())
