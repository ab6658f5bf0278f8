#!/usr/bin/env python
"""Run a fleet campaign from the command line.

Expands a cross-product grid of HIL episodes, runs it through the fleet
campaign engine (event-driven dynamic batching, optional process sharding),
and prints per-cell aggregate rows.  Examples::

    # 2 difficulties x 8 seeds x 2 clock frequencies, in-process
    PYTHONPATH=src python scripts/run_campaign.py \\
        --difficulties easy,medium --seeds 8 --frequencies 100,250

    # same grid sharded over 4 worker processes, JSON output
    PYTHONPATH=src python scripts/run_campaign.py \\
        --difficulties easy,medium --seeds 8 --frequencies 100,250 \\
        --workers 4 --output campaign.json

    # solver-less design-space exploration over the hardware catalog,
    # evaluated at model fidelity (no instruction stream is materialized)
    PYTHONPATH=src python scripts/run_campaign.py \\
        --episode-kind design_point --fidelity model \\
        --codegen-levels auto --output dse.json

Runs with worker processes (``--workers`` above 1, or any checkpointed
run) are supervised: worker death and poisoned episodes are
retried/quarantined instead of aborting.  ``--checkpoint-dir`` also makes
the run durable (``docs/robustness.md``): progress is journaled to a
content-addressed run directory, and Ctrl-C exits with status 130 after
flushing a final checkpoint plus a ``resume with --resume <dir>`` hint.
``--resume <dir>`` picks the run back up (``<dir>`` must be a run
directory, holding ``meta.json``); completed chunks replay from the
journal, so an interrupted-then-resumed campaign produces byte-identical
rows to an uninterrupted one.

Exit status is non-zero when the campaign produced no aggregate rows, so
CI smoke jobs can assert liveness with a plain shell invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import format_rows                    # noqa: E402
from repro.fleet import (CampaignInterrupted, CampaignSpec,  # noqa: E402
                         RetryPolicy, run_campaign)
from repro.fleet.campaign import EPISODE_KINDS               # noqa: E402
from repro.fleet.durable import (DEFAULT_LEASE_SIZE,         # noqa: E402
                                 atomic_write_json)

# Distinct exit status for "interrupted but resumable" (mirrors the shell
# convention for SIGINT: 128 + 2).
EXIT_INTERRUPTED = 130


def _csv(value: str):
    return [item for item in value.split(",") if item]


def _float_csv(value: str):
    return [float(item) for item in _csv(value)]


def _int_csv(value: str):
    return [int(item) for item in _csv(value)]


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(
            "must be at least 1, got {}".format(value))
    return number


def _opt_int_csv(value: str):
    return [None if item.lower() in ("none", "default") else int(item)
            for item in _csv(value)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Run a fleet campaign of HIL episodes.")
    parser.add_argument("--name", default="cli-campaign")
    parser.add_argument("--difficulties", type=_csv, default=["easy"],
                        help="comma-separated: easy,medium,hard")
    parser.add_argument("--seeds", type=int, default=4,
                        help="number of scenario seeds per cell (0..N-1)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="first scenario seed")
    parser.add_argument("--implementations", type=_csv, default=["vector"],
                        help="comma-separated: scalar,vector,ideal,...")
    parser.add_argument("--frequencies", type=_float_csv, default=[100.0],
                        help="comma-separated clock frequencies in MHz")
    parser.add_argument("--variants", type=_csv, default=["CrazyFlie"],
                        help="comma-separated drone variants")
    parser.add_argument("--control-rates", type=_float_csv, default=[100.0],
                        help="comma-separated control rates in Hz")
    parser.add_argument("--max-iterations", type=_int_csv, default=[10],
                        help="comma-separated ADMM iteration caps")
    parser.add_argument("--episode-kind", choices=EPISODE_KINDS,
                        default="waypoint",
                        help="waypoint scenarios, disturbance recovery, or "
                             "solver-less design-space exploration")
    parser.add_argument("--disturbance-categories", type=_csv,
                        default=["force", "torque", "combined"],
                        help="recovery only; comma-separated: force,torque,combined")
    parser.add_argument("--disturbance-kinds", type=_csv,
                        default=["step", "impulse"],
                        help="recovery only; comma-separated: step,impulse")
    parser.add_argument("--disturbance-scales", type=_float_csv, default=[1.0],
                        help="recovery only; magnitude-ladder multipliers")
    parser.add_argument("--disturbance-starts", type=_float_csv, default=[0.5],
                        help="recovery only; disturbance start times in seconds")
    parser.add_argument("--programs", type=_csv, default=["iteration"],
                        help="design_point only; registered program variants")
    parser.add_argument("--design-points", type=_csv, default=[],
                        help="design_point only; comma-separated catalog "
                             "names (empty = the whole catalog)")
    parser.add_argument("--codegen-levels", type=_csv, default=["auto"],
                        help="design_point only; optimization levels "
                             "('auto' = the figure-10 level per category)")
    parser.add_argument("--fidelity", type=_csv, default=["trace"],
                        dest="fidelities", metavar="FIDELITY",
                        help="design_point only; comma-separated: trace,model")
    parser.add_argument("--sync-granularities", type=_opt_int_csv,
                        default=[None],
                        help="design_point only; Gemmini ops-per-sync values "
                             "('none' = the level default)")
    parser.add_argument("--lmuls", type=_int_csv, default=[1],
                        help="design_point only; vector register-grouping "
                             "factors")
    parser.add_argument("--solve-iterations", type=int, default=10,
                        help="design_point only; ADMM iterations per solve "
                             "for the cycles-per-solve metric")
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="worker processes (1 = in-process)")
    parser.add_argument("--no-batching", action="store_true",
                        help="force the scalar (bit-for-bit reference) path")
    parser.add_argument("--output", default=None,
                        help="write campaign JSON (spec, rows, stats) here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the table on stdout")
    durable = parser.add_mutually_exclusive_group()
    durable.add_argument("--checkpoint-dir", default=None,
                         help="journal progress under this directory and run "
                              "supervised workers (retry/quarantine); "
                              "interrupted runs can be resumed")
    durable.add_argument("--resume", default=None, metavar="RUN_DIR",
                         help="resume a checkpointed run directory (as "
                              "printed on interrupt; it must hold a "
                              "meta.json); implies the same campaign flags "
                              "as the original invocation")
    parser.add_argument("--max-retries", type=_positive_int, default=3,
                        help="attempts per episode chunk before bisection/"
                             "quarantine (runs with worker processes)")
    parser.add_argument("--episode-timeout", type=float, default=None,
                        help="per-episode timeout in seconds; a chunk gets "
                             "timeout x episodes (runs with worker "
                             "processes)")
    parser.add_argument("--lease-size", type=_positive_int, default=None,
                        help="episodes per chunk, the atomic unit of "
                             "checkpointing (default: {} with a checkpoint, "
                             "one chunk per worker without)".format(
                                 DEFAULT_LEASE_SIZE))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.resume is not None and not os.path.isfile(
            os.path.join(args.resume, "meta.json")):
        # Checked before anything runs: a mistyped path must not start the
        # campaign afresh in a new directory.
        parser.error("--resume {}: not a run directory (no meta.json)"
                     .format(args.resume))
    try:
        spec = CampaignSpec(
            name=args.name,
            difficulties=tuple(args.difficulties),
            seeds=tuple(range(args.base_seed, args.base_seed + args.seeds)),
            implementations=tuple(args.implementations),
            frequencies_mhz=tuple(args.frequencies),
            variants=tuple(args.variants),
            control_rates_hz=tuple(args.control_rates),
            max_admm_iterations=tuple(args.max_iterations),
            episode_kind=args.episode_kind,
            disturbance_categories=tuple(args.disturbance_categories),
            disturbance_kinds=tuple(args.disturbance_kinds),
            disturbance_scales=tuple(args.disturbance_scales),
            disturbance_start_times=tuple(args.disturbance_starts),
            programs=tuple(args.programs),
            design_points=tuple(args.design_points),
            codegen_levels=tuple(args.codegen_levels),
            fidelities=tuple(args.fidelities),
            sync_granularities=tuple(args.sync_granularities),
            lmuls=tuple(args.lmuls),
            solve_iterations=args.solve_iterations,
        )
    except ValueError as exc:
        # An impossible grid is a usage error: exit 2 before anything runs
        # or any run directory is created.
        parser.error(str(exc))
    try:
        retry_policy = RetryPolicy(max_attempts=args.max_retries,
                                   episode_timeout=args.episode_timeout)
    except ValueError as exc:
        parser.error(str(exc))
    if not args.quiet:
        print(spec.describe())
    checkpoint_dir = args.resume or args.checkpoint_dir
    start = time.perf_counter()
    try:
        outcome = run_campaign(spec, workers=args.workers,
                               batching=not args.no_batching,
                               checkpoint_dir=checkpoint_dir,
                               retry_policy=retry_policy,
                               lease_size=args.lease_size)
    except CampaignInterrupted as interrupt:
        # Progress is journaled; flush a final checkpoint of the partial
        # per-cell rows and tell the user how to pick the run back up.
        partial_path = os.path.join(interrupt.run_dir, "partial.json")
        atomic_write_json(partial_path, {
            "campaign": spec.to_dict(),
            "completed_episodes": interrupt.completed,
            "total_episodes": interrupt.total,
            "rows": interrupt.partial_rows,
        })
        print("\ninterrupted at {}/{} episodes; partial rows in {}".format(
            interrupt.completed, interrupt.total, partial_path),
            file=sys.stderr)
        print("resume with --resume {}".format(interrupt.run_dir),
              file=sys.stderr)
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        # No checkpointing armed: nothing durable to flush, but still exit
        # cleanly instead of dumping a traceback.
        print("\ninterrupted (no --checkpoint-dir: progress not saved)",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    elapsed = time.perf_counter() - start
    rows = outcome.rows()

    if not args.quiet:
        print(format_rows(rows))
        summary = outcome.overall()
        if summary.get("design_episodes"):
            rate = "{} design points".format(summary["design_episodes"])
        elif summary.get("recovery_episodes"):
            rate = "recovery rate {:.1%}".format(summary["recovery_rate"])
        else:
            rate = "success rate {:.1%}".format(summary["success_rate"])
        print("\n{} episodes in {:.2f}s ({:.1f} episodes/s) | "
              "{} | {} dispatches, mean batch width {:.1f}"
              .format(summary["episodes"], elapsed,
                      summary["episodes"] / elapsed if elapsed else 0.0,
                      rate, summary["dispatches"],
                      summary["mean_batch_width"]))
    if args.output:
        payload = {
            "campaign": spec.to_dict(),
            "elapsed_s": elapsed,
            "rows": rows,
            "overall": outcome.overall(),
        }
        if outcome.run_dir is not None:
            payload["run_dir"] = outcome.run_dir
        if outcome.report is not None:
            payload["supervisor"] = outcome.report.as_row()
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        if not args.quiet:
            print("wrote {}".format(args.output))
    return 0 if rows else 1


if __name__ == "__main__":
    sys.exit(main())
