#!/usr/bin/env python
"""Run the kernel hot-path microbenchmarks and emit BENCH_kernels.json.

Usage::

    PYTHONPATH=src python scripts/bench_report.py            # full run
    PYTHONPATH=src python scripts/bench_report.py --smoke    # CI smoke mode
    PYTHONPATH=src python scripts/bench_report.py --no-campaign

The report lands in ``--output-dir`` (default: current directory, or
``$BENCH_DIR``) in the shared BENCH_*.json schema — see ``docs/perf.md``
for how to read it.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import (  # noqa: E402
    run_compiled_backend_bench,
    run_dse_bench,
    run_kernel_hotpath_bench,
    write_bench_report,
)
from repro.tinympc import kernel_backend_info  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fewer rounds and a tiny campaign grid (CI)")
    parser.add_argument("--no-campaign", action="store_true",
                        help="skip the fleet-campaign comparison")
    parser.add_argument("--backend", default="auto",
                        help="compiled backend to measure (auto/c/numpy; "
                             "numpy skips the compiled rows)")
    parser.add_argument("--dse", action="store_true",
                        help="also run the design-space exploration "
                             "throughput benchmark (BENCH_dse.json)")
    parser.add_argument("--output-dir", type=Path, default=None,
                        help="directory for BENCH_kernels.json")
    args = parser.parse_args()

    metrics, rows = run_kernel_hotpath_bench(smoke=args.smoke,
                                             campaign=not args.no_campaign)
    compiled_metrics, compiled_rows = run_compiled_backend_bench(
        args.backend, smoke=args.smoke)
    metrics.update(compiled_metrics)
    rows.extend(compiled_rows)
    path = write_bench_report("kernels", metrics, rows, smoke=args.smoke,
                              directory=args.output_dir)

    print("== per-kernel timings (best-of, microseconds) ==")
    header = "{:22s} {:>8s} {:>8s} {:>10s} {:>10s} {:>8s}".format(
        "kernel", "layout", "impl", "fast_us", "naive_us", "speedup")
    print(header)
    for row in rows:
        print("{:22s} {:>8s} {:>8s} {:>10.2f} {:>10.2f} {:>7.2f}x".format(
            row["kernel"], row["layout"], row.get("impl", "numpy"),
            row["fast_us"], row["naive_us"], row["speedup"]))
    print("\n== active kernel backend ==")
    for key, value in kernel_backend_info().items():
        print("{:40s} {}".format(key, value))
    print("\n== headline metrics ==")
    for key in sorted(metrics):
        print("{:40s} {}".format(key, metrics[key]))
    print("\nwrote {}".format(path))

    if args.dse:
        dse_metrics, dse_rows = run_dse_bench(smoke=args.smoke)
        dse_path = write_bench_report("dse", dse_metrics, dse_rows,
                                      smoke=args.smoke,
                                      directory=args.output_dir)
        print("\n== DSE throughput (model campaign vs serial compiles) ==")
        for row in dse_rows:
            print("{:10s} {:>4d} specs  serial {:>7.2f}s  model {:>7.3f}s"
                  "  {:>6.1f}x".format(row["category"], row["specs"],
                                       row["serial_compile_s"],
                                       row["model_fleet_s"], row["speedup"]))
        for key in sorted(dse_metrics):
            print("{:40s} {}".format(key, dse_metrics[key]))
        print("\nwrote {}".format(dse_path))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
