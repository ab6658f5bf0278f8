#!/usr/bin/env python
"""Compare the model fidelity with the full-stream trace on the catalog.

Sweeps every catalog design point at every valid optimization level,
compares :func:`repro.arch.cycle_model.model_report` (the lowering's blocks
priced as they are generated) against the compiled instruction-stream
trace, prints the comparison table, and exits non-zero if any pair's
relative error exceeds the pinned tolerance
(:data:`repro.arch.cycle_model.PINNED_TOLERANCE`).  Both share one lowering
and one pricing function per backend, so every pair is expected to be
bit-exact.  It is the local table view of the sweep
``tests/arch/test_cycle_model.py`` asserts in the tier-1 suite.

Usage::

    PYTHONPATH=src python scripts/validate_cycle_model.py
    PYTHONPATH=src python scripts/validate_cycle_model.py --levels default
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.arch.cycle_model import (  # noqa: E402
    PINNED_TOLERANCE,
    validate_catalog,
)
from repro.experiments import format_rows  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", choices=["all", "default"], default="all",
                        help="'all' sweeps every valid level per point; "
                             "'default' only the Fig. 10 level per category")
    parser.add_argument("--quiet", action="store_true",
                        help="only print failures and the summary line")
    args = parser.parse_args(argv)

    validations = validate_catalog(levels=args.levels)
    rows = [validation.as_row() for validation in validations]
    if not args.quiet:
        print(format_rows(rows))
    failures = [row for row in rows if not row["within_tolerance"]]
    exact = sum(1 for row in rows if row["exact"])
    worst = max(row["relative_error"] for row in rows)
    print("\n{} (point, level) pairs | {} bit-exact | worst relative error "
          "{:.2%} | tolerance {:.0%}".format(len(rows), exact, worst,
                                             PINNED_TOLERANCE))
    if failures:
        print("\nFAIL: {} pairs beyond tolerance:".format(len(failures)),
              file=sys.stderr)
        print(format_rows(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
