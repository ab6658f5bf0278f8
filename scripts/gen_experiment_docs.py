"""Generate ``docs/experiments.md`` from the ``EXPERIMENTS`` registry.

The experiments table in the docs is produced from
:data:`repro.experiments.registry.EXPERIMENTS`, so it can never drift from
the code: ``tests/experiments/test_runner_and_docs.py`` regenerates the
markdown and asserts it matches the committed file.  Regenerate with::

    PYTHONPATH=src python scripts/gen_experiment_docs.py
"""

from __future__ import annotations

import inspect
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import EXPERIMENTS  # noqa: E402

HEADER = """\
# Experiment registry

Every artifact of the paper's evaluation maps to one registered driver.
Run any of them with:

```python
from repro.experiments import run_experiment, format_rows

rows = run_experiment("fig10")
rows = run_experiment("fig16", episodes_per_cell=3)  # kwargs go to the driver
print(format_rows(rows))
```

Drivers default to benchmark-sized configurations; pass keyword arguments
(e.g. ``episodes_per_cell``, ``frequencies_mhz``) for full-scale runs.
Identifiers marked *batched* route their MPC solves through
`BatchTinyMPCSolver` by default (pass ``batched=False`` for the scalar
solver).

<!-- This file is generated by scripts/gen_experiment_docs.py - do not edit. -->
"""


def driver_path(driver) -> str:
    return "{}.{}".format(driver.__module__, driver.__name__)


def build_experiments_markdown() -> str:
    """Render the registry as the full markdown document."""
    lines = [HEADER]
    lines.append("| Identifier | Title | Paper section | Driver | Batched |")
    lines.append("|---|---|---|---|---|")
    for experiment in EXPERIMENTS.values():
        parameters = inspect.signature(experiment.driver).parameters
        batched = "yes" if "batched" in parameters else ""
        lines.append("| `{}` | {} | {} | `{}` | {} |".format(
            experiment.identifier, experiment.title, experiment.section,
            driver_path(experiment.driver), batched))
    lines.append("")
    return "\n".join(lines)


def main() -> None:
    output_path = os.path.join(os.path.dirname(__file__), "..", "docs",
                               "experiments.md")
    output_path = os.path.normpath(output_path)
    os.makedirs(os.path.dirname(output_path), exist_ok=True)
    with open(output_path, "w") as handle:
        handle.write(build_experiments_markdown())
    print("wrote {} ({} experiments)".format(output_path, len(EXPERIMENTS)))


if __name__ == "__main__":
    main()
