"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints its
rows (run pytest with ``-s`` to see them), and asserts the qualitative shape
the paper reports.  HIL benchmarks default to reduced episode counts so the
whole suite completes in minutes; the experiment drivers accept larger
counts for a full-scale reproduction.

Wall-clock speedup floors are marked ``bench``: they depend on host load
and write the ``BENCH_*.json`` files, so the default run deselects them
(``pytest.ini``) and ``pytest benchmarks -m bench`` runs them.
"""

import pytest

from repro.experiments import default_program, format_rows
from repro.tinympc import default_quadrotor_problem


@pytest.fixture(scope="session")
def quadrotor_problem():
    return default_quadrotor_problem()


@pytest.fixture(scope="session")
def iteration_program(quadrotor_problem):
    return default_program(quadrotor_problem)


@pytest.fixture(scope="session")
def show_rows():
    def _show(title, rows):
        print("\n=== {} ===".format(title))
        print(format_rows(rows))
        return rows
    return _show
