"""The repo benchmark (``perfbench/``) imports and patches ``repro`` names.

``perfbench/tracer.py`` wraps layer functions by attribute name and
``perfbench/measure.py`` reads the kernel backend metadata, so renaming or
deleting any of those names breaks the benchmark without breaking a unit
test.  This test loads the benchmark's modules and installs its tracer,
which fails on the first name that no longer resolves.
"""

import os
import signal
import sys

from repro.fleet import FleetAggregator

PERFBENCH = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "perfbench"))
MODULES = ("speed", "workloads", "tracer", "measure")


def test_perfbench_imports_and_patches_resolve(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    previous_alarm = signal.getsignal(signal.SIGALRM)
    original_add = FleetAggregator.add
    try:
        # Importing measure starts its host-speed probe, a SIGALRM timer.
        import measure
        import tracer
        import workloads  # noqa: F401

        layer_tracer = tracer.Tracer()
        layer_tracer.install()
        try:
            assert FleetAggregator.add is not original_add
        finally:
            layer_tracer.uninstall()
        assert FleetAggregator.add is original_add
        info = measure.kernel_backend_info()
        assert "name" in info and "threads" in info
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_alarm)
        for name in MODULES:
            sys.modules.pop(name, None)
