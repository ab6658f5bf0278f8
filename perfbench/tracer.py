"""Outside-in layer trace: wrap public functions and time every call.

Nothing in ``src/`` records spans yet, so the benchmark patches the public
functions of each layer (``drone``, ``hil``, ``tinympc``, ``fleet``,
``codegen``, ``arch``) for the duration of a traced campaign and restores
them afterwards.  Each wrapped call is a span on one stack:

* ``busy`` is a span's inclusive duration;
* ``self`` is ``busy`` minus the wrapped spans nested directly inside it;
* time covered by no top-level span is *unattributed*.

``EpisodeRunner.run`` is a generator, so its span is every resume of the
generator (``send`` until the next ``yield``), not its lifetime.

Worker processes are forked without the wrappers (an at-fork hook restores
the originals in the child), so a traced durable run pays no tracing cost
in its workers and reports only what the parent process can see.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable, Dict, List, Optional, Tuple


class Stat:
    """Accumulated spans of one wrapped function (nanoseconds)."""

    __slots__ = ("calls", "busy_ns", "child_ns")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.busy_ns = 0
        self.child_ns = 0

    @property
    def busy_s(self) -> float:
        return self.busy_ns * 1e-9

    @property
    def self_s(self) -> float:
        return (self.busy_ns - self.child_ns) * 1e-9


# The tracer installed in this process; the at-fork hook uninstalls it in
# children.
_installed: Optional["Tracer"] = None


def _uninstall_in_child() -> None:
    if _installed is not None:
        _installed.uninstall()


os.register_at_fork(after_in_child=_uninstall_in_child)


class Tracer:
    """Span recorder over a set of patched functions.

    ``counters`` collects values the ``after`` hooks derive from return
    values (batch widths, ADMM iterations).
    """

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self.counters: Dict[str, float] = {}
        self.top_ns = 0
        self._stack: List[List[int]] = []
        self._patches: List[Tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.reset()
        self.counters.clear()
        self.top_ns = 0

    # -- spans -----------------------------------------------------------------
    def _close(self, stat: Stat, frame: List[int], elapsed: int) -> None:
        stack = self._stack
        stack.pop()
        stat.calls += 1
        stat.busy_ns += elapsed
        stat.child_ns += frame[0]
        if stack:
            stack[-1][0] += elapsed
        else:
            self.top_ns += elapsed

    def wrap_call(self, name: str, fn: Callable,
                  after: Optional[Callable] = None) -> Callable:
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter_ns
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stat, frame, clock() - start)
            if after is not None:
                after(self, result)
            return result
        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter_ns
        close = self._close

        def resumes(inner):
            response = None
            while True:
                frame = [0]
                stack.append(frame)
                start = clock()
                try:
                    request = inner.send(response)
                except StopIteration:
                    close(stat, frame, clock() - start)
                    return
                except BaseException:
                    close(stat, frame, clock() - start)
                    raise
                close(stat, frame, clock() - start)
                response = yield request

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return resumes(fn(*args, **kwargs))
        return wrapper

    # -- patching --------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, kind: str = "call",
              after: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        if kind == "generator":
            wrapped = self.wrap_generator(name, original)
        else:
            wrapped = self.wrap_call(name, original, after)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self) -> "Tracer":
        global _installed
        if _installed is not None:
            raise RuntimeError("a tracer is already installed")
        install_layers(self)
        _installed = self
        return self

    def uninstall(self) -> None:
        global _installed
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if _installed is self:
            _installed = None


# ---------------------------------------------------------------------------
# The wrapped layer boundaries
# ---------------------------------------------------------------------------

def _batch_solved(tracer: Tracer, solution) -> None:
    active = solution.active
    width = int(active.sum())
    tracer.count("batch_width", width)
    tracer.count("batch_fill", width / solution.batch_size)
    tracer.count("admm_iterations", int(solution.iterations[active].sum()))


def _scalar_solved(tracer: Tracer, solution) -> None:
    tracer.count("admm_iterations", int(solution.iterations))


def install_layers(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are built from."""
    from repro.codegen import CodegenFlow
    from repro.drone import Quadrotor
    from repro.fleet import EpisodeFactory, FleetAggregator, FleetScheduler
    from repro.fleet import design_point, supervisor
    from repro.hil.episode import EpisodeRunner
    from repro.hil.soc import SoCModel
    from repro.tinympc import BatchTinyMPCSolver, TinyMPCSolver

    tracer.patch(Quadrotor, "step", "drone.step")
    tracer.patch(Quadrotor, "has_crashed", "drone.has_crashed")
    tracer.patch(EpisodeRunner, "run", "hil.episode", kind="generator")
    tracer.patch(SoCModel, "compile_problem", "hil.soc_compile")
    tracer.patch(BatchTinyMPCSolver, "solve", "tinympc.batch_solve",
                 after=_batch_solved)
    tracer.patch(TinyMPCSolver, "solve", "tinympc.scalar_solve",
                 after=_scalar_solved)
    tracer.patch(BatchTinyMPCSolver, "import_slot", "tinympc.slot_io")
    tracer.patch(BatchTinyMPCSolver, "export_slot", "tinympc.slot_io")
    tracer.patch(EpisodeFactory, "build", "fleet.build")
    tracer.patch(FleetScheduler, "run", "fleet.scheduler")
    tracer.patch(FleetAggregator, "add", "fleet.aggregate")
    tracer.patch(supervisor, "run_supervised", "fleet.supervisor")
    # design_point calls these through its module globals.
    tracer.patch(design_point, "evaluate_design_point",
                 "design_point.evaluate")
    tracer.patch(design_point, "program_fingerprint",
                 "design_point.fingerprint")
    tracer.patch(design_point, "resolve_program",
                 "design_point.resolve_program")
    tracer.patch(design_point, "model_report", "arch.model_report")
    tracer.patch(CodegenFlow, "compile", "codegen.compile")
