"""Compiled kernel backend selection for the TinyMPC hot path.

Both solvers dispatch every kernel through module attributes on
:mod:`repro.tinympc.kernels` (that is what lets the benchmark harness swap
in the naive reference).  This module reuses the same seam to install a
*compiled* kernel set:

* ``c``     — :mod:`repro.tinympc.compiled_c`, shape-specialized C built at
  first use with the system compiler and called through cffi,
* ``numpy`` — the allocation-free numpy fast path (always available).

Selection order for ``auto`` is c → numpy: the C backend is the compiled
path, and numpy is the unconditional safety net — a missing toolchain can
never break a solve.

The default backend is **numpy**; the compiled backend is opt-in, either
process-wide via the environment (read once at package import)::

    REPRO_KERNEL_BACKEND=auto   # or: c | numpy
    REPRO_KERNEL_CC=clang       # override the C compiler probe

or per call site::

    from repro.tinympc import use_compiled_kernels
    with use_compiled_kernels():          # auto; no-op if none available
        solver.solve(x0)

Why opt-in: the numpy fast path is bit-for-bit identical to the naive
reference by contract, while compiled matvecs legitimately differ from
BLAS in the low bits (documented tolerance in
``tests/tinympc/test_kernel_bitequality_props.py``), so flipping the
default would silently change low-bit reproducibility guarantees that
existing tests and fixtures pin.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Optional, Tuple

from . import kernels as _kernels

__all__ = [
    "available_backends", "resolve_backend", "install_backend",
    "use_compiled_kernels", "active_backend", "kernel_backend_info",
    "activate_from_env",
]

# Module attributes swapped when a compiled backend is installed.  The
# compiled implementation object provides a bound method for each.
_DISPATCH_ATTRS: Tuple[str, ...] = (
    "forward_pass", "backward_pass", "update_slack", "update_dual",
    "update_linear_cost", "update_residuals",
    "iteration_prelude", "admm_iteration",
)
# ``compute_residuals`` is intentionally not swapped: its body calls
# ``update_residuals`` through the module globals, so it follows whatever
# backend is installed.

# The numpy implementations, captured at import (before any swap).
_NUMPY_IMPLS = {name: getattr(_kernels, name) for name in _DISPATCH_ATTRS}

_active_name: str = "numpy"
_active_impl = None
_probe_cache: Dict[str, Tuple[Optional[object], str]] = {}


def _probe(name: str) -> Tuple[Optional[object], str]:
    """Try to load backend ``name`` once; memoize (impl-or-None, detail)."""
    if name in _probe_cache:
        return _probe_cache[name]
    impl, detail = None, ""
    if name == "c":
        try:
            from .compiled_c import CBackendUnavailable, load_c_backend
        except ImportError as exc:
            detail = "cffi is not installed: {}".format(exc)
        else:
            try:
                impl = load_c_backend()
                detail = "cc={cc} {cflags}".format(**impl.info())
            except CBackendUnavailable as exc:
                detail = str(exc)
    else:
        detail = "unknown backend {!r}".format(name)
    _probe_cache[name] = (impl, detail)
    return _probe_cache[name]


def available_backends() -> Dict[str, str]:
    """Probe every backend; map name → availability detail."""
    impl, detail = _probe("c")
    return {"numpy": "always available",
            "c": detail if impl is not None else "unavailable: " + detail}


def resolve_backend(name: str = "auto"):
    """Return (impl_or_None, resolved_name).  ``None`` means numpy.

    ``auto`` takes c when available, else numpy.  Asking for a specific
    unavailable backend also falls back to numpy (recorded in
    :func:`available_backends`) rather than raising: backend choice must
    never turn a working solve into a crash.
    """
    name = (name or "auto").lower()
    if name == "numpy":
        return None, "numpy"
    candidate = "c" if name == "auto" else name
    impl, _ = _probe(candidate)
    if impl is not None:
        return impl, candidate
    return None, "numpy"


def install_backend(impl) -> None:
    """Install a compiled kernel set (or restore numpy with ``None``)."""
    global _active_name, _active_impl
    if impl is None:
        for attr, original in _NUMPY_IMPLS.items():
            setattr(_kernels, attr, original)
        _active_name, _active_impl = "numpy", None
        return
    for attr in _DISPATCH_ATTRS:
        setattr(_kernels, attr, getattr(impl, attr))
    _active_name, _active_impl = impl.name, impl


@contextmanager
def use_compiled_kernels(backend: str = "auto"):
    """Route both solvers through a compiled backend for a block.

    Falls back to numpy (a no-op swap) when the requested backend is
    unavailable, mirroring ``naive.use_naive_kernels``'s shape.  Yields the
    resolved backend name.  Not thread-safe (module-level swap).
    """
    global _active_name, _active_impl
    saved = [(attr, getattr(_kernels, attr)) for attr in _DISPATCH_ATTRS]
    saved_state = (_active_name, _active_impl)
    impl, resolved = resolve_backend(backend)
    try:
        install_backend(impl)
        yield resolved
    finally:
        for attr, original in saved:
            setattr(_kernels, attr, original)
        _active_name, _active_impl = saved_state


def active_backend() -> str:
    """Name of the kernel backend currently installed (``numpy`` default).

    Part of the fleet scheduler's pool key: pooled solver workspaces carry
    backend-specific binding state, so a pool must never serve workspaces
    across a backend switch.
    """
    return _active_name


def kernel_backend_info() -> Dict[str, object]:
    """Active-backend metadata for benchmark reports and CI artifacts.

    Every backend runs its kernels on the calling thread, so ``threads``
    is always 1; the key stays for report readers that record it.
    """
    info: Dict[str, object] = {
        "name": _active_name,
        "threads": 1,
        "requested": os.environ.get("REPRO_KERNEL_BACKEND", ""),
    }
    if _active_impl is not None and hasattr(_active_impl, "info"):
        info["detail"] = _active_impl.info()
    return info


def activate_from_env() -> str:
    """Install the backend named by ``REPRO_KERNEL_BACKEND``, if any.

    Called once from ``repro.tinympc.__init__``.  Unset or ``numpy`` keeps
    the default numpy kernels without probing any toolchain.
    """
    requested = os.environ.get("REPRO_KERNEL_BACKEND", "").strip()
    if not requested or requested.lower() == "numpy":
        return "numpy"
    impl, resolved = resolve_backend(requested)
    install_backend(impl)
    return resolved
