"""Runtime-compiled C libraries: one toolchain probe and one on-disk cache.

The package compiles two C libraries at first use: the ADMM kernels
(:mod:`repro.tinympc.compiled_c`) and the plant tick
(:mod:`repro.drone.compiled_plant`).  :func:`load` builds a generated C
translation unit with the system compiler into a shared library, caches it
on disk under a hash of the source, compiler and flags, and opens it
through cffi's ABI mode.  cffi is imported on the first :func:`load`, so a
process that never asks for a library never pays for it.

Environment, read on every build:

* ``REPRO_KERNEL_CC`` — the compiler (default: the first of ``cc``,
  ``gcc``, ``clang`` on ``PATH``); a name that is not on ``PATH`` means no
  compiler;
* ``REPRO_KERNEL_CFLAGS`` — flags added to the fixed ones below (default:
  ``-march=native``, and without it if that build fails);
* ``REPRO_KERNEL_CACHE`` — the cache directory (default
  ``~/.cache/repro-kernels``).

Every build gets ``-ffp-contract=off -fno-unsafe-math-optimizations``: no
fused multiply-add and no reassociation, so each C multiply and add rounds
as the Python or numpy operation it mirrors.  It also gets
``-fno-builtin-sin -fno-builtin-cos``, so that each call stays the libm
function :mod:`math` calls: GCC would otherwise merge a ``sin``/``cos``
pair into one ``sincos`` call, a separate libm routine.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = ["CBuildUnavailable", "CLibrary", "load"]


class CBuildUnavailable(RuntimeError):
    """No cffi, no C compiler, or no flag set the compiler accepts."""


@dataclass(frozen=True)
class CLibrary:
    """A loaded library: its cffi ``ffi`` and ``lib``, and how it was built."""

    ffi: object
    lib: object
    cc: str
    flags: str


def _cache_dir() -> Path:
    """Where compiled libraries are cached across processes."""
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if root:
        return Path(root).expanduser()
    return Path.home() / ".cache" / "repro-kernels"


def _compiler() -> Optional[str]:
    override = os.environ.get("REPRO_KERNEL_CC")
    if override:
        return override if shutil.which(override) else None
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


_BASE_FLAGS = ["-O3", "-shared", "-fPIC", "-ffp-contract=off",
               "-fno-unsafe-math-optimizations", "-fno-builtin-sin",
               "-fno-builtin-cos"]


def _flag_candidates() -> Tuple[Tuple[str, ...], ...]:
    extra = os.environ.get("REPRO_KERNEL_CFLAGS")
    if extra is not None:
        return (tuple(_BASE_FLAGS + extra.split()),)
    # Preference order: native SIMD, then portable.
    return (tuple(_BASE_FLAGS + ["-march=native"]), tuple(_BASE_FLAGS))


_FFIS: Dict[str, object] = {}


def _ffi_for(cdef: str):
    """One cffi ``FFI`` per declaration set, shared by its libraries."""
    ffi = _FFIS.get(cdef)
    if ffi is None:
        try:
            import cffi
        except ImportError as exc:
            raise CBuildUnavailable("cffi is not installed") from exc
        ffi = cffi.FFI()
        ffi.cdef(cdef)
        _FFIS[cdef] = ffi
    return ffi


def _build(cc: str, flags: Tuple[str, ...], source: str,
           so_path: Path) -> Optional[str]:
    """Compile ``source`` into ``so_path``; the error, or ``None``."""
    try:
        so_path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=str(so_path.parent)) as tmp:
            c_path = Path(tmp) / "lib.c"
            c_path.write_text(source)
            out_path = Path(tmp) / "lib.so"
            result = subprocess.run(
                [cc, *flags, str(c_path), "-o", str(out_path), "-lm"],
                capture_output=True, text=True, timeout=120)
            if result.returncode != 0:
                return result.stderr.strip()[-500:]
            os.replace(str(out_path), str(so_path))   # atomic publish
    except (OSError, subprocess.SubprocessError) as exc:
        return str(exc)
    return None


def load(name: str, source: str, cdef: str) -> CLibrary:
    """Build ``source`` (or take it from the cache) and open it.

    ``name`` prefixes the cached file name; ``cdef`` declares what the
    library exports.  Callers keep what they load.  Raises
    :class:`CBuildUnavailable` without cffi, without a compiler, or when
    no flag set builds a library that opens.
    """
    ffi = _ffi_for(cdef)
    cc = _compiler()
    if cc is None:
        raise CBuildUnavailable("no C compiler found (cc/gcc/clang)")
    last_error = None
    for flags in _flag_candidates():
        tag = hashlib.sha256("\x00".join(
            (source, cc, " ".join(flags), platform.machine(), sys.platform)
        ).encode()).hexdigest()[:16]
        so_path = _cache_dir() / "{}_{}.so".format(name, tag)
        if not so_path.exists():
            last_error = _build(cc, flags, source, so_path)
            if last_error is not None:
                continue
        try:
            return CLibrary(ffi, ffi.dlopen(str(so_path)), cc,
                            " ".join(flags))
        except OSError as exc:
            last_error = str(exc)
    raise CBuildUnavailable(
        "C build of {} failed with every flag set: {}".format(
            name, last_error))
