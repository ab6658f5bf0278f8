"""C kernel backend: runtime-compiled fused ADMM iterations.

The compiled kernel backend; it needs only cffi and a C toolchain next to
CPython.  At first use it *generates* a C translation unit
with the problem shape baked in as compile-time constants (``NX``/``NU``/
``NH`` — the Exo/SYS_ATL lesson: at TinyMPC's tensor sizes, specialization
is where the speed lives), builds it with the system C compiler into a
shared library cached on disk by content hash, and calls it through cffi's
ABI mode.  One ``admm_iteration`` then costs two foreign calls (prelude +
backward pass) instead of ~10 numpy ufunc/GEMV dispatches x N horizon
steps.  The kernels compute in float64 directly on the workspace arrays,
one batch instance after another on the calling thread.

Numerical contract
------------------

* Every matrix-vector product uses **axpy ordering**: ``out[j]`` accumulates
  ``in[k] * W[k][j]`` for ``k = 0..K-1`` sequentially — the same per-element
  accumulation order as the naive reference's dot products — while
  vectorizing over ``j``.  Vectorizing the *independent* output lane never
  reassociates an individual sum, so the compiled result is deterministic
  and matches a sequential C loop bit for bit.
* The build forces ``-ffp-contract=off``: no fused multiply-add contraction,
  so every multiply and add rounds exactly like the numpy reference ops.
  What remains vs. the numpy fast path is only BLAS's (unspecified) dot
  accumulation order — bounded by the standard ``(K-1) * eps * sum|terms|``
  reordering bound and pinned by
  ``tests/tinympc/test_kernel_bitequality_props.py``.
* Elementwise kernels (slack, dual, the rho updates, residual reductions,
  the v/z copies) perform the identical operations in the identical order
  as the numpy kernels and are **bit-for-bit** equal, NaN semantics
  included (clips and maxima propagate NaN exactly like
  ``np.maximum``/``ndarray.max``).
* The ``r @ Kinf`` hoist of the backward pass is enabled on *both* layouts
  here — unlike the numpy scalar path (see
  :func:`repro.tinympc.kernels._verify_fused_kr`), the loop order is
  explicit C, so hoisting the per-step products is literally the same
  instruction sequence and cannot change a bit.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .cache import LQRCache
from .workspace import TinyMPCWorkspace

__all__ = ["CBackendUnavailable", "CKernels", "load_c_backend",
           "kernel_cache_dir"]


class CBackendUnavailable(RuntimeError):
    """No working C toolchain (or cffi) for the compiled kernel backend."""


# ---------------------------------------------------------------------------
# C source template
# ---------------------------------------------------------------------------
#
# ``{n}``/``{m}``/``{N}`` are baked per problem shape.

_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>

#define NX {n}
#define NU {m}
#define NH {N}
#define XS (NH * NX)
#define US ((NH - 1) * NU)

typedef struct {{
  double *x, *u, *q, *r, *p, *d, *v, *vnew, *z, *znew, *g, *y, *Xref, *Uref;
  double *prs, *drs, *pri, *dri;
  const double *negKinfT, *AT, *BT, *Bmat, *QuuT, *AmBKtT, *Kinf;
  const double *negR, *negQ, *negPinf;
  const double *umin, *umax, *xmin, *xmax;
  double rho;
  int32_t batch;
}} AdmmWs;

/* out[j] = sum_k in[k] * W[k*jd + j], accumulated k-sequentially (axpy
 * order).  Each output lane's sum order equals the plain dot product's, so
 * vectorizing over j is exact. */
static inline void mv(double *restrict out, const double *restrict in,
                      const double *restrict W, int kd, int jd) {{
  const double a0 = in[0];
  for (int j = 0; j < jd; j++) out[j] = a0 * W[j];
  for (int k = 1; k < kd; k++) {{
    const double a = in[k];
    const double *restrict w = W + (size_t)k * jd;
    for (int j = 0; j < jd; j++) out[j] += a * w[j];
  }}
}}

/* minimum(maximum(t, lo), hi) with numpy NaN propagation. */
static inline double clip1(double t, double lo, double hi) {{
  if (t != t) return t;
  t = t > lo ? t : lo;
  return t < hi ? t : hi;
}}

/* max |a - b| with numpy's NaN-propagating max. */
static inline double maxabsdiff(const double *restrict a,
                                const double *restrict b, int nelem) {{
  double mx = fabs(a[0] - b[0]);
  for (int k = 1; k < nelem; k++) {{
    const double t = fabs(a[k] - b[k]);
    if (t > mx || t != t) mx = t;
  }}
  return mx;
}}

static inline void fwd_b(const AdmmWs *ws, int32_t b) {{
  double *restrict x = ws->x + (size_t)b * XS;
  double *restrict u = ws->u + (size_t)b * US;
  const double *restrict d = ws->d + (size_t)b * US;
  double t_m[NU], t_n[NX], t_n2[NX];
  for (int i = 0; i < NH - 1; i++) {{
    const double *xi = x + (size_t)i * NX;
    double *ui = u + (size_t)i * NU;
    mv(t_m, xi, ws->negKinfT, NX, NU);
    for (int j = 0; j < NU; j++) ui[j] = t_m[j] - d[(size_t)i * NU + j];
    mv(t_n, xi, ws->AT, NX, NX);
    mv(t_n2, ui, ws->BT, NU, NX);
    double *xn = x + (size_t)(i + 1) * NX;
    for (int j = 0; j < NX; j++) xn[j] = t_n[j] + t_n2[j];
  }}
}}

static inline void bwd_b(const AdmmWs *ws, int32_t b) {{
  double *restrict p = ws->p + (size_t)b * XS;
  double *restrict dd = ws->d + (size_t)b * US;
  const double *restrict q = ws->q + (size_t)b * XS;
  const double *restrict r = ws->r + (size_t)b * US;
  /* Hoisted r @ Kinf: r never changes inside the recursion and the loop
   * order here is explicit, so the hoist is exactly the per-step product
   * (the numpy scalar path cannot prove that under BLAS/FMA — see
   * kernels._verify_fused_kr). */
  double kr[(NH - 1) * NX];
  for (int i = 0; i < NH - 1; i++)
    mv(kr + (size_t)i * NX, r + (size_t)i * NU, ws->Kinf, NU, NX);
  double t_m[NU], t_n[NX];
  for (int i = NH - 2; i >= 0; i--) {{
    const double *pn = p + (size_t)(i + 1) * NX;
    mv(t_m, pn, ws->Bmat, NX, NU);
    for (int j = 0; j < NU; j++) t_m[j] += r[(size_t)i * NU + j];
    mv(dd + (size_t)i * NU, t_m, ws->QuuT, NU, NU);
    mv(t_n, pn, ws->AmBKtT, NX, NX);
    const double *qi = q + (size_t)i * NX;
    const double *kri = kr + (size_t)i * NX;
    double *pi = p + (size_t)i * NX;
    for (int j = 0; j < NX; j++) pi[j] = (qi[j] + t_n[j]) - kri[j];
  }}
}}

static inline void slack_b(const AdmmWs *ws, int32_t b) {{
  const double *restrict u = ws->u + (size_t)b * US;
  const double *restrict y = ws->y + (size_t)b * US;
  double *restrict znew = ws->znew + (size_t)b * US;
  for (int i = 0; i < NH - 1; i++)
    for (int j = 0; j < NU; j++) {{
      const size_t k = (size_t)i * NU + j;
      znew[k] = clip1(u[k] + y[k], ws->umin[j], ws->umax[j]);
    }}
  const double *restrict x = ws->x + (size_t)b * XS;
  const double *restrict g = ws->g + (size_t)b * XS;
  double *restrict vnew = ws->vnew + (size_t)b * XS;
  for (int i = 0; i < NH; i++)
    for (int j = 0; j < NX; j++) {{
      const size_t k = (size_t)i * NX + j;
      vnew[k] = clip1(x[k] + g[k], ws->xmin[j], ws->xmax[j]);
    }}
}}

static inline void dual_b(const AdmmWs *ws, int32_t b) {{
  const double *restrict u = ws->u + (size_t)b * US;
  const double *restrict znew = ws->znew + (size_t)b * US;
  double *restrict y = ws->y + (size_t)b * US;
  for (int k = 0; k < US; k++) y[k] += u[k] - znew[k];
  const double *restrict x = ws->x + (size_t)b * XS;
  const double *restrict vnew = ws->vnew + (size_t)b * XS;
  double *restrict g = ws->g + (size_t)b * XS;
  for (int k = 0; k < XS; k++) g[k] += x[k] - vnew[k];
}}

static inline void cost_b(const AdmmWs *ws, int32_t b) {{
  const double rho = ws->rho;
  const double *restrict Uref = ws->Uref + (size_t)b * US;
  const double *restrict znew = ws->znew + (size_t)b * US;
  const double *restrict y = ws->y + (size_t)b * US;
  double *restrict r = ws->r + (size_t)b * US;
  double t_m[NU], t_n[NX];
  for (int i = 0; i < NH - 1; i++) {{
    const size_t o = (size_t)i * NU;
    mv(t_m, Uref + o, ws->negR, NU, NU);
    for (int j = 0; j < NU; j++)
      r[o + j] = t_m[j] - rho * (znew[o + j] - y[o + j]);
  }}
  const double *restrict Xref = ws->Xref + (size_t)b * XS;
  const double *restrict vnew = ws->vnew + (size_t)b * XS;
  const double *restrict g = ws->g + (size_t)b * XS;
  double *restrict q = ws->q + (size_t)b * XS;
  for (int i = 0; i < NH; i++) {{
    const size_t o = (size_t)i * NX;
    mv(t_n, Xref + o, ws->negQ, NX, NX);
    for (int j = 0; j < NX; j++)
      q[o + j] = t_n[j] - rho * (vnew[o + j] - g[o + j]);
  }}
  const size_t last = (size_t)(NH - 1) * NX;
  double *restrict p = ws->p + (size_t)b * XS;
  mv(t_n, Xref + last, ws->negPinf, NX, NX);
  for (int j = 0; j < NX; j++)
    p[last + j] = t_n[j] - rho * (vnew[last + j] - g[last + j]);
}}

static inline void resid_b(const AdmmWs *ws, int32_t b) {{
  const size_t ox = (size_t)b * XS, ou = (size_t)b * US;
  ws->prs[b] = maxabsdiff(ws->x + ox, ws->vnew + ox, XS);
  ws->drs[b] = ws->rho * maxabsdiff(ws->v + ox, ws->vnew + ox, XS);
  ws->pri[b] = maxabsdiff(ws->u + ou, ws->znew + ou, US);
  ws->dri[b] = ws->rho * maxabsdiff(ws->z + ou, ws->znew + ou, US);
}}

static inline void copyvz_b(const AdmmWs *ws, int32_t b) {{
  memcpy(ws->v + (size_t)b * XS, ws->vnew + (size_t)b * XS,
         XS * sizeof(double));
  memcpy(ws->z + (size_t)b * US, ws->znew + (size_t)b * US,
         US * sizeof(double));
}}

static inline void prelude_b(const AdmmWs *ws, int32_t b,
                             int32_t with_residuals) {{
  fwd_b(ws, b);
  slack_b(ws, b);
  dual_b(ws, b);
  cost_b(ws, b);
  if (with_residuals) resid_b(ws, b);
  copyvz_b(ws, b);
}}

void admm_forward(AdmmWs *ws) {{
  for (int32_t b = 0; b < ws->batch; b++) fwd_b(ws, b);
}}
void admm_backward(AdmmWs *ws) {{
  for (int32_t b = 0; b < ws->batch; b++) bwd_b(ws, b);
}}
void admm_slack(AdmmWs *ws) {{
  for (int32_t b = 0; b < ws->batch; b++) slack_b(ws, b);
}}
void admm_dual(AdmmWs *ws) {{
  for (int32_t b = 0; b < ws->batch; b++) dual_b(ws, b);
}}
void admm_cost(AdmmWs *ws) {{
  for (int32_t b = 0; b < ws->batch; b++) cost_b(ws, b);
}}
void admm_resid(AdmmWs *ws) {{
  for (int32_t b = 0; b < ws->batch; b++) resid_b(ws, b);
}}
void admm_prelude(AdmmWs *ws, int32_t with_residuals) {{
  for (int32_t b = 0; b < ws->batch; b++) prelude_b(ws, b, with_residuals);
}}
void admm_iter(AdmmWs *ws, int32_t with_residuals) {{
  for (int32_t b = 0; b < ws->batch; b++) {{
    prelude_b(ws, b, with_residuals);
    bwd_b(ws, b);
  }}
}}
"""

_CDEF = """
typedef struct {
  double *x, *u, *q, *r, *p, *d, *v, *vnew, *z, *znew, *g, *y, *Xref, *Uref;
  double *prs, *drs, *pri, *dri;
  const double *negKinfT, *AT, *BT, *Bmat, *QuuT, *AmBKtT, *Kinf;
  const double *negR, *negQ, *negPinf;
  const double *umin, *umax, *xmin, *xmax;
  double rho;
  int32_t batch;
} AdmmWs;
void admm_forward(AdmmWs *ws);
void admm_backward(AdmmWs *ws);
void admm_slack(AdmmWs *ws);
void admm_dual(AdmmWs *ws);
void admm_cost(AdmmWs *ws);
void admm_resid(AdmmWs *ws);
void admm_prelude(AdmmWs *ws, int32_t with_residuals);
void admm_iter(AdmmWs *ws, int32_t with_residuals);
"""


# ---------------------------------------------------------------------------
# Build + load
# ---------------------------------------------------------------------------

def kernel_cache_dir() -> Path:
    """Where compiled kernel libraries are cached across processes."""
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
               "-fno-unsafe-math-optimizations"]


def _flag_candidates() -> Tuple[Tuple[str, ...], ...]:
    extra = os.environ.get("REPRO_KERNEL_CFLAGS")
    if extra is not None:
        return (tuple(_BASE_FLAGS + extra.split()),)
    # Preference order: native SIMD, then portable.
    return (tuple(_BASE_FLAGS + ["-march=native"]), tuple(_BASE_FLAGS))


_ffi = None


def _get_ffi():
    global _ffi
    if _ffi is None:
        try:
            import cffi
        except ImportError as exc:
            raise CBackendUnavailable("cffi is not installed") from exc
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        _ffi = ffi
    return _ffi


_LIBS: Dict[Tuple[int, int, int], object] = {}
_BUILD_DETAIL: Dict[str, str] = {}


def _build_library(n: int, m: int, N: int):
    ffi = _get_ffi()
    cc = _compiler()
    if cc is None:
        raise CBackendUnavailable("no C compiler found (cc/gcc/clang)")
    source = _SOURCE.format(n=n, m=m, N=N)
    cache = kernel_cache_dir()
    last_error = None
    for flags in _flag_candidates():
        tag = hashlib.sha256("\x00".join(
            (source, cc, " ".join(flags), platform.machine(), sys.platform)
        ).encode()).hexdigest()[:16]
        so_path = cache / "admm_{}x{}x{}_{}.so".format(n, m, N, tag)
        if so_path.exists():
            _BUILD_DETAIL["flags"] = " ".join(flags)
            _BUILD_DETAIL["cc"] = cc
            return ffi.dlopen(str(so_path))
        try:
            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=str(cache)) as tmp:
                c_path = Path(tmp) / "admm.c"
                c_path.write_text(source)
                out_path = Path(tmp) / "admm.so"
                result = subprocess.run(
                    [cc, *flags, str(c_path), "-o", str(out_path), "-lm"],
                    capture_output=True, text=True, timeout=120)
                if result.returncode != 0:
                    last_error = result.stderr.strip()[-500:]
                    continue
                os.replace(str(out_path), str(so_path))   # atomic publish
            _BUILD_DETAIL["flags"] = " ".join(flags)
            _BUILD_DETAIL["cc"] = cc
            return ffi.dlopen(str(so_path))
        except (OSError, subprocess.SubprocessError) as exc:
            last_error = str(exc)
            continue
    raise CBackendUnavailable(
        "C kernel build failed with every flag set: {}".format(last_error))


def _library_for(n: int, m: int, N: int):
    key = (n, m, N)
    lib = _LIBS.get(key)
    if lib is None:
        lib = _build_library(n, m, N)
        _LIBS[key] = lib
    return lib


# ---------------------------------------------------------------------------
# Per-workspace binding
# ---------------------------------------------------------------------------

_WS_FIELDS = ("x", "u", "q", "r", "p", "d", "v", "vnew", "z", "znew",
              "g", "y", "Xref", "Uref")
_RESID_FIELDS = (("prs", "primal_residual_state"),
                 ("drs", "dual_residual_state"),
                 ("pri", "primal_residual_input"),
                 ("dri", "dual_residual_input"))


class _CBinding:
    """cffi struct + keepalive buffers binding one workspace to the library.

    Built once per workspace (stored as ``ws._c_kernel_binding``); the
    workspace-buffer invariant (arrays are written in place, never rebound)
    makes the cached pointers stable.  Operator pointers are rebuilt when
    the cache object changes, residual pointers when legacy (naive) code
    rebound the residual fields.
    """

    __slots__ = ("lib", "ffi", "c", "keep", "cache", "problem",
                 "resid_arrays")

    def __init__(self, ws: TinyMPCWorkspace) -> None:
        n, m, N = ws.state_dim, ws.input_dim, ws.horizon
        self.lib = _library_for(n, m, N)
        self.ffi = _get_ffi()
        self.cache = None
        self.problem = None
        self.keep = []
        self.c = self.ffi.new("AdmmWs *")
        self.c.batch = ws.lead_shape[0] if ws.lead_shape else 1
        for name in _WS_FIELDS:
            self._point(name, getattr(ws, name))
        self.resid_arrays = {}
        self.rebind_residuals(ws)

    def _point(self, field: str, array: np.ndarray) -> None:
        if array.dtype != np.float64 or not array.flags.c_contiguous:
            raise ValueError(
                "workspace buffer {} must be C-contiguous float64".format(field))
        buf = self.ffi.from_buffer(array)
        self.keep.append(buf)
        setattr(self.c, field, self.ffi.cast("double *", buf))

    def rebind_residuals(self, ws: TinyMPCWorkspace) -> None:
        for field, attr in _RESID_FIELDS:
            array = getattr(ws, attr)
            self.resid_arrays[field] = array
            self._point(field, array)

    def residuals_stale(self, ws: TinyMPCWorkspace) -> bool:
        for field, attr in _RESID_FIELDS:
            if getattr(ws, attr) is not self.resid_arrays[field]:
                return True
        return False

    def bind_operators(self, ws: TinyMPCWorkspace, cache: LQRCache) -> None:
        """(Re)point the operator fields at contiguous float64 copies.

        The numpy kernels deliberately keep transpose *views* (their BLAS
        path depends on operand strides); the C loops spell out their own
        order, so contiguous row-major copies are both legal and fastest.
        """
        problem = ws.problem
        ops = {
            "negKinfT": cache.neg_KinfT, "AT": problem.AT, "BT": problem.BT,
            "Bmat": problem.B, "QuuT": cache.Quu_invT, "AmBKtT": cache.AmBKtT,
            "Kinf": cache.Kinf, "negR": problem.neg_R, "negQ": problem.neg_Q,
            "negPinf": cache.neg_Pinf,
            "umin": problem.u_min, "umax": problem.u_max,
            "xmin": problem.x_min, "xmax": problem.x_max,
        }
        for field, value in ops.items():
            array = np.ascontiguousarray(value, dtype=np.float64)
            buf = self.ffi.from_buffer(array)
            self.keep.append(array)
            self.keep.append(buf)
            setattr(self.c, field, self.ffi.cast("double *", buf))
        self.c.rho = float(problem.rho)
        self.cache = cache
        self.problem = problem


def _binding(ws: TinyMPCWorkspace, cache: Optional[LQRCache]) -> _CBinding:
    binding = getattr(ws, "_c_kernel_binding", None)
    if binding is None:
        binding = _CBinding(ws)
        ws._c_kernel_binding = binding
    if binding.residuals_stale(ws):
        binding.rebind_residuals(ws)
    if cache is not None and binding.cache is not cache:
        binding.bind_operators(ws, cache)
    elif binding.cache is None:
        # Elementwise kernels need rho and the bounds even when the call
        # site has no cache in hand; bind from the workspace's problem
        # with a placeholder-free operator set derived lazily.
        from .cache import compute_cache
        binding.bind_operators(ws, compute_cache(ws.problem))
    return binding


# ---------------------------------------------------------------------------
# Kernel implementation object (the compiled-dispatch contract)
# ---------------------------------------------------------------------------

class CKernels:
    """Kernel set backed by the runtime-compiled C library."""

    name = "c"

    def __init__(self) -> None:
        # Fail fast at construction if the toolchain is unusable: building
        # the paper's reference shape proves compiler + loader end to end.
        _library_for(12, 4, 10)

    @staticmethod
    def info() -> Dict[str, object]:
        return {
            "cc": _BUILD_DETAIL.get("cc", ""),
            "cflags": _BUILD_DETAIL.get("flags", ""),
            "cached_shapes": sorted(_LIBS),
        }

    # -- kernel entry points -------------------------------------------------
    def forward_pass(self, ws, cache) -> None:
        binding = _binding(ws, cache)
        binding.lib.admm_forward(binding.c)

    def backward_pass(self, ws, cache) -> None:
        binding = _binding(ws, cache)
        binding.lib.admm_backward(binding.c)

    def update_slack(self, ws) -> None:
        binding = _binding(ws, None)
        binding.lib.admm_slack(binding.c)

    def update_dual(self, ws) -> None:
        binding = _binding(ws, None)
        binding.lib.admm_dual(binding.c)

    def update_linear_cost(self, ws, cache) -> None:
        binding = _binding(ws, cache)
        binding.lib.admm_cost(binding.c)

    def update_residuals(self, ws) -> None:
        if type(ws.primal_residual_state) is not np.ndarray:
            ws._reset_residuals()
        binding = _binding(ws, None)
        binding.lib.admm_resid(binding.c)

    def iteration_prelude(self, ws, cache, with_residuals: bool = True) -> None:
        if with_residuals and type(ws.primal_residual_state) is not np.ndarray:
            ws._reset_residuals()
        binding = _binding(ws, cache)
        binding.lib.admm_prelude(binding.c, 1 if with_residuals else 0)

    def admm_iteration(self, ws, cache, with_residuals: bool = True) -> None:
        if with_residuals and type(ws.primal_residual_state) is not np.ndarray:
            ws._reset_residuals()
        binding = _binding(ws, cache)
        binding.lib.admm_iter(binding.c, 1 if with_residuals else 0)


def load_c_backend() -> CKernels:
    """Build (or load from cache) the C backend; raises CBackendUnavailable."""
    return CKernels()
