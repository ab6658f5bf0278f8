"""C kernel backend: the two ADMM solver calls as runtime-compiled C.

The compiled kernel backend; it needs only cffi and a C toolchain next to
CPython.  At first use it *generates* a C translation unit
with the problem shape baked in as compile-time constants (``NX``/``NU``/
``NH`` — the Exo/SYS_ATL lesson: at TinyMPC's tensor sizes, specialization
is where the speed lives), builds and caches it through
:func:`repro.cbuild.load`, and calls it through cffi's ABI mode.  The
library exports exactly the two calls both solvers make per ADMM
iteration (:data:`repro.tinympc.kernels.SOLVER_KERNELS`):
``admm_prelude`` (forward pass, slack, dual, linear cost, residuals and the
v/z copy) and ``admm_backward``, each one foreign call instead of ~10 numpy
ufunc/GEMV dispatches x N horizon steps.  The kernels compute in float64
directly on the workspace arrays, one batch instance after another on the
calling thread.

Numerical contract
------------------

* Every matrix-vector product uses **axpy ordering**: ``out[j]`` accumulates
  ``in[k] * W[k][j]`` for ``k = 0..K-1`` sequentially — the same per-element
  accumulation order as the naive reference's dot products — while
  vectorizing over ``j``.  Vectorizing the *independent* output lane never
  reassociates an individual sum, so the compiled result is deterministic
  and matches a sequential C loop bit for bit.
* The build forces ``-ffp-contract=off`` (:mod:`repro.cbuild`): no fused
  multiply-add contraction, so every multiply and add rounds exactly like
  the numpy reference ops.
  What remains vs. the numpy fast path is only BLAS's (unspecified) dot
  accumulation order — bounded by the standard ``(K-1) * eps * sum|terms|``
  reordering bound and pinned, per entry point, by
  ``tests/tinympc/test_kernel_bitequality_props.py``.
* The elementwise stages (slack, dual, the rho updates, residual
  reductions, the v/z copies) perform the identical operations in the
  identical order as the numpy kernels, NaN semantics included (clips and
  maxima propagate NaN exactly like ``np.maximum``/``ndarray.max``); inside
  the prelude they read the matvec stages' outputs, so the prelude as a
  whole carries the matvec tolerance.
* The ``r @ Kinf`` hoist of the backward pass is enabled on *both* layouts
  here — unlike the numpy scalar path (see
  :func:`repro.tinympc.kernels._verify_fused_kr`), the loop order is
  explicit C, so hoisting the per-step products is literally the same
  instruction sequence and cannot change a bit.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..cbuild import CLibrary, load
from .cache import LQRCache
from .workspace import RESIDUAL_FIELDS, WORKSPACE_BUFFERS, TinyMPCWorkspace

__all__ = ["CKernels", "load_c_backend"]


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
  double *primal_residual_state, *dual_residual_state;
  double *primal_residual_input, *dual_residual_input;
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
  ws->primal_residual_state[b] = maxabsdiff(ws->x + ox, ws->vnew + ox, XS);
  ws->dual_residual_state[b] =
      ws->rho * maxabsdiff(ws->v + ox, ws->vnew + ox, XS);
  ws->primal_residual_input[b] = maxabsdiff(ws->u + ou, ws->znew + ou, US);
  ws->dual_residual_input[b] =
      ws->rho * maxabsdiff(ws->z + ou, ws->znew + ou, US);
}}

static inline void copyvz_b(const AdmmWs *ws, int32_t b) {{
  memcpy(ws->v + (size_t)b * XS, ws->vnew + (size_t)b * XS,
         XS * sizeof(double));
  memcpy(ws->z + (size_t)b * US, ws->znew + (size_t)b * US,
         US * sizeof(double));
}}

static inline void prelude_b(const AdmmWs *ws, int32_t b) {{
  fwd_b(ws, b);
  slack_b(ws, b);
  dual_b(ws, b);
  cost_b(ws, b);
  resid_b(ws, b);
  copyvz_b(ws, b);
}}

void admm_prelude(AdmmWs *ws) {{
  for (int32_t b = 0; b < ws->batch; b++) prelude_b(ws, b);
}}
void admm_backward(AdmmWs *ws) {{
  for (int32_t b = 0; b < ws->batch; b++) bwd_b(ws, b);
}}
"""

_CDEF = """
typedef struct {
  double *x, *u, *q, *r, *p, *d, *v, *vnew, *z, *znew, *g, *y, *Xref, *Uref;
  double *primal_residual_state, *dual_residual_state;
  double *primal_residual_input, *dual_residual_input;
  const double *negKinfT, *AT, *BT, *Bmat, *QuuT, *AmBKtT, *Kinf;
  const double *negR, *negQ, *negPinf;
  const double *umin, *umax, *xmin, *xmax;
  double rho;
  int32_t batch;
} AdmmWs;
void admm_prelude(AdmmWs *ws);
void admm_backward(AdmmWs *ws);
"""


# ---------------------------------------------------------------------------
# Build + load
# ---------------------------------------------------------------------------

_LIBS: Dict[Tuple[int, int, int], CLibrary] = {}


def _library_for(n: int, m: int, N: int) -> CLibrary:
    key = (n, m, N)
    library = _LIBS.get(key)
    if library is None:
        library = load("admm_{}x{}x{}".format(n, m, N),
                       _SOURCE.format(n=n, m=m, N=N), _CDEF)
        _LIBS[key] = library
    return library


# ---------------------------------------------------------------------------
# Per-workspace binding
# ---------------------------------------------------------------------------

class _CBinding:
    """cffi struct + keepalive buffers binding one workspace to the library.

    Built once per workspace (stored as ``ws._c_kernel_binding``); the
    workspace-buffer invariant (arrays, residual outputs included, are
    written in place, never rebound) makes the cached pointers stable.
    Operator pointers are rebuilt when the cache object changes.
    """

    __slots__ = ("lib", "ffi", "c", "keep", "cache")

    def __init__(self, ws: TinyMPCWorkspace) -> None:
        library = _library_for(ws.state_dim, ws.input_dim, ws.horizon)
        self.lib = library.lib
        self.ffi = library.ffi
        self.cache = None
        self.keep = []
        self.c = self.ffi.new("AdmmWs *")
        self.c.batch = ws.lead_shape[0] if ws.lead_shape else 1
        for name in WORKSPACE_BUFFERS + RESIDUAL_FIELDS:
            self._point(name, getattr(ws, name))

    def _point(self, field: str, array: np.ndarray) -> None:
        if array.dtype != np.float64 or not array.flags.c_contiguous:
            raise ValueError(
                "workspace buffer {} must be C-contiguous float64".format(field))
        buf = self.ffi.from_buffer(array)
        self.keep.append(buf)
        setattr(self.c, field, self.ffi.cast("double *", buf))

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


def _binding(ws: TinyMPCWorkspace, cache: LQRCache) -> _CBinding:
    binding = getattr(ws, "_c_kernel_binding", None)
    if binding is None:
        binding = _CBinding(ws)
        ws._c_kernel_binding = binding
    if binding.cache is not cache:
        binding.bind_operators(ws, cache)
    return binding


# ---------------------------------------------------------------------------
# Kernel implementation object (the compiled-dispatch contract)
# ---------------------------------------------------------------------------

class CKernels:
    """The two solver calls backed by the runtime-compiled C library."""

    name = "c"

    def __init__(self) -> None:
        # Fail fast at construction if the toolchain is unusable: building
        # the paper's reference shape proves compiler + loader end to end.
        _library_for(12, 4, 10)

    @staticmethod
    def info() -> Dict[str, object]:
        library = _library_for(12, 4, 10)
        return {
            "cc": library.cc,
            "cflags": library.flags,
            "cached_shapes": sorted(_LIBS),
        }

    def iteration_prelude(self, ws, cache) -> None:
        binding = _binding(ws, cache)
        binding.lib.admm_prelude(binding.c)

    def backward_pass(self, ws, cache) -> None:
        binding = _binding(ws, cache)
        binding.lib.admm_backward(binding.c)


def load_c_backend() -> CKernels:
    """Build (or load from cache) the C backend.

    Raises :class:`repro.cbuild.CBuildUnavailable` without a toolchain.
    """
    return CKernels()
