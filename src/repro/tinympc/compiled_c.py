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
directly on the workspace's step-major arena rows, on the calling thread:
the recursions knot point by knot point, four instances of the batch at a
time (independent rows, so their accumulation chains overlap), and the
elementwise stages and residual reductions over whole buffers.

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
  reductions, the v/z copies) perform the identical operations as the
  numpy kernels, NaN semantics included (clips and maxima propagate NaN
  like ``np.maximum``/``ndarray.max``; maxima are exact, so their order is
  free); inside the prelude they read the matvec stages' outputs, so the
  prelude as a whole carries the matvec tolerance.
* The ``Kinf' r`` products of the backward pass are computed per (step,
  instance) inside the recursion on *both* layouts — unlike the numpy
  scalar path (see :func:`repro.tinympc.kernels._verify_fused_kr`), the
  loop order is explicit C, so where the product is taken cannot change a
  bit.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..cbuild import CLibrary, load
from .cache import LQRCache
from .workspace import (
    INPUT_BUFFERS, RESIDUAL_FIELDS, STATE_BUFFERS, TinyMPCWorkspace)

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

/* Buffers are step-major: knot point i of instance b starts at
 * (i * batch + b) * NX (states) or (i * batch + b) * NU (inputs), so each
 * instance's knot points sit SX / SU doubles apart. */
#define SX ((size_t)ws->batch * NX)
#define SU ((size_t)ws->batch * NU)

/* Rows per block of the blocked loops below: independent rows (instances
 * of one step, or (step, instance) rows of a whole buffer) advance
 * together, so their accumulation chains overlap. */
#define RB 4
#define NMAX (NX > NU ? NX : NU)

/* out[r*os + j] = sum_k in[r*is + k] * W[k*jd + j] for rows r < nr,
 * accumulated k-sequentially (axpy order).  Each element's sum order
 * equals the plain dot product's, whatever nr is, so vectorizing over j
 * and interleaving rows are exact. */
static inline void mv(double *restrict out, size_t os,
                      const double *restrict in, size_t is,
                      const double *restrict W, int kd, int jd, int nr) {{
  for (int r = 0; r < nr; r++) {{
    const double a0 = in[(size_t)r * is];
    for (int j = 0; j < jd; j++) out[(size_t)r * os + j] = a0 * W[j];
  }}
  for (int k = 1; k < kd; k++) {{
    const double *restrict w = W + (size_t)k * jd;
    for (int r = 0; r < nr; r++) {{
      const double a = in[(size_t)r * is + k];
      for (int j = 0; j < jd; j++) out[(size_t)r * os + j] += a * w[j];
    }}
  }}
}}

/* minimum(maximum(t, lo), hi) with numpy NaN propagation. */
static inline double clip1(double t, double lo, double hi) {{
  if (t != t) return t;
  t = t > lo ? t : lo;
  return t < hi ? t : hi;
}}

/* t if it is larger or NaN, else mx: numpy's NaN-propagating max step. */
static inline double max1(double mx, double t) {{
  return (t > mx || t != t) ? t : mx;
}}

/* out[b] = scale * max |a - c| over every step and column of instance b,
 * with numpy's NaN-propagating max: a running max over the steps for each
 * (instance, column) across the contiguous step slabs, then one over each
 * instance's columns — the order the numpy kernels reduce in.  Maxima are
 * exact, so the order cannot change the value. */
static void maxabsdiff(double *restrict out, const double *restrict a,
                       const double *restrict c, int steps, int cols,
                       int32_t batch, double scale) {{
  const size_t width = (size_t)batch * cols;
  double mx[width];
  for (size_t k = 0; k < width; k++) mx[k] = fabs(a[k] - c[k]);
  for (int i = 1; i < steps; i++) {{
    const double *ai = a + (size_t)i * width, *ci = c + (size_t)i * width;
    for (size_t k = 0; k < width; k++)
      mx[k] = max1(mx[k], fabs(ai[k] - ci[k]));
  }}
  for (int32_t b = 0; b < batch; b++) {{
    const double *row = mx + (size_t)b * cols;
    double m = row[0];
    for (int k = 1; k < cols; k++) m = max1(m, row[k]);
    out[b] = scale * m;
  }}
}}

/* Both recursions run knot point by knot point over every instance of
 * the batch, RB instances at a time: a step's slab is contiguous, so the
 * block's rows sit NX (or NU) doubles apart. */
static inline void fwd_rows(const AdmmWs *ws, int i, int32_t b, int nr) {{
  double t_m[RB * NU], t_n[RB * NX], t_n2[RB * NX];
  const double *xb = ws->x + (size_t)i * SX + (size_t)b * NX;
  double *xn = ws->x + (size_t)(i + 1) * SX + (size_t)b * NX;
  double *ub = ws->u + (size_t)i * SU + (size_t)b * NU;
  const double *db = ws->d + (size_t)i * SU + (size_t)b * NU;
  mv(t_m, NU, xb, NX, ws->negKinfT, NX, NU, nr);
  for (int k = 0; k < nr * NU; k++) ub[k] = t_m[k] - db[k];
  mv(t_n, NX, xb, NX, ws->AT, NX, NX, nr);
  mv(t_n2, NX, ub, NU, ws->BT, NU, NX, nr);
  for (int k = 0; k < nr * NX; k++) xn[k] = t_n[k] + t_n2[k];
}}

/* The r @ Kinf product of each (step, instance) is taken inside the
 * recursion; r never changes there and the loop order is explicit, so
 * this is exactly the hoisted product (the numpy scalar path cannot
 * prove that under BLAS/FMA — see kernels._verify_fused_kr). */
static inline void bwd_rows(const AdmmWs *ws, int i, int32_t b, int nr) {{
  double t_m[RB * NU], t_n[RB * NX], kr[RB * NX];
  const double *pn = ws->p + (size_t)(i + 1) * SX + (size_t)b * NX;
  double *pb = ws->p + (size_t)i * SX + (size_t)b * NX;
  const double *qb = ws->q + (size_t)i * SX + (size_t)b * NX;
  const double *rb = ws->r + (size_t)i * SU + (size_t)b * NU;
  double *db = ws->d + (size_t)i * SU + (size_t)b * NU;
  mv(t_m, NU, pn, NX, ws->Bmat, NX, NU, nr);
  for (int k = 0; k < nr * NU; k++) t_m[k] += rb[k];
  mv(db, NU, t_m, NU, ws->QuuT, NU, NU, nr);
  mv(t_n, NX, pn, NX, ws->AmBKtT, NX, NX, nr);
  mv(kr, NX, rb, NU, ws->Kinf, NU, NX, nr);
  for (int k = 0; k < nr * NX; k++) pb[k] = (qb[k] + t_n[k]) - kr[k];
}}

static void forward(const AdmmWs *ws) {{
  for (int i = 0; i < NH - 1; i++) {{
    int32_t b = 0;
    for (; b + RB <= ws->batch; b += RB) fwd_rows(ws, i, b, RB);
    for (; b < ws->batch; b++) fwd_rows(ws, i, b, 1);
  }}
}}

static void backward(const AdmmWs *ws) {{
  for (int i = NH - 2; i >= 0; i--) {{
    int32_t b = 0;
    for (; b + RB <= ws->batch; b += RB) bwd_rows(ws, i, b, RB);
    for (; b < ws->batch; b++) bwd_rows(ws, i, b, 1);
  }}
}}

/* The elementwise stages run over whole buffers: rows of NU (inputs) or
 * NX (states) values, one per (step, instance). */
static void slack(const AdmmWs *ws) {{
  const size_t urows = (size_t)(NH - 1) * ws->batch;
  const size_t xrows = (size_t)NH * ws->batch;
  for (size_t row = 0; row < urows; row++) {{
    const size_t o = row * NU;
    for (int j = 0; j < NU; j++)
      ws->znew[o + j] = clip1(ws->u[o + j] + ws->y[o + j],
                              ws->umin[j], ws->umax[j]);
  }}
  for (size_t row = 0; row < xrows; row++) {{
    const size_t o = row * NX;
    for (int j = 0; j < NX; j++)
      ws->vnew[o + j] = clip1(ws->x[o + j] + ws->g[o + j],
                              ws->xmin[j], ws->xmax[j]);
  }}
}}

static void dual(const AdmmWs *ws) {{
  const size_t nu = (size_t)(NH - 1) * SU, nx = (size_t)NH * SX;
  double *restrict y = ws->y, *restrict g = ws->g;
  const double *restrict u = ws->u, *restrict znew = ws->znew;
  const double *restrict x = ws->x, *restrict vnew = ws->vnew;
  for (size_t k = 0; k < nu; k++) y[k] += u[k] - znew[k];
  for (size_t k = 0; k < nx; k++) g[k] += x[k] - vnew[k];
}}

/* out = ref @ W - rho (slack - dual) for nr rows of width dim. */
static inline void cost_rows(const AdmmWs *ws, double *out,
                             const double *ref, const double *W,
                             const double *slack, const double *dual,
                             int dim, int nr) {{
  double t[RB * NMAX];
  mv(t, dim, ref, dim, W, dim, dim, nr);
  for (int k = 0; k < nr * dim; k++)
    out[k] = t[k] - ws->rho * (slack[k] - dual[k]);
}}

static inline void cost_all(const AdmmWs *ws, size_t o, double *out,
                            const double *ref, const double *W,
                            const double *slack, const double *dual,
                            int dim, size_t rows) {{
  size_t row = 0;
  for (; row + RB <= rows; row += RB, o += (size_t)RB * dim)
    cost_rows(ws, out + o, ref + o, W, slack + o, dual + o, dim, RB);
  for (; row < rows; row++, o += dim)
    cost_rows(ws, out + o, ref + o, W, slack + o, dual + o, dim, 1);
}}

static void cost(const AdmmWs *ws) {{
  cost_all(ws, 0, ws->r, ws->Uref, ws->negR, ws->znew, ws->y, NU,
           (size_t)(NH - 1) * ws->batch);
  cost_all(ws, 0, ws->q, ws->Xref, ws->negQ, ws->vnew, ws->g, NX,
           (size_t)NH * ws->batch);
  cost_all(ws, (size_t)(NH - 1) * SX, ws->p, ws->Xref, ws->negPinf,
           ws->vnew, ws->g, NX, (size_t)ws->batch);
}}

static void residuals(const AdmmWs *ws) {{
  const int32_t B = ws->batch;
  maxabsdiff(ws->primal_residual_state, ws->x, ws->vnew, NH, NX, B, 1.0);
  maxabsdiff(ws->dual_residual_state, ws->v, ws->vnew, NH, NX, B, ws->rho);
  maxabsdiff(ws->primal_residual_input, ws->u, ws->znew, NH - 1, NU, B, 1.0);
  maxabsdiff(ws->dual_residual_input, ws->z, ws->znew, NH - 1, NU, B,
             ws->rho);
}}

void admm_prelude(AdmmWs *ws) {{
  forward(ws);
  slack(ws);
  dual(ws);
  cost(ws);
  residuals(ws);
  memcpy(ws->v, ws->vnew, (size_t)NH * SX * sizeof(double));
  memcpy(ws->z, ws->znew, (size_t)(NH - 1) * SU * sizeof(double));
}}
void admm_backward(AdmmWs *ws) {{
  backward(ws);
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

    Built once per workspace (stored as ``ws._c_kernel_binding``).  Each
    buffer is bound as its step-major arena row (the batched public names
    are transposed views of those rows) and each residual as its row of
    the residual block; the workspace-buffer invariant (arrays, residual
    outputs included, are written in place, never rebound) makes the
    cached pointers stable.  Operator pointers are rebuilt when the cache
    object changes.
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
        for names, arena in ((STATE_BUFFERS, ws.state_arena),
                             (INPUT_BUFFERS, ws.input_arena)):
            for name, slab in zip(names, arena):
                self._point(name, slab)
        for name in RESIDUAL_FIELDS:
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
