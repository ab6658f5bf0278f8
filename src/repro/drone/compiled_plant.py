"""The batch plant's tick as runtime-compiled C.

:class:`~repro.drone.quadrotor.QuadrotorBatch` binds its buffers to this
library once (:func:`bind`); a tick then copies its column list into the
binding and makes one foreign call, ``plant_tick``, which advances every
listed column: thrust clip, rotor lag, the RK4 step, the per-tick power
and the crash test.  The library is built and cached through
:func:`repro.cbuild.load` and runs on the calling thread.

The C is a transliteration of :func:`~repro.drone.quadrotor._rk4`,
:func:`~repro.drone.quadrotor._derivatives`,
:func:`~repro.drone.quadrotor._crashed` and the closure of
:func:`~repro.drone.rotor.actuation_power_fn`: each expression keeps its
Python operand order, ``-ffp-contract=off`` keeps every multiply and add a
separate IEEE operation, ``sin``, ``cos``, ``pow`` and ``sqrt`` are the
libm functions :mod:`math` and float ``**`` call, and ``min``/``max`` are
the comparisons Python's builtins make, so NaN and the sign of zero come
out as in Python.  A column's state, rotor thrusts, energy and crash flag
therefore equal a :class:`~repro.drone.quadrotor.Quadrotor`'s bit for bit.
Where Python would do something else the C hands the column back:

* a stage angle is infinite (``math.cos`` raises ``ValueError``): the
  column is left unwritten and flagged ``REPLAY``;
* the power's ``t ** 1.5`` overflows or libm reports a range error
  (Python may raise ``OverflowError``): likewise ``REPLAY``;
* the position lies within 1e-12 of the fly-away radius, where
  ``_crashed`` sums ``p . p`` with ``np.dot``: the column is written and
  flagged ``NEAR_RADIUS``, for the caller to run ``_crashed``.

The flag values are :mod:`repro.drone.quadrotor`'s ``CRASHED``,
``NEAR_RADIUS`` and ``REPLAY``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cbuild import CBuildUnavailable, CLibrary, load
from .quadrotor import (CRASHED, INPUT_DIM, MAX_DISTANCE, MAX_TILT,
                        MIN_ALTITUDE, NEAR_RADIUS, REPLAY, STATE_DIM)
from .rotor import ELECTRICAL_EFFICIENCY, power_denominator
from .variants import GRAVITY

__all__ = ["PlantBinding", "bind", "failure", "library"]

# The types the C source defines and the cffi declarations repeat.
_TYPES = """
typedef struct {
  double mass, ixx, iyy, izz, mix[16];
  double limit, alpha, dt, half, sixth, power_denominator;
} Airframe;

typedef struct {
  double *state, *rotors, *energy;
  const double *command, *force, *torque;
  const Airframe *frames;
  const int64_t *columns;
  int8_t *flags;
  int64_t width;
} Plant;
"""

_CONSTANTS = (
    ("NX", STATE_DIM), ("NU", INPUT_DIM), ("GRAVITY", GRAVITY),
    ("MAX_TILT", MAX_TILT), ("MIN_ALTITUDE", MIN_ALTITUDE),
    ("MAX_DISTANCE", MAX_DISTANCE), ("EFFICIENCY", ELECTRICAL_EFFICIENCY),
    ("CRASHED", CRASHED), ("NEAR_RADIUS", NEAR_RADIUS), ("REPLAY", REPLAY))

_CODE = r"""
/* Python's min(max(v, 0.0), limit): the builtins' comparisons. */
static double clip(double v, double limit) {
  v = 0.0 > v ? 0.0 : v;
  return limit < v ? limit : v;
}

/* _derivatives; 1 (nothing written) when math.cos would raise. */
static int derivatives(const double *s, const double *w, const double *ext,
                       const Airframe *f, double *out) {
  const double roll = s[3], pitch = s[4], yaw = s[5];
  if (isinf(roll) || isinf(pitch) || isinf(yaw)) return 1;
  const double vx = s[6], vy = s[7], vz = s[8];
  const double wx = s[9], wy = s[10], wz = s[11];
  const double cr = cos(roll), sr = sin(roll);
  const double cp = cos(pitch), sp = sin(pitch);
  const double cy = cos(yaw), sy = sin(yaw);
  const double thrust = w[0], mass = f->mass;
  const double tw_x = (cy * sp * cr + sy * sr) * thrust;
  const double tw_y = (sy * sp * cr - cy * sr) * thrust;
  const double tw_z = (cp * cr) * thrust;
  double ax = (tw_x + ext[0]) / mass;
  double ay = (tw_y + ext[1]) / mass;
  double az = (tw_z + ext[2]) / mass - GRAVITY;
  ax -= 0.05 * vx / mass;
  ay -= 0.05 * vy / mass;
  az -= 0.05 * vz / mass;
  const double ixx = f->ixx, iyy = f->iyy, izz = f->izz;
  const double hx = ixx * wx, hy = iyy * wy, hz = izz * wz;
  const double wd_x = (w[1] + ext[3] - (wy * hz - wz * hy)) / ixx;
  const double wd_y = (w[2] + ext[4] - (wz * hx - wx * hz)) / iyy;
  const double wd_z = (w[3] + ext[5] - (wx * hy - wy * hx)) / izz;
  const double guard = 1e-6 > fabs(cp) ? 1e-6 : fabs(cp);
  const double cp_safe = cp != 0 ? copysign(guard, cp) : 1e-6;
  const double tp = sp / cp_safe;
  out[0] = vx;
  out[1] = vy;
  out[2] = vz;
  out[3] = 1.0 * wx + sr * tp * wy + cr * tp * wz;
  out[4] = 0.0 * wx + cr * wy + -sr * wz;
  out[5] = 0.0 * wx + sr / cp_safe * wy + cr / cp_safe * wz;
  out[6] = ax;
  out[7] = ay;
  out[8] = az;
  out[9] = wd_x;
  out[10] = wd_y;
  out[11] = wd_z;
  return 0;
}

/* _crashed; NEAR_RADIUS where it would call np.dot. */
static int crash_flag(const double *s) {
  if (fabs(s[3]) > MAX_TILT || fabs(s[4]) > MAX_TILT) return CRASHED;
  if (s[2] < MIN_ALTITUDE) return CRASHED;
  const double x = s[0], y = s[1], z = s[2];
  const double squared = x * x + y * y + z * z;
  const double radius_squared = MAX_DISTANCE * MAX_DISTANCE;
  if (fabs(squared - radius_squared) <= 1e-12 * radius_squared)
    return NEAR_RADIUS;
  if (sqrt(squared) > MAX_DISTANCE) return CRASHED;
  for (int i = 0; i < NX; i++)
    if (!isfinite(s[i])) return CRASHED;
  return 0;
}

/* _rk4 and the power closure on column b: its flag, or REPLAY with
 * nothing written. */
static int advance(const Plant *p, int64_t b) {
  const int64_t W = p->width;
  const Airframe *f = p->frames + b;
  double s[NX], r[NU], t[NU], w[NU], ext[6];
  double k1[NX], k2[NX], k3[NX], k4[NX], stage[NX];
  for (int i = 0; i < NX; i++) s[i] = p->state[i * W + b];
  for (int j = 0; j < NU; j++) {
    const double rotor = p->rotors[j * W + b];
    r[j] = rotor + f->alpha * (clip(p->command[j * W + b], f->limit) - rotor);
    t[j] = clip(r[j], f->limit);
  }
  for (int j = 0; j < NU; j++) {
    const double *row = f->mix + 4 * j;
    w[j] = row[0] * t[0] + row[1] * t[1] + row[2] * t[2] + row[3] * t[3];
  }
  for (int i = 0; i < 3; i++) {
    ext[i] = p->force[i * W + b];
    ext[3 + i] = p->torque[i * W + b];
  }
  if (derivatives(s, w, ext, f, k1)) return REPLAY;
  for (int i = 0; i < NX; i++) stage[i] = s[i] + f->half * k1[i];
  if (derivatives(stage, w, ext, f, k2)) return REPLAY;
  for (int i = 0; i < NX; i++) stage[i] = s[i] + f->half * k2[i];
  if (derivatives(stage, w, ext, f, k3)) return REPLAY;
  for (int i = 0; i < NX; i++) stage[i] = s[i] + f->dt * k3[i];
  if (derivatives(stage, w, ext, f, k4)) return REPLAY;
  double power = 0.0;
  for (int j = 0; j < NU; j++) {
    const double thrust = 0.0 > r[j] ? 0.0 : r[j];
    errno = 0;
    const double lifted = isnan(thrust) ? thrust : pow(thrust, 1.5);
    if (errno || (isinf(lifted) && !isinf(thrust))) return REPLAY;
    power += (lifted / f->power_denominator) / EFFICIENCY;
  }
  for (int i = 0; i < NX; i++)
    s[i] = s[i] + f->sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
  for (int i = 0; i < NX; i++) p->state[i * W + b] = s[i];
  for (int j = 0; j < NU; j++) p->rotors[j * W + b] = r[j];
  p->energy[b] += power * f->dt;
  return crash_flag(s);
}

/* Advance the first `count` listed columns by one tick and flag each.
 * Returns how many flags are non-zero, or -1 (nothing written) when a
 * listed column is out of range. */
int64_t plant_tick(const Plant *p, int64_t count) {
  for (int64_t k = 0; k < count; k++)
    if (p->columns[k] < 0 || p->columns[k] >= p->width) return -1;
  int64_t flagged = 0;
  for (int64_t k = 0; k < count; k++) {
    p->flags[k] = (int8_t)advance(p, p->columns[k]);
    flagged += p->flags[k] != 0;
  }
  return flagged;
}
"""

_SOURCE = ("#include <errno.h>\n#include <math.h>\n#include <stdint.h>\n"
           + "".join("#define {} ({!r})\n".format(name, value)
                     for name, value in _CONSTANTS)
           + _TYPES + _CODE)

_CDEF = _TYPES + "int64_t plant_tick(const Plant *p, int64_t count);\n"

_LIBRARY: Optional[CLibrary] = None
_FAILURE: Optional[str] = None


def library() -> Optional[CLibrary]:
    """The plant library, or ``None`` without cffi or a C compiler.

    Built (or opened from the cache) on the first call; the outcome is
    kept for the process, and :func:`failure` gives the reason for
    ``None``.
    """
    global _LIBRARY, _FAILURE
    if _LIBRARY is None and _FAILURE is None:
        try:
            _LIBRARY = load("plant", _SOURCE, _CDEF)
        except CBuildUnavailable as exc:
            _FAILURE = str(exc)
    return _LIBRARY


def failure() -> Optional[str]:
    """Why :func:`library` returned ``None`` (``None`` before or after a
    successful load)."""
    return _FAILURE


class PlantBinding:
    """The cffi ``Plant`` struct pointing at one batch plant's buffers.

    Built once per plant: the pointers stay valid because the plant
    writes its buffers in place and refuses to replace them.  A tick
    writes its columns into :attr:`columns`, calls :attr:`tick` and reads
    :attr:`flags`.
    """

    __slots__ = ("tick", "struct", "columns", "flags", "_keep")

    def __init__(self, library: CLibrary, plant) -> None:
        ffi = library.ffi
        width = plant.width
        self.tick = library.lib.plant_tick
        self.columns = np.zeros(width, dtype=np.int64)
        self.flags = np.zeros(width, dtype=np.int8)
        rows = []
        for frame, params in zip(plant._frames, plant.params):
            (mass, ixx, iyy, izz, mix0, mix1, mix2, mix3, limit, alpha, dt,
             half, sixth) = frame
            rows.append({
                "mass": mass, "ixx": ixx, "iyy": iyy, "izz": izz,
                "mix": mix0 + mix1 + mix2 + mix3, "limit": limit,
                "alpha": alpha, "dt": dt, "half": half, "sixth": sixth,
                "power_denominator": power_denominator(params)})
        frames = ffi.new("Airframe[]", rows)
        struct = ffi.new("Plant *")
        struct.frames = frames
        struct.width = width
        self._keep = [frames]
        for field, array, ctype in (
                ("state", plant.state, "double *"),
                ("rotors", plant.rotor_thrusts, "double *"),
                ("energy", plant.energy, "double *"),
                ("command", plant.command, "double *"),
                ("force", plant.force, "double *"),
                ("torque", plant.torque, "double *"),
                ("columns", self.columns, "int64_t *"),
                ("flags", self.flags, "int8_t *")):
            buffer = ffi.from_buffer(array)
            self._keep.append(buffer)
            setattr(struct, field, ffi.cast(ctype, buffer))
        self.struct = struct


def bind(plant) -> Optional[PlantBinding]:
    """Bind ``plant`` to the compiled tick; ``None`` without a toolchain."""
    compiled = library()
    return None if compiled is None else PlantBinding(compiled, plant)
