"""MPC problem definition for the TinyMPC workload.

An :class:`MPCProblem` bundles everything the solver needs: discrete-time
linearized dynamics, quadratic stage costs, the ADMM penalty, the prediction
horizon, and box constraints on states and inputs.  The default problem
(:func:`default_quadrotor_problem`) matches the paper's workload: a
CrazyFlie quadrotor with a 12-dimensional state, 4 inputs, and a horizon of
10, which is where the "small tensors (4-150 elements)" characterization
comes from.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["MPCProblem", "default_quadrotor_problem", "problem_hash"]


@dataclass
class MPCProblem:
    """A linear-quadratic MPC problem with box constraints.

    Attributes:
        A: discrete-time state transition matrix, shape (n, n).
        B: discrete-time input matrix, shape (n, m).
        Q: state stage cost (diagonal or full), shape (n, n).
        R: input stage cost, shape (m, m).
        rho: ADMM penalty parameter.
        horizon: number of knot points N (states x[0..N-1], inputs u[0..N-2]).
        u_min / u_max: input box bounds, shape (m,).
        x_min / x_max: state box bounds, shape (n,).
        dt: discretization timestep in seconds (metadata for HIL use).
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    rho: float = 1.0
    horizon: int = 10
    u_min: Optional[np.ndarray] = None
    u_max: Optional[np.ndarray] = None
    x_min: Optional[np.ndarray] = None
    x_max: Optional[np.ndarray] = None
    dt: float = 0.02
    name: str = "mpc-problem"

    def __post_init__(self) -> None:
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        self.Q = np.asarray(self.Q, dtype=np.float64)
        self.R = np.asarray(self.R, dtype=np.float64)
        n, m = self.state_dim, self.input_dim
        if self.A.shape != (n, n):
            raise ValueError("A must be square, got {}".format(self.A.shape))
        if self.B.shape[0] != n:
            raise ValueError("B rows must match state dimension")
        if self.Q.shape != (n, n):
            raise ValueError("Q must be (n, n), got {}".format(self.Q.shape))
        if self.R.shape != (m, m):
            raise ValueError("R must be (m, m), got {}".format(self.R.shape))
        if self.horizon < 2:
            raise ValueError("horizon must be at least 2")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        self.u_min = self._expand_bound(self.u_min, m, -np.inf)
        self.u_max = self._expand_bound(self.u_max, m, np.inf)
        self.x_min = self._expand_bound(self.x_min, n, -np.inf)
        self.x_max = self._expand_bound(self.x_max, n, np.inf)
        if np.any(self.u_min > self.u_max):
            raise ValueError("u_min must not exceed u_max")
        if np.any(self.x_min > self.x_max):
            raise ValueError("x_min must not exceed x_max")
        # Hot-path operators, derived once instead of per kernel call.  The
        # transposes are zero-copy views: feeding BLAS the same memory layout
        # the kernels historically built inline (``A.T`` on the fly) keeps
        # results bit-for-bit identical — `ascontiguousarray(A.T)` changes
        # the GEMV path and with it the low bits.  The negated costs fold the
        # leading minus of the linear-cost kernels into the operand (exact:
        # IEEE rounding is sign-symmetric, so ``x @ (-Q) == -(x @ Q)``
        # bit-for-bit).
        self.AT = self.A.T
        self.BT = self.B.T
        self.neg_Q = -self.Q
        self.neg_R = -self.R

    @staticmethod
    def _expand_bound(bound, size: int, default: float) -> np.ndarray:
        if bound is None:
            return np.full(size, default, dtype=np.float64)
        bound = np.asarray(bound, dtype=np.float64)
        if bound.ndim == 0:
            return np.full(size, float(bound), dtype=np.float64)
        if bound.shape != (size,):
            raise ValueError("bound must have shape ({},)".format(size))
        return bound.copy()

    # -- dimensions --------------------------------------------------------
    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]

    @property
    def has_state_bounds(self) -> bool:
        return bool(np.any(np.isfinite(self.x_min)) or np.any(np.isfinite(self.x_max)))

    @property
    def has_input_bounds(self) -> bool:
        return bool(np.any(np.isfinite(self.u_min)) or np.any(np.isfinite(self.u_max)))

    # -- derived matrices ---------------------------------------------------
    def augmented_state_cost(self) -> np.ndarray:
        """Q + rho*I — the ADMM-augmented state cost used by the cache."""
        return self.Q + self.rho * np.eye(self.state_dim)

    def augmented_input_cost(self) -> np.ndarray:
        """R + rho*I — the ADMM-augmented input cost used by the cache."""
        return self.R + self.rho * np.eye(self.input_dim)

    def scaled(self, horizon: Optional[int] = None, rho: Optional[float] = None
               ) -> "MPCProblem":
        """Return a copy with a different horizon and/or penalty."""
        return MPCProblem(
            A=self.A, B=self.B, Q=self.Q, R=self.R,
            rho=self.rho if rho is None else rho,
            horizon=self.horizon if horizon is None else horizon,
            u_min=self.u_min, u_max=self.u_max,
            x_min=self.x_min, x_max=self.x_max,
            dt=self.dt, name=self.name)


def problem_hash(problem: MPCProblem) -> str:
    """Stable content hash of an MPC problem instance.

    Hashes every array and scalar that affects solver behavior (dynamics,
    costs, penalty, horizon, bounds, timestep) but not the display ``name``.

    The digest is memoized on the instance: the fleet scheduler and the
    solver workspace pool key every dispatch/acquire on it, and problems are
    treated as immutable after construction everywhere in this codebase.
    """
    memo = getattr(problem, "_hash_memo", None)
    if memo is not None:
        return memo
    digest = hashlib.sha256()
    for array in (problem.A, problem.B, problem.Q, problem.R,
                  problem.u_min, problem.u_max, problem.x_min, problem.x_max):
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    digest.update(np.float64(problem.rho).tobytes())
    digest.update(np.float64(problem.dt).tobytes())
    digest.update(np.int64(problem.horizon).tobytes())
    problem._hash_memo = digest.hexdigest()
    return problem._hash_memo


def default_quadrotor_problem(horizon: int = 10, rho: float = 5.0,
                              dt: float = 0.02) -> MPCProblem:
    """The paper's reference workload: hover-linearized CrazyFlie MPC.

    The dynamics come from the hover linearization of the CrazyFlie variant
    in :mod:`repro.drone`; importing lazily avoids a package cycle.
    """
    from ..drone.variants import crazyflie
    from ..drone.linearize import linearize_hover

    params = crazyflie()
    A, B = linearize_hover(params, dt=dt)
    n, m = A.shape[0], B.shape[1]
    q_diag = np.array([100.0, 100.0, 100.0,      # position
                       4.0, 4.0, 400.0,          # attitude
                       4.0, 4.0, 4.0,            # linear velocity
                       2.0, 2.0, 4.0])           # angular velocity
    Q = np.diag(q_diag[:n])
    R = np.diag(np.full(m, 4.0))
    # Thrust-delta bounds around hover, in Newtons per rotor.
    u_hover = params.hover_thrust_per_rotor()
    u_min = np.full(m, -u_hover)
    u_max = np.full(m, params.max_thrust_per_rotor() - u_hover)
    return MPCProblem(A=A, B=B, Q=Q, R=R, rho=rho, horizon=horizon,
                      u_min=u_min, u_max=u_max, dt=dt,
                      name="crazyflie-hover-mpc")
