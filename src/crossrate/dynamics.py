"""Example target-vehicle dynamics in host-relative coordinates.

Six-dimensional white-noise-jerk kinematics (x, y, xdot, ydot, xddot,
yddot) with an optional sinusoidal jerk input, its exact discrete-time
process noise covariance, the radar measurement model, the steady-state
filter covariance via Riccati iteration, and the salient-point (corner)
transformation of the state distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NumericsError
from .gaussian import GaussianDensity, symmetrize

STATE_DIM = 6

# Minimum speed for which the velocity-derived orientation is defined;
# below typical sensor noise floors.
EPS_SPEED = 1e-3


@dataclass(frozen=True)
class StateVector:
    """Kinematic state of the target relative to the host (m, m/s, m/s^2)."""

    x: float
    y: float
    xdot: float
    ydot: float
    xddot: float = 0.0
    yddot: float = 0.0

    def __post_init__(self):
        arr = self.as_array()
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"state components must be finite, got {arr}")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.x, self.y, self.xdot, self.ydot, self.xddot, self.yddot]
        )

    @classmethod
    def from_array(cls, arr) -> "StateVector":
        arr = np.asarray(arr, dtype=float).reshape(-1)
        if arr.size != STATE_DIM:
            raise ValueError(f"expected {STATE_DIM} components, got {arr.size}")
        return cls(*arr)

    @property
    def speed(self) -> float:
        return math.hypot(self.xdot, self.ydot)


@dataclass(frozen=True)
class MotionModel:
    """White-noise-jerk model parameters.

    qx, qy are the jerk power spectral densities (m^2 s^-5).  The
    deterministic jerk input is u(t) = (b1 sin(omega t), b2 sin(omega t));
    with input_enabled False the input gain is zero and the model reduces
    to constant acceleration plus noise.
    """

    qx: float
    qy: float
    b1: float = 0.0
    b2: float = 0.0
    omega: float = 0.0
    input_enabled: bool = False

    def __post_init__(self):
        if self.qx < 0 or self.qy < 0:
            raise ValueError(f"jerk PSDs must be >= 0, got qx={self.qx}, qy={self.qy}")
        if self.input_enabled and self.omega <= 0:
            raise ValueError("omega must be > 0 when the input is enabled")

    def jerk_input(self, t: float) -> np.ndarray:
        """Deterministic jerk u(t) in (x, y)."""
        if not self.input_enabled:
            return np.zeros(2)
        s = math.sin(self.omega * t)
        return np.array([self.b1 * s, self.b2 * s])


@dataclass(frozen=True)
class RadarNoise:
    """Radar measurement noise (range, azimuth, range rate) and cycle time."""

    sigma_r: float = 0.5
    sigma_phi: float = 0.00873
    sigma_rdot: float = 0.25
    cycle_time: float = 0.05

    def __post_init__(self):
        for name in ("sigma_r", "sigma_phi", "sigma_rdot", "cycle_time"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    def cov(self) -> np.ndarray:
        return np.diag(
            [self.sigma_r**2, self.sigma_phi**2, self.sigma_rdot**2]
        )


@dataclass(frozen=True)
class SalientOffset:
    """Body-frame translation from the reference point to a salient point."""

    dx_body: float
    dy_body: float

    def __post_init__(self):
        if not (math.isfinite(self.dx_body) and math.isfinite(self.dy_body)):
            raise ValueError("offset components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.dx_body, self.dy_body])


def transition_matrix(dt: float) -> np.ndarray:
    """Transition matrix of the double-integrator chain over dt >= 0."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    phi = np.eye(STATE_DIM)
    phi[0, 2] = phi[1, 3] = dt
    phi[2, 4] = phi[3, 5] = dt
    phi[0, 4] = phi[1, 5] = 0.5 * dt * dt
    return phi


def process_noise_cov(dt: float, model: MotionModel) -> np.ndarray:
    """Exact discrete-time process noise covariance of the jerk model."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    d5 = dt**5 / 20.0
    d4 = dt**4 / 8.0
    d3a = dt**3 / 6.0
    d3b = dt**3 / 3.0
    d2 = dt**2 / 2.0
    block = np.array(
        [
            [d5, d4, d3a],
            [d4, d3b, d2],
            [d3a, d2, dt],
        ]
    )
    q = np.zeros((STATE_DIM, STATE_DIM))
    # x-components occupy indices (0, 2, 4), y-components (1, 3, 5)
    qx_idx = np.array([0, 2, 4])
    qy_idx = np.array([1, 3, 5])
    q[np.ix_(qx_idx, qx_idx)] = model.qx * block
    q[np.ix_(qy_idx, qy_idx)] = model.qy * block
    return q


def _input_weights(dt: float, omega: float) -> tuple[float, float, float, float]:
    """Moment integrals of a unit sinusoidal jerk over one step of length dt.

    Returns (c1, s1, c2, s2) with c_k = int_0^dt s^k/k! cos(omega s) ds and
    s_k = int_0^dt s^k/k! sin(omega s) ds.  input_increment combines them
    with the phase at the step's end into the velocity (k = 1) and
    position (k = 2) increments; they depend on dt and omega only.
    """
    w = omega
    wt = w * dt
    sin_wt = math.sin(wt)
    cos_wt = math.cos(wt)
    c1 = (cos_wt - 1.0) / w**2 + dt * sin_wt / w
    s1 = sin_wt / w**2 - dt * cos_wt / w
    c2 = (dt**2 / (2 * w)) * sin_wt + (dt / w**2) * cos_wt - sin_wt / w**3
    s2 = -(dt**2 / (2 * w)) * cos_wt + (dt / w**2) * sin_wt + (cos_wt - 1.0) / w**3
    return c1, s1, c2, s2


def input_increment(dt: float, model: MotionModel, t0: float = 0.0) -> np.ndarray:
    """Particular-solution state increment of the sinusoidal jerk input.

    Closed-form antiderivatives of b sin(omega t) entering at the jerk
    level, propagated through the integrator chain from absolute time t0
    over a step of length dt.
    """
    if not model.input_enabled or dt == 0.0:
        return np.zeros(STATE_DIM)
    w = model.omega
    t1 = t0 + dt
    sin_t1 = math.sin(w * t1)
    cos_t1 = math.cos(w * t1)
    c1, s1, c2, s2 = _input_weights(dt, w)
    i0 = (math.cos(w * t0) - cos_t1) / w
    i1 = sin_t1 * c1 - cos_t1 * s1
    i2 = sin_t1 * c2 - cos_t1 * s2
    inc = np.zeros(STATE_DIM)
    for axis, b in ((0, model.b1), (1, model.b2)):
        inc[axis] = b * i2
        inc[axis + 2] = b * i1
        inc[axis + 4] = b * i0
    return inc


def predict_mean(
    s: StateVector, dt: float, model: MotionModel, t0: float = 0.0
) -> StateVector:
    """Deterministic state propagation over dt starting at absolute time t0."""
    arr = transition_matrix(dt) @ s.as_array() + input_increment(dt, model, t0)
    return StateVector.from_array(arr)


def predict_density(
    g: GaussianDensity, dt: float, model: MotionModel, t0: float = 0.0
) -> GaussianDensity:
    """Predict a 6-dim Gaussian state density over dt."""
    if g.dim != STATE_DIM:
        raise ValueError(f"expected a {STATE_DIM}-dim density, got {g.dim}")
    phi = transition_matrix(dt)
    mean = phi @ g.mean + input_increment(dt, model, t0)
    cov = symmetrize(phi @ g.cov @ phi.T + process_noise_cov(dt, model))
    eigmin = np.linalg.eigvalsh(cov)[0]
    if eigmin < -1e-10 * max(np.trace(cov), 1.0):
        raise NumericsError(f"propagated covariance lost PSD (min eig {eigmin:g})")
    return GaussianDensity(mean, cov)


def measurement_function(s: StateVector) -> tuple[float, float, float]:
    """Radar measurement (range, azimuth, range rate) of a state."""
    r = math.hypot(s.x, s.y)
    if r == 0.0:
        raise DomainError("measurement undefined at zero range")
    phi = math.atan2(s.y, s.x)
    rdot = (s.x * s.xdot + s.y * s.ydot) / r
    return r, phi, rdot


def measurement_jacobian(s: StateVector) -> np.ndarray:
    """Analytic Jacobian of the radar measurement; acceleration columns zero."""
    r2 = s.x * s.x + s.y * s.y
    if r2 == 0.0:
        raise DomainError("measurement undefined at zero range")
    r = math.sqrt(r2)
    h = np.zeros((3, STATE_DIM))
    h[0, 0] = s.x / r
    h[0, 1] = s.y / r
    h[1, 0] = -s.y / r2
    h[1, 1] = s.x / r2
    dot = s.x * s.xdot + s.y * s.ydot
    h[2, 0] = s.xdot / r - dot * s.x / (r2 * r)
    h[2, 1] = s.ydot / r - dot * s.y / (r2 * r)
    h[2, 2] = s.x / r
    h[2, 3] = s.y / r
    return h


def steady_state_covariance(
    mean: StateVector,
    model: MotionModel,
    noise: RadarNoise,
    max_iter: int = 10000,
    tol: float = 1e-9,
) -> np.ndarray:
    """Posterior steady-state covariance of the radar filter at `mean`.

    Iterates the discrete Riccati recursion (predict with the jerk-model
    transition and process noise over one radar cycle, update with the
    measurement Jacobian held fixed at `mean`) to a fixed point.
    """
    dt = noise.cycle_time
    phi = transition_matrix(dt)
    q = process_noise_cov(dt, model)
    h = measurement_jacobian(mean)
    r = noise.cov()
    eye = np.eye(STATE_DIM)
    p = q.copy() + eye
    for _ in range(max_iter):
        p_prior = symmetrize(phi @ p @ phi.T + q)
        s = h @ p_prior @ h.T + r
        k = np.linalg.solve(s.T, (p_prior @ h.T).T).T
        ikh = eye - k @ h
        p_new = symmetrize(ikh @ p_prior @ ikh.T + k @ r @ k.T)
        if np.max(np.abs(p_new - p)) < tol:
            return p_new
        p = p_new
    raise ConvergenceError(
        f"Riccati iteration did not converge within {max_iter} iterations"
    )


def _salient_map(x: np.ndarray, delta: np.ndarray, jerk: np.ndarray) -> np.ndarray:
    """The salient-point map of a state array (6, ...), real or complex.

    The heading enters as (cos, sin) = (vx, vy) / |v|, not through atan2,
    so the map is analytic and salient_jacobian can take its complex step.
    """
    px, py, vx, vy, ax, ay = x
    v2 = vx * vx + vy * vy
    speed = np.sqrt(v2)
    cos, sin = vx / speed, vy / speed
    alpha_dot = (vx * ay - vy * ax) / v2
    alpha_ddot = (
        2.0 * (vx * vy * (ax * ax - ay * ay) - ax * ay * (vx * vx - vy * vy)) / (v2 * v2)
        + (vx * jerk[1] - vy * jerk[0]) / v2
    )
    # R delta = (rx, ry) with R the rotation by the heading; R' delta = (-ry, rx)
    rx = cos * delta[0] - sin * delta[1]
    ry = sin * delta[0] + cos * delta[1]
    return np.array([
        px + rx, py + ry,
        vx - alpha_dot * ry, vy + alpha_dot * rx,
        ax - alpha_dot * alpha_dot * rx - alpha_ddot * ry,
        ay - alpha_dot * alpha_dot * ry + alpha_ddot * rx,
    ])


def _salient_args(s: StateVector, off: SalientOffset, model: MotionModel | None, t: float):
    """(state, offset, jerk) arrays of a salient transform at time t."""
    if s.speed <= EPS_SPEED:
        raise DomainError(f"orientation undefined: speed {s.speed:g} <= {EPS_SPEED:g} m/s")
    jerk = model.jerk_input(t) if model is not None else np.zeros(2)
    return s.as_array(), off.as_array(), jerk


def salient_transform_state(
    s: StateVector,
    off: SalientOffset,
    model: MotionModel | None = None,
    t: float = 0.0,
) -> StateVector:
    """Translate the state to a salient point given in the body frame.

    Orientation is the velocity direction (Ackermann limit); its first
    and second derivatives follow from the state, with the jerk terms in
    the second derivative given by the deterministic input (zero when the
    input is disabled).
    """
    return StateVector.from_array(_salient_map(*_salient_args(s, off, model, t)))


def salient_jacobian(
    s: StateVector,
    off: SalientOffset,
    model: MotionModel | None = None,
    t: float = 0.0,
) -> np.ndarray:
    """6x6 Jacobian of the salient-point transformation.

    The complex-step derivative Im f(x + i h e_j) / h of the map that
    salient_transform_state evaluates, all six columns in one call.  It
    subtracts no nearly equal values, so it is exact to rounding (Squire &
    Trapp 1998, SIAM Rev. 40; Martins, Sturdza & Alonso 2003, ACM TOMS 29).
    """
    x, delta, jerk = _salient_args(s, off, model, t)
    h = 1e-30
    probes = x[:, np.newaxis] + 1j * h * np.eye(STATE_DIM)  # column j is x + i h e_j
    return _salient_map(probes, delta, jerk).imag / h


def salient_transform_density(
    g: GaussianDensity,
    off: SalientOffset,
    model: MotionModel | None = None,
    t: float = 0.0,
) -> GaussianDensity:
    """Second-order linearization of the salient-point transformation.

    Full nonlinear map for the mean, Jacobian propagation for the
    covariance.
    """
    if g.dim != STATE_DIM:
        raise ValueError(f"expected a {STATE_DIM}-dim density, got {g.dim}")
    mean_state = StateVector.from_array(g.mean)
    new_mean = salient_transform_state(mean_state, off, model, t).as_array()
    jac = salient_jacobian(mean_state, off, model, t)
    new_cov = symmetrize(jac @ g.cov @ jac.T)
    return GaussianDensity(new_mean, new_cov)
