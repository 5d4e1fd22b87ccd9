"""Longitudinal point-mass vehicle model with first-order actuation lag.

The model is x'' = a, tau*a' + a = u.  Commands are held constant over each
step (zero-order hold), which makes the dynamics linear time-invariant within
the step, so propagation evaluates the closed-form solution instead of running
a generic ODE integrator: exact, and no step-size tuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, require_finite

__all__ = [
    "VehicleState",
    "VehicleParams",
    "LeaderSegment",
    "LeaderProfile",
    "zoh_coefficients",
    "step_vehicle",
    "leader_command",
    "leader_input",
    "spacing_error",
    "stop_crossing_time",
]


@dataclass(frozen=True)
class VehicleState:
    """Position (m), velocity (m/s), realized acceleration (m/s^2)."""

    x: float
    v: float
    a: float


@dataclass(frozen=True)
class VehicleParams:
    """Physical vehicle parameters.

    tau is the actuation lag between commanded and realized acceleration;
    decel_limit and accel_limit are the capability bounds used by saturation
    (both stored as positive magnitudes).
    """

    tau: float = 0.5
    length: float = 5.0
    decel_limit: float = 9.0
    accel_limit: float = 3.0

    def __post_init__(self) -> None:
        require_finite(self, ("tau", "length", "decel_limit", "accel_limit"), InvalidInputError)
        if not (self.tau > 0):
            raise InvalidInputError(f"tau must be positive, got {self.tau}")
        if not (self.length > 0):
            raise InvalidInputError(f"length must be positive, got {self.length}")
        if not (self.decel_limit > 0):
            raise InvalidInputError(f"decel_limit must be positive, got {self.decel_limit}")
        if not (self.accel_limit > 0):
            raise InvalidInputError(f"accel_limit must be positive, got {self.accel_limit}")


@dataclass(frozen=True)
class LeaderSegment:
    """One piecewise-constant command segment of a leader maneuver.

    The segment commands `u` from `start_time` onward.  If `target_velocity`
    is set, the command reverts to 0 once the leader's velocity has crossed
    the target in the direction of the command (velocity hold).
    """

    start_time: float
    u: float
    target_velocity: float | None = None

    def __post_init__(self) -> None:
        require_finite(self, ("start_time", "u"), InvalidInputError)
        if self.target_velocity is not None:
            require_finite(self, ("target_velocity",), InvalidInputError)


@dataclass(frozen=True)
class LeaderProfile:
    """The lead vehicle's maneuver: ordered command segments, or braking at its own limit.

    A leader that brakes at its limit commands its braking command while it
    moves and takes no segments.  No segments and no braking mean u = 0
    throughout.
    """

    segments: tuple[LeaderSegment, ...] = ()
    brakes_at_limit: bool = False

    def __post_init__(self) -> None:
        if self.brakes_at_limit and self.segments:
            raise InvalidInputError("segments: a leader that brakes at its limit takes no segments")
        times = [s.start_time for s in self.segments]
        if times and times[0] != 0.0:
            raise InvalidInputError("segments: first leader segment must start at t = 0")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise InvalidInputError("segments: start times must be strictly increasing")


def zoh_coefficients(tau: float, dt: float) -> tuple[float, float, float, float, float, float]:
    """Closed-form update coefficients for one zero-order-hold step.

    Returns (c_aa, c_au, c_va, c_vu, c_xa, c_xu) such that

        a' = a*c_aa + u*c_au
        v' = v + a*c_va + u*c_vu
        x' = x + v*dt + a*c_xa + u*c_xu

    expm1 avoids cancellation in 1 - exp(-dt/tau) for dt << tau.
    """
    c_aa = math.exp(-dt / tau)
    c_au = -math.expm1(-dt / tau)
    c_va = tau * c_au
    c_vu = dt - c_va
    c_xa = tau * (dt - c_va)
    c_xu = 0.5 * dt * dt - c_xa
    return c_aa, c_au, c_va, c_vu, c_xa, c_xu


def _velocity_at(v: float, a: float, u: float, tau: float, s: float) -> float:
    """Velocity s seconds into a step with constant command u."""
    r = -math.expm1(-s / tau)
    return v + a * tau * r + u * (s - tau * r)


def _position_delta_at(v: float, a: float, u: float, tau: float, s: float) -> float:
    """Position advance s seconds into a step with constant command u."""
    r = -math.expm1(-s / tau)
    c_va = tau * r
    return v * s + a * tau * (s - c_va) + u * (0.5 * s * s - tau * (s - c_va))


def stop_crossing_time(v: float, a: float, u: float, tau: float, dt: float) -> float:
    """First time in (0, dt] at which the in-step velocity hits zero.

    Preconditions: v >= 0 at the step start and velocity at dt is negative.
    The in-step velocity has at most one interior extremum (the acceleration
    is a monotone exponential), so with opposite endpoint signs the crossing
    is unique and plain bisection converges.
    """
    lo, hi = 0.0, dt
    a_tau = a * tau   # _velocity_at inlined: its a * tau * r is (a * tau) * r
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        # the body depends only on (lo, hi): a halving that changes neither
        # is repeated by every later one, so stop there
        r = -math.expm1(-mid / tau)
        if v + a_tau * r + u * (mid - tau * r) > 0.0:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return hi


def step_vehicle(state: VehicleState, u: float, dt: float, params: VehicleParams) -> VehicleState:
    """Propagate one vehicle over [t, t+dt] under the constant command u.

    Exact LTI closed form per ZOH interval.  If the velocity would cross zero
    within the step, the vehicle is clamped to a full stop at the crossing
    (v = 0, a = 0, position frozen there); vehicles do not reverse.
    """
    if not all(map(math.isfinite, (state.x, state.v, state.a, u))):
        raise InvalidInputError("step_vehicle requires finite state and command")
    if not (dt > 0 and math.isfinite(dt)):
        raise InvalidInputError(f"dt must be positive and finite, got {dt}")

    # A stopped vehicle commanded to keep braking stays stopped.
    if state.v == 0.0 and state.a <= 0.0 and (state.a < 0.0 or u <= 0.0):
        return VehicleState(state.x, 0.0, 0.0)

    c_aa, c_au, c_va, c_vu, c_xa, c_xu = zoh_coefficients(params.tau, dt)
    a_next = state.a * c_aa + u * c_au
    v_next = state.v + state.a * c_va + u * c_vu
    if v_next < 0.0:
        s = stop_crossing_time(state.v, state.a, u, params.tau, dt)
        x_stop = state.x + _position_delta_at(state.v, state.a, u, params.tau, s)
        return VehicleState(x_stop, 0.0, 0.0)
    x_next = state.x + state.v * dt + state.a * c_xa + u * c_xu
    return VehicleState(x_next, v_next, a_next)


def leader_command(profile: LeaderProfile, t: float, v, brake=None):
    """Commanded input of the lead vehicle at time t and velocity v (a float or an array).

    A leader that brakes at its limit commands brake (minus its deceleration
    limit, shaped like v) while v > 0, and 0 once stopped.  Otherwise the
    active segment is the last one starting at or before t.  Its command
    reverts to 0 where v has reached the segment's target velocity in the
    direction of the command (velocity hold).  An empty profile commands 0.
    A float v gets a float; a velocity hold on an array v gives an array.
    """
    if profile.brakes_at_limit:
        if brake is None:
            raise InvalidInputError("a leader that brakes at its limit needs its braking command")
        if isinstance(v, np.ndarray):
            return np.where(v > 0.0, brake, 0.0)
        return brake if v > 0.0 else 0.0
    active = None
    for seg in profile.segments:
        if seg.start_time > t:
            break
        active = seg
    if active is None:
        return 0.0
    if active.target_velocity is None or active.u == 0.0:
        return active.u
    held = v <= active.target_velocity if active.u < 0.0 else v >= active.target_velocity
    if isinstance(held, np.ndarray):
        return np.where(held, 0.0, active.u)
    return 0.0 if held else active.u


def leader_input(profile: LeaderProfile, state: VehicleState, t: float) -> float:
    """leader_command for one lead-vehicle state, as a float."""
    if t < 0:
        raise InvalidInputError(f"t must be nonnegative, got {t}")
    return float(leader_command(profile, t, state.v))


def spacing_error(follower: VehicleState, predecessor: VehicleState, h_w: float, d: float) -> float:
    """Constant-time-headway spacing error x_i - x_{i-1} + d + h_w*v_i.

    Zero at equilibrium; positive means the follower is closer than the
    desired gap d + h_w*v_i.
    """
    if not (h_w > 0):
        raise InvalidInputError(f"h_w must be positive, got {h_w}")
    if d < 0:
        raise InvalidInputError(f"d must be nonnegative, got {d}")
    return follower.x - predecessor.x + d + h_w * follower.v
