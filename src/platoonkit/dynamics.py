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


def _position_delta_at(v: float, a: float, u: float, tau: float, s: float) -> float:
    """Position advance s seconds into a step with constant command u."""
    r = -math.expm1(-s / tau)
    c_va = tau * r
    return v * s + a * tau * (s - c_va) + u * (0.5 * s * s - tau * (s - c_va))


_ROUNDING = 2.0 ** -49     # 16 unit roundoffs: the relative part of the bound E(s)
_UNDERFLOW = 2.0 ** -1000  # the absolute part of E(s): covers every subnormal rounding


def _certified_window(v: float, a_tau: float, u: float, tau: float, dt: float) -> tuple[float, float] | None:
    """A window [s_lo, s_hi] outside which the computed velocity's sign is certain, or None.

    See stop_crossing_time for the argument and the cases that give None.
    """
    e0 = _ROUNDING * v + _UNDERFLOW
    if not v > e0:   # F(0) > E(0); this also refuses v <= 0, where the crossing is at 0
        return None
    e1 = _ROUNDING * (abs(a_tau) / tau + abs(u))   # E(s) = e0 + e1 * s
    b = a_tau - u * tau   # its sign is that of A - u*tau whenever it is not 0
    # Newton from the side where it converges monotonically: from 0 where F
    # is convex; where it is concave, from the root of the quadratic with F's
    # value and slope at 0 and its curvature at dt, which bounds F above.
    # From dt alone, Newton only halves s per step where F(0) is tiny and F
    # bends like v - c*s**2, and runs out of steps
    s = 0.0
    if b > 0.0:
        c1, c2 = a_tau / tau, b * (1.0 + math.expm1(-dt / tau)) / (tau * tau)   # F'(0), -F''(dt)
        root = math.sqrt(c1 * c1 + 2.0 * c2 * v)
        s = dt   # where the root's quotient would divide by zero (an underflow)
        if c1 > 0.0 and c2 > 0.0:
            s = min(dt, (c1 + root) / c2)
        elif root - c1 > 0.0:   # the same root without cancellation
            s = min(dt, 2.0 * v / (root - c1))
    for _ in range(8):
        r = -math.expm1(-s / tau)
        slope = u + b * (1.0 - r) / tau
        if not slope < 0.0:
            return None
        step = (v + a_tau * r + u * (s - tau * r)) / slope
        s -= step
        if not 0.0 < s <= dt:
            return None
        if abs(step) * -slope <= e0 + e1 * s:
            break
    half = 3.0 * (e0 + e1 * s) / -slope + 2.0 * abs(step)
    s_lo, s_hi = s - half, s + half
    if not s_lo > 0.0:
        return None
    r = -math.expm1(-s_lo / tau)
    f_lo = v + a_tau * r + u * (s_lo - tau * r)
    r = -math.expm1(-s_hi / tau)
    f_hi = v + a_tau * r + u * (s_hi - tau * r)
    E_lo, E_hi = e0 + e1 * s_lo, e0 + e1 * s_hi
    if not (f_lo > 2.0 * E_lo and f_hi < -2.0 * E_hi):
        return None
    if b >= 0.0 and not (f_lo - f_hi) - (E_lo + E_hi) > e1 * (s_hi - s_lo):
        return None   # F may be concave, and its chord slope does not beat E's
    if b <= 0.0:
        r = -math.expm1(-dt / tau)
        if not v + a_tau * r + u * (dt - tau * r) < -2.0 * (e0 + e1 * dt):
            return None   # F may be convex, and F(dt) is not certainly negative
    return s_lo, s_hi


def stop_crossing_time(v: float, a: float, u: float, tau: float, dt: float) -> float:
    """First time in (0, dt] at which the in-step velocity hits zero.

    Preconditions: v >= 0 at the step start and velocity at dt is negative.
    The in-step velocity has at most one interior extremum (the acceleration
    is a monotone exponential), so with opposite endpoint signs the crossing
    is unique and bisection converges.  The result is the bisection's: from
    [0, dt], mid = 0.5 * (lo + hi) goes right where the computed velocity
    f(mid) = v + A*r + u*(mid - tau*r), r = -expm1(-mid/tau), A = a*tau, is
    positive and left otherwise, for at most 80 halvings, stopping once mid
    equals lo or hi.  That computed sign is evaluated only inside a window
    [s_lo, s_hi] around the crossing; outside it the sign is certain, so a
    midpoint below s_lo goes right and one above s_hi goes left unevaluated,
    and hi keeps its bits.

    The window's certificate.  With A a double, the exact
    F(s) = v + A*r(s) + u*(s - tau*r(s)), r(s) = 1 - exp(-s/tau), has
    F'' = (u*tau - A) * exp(-s/tau) / tau**2, of one sign on [0, dt], so F
    is convex or concave there.  The computed a*tau - u*tau has the sign of
    A - u*tau where it is not 0, and where it is 0 both cases below are
    certified.  In the standard error model (Higham, Accuracy and Stability
    of Numerical Algorithms, SIAM 2002, ch. 3), with unit roundoff
    u_r = 2**-53, expm1 within 2.5 units in the last place and
    R = r(s) <= s/tau, to first order
    |f(s) - F(s)| <= u_r*(v + 8*|A|*R + |u|*(2*s + 6*tau*R))
                  <= 8*u_r*(v + (|A|/tau + |u|)*s)
    (the last rounding of f keeps the sign of the exact sum it rounds).
    E(s) = 2**-49 * (v + (|A|/tau + |u|)*s) + 2**-1000 is twice that, which
    covers the second-order terms and E's own rounding, plus an absolute term
    for subnormal roundings; E is linear and increasing.  Guarded Newton steps
    give s_hat, and s_lo, s_hi = s_hat -/+ half with s_lo > 0.  Two
    evaluations certify F(s_lo) >= f(s_lo) - E(s_lo) > E(s_lo) and
    F(s_hi) + E(s_hi) < 0, and F(0) = v > E(0) is checked.
    - On (0, s_lo], F - E stays above a line that is positive at both ends,
      so f > 0.  A concave F lies above its chord from (0, v).  A convex F
      falls there (its slope is below the chord slope of [s_lo, s_hi],
      which is negative), so F >= F(s_lo) > E(s_lo) >= E.
    - On [s_hi, dt], F + E stays below a line that is negative at both ends,
      so f <= 0.  A convex F lies below its chord to (dt, F(dt)), and a third
      evaluation certifies F(dt) + E(dt) < 0.  A concave F's slope after
      s_hi is at most the chord slope of [s_lo, s_hi], which the
      certificate puts below -E's slope.

    The window is refused, and [0, dt] taken in its place (every midpoint
    evaluated: the plain bisection), where v <= E(0) (v = 0 puts the
    crossing at 0), Newton's slope is not negative, Newton leaves (0, dt],
    s_lo <= 0, or a check above fails: in particular where the computed
    velocity at dt is not negative, as when the caller's ZOH update and f
    round to opposite signs.
    """
    a_tau = a * tau
    s_lo, s_hi = _certified_window(v, a_tau, u, tau, dt) or (0.0, dt)
    lo, hi = 0.0, dt
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        # positive below the window, computed inside it, not positive above
        # it.  The body depends only on (lo, hi): a halving that changes
        # neither is repeated by every later one, so stop there
        if mid < s_lo or (mid <= s_hi and v + a_tau * (r := -math.expm1(-mid / tau)) + u * (mid - tau * r) > 0.0):
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
