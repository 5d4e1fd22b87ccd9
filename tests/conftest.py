import dataclasses
import math

import numpy as np
import pytest

from check_stop_crossings import plain_bisection
from platoonkit.control import ControllerConfig
from platoonkit.dynamics import VehicleParams, VehicleState, step_vehicle, zoh_coefficients


@pytest.fixture
def figure_gains():
    """Gains shared by the shipped figure scenarios: (k_a, k_v, k_p) = (0.4, 1, 0.8)."""
    return dict(k_a=0.4, k_v=1.0, k_p=0.8)


@pytest.fixture
def default_params():
    return VehicleParams(tau=0.5, length=5.0, decel_limit=9.0, accel_limit=3.0)


def random_stable_config(rng: np.random.Generator, gamma: float | None = None):
    """Sample (cfg, tau, gamma) whose per-vehicle loop is Hurwitz.

    Gains are drawn freely and re-drawn until the cubic's Routh condition
    k_v + k_p*h_w > tau*k_p holds; string stability is NOT implied.
    """
    while True:
        tau = rng.uniform(0.2, 0.8)
        g = rng.uniform(0.0, 1.0) if gamma is None else gamma
        cfg = ControllerConfig(
            k_a=rng.uniform(0.0, 1.2),
            k_v=rng.uniform(0.2, 3.0),
            k_p=rng.uniform(0.1, 3.0),
            h_w=rng.uniform(0.3, 2.0),
        )
        if cfg.k_v + cfg.k_p * cfg.h_w > tau * cfg.k_p:
            return cfg, tau, g


def reference_step(state: VehicleState, u: float, dt: float, params: VehicleParams, stops=None) -> VehicleState:
    """step_vehicle with a stop of its own: it never calls stop_crossing_time.

    Where the ZOH velocity at dt is negative and step_vehicle would bisect,
    the crossing time s is the plain bisection's (all 80 halvings of [0, dt],
    scripts/check_stop_crossings.py) and the vehicle stops at the closed-form
    position x + v*s + a*tau*(s - tau*r) + u*(s*s/2 - tau*(s - tau*r)),
    r = 1 - exp(-s/tau); ((v, a, u, tau, dt), s) is appended to stops (a
    list, if given).  Every other step, a held stop included, is
    step_vehicle's, which then does not bisect.
    """
    tau = params.tau
    _, _, c_va, c_vu, _, _ = zoh_coefficients(tau, dt)
    held = state.v == 0.0 and state.a <= 0.0 and (state.a < 0.0 or u <= 0.0)
    if held or not state.v + state.a * c_va + u * c_vu < 0.0:
        return step_vehicle(state, u, dt, params)
    s = plain_bisection(state.v, state.a, u, tau, dt)
    if stops is not None:
        stops.append(((state.v, state.a, u, tau, dt), s))
    lag = s - tau * -math.expm1(-s / tau)
    return VehicleState(state.x + (state.v * s + state.a * tau * lag + u * (0.5 * s * s - tau * lag)), 0.0, 0.0)


def reference_platoon_sim(scenario, receptions=None, wfactor=None, decel_limits=None, events=None, stops=None):
    """Scalar-loop platoon simulation built from the public step/control ops.

    Independent of the vectorized engine: one reference_step call per
    vehicle per step, so a stop time comes from the plain bisection and not
    from stop_crossing_time; controls through cacc_control/acc_control/
    saturate.  receptions is an optional (n_followers, n_steps) boolean
    array; wfactor (if given) scales the feed-forward deterministically
    instead.  decel_limits holds one braking limit per vehicle (default: the
    scenario's).  A leader that brakes at its limit commands -limit while
    moving, else 0.  When two adjacent vehicles first overlap, both are held
    where they are with v = a = 0 from then on, and the pair's (time, lead,
    follower) is appended to events (a list, if given) once.  A position at
    rest does not move with an error in its stop time, so stops (a list, if
    given) receives each bisected stop's arguments and time (see
    reference_step).
    """
    from platoonkit.control import acc_control, cacc_control, saturate
    from platoonkit.dynamics import leader_input, spacing_error

    sc = scenario
    M = sc.n_vehicles
    if decel_limits is None:
        decel_limits = [sc.params.decel_limit] * M
    params = [dataclasses.replace(sc.params, decel_limit=float(lim)) for lim in decel_limits]
    frozen = [False] * M
    collided = [False] * (M - 1)
    states = []
    row = [VehicleState(0.0, sc.initial_speed, 0.0)]
    for i in range(1, M):
        row.append(
            VehicleState(
                row[-1].x - sc.standstill_gap - sc.controller.h_w * sc.initial_speed,
                sc.initial_speed,
                0.0,
            )
        )
    states.append(row)
    errors = [[spacing_error(row[i], row[i - 1], sc.controller.h_w, sc.standstill_gap)
               for i in range(1, M)]]
    for k in range(sc.n_steps):
        t = k * sc.dt
        prev = states[-1]
        if sc.leader.brakes_at_limit:
            u0 = -params[0].decel_limit if prev[0].v > 0.0 else 0.0
        else:
            u0 = leader_input(sc.leader, prev[0], t)
        commands = [u0]
        for i in range(1, M):
            if sc.controller.mode == "acc":
                u = acc_control(prev[i], prev[i - 1], sc.controller, sc.standstill_gap)
            else:
                if receptions is not None:
                    recv = prev[i - 1].a if receptions[i - 1, k] else None
                    u = cacc_control(prev[i], prev[i - 1], recv, sc.controller, sc.standstill_gap)
                elif wfactor is not None:
                    u = cacc_control(prev[i], prev[i - 1], wfactor * prev[i - 1].a,
                                     sc.controller, sc.standstill_gap)
                else:
                    u = cacc_control(prev[i], prev[i - 1], prev[i - 1].a,
                                     sc.controller, sc.standstill_gap)
            commands.append(u)
        new = [
            prev[i] if frozen[i] else reference_step(prev[i], saturate(commands[i], params[i]), sc.dt, params[i], stops)
            for i in range(M)
        ]
        for p in range(M - 1):
            if not collided[p] and new[p].x - new[p + 1].x - sc.params.length <= 0.0:
                collided[p] = True
                if events is not None:
                    events.append(((k + 1) * sc.dt, p, p + 1))
                for i in (p, p + 1):
                    frozen[i] = True
                    new[i] = VehicleState(new[i].x, 0.0, 0.0)
        states.append(new)
        errors.append([spacing_error(new[i], new[i - 1], sc.controller.h_w, sc.standstill_gap)
                       for i in range(1, M)])
    return np.array([[(s.x, s.v, s.a) for s in row] for row in states]), np.array(errors)
