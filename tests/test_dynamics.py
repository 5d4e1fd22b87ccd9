import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonkit.dynamics import (
    LeaderProfile,
    LeaderSegment,
    VehicleParams,
    VehicleState,
    _certified_window,
    leader_command,
    leader_input,
    spacing_error,
    step_vehicle,
    stop_crossing_time,
)
from platoonkit.errors import InvalidInputError
from check_stop_crossings import plain_bisection, random_crossings


def rk4_oracle(x, v, a, u, tau, dt, n=20_000):
    """Brute-force integration of x''=a, tau*a'+a=u with constant u."""
    h = dt / n
    y = np.array([x, v, a], dtype=float)

    def f(y):
        return np.array([y[1], y[2], (u - y[2]) / tau])

    for _ in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


class TestStepVehicle:
    def test_first_order_lag_response(self, default_params):
        # a' = 1 - e^{-1} for a=0, u=1 over one time constant
        out = step_vehicle(VehicleState(0.0, 10.0, 0.0), 1.0, 0.5, default_params)
        assert out.a == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        oracle = rk4_oracle(0.0, 10.0, 0.0, 1.0, 0.5, 0.5)
        assert out.x == pytest.approx(oracle[0], abs=1e-11)
        assert out.v == pytest.approx(oracle[1], abs=1e-11)
        assert out.a == pytest.approx(oracle[2], abs=1e-11)

    def test_equilibrium_cruise(self, default_params):
        st0 = VehicleState(12.0, 25.0, 0.0)
        out = step_vehicle(st0, 0.0, 0.7, default_params)
        assert out.x == pytest.approx(12.0 + 25.0 * 0.7, abs=1e-12)
        assert out.v == 25.0
        assert out.a == 0.0

    def test_full_stop_clamp(self, default_params):
        out = step_vehicle(VehicleState(0.0, 0.01, 0.0), -9.0, 0.2, default_params)
        assert out.v == 0.0
        assert out.a == 0.0
        assert 0.0 < out.x < 0.01 * 0.2

    def test_stopped_vehicle_stays_stopped_under_braking(self, default_params):
        out = step_vehicle(VehicleState(3.0, 0.0, 0.0), -5.0, 0.01, default_params)
        assert out == VehicleState(3.0, 0.0, 0.0)

    def test_stopped_vehicle_pulls_away_on_positive_command(self, default_params):
        out = step_vehicle(VehicleState(0.0, 0.0, 0.0), 2.0, 0.1, default_params)
        assert out.v > 0.0
        assert out.a > 0.0

    def test_non_finite_rejected(self, default_params):
        with pytest.raises(InvalidInputError):
            step_vehicle(VehicleState(0.0, math.nan, 0.0), 0.0, 0.1, default_params)
        with pytest.raises(InvalidInputError):
            step_vehicle(VehicleState(0.0, 1.0, 0.0), math.inf, 0.1, default_params)
        with pytest.raises(InvalidInputError):
            step_vehicle(VehicleState(0.0, 1.0, 0.0), 0.0, 0.0, default_params)

    @settings(max_examples=80, deadline=None)
    @given(
        a0=st.floats(-5, 5),
        u=st.floats(-5, 5),
        tau=st.floats(0.2, 1.0),
        dt=st.floats(0.01, 0.5),
        n=st.integers(2, 7),
    )
    def test_exact_composition(self, a0, u, tau, dt, n):
        # n small steps must equal one big step: the closed form is exact
        params = VehicleParams(tau=tau)
        big = step_vehicle(VehicleState(0.0, 100.0, a0), u, n * dt, params)
        cur = VehicleState(0.0, 100.0, a0)
        for _ in range(n):
            cur = step_vehicle(cur, u, dt, params)
        if big.v > 0 and cur.v > 0:  # clamping breaks the semigroup property
            assert cur.x == pytest.approx(big.x, rel=1e-10, abs=1e-10)
            assert cur.v == pytest.approx(big.v, rel=1e-10, abs=1e-10)
            assert cur.a == pytest.approx(big.a, rel=1e-10, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(u=st.floats(-8, 8), tau=st.floats(0.2, 1.0), a0=st.floats(-4, 4))
    def test_lag_closes_63_percent_after_tau(self, u, tau, a0):
        out = step_vehicle(VehicleState(0.0, 50.0, a0), u, tau, VehicleParams(tau=tau))
        if out.v > 0:
            expected = u + (a0 - u) * math.exp(-1.0)
            assert out.a == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        v0=st.floats(0, 30),
        commands=st.lists(st.floats(-10, 4), min_size=1, max_size=60),
    )
    def test_velocity_never_negative(self, v0, commands):
        params = VehicleParams(tau=0.4)
        cur = VehicleState(0.0, v0, 0.0)
        for u in commands:
            cur = step_vehicle(cur, u, 0.1, params)
            assert cur.v >= 0.0


class TestStopCrossing:
    def test_matches_full_bisection(self):
        # the early exit and the certified window return bit for bit what all
        # 80 halvings return, on the crossing script's seeded sweep: most real
        # crossings start almost at rest (v ~ 1e-6 m/s, |a| ~ 1e-4 m/s^2) under
        # a small creep command u > 0, so v and a span many decades
        checked = 0
        for case in random_crossings(np.random.default_rng(8), 60_000):
            assert stop_crossing_time(*case) == plain_bisection(*case), case
            v, a, u, tau, dt = case
            # the certified window is what was checked: only a start at rest
            # (the crossing is at 0) is refused it
            assert (_certified_window(v, a * tau, u, tau, dt) is not None) == (v > 0.0), case
            checked += 1
        assert checked == 60_000

    @pytest.mark.parametrize(
        "case, expected, windowed",
        [
            # at rest, or next to it: every midpoint lies above the root, and
            # the 80 halvings end at dt * 2**-80, not at a fixed point; v = 0
            # puts the root at 0 and takes the plain bisection, v = 1e-300
            # replays all 80 midpoints without one evaluation
            ((0.0, -1.0, -1.0, 0.5, 0.01), 8.271806125530277e-27, False),
            ((1e-300, -1.0, -1.0, 0.5, 0.01), 8.271806125530277e-27, True),
            # below the rounding bound's absolute floor: the plain bisection
            ((1e-305, -1.0, -1.0, 0.5, 0.01), 8.271806125530277e-27, False),
            ((1e-18, -4.5e-4, 8.4e-6, 0.5, 0.01), None, True),
            ((1e-18, -3.0, -9.0, 0.5, 0.2), None, True),
            # no acceleration to speak of: the command alone stops the vehicle
            ((1e-5, 0.0, -5.0, 0.5, 0.01), None, True),
            ((1e-5, -0.0, -5.0, 0.5, 0.01), None, True),
            ((1e-5, 1e-300, -5.0, 0.5, 0.01), None, True),
            # the computed velocity at dt is still positive: the bisection
            # never turns left and returns dt
            ((2e-6, -1e-14, -1e-3, 0.5, 0.01), 0.01, False),
        ],
        ids=["v=0", "v=1e-300", "v=1e-305", "v=1e-18 creeping", "v=1e-18 braking", "a=0", "a=-0", "a=1e-300",
             "f(dt)>0"],
    )
    def test_edge_cases_match_full_bisection(self, case, expected, windowed):
        got = stop_crossing_time(*case)
        assert got == plain_bisection(*case)
        if expected is not None:
            assert got == expected
        v, a, u, tau, dt = case
        assert (_certified_window(v, a * tau, u, tau, dt) is not None) == windowed


class TestLeaderInput:
    def profile(self):
        return LeaderProfile((LeaderSegment(0.0, 0.0), LeaderSegment(10.0, -9.0, 16.0)))

    def test_cruise_phase(self):
        assert leader_input(self.profile(), VehicleState(0, 25.0, 0), 5.0) == 0.0

    def test_braking_phase(self):
        assert leader_input(self.profile(), VehicleState(0, 24.0, -3.0), 10.1) == -9.0

    def test_velocity_hold_after_target(self):
        assert leader_input(self.profile(), VehicleState(0, 16.0, -9.0), 12.0) == 0.0
        assert leader_input(self.profile(), VehicleState(0, 13.0, -2.0), 20.0) == 0.0

    def test_empty_profile(self):
        assert leader_input(LeaderProfile(), VehicleState(0, 10.0, 0), 3.0) == 0.0

    def test_command_is_a_float_for_a_float_velocity(self):
        # the one-realization engine loop steps on Python floats
        for v, expected in ((24.0, -9.0), (16.0, 0.0)):
            u = leader_command(self.profile(), 12.0, v)
            assert type(u) is float and u == expected
        u = leader_command(self.profile(), 12.0, np.array([24.0, 16.0]))
        assert isinstance(u, np.ndarray) and u.tolist() == [-9.0, 0.0]

    def test_positive_command_hold(self):
        prof = LeaderProfile((LeaderSegment(0.0, 2.0, 20.0),))
        assert leader_input(prof, VehicleState(0, 18.0, 1.0), 1.0) == 2.0
        assert leader_input(prof, VehicleState(0, 20.5, 1.0), 5.0) == 0.0

    def test_brake_at_limit_commands_the_braking_command_while_moving(self):
        prof = LeaderProfile(brakes_at_limit=True)
        assert leader_command(prof, 3.0, 12.0, -7.5) == -7.5
        assert leader_command(prof, 3.0, 0.0, -7.5) == 0.0
        u = leader_command(prof, 3.0, np.array([12.0, 0.0, 1.0]), np.array([-7.5, -8.0, -9.0]))
        assert isinstance(u, np.ndarray) and u.tolist() == [-7.5, 0.0, -9.0]
        with pytest.raises(InvalidInputError, match="braking command"):
            leader_input(prof, VehicleState(0, 10.0, 0), 1.0)

    def test_brake_at_limit_takes_no_segments(self):
        with pytest.raises(InvalidInputError, match="takes no segments"):
            LeaderProfile((LeaderSegment(0.0, -9.0, 0.0),), brakes_at_limit=True)

    def test_segment_order_validation(self):
        with pytest.raises(InvalidInputError):
            LeaderProfile((LeaderSegment(1.0, 0.0),))
        with pytest.raises(InvalidInputError):
            LeaderProfile((LeaderSegment(0.0, 0.0), LeaderSegment(0.0, -1.0)))


class TestSpacingError:
    def test_equilibrium_is_zero(self):
        pred = VehicleState(100.0, 25.0, 0.0)
        foll = VehicleState(100.0 - 5.0 - 1.0 * 25.0, 25.0, 0.0)
        assert spacing_error(foll, pred, 1.0, 5.0) == 0.0

    def test_arithmetic_identity(self):
        assert spacing_error(
            VehicleState(70.0, 25.0, 0), VehicleState(100.0, 25.0, 0), 1.0, 5.0
        ) == pytest.approx(0.0)

    def test_too_close_is_positive(self):
        e = spacing_error(VehicleState(80.0, 25.0, 0), VehicleState(100.0, 25.0, 0), 1.0, 5.0)
        assert e == pytest.approx(10.0)
