import dataclasses
import functools
import math
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_platoon_sim
from platoonkit import dynamics, montecarlo
from platoonkit.channel import GilbertParams, channel_step, iid_channel, initial_state
from platoonkit.control import ControllerConfig
from platoonkit.dynamics import LeaderProfile, LeaderSegment, VehicleParams
from platoonkit.errors import ConfigError, InvalidInputError
from platoonkit.montecarlo import (
    BATCH_SIZE,
    RECEPTION_BLOCK,
    RECEPTION_TILE,
    ChannelSpec,
    DecelDistribution,
    ScenarioConfig,
    _receptions,
    detect_collisions,
    run_realization,
    run_realizations,
    run_safety_study,
    validate_mean_trajectory,
)
from platoonkit.scenario import load_scenario
from platoonkit.stability import cacc_system_matrix

FIG3 = Path(__file__).resolve().parent.parent / "scenarios" / "fig3.scn"

BRAKE_PROFILE = LeaderProfile((LeaderSegment(0.0, 0.0), LeaderSegment(10.0, -9.0, 16.0)))
# the leader brakes from t = 1 s, so the feed-forward term, and with it
# every dropped packet, moves the string within a short horizon
EARLY_BRAKE = LeaderProfile((LeaderSegment(0.0, 0.0), LeaderSegment(1.0, -9.0, 16.0)))


def small_scenario(**overrides) -> ScenarioConfig:
    base = dict(
        n_followers=3,
        params=VehicleParams(tau=0.5, length=5.0, decel_limit=15.0, accel_limit=10.0),
        controller=ControllerConfig(k_a=0.4, k_v=1.0, k_p=0.8, h_w=0.9),
        channel=ChannelSpec(kind="ideal"),
        leader=BRAKE_PROFILE,
        initial_speed=25.0,
        dt=0.01,
        duration=20.0,
        standstill_gap=5.0,
        base_seed=99,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def pair_stream(base_seed: int, realization: int, pair: int) -> np.random.Generator:
    """The documented channel stream of one V2V pair."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((base_seed, 0, realization, pair))))


class TestDetectCollisions:
    def test_positive_gap_no_event(self):
        assert detect_collisions([10.0, 4.5], [5.0, 5.0]).tolist() == [False]

    def test_overlap_event(self):
        # gap = 10 - 5.01 - 5 = -0.01; a touching pair (gap 0) collides too
        assert detect_collisions([10.0, 5.01], [5.0, 5.0]).tolist() == [True]
        assert detect_collisions([10.0, 5.0], [5.0, 5.0]).tolist() == [True]

    def test_three_vehicle_pileup_two_events(self):
        # hand-built positions: both adjacent gaps overlap in the first row,
        # only the rear one in the second (the engine passes one row per run)
        positions = [[20.0, 15.0, 10.5], [20.0, 14.0, 10.5]]
        lengths = [5.0, 5.0, 5.0]
        assert detect_collisions(positions, lengths).tolist() == [[True, True], [False, True]]

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            detect_collisions([1.0, 2.0], [5.0])


class TestDecelSampling:
    def test_point_mass(self):
        dist = DecelDistribution(kind="point", value=9.0)
        rng = np.random.default_rng(0)
        assert np.all(dist.sample(10, rng) == 9.0)

    def test_uniform_mean(self):
        dist = DecelDistribution(kind="uniform", low=6.0, high=9.0)
        rng = np.random.default_rng(1)
        draws = dist.sample(100_000, rng)
        assert draws.mean() == pytest.approx(7.5, abs=0.02)

    @pytest.mark.parametrize("mean, std, low, high", [
        (7.5, 1.0, 4.5, 9.5),     # the -3/+2 sigma window is asymmetric
        (7.5, 0.5, 12.5, 13.0),   # 10 to 11 sigma above the mean, where the CDF rounds to 1.0
        (60.0, 2.0, 4.5, 9.5),    # 27.75 to 25.25 sigma below the mean
    ])
    def test_support_and_mean(self, mean, std, low, high):
        dist = DecelDistribution(kind="truncnorm", mean=mean, std=std, low=low, high=high)
        rng = np.random.default_rng(2)
        draws = dist.sample(50_000, rng)
        assert draws.min() >= low and draws.max() <= high
        # analytic truncated-normal mean, each tail read on its own side for precision
        from scipy.stats import norm

        a, b = (low - mean) / std, (high - mean) / std
        mass = norm.sf(a) - norm.sf(b) if a > 0 else norm.cdf(b) - norm.cdf(a)
        expected = mean + std * (norm.pdf(a) - norm.pdf(b)) / mass
        assert draws.mean() == pytest.approx(expected, abs=0.02 * std)

    @pytest.mark.parametrize("mean, std, low, high", [
        (7.5, 0.1, 20.0, 21.0),   # 125 sigma above the mean
        (60.0, 1.0, 4.5, 5.0),    # 55 sigma below the mean
    ])
    def test_window_whose_mass_underflows_rejected(self, mean, std, low, high):
        with pytest.raises(InvalidInputError, match="^low, high: "):
            DecelDistribution(kind="truncnorm", mean=mean, std=std, low=low, high=high)

    @pytest.mark.parametrize("low, high, u", [
        (7.5, 20.0, 1.0 - 2.0 ** -53),   # the CDFs are 0.5 and 1.0, and 0.5 + u * 0.5 rounds to 1.0
        (7.5, 20.0, 0.0),
        (2.0, 4.0, 0.0),                 # the quantile of the CDF at low is 1 ulp below low
    ])
    def test_extreme_uniforms_draw_inside_the_window(self, low, high, u):
        class Stub:
            def random(self, n):
                return np.full(n, u)

        dist = DecelDistribution(kind="truncnorm", mean=7.5, std=1.0, low=low, high=high)
        draws = dist.sample(3, Stub())
        assert np.all(np.isfinite(draws)) and draws.min() >= low and draws.max() <= high

    def test_normal_cdf_matches_ndtr(self):
        from scipy.special import ndtr

        z = np.linspace(-37.5, 8.3, 100_001)
        cdf = np.array([montecarlo._normal_cdf(x) for x in z.tolist()])
        np.testing.assert_allclose(cdf, ndtr(z), rtol=1e-12, atol=0.0)

    def test_inv_cdf_matches_ndtri(self):
        from scipy.special import ndtri

        p = np.concatenate([np.logspace(-307.0, -1.0, 20_001), np.linspace(0.1, 1.0 - 1e-6, 20_001)])
        z = np.array([montecarlo._STANDARD_NORMAL.inv_cdf(q) for q in p.tolist()])
        np.testing.assert_allclose(z, ndtri(p), rtol=1e-14, atol=0.0)

    def test_validation(self):
        with pytest.raises(InvalidInputError, match="^low, high: need 0 < low <= high"):
            DecelDistribution(kind="uniform", low=5.0, high=4.0)
        with pytest.raises(InvalidInputError, match="^kind must be one of"):
            DecelDistribution(kind="gauss")


def alone_and_batched(sc: ScenarioConfig, r: int) -> list:
    """Realization r run alone (the float loop) and inside a batch of two (the batched loop), bit for bit equal."""
    alone, batched = run_realization(sc, r), run_realizations(sc, [r, r + 1])[0]
    assert alone.states.tobytes() == batched.states.tobytes()
    assert alone.spacing_errors.tobytes() == batched.spacing_errors.tobytes()
    return [alone, batched]


class TestEngineCore:
    def test_zero_maneuver_zero_errors(self):
        sc = small_scenario(leader=LeaderProfile(), duration=5.0)
        result = run_realization(sc, 0)
        assert np.all(result.spacing_errors == 0.0)
        assert not result.collided

    def test_matches_scalar_reference_ideal(self):
        sc = small_scenario(duration=8.0)
        states, errors = reference_platoon_sim(sc)
        for engine in alone_and_batched(sc, 0):
            assert np.allclose(engine.states, states, atol=1e-11)
            assert np.allclose(engine.spacing_errors, errors, atol=1e-11)

    def test_matches_scalar_reference_acc(self):
        sc = small_scenario(
            controller=ControllerConfig(k_a=0.25, k_v=0.8, k_p=2.0, h_w=1.0, mode="acc"),
            duration=8.0,
        )
        states, _ = reference_platoon_sim(sc)
        for engine in alone_and_batched(sc, 0):
            assert np.allclose(engine.states, states, atol=1e-11)

    def test_matches_scalar_reference_gilbert(self):
        gp = GilbertParams(0.3, 0.1, 0.2)
        sc = small_scenario(channel=ChannelSpec(kind="gilbert", gilbert=gp), leader=EARLY_BRAKE,
                            duration=6.0)
        # replay each pair's documented stream through the scalar channel ops
        recv = np.empty((sc.n_followers, sc.n_steps), dtype=bool)
        for pair in range(sc.n_followers):
            rng = pair_stream(sc.base_seed, 4, pair)
            good = initial_state(gp, rng)
            for k in range(sc.n_steps):
                good, recv[pair, k] = channel_step(good, gp, rng)
        states, _ = reference_platoon_sim(sc, receptions=recv)
        for engine in alone_and_batched(sc, 4):
            assert np.allclose(engine.states, states, atol=1e-11)

    def test_matches_scalar_reference_iid(self):
        sc = small_scenario(channel=ChannelSpec(kind="iid", gamma=0.6), leader=EARLY_BRAKE,
                            duration=6.0)
        recv = np.empty((sc.n_followers, sc.n_steps), dtype=bool)
        for pair in range(sc.n_followers):
            rng = pair_stream(sc.base_seed, 4, pair)
            for k in range(sc.n_steps):
                recv[pair, k] = iid_channel(0.6, rng)
        states, _ = reference_platoon_sim(sc, receptions=recv)
        for engine in alone_and_batched(sc, 4):
            assert np.allclose(engine.states, states, atol=1e-11)

    def test_matches_scalar_reference_deterministic_gamma(self):
        sc = small_scenario(channel=ChannelSpec(kind="deterministic", gamma=0.4), duration=6.0)
        states, _ = reference_platoon_sim(sc, wfactor=0.4)
        for engine in alone_and_batched(sc, 0):
            assert np.allclose(engine.states, states, atol=1e-11)

    def test_saturation_respected(self):
        sc = small_scenario(
            params=VehicleParams(tau=0.5, length=5.0, decel_limit=4.0, accel_limit=2.0),
            duration=14.0,
        )
        result = run_realization(sc, 0)
        accel = result.states[:, :, 2]
        assert accel.min() >= -4.0 - 1e-12
        assert accel.max() <= 2.0 + 1e-12

    def test_ideal_channel_peaks_decay_without_collisions(self):
        # lossless feed-forward above the headway bound: braking peaks shrink
        # monotonically down the string and nobody collides
        sc = small_scenario(
            n_followers=5,
            controller=ControllerConfig(k_a=0.4, k_v=1.0, k_p=0.8, h_w=0.75),
            duration=30.0,
        )
        assert sc.controller.h_w >= 2 * sc.params.tau / (1 + sc.controller.k_a)
        result = run_realization(sc, 0)
        peaks = np.abs(result.spacing_errors).max(axis=0)
        assert np.all(np.diff(peaks) < 0)
        assert not result.collided

    def test_point_mass_decel_single_run_no_collision(self):
        # homogeneous capable brakes, emergency stop: string stays collision-free
        sc = small_scenario(
            n_followers=5,
            params=VehicleParams(tau=0.5, length=5.0, decel_limit=9.0, accel_limit=3.0),
            controller=ControllerConfig(k_a=0.25, k_v=0.8, k_p=2.0, h_w=1.0),
            leader=LeaderProfile(brakes_at_limit=True),
            decel_dist=DecelDistribution(kind="point", value=9.0),
            initial_speed=30.0,
            duration=20.0,
            realizations=1,
        )
        stats = run_safety_study(sc)
        assert stats.p_collision == 0.0
        assert stats.mean_events_per_unstable is None

    def test_velocities_never_negative(self):
        sc = small_scenario(
            leader=LeaderProfile((LeaderSegment(0.0, -9.0, 0.0),)),
            params=VehicleParams(tau=0.5, length=5.0, decel_limit=9.0, accel_limit=3.0),
            duration=12.0,
            initial_speed=20.0,
        )
        result = run_realization(sc, 0)
        assert result.states[:, :, 1].min() >= 0.0
        # the leader is at rest; followers may still be closing up to the
        # standstill gap at crawl speed
        assert result.states[-1, 0, 1] == 0.0


class TestReceptions:
    # more than one block of slots and one tile of channels, neither a multiple
    N_SLOTS = 2 * RECEPTION_BLOCK + 37
    INDICES = np.array([2, 9] + list(range(20, 63)))     # 45 realizations x 3 pairs
    N_PAIRS = 3

    def masks(self, channel):
        assert len(self.INDICES) * self.N_PAIRS > RECEPTION_TILE
        assert len(self.INDICES) * self.N_PAIRS % RECEPTION_TILE != 0
        assert self.N_SLOTS % RECEPTION_BLOCK != 0
        gen = _receptions(channel, 7, self.INDICES, self.N_PAIRS, self.N_SLOTS)
        # (n_pairs, R) per slot: follower-major, like the engine's batch
        out = np.stack([next(gen) for _ in range(self.N_SLOTS)], axis=-1)
        assert out.shape == (self.N_PAIRS, len(self.INDICES), self.N_SLOTS)
        assert next(gen, None) is None
        return out

    def test_gilbert_matches_scalar_chain(self):
        gp = GilbertParams(0.3, 0.1, 0.2)
        recv = self.masks(ChannelSpec(kind="gilbert", gilbert=gp))
        for r, idx in enumerate(self.INDICES):
            for p in range(self.N_PAIRS):
                rng = pair_stream(7, idx, p)
                good = initial_state(gp, rng)
                for k in range(self.N_SLOTS):
                    good, received = channel_step(good, gp, rng)
                    assert recv[p, r, k] == received, (idx, p, k)

    def test_iid_matches_scalar_draws(self):
        recv = self.masks(ChannelSpec(kind="iid", gamma=0.6))
        for r, idx in enumerate(self.INDICES):
            for p in range(self.N_PAIRS):
                rng = pair_stream(7, idx, p)
                expected = [iid_channel(0.6, rng) for _ in range(self.N_SLOTS)]
                assert recv[p, r].tolist() == expected, (idx, p)


class TestDeterminism:
    def test_batching_invariance(self):
        gp = GilbertParams(0.3, 0.1, 0.2)
        sc = small_scenario(channel=ChannelSpec(kind="gilbert", gilbert=gp), leader=EARLY_BRAKE,
                            duration=4.0)
        # 6 x 3 channels fit in one reception tile; 45 x 3 span two
        assert 6 * sc.n_followers < RECEPTION_TILE < 45 * sc.n_followers
        for n_runs in (6, 45):
            singles = [run_realization(sc, i) for i in range(n_runs)]
            batched = run_realizations(sc, np.arange(n_runs))
            shuffled = run_realizations(sc, np.random.default_rng(n_runs).permutation(n_runs))
            by_index = {r.index: r for r in shuffled}
            for s, b in zip(singles, batched):
                assert np.array_equal(s.spacing_errors, b.spacing_errors)
                assert np.array_equal(s.spacing_errors, by_index[s.index].spacing_errors)
                assert s.collision_events == b.collision_events
            # the receptions moved the string differently in every run
            assert len({s.spacing_errors.tobytes() for s in singles}) == n_runs

    def test_seed_changes_stochastic_runs(self):
        gp = GilbertParams(0.3, 0.1, 0.2)
        # duration must cover the t=10 maneuver: at equilibrium the dropped
        # feed-forward multiplies a zero acceleration and has no effect
        sc = small_scenario(channel=ChannelSpec(kind="gilbert", gilbert=gp), duration=14.0)
        r0 = run_realization(sc, 0)
        r1 = run_realization(dataclasses.replace(sc, base_seed=100), 0)
        assert not np.array_equal(r0.spacing_errors, r1.spacing_errors)

    # an unchecked index goes wrong four ways: -1 runs silently on an ideal
    # channel with fixed decel limits and reports index -1, -1 raises a bare
    # ValueError from the reception streams, 2**70 overflows the index array,
    # and 1.5 and True are truncated to realization 1
    @pytest.mark.parametrize("channel, index", [
        ("ideal", -1), ("gilbert", -1), ("ideal", 2**70), ("ideal", 1.5), ("ideal", True)])
    def test_index_outside_an_array_index_is_config_error(self, channel, index):
        sc = small_scenario(duration=0.1) if channel == "ideal" else load_scenario(FIG3)
        named = rf"^realization_index must be in \[0, {montecarlo._INDEX_MAX}\], got {index}$"
        for batch in ([index], [0, index]):
            with pytest.raises(ConfigError, match=named):
                run_realizations(sc, batch)
        with pytest.raises(ConfigError, match=named):
            run_realization(sc, index)

    def test_pair_streams_independent(self):
        gp = GilbertParams(0.3, 0.1, 0.2)
        gen = _receptions(ChannelSpec(kind="gilbert", gilbert=gp), 7, np.arange(40), 5, 2000)
        recv = np.stack([next(gen) for _ in range(2000)], axis=-1)
        flat = recv.reshape(-1, 2000).astype(float)
        # adjacent-pair correlation across the 200 channels
        for a, b in [(0, 1), (1, 2), (10, 23)]:
            x = flat[a] - flat[a].mean()
            y = flat[b] - flat[b].mean()
            corr = x @ y / np.sqrt((x @ x) * (y @ y))
            assert abs(corr) < 4.0 / np.sqrt(2000 / 4)


class TestCollisions:
    def crash_scenario(self):
        # weak-braking follower behind a hard-braking leader
        return small_scenario(
            n_followers=1,
            params=VehicleParams(tau=0.5, length=5.0, decel_limit=2.0, accel_limit=3.0),
            leader=LeaderProfile(brakes_at_limit=True),
            decel_dist=DecelDistribution(kind="point", value=9.0),
            initial_speed=30.0,
            duration=12.0,
            controller=ControllerConfig(k_a=0.25, k_v=0.8, k_p=2.0, h_w=1.0, mode="acc"),
        )

    def test_collision_detected_and_frozen(self):
        sc = self.crash_scenario()
        # follower keeps the sampled 9 but the leader needs its own limit;
        # give the follower a weak limit via a two-point trick: use acc mode
        # with uniform dist replaced by fixed weak follower handled below.
        result = run_realization(sc, 0)
        # with point-mass 9 for everyone there is no collision
        assert not result.collided

    @pytest.mark.parametrize("batch", [[0], [0, 1]], ids=["alone", "in a batch of 2"])
    def test_heterogeneous_crash_freezes_both(self, batch):
        # sluggish follower controller reacts too late to an emergency stop
        sc = small_scenario(
            n_followers=1,
            params=VehicleParams(tau=0.6, length=5.0, decel_limit=9.0, accel_limit=3.0),
            leader=LeaderProfile((LeaderSegment(0.0, -9.0, 0.0),)),
            initial_speed=30.0,
            duration=15.0,
            controller=ControllerConfig(k_a=0.25, k_v=0.3, k_p=0.3, h_w=0.4, mode="acc"),
        )
        result = run_realizations(sc, batch)[0]
        assert result.collided
        assert len(result.collision_events) == 1
        t_hit, lead, foll = result.collision_events[0]
        assert (lead, foll) == (0, 1)
        k_hit = int(round(t_hit / sc.dt))
        # both vehicles stop instantaneously and stay frozen: v and a are +0.0, bit for bit
        frozen = result.states[k_hit:]
        assert k_hit < sc.n_steps - 100
        assert frozen[..., 1:].tobytes() == np.zeros_like(frozen[..., 1:]).tobytes()
        assert np.all(frozen[:, :, 0] == frozen[0, :, 0])
        # overlap at the collision instant
        gap = result.states[k_hit, 0, 0] - result.states[k_hit, 1, 0] - sc.params.length
        assert gap <= 0.0

    def test_collided_flag_matches_events(self):
        sc = self.crash_scenario()
        res = run_realization(sc, 0)
        assert res.collided == bool(res.collision_events)


def crash_study(**overrides) -> ScenarioConfig:
    """40 heterogeneous-braking runs of which 11 collide, with one or two events each."""
    base = dict(
        leader=LeaderProfile(brakes_at_limit=True),
        initial_speed=30.0,
        duration=10.0,
        controller=ControllerConfig(k_a=0.25, k_v=0.8, k_p=2.0, h_w=1.0),
        params=VehicleParams(tau=0.5, length=5.0, decel_limit=9.0, accel_limit=3.0),
        decel_dist=DecelDistribution(kind="truncnorm", mean=7.5, std=1.0, low=4.5, high=9.5),
        realizations=40,
    )
    base.update(overrides)
    return small_scenario(**base)


def decel_stream(base_seed: int, realization: int) -> np.random.Generator:
    """The documented deceleration-limit stream of one realization."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((base_seed, 1, realization))))


class TestSafetyOracle:
    """The engine's safety paths against the scalar reference: per-vehicle
    decel limits, the leader braking at its limit, stop-and-creep and
    collision freezing, bit for bit."""

    @pytest.mark.parametrize("mode", ["acc", "cacc"])
    def test_crash_study_matches_scalar_reference(self, mode, monkeypatch):
        def refused(*args):
            raise AssertionError("the reference stops on its own bisection, not on stop_crossing_time")

        engine_bisection = montecarlo.stop_crossing_time
        bisected = []

        def spy(*args):
            s = engine_bisection(*args)
            bisected.append((args, s))
            return s

        # step_vehicle reads dynamics' binding, both engine loops montecarlo's
        monkeypatch.setattr(dynamics, "stop_crossing_time", refused)
        monkeypatch.setattr(montecarlo, "stop_crossing_time", spy)
        sc = crash_study(controller=ControllerConfig(k_a=0.25, k_v=0.8, k_p=2.0, h_w=1.0, mode=mode))
        runs = run_realizations(sc, range(40))
        in_batch = Counter(bisected)
        bisected.clear()
        # one realization at a time takes the float loop, and a colliding one
        # then the batched loop; a batch takes the batched loop
        alone = [run_realization(sc, i) for i in range(40)]
        stops = []
        n_collided = 0
        for r, single in zip(runs, alone):
            limits = sc.decel_dist.sample(sc.n_vehicles, decel_stream(sc.base_seed, r.index))
            events = []
            states, errors = reference_platoon_sim(sc, decel_limits=limits, events=events, stops=stops)
            for run in (r, single):
                assert np.array_equal(run.decel_limits, limits)
                assert np.array_equal(run.states, states), run.index
                assert np.array_equal(run.spacing_errors, errors), run.index
                assert run.collision_events == tuple(events), run.index
            n_collided += r.collided
        # the paths under test ran: some runs collided, some did not, and vehicles stopped
        assert 0 < n_collided < 40
        assert any((r.states[1:, :, 1] == 0.0).any() for r in runs)
        # both loops bisect the reference's stops, to the plain bisection's
        # times; the lone loop also bisects the rows of a colliding run,
        # which it hands to the batched loop
        assert len(stops) > 50
        assert in_batch == Counter(stops) and set(stops) <= set(bisected)


class TestStopClamp:
    """The batched loop's stop clamp: one gather and one scatter per step."""

    def test_held_and_crossing_vehicles_at_one_step(self, monkeypatch):
        # the leader commands -9 m/s^2 for good, so from its stop on it is
        # held (v = a = 0 and v' < 0) at every step, while its followers
        # still come to rest behind it
        sc = crash_study(leader=LeaderProfile((LeaderSegment(0.0, -9.0),)), initial_speed=15.0, duration=8.0,
                         controller=ControllerConfig(k_a=0.25, k_v=0.8, k_p=2.0, h_w=1.0, mode="acc"))
        bisect = montecarlo.stop_crossing_time
        calls = []

        def spy(*args):
            calls.append(args)
            return bisect(*args)

        monkeypatch.setattr(montecarlo, "stop_crossing_time", spy)
        batch = run_realizations(sc, range(3))
        in_batch = Counter(calls)
        calls.clear()
        alone = [run_realization(sc, r) for r in range(3)]
        # both loops bisect the same crossings, and never a held vehicle: a
        # held vehicle's bisected stop would move x by about 1e-52 m, which
        # rounds away, so its states alone cannot show that branch
        assert in_batch == Counter(calls)
        assert all(v != 0.0 or a != 0.0 for v, a, *_ in in_batch)
        steps_with_both = 0
        for run, single in zip(batch, alone):
            rest = (run.states[..., 1] == 0.0) & (run.states[..., 2] == 0.0)
            steps_with_both += (rest[:-1, 0] & (~rest[:-1, 1:] & rest[1:, 1:]).any(axis=1)).sum()
            assert run.states.tobytes() == single.states.tobytes()
            assert run.spacing_errors.tobytes() == single.spacing_errors.tobytes()
            states, errors = reference_platoon_sim(sc, decel_limits=run.decel_limits)
            assert np.array_equal(run.states, states)
            assert np.array_equal(run.spacing_errors, errors)
        # the case under test happens: at some step the held leader and a
        # follower coming to rest share one gather and one scatter
        assert steps_with_both > 0


@st.composite
def small_runs(draw):
    """A small random scenario and one of its realizations: (scenario, index)."""
    unit = st.floats(0.05, 0.95)
    kind = draw(st.sampled_from(["ideal", "iid", "gilbert", "deterministic"]))
    channel = ChannelSpec(
        kind=kind,
        gamma=draw(st.floats(0.0, 1.0)) if kind in ("iid", "deterministic") else None,
        gilbert=GilbertParams(draw(unit), draw(unit), draw(unit)) if kind == "gilbert" else None,
    )
    brakes_at_limit = draw(st.booleans())
    if brakes_at_limit:
        leader = LeaderProfile(brakes_at_limit=True)
    else:
        target = st.none() | st.floats(0.0, 30.0)
        segments = [LeaderSegment(0.0, draw(st.floats(-9.0, 3.0)), draw(target))]
        if draw(st.booleans()):
            segments.append(LeaderSegment(draw(st.floats(0.01, 2.5)), draw(st.floats(-9.0, 3.0)), draw(target)))
        leader = LeaderProfile(tuple(segments))
    decel = draw(st.sampled_from([None, "point", "truncnorm"]))
    sc = ScenarioConfig(
        n_followers=draw(st.integers(1, 4)),
        params=VehicleParams(tau=draw(st.floats(0.1, 1.0)), length=draw(st.floats(2.0, 5.0)),
                             decel_limit=draw(st.floats(3.0, 10.0)), accel_limit=draw(st.floats(1.0, 4.0))),
        controller=ControllerConfig(k_a=draw(st.floats(0.0, 1.0)), k_v=draw(st.floats(0.2, 2.0)),
                                    k_p=draw(st.floats(0.2, 3.0)), h_w=draw(st.floats(0.05, 1.5)),
                                    mode=draw(st.sampled_from(["acc", "cacc"]))),
        channel=channel,
        leader=leader,
        # short headways and gaps at speed collide; slow strings stop
        initial_speed=draw(st.floats(0.0, 35.0)),
        dt=0.01,
        duration=draw(st.integers(1, 300)) * 0.01,
        standstill_gap=draw(st.floats(0.0, 8.0)),
        decel_dist=None if decel is None else DecelDistribution(kind=decel, value=draw(st.floats(3.0, 10.0))),
        base_seed=draw(st.integers(0, 1000)),
    )
    return sc, draw(st.integers(2, 50))


class TestOneRealizationLoop:
    """A lone realization steps on Python floats; it keeps the batched loop's bits."""

    @settings(max_examples=150, deadline=None)
    @given(run=small_runs(), position=st.integers(0, 2))
    def test_alone_matches_batch_of_three(self, run, position):
        sc, r = run
        alone = run_realization(sc, r)
        batched = run_realizations(sc, [r - position + j for j in range(3)])[position]
        # tobytes: a signed zero counts as a different bit pattern
        assert alone.states.tobytes() == batched.states.tobytes()
        assert alone.spacing_errors.tobytes() == batched.spacing_errors.tobytes()
        assert alone.collision_events == batched.collision_events
        assert alone.decel_limits.tobytes() == batched.decel_limits.tobytes()
        if sc.channel.kind == "ideal":
            events = []
            states, errors = reference_platoon_sim(sc, decel_limits=alone.decel_limits, events=events)
            assert np.array_equal(alone.states, states)
            assert np.array_equal(alone.spacing_errors, errors)
            assert alone.collision_events == tuple(events)

    @pytest.mark.parametrize("mode", ["acc", "cacc"])
    def test_a_colliding_run_is_handed_to_the_batched_loop(self, mode):
        sc = crash_study(controller=ControllerConfig(k_a=0.25, k_v=0.8, k_p=2.0, h_w=1.0, mode=mode))
        runs = run_realizations(sc, range(40))
        collided = next(r.index for r in runs if r.collided)
        clear = next(r.index for r in runs if not r.collided)
        # standstill_gap + h_w * initial_speed < length: the string overlaps at its first step
        overlapped = small_scenario(standstill_gap=1.0, initial_speed=10.0, duration=1.0,
                                    controller=ControllerConfig(k_a=0.4, k_v=1.0, k_p=0.8, h_w=0.1, mode=mode))
        assert montecarlo._simulate_one(sc, np.array([collided])) is None
        assert montecarlo._simulate_one(overlapped, np.array([0])) is None
        # a run that collides nowhere stays in the float loop, with the batch's bits
        err, states, events, limits = montecarlo._simulate_one(sc, np.array([clear]))
        assert events == [[]]
        assert states[0].tobytes() == runs[clear].states.tobytes()
        assert err[0].tobytes() == runs[clear].spacing_errors.tobytes()
        assert limits[0].tobytes() == runs[clear].decel_limits.tobytes()

    # the orders in which a run's pairs close, read off its (time, lead,
    # follower) events; a lone run that collides goes to the batched loop
    COLLISION_ORDERS = {
        "rear pair closes before a front pair":
            lambda evs: any(t2 < t1 and p2 > p1 for t1, p1, _ in evs for t2, p2, _ in evs),
        "two pairs close at the same step": lambda evs: len({t for t, _, _ in evs}) < len(evs),
        "a follower runs into a frozen pair":
            lambda evs: any(t2 < t1 and p2 == p1 - 1 for t1, p1, _ in evs for t2, p2, _ in evs),
    }

    @pytest.mark.parametrize("case", COLLISION_ORDERS)
    @pytest.mark.parametrize("mode", ["acc", "cacc"])
    def test_collision_orders_match_batch_of_three(self, case, mode):
        # short headways and gaps behind a leader braking at its limit: most
        # runs pile up; a 0.1 s step makes two pairs close at one step
        sc = crash_study(
            controller=ControllerConfig(k_a=0.25, k_v=0.8, k_p=2.0, h_w=0.6, mode=mode),
            channel=ChannelSpec(kind="gilbert", gilbert=GilbertParams(0.3, 0.1, 0.2)),
            decel_dist=DecelDistribution(kind="truncnorm", mean=7.0, std=1.5, low=3.0, high=9.5),
            standstill_gap=3.0,
            dt=0.1,
            realizations=300,
        )
        shows = self.COLLISION_ORDERS[case]
        found = [r.index for r in run_realizations(sc, range(300)) if shows(r.collision_events)]
        # the case under test happens
        assert found
        for r in found[:4]:
            alone = run_realization(sc, r)
            batched = run_realizations(sc, [r, r + 1, r + 2])[0]
            assert shows(alone.collision_events)
            assert alone.states.tobytes() == batched.states.tobytes()
            assert alone.spacing_errors.tobytes() == batched.spacing_errors.tobytes()
            assert alone.collision_events == batched.collision_events

    @pytest.mark.parametrize("case", ["every pair overlaps at the first step", "the first collision is at the last step"])
    def test_collisions_at_the_horizon_ends_match_batch_of_three(self, case):
        if case == "every pair overlaps at the first step":
            # standstill_gap + h_w * initial_speed < length: the string starts overlapped
            sc = small_scenario(standstill_gap=1.0, initial_speed=10.0, duration=1.0,
                                controller=ControllerConfig(k_a=0.4, k_v=1.0, k_p=0.8, h_w=0.1))
            r, k_hit = 0, 1
        else:
            sc = crash_study()
            r = next(run.index for run in run_realizations(sc, range(40)) if run.collided)
            # the horizon ends at the run's first collision step
            sc = dataclasses.replace(sc, duration=run_realization(sc, r).collision_events[0][0])
            k_hit = sc.n_steps
        alone = run_realization(sc, r)
        batched = run_realizations(sc, [r, r + 1, r + 2])[0]
        assert alone.collision_events
        assert all(t == k_hit * sc.dt for t, _, _ in alone.collision_events)
        if k_hit == 1:
            assert [pair for _, *pair in alone.collision_events] == [[p, p + 1] for p in range(sc.n_followers)]
        assert alone.states.tobytes() == batched.states.tobytes()
        assert alone.spacing_errors.tobytes() == batched.spacing_errors.tobytes()
        assert alone.collision_events == batched.collision_events


class TestSafetyStudy:
    def test_streaming_matches_aggregate(self):
        sc = crash_study()
        streamed = run_safety_study(sc)
        runs = run_realizations(sc, np.arange(40))
        counts = np.array([len(r.collision_events) for r in runs])
        collided = counts[counts > 0]
        assert collided.size > 1 and np.unique(collided).size > 1
        assert streamed.n_collided == collided.size
        assert streamed.p_collision == collided.size / 40
        assert streamed.mean_events_per_unstable == pytest.approx(collided.mean())
        stack = np.stack([r.spacing_errors for r in runs])
        assert np.allclose(streamed.variance_series, stack.var(axis=0, ddof=1), atol=1e-10)

    def test_mode_override_changes_law_not_draws(self):
        sc = small_scenario(
            leader=LeaderProfile(brakes_at_limit=True),
            initial_speed=30.0,
            duration=10.0,
            controller=ControllerConfig(k_a=0.25, k_v=0.8, k_p=2.0, h_w=1.0),
            decel_dist=DecelDistribution(kind="truncnorm", mean=7.5, std=1.0, low=4.5, high=9.5),
        )
        acc = run_realization(dataclasses.replace(sc, controller=dataclasses.replace(sc.controller, mode="acc")), 3)
        cacc = run_realization(sc, 3)
        assert np.array_equal(acc.decel_limits, cacc.decel_limits)
        assert not np.array_equal(acc.spacing_errors, cacc.spacing_errors)


class TestParallelBatches:
    """Batches run in forked workers, one per usable core; the worker count changes no byte."""

    @pytest.fixture
    def use_cores(self, monkeypatch):
        # 40 realizations make three uneven batches of 16, 16 and 8
        monkeypatch.setattr(montecarlo, "BATCH_SIZE", 16)

        def use(n: int) -> None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

        return use

    def test_worker_count_changes_no_byte(self, use_cores):
        sc = crash_study(duration=6.0)
        iid = small_scenario(channel=ChannelSpec(kind="iid", gamma=0.6), leader=EARLY_BRAKE, duration=4.0)

        def outputs():
            out = []
            for mode in ("acc", "cacc"):
                moded = dataclasses.replace(sc, controller=dataclasses.replace(sc.controller, mode=mode))
                study = run_safety_study(moded)
                total, _, events = montecarlo._moments(moded, (sc.n_followers,), montecarlo._spacing_error)
                assert sum(map(bool, events)) > 1
                out += [study.variance_series.tobytes(), study.n_collided, study.mean_events_per_unstable,
                        total.tobytes(), events]
            report = validate_mean_trajectory(dataclasses.replace(iid, realizations=40))
            assert report.max_deviation > 0.0
            return out + [
                report.max_deviation, report.max_normalized, report.within_envelope,
                report.per_vehicle_max_deviation.tobytes(), report.per_vehicle_envelope_at_max.tobytes(),
            ]

        use_cores(1)
        one = outputs()
        use_cores(2)
        assert outputs() == one

    def test_worker_error_reaches_caller(self, use_cores, monkeypatch):
        sc = crash_study(duration=2.0)
        parent, engine = os.getpid(), montecarlo._simulate_batch

        def fail_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                raise ConfigError("decel_dist: raised in a worker")
            return engine(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_simulate_batch", fail_in_worker)
        use_cores(1)
        assert run_safety_study(sc).n_realizations == 40
        use_cores(2)
        with pytest.raises(ConfigError, match="raised in a worker"):
            run_safety_study(sc)


class TestMoments:
    """_moments sums each grid point pairwise along its contiguous realization row."""

    @staticmethod
    def samples(n, n_steps=100):
        """(scenario, deterministic-equivalent states, spacing errors, state deviations) of n Gilbert runs.

        The samples are C-contiguous (points, followers, n) and (points,
        vehicles, 3, n) arrays: one realization row per grid point and component.
        """
        sc = small_scenario(channel=ChannelSpec(kind="gilbert", gilbert=GilbertParams(0.3, 0.1, 0.2)),
                            leader=LeaderProfile((LeaderSegment(0.0, -2.0),)), duration=n_steps * 0.01)
        runs = run_realizations(sc, range(n))
        det = run_realization(montecarlo.deterministic_equivalent(sc), 0).states
        errors = np.stack([r.spacing_errors for r in runs], axis=-1)
        deviations = np.stack([r.states for r in runs], axis=-1) - det[..., None]
        return sc, det, errors, deviations

    @staticmethod
    def moments(sc, det, n):
        """_moments of the spacing errors and of the state deviations over realizations 0..n-1."""
        sc = dataclasses.replace(sc, realizations=n)
        return (montecarlo._moments(sc, (sc.n_followers,), montecarlo._spacing_error)[:2],
                montecarlo._moments(sc, (sc.n_vehicles, 3), functools.partial(montecarlo._state_deviation, det))[:2])

    # every point of a short, an odd-length and a 1 s grid is summed.  n = 300
    # is past numpy's 128-element pairwise block, so the sum splits
    # recursively; on the 1 s grid it differs from adding the realizations
    # one after another (on the shorter ones the two orders happen to agree)
    @pytest.mark.parametrize("n_steps", [4, 37, 100])
    @pytest.mark.parametrize("n", [1, 3, 300])
    def test_sums_match_per_point_rows(self, n, n_steps):
        sc, det, errors, deviations = self.samples(n, n_steps)
        assert errors.shape[0] == deviations.shape[0] == n_steps + 1
        for (total, var), samples in zip(self.moments(sc, det, n), (errors, deviations)):
            ref_total = np.array([rows.sum(axis=-1) for rows in samples])
            ref_sumsq = np.array([(rows * rows).sum(axis=-1) for rows in samples])
            ref_var = np.maximum((ref_sumsq - ref_total * ref_total / n) / (n - 1), 0.0) if n > 1 else np.zeros_like(ref_total)
            assert np.array_equal(total, ref_total) and np.array_equal(var, ref_var)
            assert np.any(total != 0.0)
            if n == 300 and n_steps == 100:
                one_by_one = np.zeros_like(ref_total)
                for r in range(n):
                    one_by_one += samples[..., r]
                assert not np.array_equal(ref_total, one_by_one)

    def test_sums_near_fsum(self):
        # tolerances, set from the summation order: numpy halves the 300 terms
        # down to blocks of 72 to 84, each summed by eight interleaved
        # accumulators, so no term goes through more than 18 additions, and
        # each sum lies within 18 unit roundoffs (2**-53) of the sum of its
        # magnitudes from math.fsum's exact sum; 2**-48 is 32 of them.  The variance
        # (sumsq - total**2 / n) / (n - 1) takes 18 from sumsq and 36 from
        # total**2 / n (|total| * sum|x| / n <= sumsq), plus a few roundings,
        # in units of sumsq / (n - 1): 2**-47 is 64 of them, against a
        # two-pass fsum variance
        n = 300
        sc, det, errors, deviations = self.samples(n)
        for (total, var), samples in zip(self.moments(sc, det, n), (errors, deviations)):
            rows = samples.reshape(-1, n)
            exact = np.array([math.fsum(row) for row in rows])
            assert np.all(np.abs(total.ravel() - exact) <= 2.0**-48 * np.abs(rows).sum(axis=1))
            means = exact / n
            exact_var = np.array([math.fsum((row - m) ** 2) for row, m in zip(rows, means)]) / (n - 1)
            scale = (rows * rows).sum(axis=1) / (n - 1)
            assert np.all(np.abs(var.ravel() - exact_var) <= 2.0**-47 * scale)
            assert np.count_nonzero(exact_var) > rows.shape[0] // 2


class TestMeanValidation:
    def test_ideal_channel_machine_precision(self):
        sc = small_scenario(channel=ChannelSpec(kind="iid", gamma=1.0), duration=10.0)
        report = validate_mean_trajectory(dataclasses.replace(sc, realizations=50))
        assert report.max_deviation < 1e-9
        assert report.within_envelope

    def test_chance_deviation_not_flagged(self):
        # follower 4's largest deviation is 1.17x its pointwise 3-sigma
        # envelope here: over some 12,000 points per vehicle that is chance
        sc = dataclasses.replace(load_scenario(FIG3), base_seed=3)
        report = validate_mean_trajectory(dataclasses.replace(sc, realizations=4096))
        assert report.max_normalized > 1.1
        assert report.within_envelope
        assert np.all(report.per_vehicle_max_deviation <= report.per_vehicle_envelope_at_max)

    def test_biased_equivalent_flagged(self, monkeypatch):
        sc = dataclasses.replace(load_scenario(FIG3), realizations=256)
        assert validate_mean_trajectory(sc).within_envelope

        def biased(s):
            return dataclasses.replace(
                s, channel=ChannelSpec(kind="deterministic", gamma=s.channel.effective_gamma() + 0.05)
            )

        monkeypatch.setattr(montecarlo, "deterministic_equivalent", biased)
        assert not validate_mean_trajectory(sc).within_envelope

    def test_requires_fixed_decel(self):
        sc = small_scenario(
            channel=ChannelSpec(kind="iid", gamma=0.5),
            decel_dist=DecelDistribution(kind="point", value=9.0),
            realizations=10,
        )
        with pytest.raises(ConfigError):
            validate_mean_trajectory(sc)

    def test_one_realization_rejected(self):
        # one sample gives sigma = 0 everywhere: the envelope test would never run
        sc = small_scenario(channel=ChannelSpec(kind="iid", gamma=0.5), realizations=1)
        with pytest.raises(ConfigError, match=r"^realizations must be in \[2, "):
            validate_mean_trajectory(sc)

    def test_family_alpha_is_two_sided_three_sigma(self):
        import scipy.special

        assert montecarlo.FAMILY_ALPHA == 2.0 * float(scipy.special.ndtr(-3.0))


class TestSystemMatrix:
    def test_multilinearity_exact_enumeration(self):
        """E[A^n] over the four reception outcomes equals the gamma matrix power.

        Exact enumeration over w in {0,1}^2 with independent Bernoulli(gamma)
        weights; no sampling involved.
        """
        cfg = ControllerConfig(k_a=0.4, k_v=1.0, k_p=0.8, h_w=0.75)
        gamma, tau = 0.4, 0.5
        A_bar = cacc_system_matrix(cfg, tau, [gamma, gamma])
        for n in (1, 2, 3):
            expected = np.linalg.matrix_power(A_bar, n)
            acc = np.zeros_like(expected)
            for w1 in (0, 1):
                for w2 in (0, 1):
                    p = (gamma if w1 else 1 - gamma) * (gamma if w2 else 1 - gamma)
                    acc += p * np.linalg.matrix_power(cacc_system_matrix(cfg, tau, [w1, w2]), n)
            assert np.allclose(acc, expected, atol=1e-12)

    def test_dynamics_rows(self):
        cfg = ControllerConfig(k_a=0.4, k_v=1.0, k_p=0.8, h_w=0.75)
        A = cacc_system_matrix(cfg, 0.5, [1.0])
        assert A.shape == (6, 6)
        assert A[0, 1] == 1.0 and A[1, 2] == 1.0      # kinematics
        assert A[2, 2] == -2.0                         # leader lag 1/tau
        assert A[5, 2] == pytest.approx(0.4 / 0.5)     # communicated accel
        assert A[5, 4] == pytest.approx(-(1.0 + 0.8 * 0.75) / 0.5)


def float_fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.type == "float"]


FLOAT_FIELD_CLASSES = [
    (VehicleParams, VehicleParams, InvalidInputError),
    (ControllerConfig, lambda **kw: ControllerConfig(**{**dict(k_a=0.4, k_v=1.0, k_p=0.8, h_w=0.9), **kw}),
     InvalidInputError),
    (LeaderSegment, lambda **kw: LeaderSegment(**{**dict(start_time=0.0, u=0.0), **kw}), InvalidInputError),
    (DecelDistribution, DecelDistribution, InvalidInputError),
    (ScenarioConfig, small_scenario, InvalidInputError),
]


class TestScenarioValidation:
    def test_bad_counts_rejected(self):
        with pytest.raises(InvalidInputError, match="^n_followers must be at least 1"):
            small_scenario(n_followers=0)
        with pytest.raises(InvalidInputError, match="^duration must be positive"):
            small_scenario(duration=0.0)
        with pytest.raises(InvalidInputError, match="^realizations must be in"):
            small_scenario(realizations=0)
        with pytest.raises(InvalidInputError, match="^base_seed must be nonnegative"):
            small_scenario(base_seed=-1)

    @pytest.mark.parametrize("duration, dt, n_steps", [(7.31, 0.01, 731), (0.3, 0.1, 3), (25.0, 0.01, 2500)])
    def test_duration_on_the_step_grid_runs(self, duration, dt, n_steps):
        # 0.3 / 0.1 is 2.9999999999999996: the quotient misses n_steps by rounding only
        assert small_scenario(duration=duration, dt=dt).n_steps == n_steps

    @pytest.mark.parametrize("realizations", [2**62, 2**63 - 1])
    def test_realizations_past_an_index_array_rejected(self, realizations):
        with pytest.raises(InvalidInputError, match="^realizations must be in"):
            small_scenario(realizations=realizations)
        assert small_scenario(realizations=montecarlo._COUNT_MAX).realizations == montecarlo._COUNT_MAX

    def test_string_past_any_array_rejected(self):
        """The largest accepted string is the last whose batch arrays numpy can describe."""
        sc = small_scenario(duration=1.0)
        per_vehicle = BATCH_SIZE * max(sc.n_steps + 1, RECEPTION_BLOCK) * 3
        largest = montecarlo._COUNT_MAX // per_vehicle - 1
        assert small_scenario(duration=1.0, n_followers=largest).n_followers == largest
        assert (largest + 1) * per_vehicle * 8 <= np.iinfo(np.intp).max
        for n_followers in (largest + 1, 2**63 - 2):
            with pytest.raises(InvalidInputError, match="^n_followers: "):
                small_scenario(duration=1.0, n_followers=n_followers)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "build, error, field",
        [pytest.param(build, error, field, id=f"{cls.__name__}.{field}")
         for cls, build, error in FLOAT_FIELD_CLASSES for field in float_fields(cls)],
    )
    def test_non_finite_field_rejected(self, build, error, field, bad):
        build()  # the defaults construct
        with pytest.raises(error, match=f"^{field} must be finite"):
            build(**{field: bad})
