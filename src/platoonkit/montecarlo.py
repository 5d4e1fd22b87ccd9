"""Seeded stochastic experiment engine for platoon simulations.

Realizations are simulated in vectorized batches, but every random stream is
owned by one (realization, purpose) pair through a counter-based Philox
construction, and all per-step math is elementwise, so results are
bit-identical however the work is batched or ordered, and whatever the number
of worker processes: the moment studies run their fixed BATCH_SIZE batches in
forked workers, one per usable core (no knob), and add the per-batch sums in
batch order.  Streams:

    SeedSequence((base_seed, 0, realization, pair))  -> channel of one V2V pair
    SeedSequence((base_seed, 1, realization))        -> deceleration limits

Channel draws mirror channel.simulate_reception exactly (one uniform for the
stationary initial regime, then two per slot; an iid channel draws one per
slot).  The engine draws each channel's stream in fixed blocks of
RECEPTION_BLOCK slots and advances every channel of the batch by one slot per
step, so it never holds a whole-run reception tensor; a stream yields the same
uniforms in the same order however it is split into calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
from scipy.special import ndtr, ndtri

from .channel import GilbertParams, gamma_analytic, stationary_good_probability
from .control import ControllerConfig
from .dynamics import (
    LeaderProfile,
    VehicleParams,
    _position_delta_at,
    leader_command,
    stop_crossing_time,
    zoh_coefficients,
)
from .errors import ConfigError, InvalidInputError, require_finite

__all__ = [
    "ChannelSpec",
    "DecelDistribution",
    "ScenarioConfig",
    "RealizationResult",
    "SafetyStats",
    "MeanValidationReport",
    "deterministic_equivalent",
    "detect_collisions",
    "run_realization",
    "run_realizations",
    "run_safety_study",
    "validate_mean_trajectory",
]

STREAM_CHANNEL = 0
STREAM_DECEL = 1
BATCH_SIZE = 2048          # fixed: aggregation order must not depend on callers
RECEPTION_BLOCK = 256      # slots per draw call; fewer pay the per-call cost, more grow the block
RECEPTION_TILE = 128       # channels per transposed tile, sized to stay in cache
ENVELOPE_ATOL = 1e-9       # absorbs float accumulation noise on deterministic components
FAMILY_ALPHA = 2.0 * float(ndtr(-3.0))   # two-sided 3-sigma level of the mean-trajectory test


@dataclass(frozen=True)
class ChannelSpec:
    """V2V reception model of a scenario.

    kind 'ideal' receives everything; 'iid' draws Bernoulli(gamma) per slot;
    'gilbert' runs the burst chain; 'deterministic' replaces the reception
    indicator by its expectation gamma in the control law (the deterministic
    equivalent used for mean-trajectory validation).
    """

    kind: Literal["ideal", "iid", "gilbert", "deterministic"]
    gamma: float | None = None
    gilbert: GilbertParams | None = None

    def __post_init__(self) -> None:
        if self.kind in ("iid", "deterministic"):
            if self.gamma is None or not (0.0 <= self.gamma <= 1.0):
                raise ConfigError(f"channel.gamma: must be in [0, 1] for kind={self.kind!r}")
        elif self.kind == "gilbert":
            if self.gilbert is None:
                raise ConfigError("channel.gilbert: parameters required for kind='gilbert'")
        elif self.kind != "ideal":
            raise ConfigError(f"channel.kind: unknown kind {self.kind!r}")

    def effective_gamma(self) -> float:
        """Reception probability used by the deterministic equivalent."""
        if self.kind == "ideal":
            return 1.0
        if self.kind == "gilbert":
            return gamma_analytic(self.gilbert)
        return float(self.gamma)


@dataclass(frozen=True)
class DecelDistribution:
    """Per-realization sampling of maximum deceleration magnitudes.

    Stand-in for the passenger-car braking distribution the safety study
    calls for; the default truncated normal (mean 7.5, sd 1.0 on [4.5, 9.5]
    m/s^2) is fully configurable.
    """

    kind: Literal["point", "uniform", "truncnorm"] = "truncnorm"
    mean: float = 7.5
    std: float = 1.0
    low: float = 4.5
    high: float = 9.5
    value: float = 9.0

    def __post_init__(self) -> None:
        require_finite(self, ("mean", "std", "low", "high", "value"), ConfigError)
        if self.kind not in ("point", "uniform", "truncnorm"):
            raise ConfigError(f"decel_dist.kind: unknown kind {self.kind!r}")
        if self.kind == "point" and not (self.value > 0):
            raise ConfigError("decel_dist.value: must be positive")
        if self.kind in ("uniform", "truncnorm"):
            if not (0 < self.low <= self.high):
                raise ConfigError("decel_dist: need 0 < low <= high")
        if self.kind == "truncnorm" and not (self.std > 0):
            raise ConfigError("decel_dist.std: must be positive")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "point":
            return np.full(n, self.value)
        if self.kind == "uniform":
            return self.low + (self.high - self.low) * rng.random(n)
        a = ndtr((self.low - self.mean) / self.std)
        b = ndtr((self.high - self.mean) / self.std)
        return self.mean + self.std * ndtri(a + rng.random(n) * (b - a))

    def support(self) -> tuple[float, float]:
        if self.kind == "point":
            return self.value, self.value
        return self.low, self.high


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified platoon experiment."""

    n_followers: int
    params: VehicleParams
    controller: ControllerConfig
    channel: ChannelSpec
    leader: LeaderProfile = LeaderProfile()
    leader_brakes_at_limit: bool = False
    initial_speed: float = 25.0
    dt: float = 0.01
    duration: float = 40.0
    standstill_gap: float = 5.0
    decel_dist: DecelDistribution | None = None
    realizations: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self, ("initial_speed", "dt", "duration", "standstill_gap"), ConfigError)
        if self.n_followers < 1:
            raise ConfigError("platoon.n_followers: must be >= 1")
        if not (self.duration > 0):
            raise ConfigError("sim.duration_s: must be positive")
        if not (self.dt > 0):
            raise ConfigError("sim.dt_s: must be positive")
        if self.n_steps < 1:
            raise ConfigError("sim.duration_s: shorter than one step")
        if self.initial_speed < 0:
            raise ConfigError("platoon.initial_speed_mps: must be nonnegative")
        if self.standstill_gap < 0:
            raise ConfigError("platoon.standstill_gap_m: must be nonnegative")
        if self.realizations < 1:
            raise ConfigError("montecarlo.realizations: must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("montecarlo.base_seed: must be nonnegative")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    @property
    def n_vehicles(self) -> int:
        return self.n_followers + 1

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


def deterministic_equivalent(sc: ScenarioConfig) -> ScenarioConfig:
    """The scenario with each reception indicator replaced by its expectation gamma."""
    return dataclasses.replace(
        sc, channel=ChannelSpec(kind="deterministic", gamma=sc.channel.effective_gamma())
    )


@dataclass(frozen=True)
class RealizationResult:
    """Outcome of one seeded realization."""

    index: int
    times: np.ndarray
    spacing_errors: np.ndarray           # (n_steps+1, n_followers)
    collision_events: tuple[tuple[float, int, int], ...]  # (time, lead, follower)
    collided: bool
    decel_limits: np.ndarray             # (n_vehicles,)
    states: np.ndarray                   # (n_steps+1, n_vehicles, 3): x, v, a


@dataclass(frozen=True)
class SafetyStats:
    """Aggregate collision statistics over a set of realizations."""

    n_realizations: int
    n_collided: int
    p_collision: float
    mean_events_per_unstable: float | None
    variance_series: np.ndarray          # (n_steps+1, n_followers), ddof=1
    times: np.ndarray


@dataclass(frozen=True)
class MeanValidationReport:
    """Stochastic-mean vs deterministic-equivalent comparison.

    Deviations are component-wise |mean - deterministic| over states
    (x, v, a) and grid points.  within_envelope is a family-wise test at the
    two-sided 3-sigma level (FAMILY_ALPHA, 0.27 %) per vehicle.  With n the
    number of that vehicle's points whose standard error s is non-zero, every
    deviation must stay within z_n * s, plus a tiny absolute floor for float
    accumulation noise.  z_n is the two-sided normal quantile at the Sidak
    per-point level 1 - (1 - FAMILY_ALPHA)^(1/n) (5.18 for 12,000 points);
    by Sidak's inequality for jointly normal means, correlated points only
    lower the chance of a false alarm.  per_vehicle_envelope_at_max is that
    tested threshold z_n * s + floor at the vehicle's largest deviation, so
    within_envelope implies every maximum lies within its envelope.  The
    worst deviation over its pointwise 3-sigma envelope (max_normalized) is a
    diagnostic.
    """

    n_realizations: int
    max_deviation: float
    per_vehicle_max_deviation: np.ndarray
    per_vehicle_envelope_at_max: np.ndarray
    within_envelope: bool
    max_normalized: float


def detect_collisions(positions, lengths) -> np.ndarray:
    """Overlap mask of adjacent pairs over the last axis of leader-first positions.

    Entry p is True when the bumper-to-bumper gap x_p - x_{p+1} - length_p
    is <= 0 (vehicle p+1 has run into vehicle p).  lengths holds one body
    length per vehicle.
    """
    x = np.asarray(positions, dtype=float)
    ln = np.asarray(lengths, dtype=float)
    if x.ndim < 1 or ln.shape != x.shape[-1:]:
        raise InvalidInputError("lengths must be 1-D, one per vehicle on the last axis of positions")
    return x[..., :-1] - x[..., 1:] - ln[:-1] <= 0.0


def _channel_rng(base_seed: int, realization: int, pair: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((base_seed, STREAM_CHANNEL, realization, pair))))


def _decel_rng(base_seed: int, realization: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((base_seed, STREAM_DECEL, realization))))


def _receptions(channel: ChannelSpec, base_seed: int, indices: np.ndarray, n_pairs: int, n_slots: int):
    """Yield each slot's (R, n_pairs) reception mask in turn, for the whole batch.

    Channel j = r * n_pairs + p reads the stream of pair p of realization
    indices[r], draw for draw as channel.simulate_reception (Gilbert: one
    uniform for the stationary initial regime, then two per slot) or
    iid_channel (one per slot) would.  Each stream is drawn RECEPTION_BLOCK
    slots at a time into a tile of RECEPTION_TILE channels, which is
    transposed into a (draws, channels) block while it is still in cache, so
    every slot reads contiguous rows and the chain steps all channels at once.
    """
    R = len(indices)
    n_chan = R * n_pairs
    rngs = [_channel_rng(base_seed, int(idx), p) for idx in indices for p in range(n_pairs)]
    gilbert = channel.kind == "gilbert"
    per_slot = 2 if gilbert else 1
    if gilbert:
        gp = channel.gilbert
        good = stationary_good_probability(gp)
        cur = np.array([rng.random() for rng in rngs]) < good
    tile = np.empty((min(RECEPTION_TILE, n_chan), per_slot * RECEPTION_BLOCK))
    block = np.empty((per_slot * RECEPTION_BLOCK, n_chan))
    for k0 in range(0, n_slots, RECEPTION_BLOCK):
        w = per_slot * min(RECEPTION_BLOCK, n_slots - k0)
        for lo in range(0, n_chan, RECEPTION_TILE):
            hi = min(lo + RECEPTION_TILE, n_chan)
            for j in range(lo, hi):
                rngs[j].random(out=tile[j - lo, :w])
            block[:w, lo:hi] = tile[: hi - lo, :w].T
        for s in range(0, w, per_slot):
            if gilbert:
                cur = np.where(cur, block[s] >= gp.p_gb, block[s] < gp.p_bg)
                yield (cur | (block[s + 1] < gp.q)).reshape(R, n_pairs)
            else:
                yield (block[s] < channel.gamma).reshape(R, n_pairs)


def _decel_limits(sc: ScenarioConfig, indices: np.ndarray) -> np.ndarray:
    if sc.decel_dist is None:
        return np.full((len(indices), sc.n_vehicles), sc.params.decel_limit)
    out = np.empty((len(indices), sc.n_vehicles))
    for r, idx in enumerate(indices):
        out[r] = sc.decel_dist.sample(sc.n_vehicles, _decel_rng(sc.base_seed, int(idx)))
    return out


def _simulate_batch(
    sc: ScenarioConfig,
    indices: np.ndarray,
    trajectories: bool = False,
    on_step: Callable[[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
):
    """Propagate a batch of realizations; the single engine behind every study.

    Returns (err_series, states, events_per_realization, limits).  err_series
    and states are None unless trajectories is set.  on_step(k, x, v, a, e)
    is invoked at every recorded grid point with the current batch arrays.
    """
    indices = np.asarray(indices, dtype=int)
    R, M, F, T = len(indices), sc.n_vehicles, sc.n_followers, sc.n_steps
    cfg = sc.controller
    dt, tau, d, hw = sc.dt, sc.params.tau, sc.standstill_gap, cfg.h_w
    c_aa, c_au, c_va, c_vu, c_xa, c_xu = zoh_coefficients(tau, dt)

    recv = None
    if cfg.mode == "cacc" and sc.channel.kind in ("gilbert", "iid"):
        recv = _receptions(sc.channel, sc.base_seed, indices, F, T)
    wfactor = sc.channel.effective_gamma() if cfg.mode == "cacc" else 0.0
    ka_w = cfg.k_a * wfactor

    limits = _decel_limits(sc, indices)
    accel_limit = sc.params.accel_limit
    lengths = np.full(M, sc.params.length)

    x = np.empty((R, M))
    v = np.full((R, M), float(sc.initial_speed))
    a = np.zeros((R, M))
    x[:, 0] = 0.0
    for i in range(1, M):
        x[:, i] = x[:, i - 1] - d - hw * sc.initial_speed

    frozen = np.zeros((R, M), dtype=bool)
    x_frozen = np.zeros((R, M))
    collided_pair = np.zeros((R, F), dtype=bool)
    events: list[list[tuple[float, int, int]]] = [[] for _ in range(R)]

    err_series = np.empty((R, T + 1, F)) if trajectories else None
    states = np.empty((R, T + 1, M, 3)) if trajectories else None

    def record(k: int) -> np.ndarray:
        e = x[:, 1:] - x[:, :-1] + d + hw * v[:, 1:]
        if trajectories:
            err_series[:, k] = e
            states[:, k, :, 0] = x
            states[:, k, :, 1] = v
            states[:, k, :, 2] = a
        if on_step is not None:
            on_step(k, x, v, a, e)
        return e

    e_cur = record(0)
    u = np.empty((R, M))
    for k in range(T):
        if sc.leader_brakes_at_limit:
            u[:, 0] = np.where(v[:, 0] > 0.0, -limits[:, 0], 0.0)
        else:
            u[:, 0] = leader_command(sc.leader, k * dt, v[:, 0])

        if recv is not None:
            ff = np.where(next(recv), cfg.k_a * a[:, :-1], 0.0)
        elif ka_w != 0.0:
            ff = ka_w * a[:, :-1]
        else:
            ff = 0.0
        u[:, 1:] = ff - cfg.k_v * (v[:, 1:] - v[:, :-1]) - cfg.k_p * e_cur
        np.clip(u, -limits, accel_limit, out=u)

        a_n = a * c_aa + u * c_au
        v_n = v + a * c_va + u * c_vu
        x_n = x + v * dt + a * c_xa + u * c_xu

        neg = v_n < 0.0
        if neg.any():
            held = neg & (v == 0.0) & (a == 0.0)
            x_n = np.where(held, x, x_n)
            rr, ii = np.nonzero(neg & ~held & ~frozen)
            # the bisection runs on Python floats, twice as fast as on numpy scalars
            crossing = zip(v[rr, ii].tolist(), a[rr, ii].tolist(), u[rr, ii].tolist(), x[rr, ii].tolist())
            for r, i, (vi, ai, ui, xi) in zip(rr, ii, crossing):
                s = stop_crossing_time(vi, ai, ui, tau, dt)
                x_n[r, i] = xi + _position_delta_at(vi, ai, ui, tau, s)
            v_n = np.where(neg, 0.0, v_n)
            a_n = np.where(neg, 0.0, a_n)

        x = np.where(frozen, x_frozen, x_n)
        v = np.where(frozen, 0.0, v_n)
        a = np.where(frozen, 0.0, a_n)

        hit = detect_collisions(x, lengths) & ~collided_pair
        if hit.any():
            t_hit = (k + 1) * dt
            collided_pair |= hit
            for r, p in zip(*np.nonzero(hit)):
                events[r].append((t_hit, int(p), int(p) + 1))
            fz = np.zeros((R, M), dtype=bool)
            fz[:, :-1] |= hit
            fz[:, 1:] |= hit
            new = fz & ~frozen
            x_frozen = np.where(new, x, x_frozen)
            frozen |= fz
            v = np.where(frozen, 0.0, v)
            a = np.where(frozen, 0.0, a)

        e_cur = record(k + 1)

    return err_series, states, events, limits


def _chunks(indices) -> list[np.ndarray]:
    """indices in the fixed BATCH_SIZE chunks the engine runs as batches."""
    indices = np.asarray(indices, dtype=int)
    return [indices[lo : lo + BATCH_SIZE] for lo in range(0, len(indices), BATCH_SIZE)]


def _batch_sums(sc: ScenarioConfig, chunk: np.ndarray, shape: tuple[int, ...], sample):
    """One batch's per-grid-point sum and sum of squares of sample(k, x, v, a, e), and its events.

    sample returns one row of the given shape per realization of the batch.
    """
    total = np.zeros((sc.n_steps + 1,) + shape)
    sumsq = np.zeros_like(total)

    def on_step(k, x, v, a, e):
        rows = sample(k, x, v, a, e)
        total[k] += rows.sum(axis=0)
        sumsq[k] += (rows * rows).sum(axis=0)

    _, _, events, _ = _simulate_batch(sc, chunk, on_step=on_step)
    return total, sumsq, events


def _moments(sc: ScenarioConfig, n: int, shape: tuple[int, ...], sample):
    """Per-grid-point sum and ddof=1 variance of sample(k, x, v, a, e) over realizations 0..n-1.

    The fixed BATCH_SIZE batches run in forked worker processes, one per
    usable core, or in this process when that is one; their sums are added
    in batch order, so the result does not depend on the worker count.
    sample must pickle (a module-level function or a partial of one).  Also
    returns every realization's collision events, in index order.  The
    variance is zero for n < 2.
    """
    chunks = _chunks(np.arange(n))
    batch = functools.partial(_batch_sums, sc, shape=shape, sample=sample)
    total = np.zeros((sc.n_steps + 1,) + shape)
    sumsq = np.zeros_like(total)
    events = []
    # os.sched_getaffinity is missing on macOS and Windows: batches run in-process there
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(chunks), cores)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(
                ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            )
            parts = pool.map(batch, chunks)
        else:
            parts = map(batch, chunks)
        for part_total, part_sumsq, part_events in parts:
            total += part_total
            sumsq += part_sumsq
            events += part_events
    if n < 2:
        return total, np.zeros_like(total), events
    var = (sumsq - total * total / n) / (n - 1)
    np.maximum(var, 0.0, out=var)
    return total, var, events


def _spacing_error(k, x, v, a, e):
    return e


def _state_deviation(det, k, x, v, a, e):
    return np.stack([x, v, a], axis=-1) - det[k]


def run_realizations(sc: ScenarioConfig, indices) -> list[RealizationResult]:
    """Simulate several realizations in full, state trajectories included.

    Batched; identical to one-at-a-time runs.
    """
    out: list[RealizationResult] = []
    for chunk in _chunks(indices):
        err, states, events, limits = _simulate_batch(sc, chunk, trajectories=True)
        for j, idx in enumerate(chunk):
            evs = tuple(events[j])
            out.append(
                RealizationResult(
                    index=int(idx),
                    times=sc.times(),
                    spacing_errors=err[j],
                    collision_events=evs,
                    collided=bool(evs),
                    decel_limits=limits[j],
                    states=states[j],
                )
            )
    return out


def run_realization(sc: ScenarioConfig, realization_index: int) -> RealizationResult:
    """Simulate one seeded realization in full, state trajectories included."""
    if realization_index < 0:
        raise ConfigError("realization_index must be nonnegative")
    return run_realizations(sc, [realization_index])[0]


def run_safety_study(
    sc: ScenarioConfig,
    mode: str | None = None,
    realizations: int | None = None,
) -> SafetyStats:
    """Collision statistics and per-step cross-realization error variance, streamed.

    mode ('acc'/'cacc') overrides the configured controller mode so both
    platoon types can be compared on identical deceleration draws (the decel
    stream depends only on base seed and realization index).
    mean_events_per_unstable averages over collided realizations only and is
    None when nothing collided.
    """
    if mode is not None:
        sc = dataclasses.replace(sc, controller=dataclasses.replace(sc.controller, mode=mode))
    if realizations is not None:
        sc = dataclasses.replace(sc, realizations=realizations)
    n = sc.realizations
    _, variance, events = _moments(sc, n, (sc.n_followers,), _spacing_error)
    n_collided = sum(1 for evs in events if evs)
    event_total = sum(len(evs) for evs in events)
    return SafetyStats(
        n_realizations=n,
        n_collided=n_collided,
        p_collision=n_collided / n,
        mean_events_per_unstable=(event_total / n_collided) if n_collided else None,
        variance_series=variance,
        times=sc.times(),
    )


def validate_mean_trajectory(sc: ScenarioConfig, n_realizations: int) -> MeanValidationReport:
    """Compare the averaged stochastic state with the deterministic equivalent.

    Runs n stochastic realizations, averages the full state trajectories
    pointwise, then simulates the same scenario with the reception indicator
    replaced by its expectation.  Requires fixed deceleration limits (the
    equivalence claim concerns channel randomness only).
    """
    if n_realizations < 1:
        raise ConfigError("n_realizations must be >= 1")
    if sc.decel_dist is not None:
        raise ConfigError("validate_mean_trajectory requires fixed decel limits (decel_dist = None)")
    M = sc.n_vehicles

    det = run_realization(deterministic_equivalent(sc), 0).states

    # Accumulate deviations centered on the deterministic trajectory: states
    # carry hundreds of metres while their spread is millimetres, so the raw
    # sum-of-squares variance would cancel catastrophically.  Centered, the
    # leader and every pre-noise sample stay exactly zero.
    sum_c, var, _ = _moments(sc, n_realizations, (M, 3), functools.partial(_state_deviation, det))
    sigma = np.sqrt(var / n_realizations)
    envelope = 3.0 * sigma

    dev = np.abs(sum_c / n_realizations)
    per_vehicle_max = np.empty(M)
    per_vehicle_env = np.empty(M)
    within = True
    for i in range(M):
        n_tested = max(np.count_nonzero(sigma[:, i, :]), 1)
        z = -ndtri(-np.expm1(np.log1p(-FAMILY_ALPHA) / n_tested) / 2.0)
        tested = z * sigma[:, i, :] + ENVELOPE_ATOL
        flat = np.argmax(dev[:, i, :])
        per_vehicle_max[i] = dev[:, i, :].flat[flat]
        per_vehicle_env[i] = tested.flat[flat]
        if np.any(dev[:, i, :] > tested):
            within = False
    denom = np.maximum(envelope, ENVELOPE_ATOL)
    max_normalized = float((dev / denom).max())
    return MeanValidationReport(
        n_realizations=n_realizations,
        max_deviation=float(dev.max()),
        per_vehicle_max_deviation=per_vehicle_max,
        per_vehicle_envelope_at_max=per_vehicle_env,
        within_envelope=within,
        max_normalized=max_normalized,
    )

