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

Channel draws mirror channel.initial_state, channel.channel_step and
channel.iid_channel exactly (one uniform for the stationary initial regime,
then two per slot; an iid channel draws one per slot).  The engine draws each
channel's stream in fixed blocks of RECEPTION_BLOCK slots and advances every
channel of the batch by one slot per step, so a batch never holds a whole-run
reception tensor (a lone run keeps its one pairs x slots mask); a stream
yields the same uniforms in the same order however it is split into calls.
Each drawn tile is compared against the channel's thresholds while it is in
cache, and only its boolean planes are transposed.

A batch is held vehicle-major: x, v, a are (vehicles, realizations) arrays and
the spacing errors (followers, realizations), so every neighbour difference
runs on whole contiguous rows.  The moment studies add their samples grid
point by grid point in realization order, the order of a per-point
rows.sum(axis=0); they reduce SUM_BLOCK grid points at a time, which gives the
same bits with fewer, wider reductions.

One realization with no per-step hook (simulate, bound, the deterministic
equivalent of validate-mean) runs on Python floats instead, where numpy's
per-call cost would dwarf six-element arrays, and vehicle by vehicle: follower
i reads only vehicle i-1 and itself, so the leader runs its whole horizon
first and each follower then runs its whole horizon against its predecessor's
finished rows.  Every step operation is a binary64 +, -, *, comparison,
max/min or select, rounded correctly and uncontracted by both numpy and
CPython, and each vehicle keeps the batched loop's operations and operand
order, so it gives the same bits.  A collision, the one backward coupling,
also freezes the pair's front vehicle: the vehicles then run in passes to
the horizon, each checked afterwards by one detect_collisions call, whose
first overlap freezes the pairs that overlap there; the next pass restarts
from that step and from the first frozen pair's front vehicle.  Batch size
alone selects the loop.

scipy.special is imported only where it is called: by a truncated-normal
decel draw and by the mean-trajectory test.  Before a pool forks, the parent
makes an empty decel draw, so every worker inherits whatever a draw imports
and none imports it again.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, ClassVar, Literal

import numpy as np

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
RECEPTION_BLOCK = 1024     # slots per draw call; fewer pay the per-call cost, more grow the bool planes
RECEPTION_TILE = 128       # channels per transposed tile, sized to stay in cache
SUM_BLOCK = 16             # grid points per moment-sum reduction: wider rows reduce faster, same bits
ENVELOPE_ATOL = 1e-9       # absorbs float accumulation noise on deterministic components
FAMILY_ALPHA = 0.0026997960632601866    # 2 * ndtr(-3): two-sided 3-sigma level of the mean-trajectory test
_INDEX_MAX = int(np.iinfo(np.intp).max)   # the largest index an array can hold
# the largest count accepted: numpy describes at most _INDEX_MAX // 8 float64
# elements, and np.arange needs a little more room than that
_COUNT_MAX = _INDEX_MAX // 16


@dataclass(frozen=True)
class ChannelSpec:
    """V2V reception model of a scenario.

    kind 'ideal' receives everything; 'iid' draws Bernoulli(gamma) per slot;
    'gilbert' runs the burst chain; 'deterministic' replaces the reception
    indicator by its expectation gamma in the control law (the deterministic
    equivalent used for mean-trajectory validation).
    """

    # the fields each kind reads; it ignores the others
    KIND_FIELDS: ClassVar = {"ideal": (), "iid": ("gamma",), "gilbert": ("gilbert",), "deterministic": ("gamma",)}

    kind: Literal["ideal", "iid", "gilbert", "deterministic"] = "ideal"
    gamma: float | None = None
    gilbert: GilbertParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in self.KIND_FIELDS:
            raise InvalidInputError(f"kind must be one of {', '.join(self.KIND_FIELDS)}, got {self.kind!r}")
        if self.kind in ("iid", "deterministic") and (self.gamma is None or not 0.0 <= self.gamma <= 1.0):
            raise InvalidInputError(f"gamma must be in [0, 1] for kind {self.kind!r}, got {self.gamma}")
        if self.kind == "gilbert":
            if self.gilbert is None:
                raise InvalidInputError("gilbert: parameters required for kind 'gilbert'")
            if self.gilbert.p_gb + self.gilbert.p_bg == 0.0:
                raise InvalidInputError("gilbert.p_gb, gilbert.p_bg: both 0: the chain never changes state")

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
    m/s^2) is fully configurable.  A truncated-normal window whose nearer end
    lies about 37.5 sd or more from the mean is refused: the normal's tail
    probability there falls below the smallest normalized double, and the
    window's draws would be infinite.
    """

    # the fields each kind reads; it ignores the others
    KIND_FIELDS: ClassVar = {"point": ("value",), "uniform": ("low", "high"),
                             "truncnorm": ("mean", "std", "low", "high")}

    kind: Literal["point", "uniform", "truncnorm"] = "truncnorm"
    mean: float = 7.5
    std: float = 1.0
    low: float = 4.5
    high: float = 9.5
    value: float = 9.0

    def __post_init__(self) -> None:
        require_finite(self, ("mean", "std", "low", "high", "value"), InvalidInputError)
        if self.kind not in self.KIND_FIELDS:
            raise InvalidInputError(f"kind must be one of {', '.join(self.KIND_FIELDS)}, got {self.kind!r}")
        if self.kind == "point" and not (self.value > 0):
            raise InvalidInputError(f"value must be positive, got {self.value}")
        if self.kind in ("uniform", "truncnorm") and not (0 < self.low <= self.high):
            raise InvalidInputError(f"low, high: need 0 < low <= high, got {self.low}, {self.high}")
        if self.kind == "truncnorm":
            if not (self.std > 0):
                raise InvalidInputError(f"std must be positive, got {self.std}")
            near = max(self.low - self.mean, self.mean - self.high, 0.0) / self.std
            if 0.5 * math.erfc(near / math.sqrt(2.0)) < sys.float_info.min:
                raise InvalidInputError(f"low, high: the window lies {near:.4g} sd from the mean, "
                                        "where the normal's tail probability underflows")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "point":
            return np.full(n, self.value)
        if self.kind == "uniform":
            return self.low + (self.high - self.low) * rng.random(n)
        from scipy.special import ndtr, ndtri

        # ndtr rounds an upper tail to 1.0 from about 8.3 sd: a window above
        # the mean is drawn mirrored, through the lower tail
        sign = -1.0 if self.low > self.mean else 1.0
        a, b = sorted(ndtr(sign * (x - self.mean) / self.std) for x in (self.low, self.high))
        return self.mean + sign * self.std * ndtri(a + rng.random(n) * (b - a))


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """One fully specified platoon experiment; its fields are keyword-only."""

    n_followers: int
    params: VehicleParams
    controller: ControllerConfig
    channel: ChannelSpec = ChannelSpec()
    leader: LeaderProfile = LeaderProfile()
    initial_speed: float
    dt: float = 0.01
    duration: float
    standstill_gap: float = 5.0
    decel_dist: DecelDistribution | None = None
    realizations: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self, ("initial_speed", "dt", "duration", "standstill_gap"), InvalidInputError)
        if self.n_followers < 1:
            raise InvalidInputError(f"n_followers must be at least 1, got {self.n_followers}")
        if not (self.duration > 0):
            raise InvalidInputError(f"duration must be positive, got {self.duration}")
        if not (self.dt > 0):
            raise InvalidInputError(f"dt must be positive, got {self.dt}")
        if not self.duration / self.dt < _INDEX_MAX:
            raise InvalidInputError("dt: too small for duration: more steps than an array can index")
        if self.n_steps < 1:
            raise InvalidInputError("duration: shorter than one step")
        # a batch's largest arrays: its trajectories (BATCH_SIZE, steps + 1, vehicles, 3),
        # its moment block and its reception planes (RECEPTION_BLOCK slots, at most)
        if BATCH_SIZE * max(self.n_steps + 1, RECEPTION_BLOCK) * self.n_vehicles * 3 > _COUNT_MAX:
            raise InvalidInputError(f"n_followers: {self.n_followers} followers over {self.n_steps} steps "
                                    "(duration / dt) need arrays larger than numpy can describe")
        if self.initial_speed < 0:
            raise InvalidInputError(f"initial_speed must be nonnegative, got {self.initial_speed}")
        if self.standstill_gap < 0:
            raise InvalidInputError(f"standstill_gap must be nonnegative, got {self.standstill_gap}")
        if not 1 <= self.realizations <= _COUNT_MAX:
            raise InvalidInputError(f"realizations must be in [1, {_COUNT_MAX}], got {self.realizations}")
        if self.base_seed < 0:
            raise InvalidInputError(f"base_seed must be nonnegative, got {self.base_seed}")

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
    """Yield each slot's (n_pairs, R) reception mask in turn, for the whole batch.

    Channel j = p * R + r reads the stream of pair p of realization
    indices[r], draw for draw as channel.initial_state and then
    channel.channel_step (Gilbert: one uniform for the stationary initial
    regime, then two per slot) or channel.iid_channel (one per slot) would.
    Each stream is drawn RECEPTION_BLOCK slots at a time into a tile of
    RECEPTION_TILE channels.  The tile is
    compared against its thresholds while it is still in cache (Gilbert:
    stay good, leave bad, received while bad; iid: received), and the
    boolean planes are transposed into (slots, channels) blocks, so every
    slot reads contiguous rows and the chain steps all channels at once.
    """
    R = len(indices)
    n_chan = R * n_pairs
    rngs = [_channel_rng(base_seed, int(idx), p) for p in range(n_pairs) for idx in indices]
    gilbert = channel.kind == "gilbert"
    per_slot = 2 if gilbert else 1
    if gilbert:
        gp = channel.gilbert
        good = stationary_good_probability(gp)
        cur = np.array([rng.random() for rng in rngs]) < good
    tile = np.empty((min(RECEPTION_TILE, n_chan), per_slot * RECEPTION_BLOCK))
    planes = np.empty((3 if gilbert else 1, RECEPTION_BLOCK, n_chan), dtype=bool)
    for k0 in range(0, n_slots, RECEPTION_BLOCK):
        w = min(RECEPTION_BLOCK, n_slots - k0)
        for lo in range(0, n_chan, RECEPTION_TILE):
            hi = min(lo + RECEPTION_TILE, n_chan)
            for j in range(lo, hi):
                rngs[j].random(out=tile[j - lo, : per_slot * w])
            drawn = tile[: hi - lo, : per_slot * w]
            if gilbert:
                planes[0, :w, lo:hi] = (drawn[:, 0::2] >= gp.p_gb).T
                planes[1, :w, lo:hi] = (drawn[:, 0::2] < gp.p_bg).T
                planes[2, :w, lo:hi] = (drawn[:, 1::2] < gp.q).T
            else:
                planes[0, :w, lo:hi] = (drawn < channel.gamma).T
        for s in range(w):
            if gilbert:
                cur = (cur & planes[0, s]) | (planes[1, s] & ~cur)
                yield (cur | planes[2, s]).reshape(n_pairs, R)
            else:
                # a copy: the next block overwrites the planes
                yield planes[0, s].reshape(n_pairs, R).copy()


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
    *,
    on_step: Callable[[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
):
    """Propagate a batch of realizations; the single engine behind every study.

    Returns (err_series, states, events_per_realization, limits).  Without
    on_step the trajectories are recorded; with it, err_series and states are
    None and on_step(k, x, v, a, e) is invoked at every grid point instead,
    with the current (n_vehicles, R) arrays x, v, a and the (n_followers, R)
    spacing errors e.  The batch is held vehicle-major, so every neighbour
    difference runs on whole contiguous rows.

    One realization without on_step goes to _simulate_one, which does this
    loop's arithmetic on Python floats in the same operand order and so
    returns the same bits (its docstring gives the argument); a batch of two
    or more, or any batch with on_step, runs here.
    """
    indices = np.asarray(indices, dtype=int)
    if len(indices) == 1 and on_step is None:
        return _simulate_one(sc, indices)
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
    floor = -np.ascontiguousarray(limits.T)
    accel_limit = sc.params.accel_limit
    lengths = np.full(M, sc.params.length)

    x = np.empty((M, R))
    v = np.full((M, R), float(sc.initial_speed))
    a = np.zeros((M, R))
    x[0] = 0.0
    for i in range(1, M):
        x[i] = x[i - 1] - d - hw * sc.initial_speed

    frozen = np.zeros((M, R), dtype=bool)
    any_frozen = False                   # until the first collision, holding frozen vehicles is a no-op
    open_pairs = np.ones((F, R), dtype=bool)
    events: list[list[tuple[float, int, int]]] = [[] for _ in range(R)]

    err_series = np.empty((R, T + 1, F)) if on_step is None else None
    states = np.empty((R, T + 1, M, 3)) if on_step is None else None

    def record(k: int) -> np.ndarray:
        e = x[1:] - x[:-1] + d + hw * v[1:]
        if on_step is None:
            err_series[:, k] = e.T
            states[:, k, :, 0] = x.T
            states[:, k, :, 1] = v.T
            states[:, k, :, 2] = a.T
        else:
            on_step(k, x, v, a, e)
        return e

    e_cur = record(0)
    u = np.empty((M, R))
    for k in range(T):
        u[0] = leader_command(sc.leader, k * dt, v[0], floor[0])

        if recv is not None:
            # np.where(received, k_a * a, 0.0) bit for bit, without its branch per
            # element: a lost packet clears every bit of its float (to +0.0)
            keep = -next(recv).astype(np.uint64)
            ff = ((cfg.k_a * a[:-1]).view(np.uint64) & keep).view(np.float64)
        elif ka_w != 0.0:
            ff = ka_w * a[:-1]
        else:
            ff = 0.0
        u[1:] = ff - cfg.k_v * (v[1:] - v[:-1]) - cfg.k_p * e_cur
        # np.clip's bits, in a third of its time (floor < 0 < accel_limit: no tie at zero)
        np.maximum(u, floor, out=u)
        np.minimum(u, accel_limit, out=u)

        a_n = a * c_aa + u * c_au
        v_n = v + a * c_va + u * c_vu
        x_n = x + v * dt + a * c_xa + u * c_xu

        neg = v_n < 0.0
        if neg.any():
            held = neg & (v == 0.0) & (a == 0.0)
            x_n = np.where(held, x, x_n)
            ii, rr = np.nonzero(neg & ~held & ~frozen)
            # the bisection runs on Python floats, twice as fast as on numpy scalars
            crossing = zip(v[ii, rr].tolist(), a[ii, rr].tolist(), u[ii, rr].tolist(), x[ii, rr].tolist())
            for i, r, (vi, ai, ui, xi) in zip(ii, rr, crossing):
                s = stop_crossing_time(vi, ai, ui, tau, dt)
                x_n[i, r] = xi + _position_delta_at(vi, ai, ui, tau, s)
            v_n = np.where(neg, 0.0, v_n)
            a_n = np.where(neg, 0.0, a_n)

        if any_frozen:
            # a frozen vehicle's x never changes after it freezes
            x = np.where(frozen, x, x_n)
            v = np.where(frozen, 0.0, v_n)
            a = np.where(frozen, 0.0, a_n)
        else:
            x, v, a = x_n, v_n, a_n

        hit = detect_collisions(x.T, lengths).T & open_pairs
        if hit.any():
            t_hit = (k + 1) * dt
            open_pairs &= ~hit
            for p, r in zip(*np.nonzero(hit)):
                events[r].append((t_hit, int(p), int(p) + 1))
            frozen[:-1] |= hit
            frozen[1:] |= hit
            any_frozen = True
            v = np.where(frozen, 0.0, v)
            a = np.where(frozen, 0.0, a)

        e_cur = record(k + 1)

    return err_series, states, events, limits


def _simulate_one(sc: ScenarioConfig, indices: np.ndarray):
    """_simulate_batch for one realization and no on_step hook, run vehicle by vehicle on Python floats.

    Follower i reads only vehicle i-1 and itself, so the leader runs its
    whole horizon first, and each follower then runs its whole horizon
    against its predecessor's finished x, v, a rows.  Each vehicle does the
    batched loop's arithmetic in the same operand order: leader command or
    control law, clamp, ZOH update, stop clamp.  Every one of those is a
    binary64 +, -, *, comparison, max/min or select, which numpy's ufuncs and
    CPython's floats both round correctly and neither contracts into a fused
    multiply-add, so every value keeps the batched loop's bits.  Three spots
    where a naive port would differ:
    - without feed-forward (ACC) the law is 0.0 - k_v*dv - k_p*e; -k_v*dv
      gives -0.0 where dv and e are zero;
    - a lost packet contributes a +0.0 feed-forward;
    - the deterministic channel forms (k_a*gamma)*a, which rounds unlike
      k_a*(gamma*a).
    A command's signed zero reaches a state only when every other term of
    its update is -0.0 too; the loop keeps them all the same.  The spacing
    errors are x[1:] - x[:-1] + d + hw*v[1:] on the finished rows.

    A collision, the one backward coupling, also freezes the pair's front
    vehicle, so the vehicles run in passes from a step k0, at first 0, with
    no collision test inside the step loop.  A pass runs every vehicle from
    `first`, at first the leader, to the horizon; one detect_collisions call
    on the rows after k0 then gives the next collision step S, the first
    step at which an open pair overlaps.  This is exact: a row depends only
    on the rows ahead of it and on collisions, so at the end of a pass each
    row differs from the true trajectory only after the next collision.
    Every row is thus final up to S, and the call finds at S the hit the
    batched loop computes there.  Every pair that overlaps at S freezes, in
    pair order: its event is logged and its v, a are zeroed there.  The next
    pass starts at S from the front vehicle of the first frozen pair, whose
    later rows no longer hold; the vehicles ahead of it read nothing behind
    them, so their rows stay.  A pass that finds no overlap ends the run.

    At most two vehicles' rows are Python lists at a time; the rows go into
    one (x/v/a, vehicle, step) float64 buffer whose transposed view is the
    states.
    """
    M, F, T = sc.n_vehicles, sc.n_followers, sc.n_steps
    cfg = sc.controller
    dt, tau, d, hw = sc.dt, sc.params.tau, sc.standstill_gap, cfg.h_w
    k_a, k_v, k_p = cfg.k_a, cfg.k_v, cfg.k_p
    c_aa, c_au, c_va, c_vu, c_xa, c_xu = zoh_coefficients(tau, dt)
    accel_limit, leader = sc.params.accel_limit, sc.leader

    got = None
    if cfg.mode == "cacc" and sc.channel.kind in ("gilbert", "iid"):
        # the whole run's receptions, (pairs, slots): F * T bools
        got = np.array([m.ravel() for m in _receptions(sc.channel, sc.base_seed, indices, F, T)]).T
    ka_w = k_a * (sc.channel.effective_gamma() if cfg.mode == "cacc" else 0.0)

    limits = _decel_limits(sc, indices)
    floor = (-limits[0]).tolist()
    lengths = np.full(M, sc.params.length)

    buf = np.empty((3, M, T + 1))
    x = 0.0
    for i in range(M):
        buf[0, i, 0] = x
        x = x - d - hw * sc.initial_speed
    buf[1, :, 0] = float(sc.initial_speed)
    buf[2, :, 0] = 0.0
    frozen = [False] * M
    open_pairs = np.ones(F, dtype=bool)
    events: list[tuple[float, int, int]] = []

    def run(i, k0, pred):
        """Vehicle i from step k0 to the horizon; returns its x, v rows from k0 on, as lists.

        pred holds the predecessor's x and v rows from k0 on, as lists.
        """
        x, v, a = buf[:, i, k0].tolist()
        n = T - k0
        if frozen[i]:
            buf[0, i, k0 + 1 :] = x
            buf[1:, i, k0 + 1 :] = 0.0
            return [x] * (n + 1), [0.0] * (n + 1)
        if i > 0:
            xp, vp = pred
            if got is not None:
                ff = np.where(got[i - 1, k0:], k_a * buf[2, i - 1, k0:T], 0.0).tolist()
            elif ka_w != 0.0:
                ff = (ka_w * buf[2, i - 1, k0:T]).tolist()
            else:
                ff = [0.0] * n
        else:   # the leader reads no predecessor
            xp = vp = ff = [0.0] * n
        xs, vs, as_ = [x], [v], [a]
        fl = floor[i]
        for k, xq, vq, f in zip(range(k0, T), xp, vp, ff):
            if i:
                u = f - k_v * (v - vq) - k_p * (x - xq + d + hw * v)
            else:
                u = leader_command(leader, k * dt, v, fl)
            # np.maximum, then np.minimum: a nan command stays nan (fl < 0 < accel_limit)
            if u < fl:
                u = fl
            elif u > accel_limit:
                u = accel_limit
            v_n = v + a * c_va + u * c_vu
            if v_n < 0.0:
                if v != 0.0 or a != 0.0:
                    x = x + _position_delta_at(v, a, u, tau, stop_crossing_time(v, a, u, tau, dt))
                v = a = 0.0
            else:
                x = x + v * dt + a * c_xa + u * c_xu
                v = v_n
                a = a * c_aa + u * c_au
            xs.append(x)
            vs.append(v)
            as_.append(a)
        buf[0, i, k0:] = xs
        buf[1, i, k0:] = vs
        buf[2, i, k0:] = as_
        return xs, vs

    k0 = first = 0
    while True:
        pred = buf[:2, first - 1, k0:].tolist() if first else None
        for i in range(first, M):
            pred = run(i, k0, pred)
        steps, pairs = np.nonzero(detect_collisions(buf[0, :, k0 + 1 :].T, lengths) & open_pairs)
        if not len(steps):
            break
        hits = pairs[steps == steps[0]].tolist()
        k0, first = k0 + 1 + int(steps[0]), hits[0]
        for p in hits:
            open_pairs[p] = False
            events.append((k0 * dt, p, p + 1))
            frozen[p] = frozen[p + 1] = True
            buf[1:, p : p + 2, k0] = 0.0

    e = buf[0, 1:] - buf[0, :-1] + d + hw * buf[1, 1:]
    return e.T[None], buf.T[None], [events], limits


def _chunks(indices) -> list[np.ndarray]:
    """indices in the fixed BATCH_SIZE chunks the engine runs as batches."""
    indices = np.asarray(indices, dtype=int)
    return [indices[lo : lo + BATCH_SIZE] for lo in range(0, len(indices), BATCH_SIZE)]


def _batch_sums(sc: ScenarioConfig, chunk: np.ndarray, shape: tuple[int, ...], sample):
    """One batch's per-grid-point sum and sum of squares of sample(k, x, v, a, e), and its events.

    sample returns the batch's samples vehicle-major, shape + (R,).  Each
    grid point's realization-major rows are copied into an (R, SUM_BLOCK,
    *shape) block, which is reduced over its first axis once every SUM_BLOCK
    grid points.  numpy adds the rows of an axis-0 reduction one after
    another in realization order, so every sum keeps the bits of adding
    rows.sum(axis=0) grid point by grid point.
    """
    T = sc.n_steps
    total = np.zeros((T + 1,) + shape)
    sumsq = np.zeros_like(total)
    # numpy sums a lone column pairwise, not row by row: a one-element
    # sample is reduced one grid point at a time to keep those bits
    width = SUM_BLOCK if math.prod(shape) > 1 else 1
    block = np.empty((len(chunk), width) + shape)

    def on_step(k, x, v, a, e):
        """Copy grid point k's rows into the block; reduce the block when it is full or k is the last."""
        j = k % width
        block[:, j] = np.moveaxis(sample(k, x, v, a, e), -1, 0)
        if j == width - 1 or k == T:
            rows = block[:, : j + 1]
            total[k - j : k + 1] += rows.sum(axis=0)
            sumsq[k - j : k + 1] += (rows * rows).sum(axis=0)

    _, _, events, _ = _simulate_batch(sc, chunk, on_step=on_step)
    return total, sumsq, events


def _moments(sc: ScenarioConfig, n: int, shape: tuple[int, ...], sample):
    """Per-grid-point sum and ddof=1 variance of sample(k, x, v, a, e) over realizations 0..n-1.

    sample returns the vehicle-major samples of a batch, shape + (R,).

    The fixed BATCH_SIZE batches run in forked worker processes, one per
    usable core, or in this process when that is one; their sums are added
    in batch order, so the result does not depend on the worker count.
    sample must pickle (a module-level function or a partial of one).  Also
    returns every realization's collision events, in index order.  The
    variance is zero for n < 2.
    """
    chunks = _chunks(np.arange(n))
    if sum(map(len, chunks)) != n:
        raise ConfigError(f"n: {n} realizations do not fit one index array")
    batch = functools.partial(_batch_sums, sc, shape=shape, sample=sample)
    total = np.zeros((sc.n_steps + 1,) + shape)
    sumsq = np.zeros_like(total)
    events = []
    # os.sched_getaffinity is missing on macOS and Windows: batches run in-process there
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(chunks), cores)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            if sc.decel_dist is not None:
                sc.decel_dist.sample(0, np.random.default_rng(0))   # the workers inherit what a draw imports
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
    dev = np.stack([x, v, a], axis=1)
    dev -= det[k][..., None]
    return dev


def run_realizations(sc: ScenarioConfig, indices) -> list[RealizationResult]:
    """Simulate several realizations in full, state trajectories included.

    Batched; identical to one-at-a-time runs.
    """
    out: list[RealizationResult] = []
    for chunk in _chunks(indices):
        err, states, events, limits = _simulate_batch(sc, chunk)
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
    if not 0 <= realization_index <= _INDEX_MAX:
        raise ConfigError(f"realization_index must be in [0, {_INDEX_MAX}], got {realization_index}")
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
    # one sample has no spread: its envelope would be zero and test nothing
    if not 2 <= n_realizations <= _COUNT_MAX:
        raise ConfigError(f"n_realizations must be in [2, {_COUNT_MAX}], got {n_realizations}")
    if sc.decel_dist is not None:
        raise ConfigError("validate_mean_trajectory requires fixed decel limits (decel_dist = None)")
    # imported before the run allocates its arrays: imported after them, it leaves the heap fragmented
    from scipy.special import ndtri

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

