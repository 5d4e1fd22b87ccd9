"""Independent computations the benchmark checks platoonkit's outputs against.

Nothing here calls the vectorized engine, the stability module or the
scenario parser. Scenario values come from the benchmark's own reading of
the files it generated; the string simulation is built only from the public
scalar functions `step_vehicle`, `acc_control`, `cacc_control`, `saturate`,
`spacing_error` and `leader_input`.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STREAM_DECEL = 1            # montecarlo: SeedSequence((base_seed, 1, realization)) -> decel limits
STABILITY_TOL = 1e-6        # stable means ||H||inf <= 1 + 1e-6 (stability.is_string_stable)


@dataclass(frozen=True)
class Spec:
    """The numbers of one generated scenario file, as the benchmark reads them."""

    n_followers: int
    initial_speed: float
    gap: float
    length: float
    tau: float
    decel_limit: float
    accel_limit: float
    mode: str
    ka: float
    kv: float
    kp: float
    hw: float
    gamma: float                  # reception probability of the deterministic equivalent
    leader_brakes_at_limit: bool
    segments: tuple[tuple[float, ...], ...]
    dt: float
    duration: float
    base_seed: int
    decel: dict[str, float] | None   # truncnorm parameters, or None for fixed limits

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


def gilbert_gamma(p_gb: float, p_bg: float, q: float) -> float:
    """Stationary reception probability 1 - P(1-q)/(P+Q) of the Gilbert chain."""
    if p_gb + p_bg == 0.0:
        return 1.0
    return 1.0 - p_gb * (1.0 - q) / (p_gb + p_bg)


def read_spec(path: Path) -> Spec:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(path.read_text())
    pl, ct, ch, ld, sim, mc = (cp[s] for s in ("platoon", "controller", "channel", "leader", "sim", "montecarlo"))
    model = ch["model"]
    if model == "ideal":
        gamma = 1.0
    elif model == "gilbert":
        gamma = gilbert_gamma(float(ch["p_gb"]), float(ch["p_bg"]), float(ch["q"]))
    else:
        gamma = float(ch["gamma"])
    segments = ()
    if ld["mode"] == "segments":
        segments = tuple(tuple(float(f) for f in part.split()) for part in ld["segments"].split(";"))
    decel = None
    if mc.get("decel_dist", "none") == "truncnorm":
        decel = {k: float(mc[f"decel_{k}_mps2"]) for k in ("mean", "std", "low", "high")}
    return Spec(
        n_followers=int(pl["n_followers"]), initial_speed=float(pl["initial_speed_mps"]),
        gap=float(pl["standstill_gap_m"]), length=float(pl["vehicle_length_m"]),
        tau=float(pl["tau_s"]), decel_limit=float(pl["decel_limit_mps2"]),
        accel_limit=float(pl["accel_limit_mps2"]), mode=ct["mode"], ka=float(ct["ka"]),
        kv=float(ct["kv"]), kp=float(ct["kp"]), hw=float(ct["hw_s"]), gamma=gamma,
        leader_brakes_at_limit=ld["mode"] == "brake_at_limit", segments=segments,
        dt=float(sim["dt_s"]), duration=float(sim["duration_s"]),
        base_seed=int(mc["base_seed"]), decel=decel,
    )


def h_min(spec: Spec) -> float:
    """Minimum string-stable headway 2 tau / (1 + gamma ka)."""
    return 2.0 * spec.tau / (1.0 + spec.gamma * spec.ka)


def error_tf_mag(spec: Spec, omega: np.ndarray) -> np.ndarray:
    """|H(j w)| of the per-hop spacing-error transfer function, in closed form.

    H(s) = (g ka s^2 + kv s + kp) / (tau s^3 + s^2 + (kv + kp hw) s + kp).
    """
    s = 1j * np.asarray(omega, dtype=float)
    ka = spec.ka if spec.mode == "cacc" else 0.0
    num = spec.gamma * ka * s * s + spec.kv * s + spec.kp
    den = spec.tau * s ** 3 + s * s + (spec.kv + spec.kp * spec.hw) * s + spec.kp
    return np.abs(num) / np.abs(den)


def dense_hinf(spec: Spec, points: int = 200_001) -> float:
    """max |H(j w)| over w = 0 and a dense log grid on [1e-3, 1e3] rad/s."""
    omega = np.concatenate([[0.0], np.logspace(-3.0, 3.0, points)])
    return float(error_tf_mag(spec, omega).max())


def decel_limits(spec: Spec, realization: int) -> np.ndarray:
    """Per-vehicle deceleration limits of one realization, re-derived with scipy.stats.

    The engine's stream for them is Philox seeded by
    SeedSequence((base_seed, 1, realization)), one uniform per vehicle,
    mapped through the truncated-normal inverse CDF.
    """
    from scipy.stats import truncnorm

    n = spec.n_followers + 1
    if spec.decel is None:
        return np.full(n, spec.decel_limit)
    d = spec.decel
    seq = np.random.SeedSequence((spec.base_seed, STREAM_DECEL, realization))
    u = np.random.Generator(np.random.Philox(seq)).random(n)
    a, b = (d["low"] - d["mean"]) / d["std"], (d["high"] - d["mean"]) / d["std"]
    return truncnorm.ppf(u, a, b, loc=d["mean"], scale=d["std"])


@dataclass(frozen=True)
class StringRun:
    errors: np.ndarray                          # (n_steps + 1, n_followers)
    events: list[tuple[float, int, int]]        # (time, lead, follower) in detection order
    linear: bool                                # no saturation, stop or collision happened


def simulate_string(spec: Spec, limits: np.ndarray, mode: str | None = None) -> StringRun:
    """One realization of the string, vehicle by vehicle, with the scalar functions.

    The communicated acceleration enters CACC as gamma * a_pred: gamma = 1
    for an ideal link, the reception probability for the deterministic
    equivalent. A colliding pair freezes where it collided.
    """
    from platoonkit.control import ControllerConfig, acc_control, cacc_control, saturate
    from platoonkit.dynamics import (LeaderProfile, LeaderSegment, VehicleParams, VehicleState,
                                     leader_input, spacing_error, step_vehicle)

    mode = mode or spec.mode
    cfg = ControllerConfig(k_a=spec.ka, k_v=spec.kv, k_p=spec.kp, h_w=spec.hw, mode=mode)
    profile = LeaderProfile(tuple(LeaderSegment(*seg) for seg in spec.segments))
    M, F, T, dt, d = spec.n_followers + 1, spec.n_followers, spec.n_steps, spec.dt, spec.gap
    params = [VehicleParams(tau=spec.tau, length=spec.length, decel_limit=float(lim),
                            accel_limit=spec.accel_limit) for lim in limits]
    states = []
    x = 0.0
    for i in range(M):
        if i:
            x = x - d - spec.hw * spec.initial_speed
        states.append(VehicleState(x, float(spec.initial_speed), 0.0))
    frozen = [False] * M
    collided = [False] * F
    events: list[tuple[float, int, int]] = []
    linear = True
    errors = np.empty((T + 1, F))
    errors[0] = [spacing_error(states[i], states[i - 1], spec.hw, d) for i in range(1, M)]
    for k in range(T):
        t = k * dt
        if spec.leader_brakes_at_limit:
            raw = [-params[0].decel_limit if states[0].v > 0.0 else 0.0]
        else:
            raw = [leader_input(profile, states[0], t)]
        for i in range(1, M):
            if mode == "acc":
                raw.append(acc_control(states[i], states[i - 1], cfg, d))
            else:
                raw.append(cacc_control(states[i], states[i - 1], spec.gamma * states[i - 1].a, cfg, d))
        nxt = []
        for i in range(M):
            if frozen[i]:
                nxt.append(states[i])
                continue
            u = saturate(raw[i], params[i])
            linear = linear and u == raw[i]
            s = step_vehicle(states[i], u, dt, params[i])
            linear = linear and s.v != 0.0
            nxt.append(s)
        states = nxt
        hits = [p for p in range(F)
                if not collided[p] and states[p].x - states[p + 1].x - spec.length <= 0.0]
        for p in hits:
            collided[p] = True
            events.append(((k + 1) * dt, p, p + 1))
            for i in (p, p + 1):
                if not frozen[i]:
                    frozen[i] = True
                    states[i] = VehicleState(states[i].x, 0.0, 0.0)
        linear = linear and not hits
        errors[k + 1] = [spacing_error(states[i], states[i - 1], spec.hw, d) for i in range(1, M)]
    return StringRun(errors=errors, events=events, linear=linear)
