"""Scenario files: sectioned key-value text with units in the key names.

Example:

    [platoon]
    n_followers = 5
    initial_speed_mps = 25
    tau_s = 0.5
    ...
    [controller]
    mode = cacc
    ka = 0.4
    ...

Parsing is strict: unknown keys, missing keys and malformed values raise
ConfigError naming the offending `section.key`.  A scenario round-trips
through a plain dict for manifests, and the dict's canonical JSON hash
identifies the resolved configuration in each `RunManifest`.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import __version__
from .channel import GilbertParams
from .control import ControllerConfig
from .dynamics import LeaderProfile, LeaderSegment, VehicleParams
from .errors import ConfigError, InvalidInputError
from .montecarlo import ChannelSpec, DecelDistribution, ScenarioConfig

__all__ = [
    "load_scenario", "parse_scenario", "scenario_to_dict", "scenario_from_dict", "config_hash",
    "RunManifest",
]

_KNOWN_KEYS = {
    "platoon": {
        "n_followers", "initial_speed_mps", "standstill_gap_m", "tau_s",
        "vehicle_length_m", "decel_limit_mps2", "accel_limit_mps2",
    },
    "controller": {"mode", "ka", "kv", "kp", "hw_s"},
    "channel": {"model", "gamma", "p_gb", "p_bg", "q"},
    "leader": {"mode", "segments"},
    "sim": {"dt_s", "duration_s"},
    "montecarlo": {
        "realizations", "base_seed", "decel_dist", "decel_value_mps2",
        "decel_low_mps2", "decel_high_mps2", "decel_mean_mps2", "decel_std_mps2",
    },
}


class _Section:
    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = values

    def get(self, key: str, default: str | None = None) -> str:
        if key in self.values:
            return self.values[key]
        if default is not None:
            return default
        raise ConfigError(f"{self.name}.{key}: required key missing")

    def get_float(self, key: str, default: str | None = None) -> float:
        raw = self.get(key, default)
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: expected a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{self.name}.{key}: must be finite, got {raw!r}")
        return value

    def get_int(self, key: str, default: str | None = None) -> int:
        raw = self.get(key, default)
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: expected an integer, got {raw!r}") from None


def _parse_segments(raw: str) -> LeaderProfile:
    """Parse 'start u [target]; start u [target]; ...' into a profile."""
    segments = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = part.split()
        if len(fields) not in (2, 3):
            raise ConfigError(
                f"leader.segments: each segment is 'start_s u_mps2 [target_mps]', got {part!r}"
            )
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise ConfigError(f"leader.segments: malformed segment {part!r}") from None
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"leader.segments: non-finite value in segment {part!r}")
        start, u = values[:2]
        target = values[2] if len(values) == 3 else None
        segments.append(LeaderSegment(start, u, target))
    try:
        return LeaderProfile(tuple(segments))
    except InvalidInputError as exc:
        raise ConfigError(f"leader.segments: {exc}") from None


def parse_scenario(text: str) -> ScenarioConfig:
    """Build a ScenarioConfig from scenario-file text."""
    # ';' separates leader segments, so only '#' starts an inline comment;
    # a '%' is literal text, not an interpolation
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"scenario file: {exc}") from None

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"{section}: unknown section")
        for key in cp[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown key")

    def section(name: str) -> _Section:
        return _Section(name, dict(cp[name]) if cp.has_section(name) else {})

    pl = section("platoon")
    ct = section("controller")
    ch = section("channel")
    ld = section("leader")
    sim = section("sim")
    mc = section("montecarlo")

    try:
        params = VehicleParams(
            tau=pl.get_float("tau_s", "0.5"),
            length=pl.get_float("vehicle_length_m", "5.0"),
            decel_limit=pl.get_float("decel_limit_mps2", "9.0"),
            accel_limit=pl.get_float("accel_limit_mps2", "3.0"),
        )
    except InvalidInputError as exc:
        raise ConfigError(f"platoon: {exc}") from None

    mode = ct.get("mode", "cacc").lower()
    try:
        controller = ControllerConfig(
            k_a=ct.get_float("ka"),
            k_v=ct.get_float("kv"),
            k_p=ct.get_float("kp"),
            h_w=ct.get_float("hw_s"),
            mode=mode,
        )
    except InvalidInputError as exc:
        raise ConfigError(f"controller: {exc}") from None

    model = ch.get("model", "ideal").lower()
    if model == "ideal":
        channel = ChannelSpec(kind="ideal")
    elif model in ("iid", "deterministic"):
        channel = ChannelSpec(kind=model, gamma=ch.get_float("gamma"))
    elif model == "gilbert":
        try:
            gp = GilbertParams(
                p_gb=ch.get_float("p_gb"), p_bg=ch.get_float("p_bg"), q=ch.get_float("q")
            )
        except InvalidInputError as exc:
            raise ConfigError(f"channel: {exc}") from None
        channel = ChannelSpec(kind="gilbert", gilbert=gp)
    else:
        raise ConfigError(f"channel.model: unknown model {model!r}")

    leader_mode = ld.get("mode", "segments").lower()
    if leader_mode == "segments":
        leader = _parse_segments(ld.get("segments", ""))
        brakes_at_limit = False
    elif leader_mode == "brake_at_limit":
        leader = LeaderProfile()
        brakes_at_limit = True
    else:
        raise ConfigError(f"leader.mode: unknown mode {leader_mode!r}")

    dist_kind = mc.get("decel_dist", "none").lower()
    if dist_kind == "none":
        decel_dist = None
    elif dist_kind == "point":
        decel_dist = DecelDistribution(kind="point", value=mc.get_float("decel_value_mps2"))
    elif dist_kind == "uniform":
        decel_dist = DecelDistribution(
            kind="uniform", low=mc.get_float("decel_low_mps2"), high=mc.get_float("decel_high_mps2")
        )
    elif dist_kind == "truncnorm":
        decel_dist = DecelDistribution(
            kind="truncnorm",
            mean=mc.get_float("decel_mean_mps2", "7.5"),
            std=mc.get_float("decel_std_mps2", "1.0"),
            low=mc.get_float("decel_low_mps2", "4.5"),
            high=mc.get_float("decel_high_mps2", "9.5"),
        )
    else:
        raise ConfigError(f"montecarlo.decel_dist: unknown distribution {dist_kind!r}")

    return ScenarioConfig(
        n_followers=pl.get_int("n_followers"),
        params=params,
        controller=controller,
        channel=channel,
        leader=leader,
        leader_brakes_at_limit=brakes_at_limit,
        initial_speed=pl.get_float("initial_speed_mps"),
        dt=sim.get_float("dt_s", "0.01"),
        duration=sim.get_float("duration_s"),
        standstill_gap=pl.get_float("standstill_gap_m", "5.0"),
        decel_dist=decel_dist,
        realizations=mc.get_int("realizations", "1"),
        base_seed=mc.get_int("base_seed", "0"),
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a scenario file from disk."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"scenario file not found: {p}")
    return parse_scenario(p.read_text())


def scenario_to_dict(sc: ScenarioConfig) -> dict[str, Any]:
    """Plain-JSON representation for manifests; round-trips via scenario_from_dict."""
    out: dict[str, Any] = {
        "n_followers": sc.n_followers,
        "params": {
            "tau": sc.params.tau,
            "length": sc.params.length,
            "decel_limit": sc.params.decel_limit,
            "accel_limit": sc.params.accel_limit,
        },
        "controller": {
            "k_a": sc.controller.k_a,
            "k_v": sc.controller.k_v,
            "k_p": sc.controller.k_p,
            "h_w": sc.controller.h_w,
            "mode": sc.controller.mode,
        },
        "channel": {"kind": sc.channel.kind},
        "leader": {
            "brakes_at_limit": sc.leader_brakes_at_limit,
            "segments": [
                [s.start_time, s.u] + ([s.target_velocity] if s.target_velocity is not None else [])
                for s in sc.leader.segments
            ],
        },
        "initial_speed": sc.initial_speed,
        "dt": sc.dt,
        "duration": sc.duration,
        "standstill_gap": sc.standstill_gap,
        "realizations": sc.realizations,
        "base_seed": sc.base_seed,
    }
    if sc.channel.gamma is not None:
        out["channel"]["gamma"] = sc.channel.gamma
    if sc.channel.gilbert is not None:
        gp = sc.channel.gilbert
        out["channel"]["gilbert"] = {"p_gb": gp.p_gb, "p_bg": gp.p_bg, "q": gp.q}
    if sc.decel_dist is not None:
        dd = sc.decel_dist
        out["decel_dist"] = {
            "kind": dd.kind, "mean": dd.mean, "std": dd.std,
            "low": dd.low, "high": dd.high, "value": dd.value,
        }
    return out


def scenario_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Inverse of scenario_to_dict."""
    try:
        ch = data["channel"]
        gilbert = None
        if "gilbert" in ch:
            gilbert = GilbertParams(**ch["gilbert"])
        channel = ChannelSpec(kind=ch["kind"], gamma=ch.get("gamma"), gilbert=gilbert)
        segments = tuple(
            LeaderSegment(s[0], s[1], s[2] if len(s) > 2 else None) for s in data["leader"]["segments"]
        )
        decel_dist = DecelDistribution(**data["decel_dist"]) if "decel_dist" in data else None
        return ScenarioConfig(
            n_followers=data["n_followers"],
            params=VehicleParams(**data["params"]),
            controller=ControllerConfig(**data["controller"]),
            channel=channel,
            leader=LeaderProfile(segments),
            leader_brakes_at_limit=data["leader"]["brakes_at_limit"],
            initial_speed=data["initial_speed"],
            dt=data["dt"],
            duration=data["duration"],
            standstill_gap=data["standstill_gap"],
            decel_dist=decel_dist,
            realizations=data["realizations"],
            base_seed=data["base_seed"],
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"manifest config: malformed ({exc})") from None
    except InvalidInputError as exc:
        raise ConfigError(f"manifest config: {exc}") from None


def config_hash(data: dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON form of a resolved configuration."""
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Record of one command invocation, sufficient to reproduce its outputs."""

    command: str
    config: dict
    base_seed: int | None
    version: str = __version__
    config_sha256: str = ""
    outputs: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.config_sha256:
            object.__setattr__(self, "config_sha256", config_hash(self.config))

    def write(self, out: Path) -> Path:
        path = out / "manifest.json"
        path.write_text(json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        try:
            data = json.loads(path.read_text())
            manifest = cls(
                command=data["command"],
                config=data["config"],
                base_seed=data.get("base_seed"),
                version=data.get("version", ""),
                config_sha256="",
                outputs=list(data.get("outputs", [])),
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ConfigError(f"manifest: malformed ({exc})") from None
        if not isinstance(manifest.config, dict):
            raise ConfigError("manifest: config must be a table of the command's arguments")
        if data.get("config_sha256") != manifest.config_sha256:
            raise ConfigError("manifest: config hash mismatch")
        return manifest
