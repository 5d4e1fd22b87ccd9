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
ConfigError naming the offending `section.key`.  A manifest holds a scenario
as its dataclasses' fields, read back just as strictly, and the dict's
canonical JSON hash identifies the resolved configuration in each `RunManifest`.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

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
        segments.append(LeaderSegment(*values))
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
        # configparser's first line; the rest quotes the offending input
        raise ConfigError(f"scenario file: {str(exc).splitlines()[0]}") from None

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"{section}: unknown section")
        for key in cp[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown key")

    pl, ct, ch, ld, sim, mc = (
        _Section(name, dict(cp[name]) if cp.has_section(name) else {})
        for name in ("platoon", "controller", "channel", "leader", "sim", "montecarlo")
    )

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
    elif leader_mode == "brake_at_limit":
        leader = LeaderProfile(brakes_at_limit=True)
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


def scenario_to_dict(sc: ScenarioConfig) -> dict[str, typing.Any]:
    """The scenario's dataclass fields as plain JSON for manifests, read back by scenario_from_dict.

    A None is left out, and a leader segment is the list [start, u] or [start, u, target].
    """
    def written(value):
        if isinstance(value, dict):
            return {k: written(v) for k, v in value.items() if v is not None}
        if isinstance(value, tuple):   # the leader's segments
            return [list(written(seg).values()) for seg in value]
        return value

    return written(dataclasses.asdict(sc))


def _build(cls, table, where: str):
    """Dataclass cls from its manifest table, which where names in messages.

    The table holds every field but one that defaults to None, which the
    writer leaves out, and no other key.  A violation is a ConfigError
    naming the table and the key.
    """
    if not isinstance(table, dict):
        raise ConfigError(f"{where}: malformed (expected a table, got {type(table).__name__})")
    hints = typing.get_type_hints(cls)
    unknown = sorted(table.keys() - hints.keys(), key=str)
    if unknown:
        raise ConfigError(f"{where}: malformed (unknown key {unknown[0]!r})")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in table:
            kwargs[f.name] = _read(hints[f.name], table[f.name], where, f.name, null_written=f.default is not None)
        elif f.default is not None:
            raise ConfigError(f"{where}: malformed (missing key {f.name!r})")
    try:
        return cls(**kwargs)
    except InvalidInputError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _read(hint, value, where: str, key: str, null_written: bool = False):
    """Field key of table where from its manifest value, checked against the field's type hint."""
    args = typing.get_args(hint)
    if type(None) in args:   # X | None: null only where the writer writes None
        if value is None and null_written:
            return None
        (hint,) = set(args) - {type(None)}
        args = typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, f"{where}.{key}")
    origin = typing.get_origin(hint) or hint
    kind = {typing.Literal: str, tuple: list}.get(origin, origin)
    ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    if kind is float and type(value) is int:   # an int is a number too, unless it overflows a float
        ok = abs(value) <= sys.float_info.max
    if not ok:
        words = {bool: "a bool", int: "an integer", float: "a number", str: "a string", dict: "a table", list: "a list"}
        raise ConfigError(f"{where}: malformed ({key} must be {words[kind]}, got {type(value).__name__})")
    if origin is tuple:   # the leader's segments, each the list of its fields but a None target
        names = [f.name for f in dataclasses.fields(args[0])]
        if not all(isinstance(row, list) and 2 <= len(row) <= len(names) for row in value):
            raise ConfigError(f"{where}: malformed ({key} must be a list of [start, u] or [start, u, target])")
        return tuple(_build(args[0], dict(zip(names, row)), f"{where}.{key}[{i}]") for i, row in enumerate(value))
    if origin is list:
        return [_read(args[0], v, where, f"{key}[{i}]") for i, v in enumerate(value)]
    return value


def scenario_from_dict(data: dict[str, typing.Any]) -> ScenarioConfig:
    """Inverse of scenario_to_dict."""
    return _build(ScenarioConfig, data, "manifest.config.scenario")


def config_hash(data: dict[str, typing.Any]) -> str:
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
        except ValueError as exc:
            raise ConfigError(f"manifest: malformed ({exc})") from None
        manifest = _build(cls, data, "manifest")
        if data["config_sha256"] != config_hash(manifest.config):
            raise ConfigError("manifest: config hash mismatch")
        return manifest
