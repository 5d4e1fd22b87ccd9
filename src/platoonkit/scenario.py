"""Scenario files and manifests: one vocabulary, read by two strict readers.

The config dataclasses name fields, and each refuses a value with an
InvalidInputError whose message starts with the field name or names.  Only
this module names scenario-file keys (see README.md and scenarios/ for the
format): `_KEYS` maps each `section.key` to the ScenarioConfig field it sets.
`parse_scenario` reads a file in one pass: `_from_file` walks the fields in
`_KEYS` order, converts each given key's text, gives an absent key its
field's default and builds each dataclass, so a rejection names the first
faulty key in that order as `section.key`.  `_build` reads JSON tables only,
a manifest's envelope, its command's arguments and its scenario, against the
dataclasses' type hints and signatures, and names a rejection by the table
and key (`manifest.config.scenario` and so on).  Unknown, missing, malformed
and refused keys, and keys the chosen model, mode or distribution does not
read, are ConfigErrors.  The manifest dict's canonical JSON hash identifies
the resolved configuration in each `RunManifest`.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import re
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .dynamics import LeaderSegment
from .errors import ConfigError, InvalidInputError
from .montecarlo import ScenarioConfig

__all__ = [
    "load_scenario", "parse_scenario", "scenario_from_dict", "read_arguments", "config_hash", "RunManifest",
]

# Every scenario-file key and the ScenarioConfig field it sets, in the order a
# file is read and checked: the nested tables, then the scalars.  A key whose
# field lies in a table with a KIND_FIELDS (the channel, the decel
# distribution) is read only by the kinds that read that field; a kind other
# than the default must give each key it reads.
_KEYS = {
    "platoon.tau_s": "params.tau",
    "platoon.vehicle_length_m": "params.length",
    "platoon.decel_limit_mps2": "params.decel_limit",
    "platoon.accel_limit_mps2": "params.accel_limit",
    "controller.mode": "controller.mode",
    "controller.ka": "controller.k_a",
    "controller.kv": "controller.k_v",
    "controller.kp": "controller.k_p",
    "controller.hw_s": "controller.h_w",
    "channel.model": "channel.kind",
    "channel.gamma": "channel.gamma",
    "channel.p_gb": "channel.gilbert.p_gb",
    "channel.p_bg": "channel.gilbert.p_bg",
    "channel.q": "channel.gilbert.q",
    "leader.mode": "leader.brakes_at_limit",   # segments | brake_at_limit
    "leader.segments": "leader.segments",      # start_s u_mps2 [target_mps]; ...
    "montecarlo.decel_dist": "decel_dist.kind",   # none: no table
    "montecarlo.decel_value_mps2": "decel_dist.value",
    "montecarlo.decel_mean_mps2": "decel_dist.mean",
    "montecarlo.decel_std_mps2": "decel_dist.std",
    "montecarlo.decel_low_mps2": "decel_dist.low",
    "montecarlo.decel_high_mps2": "decel_dist.high",
    "platoon.n_followers": "n_followers",
    "platoon.initial_speed_mps": "initial_speed",
    "sim.dt_s": "dt",
    "sim.duration_s": "duration",
    "platoon.standstill_gap_m": "standstill_gap",
    "montecarlo.realizations": "realizations",
    "montecarlo.base_seed": "base_seed",
}
_KEY_OF = {path: key for key, path in _KEYS.items()}
_SECTIONS = {key.partition(".")[0] for key in _KEYS}
# the field names an InvalidInputError's message starts with, and the rest
_NAMES = re.compile(r"([\w.]+(?:, [\w.]+)*):? (.*)", re.S)


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
    given = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{section}: unknown section")
        values = dict(cp.items(section, raw=True))
        for key in cp.options(section):
            if f"{section}.{key}" not in _KEYS:
                raise ConfigError(f"{section}.{key}: unknown key")
            given[f"{section}.{key}"] = values[key]
    read: set[str] = set()
    scenario = _from_file(ScenarioConfig, "", given, read)
    for key in sorted(given.keys() - read):
        raise ConfigError(f"{key}: not read by the chosen model, mode or distribution")
    return scenario


def _from_file(cls, where: str, given: dict[str, str], read: set[str]):
    """Dataclass cls at field path where from a file's given keys, read in _KEYS order.

    An absent key takes its field's default, unless the file must give it; a
    field its table's kind does not read takes its default.  The keys taken go
    into read.  A value cls refuses is a ConfigError naming its file keys.
    """
    params = _parameters(cls)
    kinds = getattr(cls, "KIND_FIELDS", None)
    if kinds is not None:
        kind = given.get(_key(where, "kind"), params["kind"][2]).lower()
    kwargs = {}
    for name, key in _fields(where):
        hint, nullable, default = params[name]
        if kinds is not None and name != "kind" and name not in kinds.get(kind, ()):
            kwargs[name] = default
        elif key in given:
            read.add(key)
            kwargs[name] = _from_text(hint, given[key], key)
        elif key in _KEYS:
            optional = kinds is None or kind == params["kind"][2]
            if not optional or default is inspect.Parameter.empty:
                raise ConfigError(f"{key}: required key missing")
            kwargs[name] = default
        else:   # a nested table: an optional one whose kind key is absent takes its default, and none is null
            kind_key = _key(key, "kind")
            if nullable and kind_key in _KEYS and given.get(kind_key, "none").lower() == "none":
                read.update({kind_key} & given.keys())
                kwargs[name] = default if kind_key not in given else None
            else:
                kwargs[name] = _from_file(hint, key, given, read)
    try:
        return cls(**kwargs)
    except InvalidInputError as exc:
        names, problem = _NAMES.match(str(exc)).groups()
        raise ConfigError(f"{', '.join(_key(where, name) for name in names.split(', '))}: {problem}") from None


@functools.cache
def _fields(where: str) -> tuple[tuple[str, str], ...]:
    """(field name, file key or field path) of each field of the table at field path where, in _KEYS order."""
    prefix = f"{where}." if where else ""
    names = dict.fromkeys(path[len(prefix):].split(".")[0] for path in _KEYS.values() if path.startswith(prefix))
    return tuple((name, _key(where, name)) for name in names)


@functools.cache
def _key(where: str, name: str) -> str:
    """The file key of field name of the table at field path where; its field path where no key sets it."""
    path = f"{where}.{name}" if where else name
    return _KEY_OF.get(path, path)


def _from_text(hint, raw, key: str):
    """A field of type hint from its file key's text."""
    if hint is float or hint is int:
        try:
            value = hint(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected {'a number' if hint is float else 'an integer'}, got {raw!r}") from None
        if hint is float and not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {raw!r}")
        return value
    if hint is bool:   # leader.mode
        modes = {"segments": False, "brake_at_limit": True}
        if raw.lower() not in modes:
            raise ConfigError(f"{key}: unknown mode {raw.lower()!r}")
        return modes[raw.lower()]
    if typing.get_origin(hint) is tuple:   # leader.segments
        return _segments(raw, key)
    return raw.lower()


def _segments(raw: str, key: str) -> tuple[LeaderSegment, ...]:
    """Parse 'start u [target]; start u [target]; ...' into segments."""
    segments = []
    for part in filter(None, (p.strip() for p in raw.split(";"))):
        fields = part.split()
        if len(fields) not in (2, 3):
            raise ConfigError(f"{key}: each segment is 'start_s u_mps2 [target_mps]', got {part!r}")
        try:
            values = [float(f) for f in fields]
        except ValueError:
            raise ConfigError(f"{key}: malformed segment {part!r}") from None
        try:
            segments.append(LeaderSegment(*values))
        except InvalidInputError as exc:
            raise ConfigError(f"{key}: {exc} in segment {part!r}") from None
    return tuple(segments)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a scenario file, read as UTF-8, from disk."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"scenario file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        byte, offset = exc.object[exc.start], exc.start
        raise ConfigError(f"scenario file {p}: not UTF-8 (byte {byte:#04x} at offset {offset})") from None
    return parse_scenario(text)


@functools.cache
def _parameters(fn) -> dict[str, tuple[typing.Any, bool, typing.Any]]:
    """Each parameter of fn (a function or a dataclass) as name: (type hint but None, whether None is allowed, default).

    Computed once per fn, so reading a table walks no signature or type hint.
    """
    hints, params = typing.get_type_hints(fn), {}
    for p in inspect.signature(fn).parameters.values():
        hint, args = hints[p.name], typing.get_args(hints[p.name])
        if type(None) in args:   # X | None: null reads as None
            (hint,) = set(args) - {type(None)}
        params[p.name] = (hint, type(None) in args, p.default)
    return params


def read_arguments(fn, table, where: str, skip: tuple[str, ...] = ()) -> dict[str, typing.Any]:
    """The keyword arguments of fn (a function or a dataclass) but skip, read from its table in the table's order.

    The table holds every parameter, a None as null, and no other key; each
    value must have its parameter's type hint, and a dataclass hint reads a
    nested table.  where names the table in messages; a violation is a
    ConfigError naming the table and the key.
    """
    if not isinstance(table, dict):
        raise ConfigError(f"{where}: malformed (expected a table, got {type(table).__name__})")
    params = _parameters(fn)
    names = params.keys() - set(skip) if skip else params.keys()
    if table.keys() != names:
        key = min(table.keys() ^ names, key=str)
        raise ConfigError(f"{where}: malformed ({'unknown' if key in table else 'missing'} key {key!r})")
    return {name: _read(*params[name][:2], value, where, name) for name, value in table.items()}


def _build(cls, table, where: str):
    """Dataclass cls from its table; a value cls refuses is a ConfigError naming where."""
    kwargs = read_arguments(cls, table, where)
    try:
        return cls(**kwargs)
    except InvalidInputError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _read(hint, nullable: bool, value, where: str, key: str):
    """Parameter key of table where from its value, checked against its type hint."""
    if value is None and nullable:
        return None
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, f"{where}.{key}")
    args = typing.get_args(hint)
    origin = typing.get_origin(hint) or hint
    kind = {typing.Literal: str, tuple: list}.get(origin, origin)
    ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    if kind is float and type(value) is int:   # an int is a number too, unless it overflows a float
        ok = abs(value) <= sys.float_info.max
    if not ok:
        words = {bool: "a bool", int: "an integer", float: "a number", str: "a string", dict: "a table", list: "a list"}
        raise ConfigError(f"{where}: malformed ({key} must be {words[kind]}, got {type(value).__name__})")
    if kind is list:   # list[X] and tuple[X, ...] of any length, tuple[X, Y, ...] of exactly its
        items = args if origin is tuple and ... not in args else args[:1] * len(value)
        if len(value) != len(items):
            raise ConfigError(f"{where}: malformed ({key} must hold {len(items)} items, got {len(value)})")
        return origin(_read(h, False, v, where, f"{key}[{i}]") for i, (h, v) in enumerate(zip(items, value)))
    return value


def scenario_from_dict(data: dict[str, typing.Any]) -> ScenarioConfig:
    """ScenarioConfig from a manifest's scenario table, dataclasses.asdict of one."""
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
