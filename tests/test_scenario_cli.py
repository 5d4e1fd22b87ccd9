import configparser
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platoonkit
from platoonkit import cli, montecarlo
from platoonkit.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_RESOURCES, build_parser, main
from platoonkit.dynamics import LeaderSegment
from platoonkit.errors import ConfigError, NumericalError
from platoonkit.scenario import _KEYS, config_hash, load_scenario, parse_scenario, scenario_from_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
[platoon]
n_followers = 2
initial_speed_mps = 20

[controller]
mode = cacc
ka = 0.4
kv = 1.0
kp = 0.8
hw_s = 1.0

[channel]
model = ideal

[leader]
mode = segments
segments = 0 0; 5 -3 10

[sim]
dt_s = 0.01
duration_s = 12
"""


def edit(old: str, new: str) -> str:
    """MINIMAL with one line replaced, or with new appended when old is empty."""
    assert old in MINIMAL
    return MINIMAL.replace(old, new) if old else MINIMAL + new


# Scenario inputs beyond the shipped files: each valid one parses, round-trips
# through a manifest dict and reruns to the same bytes.
VALID_VARIANTS = {
    "iid channel": edit("model = ideal", "model = iid\ngamma = 0.6"),
    "deterministic channel": edit("model = ideal", "model = deterministic\ngamma = 0.6"),
    "gilbert channel": edit("model = ideal", "model = gilbert\np_gb = 0.3\np_bg = 0.1\nq = 0.2"),
    "leader at its limit": edit("mode = segments\nsegments = 0 0; 5 -3 10", "mode = brake_at_limit"),
    "point decel": edit("", "[montecarlo]\ndecel_dist = point\ndecel_value_mps2 = 8\n"),
    "uniform decel": edit("", "[montecarlo]\ndecel_dist = uniform\ndecel_low_mps2 = 6\ndecel_high_mps2 = 9\n"),
    "truncnorm decel": edit("", "[montecarlo]\ndecel_dist = truncnorm\nrealizations = 7\nbase_seed = 3\n"),
}

# Each invalid one is a ConfigError naming its key, and exit 2 through main.
INVALID_VARIANTS = {
    "interpolated reference": (edit("ka = 0.4", "ka = %(kv)s"), "controller.ka"),
    "trailing percent": (edit("ka = 0.4", "ka = 0.4%"), "controller.ka"),
    "gilbert probability": (
        edit("model = ideal", "model = gilbert\np_gb = 1.5\np_bg = 0.1\nq = 0.2"), "channel.p_gb"),
    "channel model": (edit("model = ideal", "model = smoke"), "channel.model"),
    "leader mode": (edit("mode = segments", "mode = teleport"), "leader.mode"),
    "decel distribution": (edit("", "[montecarlo]\ndecel_dist = gamma\n"), "montecarlo.decel_dist"),
    "lag": (edit("n_followers = 2", "n_followers = 2\ntau_s = 0"), "platoon.tau_s"),
    "length": (edit("n_followers = 2", "n_followers = 2\nvehicle_length_m = 0"), "platoon.vehicle_length_m"),
    "decel limit": (edit("n_followers = 2", "n_followers = 2\ndecel_limit_mps2 = -1"),
                    "platoon.decel_limit_mps2"),
    "accel limit": (edit("n_followers = 2", "n_followers = 2\naccel_limit_mps2 = 0"),
                    "platoon.accel_limit_mps2"),
    "feed-forward gain": (edit("ka = 0.4", "ka = -1"), "controller.ka"),
    "oversize string": (edit("n_followers = 2", "n_followers = 100000000000000000000"), "platoon.n_followers"),
    "oversize study": (
        edit("", "[montecarlo]\nrealizations = 100000000000000000000000\n"), "montecarlo.realizations"),
    "link that never changes state": (
        edit("model = ideal", "model = gilbert\np_gb = 0\np_bg = 0\nq = 0.2"), "channel.p_gb, channel.p_bg"),
    "link that never changes state, acc": (
        edit("model = ideal", "model = gilbert\np_gb = 0\np_bg = 0\nq = 0.2").replace("mode = cacc", "mode = acc"),
        "channel.p_gb, channel.p_bg"),
    "no section header": ("n_followers = 2\n" + MINIMAL, "scenario file: File contains no section headers."),
    "duplicate key": (edit("kv = 1.0", "kv = 1.0\nkv = 1.0"), "scenario file: "),
    "segment word": (edit("segments = 0 0; 5 -3 10", "segments = 0 x"), "leader.segments: malformed segment"),
    "late first segment": (
        edit("segments = 0 0; 5 -3 10", "segments = 5 0; 0 1"),
        "leader.segments: first leader segment must start at t = 0"),
    "unknown section": (edit("", "[extra]\nkey = 1\n"), "extra: unknown section"),
    "iid probability": (edit("model = ideal", "model = iid\ngamma = 1.5"), "channel.gamma"),
    "zero step": (edit("dt_s = 0.01", "dt_s = 0"), "sim.dt_s"),
    "unindexable step": (edit("dt_s = 0.01", "dt_s = 1e-300"), "sim.dt_s"),
    # a duration off the step grid, which a rounded step count would shorten
    "duration of two and a half steps": (
        edit("dt_s = 0.01\nduration_s = 12", "dt_s = 0.1\nduration_s = 0.25"), "sim.duration_s: 0.25 s is not"),
    "duration half a step off": (edit("duration_s = 12", "duration_s = 12.345"), "sim.duration_s"),
    "duration a third of a step off": (edit("dt_s = 0.01", "dt_s = 0.03").replace("duration_s = 12", "duration_s = 10"),
                                       "sim.duration_s"),
    "negative gap": (edit("n_followers = 2", "n_followers = 2\nstandstill_gap_m = -1"), "platoon.standstill_gap_m"),
    "zero point decel": (
        edit("", "[montecarlo]\ndecel_dist = point\ndecel_value_mps2 = 0\n"), "montecarlo.decel_value_mps2"),
    "zero decel spread": (
        edit("", "[montecarlo]\ndecel_dist = truncnorm\ndecel_std_mps2 = 0\n"), "montecarlo.decel_std_mps2"),
    "decel window 50 sd below its mean": (
        edit("", "[montecarlo]\ndecel_dist = truncnorm\ndecel_mean_mps2 = 60\n"),
        "montecarlo.decel_low_mps2, montecarlo.decel_high_mps2: the window lies"),
    # a key that the chosen model, mode or distribution does not read
    "segments of a leader at its limit": (edit("mode = segments", "mode = brake_at_limit"), "leader.segments"),
    "gamma of an ideal channel": (edit("model = ideal", "model = ideal\ngamma = 0.4"), "channel.gamma"),
    "gamma of a gilbert channel": (
        edit("model = ideal", "model = gilbert\np_gb = 0.3\np_bg = 0.1\nq = 0.2\ngamma = 0.4"), "channel.gamma"),
    "p_gb of an iid channel": (edit("model = ideal", "model = iid\ngamma = 0.6\np_gb = 0.3"), "channel.p_gb"),
    "spread without a decel distribution": (
        edit("", "[montecarlo]\ndecel_std_mps2 = 1\n"), "montecarlo.decel_std_mps2"),
    "mean of a point decel": (
        edit("", "[montecarlo]\ndecel_dist = point\ndecel_value_mps2 = 8\ndecel_mean_mps2 = 7\n"),
        "montecarlo.decel_mean_mps2"),
    # two faults at once: the first in _KEYS order is named, and an unread key only after a clean build
    "missing gain before a malformed step": (
        edit("ka = 0.4\n", "").replace("dt_s = 0.01", "dt_s = fast"), "controller.ka: required key missing"),
    "zero lag beside gamma of an ideal channel": (
        edit("model = ideal", "model = ideal\ngamma = 0.4").replace("n_followers = 2", "n_followers = 2\ntau_s = 0"),
        "platoon.tau_s: "),
    "gilbert channel without p_bg beside a fractional string": (
        edit("model = ideal", "model = gilbert\np_gb = 0.3\nq = 0.2").replace("n_followers = 2", "n_followers = 2.5"),
        "channel.p_bg: required key missing"),
}

# Values for the parser fuzz: numbers, counts past any array, non-finite
# spellings, interpolation syntax, the words the enum keys take, and junk.
FUZZ_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 10).map(str),
    st.integers(2**62, 10**30).map(str),
    st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "1e999"]),
    st.sampled_from(["%(kv)s", "%(mode)s", "0.4%", "%", "%%", "1%%"]),
    st.sampled_from(["acc", "cacc", "iid", "deterministic", "gilbert", "brake_at_limit",
                     "point", "uniform", "truncnorm", "none", "0 0; 5 -3 10", "0 1 nan"]),
    st.text(st.characters(exclude_categories=("Cs", "Cc", "Zl", "Zp")), max_size=12),
)
KEYS = [tuple(key.split(".")) for key in sorted(_KEYS)]


def minimal_table() -> dict[str, dict[str, str]]:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(MINIMAL)
    return {name: dict(cp[name]) for name in cp.sections()}


@st.composite
def scenario_texts(draw) -> str:
    """MINIMAL with a few keys set to fuzzed values and a few removed."""
    table = minimal_table()
    for section, key in draw(st.lists(st.sampled_from(KEYS), max_size=4)):
        table.setdefault(section, {})[key] = draw(FUZZ_VALUES)
    for section, key in draw(st.lists(st.sampled_from(KEYS), max_size=2)):
        table.get(section, {}).pop(key, None)
    return "\n".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()) for name, values in table.items()
    )


def round_trip(sc):
    return scenario_from_dict(json.loads(json.dumps(dataclasses.asdict(sc))))


class TestParsing:
    def test_fig2_values(self):
        sc = load_scenario(SCENARIOS / "fig2.scn")
        assert sc.n_followers == 5
        assert sc.controller.h_w == 0.75
        assert sc.controller.k_a == 0.4
        assert sc.params.tau == 0.5
        assert sc.channel.kind == "gilbert"
        assert sc.channel.gilbert.p_gb == 0.3
        assert sc.channel.effective_gamma() == pytest.approx(0.4)
        assert sc.leader.segments[1].u == -9.0
        assert sc.leader.segments[1].target_velocity == 16.0

    def test_safety_values(self):
        sc = load_scenario(SCENARIOS / "safety.scn")
        assert sc.leader.brakes_at_limit
        assert sc.decel_dist.kind == "truncnorm"
        assert sc.controller.k_p == 2.0
        assert sc.realizations == 10000
        assert sc.initial_speed == 30.0

    def test_minimal_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.standstill_gap == 5.0
        assert sc.dt == 0.01
        assert sc.realizations == 1
        assert sc.decel_dist is None

    def test_missing_key_names_path(self):
        broken = MINIMAL.replace("hw_s = 1.0", "")
        with pytest.raises(ConfigError, match="controller.hw_s"):
            parse_scenario(broken)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="platoon.speling"):
            parse_scenario(MINIMAL.replace("n_followers = 2", "n_followers = 2\nspeling = 1"))

    def test_bad_number_names_path(self):
        with pytest.raises(ConfigError, match="controller.kv"):
            parse_scenario(MINIMAL.replace("kv = 1.0", "kv = fast"))

    def test_bad_segment_rejected(self):
        with pytest.raises(ConfigError, match="leader.segments"):
            parse_scenario(MINIMAL.replace("segments = 0 0; 5 -3 10", "segments = 0"))

    def test_spaced_segment_separator_keeps_every_segment(self):
        # ' ;' must not start an inline comment that swallows the maneuver
        sc = parse_scenario(MINIMAL.replace("segments = 0 0; 5 -3 10", "segments = 0 0 ; 10 -9 16"))
        assert sc.leader.segments == (LeaderSegment(0.0, 0.0), LeaderSegment(10.0, -9.0, 16.0))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key, line", [
        ("platoon.initial_speed_mps", "initial_speed_mps = 20"),
        ("platoon.standstill_gap_m", None),
        ("controller.hw_s", "hw_s = 1.0"),
        ("sim.duration_s", "duration_s = 12"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, key, line, value):
        name = key.split(".")[1]
        if line is None:  # not in MINIMAL: add it to its section
            text = MINIMAL.replace("n_followers = 2", f"n_followers = 2\n{name} = {value}")
        else:
            text = MINIMAL.replace(line, f"{name} = {value}")
        with pytest.raises(ConfigError, match=key):
            parse_scenario(text)
        scn = tmp_path / "bad.scn"
        scn.write_text(text)
        assert main(["simulate", str(scn), "--out", str(tmp_path / "run")]) == EXIT_CONFIG

    def test_non_finite_segment_rejected(self):
        with pytest.raises(ConfigError, match="leader.segments"):
            parse_scenario(MINIMAL.replace("segments = 0 0; 5 -3 10", "segments = 0 0; 5 -3 nan"))

    @pytest.mark.parametrize("text", VALID_VARIANTS.values(), ids=VALID_VARIANTS.keys())
    def test_valid_variant_parses_round_trips_and_reruns(self, tmp_path, text):
        sc = parse_scenario(text)
        assert round_trip(sc) == sc
        scn = tmp_path / "variant.scn"
        scn.write_text(text)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["stability", str(scn), "--out", str(out1)]) == EXIT_OK
        assert main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)]) == EXIT_OK
        files = sorted(p.name for p in out1.iterdir())
        assert sorted(p.name for p in out2.iterdir()) == files
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("text, key", INVALID_VARIANTS.values(), ids=INVALID_VARIANTS.keys())
    def test_invalid_variant_names_its_key(self, tmp_path, capsys, text, key):
        with pytest.raises(ConfigError, match=key):
            parse_scenario(text)
        scn = tmp_path / "variant.scn"
        scn.write_text(text)
        assert main(["stability", str(scn), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}") and err.count("\n") == 1
        assert not (tmp_path / "run" / "manifest.json").exists()

    @settings(max_examples=300, deadline=None)
    @given(scenario_texts())
    def test_any_text_parses_or_names_a_config_error(self, text):
        try:
            sc = parse_scenario(text)
        except ConfigError:
            return
        assert round_trip(sc) == sc

    @pytest.mark.parametrize("change, named", [
        (lambda d: d.pop("channel"), "malformed .*'channel'"),
        (lambda d: d["params"].update(mass=1.0), "malformed .*mass"),
    ])
    def test_malformed_scenario_dict_is_config_error(self, change, named):
        data = dataclasses.asdict(parse_scenario(MINIMAL))
        change(data)
        with pytest.raises(ConfigError, match=named):
            scenario_from_dict(data)

    def test_file_is_read_as_utf8(self, tmp_path, capsys):
        scn = tmp_path / "units.scn"
        scn.write_bytes(edit("kv = 1.0", "kv = 1.0   # m/s² per m/s").encode("utf-8"))
        assert load_scenario(scn) == parse_scenario(MINIMAL)
        bad = tmp_path / "bad.scn"
        bad.write_bytes(b"[platoon]\n# \xff\n" + MINIMAL.encode())
        with pytest.raises(ConfigError, match=r"bad.scn: not UTF-8 \(byte 0xff at offset 12\)"):
            load_scenario(bad)
        assert main(["stability", str(bad), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: scenario file ")
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario("nope.scn")

    def test_dict_round_trip(self):
        for name in ("fig2.scn", "fig3.scn", "safety.scn"):
            sc = load_scenario(SCENARIOS / name)
            again = scenario_from_dict(json.loads(json.dumps(dataclasses.asdict(sc))))
            assert again == sc

    def test_config_hash_stable_and_sensitive(self):
        d = dataclasses.asdict(parse_scenario(MINIMAL))
        assert config_hash(d) == config_hash(json.loads(json.dumps(d)))
        d2 = dict(d, dt=0.02)
        assert config_hash(d2) != config_hash(d)


def old_segment_lists(manifest):
    """Write the manifest's leader segments as the older format did: [start, u] or [start, u, target]."""
    leader = manifest["config"]["scenario"]["leader"]
    leader["segments"] = [[s["start_time"], s["u"]] + ([s["target_velocity"]] if s["target_velocity"] else [])
                          for s in leader["segments"]]


def file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


TEST_PID = os.getpid()


def exit_in_worker(*args, **kwargs):
    """Stands in for montecarlo._batch_sums: the worker dies as an OOM-killed one would."""
    if os.getpid() == TEST_PID:
        raise AssertionError("the batch ran in the test process, not in a worker")
    os._exit(1)


def short_safety(tmp_path, duration_s: int) -> Path:
    scn = tmp_path / "safety.scn"
    scn.write_text((SCENARIOS / "safety.scn").read_text().replace("duration_s = 25", f"duration_s = {duration_s}"))
    return scn


class TestCli:
    def write_minimal(self, tmp_path) -> Path:
        p = tmp_path / "mini.scn"
        p.write_text(MINIMAL)
        return p

    def test_simulate_outputs(self, tmp_path):
        scn = self.write_minimal(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", str(scn), "--out", str(out)]) == EXIT_OK
        lines = (out / "spacing_errors.csv").read_text().splitlines()
        assert lines[0] == "time_s,e1_m,e2_m"
        assert len(lines) == 1202
        summary = (out / "summary.txt").read_text()
        assert "peak_abs_e1_m=" in summary
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config_sha256"] == config_hash(manifest["config"])

    def test_simulate_zero_maneuver_zero_csv(self, tmp_path):
        scn = tmp_path / "zero.scn"
        # speed 25 keeps the cruise increment 25*0.01 an exact binary float,
        # so the emitted zeros are exact rather than ~1e-15 roundoff
        text = MINIMAL.replace("segments = 0 0; 5 -3 10", "segments = 0 0")
        text = text.replace("initial_speed_mps = 20", "initial_speed_mps = 25")
        scn.write_text(text)
        out = tmp_path / "run"
        assert main(["simulate", str(scn), "--out", str(out)]) == EXIT_OK
        rows = (out / "spacing_errors.csv").read_text().splitlines()[1:]
        for row in rows[:50]:
            assert row.split(",")[1:] == ["0.0", "0.0"]

    def test_simulate_does_not_mutate_input(self, tmp_path):
        scn = self.write_minimal(tmp_path)
        before = file_hash(scn)
        main(["simulate", str(scn), "--out", str(tmp_path / "r")])
        assert file_hash(scn) == before

    def test_headway_reference_values(self, tmp_path, capsys):
        assert main(["headway", "--tau", "0.5", "--ka", "0.4",
                     "--gilbert", "0.3", "0.1", "0.2", "--json", "--out", str(tmp_path / "hw1")]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert float(rec["gamma"]) == pytest.approx(0.4)
        assert float(rec["h_min_s"]) == pytest.approx(0.862069, abs=1e-6)

        assert main(["headway", "--tau", "0.5", "--ka", "0.4", "--gamma", "1.0",
                     "--json", "--out", str(tmp_path / "hw2")]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert float(rec["h_min_s"]) == pytest.approx(0.714286, abs=1e-6)

        assert main(["headway", "--tau", "0.5", "--ka", "0.4", "--gamma", "0.0",
                     "--json", "--out", str(tmp_path / "hw3")]) == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert float(rec["h_min_s"]) == 1.0

    @pytest.mark.parametrize("argv, name", [
        (["bound", str(SCENARIOS / "fig3.scn"), "--alpha-star", "nan"], "alpha_star"),
        (["bound", str(SCENARIOS / "fig3.scn"), "--alpha-star", "inf"], "alpha_star"),
        (["bound", str(SCENARIOS / "fig3.scn"), "--alpha-star", "-1"], "alpha_star"),
        (["headway", "--tau", "0.5", "--ka", "nan", "--gamma", "0.5"], "k_a"),
        (["headway", "--tau", "0.5", "--ka", "inf", "--gamma", "0.5"], "k_a"),
        (["headway", "--tau", "0.5", "--ka", "-0.4", "--gamma", "0.5"], "k_a"),
        (["headway", "--tau", "0.5", "--ka", "0.4", "--gamma", "1.5"], "gamma"),
        (["headway", "--tau", "-1", "--ka", "0.4", "--gamma", "0.5"], "tau"),
        (["headway", "--tau", "0.5", "--ka", "0.4", "--gilbert", "1.5", "0.1", "0.2"], "p_gb"),
        (["simulate", str(SCENARIOS / "fig2.scn"), "--realization", "-1"], "realization_index"),
        # too large for the engine's index dtype
        (["simulate", str(SCENARIOS / "fig2.scn"), "--realization", "100000000000000000000000"],
         "realization_index"),
        # a flag override names its parameter, not the scenario key it replaces
        (["montecarlo", str(SCENARIOS / "safety.scn"), "--realizations", "100000000000000000000000"],
         "config error: realizations must be in [1, "),
        (["montecarlo", str(SCENARIOS / "safety.scn"), "--realizations", "0"],
         "config error: realizations must be in [1, "),
        # validate-mean names its own range, not the scenario's
        (["validate-mean", str(SCENARIOS / "fig3.scn"), "--realizations", "100000000000000000000000"],
         "config error: realizations must be in [2, "),
        (["validate-mean", str(SCENARIOS / "fig3.scn"), "--realizations", "0"],
         "config error: realizations must be in [2, "),
        # one sample has no spread: its envelope is zero and would test nothing
        (["validate-mean", str(SCENARIOS / "fig3.scn"), "--realizations", "1"],
         "config error: realizations must be in [2, "),
        (["headway", "--tau", "0.5", "--ka", "0.4"], "--gamma or --gilbert"),
        (["headway", "--tau", "0.5", "--ka", "0.4", "--gamma", "0.5", "--gilbert", "0.3", "0.1", "0.2"],
         "--gamma or --gilbert"),
    ])
    def test_bad_flag_value_is_config_error(self, tmp_path, capsys, argv, name):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
        assert not (tmp_path / "manifest.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "bound"])
    def test_oversize_string_is_config_error(self, tmp_path, capsys, command):
        scn = tmp_path / "huge.scn"
        scn.write_text((SCENARIOS / "fig3.scn").read_text().replace(
            "n_followers = 5", "n_followers = 100000000000000000000"))
        assert main([command, str(scn), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: platoon.n_followers: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "bound", "montecarlo"])
    @pytest.mark.parametrize("n_followers", [2**63 - 2, 2**55])
    def test_string_past_any_array_is_config_error(self, tmp_path, capsys, command, n_followers):
        # 2**55 followers are one describable row, but their (steps, followers) arrays are not
        scn = tmp_path / "huge.scn"
        scn.write_text((SCENARIOS / "fig3.scn").read_text().replace(
            "n_followers = 5", f"n_followers = {n_followers}"))
        assert main([command, str(scn), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: platoon.n_followers: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, scenario, prefix", [
        ("montecarlo", "safety.scn", "realizations must be in [1, "),
        ("validate-mean", "fig3.scn", "realizations must be in [2, "),
    ])
    @pytest.mark.parametrize("realizations", [2**63 - 1, 2**62])
    def test_realizations_past_an_index_array_are_config_error(self, tmp_path, capsys, command, scenario, prefix,
                                                              realizations):
        # at 2**63 - 1 np.arange would be empty and no batch would run; at 2**62 it would raise.
        # The count is refused before the command makes its output directory.
        out = tmp_path / "out"
        argv = [command, str(SCENARIOS / scenario), "--realizations", str(realizations), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {prefix}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("realizations", ["0", "1", "100000000000000000000000"])
    def test_validate_mean_count_is_refused_before_its_directory(self, tmp_path, capsys, realizations):
        out = tmp_path / "out"
        argv = ["validate-mean", str(SCENARIOS / "fig3.scn"), "--realizations", realizations, "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: realizations must be in [2, ")
        assert not out.exists()

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_headway_degenerate_chain_exit_code(self, tmp_path):
        code = main(["headway", "--tau", "0.5", "--ka", "0.4",
                     "--gilbert", "0", "0", "0.5", "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL

    def test_headway_infinite_result_is_numerical_error(self, tmp_path, capsys):
        # 2 * tau overflows: h_min would read inf
        code = main(["headway", "--tau", "1e308", "--ka", "0.4", "--gamma", "0.5", "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical error: headway.txt: h_min_s is not finite (nan or inf)\n"
        assert not (tmp_path / "headway.txt").exists() and not (tmp_path / "manifest.json").exists()

    def test_stability_fig_configs(self, tmp_path, capsys):
        out2 = tmp_path / "s2"
        assert main(["stability", str(SCENARIOS / "fig2.scn"), "--out", str(out2)]) == EXIT_OK
        rec = dict(kv.split("=") for kv in (out2 / "stability.txt").read_text().split())
        assert rec["stable"] == "0"
        assert float(rec["h_min_s"]) == pytest.approx(0.862069, abs=1e-6)
        out3 = tmp_path / "s3"
        assert main(["stability", str(SCENARIOS / "fig3.scn"), "--out", str(out3)]) == EXIT_OK
        rec3 = dict(kv.split("=") for kv in (out3 / "stability.txt").read_text().split())
        assert rec3["stable"] == "1"
        freq = (out2 / "freq_response.csv").read_text().splitlines()
        assert freq[0] == "omega_radps,magnitude"
        assert float(freq[1].split(",")[1]) == pytest.approx(1.0)  # DC row

    def test_bound_command(self, tmp_path):
        # gamma=1 lossless channel keeps the fig2 gains string stable at h=0.75
        scn = tmp_path / "stable.scn"
        scn.write_text(
            (SCENARIOS / "fig2.scn").read_text().replace("model = gilbert\np_gb = 0.3\np_bg = 0.1\nq = 0.2",
                                                         "model = ideal")
        )
        out = tmp_path / "bound"
        assert main(["bound", str(scn), "--alpha-star", "0.5", "--out", str(out)]) == EXIT_OK
        rec = dict(kv.split("=") for kv in (out / "bound.txt").read_text().split())
        # the proven bound only, its keys in their documented order
        assert list(rec) == ["command", "alpha_star", "simulated_max_error_m", "bound_sqrt_trace_m",
                             "j_star_sqrt_trace", "beta2", "gamma2", "eta", "w0_l2"]
        assert float(rec["bound_sqrt_trace_m"]) > 0
        assert float(rec["simulated_max_error_m"]) <= float(rec["bound_sqrt_trace_m"])

    def test_montecarlo_command(self, tmp_path):
        scn = tmp_path / "mc.scn"
        scn.write_text(
            (SCENARIOS / "safety.scn").read_text().replace("realizations = 10000", "realizations = 50")
        )
        out = tmp_path / "mc"
        assert main(["montecarlo", str(scn), "--mode", "cacc", "--out", str(out)]) == EXIT_OK
        rec = dict(kv.split("=") for kv in (out / "safety_stats.txt").read_text().split())
        assert rec["mode"] == "cacc"
        assert 0.0 <= float(rec["p_collision"]) <= 1.0
        var_rows = (out / "variance_series.csv").read_text().splitlines()
        assert var_rows[0].startswith("time_s,var_e1_m2")

    def test_validate_mean_command(self, tmp_path):
        scn = tmp_path / "vm.scn"
        scn.write_text(
            (SCENARIOS / "fig3.scn").read_text().replace("duration_s = 40", "duration_s = 14")
        )
        out = tmp_path / "vm"
        assert main(["validate-mean", str(scn), "--realizations", "150",
                     "--out", str(out)]) == EXIT_OK
        rec = dict(kv.split("=") for kv in (out / "mean_validation.txt").read_text().split())
        assert rec["within_envelope"] == "1"

    def test_rerun_reproduces_bytes(self, tmp_path):
        scn = str(self.write_minimal(tmp_path))
        short = {  # the shipped studies cut to a few seconds
            name: tmp_path / f"{name}.scn" for name in ("safety", "fig3")
        }
        for name, path in short.items():
            text = (SCENARIOS / f"{name}.scn").read_text()
            path.write_text(text.replace("duration_s = 25", "duration_s = 6")
                                .replace("duration_s = 40", "duration_s = 12"))
        runs = [
            ["headway", "--tau", "0.5", "--ka", "0.4", "--gilbert", "0.3", "0.1", "0.2"],
            ["headway", "--tau", "0.5", "--ka", "0.4", "--gamma", "0.6", "--json"],
            ["simulate", scn, "--states", "--realization", "2", "--seed", "5"],
            ["simulate", scn],
            ["stability", scn],
            ["bound", scn, "--alpha-star", "0.5"],
            ["montecarlo", str(short["safety"]), "--mode", "acc", "--realizations", "30"],
            ["montecarlo", str(short["safety"]), "--realizations", "30"],
            ["validate-mean", str(short["fig3"]), "--realizations", "20"],
        ]
        # Every parsed destination is a parameter of the command and recorded,
        # except these; --seed, --mode and --realizations land in the
        # scenario's base_seed, controller.mode and realizations.
        unrecorded = {"command", "seed", "mode", "realizations", "out"}
        for n, argv in enumerate(runs):
            out1, out2 = tmp_path / f"run{n}" / "a", tmp_path / f"run{n}" / "b"
            assert main(argv + ["--out", str(out1)]) == EXIT_OK
            assert main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)]) == EXIT_OK
            files = sorted(p.name for p in out1.iterdir())
            manifest = json.loads((out1 / "manifest.json").read_text())
            command = argv[0]
            assert manifest["command"] == command
            assert set(manifest["config"]) == set(vars(build_parser().parse_args(argv))) - unrecorded
            assert set(manifest) == {"command", "config", "config_sha256", "outputs", "version"}
            assert files == sorted(manifest["outputs"] + ["manifest.json"])
            assert sorted(p.name for p in out2.iterdir()) == files
            for name in files:
                assert file_hash(out1 / name) == file_hash(out2 / name), (argv, name)

    @pytest.mark.parametrize("argv", [
        ["montecarlo", "safety", "--mode", "acc", "--realizations", "30"],
        ["validate-mean", "fig3", "--realizations", "30"],
    ], ids=["montecarlo", "validate-mean"])
    def test_manifest_scenario_is_the_run(self, tmp_path, argv):
        """The flags land in the recorded scenario; the config holds nothing beside it."""
        scn = tmp_path / f"{argv[1]}.scn"
        scn.write_text((SCENARIOS / scn.name).read_text().replace("duration_s = 25", "duration_s = 2")
                                                        .replace("duration_s = 40", "duration_s = 2"))
        out = tmp_path / "out"
        assert main([argv[0], str(scn)] + argv[2:] + ["--out", str(out)]) == EXIT_OK
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert set(config) == {"scenario"}
        assert config["scenario"]["realizations"] == 30
        assert config["scenario"]["controller"]["mode"] == ("acc" if argv[0] == "montecarlo" else "cacc")

    def test_rerun_rejects_missing_manifest_and_unknown_command(self, tmp_path, capsys):
        assert main(["rerun", str(tmp_path / "none" / "manifest.json")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: manifest not found: ")
        out1 = tmp_path / "a"
        assert main(["stability", str(SCENARIOS / "fig2.scn"), "--out", str(out1)]) == EXIT_OK
        manifest = json.loads((out1 / "manifest.json").read_text())
        manifest["command"] = "teleport"  # the hash covers the config, not the command
        (out1 / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(out1 / "manifest.json"), "--out", str(tmp_path / "b")]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: manifest: unknown command 'teleport'\n"

    def test_rerun_rejects_tampered_manifest(self, tmp_path):
        scn = self.write_minimal(tmp_path)
        out1 = tmp_path / "a"
        main(["simulate", str(scn), "--out", str(out1)])
        manifest = json.loads((out1 / "manifest.json").read_text())
        manifest["config"]["scenario"]["dt"] = 0.02
        (out1 / "manifest.json").write_text(json.dumps(manifest))
        assert main(["rerun", str(out1 / "manifest.json"), "--out", str(tmp_path / "b")]) == EXIT_CONFIG

    def test_rerun_names_missing_config_key(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        assert main(["headway", "--tau", "0.5", "--ka", "0.4", "--gamma", "0.6", "--out", str(out1)]) == EXIT_OK
        manifest = json.loads((out1 / "manifest.json").read_text())
        del manifest["config"]["ka"]
        manifest["config_sha256"] = config_hash(manifest["config"])
        (out1 / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(out1 / "manifest.json"), "--out", str(tmp_path / "b")]) == EXIT_CONFIG
        assert "'ka'" in capsys.readouterr().err

    def test_rerun_names_rejected_config_value(self, tmp_path, capsys):
        scn = self.write_minimal(tmp_path)
        out1 = tmp_path / "a"
        assert main(["simulate", str(scn), "--out", str(out1)]) == EXIT_OK
        manifest = json.loads((out1 / "manifest.json").read_text())
        manifest["config"]["scenario"]["params"]["tau"] = float("nan")
        manifest["config_sha256"] = config_hash(manifest["config"])
        (out1 / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(out1 / "manifest.json"), "--out", str(tmp_path / "b")]) == EXIT_CONFIG
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, named", [
        # a path, not a resolved table
        ("scenario", str(SCENARIOS / "fig2.scn"), "manifest.config.scenario: malformed (expected a table, got str)"),
        (None, ["scenario"], "config must be a table"),
    ])
    def test_rerun_names_malformed_config(self, tmp_path, capsys, key, value, named):
        out1 = tmp_path / "a"
        assert main(["stability", str(SCENARIOS / "fig2.scn"), "--out", str(out1)]) == EXIT_OK
        manifest = json.loads((out1 / "manifest.json").read_text())
        if key is None:
            manifest["config"] = value
        else:
            manifest["config"][key] = value
        manifest["config_sha256"] = config_hash(manifest["config"])
        (out1 / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(out1 / "manifest.json"), "--out", str(tmp_path / "b")]) == EXIT_CONFIG
        assert named in capsys.readouterr().err

    def test_rerun_names_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        assert main(["rerun", str(path), "--out", str(tmp_path / "b")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: manifest: malformed (") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", str(SCENARIOS / "fig3.scn"), "--states"],
        ["montecarlo", str(SCENARIOS / "safety.scn"), "--mode", "acc", "--realizations", "4"],
    ], ids=["fig3", "safety"])
    def test_rerun_rejects_every_edit_of_the_manifest_tables(self, tmp_path, capsys, argv):
        """Each key removed or added at any depth, a malformed segment list and a string flag:
        exit 2 with one line naming the key, and no manifest written."""
        out1 = tmp_path / "a"
        assert main(argv + ["--out", str(out1)]) == EXIT_OK
        original = json.loads((out1 / "manifest.json").read_text())

        def tables(node, path=()):
            if isinstance(node, dict):
                yield path, node
            for key, value in node.items() if isinstance(node, dict) else enumerate(node):
                if isinstance(value, (dict, list)):
                    yield from tables(value, path + (key,))

        def edited(path, change):
            manifest = json.loads(json.dumps(original))
            table = manifest
            for key in path:
                table = table[key]
            change(table)
            if "config" in manifest and "config_sha256" in manifest:
                manifest["config_sha256"] = config_hash(manifest["config"])
            return manifest

        edits = []
        for path, table in tables(original):
            edits += [(edited(path, lambda t, k=key: t.pop(k)), key) for key in table]
            edits.append((edited(path, lambda t: t.update(stray=1)), "stray"))
        leader = ("config", "scenario", "leader")
        edits += [
            (edited(leader, lambda t: t.update(segments="junk")), "segments"),
            (edited(leader, lambda t: t.update(segments=[[0.0]])), "segments"),
            (edited(leader, lambda t: t.update(brakes_at_limit="false")), "brakes_at_limit"),
        ]
        assert len(edits) > 40
        for n, (manifest, key) in enumerate(edits):
            path, out = tmp_path / f"m{n}.json", tmp_path / f"out{n}"
            path.write_text(json.dumps(manifest))
            capsys.readouterr()
            assert main(["rerun", str(path), "--out", str(out)]) == EXIT_CONFIG, key
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, err
            assert f"'{key}'" in err or f".{key}" in err or f"{key} must be" in err, (key, err)
            assert not (out / "manifest.json").exists()

    def rerun_edited(self, tmp_path, capsys, argv, change):
        """Run argv, edit its manifest with change and re-hash it, then rerun it: (exit code, stderr, out)."""
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(out1)]) == EXIT_OK
        manifest = json.loads((out1 / "manifest.json").read_text())
        change(manifest)
        manifest["config_sha256"] = config_hash(manifest["config"])
        (out1 / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        code = main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)])
        return code, capsys.readouterr().err, out2

    @pytest.mark.parametrize("argv, change, where, key", [
        (["simulate", "MINIMAL", "--states"], lambda c: c.update(states="false"), "manifest.config", "states"),
        (["simulate", "MINIMAL"], lambda c: c.update(realization="0"), "manifest.config", "realization"),
        (["bound", "MINIMAL", "--alpha-star", "0.5"], lambda c: c.update(alpha_star="0.5"), "manifest.config",
         "alpha_star"),
        (["headway", "--tau", "0.5", "--ka", "0.4", "--gilbert", "0.3", "0.1", "0.2"],
         lambda c: c.update(gilbert=[0.3, 0.1]), "manifest.config", "gilbert"),
        (["montecarlo", "SHORT_SAFETY", "--realizations", "4"], lambda c: c["scenario"].update(realizations=4.0),
         "manifest.config.scenario", "realizations"),
        (["montecarlo", "SHORT_SAFETY", "--realizations", "4"], lambda c: c["scenario"].pop("decel_dist"),
         "manifest.config.scenario", "decel_dist"),
        # values of the right type that the config dataclasses refuse
        (["simulate", "MINIMAL"], lambda c: c["scenario"].update(dt=0.0), "manifest.config.scenario", "dt"),
        (["simulate", "MINIMAL"], lambda c: c["scenario"].update(dt=float("nan")), "manifest.config.scenario", "dt"),
        (["simulate", "MINIMAL"], lambda c: c["scenario"].update(n_followers=0), "manifest.config.scenario",
         "n_followers"),
        (["simulate", "MINIMAL"],
         lambda c: c["scenario"].update(channel={"kind": "iid", "gamma": 2.0, "gilbert": None}),
         "manifest.config.scenario.channel", "gamma"),
        (["montecarlo", "SHORT_SAFETY", "--realizations", "4"],
         lambda c: c["scenario"]["decel_dist"].update(kind="point", value=0.0), "manifest.config.scenario.decel_dist",
         "value"),
        (["simulate", "MINIMAL"], lambda c: c["scenario"]["leader"]["segments"][1].update(u=float("nan")),
         "manifest.config.scenario.leader.segments[1]", "u"),
    ], ids=["string flag", "string index", "string number", "short list", "float count", "removed table",
            "zero step", "nan step", "no followers", "iid gamma past 1", "zero point decel", "nan segment command"])
    def test_rerun_rejects_a_tampered_config_value(self, tmp_path, capsys, argv, change, where, key):
        """A wrongly typed or refused value, or a removed optional table: exit 2 naming the key, no manifest."""
        paths = {"MINIMAL": str(self.write_minimal(tmp_path)), "SHORT_SAFETY": str(short_safety(tmp_path, 2))}
        argv = [paths.get(a, a) for a in argv]
        code, err, out = self.rerun_edited(tmp_path, capsys, argv, lambda m: change(m["config"]))
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {where}: ") and err.count("\n") == 1, err
        assert f"{key} must " in err or f"'{key}'" in err, err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("argv, change, named", [
        (["stability"], lambda m: m.update(base_seed=0), "manifest: malformed (unknown key 'base_seed')"),
        (["stability"], lambda m: m["config"]["scenario"]["channel"].pop("gamma"),
         "manifest.config.scenario.channel: malformed (missing key 'gamma')"),
        (["stability"], old_segment_lists,
         "manifest.config.scenario.leader.segments[0]: malformed (expected a table, got list)"),
        (["montecarlo", "--mode", "acc", "--realizations", "4"],
         lambda m: m["config"].update(mode="acc", realizations=4), "manifest.config: malformed (unknown key 'mode')"),
        (["validate-mean", "--realizations", "4"], lambda m: m["config"].update(realizations=4),
         "manifest.config: malformed (unknown key 'realizations')"),
    ], ids=["envelope seed", "no gamma", "segment lists", "montecarlo flags", "validate-mean flags"])
    def test_rerun_rejects_the_old_manifest_format_by_name(self, tmp_path, capsys, argv, change, named):
        """A manifest in an older format: one that left out every None, wrote segments as lists,
        or recorded --mode and --realizations beside the scenario.  Exit 2 naming the key."""
        argv = [argv[0], str(self.write_minimal(tmp_path))] + argv[1:]
        code, err, out = self.rerun_edited(tmp_path, capsys, argv, change)
        assert code == EXIT_CONFIG
        assert err == f"config error: {named}\n"
        assert not (out / "manifest.json").exists()

    def test_dead_worker_and_memory_error_exit_resources(self, tmp_path, monkeypatch, capsys):
        scn = short_safety(tmp_path, 2)
        monkeypatch.setattr(montecarlo, "BATCH_SIZE", 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(montecarlo, "_batch_sums", exit_in_worker)
        capsys.readouterr()
        assert main(["montecarlo", str(scn), "--realizations", "40", "--out", str(tmp_path / "a")]) == EXIT_RESOURCES
        err = capsys.readouterr().err
        # the pool words it by whether the death was seen during or after a batch
        assert err.startswith("resource error: ") and "process pool" in err and err.count("\n") == 1

        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "run_realization", out_of_memory)
        assert main(["simulate", str(scn), "--out", str(tmp_path / "b")]) == EXIT_RESOURCES
        assert capsys.readouterr().err == "resource error: out of memory\n"

    @pytest.mark.parametrize("error", [OverflowError("math range error"), ZeroDivisionError(), FloatingPointError("overflow")])
    def test_arithmetic_error_exits_numerical(self, tmp_path, monkeypatch, capsys, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "run_realization", fail)
        scn = short_safety(tmp_path, 2)
        capsys.readouterr()
        assert main(["simulate", str(scn), "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical error: {str(error) or type(error).__name__}\n"

    def test_forked_workers_warn_nothing(self, tmp_path):
        scn = short_safety(tmp_path, 2)
        src = Path(platoonkit.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "platoonkit.cli", "montecarlo", str(scn),
             "--realizations", "2049", "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def run_fresh(self, script: str, *args: str) -> subprocess.CompletedProcess:
        """Run script in a fresh interpreter that imports platoonkit from this checkout."""
        src = Path(platoonkit.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
                              timeout=300)

    def test_commands_run_with_scipy_unimportable(self, tmp_path):
        """Every command runs where scipy cannot be imported, forked Monte Carlo workers included."""
        script = """if True:
            import functools, os, sys
            from pathlib import Path

            class NoScipy:
                def find_spec(self, name, path=None, target=None):
                    if name == "scipy" or name.startswith("scipy."):
                        raise ImportError(f"{name} is blocked")
                    return None

            sys.meta_path.insert(0, NoScipy())
            from platoonkit import cli, montecarlo

            real = montecarlo._batch_sums

            @functools.wraps(real)
            def batch_sums(*args, **kwargs):
                assert os.getpid() != parent, "the batch ran in the parent, not in a worker"
                return real(*args, **kwargs)

            parent = os.getpid()
            montecarlo._batch_sums = batch_sums
            montecarlo.BATCH_SIZE = 4
            os.sched_getaffinity = lambda pid: {0, 1}
            safety, fig3, out = sys.argv[1], sys.argv[2], Path(sys.argv[3])
            for argv in (["headway", "--tau", "0.5", "--ka", "0.4", "--gamma", "0.5"],
                         ["stability", safety],
                         ["simulate", safety],
                         ["bound", safety],
                         ["montecarlo", safety, "--realizations", "8"],
                         ["validate-mean", fig3, "--realizations", "8"]):
                assert cli.main(argv + ["--out", str(out / argv[0])]) == 0, argv
            print("ok")
        """
        proc = self.run_fresh(script, str(SCENARIOS / "safety.scn"), str(SCENARIOS / "fig3.scn"), str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "ok"

    def test_module_entry_point_warns_nothing(self):
        src = Path(platoonkit.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "platoonkit.cli", "--version"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def run_edited_fig3(self, tmp_path, command, old, new, *extra):
        """Run command on fig3.scn with one line edited, in a fresh interpreter: (exit code, stderr)."""
        text = (SCENARIOS / "fig3.scn").read_text()
        assert old in text
        scn = tmp_path / "edited.scn"
        scn.write_text(text.replace(old, new).replace("duration_s = 40", "duration_s = 12"))
        src = Path(platoonkit.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "platoonkit.cli", command, str(scn), *extra, "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stderr

    @pytest.mark.parametrize("command, extra, named", [
        ("simulate", [], "spacing_errors.csv: e1_m"),
        ("bound", [], "bound.txt: simulated_max_error_m"),
        ("validate-mean", ["--realizations", "3"], "mean_validation.txt: max_deviation"),
    ])
    def test_non_finite_result_is_numerical_error(self, tmp_path, command, extra, named):
        # the string overflows at once; its outputs would read nan
        code, err = self.run_edited_fig3(tmp_path, command, "initial_speed_mps = 25",
                                         "initial_speed_mps = 1e308", *extra)
        assert code == EXIT_NUMERICAL
        assert err.startswith(f"numerical error: {named} is not finite") and err.count("\n") == 1
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("argv, runner, field, output", [
        (["stability", str(SCENARIOS / "fig2.scn")], "is_string_stable", "hinf", "stability.txt"),
        (["montecarlo", "SHORT_SAFETY", "--realizations", "20"], "run_safety_study", "p_collision",
         "safety_stats.txt"),
    ])
    def test_non_finite_summary_field_is_numerical_error(self, tmp_path, monkeypatch, capsys,
                                                        argv, runner, field, output):
        real = getattr(cli, runner)
        monkeypatch.setattr(cli, runner, lambda *a, **k: dataclasses.replace(real(*a, **k), **{field: np.nan}))
        argv = [str(short_safety(tmp_path, 2)) if a == "SHORT_SAFETY" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical error: {output}: {field} is not finite (nan or inf)\n"
        assert not (tmp_path / "out" / output).exists()
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_writers_format_and_name_what_they_write(self, tmp_path):
        fields = {"command": "x", "count": 3, "f": np.float64(0.1), "tiny": 5e-324, "big": 1e300}
        assert cli.write_summary(tmp_path / "s.txt", fields) == "s.txt"
        assert (tmp_path / "s.txt").read_text() == "command=x count=3 f=0.1 tiny=5e-324 big=1e+300\n"
        columns = {"t": np.array([0.0, 0.1 * 3]), "n": np.array([1, 2])}
        assert cli.write_csv(tmp_path / "c.csv", columns) == "c.csv"
        assert (tmp_path / "c.csv").read_text() == "t,n\n0.0,1.0\n0.30000000000000004,2.0\n"
        with pytest.raises(NumericalError, match="c.csv: n is not finite"):
            cli.write_csv(tmp_path / "c.csv", {"t": columns["t"], "n": np.array([1.0, np.inf])})

    @pytest.mark.parametrize("command", ["stability", "bound"])
    def test_failed_solve_is_numerical_error(self, tmp_path, command):
        code, err = self.run_edited_fig3(tmp_path, command, "tau_s = 0.5", "tau_s = 1e-310")
        assert code == EXIT_NUMERICAL
        assert err.startswith("numerical error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "bound"])
    def test_unindexable_step_count_is_config_error(self, tmp_path, command):
        code, err = self.run_edited_fig3(tmp_path, command, "dt_s = 0.01", "dt_s = 1e-300")
        assert code == EXIT_CONFIG
        assert err.startswith("config error: sim.dt_s: ") and err.count("\n") == 1

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        scn = self.write_minimal(tmp_path)
        monkeypatch.setenv("PLATOONKIT_OUTDIR", str(tmp_path / "envruns"))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", str(scn)]) == EXIT_OK
        out = tmp_path / "envruns" / "simulate"
        assert (out / "spacing_errors.csv").is_file()
        assert (out / "manifest.json").is_file()

    def test_exit_codes(self, tmp_path):
        assert main(["simulate", "missing.scn", "--out", str(tmp_path)]) == EXIT_CONFIG
        broken = tmp_path / "broken.scn"
        broken.write_text(MINIMAL.replace("kv = 1.0", "kv = -1"))
        assert main(["simulate", str(broken), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        scn = self.write_minimal(tmp_path)
        into_file = tmp_path / "afile"
        into_file.write_text("occupied")
        code = main(["simulate", str(scn), "--out", str(into_file / "sub")])
        assert code == EXIT_IO
