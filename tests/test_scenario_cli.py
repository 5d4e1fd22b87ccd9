import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import platoonkit
from platoonkit import cli, montecarlo
from platoonkit.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_RESOURCES, build_parser, main
from platoonkit.dynamics import LeaderSegment
from platoonkit.errors import ConfigError
from platoonkit.scenario import (
    config_hash,
    load_scenario,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

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
        assert sc.leader_brakes_at_limit
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

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario("nope.scn")

    def test_dict_round_trip(self):
        for name in ("fig2.scn", "fig3.scn", "safety.scn"):
            sc = load_scenario(SCENARIOS / name)
            again = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(sc))))
            assert again == sc

    def test_config_hash_stable_and_sensitive(self):
        d = scenario_to_dict(parse_scenario(MINIMAL))
        assert config_hash(d) == config_hash(json.loads(json.dumps(d)))
        d2 = dict(d, dt=0.02)
        assert config_hash(d2) != config_hash(d)


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
    ])
    def test_bad_flag_value_is_config_error(self, tmp_path, capsys, argv, name):
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
        assert not (tmp_path / "manifest.json").exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err

    def test_headway_degenerate_chain_exit_code(self, tmp_path):
        code = main(["headway", "--tau", "0.5", "--ka", "0.4",
                     "--gilbert", "0", "0", "0.5", "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL

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
            (SCENARIOS / "fig2.scn").read_text().replace("model = gilbert", "model = ideal")
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
        # Every parsed destination is recorded except these; --seed lands in
        # the scenario's base_seed.
        unrecorded = {"command", "seed", "out", "json"}
        for n, argv in enumerate(runs):
            out1, out2 = tmp_path / f"run{n}" / "a", tmp_path / f"run{n}" / "b"
            assert main(argv + ["--out", str(out1)]) == EXIT_OK
            assert main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)]) == EXIT_OK
            files = sorted(p.name for p in out1.iterdir())
            manifest = json.loads((out1 / "manifest.json").read_text())
            command = argv[0]
            assert manifest["command"] == command
            assert set(manifest["config"]) == set(vars(build_parser().parse_args(argv))) - unrecorded
            if command != "headway":
                assert manifest["base_seed"] == manifest["config"]["scenario"]["base_seed"]
            assert files == sorted(manifest["outputs"] + ["manifest.json"])
            assert sorted(p.name for p in out2.iterdir()) == files
            for name in files:
                assert file_hash(out1 / name) == file_hash(out2 / name), (argv, name)

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
        ("scenario", str(SCENARIOS / "fig2.scn"), "'scenario'"),  # a path, not a resolved table
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

    def test_module_entry_point_warns_nothing(self):
        src = Path(platoonkit.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "platoonkit.cli", "--version"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

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
