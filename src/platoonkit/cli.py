"""Command-line front end: scenario parsing, experiment orchestration, emission.

Each command is a function of typed keyword arguments: its output directory
`out`, then the parsed flags, with the scenario loaded and `--seed`, `--mode`
and `--realizations` applied to its `base_seed`, `controller.mode` and
`realizations`, so the scenario alone describes the experiment.  Every command
runs through `_run`, which calls it and writes a run manifest (command,
config, version, config hash, outputs) next to its outputs.  The config is
every argument but `out`, the scenario as every field of its dataclasses and a
None as null.  `rerun` reads that config back against the command's signature
and type hints with the builder that reads the scenario, so a missing,
unknown, wrongly typed or refused value (a manifest of an older format among
them) is a config error, and passes it through `_run` to reproduce the outputs
byte for byte.  A rejected value is named in the terms of whoever wrote it: a
scenario file's `section.key`, a manifest's `manifest.config...` table and
key, a flag's parameter (`realizations`, `realization_index`, `alpha_star`).
CSVs are shaped for direct plotting and carry no volatile fields.  Commands
hand raw values to `write_csv` and `write_summary`, which write every float
round-trip, refuse a non-finite one naming its file and key, and return the
file name for the manifest's outputs.  Exit codes: 0 success, 2 configuration
error or bad flag value, 3 numerical error (a failed solve or a non-finite
result), 4 I/O error, 5 out of memory or a worker process died.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from json import dumps as to_json
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .channel import GilbertParams, gamma_analytic
from .control import min_headway
from .errors import ConfigError, InvalidInputError, NumericalError
from .montecarlo import (
    ScenarioConfig,
    deterministic_equivalent,
    run_realization,
    run_safety_study,
    validate_mean_trajectory,
)
from .scenario import RunManifest, load_scenario, read_arguments
from .stability import (
    OMEGA_GRID,
    build_error_system,
    cacc_error_tf,
    freq_response_mag,
    is_string_stable,
    uniform_error_bound,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_RESOURCES = 5

OUTDIR_ENV = "PLATOONKIT_OUTDIR"
# rows per tolist() block in write_csv: as fast as one list per column, in bounded memory
_CSV_BLOCK = 256


def _fmt(x) -> str:
    """Full-precision, locale-free float formatting (round-trip repr)."""
    return repr(float(x))


def require_finite_outputs(output: str, values: dict) -> None:
    """Raise NumericalError naming the first entry of values, bound for output, that holds a nan or an inf.

    The writers check every value here before they write: a run that
    overflowed reports the output it would have spoiled, and writes nothing.
    """
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise NumericalError(f"{output}: {name} is not finite (nan or inf)")


def write_csv(path: Path, columns: dict) -> str:
    """Header of the column names, then one row per index: every cell finite and round-trip."""
    require_finite_outputs(path.name, columns)
    arrays = [np.asarray(col, dtype=float) for col in columns.values()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(arrays[0]), _CSV_BLOCK):
            rows = zip(*(a[start:start + _CSV_BLOCK].tolist() for a in arrays))
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    return path.name


def write_summary(path: Path, fields: dict) -> str:
    """Single-line structured record: space-separated key=value pairs, every float finite and round-trip."""
    require_finite_outputs(path.name, {k: v for k, v in fields.items() if isinstance(v, float)})
    line = " ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}" for k, v in fields.items())
    path.write_text(line + "\n")
    return path.name


def write_manifest(out: Path, command: str, config: dict, outputs: list[str]) -> Path:
    return RunManifest(command, config, outputs=outputs).write(out)


def cmd_simulate(out: Path, scenario: ScenarioConfig, realization: int, states: bool) -> list[str]:
    result = run_realization(scenario, realization)

    errors = {f"e{i + 1}_m": result.spacing_errors[:, i] for i in range(scenario.n_followers)}
    peaks = np.abs(result.spacing_errors).max(axis=0)
    outputs = [
        write_csv(out / "spacing_errors.csv", {"time_s": result.times, **errors}),
        write_summary(out / "summary.txt", {
            "command": "simulate",
            "realization": result.index,
            "collided": int(result.collided),
            "n_collision_events": len(result.collision_events),
            **{f"peak_abs_e{i + 1}_m": p for i, p in enumerate(peaks)},
        }),
    ]
    if states:
        columns = {"time_s": result.times}
        for i in range(scenario.n_vehicles):
            for j, name in enumerate((f"x{i}_m", f"v{i}_mps", f"a{i}_mps2")):
                columns[name] = result.states[:, i, j]
        outputs.append(write_csv(out / "states.csv", columns))
    print(f"simulate: wrote {', '.join(outputs)} to {out}")
    return outputs


def cmd_headway(out: Path, tau: float, ka: float, gamma: float | None,
                gilbert: tuple[float, float, float] | None, json: bool) -> list[str]:
    if (gamma is None) == (gilbert is None):
        raise ConfigError("headway: give exactly one of --gamma or --gilbert P Q q")
    if gilbert is not None:
        p, q_, qq = gilbert
        gamma = gamma_analytic(GilbertParams(p_gb=p, p_bg=q_, q=qq))
    h_min = min_headway(tau, gamma, ka)
    values = {"tau_s": tau, "ka": ka, "gamma": gamma, "h_min_s": h_min}
    outputs = [write_summary(out / "headway.txt", {"command": "headway", **values})]
    if json:
        print(to_json({"command": "headway", **{k: _fmt(v) for k, v in values.items()}}))
    else:
        print(f"gamma = {gamma:.6g}")
        print(f"h_min = {h_min:.6g} s")
    return outputs


def cmd_stability(out: Path, scenario: ScenarioConfig) -> list[str]:
    gamma = scenario.channel.effective_gamma()
    report = is_string_stable(scenario.controller, scenario.params.tau, gamma)
    tf = cacc_error_tf(scenario.controller, scenario.params.tau, gamma)
    mags = freq_response_mag(tf, OMEGA_GRID)
    outputs = [
        write_csv(out / "freq_response.csv", {"omega_radps": OMEGA_GRID, "magnitude": mags}),
        write_summary(out / "stability.txt", {
            "command": "stability",
            "stable": int(report.stable),
            "hinf": report.hinf,
            "omega_peak_radps": report.omega_peak,
            "margin": report.margin,
            "h_min_s": report.h_min,
            "gamma": gamma,
        }),
    ]
    print(f"stable={report.stable} hinf={report.hinf:.6f} "
          f"peak_omega={report.omega_peak:.4f} h_min={report.h_min:.4f}")
    return outputs


def cmd_bound(out: Path, scenario: ScenarioConfig, alpha_star: float) -> list[str]:
    gamma = scenario.channel.effective_gamma()
    sys_ = build_error_system(scenario.controller, scenario.params.tau, gamma)

    result = run_realization(deterministic_equivalent(scenario), 0)
    w0 = result.states[:, 0, 2]  # realized lead-vehicle acceleration
    sim_max = float(np.abs(result.spacing_errors).max())

    rep = uniform_error_bound(sys_, alpha_star, w0, scenario.dt)
    outputs = [write_summary(out / "bound.txt", {
        "command": "bound",
        "alpha_star": alpha_star,
        "simulated_max_error_m": sim_max,
        "bound_sqrt_trace_m": rep.bound,
        "j_star_sqrt_trace": rep.j_star,
        "beta2": rep.beta2,
        "gamma2": rep.gamma2,
        "eta": rep.eta,
        "w0_l2": rep.w0_l2,
    })]
    print(f"bound(sqrt_trace)={rep.bound:.4f} m  simulated max |e|={sim_max:.4f} m")
    return outputs


def cmd_montecarlo(out: Path, scenario: ScenarioConfig) -> list[str]:
    stats = run_safety_study(scenario)
    variances = {f"var_e{i + 1}_m2": stats.variance_series[:, i] for i in range(scenario.n_followers)}
    events = stats.mean_events_per_unstable
    mode = scenario.controller.mode
    outputs = [
        write_csv(out / "variance_series.csv", {"time_s": stats.times, **variances}),
        write_summary(out / "safety_stats.txt", {
            "command": "montecarlo",
            "mode": mode,
            "realizations": stats.n_realizations,
            "n_collided": stats.n_collided,
            "p_collision": stats.p_collision,
            "mean_events_per_unstable": "none" if events is None else events,
            "base_seed": scenario.base_seed,
        }),
    ]
    print(f"mode={mode} p_collision={stats.p_collision:.4f} "
          f"mean_events={'none' if events is None else _fmt(events)}")
    return outputs


def cmd_validate_mean(out: Path, scenario: ScenarioConfig) -> list[str]:
    report = validate_mean_trajectory(scenario)
    summary = {
        "command": "validate-mean",
        "realizations": report.n_realizations,
        "max_deviation": report.max_deviation,
        "within_envelope": int(report.within_envelope),
        "max_normalized": report.max_normalized,
    }
    for i in range(scenario.n_vehicles):
        summary[f"veh{i}_max_dev"] = report.per_vehicle_max_deviation[i]
        summary[f"veh{i}_envelope"] = report.per_vehicle_envelope_at_max[i]
    outputs = [write_summary(out / "mean_validation.txt", summary)]
    print(f"max deviation={report.max_deviation:.3e} within 3-sigma envelope={report.within_envelope}")
    return outputs


COMMANDS = {
    "simulate": cmd_simulate,
    "headway": cmd_headway,
    "stability": cmd_stability,
    "bound": cmd_bound,
    "montecarlo": cmd_montecarlo,
    "validate-mean": cmd_validate_mean,
}


def _run(command: str, config: dict, out: str | None) -> int:
    """Call command with config and its output directory, then record config in its manifest."""
    out = Path(out) if out is not None else Path(os.environ.get(OUTDIR_ENV, "runs")) / command
    out.mkdir(parents=True, exist_ok=True)
    # an overflow shows in the finished outputs, which the writers check
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = COMMANDS[command](out, **config)
    recorded = {k: dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v for k, v in config.items()}
    write_manifest(out, command, recorded, outputs)
    return EXIT_OK


def cmd_rerun(path: Path, out: str | None) -> int:
    if not path.is_file():
        raise ConfigError(f"manifest not found: {path}")
    manifest = RunManifest.load(path)
    if manifest.command not in COMMANDS:
        raise ConfigError(f"manifest: unknown command {manifest.command!r}")
    config = read_arguments(COMMANDS[manifest.command], manifest.config, "manifest.config", skip=("out",))
    return _run(manifest.command, config, out if out is not None else str(path.parent))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="platoonkit",
        description="Connected vehicle string simulation and string-stability analysis",
    )
    parser.add_argument("--version", action="version", version=f"platoonkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, scenario: bool = True) -> None:
        if scenario:
            p.add_argument("scenario", help="scenario file (.scn)")
            p.add_argument("--seed", type=int, default=None, help="override the base seed")
        p.add_argument("--out", default=None, help=f"output directory (default ${OUTDIR_ENV}/<command>)")

    p = sub.add_parser("simulate", help="run one realization and emit spacing-error series")
    add_common(p)
    p.add_argument("--realization", type=int, default=0, help="realization index (default 0)")
    p.add_argument("--states", action="store_true", help="also write full state trajectories")

    p = sub.add_parser("headway", help="minimum string-stable time headway")
    p.add_argument("--tau", type=float, required=True, help="actuation lag (s)")
    p.add_argument("--ka", type=float, required=True, help="feed-forward gain")
    p.add_argument("--gamma", type=float, default=None, help="packet reception probability")
    p.add_argument("--gilbert", type=float, nargs=3, metavar=("P", "Q", "q"), default=None,
                   help="Gilbert parameters; gamma computed analytically")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    add_common(p, scenario=False)

    p = sub.add_parser("stability", help="string-stability report and frequency response")
    add_common(p)

    p = sub.add_parser(
        "bound", help="worst-case spacing-error bound vs simulation",
        description="Uniform bound on every vehicle's spacing error for the "
                    "deterministic-equivalent (mean) string, the run that "
                    "simulated_max_error_m comes from. A single lossy "
                    "realization can exceed it.",
    )
    add_common(p)
    p.add_argument("--alpha-star", type=float, default=0.0, help="initial-error budget")

    p = sub.add_parser("montecarlo", help="seeded safety study (collision statistics)")
    add_common(p)
    p.add_argument("--mode", choices=("acc", "cacc"), default=None,
                   help="override the controller mode")
    p.add_argument("--realizations", type=int, default=None, help="override realization count")

    p = sub.add_parser("validate-mean", help="stochastic mean vs deterministic equivalent")
    add_common(p)
    p.add_argument("--realizations", type=int, required=True)

    p = sub.add_parser("rerun", help="re-execute a run manifest")
    p.add_argument("manifest", help="manifest.json written by a previous run")
    p.add_argument("--out", default=None, help="output directory (default: manifest's directory)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    config = vars(build_parser().parse_args(argv))
    command, out = config.pop("command"), config.pop("out")
    try:
        if command == "rerun":
            return cmd_rerun(Path(config["manifest"]), out)
        seed, mode, realizations = (config.pop(flag, None) for flag in ("seed", "mode", "realizations"))
        if "scenario" in config:
            sc = load_scenario(config["scenario"])
            if mode is not None:
                sc = dataclasses.replace(sc, controller=dataclasses.replace(sc.controller, mode=mode))
            overrides = {"base_seed": seed, "realizations": realizations}
            config["scenario"] = dataclasses.replace(sc, **{k: v for k, v in overrides.items() if v is not None})
        return _run(command, config, out)
    except (ConfigError, InvalidInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (BrokenProcessPool, MemoryError) as exc:
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCES


if __name__ == "__main__":
    sys.exit(main())
