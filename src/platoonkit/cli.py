"""Command-line front end: scenario parsing, experiment orchestration, emission.

Every command runs through `_run`, which writes a run manifest (command,
config, seed, version, config hash, outputs) next to its outputs.  The config
is the parsed arguments minus `command`, `seed`, `out` and `json`, with the
scenario path replaced by the resolved scenario dict (so `--seed` lands in its
`base_seed`); `rerun` passes that config back through `_run` and reproduces
the outputs byte for byte.  CSVs are shaped for direct plotting and carry no
volatile fields.  Exit codes: 0 success, 2 configuration error or bad flag
value, 3 numerical error, 4 I/O error, 5 out of memory or a worker process
died.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .channel import GilbertParams, gamma_analytic
from .control import min_headway
from .errors import ConfigError, InvalidInputError, NumericalError, PlatoonKitError
from .montecarlo import (
    deterministic_equivalent,
    run_realization,
    run_safety_study,
    validate_mean_trajectory,
)
from .scenario import RunManifest, load_scenario, scenario_from_dict, scenario_to_dict
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


def _fmt(x) -> str:
    """Full-precision, locale-free float formatting (round-trip repr)."""
    return repr(float(x))


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r in range(rows):
            fh.write(",".join(_fmt(col[r]) for col in columns) + "\n")


def write_summary(path: Path, fields: dict) -> None:
    """Single-line structured record: space-separated key=value pairs."""
    line = " ".join(f"{k}={v}" for k, v in fields.items())
    path.write_text(line + "\n")


def write_manifest(
    out: Path, command: str, config: dict, base_seed: int | None, outputs: list[str]
) -> Path:
    return RunManifest(command, config, base_seed, outputs=outputs).write(out)


def cmd_simulate(args: argparse.Namespace, out: Path) -> list[str]:
    sc = args.scenario
    result = run_realization(sc, args.realization)

    outputs = ["spacing_errors.csv", "summary.txt"]
    header = ["time_s"] + [f"e{i + 1}_m" for i in range(sc.n_followers)]
    cols = [result.times] + [result.spacing_errors[:, i] for i in range(sc.n_followers)]
    write_csv(out / "spacing_errors.csv", header, cols)

    if args.states:
        outputs.append("states.csv")
        sheader = ["time_s"]
        scols = [result.times]
        for i in range(sc.n_vehicles):
            sheader += [f"x{i}_m", f"v{i}_mps", f"a{i}_mps2"]
            scols += [result.states[:, i, 0], result.states[:, i, 1], result.states[:, i, 2]]
        write_csv(out / "states.csv", sheader, scols)

    peaks = np.abs(result.spacing_errors).max(axis=0)
    summary = {
        "command": "simulate",
        "realization": result.index,
        "collided": int(result.collided),
        "n_collision_events": len(result.collision_events),
    }
    for i, p in enumerate(peaks):
        summary[f"peak_abs_e{i + 1}_m"] = _fmt(p)
    write_summary(out / "summary.txt", summary)
    print(f"simulate: wrote {', '.join(outputs)} to {out}")
    return outputs


def cmd_headway(args: argparse.Namespace, out: Path) -> list[str]:
    if (args.gamma is None) == (args.gilbert is None):
        raise ConfigError("headway: give exactly one of --gamma or --gilbert P Q q")
    if args.gilbert is not None:
        p, q_, qq = args.gilbert
        gamma = gamma_analytic(GilbertParams(p_gb=p, p_bg=q_, q=qq))
    else:
        gamma = args.gamma
    h_min = min_headway(args.tau, gamma, args.ka)
    record = {
        "command": "headway",
        "tau_s": _fmt(args.tau),
        "ka": _fmt(args.ka),
        "gamma": _fmt(gamma),
        "h_min_s": _fmt(h_min),
    }
    if args.json:
        print(json.dumps(record))
    else:
        print(f"gamma = {gamma:.6g}")
        print(f"h_min = {h_min:.6g} s")
    write_summary(out / "headway.txt", record)
    return ["headway.txt"]


def cmd_stability(args: argparse.Namespace, out: Path) -> list[str]:
    sc = args.scenario
    gamma = sc.channel.effective_gamma()
    report = is_string_stable(sc.controller, sc.params.tau, gamma)
    tf = cacc_error_tf(sc.controller, sc.params.tau, gamma)
    mags = freq_response_mag(tf, OMEGA_GRID)
    write_csv(out / "freq_response.csv", ["omega_radps", "magnitude"], [OMEGA_GRID, mags])
    summary = {
        "command": "stability",
        "stable": int(report.stable),
        "hinf": _fmt(report.hinf),
        "omega_peak_radps": _fmt(report.omega_peak),
        "margin": _fmt(report.margin),
        "h_min_s": _fmt(report.h_min),
        "gamma": _fmt(gamma),
    }
    write_summary(out / "stability.txt", summary)
    print(f"stable={report.stable} hinf={report.hinf:.6f} "
          f"peak_omega={report.omega_peak:.4f} h_min={report.h_min:.4f}")
    return ["freq_response.csv", "stability.txt"]


def cmd_bound(args: argparse.Namespace, out: Path) -> list[str]:
    sc = args.scenario
    gamma = sc.channel.effective_gamma()
    sys_ = build_error_system(sc.controller, sc.params.tau, gamma)

    result = run_realization(deterministic_equivalent(sc), 0)
    w0 = result.states[:, 0, 2]  # realized lead-vehicle acceleration
    sim_max = float(np.abs(result.spacing_errors).max())

    rep = uniform_error_bound(sys_, args.alpha_star, w0, sc.dt)
    summary = {
        "command": "bound",
        "alpha_star": _fmt(args.alpha_star),
        "simulated_max_error_m": _fmt(sim_max),
        "bound_sqrt_trace_m": _fmt(rep.bound),
        "j_star_sqrt_trace": _fmt(rep.j_star),
        "beta2": _fmt(rep.beta2),
        "gamma2": _fmt(rep.gamma2),
        "eta": _fmt(rep.eta),
        "w0_l2": _fmt(rep.w0_l2),
    }
    write_summary(out / "bound.txt", summary)
    print(f"bound(sqrt_trace)={rep.bound:.4f} m  simulated max |e|={sim_max:.4f} m")
    return ["bound.txt"]


def cmd_montecarlo(args: argparse.Namespace, out: Path) -> list[str]:
    sc = args.scenario
    stats = run_safety_study(sc, mode=args.mode, realizations=args.realizations)
    header = ["time_s"] + [f"var_e{i + 1}_m2" for i in range(sc.n_followers)]
    cols = [stats.times] + [stats.variance_series[:, i] for i in range(sc.n_followers)]
    write_csv(out / "variance_series.csv", header, cols)
    summary = {
        "command": "montecarlo",
        "mode": args.mode or sc.controller.mode,
        "realizations": stats.n_realizations,
        "n_collided": stats.n_collided,
        "p_collision": _fmt(stats.p_collision),
        "mean_events_per_unstable": (
            _fmt(stats.mean_events_per_unstable)
            if stats.mean_events_per_unstable is not None else "none"
        ),
        "base_seed": sc.base_seed,
    }
    write_summary(out / "safety_stats.txt", summary)
    print(f"mode={summary['mode']} p_collision={stats.p_collision:.4f} "
          f"mean_events={summary['mean_events_per_unstable']}")
    return ["variance_series.csv", "safety_stats.txt"]


def cmd_validate_mean(args: argparse.Namespace, out: Path) -> list[str]:
    sc = args.scenario
    report = validate_mean_trajectory(sc, args.realizations)
    summary = {
        "command": "validate-mean",
        "realizations": report.n_realizations,
        "max_deviation": _fmt(report.max_deviation),
        "within_envelope": int(report.within_envelope),
        "max_normalized": _fmt(report.max_normalized),
    }
    for i in range(sc.n_vehicles):
        summary[f"veh{i}_max_dev"] = _fmt(report.per_vehicle_max_deviation[i])
        summary[f"veh{i}_envelope"] = _fmt(report.per_vehicle_envelope_at_max[i])
    write_summary(out / "mean_validation.txt", summary)
    print(f"max deviation={report.max_deviation:.3e} within 3-sigma envelope={report.within_envelope}")
    return ["mean_validation.txt"]


COMMANDS = {
    "simulate": cmd_simulate,
    "headway": cmd_headway,
    "stability": cmd_stability,
    "bound": cmd_bound,
    "montecarlo": cmd_montecarlo,
    "validate-mean": cmd_validate_mean,
}

# Parsed arguments that select or present a run but are not part of its
# config: --seed is recorded as the scenario's base_seed instead.
UNRECORDED = ("command", "seed", "out", "json")


def _run(command: str, args: argparse.Namespace) -> int:
    """Run one command: resolve its scenario and output directory, call it, record its manifest.

    The manifest config is the parsed arguments minus UNRECORDED, with the
    scenario replaced by its resolved dict; rerun hands the same config back.
    """
    config = {k: v for k, v in vars(args).items() if k not in UNRECORDED}
    base_seed = None
    if "scenario" in config:
        if isinstance(args.scenario, dict):  # a manifest's resolved scenario, under rerun
            sc = scenario_from_dict(args.scenario)
        else:
            sc = load_scenario(args.scenario)
            if args.seed is not None:
                sc = dataclasses.replace(sc, base_seed=args.seed)
        args.scenario = sc
        config["scenario"] = scenario_to_dict(sc)
        base_seed = sc.base_seed
    out = Path(args.out) if args.out is not None else Path(os.environ.get(OUTDIR_ENV, "runs")) / command
    out.mkdir(parents=True, exist_ok=True)
    outputs = COMMANDS[command](args, out)
    write_manifest(out, command, config, base_seed, outputs)
    return EXIT_OK


def cmd_rerun(args: argparse.Namespace) -> int:
    path = Path(args.manifest)
    if not path.is_file():
        raise ConfigError(f"manifest not found: {path}")
    manifest = RunManifest.load(path)
    if manifest.command not in COMMANDS:
        raise ConfigError(f"manifest: unknown command {manifest.command!r}")
    if not isinstance(manifest.config.get("scenario", {}), dict):
        raise ConfigError("manifest: config key 'scenario' must be a resolved scenario table")
    out = args.out if args.out is not None else str(path.parent)
    return _run(manifest.command, _ManifestArgs(**{**manifest.config, "json": False, "out": out}))


class _ManifestArgs(argparse.Namespace):
    """A command's arguments read from a manifest config; a missing key is a ConfigError."""

    def __getattr__(self, name: str):
        raise ConfigError(f"manifest: config lacks key {name!r}")


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            return cmd_rerun(args)
        return _run(args.command, args)
    except (ConfigError, InvalidInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PlatoonKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (BrokenProcessPool, MemoryError) as exc:
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCES


if __name__ == "__main__":
    sys.exit(main())
