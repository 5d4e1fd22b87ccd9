"""Command-line front end: scenario parsing, experiment orchestration, emission.

Every command runs through `_run`, which writes a run manifest (command,
config, seed, version, config hash, outputs) next to its outputs.  The config
is the parsed arguments minus `command`, `seed`, `out` and `json`, with the
scenario path replaced by the resolved scenario dict (so `--seed` lands in its
`base_seed`); `rerun` passes that config back through `_run` and reproduces
the outputs byte for byte.  CSVs are shaped for direct plotting and carry no
volatile fields.  Commands hand raw values to `write_csv` and `write_summary`,
which write every float round-trip, refuse a non-finite one naming its file
and key, and return the file name for the manifest's outputs.  Exit codes:
0 success, 2 configuration error or bad flag value, 3 numerical error (a
failed solve or a non-finite result), 4 I/O error, 5 out of memory or a
worker process died.
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
from .errors import ConfigError, InvalidInputError, NumericalError
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


def write_manifest(
    out: Path, command: str, config: dict, base_seed: int | None, outputs: list[str]
) -> Path:
    return RunManifest(command, config, base_seed, outputs=outputs).write(out)


def cmd_simulate(args: argparse.Namespace, out: Path) -> list[str]:
    sc = args.scenario
    result = run_realization(sc, args.realization)

    errors = {f"e{i + 1}_m": result.spacing_errors[:, i] for i in range(sc.n_followers)}
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
    if args.states:
        states = {"time_s": result.times}
        for i in range(sc.n_vehicles):
            for j, name in enumerate((f"x{i}_m", f"v{i}_mps", f"a{i}_mps2")):
                states[name] = result.states[:, i, j]
        outputs.append(write_csv(out / "states.csv", states))
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
    values = {"tau_s": args.tau, "ka": args.ka, "gamma": gamma, "h_min_s": h_min}
    outputs = [write_summary(out / "headway.txt", {"command": "headway", **values})]
    if args.json:
        print(json.dumps({"command": "headway", **{k: _fmt(v) for k, v in values.items()}}))
    else:
        print(f"gamma = {gamma:.6g}")
        print(f"h_min = {h_min:.6g} s")
    return outputs


def cmd_stability(args: argparse.Namespace, out: Path) -> list[str]:
    sc = args.scenario
    gamma = sc.channel.effective_gamma()
    report = is_string_stable(sc.controller, sc.params.tau, gamma)
    tf = cacc_error_tf(sc.controller, sc.params.tau, gamma)
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


def cmd_bound(args: argparse.Namespace, out: Path) -> list[str]:
    sc = args.scenario
    gamma = sc.channel.effective_gamma()
    sys_ = build_error_system(sc.controller, sc.params.tau, gamma)

    result = run_realization(deterministic_equivalent(sc), 0)
    w0 = result.states[:, 0, 2]  # realized lead-vehicle acceleration
    sim_max = float(np.abs(result.spacing_errors).max())

    rep = uniform_error_bound(sys_, args.alpha_star, w0, sc.dt)
    outputs = [write_summary(out / "bound.txt", {
        "command": "bound",
        "alpha_star": args.alpha_star,
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


def cmd_montecarlo(args: argparse.Namespace, out: Path) -> list[str]:
    sc = args.scenario
    stats = run_safety_study(sc, mode=args.mode, realizations=args.realizations)
    variances = {f"var_e{i + 1}_m2": stats.variance_series[:, i] for i in range(sc.n_followers)}
    events = stats.mean_events_per_unstable
    mode = args.mode or sc.controller.mode
    outputs = [
        write_csv(out / "variance_series.csv", {"time_s": stats.times, **variances}),
        write_summary(out / "safety_stats.txt", {
            "command": "montecarlo",
            "mode": mode,
            "realizations": stats.n_realizations,
            "n_collided": stats.n_collided,
            "p_collision": stats.p_collision,
            "mean_events_per_unstable": "none" if events is None else events,
            "base_seed": sc.base_seed,
        }),
    ]
    print(f"mode={mode} p_collision={stats.p_collision:.4f} "
          f"mean_events={'none' if events is None else _fmt(events)}")
    return outputs


def cmd_validate_mean(args: argparse.Namespace, out: Path) -> list[str]:
    sc = args.scenario
    report = validate_mean_trajectory(sc, args.realizations)
    summary = {
        "command": "validate-mean",
        "realizations": report.n_realizations,
        "max_deviation": report.max_deviation,
        "within_envelope": int(report.within_envelope),
        "max_normalized": report.max_normalized,
    }
    for i in range(sc.n_vehicles):
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
    # an overflow shows in the finished outputs, which the writers check
    with np.errstate(over="ignore", invalid="ignore"):
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
    # the config holds every destination of the command's parser but UNRECORDED, and no other key
    parser = build_parser()._subparsers._group_actions[0].choices[manifest.command]
    recorded = {action.dest for action in parser._actions} - {"help", *UNRECORDED}
    for key in sorted(manifest.config.keys() ^ recorded):
        problem = "unknown" if key in manifest.config else "missing"
        raise ConfigError(f"manifest.config: malformed ({problem} key {key!r})")
    if not isinstance(manifest.config.get("scenario", {}), dict):
        raise ConfigError("manifest: config key 'scenario' must be a resolved scenario table")
    out = args.out if args.out is not None else str(path.parent)
    return _run(manifest.command, argparse.Namespace(**manifest.config, json=False, out=out))


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
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (BrokenProcessPool, MemoryError) as exc:
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCES


if __name__ == "__main__":
    sys.exit(main())
