"""Output checks of the benchmark's workloads.

The `check_*` functions are pure: they take parsed outputs and the
independent computations of `oracles`, and return one message per failed
check, so the self-tests can feed them corrupted outputs. `verify` reads a
finished round's outputs and runs every check of its workload.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
from platoonkit.montecarlo import run_realizations
from platoonkit.scenario import load_scenario

import oracles
from inputs import Plan

SIM_RTOL = 1e-9        # engine vs scalar oracle, same arithmetic up to rounding order
HINF_RTOL = 1e-6       # golden-refined sup vs a 200k-point grid
LIMIT_RTOL = 1e-10     # engine's ndtri mapping vs scipy.stats.truncnorm.ppf
MAX_NORMALIZED = 2.0   # 6 sigma: chance exceeds it far less than once in 1e4 runs


def parse_summary(path: Path) -> dict[str, str]:
    """A one-line `key=value key=value` summary file."""
    return dict(field.split("=", 1) for field in path.read_text().split())


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_montecarlo(stats: dict[str, dict[str, str]], variance: dict[str, np.ndarray],
                     requested: int, n_rows: int) -> list[str]:
    """stats and variance keyed by mode ('acc', 'cacc')."""
    bad = []
    for mode, s in stats.items():
        if s.get("mode") != mode:
            bad.append(f"montecarlo {mode}: reports mode {s.get('mode')!r}")
        if int(s["realizations"]) != requested:
            bad.append(f"montecarlo {mode}: {s['realizations']} realizations, {requested} requested")
        var = variance[mode]
        if var.shape[0] != n_rows:
            bad.append(f"montecarlo {mode}: variance series has {var.shape[0]} rows, expected {n_rows}")
        if not np.all(np.isfinite(var)) or np.any(var < 0.0):
            bad.append(f"montecarlo {mode}: variance series not finite and >= 0")
    acc, cacc = stats["acc"], stats["cacc"]
    if not float(cacc["p_collision"]) < float(acc["p_collision"]):
        bad.append(f"p_collision cacc {cacc['p_collision']} not below acc {acc['p_collision']}")
    ev_acc, ev_cacc = acc["mean_events_per_unstable"], cacc["mean_events_per_unstable"]
    if ev_acc == "none" or (ev_cacc != "none" and not float(ev_cacc) < float(ev_acc)):
        bad.append(f"mean events per collided run: cacc {ev_cacc} not below acc {ev_acc}")
    return bad


def check_decel_limits(engine: np.ndarray, derived: np.ndarray, label: str) -> list[str]:
    if engine.shape == derived.shape and np.allclose(engine, derived, rtol=LIMIT_RTOL, atol=0.0):
        return []
    return [f"{label}: engine decel limits {engine} differ from the Philox/truncnorm draw {derived}"]


def check_first_collision(engine_events, oracle_events, dt: float, label: str) -> list[str]:
    """First collision (step and pair) of the engine against the scalar oracle."""
    def first(events):
        if not events:
            return None
        t, lead, follower = events[0]
        return int(round(t / dt)), int(lead), int(follower)

    e, o = first(engine_events), first(oracle_events)
    if e == o:
        return []
    return [f"{label}: first collision (step, lead, follower) engine {e} vs oracle {o}"]


def check_mean_validation(summary: dict[str, str], requested: int, n_vehicles: int) -> list[str]:
    bad = []
    if int(summary["realizations"]) != requested:
        bad.append(f"validate-mean: {summary['realizations']} realizations, {requested} requested")
    if float(summary["veh0_max_dev"]) != 0.0:
        bad.append(f"validate-mean: leader deviation {summary['veh0_max_dev']} is not exactly 0")
    max_norm = float(summary["max_normalized"])
    if not max_norm <= MAX_NORMALIZED:
        bad.append(f"validate-mean: max_normalized {max_norm} > {MAX_NORMALIZED} (6 sigma)")
    devs = [float(summary[f"veh{i}_max_dev"]) for i in range(n_vehicles)]
    if not all(map(math.isfinite, devs)) or float(summary["max_deviation"]) != max(devs):
        bad.append("validate-mean: max_deviation is not the largest per-vehicle deviation")
    return bad


def check_stability(summary: dict[str, str], freq: np.ndarray, spec: oracles.Spec,
                    label: str) -> list[str]:
    bad = []
    dense = oracles.dense_hinf(spec)
    if not _close(float(summary["gamma"]), spec.gamma, 1e-12):
        bad.append(f"{label}: gamma {summary['gamma']} vs closed form {spec.gamma}")
    if not _close(float(summary["h_min_s"]), oracles.h_min(spec), 1e-12):
        bad.append(f"{label}: h_min {summary['h_min_s']} vs closed form {oracles.h_min(spec)}")
    hinf = float(summary["hinf"])
    if not _close(hinf, dense, HINF_RTOL):
        bad.append(f"{label}: hinf {hinf} vs dense-grid |H| max {dense}")
    stable = dense <= 1.0 + oracles.STABILITY_TOL
    if int(summary["stable"]) != int(stable):
        bad.append(f"{label}: stable={summary['stable']} but the dense-grid peak is {dense}")
    mags = oracles.error_tf_mag(spec, freq[:, 0])
    if not np.allclose(freq[:, 1], mags, rtol=1e-12, atol=0.0):
        bad.append(f"{label}: freq_response.csv differs from the closed-form |H(jw)|")
    return bad


def check_bound(summary: dict[str, str], run: oracles.StringRun, label: str) -> list[str]:
    """simulated_max_error_m against the oracle; the sqrt-trace bound dominates it.

    The L2 -> Linf argument holds for the linear string only, so dominance is
    required when the oracle run saw no saturation, stop or collision.
    """
    bad = []
    sim = float(summary["simulated_max_error_m"])
    oracle_max = float(np.abs(run.errors).max())
    if not _close(sim, oracle_max, SIM_RTOL):
        bad.append(f"{label}: simulated_max_error_m {sim} vs oracle {oracle_max}")
    bound = float(summary["bound_sqrt_trace_m"])
    if run.linear and not bound >= oracle_max:
        bad.append(f"{label}: bound_sqrt_trace_m {bound} below the simulated maximum {oracle_max}")
    return bad


def _bound_oracle(scn: Path) -> oracles.StringRun:
    """The deterministic-equivalent run `bound` makes: realization 0, gamma in place of receptions."""
    spec = oracles.read_spec(scn)
    return oracles.simulate_string(spec, oracles.decel_limits(spec, 0))


def engine_samples(scn: Path, mode: str, indices: list[int]):
    """Per-realization engine results for the sampled indices, via the public API."""
    sc = load_scenario(scn)
    sc = dataclasses.replace(sc, controller=dataclasses.replace(sc.controller, mode=mode))
    return run_realizations(sc, indices)


def verify(plan: Plan) -> list[str]:
    bad: list[str] = []
    for cmd in plan.commands:
        if cmd.kind == "bound":
            summary = parse_summary(cmd.out / "bound.txt")
            bad += check_bound(summary, _bound_oracle(cmd.scenario), f"bound {cmd.scenario.name}")
        elif cmd.kind == "stability":
            spec = oracles.read_spec(cmd.scenario)
            freq = np.loadtxt(cmd.out / "freq_response.csv", delimiter=",", skiprows=1)
            bad += check_stability(parse_summary(cmd.out / "stability.txt"), freq, spec,
                                   f"stability {cmd.scenario.name}")
        elif cmd.kind == "validate-mean":
            spec = oracles.read_spec(cmd.scenario)
            bad += check_mean_validation(parse_summary(cmd.out / "mean_validation.txt"),
                                         int(cmd.option("--realizations")), spec.n_followers + 1)

    mc = [c for c in plan.commands if c.kind == "montecarlo"]
    if mc:
        spec = oracles.read_spec(mc[0].scenario)
        stats, variance = {}, {}
        for cmd in mc:
            mode = cmd.option("--mode")
            stats[mode] = parse_summary(cmd.out / "safety_stats.txt")
            variance[mode] = np.loadtxt(cmd.out / "variance_series.csv", delimiter=",", skiprows=1)[:, 1:]
        bad += check_montecarlo(stats, variance, int(mc[0].option("--realizations")), spec.n_steps + 1)
        for mode, indices in plan.samples.items():
            for res in engine_samples(mc[0].scenario, mode, indices):
                label = f"{mode} realization {res.index}"
                limits = oracles.decel_limits(spec, res.index)
                bad += check_decel_limits(res.decel_limits, limits, label)
                run = oracles.simulate_string(spec, limits, mode=mode)
                bad += check_first_collision(res.collision_events, run.events, spec.dt, label)
    return bad
