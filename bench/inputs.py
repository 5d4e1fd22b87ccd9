"""Seeded inputs of the benchmark's workloads.

Each workload writes its scenario files from the shipped `scenarios/*.scn`,
changing only what the seed chooses, and lists the CLI commands of one round.
The program sees only these generated files.
"""

from __future__ import annotations

import configparser
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles

WORKLOADS = ("safety_brake", "bursty_mean", "bound_sweep")

# Two full engine batches (montecarlo.BATCH_SIZE = 2048) per Monte Carlo
# command, so that a batch-parallel change has two batches to overlap.
MC_REALIZATIONS = 2 * 2048
SAMPLE_PER_MODE = 8          # realizations per mode checked against the scalar oracle

# bound_sweep grid: headway x channel. Gilbert(0.3, 0.1, 0.2) has gamma = 0.4.
# h_w = 0.75 (fig2) is string-unstable on every channel, and h_w = 0.9 with
# gamma = 0.2 is too; the other 15 points are string-stable and get a bound.
GRID_HEADWAYS = (0.75, 0.9, 1.0, 1.2, 1.5)
GRID_CHANNELS = (
    {"model": "gilbert", "p_gb": "0.3", "p_bg": "0.1", "q": "0.2"},
    {"model": "iid", "gamma": "0.6"},
    {"model": "deterministic", "gamma": "0.8"},
    {"model": "iid", "gamma": "0.2"},
)

# Per-layer metrics that read 0 on a workload, and why.
_NO_STABILITY = "the workload runs no `stability` command"
_NO_STOPS = "no vehicle stops, so no stop crossing is bisected"
ABSENT = {
    "safety_brake": {
        "montecarlo.reception_s": "the ideal channel draws no receptions",
        "montecarlo.reception_bytes": "the ideal channel draws no receptions",
        "stability.hinf_s": _NO_STABILITY,
        "stability.freq_response_s": _NO_STABILITY,
    },
    "bursty_mean": {
        "montecarlo.collision_events": "fig3 brakes to 16 m/s at a string-stable headway; no gap closes",
        "dynamics.stop_crossing_calls": _NO_STOPS,
        "dynamics.stop_crossing_s": _NO_STOPS,
        "stability.hinf_s": _NO_STABILITY,
        "stability.freq_response_s": _NO_STABILITY,
    },
    "bound_sweep": {
        "montecarlo.reception_s": "bound simulates the deterministic equivalent, which draws no receptions",
        "montecarlo.reception_bytes": "bound simulates the deterministic equivalent, which draws no receptions",
        "montecarlo.accumulate_s": "bound's run passes no on_step hook",
        "montecarlo.accumulate_calls": "bound's run passes no on_step hook",
        "montecarlo.collision_events": "the grid's maneuvers close no gap",
        "dynamics.stop_crossing_calls": _NO_STOPS,
        "dynamics.stop_crossing_s": _NO_STOPS,
    },
}


@dataclass(frozen=True)
class Command:
    kind: str                  # CLI command name
    scenario: Path
    out: Path
    extra: tuple[str, ...] = ()

    @property
    def argv(self) -> list[str]:
        return [self.kind, str(self.scenario), "--out", str(self.out), *self.extra]

    def option(self, flag: str) -> str:
        return self.extra[self.extra.index(flag) + 1]


@dataclass
class Plan:
    commands: list[Command]
    realizations: int                            # engine realizations per round
    bounds: int                                  # `bound` commands per round
    samples: dict[str, list[int]] = field(default_factory=dict)   # mode -> realization indices


def _read(path: Path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(path.read_text())
    return cp


def _write(cp: configparser.ConfigParser, path: Path) -> Path:
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def build(workload: str, seed: int, scenarios: Path, work: Path) -> Plan:
    """Write the workload's scenario files under `work` and list one round of commands."""
    rng = random.Random(seed)
    base_seed = rng.randrange(2**31)
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"

    if workload == "safety_brake":
        cp = _read(scenarios / "safety.scn")
        cp["montecarlo"]["base_seed"] = str(base_seed)
        scn = _write(cp, work / "safety.scn")
        n = str(MC_REALIZATIONS)
        commands = [Command("bound", scn, out / "bound")] + [
            Command("montecarlo", scn, out / f"montecarlo-{mode}", ("--mode", mode, "--realizations", n))
            for mode in ("acc", "cacc")
        ]
        samples = {mode: sorted(rng.sample(range(MC_REALIZATIONS), SAMPLE_PER_MODE))
                   for mode in ("acc", "cacc")}
        return Plan(commands, 2 * MC_REALIZATIONS + 1, 1, samples=samples)

    if workload == "bursty_mean":
        cp = _read(scenarios / "fig3.scn")
        cp["montecarlo"]["base_seed"] = str(base_seed)
        scn = _write(cp, work / "fig3.scn")
        commands = [
            Command("bound", scn, out / "bound"),
            Command("validate-mean", scn, out / "validate-mean", ("--realizations", str(MC_REALIZATIONS))),
        ]
        # validate-mean also runs the deterministic equivalent once.
        return Plan(commands, MC_REALIZATIONS + 2, 1)

    if workload == "bound_sweep":
        # The seed picks the leader's braking command and target speed (the
        # fig2/fig3 maneuver is -9 m/s^2 down to 16 m/s) and the grid order.
        u = round(rng.uniform(-9.5, -8.0), 2)
        target = round(rng.uniform(14.0, 18.0), 1)
        points = [(hw, ch) for hw in GRID_HEADWAYS for ch in GRID_CHANNELS]
        rng.shuffle(points)
        plan = Plan([], 0, 0)
        for j, (hw, ch) in enumerate(points):
            cp = _read(scenarios / "fig3.scn")
            cp["controller"]["hw_s"] = repr(hw)
            cp["channel"] = ch          # replaces the section's keys
            # No space before ';': the scenario reader treats " ;" as a comment.
            cp["leader"]["segments"] = f"0 0; 10 {u!r} {target!r}"
            cp["montecarlo"]["base_seed"] = str(base_seed)
            scn = _write(cp, work / f"point{j:02d}.scn")
            # A coarse grid decides: every unstable point peaks above 1.009.
            hinf = oracles.dense_hinf(oracles.read_spec(scn), points=2001)
            plan.commands.append(Command("stability", scn, out / f"point{j:02d}" / "stability"))
            if hinf <= 1.0 + oracles.STABILITY_TOL:
                plan.commands.append(Command("bound", scn, out / f"point{j:02d}" / "bound"))
                plan.bounds += 1
        plan.realizations = plan.bounds        # each bound simulates one deterministic run
        return plan

    raise ValueError(f"unknown workload {workload!r}")
