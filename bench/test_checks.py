"""Self-tests of the benchmark's output checks: each accepts platoonkit's real
output and rejects it once corrupted.

    python3 -m pytest bench/test_checks.py -q

The outputs come from small runs of the same commands the workloads use
(hundreds of realizations instead of thousands), written under bench/work/.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
from platoonkit import cli  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def work():
    path = BENCH / "work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(argv):
    assert cli.main(argv) == 0


# -- safety_brake ---------------------------------------------------------------

@pytest.fixture(scope="module")
def safety(work):
    plan = inputs.build("safety_brake", SEED, BENCH.parent / "scenarios", work / "safety")
    scn = plan.commands[0].scenario
    stats, variance = {}, {}
    for mode in ("acc", "cacc"):
        out = work / "safety" / mode
        _run(["montecarlo", str(scn), "--mode", mode, "--realizations", "256", "--out", str(out)])
        stats[mode] = checks.parse_summary(out / "safety_stats.txt")
        variance[mode] = np.loadtxt(out / "variance_series.csv", delimiter=",", skiprows=1)[:, 1:]
    spec = oracles.read_spec(scn)
    return scn, spec, stats, variance


def test_montecarlo_accepts_real_output(safety):
    _, spec, stats, variance = safety
    assert checks.check_montecarlo(stats, variance, 256, spec.n_steps + 1) == []


def test_montecarlo_rejects_swapped_modes(safety):
    _, spec, stats, variance = safety
    swapped = {"acc": dict(stats["cacc"], mode="acc"), "cacc": dict(stats["acc"], mode="cacc")}
    bad = checks.check_montecarlo(swapped, variance, 256, spec.n_steps + 1)
    assert any("p_collision" in m for m in bad) and any("mean events" in m for m in bad)


def test_montecarlo_rejects_wrong_count_and_bad_variance(safety):
    _, spec, stats, variance = safety
    short = dict(stats, acc=dict(stats["acc"], realizations="255"))
    assert any("requested" in m for m in checks.check_montecarlo(short, variance, 256, spec.n_steps + 1))
    for corrupt in (-1e-12, np.nan, np.inf):
        var = dict(variance, cacc=variance["cacc"].copy())
        var["cacc"][100, 2] = corrupt
        assert any("variance" in m for m in checks.check_montecarlo(stats, var, 256, spec.n_steps + 1))


@pytest.fixture(scope="module")
def samples(safety):
    scn, spec, _, _ = safety
    out = []
    for mode in ("acc", "cacc"):
        for res in checks.engine_samples(scn, mode, list(range(12))):
            limits = oracles.decel_limits(spec, res.index)
            out.append((mode, res, limits, oracles.simulate_string(spec, limits, mode=mode)))
    return spec, out


def test_samples_agree_with_oracle(samples):
    spec, out = samples
    assert any(res.collision_events for _, res, _, _ in out)
    assert any(not res.collision_events for _, res, _, _ in out)
    for mode, res, limits, run in out:
        assert checks.check_decel_limits(res.decel_limits, limits, mode) == []
        assert checks.check_first_collision(res.collision_events, run.events, spec.dt, mode) == []


def test_first_collision_rejects_shifted_step_and_pair(samples):
    spec, out = samples
    mode, res, _, run = next(s for s in out if s[1].collision_events)
    t, lead, follower = res.collision_events[0]
    for first in ((t + spec.dt, lead, follower), (t - spec.dt, lead, follower), (t, lead + 1, follower + 1)):
        assert checks.check_first_collision([first], run.events, spec.dt, mode) != []
    assert checks.check_first_collision([], run.events, spec.dt, mode) != []
    mode, res, _, run = next(s for s in out if not s[1].collision_events)
    assert checks.check_first_collision([(5.0, 0, 1)], run.events, spec.dt, mode) != []


def test_decel_limits_reject_other_stream(samples):
    spec, out = samples
    _, res, limits, _ = out[0]
    other = oracles.decel_limits(dataclasses.replace(spec, base_seed=spec.base_seed + 1), res.index)
    assert checks.check_decel_limits(res.decel_limits, other, "x") != []
    assert checks.check_decel_limits(res.decel_limits * (1 + 1e-8), limits, "x") != []


# -- bursty_mean ----------------------------------------------------------------

@pytest.fixture(scope="module")
def mean_summary(work):
    plan = inputs.build("bursty_mean", SEED, BENCH.parent / "scenarios", work / "bursty")
    out = work / "bursty" / "vm"
    _run(["validate-mean", str(plan.commands[0].scenario), "--realizations", "128", "--out", str(out)])
    return checks.parse_summary(out / "mean_validation.txt")


def test_mean_validation_accepts_real_output(mean_summary):
    assert checks.check_mean_validation(mean_summary, 128, 6) == []


def test_mean_validation_rejects_corruptions(mean_summary):
    s = mean_summary
    assert checks.check_mean_validation(dict(s, veh0_max_dev="1e-300"), 128, 6) != []
    assert checks.check_mean_validation(dict(s, max_normalized="2.0001"), 128, 6) != []
    assert checks.check_mean_validation(dict(s, max_normalized="nan"), 128, 6) != []
    assert checks.check_mean_validation(dict(s, realizations="127"), 128, 6) != []
    assert checks.check_mean_validation(dict(s, max_deviation="0.5"), 128, 6) != []


# -- bound_sweep and the bounds of every workload ----------------------------------

@pytest.fixture(scope="module")
def sweep(work):
    plan = inputs.build("bound_sweep", SEED, BENCH.parent / "scenarios", work / "sweep")
    stable = next(c for c in plan.commands if c.kind == "bound")
    bounded = {c.scenario for c in plan.commands if c.kind == "bound"}
    unstable = next(c for c in plan.commands if c.scenario not in bounded)
    cases = []
    for scn in (stable.scenario, unstable.scenario):
        out = work / "sweep" / scn.stem
        _run(["stability", str(scn), "--out", str(out)])
        freq = np.loadtxt(out / "freq_response.csv", delimiter=",", skiprows=1)
        cases.append((checks.parse_summary(out / "stability.txt"), freq, oracles.read_spec(scn)))
    out = work / "sweep" / "bound"
    _run(["bound", str(stable.scenario), "--out", str(out)])
    spec = oracles.read_spec(stable.scenario)
    run = oracles.simulate_string(spec, oracles.decel_limits(spec, 0))
    return cases, checks.parse_summary(out / "bound.txt"), run


def test_stability_accepts_real_output(sweep):
    cases, _, _ = sweep
    assert [int(c[0]["stable"]) for c in cases] == [1, 0]
    for summary, freq, spec in cases:
        assert checks.check_stability(summary, freq, spec, "p") == []


def test_stability_rejects_corruptions(sweep):
    cases, _, _ = sweep
    for summary, freq, spec in cases:
        hinf = float(summary["hinf"])
        assert checks.check_stability(dict(summary, hinf=repr(hinf * (1 + 1e-4))), freq, spec, "p") != []
        flipped = dict(summary, stable=str(1 - int(summary["stable"])))
        assert checks.check_stability(flipped, freq, spec, "p") != []
        assert checks.check_stability(dict(summary, gamma="0.5"), freq, spec, "p") != []
        bent = freq.copy()
        bent[700, 1] *= 1 + 1e-9
        assert checks.check_stability(summary, bent, spec, "p") != []


def test_bound_accepts_real_output(sweep):
    _, summary, run = sweep
    assert run.linear
    assert checks.check_bound(summary, run, "b") == []


def test_bound_rejects_corruptions(sweep):
    _, summary, run = sweep
    sim = float(summary["simulated_max_error_m"])
    assert checks.check_bound(dict(summary, simulated_max_error_m=repr(sim * (1 + 1e-6))), run, "b") != []
    low = dict(summary, bound_sqrt_trace_m=repr(sim * 0.999))
    assert any("below" in m for m in checks.check_bound(low, run, "b"))
