#!/usr/bin/env python3
"""Stop crossings: where the safety study's crossings start, and the crossing time against plain bisection.

Two parts, each checking `stop_crossing_time` bit for bit against the plain
bisection it replays (`plain_bisection` below: all 80 halvings of [0, dt],
the velocity evaluated at every midpoint) and counting the crossings whose
certified window was refused (the fallbacks, which evaluate every midpoint):

- census: every crossing of one batch of the shipped safety.scn (base seed
  41, realizations 0..n-1, at most one batch, so it runs in this process),
  in acc and in cacc mode.  Prints the stop-and-creep row of
  docs/decisions.md: how many crossings, the share that start below
  1e-3 m/s, and the median start velocity, acceleration and command.
- sweep: seeded random crossings that meet the engine's precondition (the
  ZOH velocity at dt is negative), with v = 0, v near 1e-18 and a = 0
  among them.  `--crossings 0` runs the census alone.

Exits 1 on any mismatch.

    PYTHONPATH=src python scripts/check_stop_crossings.py [--realizations 2048] [--crossings 1000000] [--seed 0]
"""

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np

from platoonkit import montecarlo
from platoonkit.dynamics import _certified_window, stop_crossing_time, zoh_coefficients
from platoonkit.scenario import load_scenario

SAFETY = Path(__file__).resolve().parent.parent / "scenarios" / "safety.scn"
CHUNK = 100_000   # random draws per block: keeps the sweep's arrays small


def plain_bisection(v: float, a: float, u: float, tau: float, dt: float) -> float:
    """All 80 halvings of [0, dt] on the in-step velocity: no early exit, no window.

    The tests' scalar platoon reference (tests/conftest.py) stops on it too.
    """
    lo, hi = 0.0, dt
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        r = -math.expm1(-mid / tau)
        if v + a * tau * r + u * (mid - tau * r) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def check(crossings) -> tuple[int, int, int]:
    """(mismatches, fallbacks, fallbacks from v = 0) of stop_crossing_time over (v, a, u, tau, dt) tuples."""
    mismatches = fallbacks = at_rest = 0
    for v, a, u, tau, dt in crossings:
        mismatches += stop_crossing_time(v, a, u, tau, dt) != plain_bisection(v, a, u, tau, dt)
        if _certified_window(v, a * tau, u, tau, dt) is None:
            fallbacks += 1
            at_rest += v == 0.0
    return mismatches, fallbacks, at_rest


def census(mode: str, realizations: int) -> list[tuple]:
    """Every stop_crossing_time call of safety.scn's first batch in this mode."""
    calls = []
    engine_call = montecarlo.stop_crossing_time

    def record(*args):
        calls.append(args)
        return engine_call(*args)

    sc = load_scenario(SAFETY)
    sc = dataclasses.replace(sc, controller=dataclasses.replace(sc.controller, mode=mode), realizations=realizations)
    montecarlo.stop_crossing_time = record
    try:
        montecarlo.run_safety_study(sc)
    finally:
        montecarlo.stop_crossing_time = engine_call
    return calls


def signed_log_uniform(rng, low: float, high: float, n: int) -> np.ndarray:
    """Magnitudes log-uniform in [low, high], each with a random sign."""
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(math.log10(low), math.log10(high), n)


def random_crossings(rng, n: int):
    """Yield n random (v, a, u, tau, dt) whose ZOH velocity at dt is negative.

    v is 0 one time in a hundred, else log-uniform in [1e-20, 30] m/s; a is
    a signed zero one time in a hundred, else of log-uniform magnitude in
    [1e-16, 10] m/s^2; u is uniform in [-10, 3] m/s^2 half the time, else of
    log-uniform magnitude in [1e-12, 3]; tau is uniform in [0.2, 0.8] s and
    dt one of 0.01, 0.05 and 0.2 s.  The near-rest creep of the census
    (v ~ 1e-6 m/s, a ~ -1e-4 m/s^2, small u > 0) is inside this range.
    tests/test_dynamics.py checks its crossings against plain_bisection.
    """
    while n:
        v = 10.0 ** rng.uniform(-20.0, math.log10(30.0), CHUNK)
        v[rng.random(CHUNK) < 0.01] = 0.0
        a = signed_log_uniform(rng, 1e-16, 10.0, CHUNK)
        a[rng.random(CHUNK) < 0.01] *= 0.0
        u = np.where(rng.random(CHUNK) < 0.5, rng.uniform(-10.0, 3.0, CHUNK), signed_log_uniform(rng, 1e-12, 3.0, CHUNK))
        tau = rng.uniform(0.2, 0.8, CHUNK)
        dt = rng.choice([0.01, 0.05, 0.2], CHUNK)
        for case in zip(v.tolist(), a.tolist(), u.tolist(), tau.tolist(), dt.tolist()):
            vi, ai, ui, ti, di = case
            _, _, c_va, c_vu, _, _ = zoh_coefficients(ti, di)
            if vi + ai * c_va + ui * c_vu < 0.0:   # the engine's test for a crossing
                yield case
                n -= 1
                if not n:
                    return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--realizations", type=int, default=montecarlo.BATCH_SIZE,
                        help=f"census realizations, 2 to {montecarlo.BATCH_SIZE} (one batch)")
    parser.add_argument("--crossings", type=int, default=1_000_000, help="random crossings in the sweep")
    parser.add_argument("--seed", type=int, default=0, help="seed of the sweep")
    args = parser.parse_args()
    if not 2 <= args.realizations <= montecarlo.BATCH_SIZE:
        parser.error(f"--realizations must be 2 to {montecarlo.BATCH_SIZE}")
    if args.crossings < 0:
        parser.error("--crossings must be nonnegative")

    bad = 0
    print(f"census: safety.scn, base seed 41, realizations 0-{args.realizations - 1}")
    print("| mode | crossings | start v < 1e-3 m/s | median start v | median a | median u | mismatches | fallbacks |")
    print("|---|---|---|---|---|---|---|---|")
    for mode in ("acc", "cacc"):
        calls = census(mode, args.realizations)
        mismatches, fallbacks, _ = check(calls)
        bad += mismatches
        v, a, u = (np.array([c[j] for c in calls]) for j in range(3))
        print(f"| {mode.upper()} | {len(calls):,} | {100 * (v < 1e-3).mean():.1f} % | {np.median(v):.3g} m/s "
              f"| {np.median(a):.2g} m/s² | {np.median(u):+.2g} m/s² | {mismatches} | {fallbacks} |")

    if args.crossings:
        t0 = time.perf_counter()
        mismatches, fallbacks, at_rest = check(random_crossings(np.random.default_rng(args.seed), args.crossings))
        bad += mismatches
        print(f"sweep: {args.crossings:,} random crossings (seed {args.seed}): {mismatches} mismatches, "
              f"{fallbacks} fallbacks ({100 * fallbacks / args.crossings:.3f} %, {at_rest} of them from v = 0), "
              f"{time.perf_counter() - t0:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
