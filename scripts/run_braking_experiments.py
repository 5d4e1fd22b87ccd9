#!/usr/bin/env python3
"""Braking experiments under bursty packet loss at two time headways.

Runs 100 seeded realizations of each shipped figure scenario and prints the
numbers behind the criterion-3 row of docs/decisions.md:

- the frequency-domain facts of the deterministic-equivalent string: ||H||inf,
  the amplifying band Omega+ = {w : |H(jw)| > 1} and the impulse-response
  L1 norm ||h||_1 (a hop-wise shrinking peak needs ||h||_1 <= 1);
- per-follower peaks of the deterministic-equivalent trajectory and of the
  mean trajectory over the runs;
- the mean trajectory's per-hop Parseval energies (total and inside Omega+),
  the quantity the H-infinity analysis governs;
- per-realization fractions of runs that are strictly monotone down the
  string under three readings: whole-run peak |e|, gap-opening lobe, and
  energy (in-band when Omega+ is non-empty, total otherwise).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from platoonkit.montecarlo import deterministic_equivalent, run_realizations
from platoonkit.scenario import load_scenario
from platoonkit.stability import cacc_error_tf, impulse_l1, is_string_stable, parseval_energies

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def monotone_fraction(values: np.ndarray, increasing: bool) -> float:
    """Fraction of rows (runs) strictly monotone across followers."""
    steps = np.diff(values, axis=1)
    return float(np.all(steps > 0 if increasing else steps < 0, axis=1).mean())


def summarize(name: str, n_runs: int) -> None:
    sc = load_scenario(SCENARIOS / f"{name}.scn")
    gamma = sc.channel.effective_gamma()
    tf = cacc_error_tf(sc.controller, sc.params.tau, gamma)
    freq = is_string_stable(sc.controller, sc.params.tau, gamma)
    errs = np.stack([r.spacing_errors for r in run_realizations(sc, np.arange(n_runs))])
    det_err = run_realizations(deterministic_equivalent(sc), [0])[0].spacing_errors
    mean_err = errs.mean(axis=0)

    total, in_band, omega_band = parseval_energies(mean_err, sc.dt, tf)
    run_total, run_band, _ = parseval_energies(errs, sc.dt, tf)
    amplifying = omega_band.size > 0
    energy = in_band if amplifying else total
    run_energy = run_band if amplifying else run_total
    peak_abs = np.abs(errs).max(axis=1)
    peak_open = np.maximum(0.0, -errs).max(axis=1)

    print(f"\n{name}: h_w = {sc.controller.h_w} s, gamma = {gamma:.2f}, "
          f"h_min = {freq.h_min:.4f} s, {'stable' if freq.stable else 'unstable'}")
    print(f"  ||H||inf = {freq.hinf:.4f} (squared {freq.hinf ** 2:.4f}), "
          f"||h||_1 = {impulse_l1(tf):.4f}")
    if amplifying:
        print(f"  Omega+ bins of the {sc.duration:g} s record: "
              f"{omega_band.min():.3f} .. {omega_band.max():.3f} rad/s ({omega_band.size} bins)")
    else:
        print("  Omega+ is empty")
    print(f"  peak |e| per follower, deterministic equivalent: {np.round(np.abs(det_err).max(axis=0), 3)}")
    print(f"  peak |e| per follower, mean of {n_runs} runs:         {np.round(np.abs(mean_err).max(axis=0), 3)}")
    print(f"  mean-trajectory energy per follower, total [m^2 s]: {np.round(total, 3)}")
    if amplifying:
        print(f"  mean-trajectory energy per follower, in Omega+:   {np.round(in_band, 3)}")
    print(f"  per-hop {'in-band' if amplifying else 'total'} energy ratios: "
          f"{np.round(energy[1:] / energy[:-1], 4)}")
    # amplification down the string is expected exactly when Omega+ is non-empty
    print(f"  runs strictly {'increasing' if amplifying else 'decreasing'} at every hop: "
          f"whole-run peak {monotone_fraction(peak_abs, amplifying):.2f}, "
          f"opening lobe {monotone_fraction(peak_open, amplifying):.2f}, "
          f"{'in-band' if amplifying else 'total'} energy {monotone_fraction(run_energy, amplifying):.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=100)
    args = parser.parse_args()
    for name in ("fig2", "fig3"):
        summarize(name, args.runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
