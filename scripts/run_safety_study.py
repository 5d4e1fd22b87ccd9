#!/usr/bin/env python3
"""Heterogeneous-braking safety study: collision statistics, ACC vs CACC.

Every realization draws per-vehicle deceleration limits, the leader performs
an emergency stop at its own limit, and both controller modes run on
identical draws.  Writes the per-follower variance series for each mode and
prints the comparison table.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from platoonkit.cli import write_csv
from platoonkit.montecarlo import run_safety_study
from platoonkit.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=str(SCENARIOS / "safety.scn"))
    parser.add_argument("--realizations", type=int, default=None)
    parser.add_argument("--out", default="runs/safety_study")
    args = parser.parse_args()

    sc = load_scenario(args.scenario)
    if args.realizations is not None:
        sc = dataclasses.replace(sc, realizations=args.realizations)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    stats = {}
    for mode in ("acc", "cacc"):
        t0 = time.perf_counter()
        controller = dataclasses.replace(sc.controller, mode=mode)
        stats[mode] = s = run_safety_study(dataclasses.replace(sc, controller=controller))
        print(f"{mode:4s}: n={s.n_realizations}  p_collision={s.p_collision:.4f}  "
              f"mean_events_per_unstable="
              f"{'n/a' if s.mean_events_per_unstable is None else f'{s.mean_events_per_unstable:.3f}'}"
              f"  ({time.perf_counter() - t0:.0f}s)")
        variances = {f"var_e{i + 1}_m2": s.variance_series[:, i] for i in range(sc.n_followers)}
        write_csv(out / f"variance_{mode}.csv", {"time_s": s.times, **variances})

    acc, cacc = stats["acc"], stats["cacc"]
    print(f"\nconnectivity effect: p_collision {acc.p_collision:.4f} -> {cacc.p_collision:.4f}, "
          f"variance peak {acc.variance_series.max():.2f} -> {cacc.variance_series.max():.2f} m^2")
    print(f"variance series written to {out}/variance_acc.csv and variance_cacc.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
