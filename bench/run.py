#!/usr/bin/env python3
"""platoonkit benchmark: one workload through `platoonkit.cli.main`, in-process.

    python3 bench/run.py --workload {safety_brake,bursty_mean,bound_sweep}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from any directory of a source checkout; the program is imported from
its `src/`. Set-up (imports, writing the seeded scenario files, parsing
them) is measured in separate short processes; the workload's commands then
run in whole rounds until `--seconds` have passed, at least one round, and
are checked after the timed region. The last line of standard output is a
JSON object: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "realizations_per_s": "1/s",
              "bounds_per_s": "1/s", "peak_rss_mb": "MB"}


def _cap_blas_threads() -> None:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= cores:
            os.environ[var] = str(cores)


def set_up(workload: str, seed: int, work: Path, tracer=None):
    """Imports, the seeded scenario files and their parsing: what precedes the first command."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import inputs
    from platoonkit import cli, scenario

    if tracer is not None:
        tracer.install()
    plan = inputs.build(workload, seed, ROOT / "scenarios", work)
    for path in sorted({cmd.scenario for cmd in plan.commands}):
        scenario.load_scenario(path)
    return cli, plan


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Set-up times of fresh processes, from spawn until the scenarios are parsed."""
    times = []
    for i in range(SETUP_PROBES):
        start = time.monotonic()   # CLOCK_MONOTONIC: one clock for every process
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe", str(work / f"probe{i}")],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def run_round(cli, plan, tracer=None) -> tuple[float, int, str]:
    """Run every command once; returns (seconds, failed commands, digest of all outputs)."""
    failed = 0
    t0 = time.perf_counter()
    for cmd in plan.commands:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    rc = cli.main(cmd.argv)
                else:
                    rc = tracer.call(f"cli.{cmd.kind}", cli.main, (cmd.argv,), {})
        except Exception:
            traceback.print_exc()
            rc = -1
        if rc != 0:
            print(f"command failed (exit {rc}): platoonkit {' '.join(cmd.argv)}", file=sys.stderr)
            failed += 1
    elapsed = time.perf_counter() - t0
    digest = hashlib.sha256()
    for cmd in plan.commands:
        for path in sorted(cmd.out.iterdir()):
            digest.update(path.name.encode() + path.read_bytes())
    return elapsed, failed, digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "platoonkit" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"no platoonkit source tree (src/platoonkit, scenarios/) under {ROOT}", file=sys.stderr)
        return 2
    _cap_blas_threads()

    if args.setup_probe is not None:
        set_up(args.workload, args.seed, Path(args.setup_probe))
        print(time.monotonic())
        return 0

    sys.path.insert(0, str(BENCH))
    import inputs
    import tracing
    if args.workload not in inputs.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(inputs.WORKLOADS)}", file=sys.stderr)
        return 2

    work = BENCH / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup_times = measure_setup(args.workload, args.seed, work)

    tracer = tracing.Tracer() if args.trace else None
    cli, plan = set_up(args.workload, args.seed, work / "run", tracer)

    if tracer is not None:
        tracer.phase = "round"
    walls, digests, failed = [], set(), 0
    cpu0 = os.times()
    start = time.perf_counter()
    while True:
        elapsed, bad, digest = run_round(cli, plan, tracer)
        walls.append(elapsed)
        digests.add(digest)
        failed += bad
        if time.perf_counter() - start >= args.seconds:
            break
    cpu1 = os.times()
    cpu = sum(b - a for a, b in zip(cpu0[:4], cpu1[:4])) / len(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    import checks
    try:
        problems = checks.verify(plan)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems = [f"outputs unreadable: {exc!r}"]
    if len(digests) > 1:
        problems.append(f"outputs differ between rounds run on the same inputs ({len(digests)} digests)")
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)

    wall = statistics.median(walls)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "realizations_per_s": plan.realizations / wall,
            "bounds_per_s": plan.bounds / wall,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        values = tracer.metrics(len(walls), cpu)
        units = tracing.PER_LAYER
        for name in tracer.missing:
            print(f"note: {name} no longer exists; its metric reads 0")
        for name in sorted(tracer.uncounted):
            print(f"note: the counts taken from {name} are incomplete")
        for name, value in values.items():
            if value == 0:
                why = inputs.ABSENT[args.workload].get(name, "not expected; see the spans file")
                print(f"note: {name} reads 0 on {args.workload}: {why}")
        print(f"note: traced round wall {wall:.4f} s over {len(walls)} round(s)")

    result = {
        "correct": not problems,
        "attempted": len(walls) * len(plan.commands),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(results / f"{stem}-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
