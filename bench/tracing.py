"""Per-layer spans, recorded by wrapping the module-level functions through
which platoonkit's layers call one another.

Nothing inside the program changes: each wrapper replaces a name in the
module that looks it up at call time, and `uninstall` puts the original
back. Calls made many thousands of times per round ("hot" names) are summed
into their parent span instead of being kept one by one. A span's self time
is its duration minus the time of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

PER_LAYER = {
    "scenario.load_s": "s", "cli.write_s": "s",
    "montecarlo.batch_s": "s", "montecarlo.batches": "count", "montecarlo.vehicle_steps": "count",
    "montecarlo.step_loop_self_s": "s", "montecarlo.reception_s": "s", "montecarlo.reception_bytes": "B",
    "montecarlo.accumulate_s": "s", "montecarlo.accumulate_calls": "count",
    "montecarlo.decel_draw_s": "s", "montecarlo.collision_events": "count",
    "dynamics.stop_crossing_calls": "count", "dynamics.stop_crossing_s": "s",
    "stability.bound_s": "s", "stability.bound_calls": "count", "stability.lyapunov_s": "s",
    "stability.gain_sup_s": "s", "stability.eta_s": "s", "stability.hinf_s": "s",
    "stability.freq_response_s": "s", "process.cpu_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.hot: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])   # (phase, name) -> [calls, s]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.missing: list[str] = []      # wrapped names the program no longer has
        self.uncounted: set[str] = set()  # counters whose function changed shape
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def call(self, name: str, fn, args, kwargs, hot: bool = False):
        parent = self.stack[-1] if self.stack else None
        if hot:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                entry = self.hot[(self.phase, name)]
                entry[0] += 1
                entry[1] += dt
                if parent is not None:
                    parent["child_s"] += dt
        span = {"name": name, "phase": self.phase, "parent": parent["name"] if parent else None,
                "child_s": 0.0}
        self.stack.append(span)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                parent["child_s"] += span["end"] - span["start"]
            self.spans.append(span)

    def count(self, name: str, n: int) -> None:
        self.counts[(self.phase, name)] += int(n)

    # -- installing --------------------------------------------------------
    def wrap(self, module, attr: str, name: str, hot: bool = False, before=None, after=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = self.call(name, fn, args, kwargs, hot)
            if after is not None:
                try:
                    after(args, kwargs, result)
                except (TypeError, IndexError, AttributeError) as exc:
                    self.uncounted.add(f"{module.__name__}.{attr} ({exc!r})")
            return result

        self._patches.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        from platoonkit import cli, montecarlo, scenario, stability

        self.wrap(scenario, "load_scenario", "scenario.load")
        self.wrap(cli, "load_scenario", "scenario.load")
        for attr in ("write_csv", "write_summary", "write_manifest"):
            self.wrap(cli, attr, "cli.write")

        def hook_on_step(args, kwargs):
            on_step = kwargs.get("on_step")
            if on_step is not None:
                kwargs = dict(kwargs, on_step=lambda *a: self.call("montecarlo.accumulate", on_step, a, {}, hot=True))
            return args, kwargs

        def batch_done(args, kwargs, result):
            sc, indices = args[0], args[1]
            self.count("montecarlo.batches", 1)
            self.count("montecarlo.vehicle_steps", len(indices) * sc.n_vehicles * sc.n_steps)
            self.count("montecarlo.collision_events", sum(len(ev) for ev in result[2]))

        def reception_bytes(draws_per_channel):
            def after(args, kwargs, out):
                indices, n_pairs, n_slots = args[2], args[3], args[4]
                scratch = len(indices) * n_pairs * draws_per_channel(n_slots) * 8
                self.count("montecarlo.reception_bytes", out.nbytes + scratch)
            return after

        self.wrap(montecarlo, "_simulate_batch", "montecarlo.batch", before=hook_on_step, after=batch_done)
        # Uniform scratch: Gilbert draws one for the initial regime and two per
        # slot, iid one per slot, each a float64.
        self.wrap(montecarlo, "_gilbert_receptions", "montecarlo.reception",
                  after=reception_bytes(lambda t: 1 + 2 * t))
        self.wrap(montecarlo, "_iid_receptions", "montecarlo.reception", after=reception_bytes(lambda t: t))
        self.wrap(montecarlo, "_decel_limits", "montecarlo.decel_draw")
        self.wrap(montecarlo, "stop_crossing_time", "dynamics.stop_crossing", hot=True)

        self.wrap(cli, "uniform_error_bound", "stability.bound")
        self.wrap(stability, "lyapunov_solve", "stability.lyapunov")
        self.wrap(stability, "_grid_sup", "stability.grid_sup")
        self.wrap(stability, "_eta_sup", "stability.eta")
        self.wrap(stability, "hinf_norm", "stability.hinf")
        self.wrap(cli, "freq_response_mag", "stability.freq_response", hot=True)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------
    def metrics(self, rounds: int, cpu_per_round: float) -> dict[str, float]:
        """Per-layer figures for one round; scenario.load_s adds the set-up's parsing."""
        def busy(name, phase="round", parent=None):
            return sum(s["end"] - s["start"] for s in self.spans
                       if s["name"] == name and s["phase"] == phase
                       and (parent is None or s["parent"] == parent))

        def hot(name, i):
            return self.hot[("round", name)][i]

        batches = [s for s in self.spans if s["name"] == "montecarlo.batch" and s["phase"] == "round"]
        per_round = {
            "cli.write_s": busy("cli.write"),
            "montecarlo.batch_s": busy("montecarlo.batch"),
            "montecarlo.batches": self.counts[("round", "montecarlo.batches")],
            "montecarlo.vehicle_steps": self.counts[("round", "montecarlo.vehicle_steps")],
            "montecarlo.step_loop_self_s": sum(s["end"] - s["start"] - s["child_s"] for s in batches),
            "montecarlo.reception_s": busy("montecarlo.reception"),
            "montecarlo.reception_bytes": self.counts[("round", "montecarlo.reception_bytes")],
            "montecarlo.accumulate_s": hot("montecarlo.accumulate", 1),
            "montecarlo.accumulate_calls": hot("montecarlo.accumulate", 0),
            "montecarlo.decel_draw_s": busy("montecarlo.decel_draw"),
            "montecarlo.collision_events": self.counts[("round", "montecarlo.collision_events")],
            "dynamics.stop_crossing_calls": hot("dynamics.stop_crossing", 0),
            "dynamics.stop_crossing_s": hot("dynamics.stop_crossing", 1),
            "stability.bound_s": busy("stability.bound"),
            "stability.bound_calls": sum(1 for s in self.spans
                                         if s["name"] == "stability.bound" and s["phase"] == "round"),
            "stability.lyapunov_s": busy("stability.lyapunov"),
            "stability.gain_sup_s": busy("stability.grid_sup", parent="stability.bound"),
            "stability.eta_s": busy("stability.eta"),
            "stability.hinf_s": busy("stability.hinf"),
            "stability.freq_response_s": hot("stability.freq_response", 1),
        }
        out = {name: value / rounds for name, value in per_round.items()}
        out["scenario.load_s"] = busy("scenario.load", "setup") + busy("scenario.load") / rounds
        out["process.cpu_s"] = cpu_per_round
        return {name: out[name] for name in PER_LAYER}

    def dump(self, path: Path) -> None:
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        hot = [{"phase": p, "name": n, "calls": c, "s": t} for (p, n), (c, t) in self.hot.items()]
        counts = [{"phase": p, "name": n, "value": v} for (p, n), v in self.counts.items()]
        path.write_text(json.dumps({"spans": spans, "hot": hot, "counts": counts, "missing": self.missing,
                                    "uncounted": sorted(self.uncounted)}, indent=1) + "\n")
