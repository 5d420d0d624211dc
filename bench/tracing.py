"""Benchmark-side tracing of the nclbf modules.

``Tracer.install()`` swaps the public entry points of each module for timed
wrappers and ``uninstall()`` puts the originals back; nothing under ``src/``
knows about it.  Every wrapped call counts, and its time is split into self
time and time covered by wrapped calls beneath it.  Leaf calls (f, g, the
feedback laws, the certificate's fields) get aggregated counters only; coarse
boundaries (CLI command, batch, per-start simulate, CSV write and read,
invariants, grid, assumptions, plot, scenario load) also record a span with
its parent, kept in memory until ``spans`` is written out.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

from nclbf import certificate, cli, controller, plotting, simulator, systems, verify
from nclbf.systems import ControlAffineSystem

LAYERS = ("cli", "scenario", "simulator", "systems", "controller",
          "certificate", "verify", "plotting")


def _slide_stats(samples) -> tuple[int, int]:
    """Sliding samples (law K3) and the number of maximal runs of them."""
    steps = episodes = 0
    prev = False
    for s in samples:
        cur = s.law.startswith("K3")
        steps += cur
        episodes += cur and not prev
        prev = cur
    return steps, episodes


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.rep = 0
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []      # frames: [child_s, span_id, f calls at entry]
        self._span_ids: list[int] = []
        self._factories: dict = {}        # system registry before install()
        self.reset()

    def reset(self) -> None:
        """Zero the counters (spans are kept)."""
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)     # per key, outermost calls only
        self.layer_self = defaultdict(float)
        self.layer_incl = defaultdict(float)
        self.counts = defaultdict(int)
        self._key_depth = defaultdict(int)
        self._layer_depth = defaultdict(int)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, key: str, span: bool = False, after=None):
        """Timed wrapper; ``after(args, result, frame)`` runs untimed."""
        layer = key.partition(".")[0]
        stack, span_ids = self._stack, self._span_ids

        def wrapper(*args, **kwargs):
            frame = [0.0, None, self.calls["systems.f"]]
            if span:
                frame[1] = len(self.spans)
                self.spans.append({"id": frame[1], "rep": self.rep, "name": key,
                                   "parent": span_ids[-1] if span_ids else None})
                span_ids.append(frame[1])
            self._key_depth[key] += 1
            self._layer_depth[layer] += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.calls[key] += 1
                self.layer_self[layer] += dur - frame[0]
                self._key_depth[key] -= 1
                if not self._key_depth[key]:
                    self.incl[key] += dur
                self._layer_depth[layer] -= 1
                if not self._layer_depth[layer]:
                    self.layer_incl[layer] += dur
                if span:
                    span_ids.pop()
                    self.spans[frame[1]].update(start=t0, end=t1)
            if after is not None:
                a0 = perf_counter()
                after(args, result, frame)
                dur += perf_counter() - a0
            if stack:
                stack[-1][0] += dur
            return result

        return wrapper

    def _patch(self, owner, name: str, key: str, **kw) -> None:
        orig = getattr(owner, name)
        self._patches.append((owner, name, orig))
        setattr(owner, name, self.wrap(orig, key, **kw))

    def _traced_factory(self, factory):
        def make():
            s = factory()
            return ControlAffineSystem(s.name, s.n, s.m, self.wrap(s.f, "systems.f"),
                                       self.wrap(s.g, "systems.g"))
        return make

    def install(self) -> None:
        """Patch every traced entry point; ``uninstall`` reverses it."""
        self._factories = dict(systems.SYSTEMS)
        for name, factory in self._factories.items():
            systems.register_system(name, self._traced_factory(factory))

        def on_simulate(args, rec, frame):
            n = len(rec.samples)
            slide, episodes = _slide_stats(rec.samples)
            self.counts["steps"] += n
            self.counts["slide_steps"] += slide
            self.counts["slide_episodes"] += episodes
            self.counts["rhs_in_simulate"] += self.calls["systems.f"] - frame[2]

        def on_write(args, _res, frame):
            fp = args[1]
            fp.flush()
            self.counts["csv_bytes"] += os.fstat(fp.fileno()).st_size

        def on_invariants(args, _res, frame):
            self.counts["invariant_samples"] += len(args[0].samples)

        def on_grid(args, report, frame):
            self.counts["grid_points"] += report.counts["total"]

        self._patch(cli, "load_scenario", "scenario.load", span=True)
        self._patch(simulator, "run_batch", "simulator.run_batch", span=True)
        self._patch(simulator, "simulate", "simulator.simulate", span=True,
                    after=on_simulate)
        self._patch(simulator, "write_trajectory_csv", "simulator.csv_write",
                    span=True, after=on_write)
        self._patch(simulator, "read_trajectory_csv", "simulator.csv_read", span=True)
        self._patch(verify, "trajectory_invariants", "verify.invariants", span=True,
                    after=on_invariants)
        self._patch(verify, "grid_decrease_check", "verify.grid", span=True,
                    after=on_grid)
        self._patch(verify, "upper_derivative", "verify.upper_derivative")
        # the CLI holds its own reference to check_assumptions
        self._patch(cli, "check_assumptions", "systems.assumptions", span=True)
        for name in ("render_phase_svg", "render_value_svg"):
            self._patch(plotting, name, f"plotting.{name}", span=True)
        for name in ("dispatch", "kappa1", "kappa2", "kappa3"):
            self._patch(controller.Controller, name, f"controller.{name}")
        for name in ("classify", "dominant_obstacle", "in_shrunk_band",
                     "L", "B", "grad_L", "grad_B"):
            self._patch(certificate.Certificate, name, f"certificate.{name}")

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()
        for name, factory in self._factories.items():
            systems.register_system(name, factory)

    def command(self, fn, argv):
        """Run one CLI command as a span of the cli layer."""
        return self.wrap(fn, "cli." + argv[0], span=True)(argv)

    # -- per-layer metrics ----------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the calls since the last ``reset``."""
        def ratio(a, b):
            return a / b if b else 0.0

        c, incl, n = self.calls, self.incl, self.counts
        steps = n["steps"]
        run_batch_s = incl["simulator.run_batch"]
        invariants_s = incl["verify.invariants"]
        grid_s = incl["verify.grid"]
        out = {
            "simulator.run_batch_s": run_batch_s,
            "simulator.us_per_step": ratio(1e6 * run_batch_s, steps),
            "simulator.slide_step_share": ratio(n["slide_steps"], steps),
            "simulator.slide_episodes": n["slide_episodes"],
            "simulator.csv_write_s": incl["simulator.csv_write"],
            "simulator.csv_bytes": n["csv_bytes"],
            "simulator.csv_read_s": incl["simulator.csv_read"],
            "systems.rhs_evals": c["systems.f"],
            "systems.rhs_evals_per_step": ratio(n["rhs_in_simulate"], steps),
            "systems.rhs_s": incl["systems.f"] + incl["systems.g"],
            "systems.assumptions_s": incl["systems.assumptions"],
            "controller.dispatch_calls": c["controller.dispatch"],
            "controller.kappa_calls": c["controller.kappa1"] + c["controller.kappa2"],
            "controller.s": self.layer_incl["controller"],
            "certificate.classify_calls": c["certificate.classify"],
            "certificate.s": self.layer_incl["certificate"],
            "verify.invariants_s": invariants_s,
            "verify.invariant_samples_per_s": ratio(n["invariant_samples"], invariants_s),
            "verify.grid_s": grid_s,
            "verify.grid_points_per_s": ratio(n["grid_points"], grid_s),
            "plotting.render_s": self.layer_incl["plotting"],
            "scenario.load_s": incl["scenario.load"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        return out


# Metrics that count work: they must repeat exactly from one job to the next.
COUNT_METRICS = ("simulator.slide_step_share",
                 "simulator.slide_episodes", "simulator.csv_bytes",
                 "systems.rhs_evals", "systems.rhs_evals_per_step",
                 "controller.dispatch_calls", "controller.kappa_calls",
                 "certificate.classify_calls")
