"""Seeded inputs and CLI command sequences for the three benchmark workloads.

The seed drives only the scenario JSON files; the program sees nothing but
those files and the command lines below.  Every drawn start is kept only when
``validate_params`` accepts the scenario holding it, so no start is rejected
by the simulator.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nclbf import builtin_scenario, save_scenario, validate_params


@dataclass(frozen=True)
class Sizes:
    """How much work one job does; the benchmark uses the defaults."""

    single_published: int = 2      # leading published starts of linear2d_single
    single_drawn: int = 2          # seed-drawn starts in [2, 5]^2
    multi_drawn: int = 1           # seed-drawn starts on the outer ring
    t_max: float | None = None     # None keeps each fixture's published t_max
    vd_resolution: int = 201      # the CLI's defaults for the two grids
    ca_resolution: int = 101


@dataclass(frozen=True)
class Job:
    """One workload instance: scenario files and the commands run on them."""

    workload: str
    scenarios: dict                # scenario file name -> JSON text
    starts: dict                   # scenario file name -> ((x0, published?), ...)
    commands: tuple                # argv lists, relative to the job directory
    grid_points: int = 0           # points certified per job (certify only)

    def write(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.scenarios.items():
            (workdir / name).write_text(text)

    def argv(self, workdir: Path) -> list[list[str]]:
        """Commands with file arguments resolved against ``workdir``."""
        return [[str(workdir / a[1:]) if a.startswith("@") else a for a in cmd]
                for cmd in self.commands]


def _admissible(config, x0: np.ndarray) -> bool:
    trial = dataclasses.replace(config, initial_states=(x0,))
    return validate_params(trial).passed


def _draw(rng: np.random.Generator, config, lo, hi, accept=lambda x: True,
          tries: int = 10_000) -> np.ndarray:
    """Uniform draw in the box [lo, hi] kept only when admissible."""
    for _ in range(tries):
        x = np.round(rng.uniform(lo, hi), 4)
        if accept(x) and _admissible(config, x):
            return x
    raise RuntimeError(f"no admissible start drawn in {lo}..{hi}")


def _fixture(name: str, sizes: Sizes):
    config = builtin_scenario(name)
    if sizes.t_max is None:
        return config
    return dataclasses.replace(config, integrator=dataclasses.replace(
        config.integrator, t_max=sizes.t_max))


def _with_starts(config, starts) -> str:
    return save_scenario(dataclasses.replace(
        config, initial_states=tuple(np.asarray(x, float) for x, _ in starts)))


def single_slide(seed: int, sizes: Sizes = Sizes()) -> Job:
    """linear2d_single: the head-on published starts (5, 5) and (4, 4), which
    slide along the virtual boundary, plus drawn starts in [2, 5]^2.

    The square is cut into horizontal strips, one draw per strip, so the work
    of a job varies little between seeds.
    """
    config = _fixture("linear2d_single", sizes)
    rng = np.random.default_rng([seed, 1])
    starts = [(tuple(map(float, x)), True)
              for x in config.initial_states[:sizes.single_published]]
    k = sizes.single_drawn
    for j in range(k):
        x = _draw(rng, config, (2.0, 2.0 + 3.0 * j / k), (5.0, 2.0 + 3.0 * (j + 1) / k))
        starts.append((tuple(map(float, x)), False))
    n = len(starts)
    csvs = [f"@sim/run_{i:02d}.csv" for i in range(n)]
    return Job("single_slide", {"single.json": _with_starts(config, starts)},
               {"single.json": tuple(starts)},
               (["simulate", "--scenario", "@single.json", "--out", "@sim"],
                ["plot", "--scenario", "@single.json", "--out", "@plot", *csvs]))


def multi_long(seed: int, sizes: Sizes = Sizes()) -> Job:
    """nonlinear_mech_three at t_max = 60 from starts drawn on the outer ring
    max(|x1|, |x2|) >= 4 of the box with |x1| >= 3, so every run is long: the
    slow mode needs about 50 s from there, while some starts near the x2 axis
    converge within 5 s."""
    config = _fixture("nonlinear_mech_three", sizes)
    rng = np.random.default_rng([seed, 2])
    starts = []
    for _ in range(sizes.multi_drawn):
        x = _draw(rng, config, (-5.0, -5.0), (5.0, 5.0),
                  accept=lambda x: abs(x[0]) >= 3.0 and float(np.max(np.abs(x))) >= 4.0)
        starts.append((tuple(map(float, x)), False))
    return Job("multi_long", {"multi.json": _with_starts(config, starts)},
               {"multi.json": tuple(starts)},
               (["simulate", "--scenario", "@multi.json", "--out", "@sim"],))


def certify(seed: int, sizes: Sizes = Sizes()) -> Job:
    """Both fixtures, each state box shifted by less than one grid cell."""
    rng = np.random.default_rng([seed, 3])
    scenarios, commands = {}, []
    for name in ("linear2d_single", "nonlinear_mech_three"):
        config = builtin_scenario(name)
        box = config.state_box
        cell = float(np.min(box[:, 1] - box[:, 0])) / (sizes.vd_resolution - 1)
        shift = np.round(rng.uniform(-0.99, 0.99, size=(config.n, 1)) * cell, 6)
        shifted = dataclasses.replace(config, state_box=box + shift)
        fname = f"{name}.json"
        scenarios[fname] = save_scenario(shifted)
        commands.append(["verify-derivative", "--scenario", f"@{fname}",
                         "--resolution", str(sizes.vd_resolution),
                         "--out", f"@vd_{name}.json"])
        commands.append(["check-assumptions", "--scenario", f"@{fname}",
                         "--resolution", str(sizes.ca_resolution),
                         "--out", f"@ca_{name}.json"])
    points = 2 * (sizes.vd_resolution ** 2 + sizes.ca_resolution ** 2)
    return Job("certify", scenarios, {}, tuple(commands), grid_points=points)


BUILDERS = {"single_slide": single_slide, "multi_long": multi_long, "certify": certify}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, sizes: Sizes = Sizes()) -> Job:
    return BUILDERS[workload](seed, sizes)


def warmup(workload: str) -> Job:
    """A small job on the same code paths, run during set-up."""
    return build(workload, 0, Sizes(single_published=1, single_drawn=0,
                                    multi_drawn=0, t_max=2.0,
                                    vd_resolution=21, ca_resolution=11))
