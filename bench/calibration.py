"""Host-speed calibration: a fixed loop timed between the benchmark's jobs.

The reference box is a shared 2-vCPU VM whose speed drifts by ±30% from one
minute to the next; medians within a run cannot remove that.  The loop below
does the same kind of work as the program (RK4 steps on 2-vectors with small
numpy operations, float math, one frozen dataclass per step) but runs no
nclbf code, so a change to the program never changes it.  A run times it
before and after every set-up and every job; the loop's reference time over
the mean of the two bracketing times is the host's speed during that interval,
and the timed metrics are reported at the reference speed (wall time x that
ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Typical time of ``loop()`` on the reference box (2-vCPU Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6); it defines the reference speed.
REFERENCE_S = 0.4
_STEPS = 24_000
_A = np.array([[0.0, 1.0], [-1.0, -0.5]])


@dataclass(frozen=True)
class _Sample:
    t: float
    x: np.ndarray
    v: float


def loop() -> int:
    x = np.array([1.0, 0.5])
    out = []
    for i in range(_STEPS):
        k1 = _A @ x
        k2 = _A @ (x + 0.0005 * k1)
        k3 = _A @ (x + 0.0005 * k2)
        k4 = _A @ (x + 0.001 * k3)
        x = x + (0.001 / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = float(x @ x)
        out.append(_Sample(i * 1e-3, x, math.sqrt(v) + math.tanh(float(x[1]))))
    return len(out)


def timed_loop() -> float:
    t0 = perf_counter()
    loop()
    return perf_counter() - t0


def at_reference(times: list[float], cals: list[float]) -> list[float]:
    """Each ``times[i]`` scaled to the reference speed by ``cals[i]`` and
    ``cals[i + 1]``, the loops timed just before and after it."""
    return [t * 2.0 * REFERENCE_S / (a + b) for t, a, b in zip(times, cals, cals[1:])]
