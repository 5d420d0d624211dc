"""Deterministic SVG rendering of phase portraits and V(t) curves.

Hand-written SVG keeps the artifacts self-contained and byte-stable across
runs: no rendering library, fixed canvas, fixed float formatting.
"""

from __future__ import annotations

import math

import numpy as np

from .certificate import Certificate
from .scenario import ScenarioConfig
from .simulator import TrajectoryRecord

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f"]
_MAX_POLYLINE_POINTS = 2000


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Canvas:
    def __init__(self, width: int, height: int):
        self.width, self.height = width, height
        self.parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                      f'height="{height}" viewBox="0 0 {width} {height}">',
                      f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>']

    def add(self, s: str):
        self.parts.append(s)

    def text(self, x, y, s, size=12, anchor="middle"):
        self.add(f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
                 f'font-family="sans-serif" text-anchor="{anchor}">{s}</text>')

    def finish(self) -> str:
        return "\n".join(self.parts) + "\n</svg>\n"


def _frame(canvas: _Canvas, x0, y0, w, h, xlim, ylim, xlabel, ylabel, n_ticks=5):
    canvas.add(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(w)}" height="{_fmt(h)}" '
               'fill="none" stroke="black" stroke-width="1"/>')
    for k in range(n_ticks):
        fx = k / (n_ticks - 1)
        vx = xlim[0] + fx * (xlim[1] - xlim[0])
        px = x0 + fx * w
        canvas.add(f'<line x1="{_fmt(px)}" y1="{_fmt(y0 + h)}" x2="{_fmt(px)}" '
                   f'y2="{_fmt(y0 + h + 4)}" stroke="black"/>')
        canvas.text(px, y0 + h + 16, f"{vx:g}", size=10)
        vy = ylim[0] + fx * (ylim[1] - ylim[0])
        py = y0 + h - fx * h
        canvas.add(f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" '
                   f'y2="{_fmt(py)}" stroke="black"/>')
        canvas.text(x0 - 8, py + 3, f"{vy:g}", size=10, anchor="end")
    canvas.text(x0 + w / 2, y0 + h + 32, xlabel)
    canvas.add(f'<text x="{_fmt(x0 - 32)}" y="{_fmt(y0 + h / 2)}" font-size="12" '
               f'font-family="sans-serif" text-anchor="middle" '
               f'transform="rotate(-90 {_fmt(x0 - 32)} {_fmt(y0 + h / 2)})">{ylabel}</text>')


def _polyline(cv: _Canvas, color: str, xs: np.ndarray, ys: np.ndarray) -> None:
    """A run's path through canvas points (xs, ys): every stride-th point, at
    most about _MAX_POLYLINE_POINTS of them, and the last."""
    n = len(xs)
    rows = np.unique(np.r_[0:n:max(1, math.ceil(n / _MAX_POLYLINE_POINTS)), n - 1])
    coords = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(xs[rows].tolist(), ys[rows].tolist()))
    cv.add(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')


def render_phase_svg(records: list[TrajectoryRecord], config: ScenarioConfig) -> str:
    """Obstacles (filled), virtual boundaries (dashed), contact points, paths."""
    if config.n != 2:
        raise ValueError(f"phase plot needs a planar state space (n = {config.n})")
    cert = Certificate(config)
    x0m, y0m, size = 60.0, 20.0, 560.0
    (xlo, xhi), (ylo, yhi) = config.state_box

    def px(v):
        return x0m + (v - xlo) / (xhi - xlo) * size

    def py(v):
        return y0m + size - (v - ylo) / (yhi - ylo) * size

    cv = _Canvas(680, 660)
    sx = size / (xhi - xlo)
    for i, ob in enumerate(config.obstacles):
        cx, cy = ob.center
        cv.add(f'<circle cx="{_fmt(px(cx))}" cy="{_fmt(py(cy))}" r="{_fmt(ob.radius * sx)}" '
               'fill="#c8c8c8" stroke="#505050" stroke-width="1"/>')
        sph = cert.boundary_sphere(i)
        cv.add(f'<circle cx="{_fmt(px(sph.center[0]))}" cy="{_fmt(py(sph.center[1]))}" '
               f'r="{_fmt(sph.radius * sx)}" fill="none" stroke="#303030" '
               'stroke-width="1" stroke-dasharray="6 4"/>')
        for cp in cert.contact_points_2d(i):
            x, y = px(cp[0]), py(cp[1])
            cv.add(f'<path d="M {_fmt(x - 4)} {_fmt(y - 4)} L {_fmt(x + 4)} {_fmt(y + 4)} '
                   f'M {_fmt(x - 4)} {_fmt(y + 4)} L {_fmt(x + 4)} {_fmt(y - 4)}" '
                   'stroke="#000000" stroke-width="1.5"/>')
    for k, rec in enumerate(records):
        if not len(rec):
            continue
        color = _PALETTE[k % len(_PALETTE)]
        _polyline(cv, color, px(rec.x[:, 0]), py(rec.x[:, 1]))
        a, b = rec.x[0].tolist()
        cv.add(f'<circle cx="{_fmt(px(a))}" cy="{_fmt(py(b))}" r="3" fill="{color}"/>')
        cv.text(x0m + size - 4, y0m + 14 + 14 * k,
                f"run {k}: ({a:g}, {b:g})", size=10, anchor="end")
    _frame(cv, x0m, y0m, size, size, (xlo, xhi), (ylo, yhi), "x1", "x2")
    return cv.finish()


def render_value_svg(records: list[TrajectoryRecord]) -> str:
    """V along each run against time."""
    x0m, y0m, w, h = 60.0, 20.0, 560.0, 300.0
    runs = [rec for rec in records if len(rec)]
    t_hi = max((float(rec.t[-1]) for rec in runs), default=1.0)
    v_hi = max((float(rec.V.max()) for rec in runs), default=1.0)
    t_hi = t_hi if t_hi > 0 else 1.0
    v_hi = v_hi if v_hi > 0 else 1.0
    cv = _Canvas(680, 380)
    for k, rec in enumerate(records):
        if len(rec):
            _polyline(cv, _PALETTE[k % len(_PALETTE)], x0m + rec.t / t_hi * w,
                      y0m + h - rec.V / v_hi * h)
    _frame(cv, x0m, y0m, w, h, (0.0, t_hi), (0.0, v_hi), "t", "V")
    return cv.finish()
