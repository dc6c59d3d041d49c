"""Minimal SVG line plotter: axes, ticks, polylines, legend.

Deliberately tiny so that plot emission adds no dependency; output is
deterministic (no timestamps, fixed float formatting).
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConvergenceError, DomainError

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_LEFT = 72.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0
_WIDTH = 900
_HEIGHT = 560


def _tick_positions(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    if span <= 0.0:
        return [lo]
    raw = span / target
    step = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= step * mult:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-9 * span else t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_svg(
    series: list[tuple[str, list[float], list[float]]],
    path: str | Path,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    ylog: bool = False,
) -> Path:
    """Write one SVG with a polyline per (label, x, y) triple.

    With ``ylog`` the vertical axis is log10; a y value that is not positive
    there is a failed result and raises ``ConvergenceError``.  Returns the path.
    """
    if not series:
        raise DomainError("nothing to plot")
    xs_all: list[float] = []
    ys_all: list[float] = []
    for label, xs, ys in series:
        if len(xs) != len(ys) or len(xs) < 2:
            raise DomainError(f"series {label!r} needs matching x/y of length >= 2")
        xs_all.extend(float(v) for v in xs)
        if ylog:
            for v in ys:
                if not v > 0.0:
                    raise ConvergenceError(f"series {label!r} has nonpositive value on a log axis")
            ys_all.extend(math.log10(float(v)) for v in ys)
        else:
            ys_all.extend(float(v) for v in ys)

    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_pad = 0.06 * (y_hi - y_lo)
    y_lo -= y_pad
    y_hi += y_pad

    box_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    box_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + box_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return _MARGIN_TOP + box_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{box_w:.1f}" '
        f'height="{box_h:.1f}" fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    for t in _tick_positions(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_TOP + box_h:.1f}" x2="{x:.2f}" '
            f'y2="{_MARGIN_TOP + box_h + 5:.1f}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_TOP + box_h + 19:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _tick_positions(y_lo, y_hi):
        y = py(t)
        label = f"1e{_fmt(t)}" if ylog else _fmt(t)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5:.1f}" y1="{y:.2f}" x2="{_MARGIN_LEFT:.1f}" '
            f'y2="{y:.2f}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8:.1f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_LEFT + box_w / 2:.1f}" y="{_HEIGHT - 10}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="13">{xlabel}</text>'
        )
    if ylabel:
        y_mid = _MARGIN_TOP + box_h / 2
        parts.append(
            f'<text x="16" y="{y_mid:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 16 {y_mid:.1f})">{ylabel}</text>'
        )
    for k, (label, xs, ys) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        pts = []
        for xv, yv in zip(xs, ys):
            yy = math.log10(float(yv)) if ylog else float(yv)
            pts.append(f"{px(float(xv)):.2f},{py(yy):.2f}")
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"/>'
        )
        if label:
            ly = _MARGIN_TOP + 16 + 15 * k
            lx = _MARGIN_LEFT + box_w - 150
            parts.append(
                f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 22:.1f}" '
                f'y2="{ly - 4:.1f}" stroke="{color}" stroke-width="1.6"/>'
            )
            parts.append(
                f'<text x="{lx + 27:.1f}" y="{ly:.1f}" font-family="sans-serif" '
                f'font-size="12">{label}</text>'
            )
    parts.append("</svg>")
    out = Path(path)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return out
