"""Minimal hand-rolled SVG 1.1 line charts (no plotting dependency)."""
from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple
from xml.sax.saxutils import escape

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 180, 30, 50

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def _ticks(lo: float, hi: float) -> List[float]:
    """About six round-valued ticks covering [lo, hi]."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * step:
        out.append(round(v, 12))
        v += step
    return out or [lo]


def line_chart(series: Dict[str, Sequence[Tuple[float, float]]], x_label: str) -> str:
    """Render named (x, y) regret series to an SVG document with axes and a legend."""
    if not series or all(len(pts) == 0 for pts in series.values()):
        raise ValueError("no data to plot")
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(min(ys), 0.0), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T + plot_h}" x2="{MARGIN_L + plot_w}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{sx(tx):.1f}" y1="{MARGIN_T + plot_h}" x2="{sx(tx):.1f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
            f'<text x="{sx(tx):.1f}" y="{MARGIN_T + plot_h + 18}" font-size="11" '
            f'text-anchor="middle">{tx:g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{sy(ty):.1f}" x2="{MARGIN_L}" '
            f'y2="{sy(ty):.1f}" stroke="black"/>'
            f'<text x="{MARGIN_L - 8}" y="{sy(ty) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{ty:g}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{HEIGHT - 10}" font-size="13" '
        f'text-anchor="middle">{x_label}</text>'
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.0f})">regret</text>'
    )
    for i, (name, pts) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        pts = sorted(pts)
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{coords}"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>')
        ly = MARGIN_T + 16 + 18 * i
        lx = MARGIN_L + plot_w + 12
        parts.append(
            f'<g class="legend-entry"><line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
            f'<text x="{lx + 28}" y="{ly}" font-size="11">{escape(name)}</text></g>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
