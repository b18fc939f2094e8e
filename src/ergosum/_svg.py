"""Minimal deterministic SVG line charts.

Pure string construction, no renderer: charts must be reproducible byte
for byte, so every coordinate is formatted with a fixed '%.6g' and the
output depends only on the data passed in. Log axes drop nonpositive
points rather than clamping them.
"""

from __future__ import annotations

import math

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 42, 52
_WIDTH, _HEIGHT = 720, 440


def _fmt(x: float) -> str:
    return "%.6g" % x


def _tick_values(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e = math.ceil(math.log10(lo) - 1e-9)
        hi_e = math.floor(math.log10(hi) + 1e-9)
        step = max(1, (hi_e - lo_e) // 7 + (1 if (hi_e - lo_e) % 7 else 0))
        ticks = [10.0**e for e in range(lo_e, hi_e + 1, step)]
        return ticks or [lo, hi]
    if hi == lo:
        return [lo]
    step = (hi - lo) / 5.0
    return [lo + i * step for i in range(6)]


class _Axis:
    def __init__(self, values, log: bool, lo_px: float, hi_px: float):
        vals = [v for v in values if math.isfinite(v) and (not log or v > 0)]
        if not vals:
            vals = [1.0, 10.0] if log else [0.0, 1.0]
        lo, hi = min(vals), max(vals)
        if log:
            lo_t, hi_t = math.log10(lo), math.log10(hi)
        else:
            lo_t, hi_t = lo, hi
        if hi_t == lo_t:
            lo_t, hi_t = lo_t - 0.5, hi_t + 0.5
        pad = 0.04 * (hi_t - lo_t)
        self.log = log
        self.lo, self.hi = lo, hi
        self.lo_t, self.hi_t = lo_t - pad, hi_t + pad
        self.lo_px, self.hi_px = lo_px, hi_px

    def px(self, v: float) -> float | None:
        if not math.isfinite(v) or (self.log and v <= 0):
            return None
        t = math.log10(v) if self.log else v
        frac = (t - self.lo_t) / (self.hi_t - self.lo_t)
        return self.lo_px + frac * (self.hi_px - self.lo_px)


def line_chart(title: str, x_label: str, y_label: str, series,
               x_log: bool = False, y_log: bool = False) -> str:
    """An SVG document plotting (label, xs, ys) triples as polylines."""
    series = [(str(lbl), list(xs), list(ys)) for lbl, xs, ys in series]
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    ax = _Axis(all_x, x_log, _MARGIN_L, _WIDTH - _MARGIN_R)
    ay = _Axis(all_y, y_log, _HEIGHT - _MARGIN_B, _MARGIN_T)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{_esc(title)}</text>',
    ]
    # frame
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    parts.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    for tv in _tick_values(ax.lo, ax.hi, x_log):
        px = ax.px(tv)
        if px is None or not (x0 - 0.5 <= px <= x1 + 0.5):
            continue
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" '
            f'stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{_fmt(tv)}</text>'
        )
    for tv in _tick_values(ay.lo, ay.hi, y_log):
        py = ay.px(tv)
        if py is None or not (y1 - 0.5 <= py <= y0 + 0.5):
            continue
        parts.append(
            f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" '
            f'stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{_fmt(tv)}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) // 2}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{_esc(x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {(y0 + y1) // 2})">{_esc(y_label)}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = []
        for x, y in zip(xs, ys):
            px, py = ax.px(x), ay.px(y)
            if px is not None and py is not None:
                pts.append(f"{_fmt(px)},{_fmt(py)}")
        if pts:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        ly = y1 + 16 + 16 * i
        parts.append(
            f'<line x1="{x1 - 150}" y1="{ly - 4}" x2="{x1 - 126}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x1 - 120}" y="{ly}" font-family="monospace" '
            f'font-size="11">{_esc(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
