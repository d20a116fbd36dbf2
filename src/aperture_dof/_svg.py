"""Tiny native SVG log-axis line-plot writer; keeps the CLI free of plot dependencies."""

from __future__ import annotations

import math

_PALETTE = ("#1f6fb4", "#d0541f", "#3a8f3a", "#8451a8", "#9c8820")
_WIDTH, _HEIGHT = 760, 460
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 34.0, 46.0


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if not (hi > lo):
        return [lo]
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def plot_lines(
    series: list[dict],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    vlines: list[tuple[float, str]] | None = None,
    y_floor: float = 1e-12,
) -> str:
    """Render polyline series on a log10 y axis into an SVG document string.

    Each series dict: x (sequence), y (sequence), label (str, optional).
    y values are clamped at y_floor; y ticks fall on decades.
    """
    xs = [float(v) for s in series for v in s["x"]]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if vlines:
        x_lo = min(x_lo, min(v for v, _ in vlines))
        x_hi = max(x_hi, max(v for v, _ in vlines))

    def ys_of(s):
        return [max(float(v), y_floor) for v in s["y"]]

    ally = [v for s in series for v in ys_of(s)]
    y_lo = 10.0 ** math.floor(math.log10(min(ally)))
    y_hi = 10.0 ** math.ceil(math.log10(max(ally)))
    if y_hi == y_lo:
        y_hi = y_lo * 10.0
    ticks_y = []
    d = math.log10(y_lo)
    # cap decade labels so dense floors stay readable
    step = max(1, round((math.log10(y_hi) - d) / 8))
    while d <= math.log10(y_hi) + 1e-9:
        ticks_y.append(10.0 ** d)
        d += step

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        f = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        return _MARGIN_T + (1.0 - f) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w:.1f}" height="{plot_h:.1f}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="13">{title}</text>'
        )

    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        out.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h:.1f}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 4:.1f}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 16:.1f}" '
            f'text-anchor="middle">{t:.6g}</text>'
        )
    for t in ticks_y:
        y = py(t)
        out.append(
            f'<line x1="{_MARGIN_L - 4:.1f}" y1="{y:.1f}" x2="{_MARGIN_L:.1f}" '
            f'y2="{y:.1f}" stroke="#444"/>'
        )
        out.append(
            f'<line x1="{_MARGIN_L:.1f}" y1="{y:.1f}" x2="{_MARGIN_L + plot_w:.1f}" '
            f'y2="{y:.1f}" stroke="#ddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 7:.1f}" y="{y + 3.5:.1f}" '
            f'text-anchor="end">1e{round(math.log10(t))}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        cy = _MARGIN_T + plot_h / 2
        out.append(
            f'<text x="14" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {cy:.1f})">{ylabel}</text>'
        )

    for x, label in vlines or []:
        xp = px(x)
        out.append(
            f'<line x1="{xp:.1f}" y1="{_MARGIN_T}" x2="{xp:.1f}" '
            f'y2="{_MARGIN_T + plot_h:.1f}" stroke="#555" stroke-width="1" '
            'stroke-dasharray="6 4"/>'
        )
        if label:
            out.append(
                f'<text x="{xp + 4:.1f}" y="{_MARGIN_T + 12:.1f}">{label}</text>'
            )

    legend_y = _MARGIN_T + 14
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{px(float(x)):.2f},{py(y):.2f}" for x, y in zip(s["x"], ys_of(s))
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if s.get("label"):
            lx = _MARGIN_L + plot_w - 150
            out.append(
                f'<line x1="{lx:.1f}" y1="{legend_y - 4:.1f}" x2="{lx + 22:.1f}" '
                f'y2="{legend_y - 4:.1f}" stroke="{color}" stroke-width="1.5"/>'
            )
            out.append(f'<text x="{lx + 27:.1f}" y="{legend_y:.1f}">{s["label"]}</text>')
            legend_y += 15

    out.append("</svg>")
    return "\n".join(out) + "\n"
